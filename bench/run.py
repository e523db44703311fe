"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload double_slit --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from `src/`.
With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics of a separate
traced run.  Each workload process is a fresh interpreter (bench/worker.py);
set-up time is the median over several of them.  End-to-end times are
scaled to a nominal machine speed (bench/reference.py, bench/README.md).
The full result, stamped
with the git SHA, Python, numpy and BLAS versions, BLAS threads, nproc and
the seed, goes to bench/results/ and, as a `#` line, to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # fresh-interpreter set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, every worker included
PREFIX = b"@@bench "


class WorkerError(RuntimeError):
    """A workload process crashed, timed out or broke the protocol."""


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Worker:
    """One bench/worker.py process and its protocol stream."""

    def __init__(self, args, mode: str, deadline: float):
        # One client thread: BLAS pools would only add threads for 1x1-3x3 matrices.
        # A fixed mmap threshold returns every block of 128 KiB or more to the
        # system when it is freed.  glibc's default raises the threshold after the
        # first such free, so later 16 MB quadrature grids came from the heap,
        # whose top a small block allocated meanwhile could pin: oracle_verify's
        # peak RSS read 73 or 89 MB in runs of the same inputs.  Huge pages,
        # which numpy asks for and the host grants depending on its free memory,
        # are off for the same reason.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_="131072",
                   NUMPY_MADVISE_HUGEPAGE="0")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--mode", mode]
        if args.fail_op is not None:
            cmd += ["--fail-op", str(args.fail_op)]
        self.deadline = deadline
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        self.buffer = b""

    def event(self, name: str) -> tuple[dict, float]:
        """Wait for the next protocol event; returns it with its arrival time."""
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                while b"\n" in self.buffer:
                    line, self.buffer = self.buffer.split(b"\n", 1)
                    if line.startswith(PREFIX):
                        event = json.loads(line[len(PREFIX):])
                        if event["event"] != name:
                            raise WorkerError(f"expected {name!r}, got {event['event']!r}")
                        return event, time.monotonic()
                left = self.deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise WorkerError(f"timed out waiting for {name!r}")
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise WorkerError(f"worker exited (code {self.proc.wait()}) before {name!r}")
                self.buffer += chunk

    def finish(self):
        try:
            code = self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker did not exit") from None
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")

    def close(self):
        """Kill the worker if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def measure(args, spec: dict) -> tuple[dict, dict]:
    """Run the set-ups and the timed window; returns (result line, info)."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []  # (seconds, machine speed measured right after)
    if not args.trace:
        for _ in range(SETUPS - 1):
            worker = Worker(args, "setup", deadline)
            try:
                _, ready_at = worker.event("ready")
                reference, _ = worker.event("reference")
                setups.append((ready_at - worker.started, reference["speed"]))
                worker.finish()
            finally:
                worker.close()
    worker = Worker(args, "run", deadline)
    try:
        ready, ready_at = worker.event("ready")
        reference, _ = worker.event("reference")
        setups.append((ready_at - worker.started, reference["speed"]))
        result, _ = worker.event("result")
        worker.finish()
    finally:
        worker.close()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(seconds * speed for seconds, speed in setups)
    missing = {m["name"] for m in declared} - metrics.keys()
    if missing:
        raise WorkerError(f"no value for {sorted(missing)}"
                          + (f"; first error {result['info']['first_error']}"
                             if result["info"].get("first_error") else ""))
    info = result["info"] | {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT),
        "setups_s": [seconds for seconds, _ in setups],
        "setup_speeds": [speed for _, speed in setups],
        "import_s": ready["import_s"],
        # error_rate is 0 at a correct commit, so it is not an end-to-end metric
        # of BENCHMARK.json (those must never be 0); the untraced run prints it here.
        "undeclared": {k: v for k, v in metrics.items()
                       if k not in {m["name"] for m in declared}},
    }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }, info


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit, so the `finally` blocks reap the workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Used by bench/smoke.py to prove that a failing check is counted.
    parser.add_argument("--fail-op", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "statesphere" / "__init__.py").is_file():
        print(f"bench: no statesphere package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, info = measure(args, spec)
    except WorkerError as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result | {"info": info}, indent=1) + "\n")
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
