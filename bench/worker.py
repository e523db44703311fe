"""One workload process: set up, then run the closed-loop timed window.

`run.py` starts this script in a fresh interpreter.  It imports statesphere,
builds the workload, runs op 0 untimed and reports `ready`; that ends the set
up.  In `run` mode it then runs whole cycles of ops for about `--seconds`,
sampling the machine speed all through an untraced window (SpeedSampler), and
reports the result.  Protocol lines on stdout start with `@@bench `; the CLI output of
each op is captured, so nothing else reaches stdout.

Usage (normally through run.py):
    python3 bench/worker.py --workload epr --seed 1 --seconds 5 --trace 0 --mode run
    python3 bench/worker.py --workload epr --mode golden   # rewrite golden/epr.json
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))  # the checkout's package, not an installed one
RESULTS = HERE / "results"
GOLDEN = HERE / "golden"
PROTOCOL = sys.stdout
SAMPLE_EVERY_S = 0.1  # untraced windows sample the machine speed (reference.py) this often,
SAMPLE_S = 0.005  # for this long
NEAR_S = 0.25  # an op runs at the mean speed of the samples within this of it
SETUP_SAMPLE_S = 0.2  # speed sample right after set-up


def emit(event: str, **fields):
    print("@@bench " + json.dumps({"event": event, **fields}), file=PROTOCOL, flush=True)


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split()[-1] for line in maps if "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            return int(getattr(lib, symbol)())
    return None


def _process_threads():
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def stamp(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "process_threads": _process_threads(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


class Runner:
    """Runs and checks ops; counts attempts and failures."""

    def __init__(self, workload, golden, fail_op):
        import workloads

        self.check_failed = workloads.CheckFailed
        self.matches = workloads.matches_golden
        self.workload = workload
        self.golden = golden
        self.fail_op = fail_op
        self.attempted = 0
        self.failed = 0
        self.first_error = None
        self.clock = perf_counter

    def op(self, i: int, tracer=None, counting=False):
        """Run op i; returns (ok, start, end) on `self.clock`."""
        wl = self.workload
        inp = wl.make_input(i)
        if tracer is not None:
            tracer.begin_op(i, counting)
        t0 = self.clock()
        try:
            out = wl.run(inp)
        except Exception as exc:  # an op that raises is a failed op
            return self._fail(i, exc), t0, self.clock()
        finally:
            if tracer is not None:
                tracer.end_op()
        t1 = self.clock()
        try:
            wl.check(inp, out)
            if i < len(self.golden):
                if not self.matches(wl.view(inp, out), self.golden[i]):
                    raise self.check_failed(f"op {i} differs from its golden record")
            if i == self.fail_op:
                raise self.check_failed(f"deliberate failure of op {i}")
        except Exception as exc:  # a failed or crashing check fails the op
            return self._fail(i, exc), t0, t1
        self.attempted += 1
        return True, t0, t1

    def _fail(self, i: int, exc: Exception) -> bool:
        self.attempted += 1
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"op {i}: {type(exc).__name__}: {exc}"
            traceback.print_exception(exc, file=sys.stderr)
        return False


class SpeedSampler:
    """Machine speed (reference.py) sampled all through an untraced window.

    A timer interrupts the process every SAMPLE_EVERY_S and the handler times
    the reference loop for SAMPLE_S.  `clock` leaves the handler's time out,
    so op times do not include it.  An op runs at the median speed of the
    samples taken from NEAR_S before it starts to NEAR_S after it ends.  A
    2.5 s double-slit op repeated 25 times varied 0.18 of its mean time;
    scaled by samples taken between the ops it varied 0.08, by samples taken
    within them 0.035."""

    def __init__(self, sample):
        self.sample = sample  # reference.speed
        self.times = []  # on the clock
        self.speeds = []
        self.stolen = 0.0  # time spent in the handler

    def clock(self) -> float:
        return perf_counter() - self.stolen

    def _handler(self, signum, frame):
        start = perf_counter()
        self.speeds.append(self.sample(SAMPLE_S))
        self.times.append(start - self.stolen)
        self.stolen += perf_counter() - start

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)
        if not self.times:  # a window shorter than SAMPLE_EVERY_S
            self._handler(None, None)

    def speeds_at(self, spans, np):
        """Median speed of the samples near each (start, end) span; the
        window's median where none is near.  A median, because about 1% of
        the samples read below 0.2: the handler itself was held up."""
        times, speeds = np.array(self.times), np.array(self.speeds)
        spans = np.asarray(spans)
        lo = np.searchsorted(times, spans[:, 0] - NEAR_S)
        hi = np.searchsorted(times, spans[:, 1] + NEAR_S, side="right")
        whole = float(np.median(speeds))
        return np.array([np.median(speeds[a:b]) if b > a else whole
                         for a, b in zip(lo, hi)])


TAIL_PERCENTILES = (90.0, 50.0)


def percentile_tail(latencies, np):
    """p90 when at least 10 samples lie beyond it, else p50.  A fixed ladder
    keeps the same percentile in every run of a workload.  The shared host
    stalls the process for milliseconds at a time, and the stalls hit 1-2% of
    point_queries ops: its scaled p99 read 3.7 to 8.0 ms in ten runs of one
    set, and p99.9 swung 2x."""
    n = len(latencies)
    q = next((q for q in TAIL_PERCENTILES if n * (1.0 - q / 100.0) >= 10.0), 50.0)
    return q, float(np.percentile(latencies, q))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup", "golden"), default="run")
    parser.add_argument("--fail-op", type=int, default=None,
                        help="make the check of this op fail (smoke test of error counting)")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import statesphere  # noqa: F401  (timed: import cost is part of set-up)
    import_s = perf_counter() - t0

    import numpy as np
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    wl = workloads.WORKLOADS[args.workload](seed)
    golden_path = GOLDEN / f"{wl.name}.json"

    if args.mode == "golden":
        records = []
        for i in range(wl.cycle):
            inp = wl.make_input(i)
            out = wl.run(inp)
            wl.check(inp, out)
            records.append(wl.view(inp, out))
        GOLDEN.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(
            {"workload": wl.name, "seed": seed, "tolerance": "|got - want| <= 1e-9|want| + 1e-12",
             "records": records}, indent=1) + "\n")
        return 0

    # Op 0 is the same for every seed, so its golden record is always compared;
    # the rest of the first cycle only for the default seed.  A missing golden
    # file fails the compared ops instead of skipping the check.
    golden = (json.loads(golden_path.read_text())["records"] if golden_path.exists()
              else [{}] * wl.cycle)
    if seed != workloads.DEFAULT_SEED:
        golden = golden[:1]
    runner = Runner(wl, golden, args.fail_op)
    runner.op(0)
    emit("ready", import_s=import_s, ok=runner.failed == 0)
    # The machine speed right after set-up scales this process's set-up time.
    emit("reference", speed=reference.speed(SETUP_SAMPLE_S) ** wl.speed_exponent)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    latencies = {True: [], False: []}  # traced?, successful ops only
    traced_ids = []
    sampler = SpeedSampler(reference.speed) if tracer is None else None
    if sampler is not None:
        runner.clock = sampler.clock
    spans = []  # (start, end, ok) of the untraced ops
    i = 1
    window_start = perf_counter()
    with sampler if sampler is not None else contextlib.nullcontext():
        # The window holds whole cycles, so every run has the same op mix: as many
        # as bring its length nearest to --seconds, at least one (two when traced,
        # so that untraced ops are there to compare with).
        while True:
            if (i - 1) % wl.cycle == 0:
                cycles = (i - 1) // wl.cycle
                elapsed = perf_counter() - window_start
                if cycles >= (2 if tracer else 1) and elapsed * (1 + 0.5 / cycles) >= args.seconds:
                    break
            # Trace whole cycles of the op mix, alternating with untraced cycles;
            # the first traced cycle also records the exact counters.
            traced = (tracer is not None and ((i - 1) // wl.cycle) % 2 == 0
                      and not tracer.full)
            ok, start, end = runner.op(i, tracer if traced else None, counting=i <= wl.cycle)
            if traced:
                traced_ids.append(i)
            else:
                spans.append((start, end, ok))
            if ok:
                latencies[traced].append(end - start)
            i += 1

    info = {"ops": i, "stamp": stamp(np), "first_error": runner.first_error}
    if tracer is None:
        ok_lat = latencies[False]
        if not ok_lat:
            emit("result", attempted=runner.attempted, failed=runner.failed, metrics={}, info=info)
            return 0
        window = np.array(spans)
        seconds, ok = window[:, 1] - window[:, 0], window[:, 2] == 1
        scaled = seconds * sampler.speeds_at(window[:, :2], np) ** wl.speed_exponent
        q, tail = percentile_tail(scaled[ok], np)
        info |= {"tail_percentile": q, "samples": len(ok_lat),
                 "speed": float(scaled.sum() / seconds.sum()),
                 "speed_samples": len(sampler.times),
                 "unscaled": {"ops_per_s": len(ok_lat) / float(seconds.sum()),
                              "op_ms.p50": 1e3 * float(np.percentile(ok_lat, 50)),
                              "op_ms.tail": 1e3 * float(np.percentile(ok_lat, q))}}
        if len(ok_lat) <= 200:
            info["latencies_ms"] = [round(1e3 * v, 1) for v in ok_lat]
        metrics = {
            "ops_per_s": len(ok_lat) / float(scaled.sum()),
            "op_ms.p50": 1e3 * float(np.percentile(scaled[ok], 50)),
            "op_ms.tail": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_rate": runner.failed / runner.attempted,
        }
    else:
        metrics = layer_metrics(tracer, traced_ids, latencies, wl.cycle, import_s, runner, np)
        info |= {"absent": tracer.absent, "spans": len(tracer.start),
                 "traced_ops": len(latencies[True]), "untraced_ops": len(latencies[False]),
                 "oracle.quad_nodes": "computed from the spec and primitive kinds"}
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"spans-{wl.name}.npz")
    emit("result", attempted=runner.attempted, failed=runner.failed, metrics=metrics, info=info)
    return 0


def layer_metrics(tracer, traced_ids, latencies, cycle, import_s, runner, np) -> dict:
    """Per-layer metrics of a traced run, keyed as in BENCHMARK.json."""
    counted = [op for op in traced_ids if op <= cycle]
    s = tracer.summary(len(traced_ids), counted)
    c, d = tracer.counters, tracer.distinct
    block = max(len(counted), 1)

    def ratio(name):
        calls = s[name]["calls"] * len(counted)
        return len(d[name]) / calls if calls else 0.0

    p50 = {k: 1e3 * float(np.percentile(v, 50)) if v else 0.0
           for k, v in latencies.items()}
    m = {
        "algebra.primitive_overlap.calls": s["algebra.primitive_overlap"]["calls"],
        "algebra.primitive_overlap.busy_s": s["algebra.primitive_overlap"]["busy_s"],
        "algebra.primitive_overlap.distinct_ratio": ratio("algebra.primitive_overlap"),
        "algebra.gaussian_integral.calls": s["algebra.gaussian_integral"]["calls"],
        "algebra.gaussian_integral.busy_s": s["algebra.gaussian_integral"]["busy_s"],
        "algebra.overlap.calls": s["algebra.overlap"]["calls"],
        "algebra.overlap.self_s": s["algebra.overlap"]["self_s"],
        "algebra.term_pairs": c["algebra.term_pairs"] / block,
    }
    for name in ("geometry.normalize", "geometry.sphere_angle", "geometry.geodesic_at",
                 "manifolds.nearest_classical_point", "kernels.induced_metric",
                 "oracle.quad_pair_overlap", "oracle.leggauss"):
        m[f"{name}.calls"] = s[name]["calls"]
        m[f"{name}.busy_s"] = s[name]["busy_s"]
    m |= {
        "manifolds.projection_evals": c["manifolds.projection_evals"] / block,
        "manifolds.gram_min_eigenvalue.busy_s": s["manifolds.gram_min_eigenvalue"]["busy_s"],
        "kernels.kernel_value.calls": s["kernels.kernel_value"]["calls"],
        "oracle.quad_nodes": c["oracle.quad_nodes"] / block,
        "oracle.leggauss.distinct_ratio": ratio("oracle.leggauss"),
    }
    for name in ("build_double_slit_trajectory", "detector_intensity", "build_epr_state",
                 "correlation_profile"):
        m[f"experiments.{name}.busy_s"] = s[f"experiments.{name}"]["busy_s"]
    m |= {
        "cli.run_record.busy_s": s["cli.run_record"]["busy_s"],
        "cli.overhead_s": s["cli.main"]["busy_s"] - s["cli.run_record"]["busy_s"],
        "setup.import_s": import_s,
        "trace.op_s": s["op"]["busy_s"],
        "trace.op_ms.p50": p50[True],
        "trace.overhead_ms": p50[True] - p50[False],
        "error_rate": runner.failed / runner.attempted,
    }
    return m


if __name__ == "__main__":
    sys.exit(main())
