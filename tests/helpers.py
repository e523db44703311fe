"""Shared helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import statesphere
from statesphere import (ConfinedKernel, Delta, Packet, PlaneWave, StateExpr,
                         TranslationKernel, hilbert_norm)

SRC = str(Path(statesphere.__file__).resolve().parent.parent)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports statesphere from this checkout."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def diff_norm(a, b, kernel) -> float:
    """Kernel norm of a - b, computed at the coefficient level.

    Terms with identical primitives are merged first, so algebraically equal
    expressions give exactly zero instead of a sqrt(machine-eps) floor.
    """
    merged: dict = {}
    for term in a.terms:
        key = term[1:]
        merged[key] = merged.get(key, 0j) + term[0]
    for term in b.terms:
        key = term[1:]
        merged[key] = merged.get(key, 0j) - term[0]
    terms = tuple((c, *key) for key, c in merged.items() if c != 0)
    return hilbert_norm(StateExpr(terms), kernel) if terms else 0.0


def random_primitive(rng, d=1, kinds=("delta", "packet")):
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "delta":
        return Delta(tuple(rng.uniform(-5, 5, d)))
    if kind == "wave":
        return PlaneWave(tuple(rng.uniform(-1.5, 1.5, d)))
    return Packet(tuple(rng.uniform(-5, 5, d)), float(rng.uniform(0.3, 2.0)),
                  tuple(rng.uniform(-1, 1, d)))


def random_state(rng, d=1, kinds=("delta", "packet"), max_terms=3) -> StateExpr:
    n = int(rng.integers(1, max_terms + 1))
    terms = tuple((complex(rng.normal(), rng.normal()), random_primitive(rng, d, kinds))
                  for _ in range(n))
    return StateExpr(terms)


def random_pair_state(rng, d=1, kinds=("delta", "packet"), max_terms=2) -> StateExpr:
    n = int(rng.integers(1, max_terms + 1))
    terms = tuple((complex(rng.normal(), rng.normal()),
                   random_primitive(rng, d, kinds), random_primitive(rng, d, kinds))
                  for _ in range(n))
    return StateExpr(terms)


coords = st.floats(-8.0, 8.0)
kernels = st.one_of(
    st.builds(TranslationKernel, st.floats(0.5, 2.0)),
    st.builds(ConfinedKernel, st.floats(0.05, 0.5), st.floats(0.5, 2.0)))


@st.composite
def primitives(draw, d, kinds=("delta", "packet", "wave")):
    """Hypothesis strategy: one primitive of dimension d, coordinates +-8."""
    kind = draw(st.sampled_from(kinds))
    vec = st.tuples(*[coords] * d)
    if kind == "delta":
        return Delta(draw(vec))
    momentum = st.tuples(*[st.floats(-3.0, 3.0)] * d)
    if kind == "wave":
        return PlaneWave(draw(momentum))
    return Packet(draw(vec), draw(st.floats(0.2, 3.0)), draw(momentum))


def tensor_grid_quadrature(exponent, boxes, n=801):
    """Trapezoid tensor-grid integral of exp(exponent(Z)) over a product box.

    `exponent` maps a (points, dim) array to complex exponents.  Test-local
    fallback integrator, independent of the package's oracle module.
    """
    axes = [np.linspace(lo, hi, n) for lo, hi in boxes]
    steps = [ax[1] - ax[0] for ax in axes]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    values = np.exp(exponent(pts)).reshape(mesh[0].shape)
    for step in reversed(steps):
        values = np.trapezoid(values, dx=step, axis=-1)
    return complex(values)
