"""Shared fixtures: converged reference waves and their Bloch scans.

Session-scoped so the expensive Newton solves and eigensolves are paid
once across the suite.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import modulon
from modulon import (ModelSpec, NonlinearitySpec, SymbolSpec,
                     model_for_symbol, refine_newton, small_amplitude_wave)
from modulon._blas import thread_controls
from modulon.bloch import fit_band, scan_bloch
from modulon.evolve import (SplitEvolver, _FiberGenerator, advance,
                            field_rows, lift_wave, rows_field)


@pytest.fixture(scope="session")
def whitham_model():
    return model_for_symbol(SymbolSpec("whitham"))


@pytest.fixture(scope="session")
def whitham_wave(whitham_model):
    seed = small_amplitude_wave(whitham_model, a=0.05, N=64)
    return refine_newton(whitham_model, seed, fix_amplitude=0.05,
                         fix_a_const=0.0)


@pytest.fixture(scope="session")
def whitham_k2_model():
    return model_for_symbol(SymbolSpec("whitham"), kappa=2.0)


@pytest.fixture(scope="session")
def whitham_k2_wave(whitham_k2_model):
    seed = small_amplitude_wave(whitham_k2_model, a=0.05, N=96)
    return refine_newton(whitham_k2_model, seed, fix_amplitude=0.05,
                         fix_a_const=0.0)


@pytest.fixture(scope="session")
def whitham_k2_spectrum(whitham_k2_model, whitham_k2_wave):
    return scan_bloch(whitham_k2_model, whitham_k2_wave, k_count=48, N=96)


@pytest.fixture(scope="session")
def whitham_k2_curve(whitham_k2_spectrum):
    return fit_band(whitham_k2_spectrum)


@pytest.fixture(scope="session")
def bbm2_model():
    return model_for_symbol(SymbolSpec("bbm_linear"), kappa=2.0)


@pytest.fixture(scope="session")
def bbm2_wave(bbm2_model):
    seed = small_amplitude_wave(bbm2_model, a=0.05, N=96)
    return refine_newton(bbm2_model, seed, fix_amplitude=0.05, fix_a_const=0.0)


@pytest.fixture(scope="session")
def bbm2_spectrum(bbm2_model, bbm2_wave):
    return scan_bloch(bbm2_model, bbm2_wave, k_count=48, N=96)


@pytest.fixture(scope="session")
def gkdv3_model():
    return ModelSpec("kdv_type", SymbolSpec("fractional", m=2.0),
                     NonlinearitySpec("minus_power", p=3.0))


@pytest.fixture(scope="session")
def gkdv3_wave(gkdv3_model):
    seed = small_amplitude_wave(gkdv3_model, a=0.1, N=64)
    return refine_newton(gkdv3_model, seed, fix_amplitude=0.1, fix_a_const=0.0)


@pytest.fixture(scope="session")
def fresh_python():
    """run(code): the standard output of ``code`` run in a new interpreter
    that imports this checkout's modulon, with no SciPy module loaded
    beforehand."""
    src = os.path.dirname(os.path.dirname(modulon.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("MODULON_OUT", None)

    def run(code):
        return subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True, text=True,
                              timeout=300).stdout
    return run


@pytest.fixture
def two_threads():
    """Both bundled OpenBLAS libraries at two threads for the test, so a
    restore or a thread-count dependence shows on any machine."""
    saved = [get() for _, get, _ in thread_controls()]
    for _, _, set_ in thread_controls():
        set_(2)
    yield
    for (_, _, set_), count in zip(thread_controls(), saved):
        set_(count)


@pytest.fixture(scope="session")
def constant_wave_factory():
    """Zero traveling wave u = 0 at speed c for any model."""
    from modulon import TravelingWave, zero_field

    def make(model, c=0.9, N=64):
        return TravelingWave(model, zero_field(1, N), c=c, a_const=0.0,
                             amplitude=0.0, residual=0.0, converged=True)

    return make


@pytest.fixture
def eig_inputs(monkeypatch):
    """dtypes of the matrices passed to np.linalg.eig or scipy.linalg.eig,
    the dense eigensolves with eigenvectors, in call order."""
    seen = []
    for mod in (np.linalg, scipy.linalg):
        def record(A, *args, _eig=mod.eig, **kw):
            seen.append(np.asarray(A).dtype)
            return _eig(A, *args, **kw)
        monkeypatch.setattr(mod, "eig", record)
    return seen


def _propagate(model, wave, u, h, n_steps, per):
    """e^{tA} u for the linearization A at the wave lifted to u's torus:
    the fiber propagator (``SplitEvolver`` with G = 0) takes n_steps steps
    of h and is observed every ``per`` steps and at the end.  Returns the
    observation times and fields."""
    gen = _FiberGenerator(model, wave.c, lift_wave(wave, u.q, u.N))
    ev = SplitEvolver(gen, h, lambda x, t: np.zeros_like(x))
    times, fields = [], []

    def observe(t, x):
        times.append(t)
        fields.append(rows_field(u.q, u.N, gen.fib.half(x)))

    advance(ev, gen.fib.stack(field_rows(u)), n_steps, per, observe)
    return np.array(times), fields


@pytest.fixture(scope="session")
def propagate():
    """The linear flow at a wave on the fiber propagator (``_propagate``)."""
    return _propagate
