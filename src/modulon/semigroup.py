"""Semigroup growth verification on truncations: weighted propagator norms,
the H^{-1}/H^{1} duality identity, Riesz spectral projections,
exponential-trichotomy dimension counts, and the exact fiber-by-fiber flow
of e^{tA} on a multi-period torus.

Propagator norms are Sobolev-weighted spectral norms of the matrix
exponential of a Bloch generator,

    ||e^{tA}||_{H^s}  =  || W_s e^{tA} W_s^{-1} ||_2,
    W_s = diag((1 + |xi_n + k|^2)^{s/2}),

computed by scaling-and-squaring (Pade order 13).  ``propagator_norm`` and
the dual propagator take one direct expm per time.  A growth probe takes its
norms from one chain of propagators, e^{(t+h)A} = e^{hA} e^{tA}, with one
expm per distinct spacing of its time grid; the factors are kept on the
operator, so the probes of every s on one operator share them.  The adjoint
identity (A = DL, L Hermitian, D skew) makes ||e^{tA}||_{H^{-1}} equal to the
H^1 norm of exp(t L D) exactly, up to round-off, for the real-symmetric L
that even real waves produce.

``riesz_projection`` gives the spectral projector for the eigenvalues inside
a circle exactly, with no contour quadrature: an ordered complex Schur form
and one triangular Sylvester solve (Bartels & Stewart, 1972).

``fiber_norms`` propagates a field on the Bloch fibers of the split
stepper's generator (``evolve._FiberGenerator``), whose blocks A = J L come
from ``ModelSpec.generator_factors`` as the Bloch matrices do, with one
expm per occupied fiber and no eigenbasis: the fiber k = 0 is defective.
The propagator norms, probes, Riesz projections, trichotomy counts and fiber
norms run inside ``_blas.serial``: on one BLAS thread for matrices up to
n = 513, where two threads are slower and would make the output bits depend
on the machine's default thread count.

``scipy.linalg`` (expm, the Schur form and ztrsyl) is imported inside the
kernels that call it (``propagator_norm``, ``dual_propagator_norm``, the
probes' ``_expm_chain``, ``riesz_projection`` and ``fiber_norms``), so
importing this module loads no SciPy; ``trichotomy_split`` needs none.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ._blas import serial
from .bloch import BlochOperator, bloch_eigvals
from .errors import ContourError, DomainError, PropagatorRangeError, \
    StructureViolationError
from .evolve import _FiberGenerator, _matvec, field_rows, lift_wave
from .fields import PeriodicField
from .symbols import ModelSpec
from .waves import TravelingWave

_LOG_OVERFLOW = 600.0   # cap on lambda0 * t before expm overflows
DUALITY_TOL = 1e-8      # relative H^1/H^-1 duality defect allowed
RIESZ_IDEM_TOL = 1e-8   # idempotence defect allowed in a Riesz projector
TRICHOTOMY_THRESHOLD = 1e-8   # |Re lambda| below this counts as center


def _weighted_norm(mat: np.ndarray, weights: np.ndarray) -> float:
    return float(np.linalg.norm((weights[:, None] * mat) / weights[None, :], 2))


def _check_range(op: BlochOperator, t_min: float, t_max: float) -> None:
    """Refuse t < 0, and times past which e^{tA} overflows."""
    if t_min < 0:
        raise DomainError("propagator norms are probed for t >= 0")
    # spectral abscissa; bloch_eigvals solves once per operator
    growth = float(np.max(bloch_eigvals(op).real)) * t_max
    if growth > _LOG_OVERFLOW:
        raise PropagatorRangeError(
            f"e^(t A) overflows at t = {t_max}; cap t near "
            f"{_LOG_OVERFLOW / max(growth / t_max, 1e-30):.3g}",
            t_cap=_LOG_OVERFLOW / max(growth / t_max, 1e-30))


def _expm_chain(A: np.ndarray, x: np.ndarray, times: np.ndarray,
                steps: dict | None = None):
    """Yield e^{t A} x for each of the nondecreasing ``times`` >= 0.

    One expm per distinct spacing h of the times (from t = 0), kept in
    ``steps`` (keyed by h), then x <- expm(h A) x along the grid.
    """
    import scipy.linalg
    spacings = np.diff(times, prepend=0.0)
    if np.any(spacings < 0.0):
        raise DomainError("times must be nondecreasing from t = 0")
    steps = {} if steps is None else steps
    for h in spacings:
        if h not in steps:
            steps[h] = scipy.linalg.expm(h * A)
        x = steps[h] @ x
        yield x


def propagator_norm(op: BlochOperator, t: float, s: float = 0.0) -> float:
    """H^s operator norm of e^{tA} on the truncation."""
    import scipy.linalg
    with serial(op.A_mat.shape[0]):
        _check_range(op, t, t)
        E = scipy.linalg.expm(t * op.A_mat)
        return _weighted_norm(E, op.sobolev_weights(s))


def dual_propagator_norm(op: BlochOperator, t: float,
                         check: bool = True) -> float:
    """H^1 norm of exp(t L D), the dual propagator of e^{tA} in H^{-1}.

    For the real symmetric L of an even real wave the two norms agree to
    round-off; with ``check`` the identity is asserted.
    """
    import scipy.linalg
    if t < 0:
        raise DomainError("propagator norms are probed for t >= 0")
    with serial(op.A_mat.shape[0]):
        LD = op.L_mat @ np.diag(op.D_diag)
        E = scipy.linalg.expm(t * LD)
        nrm = _weighted_norm(E, op.sobolev_weights(1.0))
    if check:
        direct = propagator_norm(op, t, s=-1.0)
        if abs(nrm - direct) > DUALITY_TOL * max(1.0, abs(direct)):
            raise StructureViolationError(
                f"H^1/H^-1 duality defect {abs(nrm - direct):.3e} at t = {t}")
    return nrm


@dataclass
class PropagatorProbe:
    """Measured weighted norms of e^{tA} on a nondecreasing time grid."""

    op: BlochOperator
    t_grid: np.ndarray
    s: float
    norms: np.ndarray = dc_field(default=None)

    def run(self):
        """H^s norms along one propagator chain; the expm factors are kept
        on the operator for the probes of other s."""
        op, t = self.op, np.asarray(self.t_grid, dtype=float)
        n = op.A_mat.shape[0]
        with serial(n):
            _check_range(op, np.min(t), np.max(t))
            W = op.sobolev_weights(self.s)
            I = np.eye(n, dtype=op.A_mat.dtype)
            self.norms = np.array([_weighted_norm(E, W) for E in
                                   _expm_chain(op.A_mat, I, t,
                                               op._expm_steps)])
        return self

    def log_slope(self, t_min: float | None = None,
                  t_max: float | None = None) -> float:
        """Least-squares slope of log norm over [t_min, t_max], by default
        the whole time grid."""
        t_min = self.t_grid[0] if t_min is None else t_min
        t_max = self.t_grid[-1] if t_max is None else t_max
        mask = (self.t_grid >= t_min) & (self.t_grid <= t_max)
        if np.sum(mask) < 2:
            raise DomainError("need at least two samples in the slope window")
        return float(np.polyfit(self.t_grid[mask],
                                np.log(self.norms[mask]), 1)[0])


def probe_growth(op: BlochOperator, s: float, t_min: float = 5.0,
                 t_max: float = 20.0, samples: int = 16) -> PropagatorProbe:
    t = np.linspace(t_min, t_max, samples)
    return PropagatorProbe(op, t, s).run()


def riesz_projection(M: np.ndarray, center: complex,
                     radius: float) -> np.ndarray:
    """Spectral projector (1/2 pi i) contour integral of (zI - M)^{-1} over
    the circle |z - center| = radius, computed exactly rather than by
    quadrature.

    An ordered complex Schur form M = Z T Z^H puts the s enclosed
    eigenvalues first, T = [[T11, T12], [0, T22]].  The Sylvester equation
    T11 X - X T22 = T12, triangular and solved by ``ztrsyl`` (Bartels &
    Stewart, 1972), block-diagonalizes T, and P = Z [[I, X], [0, 0]] Z^H
    (zero for s = 0, Z Z^H for s = n).  The contour must keep clear of the
    spectrum (distance > radius/100), P must be idempotent to
    ``RIESZ_IDEM_TOL`` (a large X, from enclosed and outside eigenvalues
    too close for their conditioning, fails it), and its trace must equal
    the enclosed count.
    """
    import scipy.linalg
    with serial(M.shape[0]):
        T, Z, s = scipy.linalg.schur(M, output="complex",
                                     sort=lambda z: abs(z - center) < radius)
        vals = np.diag(T)
        dist = np.abs(np.abs(vals - center) - radius)
        if np.min(dist) <= radius / 100.0:
            raise ContourError(
                f"eigenvalue within {np.min(dist):.3e} of the contour "
                f"(center {center}, radius {radius}); move the circle")
        n_enclosed = int(np.sum(np.abs(vals - center) < radius))
        rows = Z[:, :s].conj().T
        if 0 < s < len(vals):
            X, scale, _ = scipy.linalg.lapack.ztrsyl(
                T[:s, :s], T[s:, s:], T[:s, s:], isgn=-1)
            rows = rows + (X / scale) @ Z[:, s:].conj().T
        P = Z[:, :s] @ rows
        defect = np.linalg.norm(P @ P - P, 2)
        if defect >= RIESZ_IDEM_TOL:
            raise ContourError(
                f"projector defect {defect:.2e} is not below "
                f"{RIESZ_IDEM_TOL:g}: the enclosed eigenvalues are too "
                f"ill-conditioned to separate")
        rank = int(round(np.trace(P).real))
        if rank != n_enclosed:
            raise ContourError(
                f"projector rank {rank} disagrees with enclosed eigenvalue "
                f"count {n_enclosed}")
        return P


@dataclass
class TrichotomySplit:
    dim_Eu: int
    dim_Es: int
    dim_Ec: int
    n_minus_L: int


def trichotomy_split(op: BlochOperator, strict: bool = True) -> TrichotomySplit:
    """Count unstable/stable/center dimensions and the Morse index of L.

    Asserts dim E^u = dim E^s <= n^-(L); a violation signals a truncation
    too coarse to respect the Hamiltonian structure.
    """
    with serial(op.A_mat.shape[0]):
        herm_defect = np.linalg.norm(op.L_mat - op.L_mat.conj().T, np.inf)
        if herm_defect > 1e-12 * max(1.0, np.linalg.norm(op.L_mat, np.inf)):
            raise StructureViolationError(
                f"L matrix not Hermitian (defect {herm_defect:.2e})")
        vals = bloch_eigvals(op)
        n_minus = int(np.sum(np.linalg.eigvalsh(op.L_mat) < -1e-10))
    dim_u = int(np.sum(vals.real > TRICHOTOMY_THRESHOLD))
    dim_s = int(np.sum(vals.real < -TRICHOTOMY_THRESHOLD))
    dim_c = len(vals) - dim_u - dim_s
    split = TrichotomySplit(dim_u, dim_s, dim_c, n_minus)
    if strict:
        if dim_u != dim_s:
            raise StructureViolationError(
                f"dim E^u = {dim_u} != dim E^s = {dim_s} at k = {op.k} "
                f"(truncation too coarse)")
        if dim_u > n_minus:
            raise StructureViolationError(
                f"dim E^u = {dim_u} exceeds n^-(L) = {n_minus} at k = {op.k}")
    return split


def fiber_norms(model: ModelSpec, wave: TravelingWave, u: PeriodicField,
                h: float, steps: int) -> np.ndarray:
    """L2 norms of e^{tA} u on T_{2 pi Q} at t_j = j h, j = 0 .. steps.

    A, the linearization at u_c lifted to u's torus, is block-diagonal over
    the Bloch fibers k = r/Q (``evolve._Fibers``), with the blocks the split
    stepper propagates (``evolve._FiberGenerator.block``).  For a real u,
    fiber Q - r mirrors fiber r and has its norm, so only r = 0 .. Q/2 are
    propagated: a conjugate pair counts twice, k = 0 and k = 1/2 once.  Each
    occupied fiber takes one expm(h A_r), by scaling and squaring, and the
    chain x <- e^{h A_r} x gives its norms.
    """
    import scipy.linalg
    if not u.real:
        raise DomainError("fiber norms pair conjugate fibers; u must be real")
    if not h > 0 or steps < 0:
        raise DomainError("fiber norms need h > 0 and steps >= 0")
    gen = _FiberGenerator(model, wave.c, lift_wave(wave, u.q, u.N))
    x = gen.fib.stack(field_rows(u))
    occupied = np.flatnonzero(np.any(x != 0.0, axis=1))
    weight = np.where(2 * occupied % u.q == 0, 1.0, 2.0)
    x = x[occupied]
    E = np.zeros((len(occupied),) + 2 * (gen.fib.size,), dtype=np.complex128)
    with serial(gen.fib.size):
        for E_r, r in zip(E, occupied):
            A_r = gen.block(r)
            E_r[:len(A_r), :len(A_r)] = scipy.linalg.expm(h * A_r)
        sq = [weight @ np.sum(np.abs(x) ** 2, axis=1)]
        for _ in range(steps):
            x = _matvec(E, x)
            sq.append(weight @ np.sum(np.abs(x) ** 2, axis=1))
    return np.sqrt(2.0 * np.pi * u.q * np.array(sq))
