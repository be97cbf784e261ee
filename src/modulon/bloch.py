"""Truncated Bloch operators, spectra over k in [0, 1] solved on [0, 1/2],
band location, band-edge fits, and unstable eigenfunctions.

Conventions: in the Fourier basis {e^{inx}}, |n| <= N/2, the generator at
Bloch parameter k is A = D_k L_k with xi = kappa (n+k),

    D_k = diag(model.j_symbol(xi)),
    L_k = model.nl_sign * Toeplitz(f'(u_c)) + diag(model.energy_diag(xi, c)[0])

from ``ModelSpec.generator_factors``, the one builder of A = J L.  L_k is
Hermitian, so every spectrum is closed under lambda -> -conj(lambda); the
maximal real part lambda0 is the growth rate.

Values-only solves go through ``bloch_eigvals``, and ``eigens`` serves the
callers that need eigenvectors.  D_k = i S is imaginary, and for an even
real wave L_k is real, so A = i S L_k and its eigenpairs are (i mu, v) for
the eigenpairs (mu, v) of S L_k: both solve in real arithmetic
(``_dense_eig``), with a spectrum closed under lambda -> -conj(lambda)
exactly.  When A has a real part above round-off (a translated, non-even
wave) the solve falls back to complex arithmetic.  Scans and eigenfunctions
run on one BLAS thread (``_blas.serial``).

Scans fold k onto [0, 1/2].  The frequencies at 1 - k are minus those at k
up to one mode, J is odd and imaginary, E even and f'(u_c) real, so the
operator at 1 - k is the complex conjugate of the one at k, truncated on a
window shifted by one boundary mode.  ``scan_bloch`` solves at k <= 1/2 and
takes each sample to 1 - k by conjugation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._blas import serial
from .errors import (BandFitError, DomainError, InsufficientDataError,
                     ModulonError, RationalApproximationError,
                     StructureViolationError)
from .fields import PeriodicField, l2_norm, write_csv
from .symbols import ModelSpec
from .waves import TravelingWave, _df_toeplitz, spectral_decay_diagnostic

UNSTABLE_THRESHOLD = 1e-8
FIT_FILL = 12      # uniform samples added around the maximum for band fits
PEAK_TIE_RTOL = 1e-9   # samples this close to the maximum tie for k0
_REAL_PATH_RTOL = 1e-14   # max |Re A| / max |A| for the real-arithmetic solve


@dataclass
class BlochOperator:
    """Dense truncation of (J_k, L_k) for one Bloch parameter.

    ``bloch_eigvals`` keeps the spectrum on the operator, and the semigroup
    probes keep their expm(h A) factors on it (keyed by h), so the matrices
    are not changed once either has been computed.
    """

    k: float
    N: int
    xi: np.ndarray          # physical frequencies kappa*(n+k)
    D_diag: np.ndarray      # diagonal of the symplectic factor
    L_mat: np.ndarray       # Hermitian energy matrix
    A_mat: np.ndarray       # generator D L
    _eigvals: np.ndarray | None = dc_field(default=None, init=False,
                                           repr=False, compare=False)
    _expm_steps: dict = dc_field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    def sobolev_weights(self, s: float) -> np.ndarray:
        return (1.0 + np.abs(self.xi) ** 2) ** (s / 2.0)


def assemble_bloch(model: ModelSpec, wave: TravelingWave, k: float,
                   N: int) -> BlochOperator:
    """Assemble the dense Bloch matrices at parameter k on an (N+1)-mode grid."""
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"Bloch parameter must lie in [0, 1], got {k}")
    if N % 2 != 0:
        raise DomainError("truncation N must be even")
    return _bloch_operator(model, wave, k, N,
                           _df_toeplitz(model, wave.profile, N))


def _bloch_operator(model: ModelSpec, wave: TravelingWave, k: float, N: int,
                    conv: np.ndarray) -> BlochOperator:
    """``assemble_bloch`` on an even N and k in [0, 1], given the
    k-independent ``conv`` = Toeplitz(f'(u_c)), which a scan builds once."""
    xi = model.kappa * (np.arange(-(N // 2), N // 2 + 1) + k)
    D, L = model.generator_factors(xi, wave.c, conv)
    A = D[:, None] * L
    return BlochOperator(k=float(k), N=N, xi=xi, D_diag=D, L_mat=L, A_mat=A)


def _dense_eig(A: np.ndarray, vectors: bool):
    """Eigenvalues of A and, with ``vectors``, its right eigenvectors as
    complex columns (else None).

    When A is imaginary to round-off (max |Re A| <= ``_REAL_PATH_RTOL``
    max |A|) it equals i Im(A), and the solve is eig(Im A) = (mu, V) in real
    arithmetic: lambda = i mu with the same eigenvectors, a spectrum closed
    under lambda -> -conj(lambda) exactly, and 2.5-3x less work with
    vectors.  Otherwise A is solved in complex arithmetic by
    ``scipy.linalg``, imported on that path only.  Its callers are
    ``bloch_eigvals`` and ``eigens``; no time propagation uses an eigenbasis.
    """
    if np.max(np.abs(A.real)) <= _REAL_PATH_RTOL * np.max(np.abs(A)):
        if vectors:
            mu, vecs = np.linalg.eig(A.imag)
            vecs = vecs.astype(complex, copy=False)
        else:
            mu, vecs = np.linalg.eigvals(A.imag), None
        vals = np.empty(mu.shape, dtype=complex)
        vals.real = 0.0 - mu.imag    # i mu, with no negative zeros
        vals.imag = mu.real
        return vals, vecs
    import scipy.linalg
    if vectors:
        return scipy.linalg.eig(A)
    return scipy.linalg.eigvals(A), None


def bloch_eigvals(op: BlochOperator) -> np.ndarray:
    """Eigenvalues of A, computed once per operator and kept on it; real
    arithmetic when A is imaginary (``_dense_eig``)."""
    if op._eigvals is None:
        vals, _ = _dense_eig(op.A_mat, vectors=False)
        vals.flags.writeable = False    # shared by every later caller
        op._eigvals = vals
    return op._eigvals


def eigens(op: BlochOperator, check_residual: bool = True):
    """Full dense eigensolve (``_dense_eig``, so in real arithmetic when A
    is imaginary); pairs sorted by decreasing real part.

    Eigenvector phases are fixed by rotating the largest-magnitude entry to
    the positive real axis, so output files are reproducible.
    """
    try:
        vals, vecs = _dense_eig(op.A_mat, vectors=True)
    except Exception as exc:
        cond = np.linalg.cond(op.A_mat)
        raise ModulonError(
            f"dense eigensolve failed at k={op.k} (cond ~ {cond:.2e})") from exc
    order = np.lexsort((-vals.imag, -vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    norms = np.linalg.norm(vecs, axis=0)
    vecs = vecs / norms
    idx = np.argmax(np.abs(vecs), axis=0)
    phases = vecs[idx, np.arange(vecs.shape[1])]
    phases = phases / np.abs(phases)
    vecs = vecs / phases
    if check_residual:
        for j in range(min(5, len(vals))):
            r = np.linalg.norm(op.A_mat @ vecs[:, j] - vals[j] * vecs[:, j])
            if r > 1e-8 * max(1.0, np.linalg.norm(op.A_mat @ vecs[:, j])):
                raise ModulonError(
                    f"eigenpair residual {r:.2e} too large at k={op.k}; "
                    f"cond(A) ~ {np.linalg.cond(op.A_mat):.2e}")
    return vals, vecs


@dataclass
class BlochSpectrum:
    """Eigenvalues over a refined grid of Bloch parameters."""

    k_grid: np.ndarray            # sorted sample locations
    eigenvalues: list             # complex array per k
    lambda0: float
    k0: float
    bands: list                   # [(k_lo, k_hi), ...] where max Re > threshold
    threshold: float = UNSTABLE_THRESHOLD
    grid_spacing: float = 0.0     # coarse-scan spacing, sets the fit window

    def max_real(self) -> np.ndarray:
        return np.array([float(np.max(ev.real)) for ev in self.eigenvalues])

    def band_containing_k0(self):
        for lo, hi in self.bands:
            if lo - 1e-12 <= self.k0 <= hi + 1e-12:
                return lo, hi
        return None


def scan_bloch(model: ModelSpec, wave: TravelingWave, k_count: int,
               N: int) -> BlochSpectrum:
    """Scan k in [0, 1] with eigensolves at k <= 1/2 only.

    The spectrum at 1 - k is the complex conjugate of the one at k, so the
    scan solves on the lower half of a uniform grid of ``k_count`` points
    (with 1/2 exactly on it when ``k_count`` is odd) and refines its local
    maxima by trisection, a probe above 1/2 being solved at 1 - k.  Then
    every sample k < 1/2 is taken to 1 - k by conjugation, and a small
    uniform fill around the global maximum, for band fitting, is solved at
    the folded k and not mirrored.  Bands are located on the lower half
    and mirrored, so a band through 1/2 has lo == 1 - hi.
    """
    if k_count < 16:
        raise DomainError("k_count must be at least 16")
    if N % 2 != 0:
        raise DomainError("truncation N must be even")
    conv = _df_toeplitz(model, wave.profile, N)
    samples = {}

    def r_of(k):
        if k not in samples:
            k = 1.0 - k if k > 0.5 else k
            if k not in samples:
                with serial(N + 1):
                    samples[k] = bloch_eigvals(
                        _bloch_operator(model, wave, k, N, conv))
        return float(np.max(samples[k].real))

    lower = list(np.linspace(0.0, 1.0, k_count)[:(k_count + 1) // 2])
    if k_count % 2:
        lower[-1] = 0.5    # linspace misses it by an ulp at some odd counts
    upper = [k for k in reversed(lower) if k < 0.5]
    grid = lower + [1.0 - k for k in upper]
    rvals = [r_of(k) for k in lower + upper]
    # local maxima at k <= 1/2 on the uniform grid (interior only); refine
    # anything that could plausibly clear the instability threshold at its
    # true peak
    refine_floor = max(UNSTABLE_THRESHOLD / 100.0, 1e-12)
    maxima = [i for i in range(1, len(lower))
              if rvals[i] >= rvals[i - 1] and rvals[i] >= rvals[i + 1]
              and rvals[i] > refine_floor]
    for i in maxima:
        a, b, c = grid[i - 1], grid[i], grid[i + 1]
        for _ in range(3):   # trisection rounds
            m1 = 0.5 * (a + b)
            m2 = 0.5 * (b + c)
            trio = [(r_of(x), x) for x in (m1, b, m2)]
            _, best = max(trio)
            if best == m1:
                c = b
            elif best == m2:
                a = b
            else:
                a, c = m1, m2
            b = best
    for k in [k for k in samples if k < 0.5]:
        samples[1.0 - k] = _mirror(samples[k])

    _, _, k0, lambda0 = _peak(samples)
    if lambda0 > UNSTABLE_THRESHOLD:
        spacing = 1.0 / (k_count - 1)
        w = 1.5 * spacing
        for kk in np.linspace(max(0.0, k0 - w), min(1.0, k0 + w), FIT_FILL):
            r_of(float(kk))

    all_k, rs, k0, lambda0 = _peak(samples)
    half = all_k <= 0.5
    bands = _bands_from_samples(all_k[half], rs[half], UNSTABLE_THRESHOLD)
    mirrored = [(1.0 - hi, 1.0 - lo) for lo, hi in reversed(bands)]
    if rs[half][-1] > UNSTABLE_THRESHOLD:    # the last band runs through 1/2
        hi = 1.0 - bands.pop()[0]
        mirrored[0] = (1.0 - hi, hi)    # exact both ways: lo == 1 - hi
    return BlochSpectrum(k_grid=all_k,
                         eigenvalues=[samples[k] for k in all_k],
                         lambda0=max(lambda0, 0.0), k0=k0,
                         bands=bands + mirrored,
                         threshold=UNSTABLE_THRESHOLD,
                         grid_spacing=1.0 / (k_count - 1))


def _mirror(vals: np.ndarray) -> np.ndarray:
    """The spectrum at 1 - k from the one at k: conj(vals), read-only like
    ``bloch_eigvals``, with no negative zeros."""
    out = np.empty_like(vals)
    out.real = vals.real
    out.imag = 0.0 - vals.imag
    out.flags.writeable = False
    return out


def _peak(samples: dict):
    """Sorted sample k, their max Re lambda, and the peak (k0, lambda0).

    k0 is the smallest k within ``PEAK_TIE_RTOL`` of the maximum.  In a
    scan the samples above 1/2 mirror those below exactly, so the mirror
    peak at 1 - k0 ties exactly and k0 <= 1/2; the tolerance keeps
    round-off from choosing between peaks that agree in exact arithmetic
    but come from separate solves.
    """
    ks = np.array(sorted(samples))
    rs = np.array([float(np.max(samples[k].real)) for k in ks])
    lambda0 = float(np.max(rs))
    i0 = int(np.argmax(rs >= lambda0 - PEAK_TIE_RTOL * abs(lambda0)))
    return ks, rs, float(ks[i0]), lambda0


def _bands_from_samples(ks, rs, thr):
    bands = []
    above = rs > thr
    i = 0
    n = len(ks)
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        lo = ks[i]
        if i > 0:
            f = (thr - rs[i - 1]) / (rs[i] - rs[i - 1])
            lo = ks[i - 1] + f * (ks[i] - ks[i - 1])
        hi = ks[j]
        if j + 1 < n:
            f = (thr - rs[j]) / (rs[j + 1] - rs[j])
            hi = ks[j] + f * (ks[j + 1] - ks[j])
        bands.append((float(lo), float(hi)))
        i = j + 1
    return bands


@dataclass
class GrowthCurve:
    """Fitted band edge Re lambda(k) ~ lambda0 - a_fit (k - k0)^l, l even."""

    k_samples: np.ndarray
    re_lambda: np.ndarray
    lambda0: float
    k0: float
    l: int
    a_fit: float
    rel_residual: float


def fit_band(spectrum: BlochSpectrum, window: float | None = None) -> GrowthCurve:
    """Fit the local band-edge model over |k - k0| <= window.

    Tries l in {2, 4, 6} and keeps the order with the smallest relative
    residual among those with a > 0.  Each order's peak kc is the
    least-squares one on [k_i0 - h, k_i0 + h], with k_i0 the best sample
    and h the largest sample spacing, found by a closed form (l = 2) or a
    bracketed root (l = 4, 6), with no optimizer's path (``_peak_fit``).
    The default window is 1.6 coarse-grid spacings, matching the fill
    samples the scan lays down around the maximum.
    """
    if spectrum.lambda0 <= 0.0:
        raise BandFitError("band fit requires a positive growth rate")
    if window is None:
        window = 1.6 * (spectrum.grid_spacing or 0.02)
    ks = spectrum.k_grid
    rs = spectrum.max_real()
    mask = np.abs(ks - spectrum.k0) <= window
    if int(np.sum(mask)) < 9:
        raise InsufficientDataError(
            f"band fit needs >= 9 samples in the window, found {int(np.sum(mask))}")
    ks = ks[mask]
    rs = rs[mask]
    i0 = int(np.argmax(rs))
    if i0 == 0 or i0 == len(ks) - 1:
        raise BandFitError("no interior maximum inside the fit window")
    h = max(np.max(np.diff(np.sort(ks))), 1e-12)
    rng = float(np.max(rs) - np.min(rs))
    if rng <= 0.0:
        raise BandFitError("flat band: nothing to fit")

    best = None
    for l in (2, 4, 6):
        res, kc, lam, a = _peak_fit(ks, rs, l, float(ks[i0]), float(h))
        rel = res / (np.sqrt(len(ks)) * rng)
        if a > 0 and (best is None or rel < best[0]):
            best = (rel, l, kc, lam, a)
    if best is None or best[0] > 0.20:
        raise BandFitError(
            "all band-edge orders fit poorly (degenerate band)"
            + ("" if best is None else f"; best residual {best[0]:.1%}"))
    rel, l, kc, lam, a = best
    return GrowthCurve(k_samples=ks, re_lambda=rs, lambda0=float(lam),
                       k0=float(kc), l=int(l), a_fit=float(a),
                       rel_residual=float(rel))


def _fit_at(ks, rs, l, kc):
    """Least-squares (lambda, a) of rs ~ lambda - a (ks - kc)^l at a fixed
    peak kc, from the centred 2-parameter normal equations.

    Returns the residual norm, lambda, a and g = a sum res_i (k_i - kc)^(l-1)
    with res = rs - model.  By variable projection (Golub & Pereyra, 1973)
    g is -dS/dkc / 2l for S(kc), the residual sum of squares at the best
    (lambda, a) for each kc: their own derivatives drop out at the optimum.
    """
    n = len(rs)
    x = ks - kc
    p = x ** (l - 1)
    phi = p * x
    phi_mean = float(phi.sum()) / n
    r_mean = float(rs.sum()) / n
    dphi = phi - phi_mean
    r_c = rs - r_mean
    a = -float(dphi @ r_c) / float(dphi @ dphi)
    res = r_c + a * dphi
    return (float(np.sqrt(res @ res)), r_mean + a * phi_mean, a,
            a * float(res @ p))


def _peak_fit(ks, rs, l, k_mid, h):
    """(residual, kc, lambda, a) of the order-l band-edge fit whose kc in
    [k_mid - h, k_mid + h] has the least residual.

    For l = 2, lambda - a (k - kc)^2 ranges over every quadratic with
    a != 0, so one linear fit, centred at k_mid, gives the unconstrained
    peak; S(kc) has no other local minimum, so when that peak lies outside
    the interval an endpoint is best.  For l = 4 and 6 the candidates are
    the endpoints and, when g (``_fit_at``) changes sign between them, its
    root, since an interior minimum of S is a zero of g.
    """
    lo, hi = k_mid - h, k_mid + h
    if l == 2:
        x = ks - k_mid
        _, c1, c2 = np.linalg.lstsq(np.column_stack([np.ones_like(x), x, x * x]),
                                    rs, rcond=None)[0]
        kc = k_mid - float(c1) / (2.0 * float(c2)) if c2 != 0.0 else np.inf
        candidates = [kc] if lo <= kc <= hi else [lo, hi]
        fits = [(_fit_at(ks, rs, l, kc), kc) for kc in candidates]
    else:
        fits = [(_fit_at(ks, rs, l, kc), kc) for kc in (lo, hi)]
        g_lo, g_hi = fits[0][0][3], fits[1][0][3]
        if (g_lo < 0.0) != (g_hi < 0.0):
            kc = _bracketed_root(lambda kc: _fit_at(ks, rs, l, kc)[3],
                                 lo, hi, g_lo, g_hi,
                                 tol=2.0 * np.finfo(float).eps * (abs(k_mid) + h))
            fits.append((_fit_at(ks, rs, l, kc), kc))
    (res, lam, a, _), kc = min(fits, key=lambda fit: fit[0][0])
    return res, kc, lam, a


def _bracketed_root(g, lo, hi, g_lo, g_hi, tol):
    """A root of g in [lo, hi], where g(lo) and g(hi) differ in sign, to a
    bracket no wider than 2 ``tol``: false position with the Illinois
    halving of an end kept twice (Dowell & Jarratt, 1971), each point kept
    ``tol`` inside the bracket, so that a point next to the root is followed
    by one across it and the bracket closes."""
    kept = 0
    while hi - lo > 2.0 * tol:
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        x = min(max(x, lo + tol), hi - tol)
        g_x = g(x)
        if g_x == 0.0:
            return x
        if (g_x < 0.0) == (g_lo < 0.0):
            lo, g_lo = x, g_x
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        else:
            hi, g_hi = x, g_x
            if kept == -1:
                g_lo *= 0.5
            kept = -1
    return 0.5 * (lo + hi)


def rational_k0(k0: float, q_max: int, tol: float):
    """Smallest-denominator p/q with |p/q - k0| <= tol and q <= q_max.

    Enumerates continued-fraction convergents and semiconvergents in order
    of increasing denominator; every minimal-denominator approximation
    within a tolerance is among them.
    """
    if not 0.0 <= k0 <= 1.0:
        raise DomainError(f"k0 must lie in [0, 1], got {k0}")
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    candidates = []
    p_prev, q_prev = 1, 0        # p_{-1}/q_{-1}
    p_cur, q_cur = int(np.floor(k0)), 1
    candidates.append((q_cur, abs(p_cur / q_cur - k0), p_cur))
    x = k0 - np.floor(k0)
    for _ in range(64):
        if x <= 1e-15:
            break
        x = 1.0 / x
        a = int(np.floor(x))
        x -= a
        # semiconvergents (p_prev + j p_cur) / (q_prev + j q_cur), j = 1..a
        for j in range(1, a + 1):
            p_s = p_prev + j * p_cur
            q_s = q_prev + j * q_cur
            if q_s > q_max:
                break
            candidates.append((q_s, abs(p_s / q_s - k0), p_s))
        p_prev, p_cur = p_cur, p_prev + a * p_cur
        q_prev, q_cur = q_cur, q_prev + a * q_cur
        if q_cur > q_max:
            break
    candidates.sort(key=lambda t: (t[0], t[1]))
    for q, err, p in candidates:
        if err <= tol:
            return p, q
    raise RationalApproximationError(
        f"no p/q with q <= {q_max} within {tol:g} of {k0}; increase q_max")


def unstable_eigenfunction(model: ModelSpec, wave: TravelingWave, k: float,
                           N: int | None = None):
    """Top eigenpair at k, with the eigenfunction as a unit-L2 field on T_2pi.

    Verifies the vanishing of <L_k v, v> (exact for true unstable
    eigenfunctions) and that the coefficient decay looks smooth.
    """
    if N is None:
        N = wave.profile.N
    with serial(N + 1):
        op = assemble_bloch(model, wave, k, N)
        vals, vecs = eigens(op)
        lam = vals[0]
        if lam.real <= UNSTABLE_THRESHOLD:
            raise DomainError(f"k = {k} is not inside an unstable band "
                              f"(top Re lambda = {lam.real:.3e})")
        v = vecs[:, 0]
        f = PeriodicField(1, N, v.copy(), real=False)
        nrm = l2_norm(f)
        f = f * (1.0 / nrm)
        v = v / np.linalg.norm(v)
        pairing = complex(np.vdot(v, op.L_mat @ v))  # <L v, v> per unit mass
        l_norm = float(np.max(np.abs(np.linalg.eigvalsh(op.L_mat))))
        if abs(pairing) > 1e-6 * l_norm:
            raise StructureViolationError(
                f"<L_k v, v> = {abs(pairing):.3e} exceeds 1e-6 * ||L|| = "
                f"{1e-6 * l_norm:.3e} at k = {k}")
        slope = spectral_decay_diagnostic(f)
        if slope > -0.05:
            raise StructureViolationError(
                f"unstable eigenfunction coefficients decay too slowly "
                f"(slope {slope:.3f}) at k = {k}")
        return complex(lam), f


# -- persistence ------------------------------------------------------------------


def export_spectrum_dump(spectrum: BlochSpectrum, path, top: int = 20,
                         header: str = ""):
    """CSV rows k, re_lambda, im_lambda for the top eigenvalues by Re at each k,
    after an optional ``header`` line block.  Ties go to the least |Im|, not
    the truncation's edge, then the larger Im: 1 - k lists k's conjugates."""
    rows = ((k, lam.real, lam.imag)
            for k, ev in zip(spectrum.k_grid, spectrum.eigenvalues)
            for lam in ev[np.lexsort((-ev.imag, np.abs(ev.imag), -ev.real))][:top])
    write_csv(path, header, ("k", "re_lambda", "im_lambda"), rows)


def spectrum_summary(spectrum: BlochSpectrum, curve: GrowthCurve | None = None,
                     pq: tuple | None = None) -> dict:
    out = {
        "lambda0": spectrum.lambda0,
        "k0": spectrum.k0,
        "threshold": spectrum.threshold,
        "bands": [[lo, hi] for lo, hi in spectrum.bands],
    }
    if pq is not None:
        out["p"], out["q"] = int(pq[0]), int(pq[1])
    if curve is not None:
        out["l"] = curve.l
        out["a_fit"] = curve.a_fit
        out["fit_residual"] = curve.rel_residual
    return out


def save_spectrum_summary(summary: dict, path):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
