"""Time integration of the traveling-frame equations, conserved-quantity
ledgers, higher-order approximate solutions, and orbital distances.

In the package's frequency orientation the evolved equation is

    dU/dt = J (E U + nl_sign f(U)),  J = j_symbol(xi),  E = energy_diag(xi, c)[0]

with the operator pieces of ``ModelSpec``.  Its linearization at u_c (from
``ModelSpec.generator_factors``, on the stepper's transform grid) is the
assembled Bloch generator at k = 0 (and at k = p/q on the 2 pi q torus).
Converged waves are fixed points of the stepper to round-off.

Every model is integrated by one stepper, ``SplitEvolver``: the
fourth-order exponential time differencing of Cox & Matthews (ETDRK4) with
the linearization A at a base state stepped exactly and only a term
G(x, t) explicit, as in the Duhamel form
w(t) = e^{tA} w0 + int e^{(t-s)A} G(s) ds of the nonlinear instability
estimates.  At a wave, e^{hA} is exact on each Bloch fiber k = r/q of
T_{2 pi q} (Hochbruck & Ostermann), so the step is set by accuracy rather
than by the wave coupling.  The phi-function tables come from Taylor sums,
by Paterson-Stockmeyer, and scaling and modified squaring (Skaflestad &
Wright).  Functions of a banded matrix decay away from its band (Benzi &
Razouk), so the tables are kept in LAPACK band storage to the least
half-bandwidth b beyond which every entry is at most 2^-53 of its table's
largest, and applied by BLAS zgbmv (b = 8 of 96 modes on the escape wave,
30-35 on the Whitham kappa = 2 wave).  At the zero field A is the diagonal
J E and G the whole term push P[f(U)]; there the tables are exact
exponentials and 16-point unit-circle contour means (Kassam & Trefethen),
applied elementwise.  The escape runs step w = u - u_c with the
generator's remainder as G, at the step their pilot chooses, and at up to
8 times that step while w is small; the approximate-solution cascade steps
its forced linear solves with the Taylor forcing as G; ``modulon evolve``
and criterion 14's dt-halving check step at the zero field.

Evolved fields are real, so the stepper keeps only the modes n = 0 .. N/2
(c_{-n} = conj(c_n) holds by construction) and transforms them with
SciPy's pocketfft kernels, called directly: at the escape runs' M = 1152
the dispatch of ``scipy.fft.irfft``/``rfft`` costs about as much as the
transform itself, and the results equal theirs bit for bit.  The full
centered array is rebuilt (``fields.hermitian_full``) only where a
``PeriodicField`` is needed.  A complex field is rejected.

``advance`` is the one time loop: the escape runs, the approximate-solution
cascade and ``modulon evolve`` step through it, observing every ``per``
steps and after the last step (the escape runs call it once per
observation interval).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import factorial

import numpy as np
import scipy.fft
from scipy.fft._pocketfft import pypocketfft as _pocketfft
from scipy.linalg.blas import zgbmv as _zgbmv

from ._blas import serial
from .errors import BlowupError, DomainError, GridMismatchError
from .fields import PeriodicField, _lift_eigenfunction, hermitian_full
from .symbols import ModelSpec, NonlinearitySpec, evaluate_symbol
from .waves import TravelingWave

_TWO_PI = 2.0 * np.pi
_CONTOUR_POINTS = 16      # contour nodes for the ETDRK4 phi-functions
# modes per block of the contour means: a block's (1024, 16) temporaries
# take 256 kB, where NumPy starts to reuse temporaries in place, which moves
# bits of complex products; at least that size, a block's means keep the
# bits of the unblocked ones
_CONTOUR_BLOCK = 1024
# largest fiber stack (fibers x modes^2) the split stepper tabulates, a
# memory bound: on localized escape runs (fibers of 50 modes, Q = 52 .. 832)
# a split interval ran 2.3-4x faster than a diagonal one at every size.  The
# split run's peak RSS over the diagonal run's was 71 bytes an entry with
# dense n^2 tables, 37 MB at this cap (BBM m=2 at Q = 416: 142 against
# 105 MB); the band tables of half-bandwidth b take (2b + 1) / n of that
# memory, and that run, at b = 8-9, peaks 21 bytes an entry over the
# diagonal run, 11 MB (115.5 against 104.8 MB).  A stepper holds the tables
# of _HELD_STEPS steps, 80 (2b + 1) bytes a mode each: 0.65 MB a set on the
# escape wave (b = 8, 480 slots), about 16 MB a set at this cap
SPLIT_MAX_ENTRIES = 2 ** 19
# table sets a split stepper holds, one per step: the escape runs' pilot and
# ladder come back to their steps, and holding two cuts the escape
# workload's table builds from 9 to 5 (seed 0); more hold no fewer
_HELD_STEPS = 2
_TAYLOR_RADIUS = 2.0      # ||X||_1 bound of the scaled phi Taylor sums
_TAYLOR_TERMS = 24        # 2^25 / 25! < 3e-18; 5 blocks of Paterson-Stockmeyer


class _Transform:
    """Padded real transforms between the modes n = 0 .. N/2 of a real
    field and its values on M grid points.

    ``values`` equals ``scipy.fft.irfft(half, n=M, norm="forward")`` and
    ``coef`` equals ``scipy.fft.rfft(vals, norm="forward")`` cut to the
    modes n = 0 .. N/2 with the Nyquist mode zeroed, bit for bit: both call
    the pocketfft kernels with the arguments those functions pass.

    M is the fast length from the alias-free length on, rounded to a
    ``multiple``.  Every product the steppers form of modes |n| < N/2 has
    the degree p of a polynomial f, so it reaches |n| < p N/2, and on
    (p + 1) N/2 points no alias lands on a kept mode (the 3/2 rule for
    p = 2; Orszag): M = 1152 on the escape torus (N = 768), where 2N
    cost 3 us more a call of G.  A non-integer power is not band-limited
    and keeps ``pad`` N = 4N.  ``NonlinearitySpec.pad``, which Newton and
    ``conserved_quantities`` use, keeps its floor of 2.

    The modes are written into a zero-padded buffer of M//2 + 1 entries,
    one buffer per layout and leading shape, so no padded copy is made per
    call; a fiber stack (``_Fibers``) is written straight into it and read
    straight out of the forward transform.
    """

    def __init__(self, q: int, N: int, nl: NonlinearitySpec, multiple: int = 1):
        self.q = q
        self.N = N
        if nl.degree is None:
            M = int(np.ceil(nl.pad * N))
        else:
            M = -(-(nl.degree + 1) * N // 2)
        self.M = multiple * scipy.fft.next_fast_len(-(-M // multiple))
        self._pads = {}

    def values(self, x: np.ndarray, fib: _Fibers | None = None) -> np.ndarray:
        """The values of the half spectrum x, or of the fiber stack x of
        ``fib``, whose Nyquist mode is zero."""
        lead = x.shape[:-1] if fib is None else x.shape[:-2]
        buf = self._pads.get((fib is None, lead))
        if buf is None:
            buf = np.zeros(lead + (self.M // 2 + 1,), np.complex128)
            self._pads[fib is None, lead] = buf
        if fib is None:
            buf[..., :self.N // 2 + 1] = x
        else:
            fib.put(x, buf)
        # inverse transform, no normalization (norm="forward" for irfft)
        return _pocketfft.c2r(buf, (-1,), self.M, False, 0, None, 1)

    def coef(self, vals: np.ndarray, fib: _Fibers | None = None) -> np.ndarray:
        """The half spectrum of vals, or its fiber stack of ``fib``."""
        # forward transform, divided by M (norm="forward" for rfft)
        out = _pocketfft.r2c(vals, (-1,), True, 2, None, 1)
        out[..., self.N // 2] = 0.0
        return out[..., :self.N // 2 + 1] if fib is None else fib.pick(out)


def _half_symbols(model: ModelSpec, c: float, q: int, N: int) -> tuple:
    """(lin, push) on the modes n = 0 .. N/2: lin = J E, zero at the Nyquist
    mode, and push = nl_sign J, which takes f(U) to its term of dU/dt."""
    xi = model.kappa * (np.arange(N // 2 + 1) / q)
    jop = model.j_symbol(xi)
    lin = jop * model.energy_diag(xi, c)[0]
    lin[-1] = 0.0
    return lin, model.nl_sign * jop


def stable_dt(model: ModelSpec, q: int, N: int, u_inf: float = 1.0) -> float:
    """Default ETDRK4 step: the CFL of the explicit nonlinear term, capped
    at 0.1.  ETDRK4 propagates J E exactly, so only J f(U) limits the step;
    over |U| <= u_inf it moves information at most at
    speed = max|f'| max|j_symbol(xi)| / max|xi|, and dt = 0.2 dx / kappa /
    speed.  The kdv-family ratio is 1 (J = i xi); the bounded BBM J makes
    the speed small, so the cap decides.
    """
    kap = model.kappa
    xi = kap * np.arange(N // 2 + 1) / q
    dx = _TWO_PI * q / (2 * N)
    dfmax = float(np.max(np.abs(model.nonlinearity.df(
        np.array([-u_inf, u_inf, 1e-9])))))
    speed = dfmax * float(np.max(np.abs(model.j_symbol(xi))) / np.max(xi))
    return min(0.2 * dx * kap ** -1 / max(speed, 1e-12), 0.1)


def advance(ev, rows: np.ndarray, n_steps: int, per: int, observe,
            t0: float = 0.0) -> np.ndarray:
    """The one time loop: step ``rows`` from t0 with ``ev`` n_steps times
    and return them.

    Step i ends at t0 + i dt, a product rather than a running sum.
    ``observe(t, rows)`` is called after every ``per`` steps and after the
    last step; a True return stops the run.  Non-finite rows at an
    observation raise BlowupError carrying that time.
    """
    for i in range(1, n_steps + 1):
        rows = ev.step_coef(rows, t0 + (i - 1) * ev.dt)
        if i % per == 0 or i == n_steps:
            t = t0 + i * ev.dt
            if not np.all(np.isfinite(rows)):
                raise BlowupError(f"blow-up detected by t = {t:.6g}",
                                  last_time=t)
            if observe(t, rows):
                break
    return rows


# -- the fiber-split stepper ---------------------------------------------------------


class _Fibers:
    """The Bloch fibers k = r/q of T_{2 pi q} that a real field needs.

    Fiber r = 0 .. q/2 holds the signed modes n = q m + r with |n| < N/2;
    the fibers q - r mirror them by conjugation.  Fibers are stacked as
    rows of a common length, padded with modes that stay zero.  A real
    field's modes n = 0 .. N/2 map into the stack by one index per slot (a
    negative n reads conj(c_{-n})), and back by one index per mode (a mode
    n with n mod q > q/2 reads the conjugate of the slot of -n); leading
    axes are kept.  ``put`` and ``pick`` run these maps straight into the
    transform's buffer and out of its output.
    """

    def __init__(self, q: int, N: int):
        half = N // 2
        n = np.arange(1 - half, half)
        rows = [n[n % q == r] for r in range(q // 2 + 1)]
        self.size = max(len(ns) for ns in rows)
        self.modes = np.zeros((len(rows), self.size), dtype=int)
        self.mask = np.zeros((len(rows), self.size), dtype=bool)
        for r, ns in enumerate(rows):
            self.modes[r, :len(ns)] = ns
            self.mask[r, :len(ns)] = True
        # slot -> mode |n|, conjugated for n < 0; a pad reads the Nyquist mode
        self._slot = np.where(self.mask, np.abs(self.modes), half)
        self._slot_sign = _conj_signs(self.modes < 0)
        self._pad = ~self.mask
        # mode k = 0 .. N/2 - 1 -> the flat slot of k, or of -k conjugated
        at = np.empty(2 * half - 1, dtype=int)
        at[self.modes[self.mask] + half - 1] = np.flatnonzero(self.mask)
        k = np.arange(half)
        mirrored = k % q > q // 2
        self._mode = at[np.where(mirrored, -k, k) + half - 1]
        self._mode_sign = _conj_signs(mirrored)

    def stack(self, half: np.ndarray) -> np.ndarray:
        """The fiber stack of the modes n = 0 .. N/2; pads are zero."""
        x = self.pick(half)
        x[..., self._pad] = 0.0
        return x

    def half(self, stack: np.ndarray) -> np.ndarray:
        """The modes n = 0 .. N/2 of a fiber stack; the Nyquist mode is zero."""
        out = np.zeros(stack.shape[:-2] + (len(self._mode) + 1,),
                       dtype=np.complex128)
        self.put(stack, out)
        return out

    def pick(self, spec: np.ndarray) -> np.ndarray:
        """The fiber stack read from the modes n = 0 .. N/2 of ``spec``
        (a longer last axis is not read).  A pad reads the Nyquist mode, so
        it is zero only where that mode is, as in ``_Transform.coef``."""
        return _conj_by_sign(spec.take(self._slot, axis=-1), self._slot_sign)

    def put(self, stack: np.ndarray, buf: np.ndarray):
        """Write the modes n = 0 .. N/2 - 1 of a fiber stack into ``buf``,
        whose later entries are not written."""
        dst = buf[..., :len(self._mode)]
        stack.reshape(stack.shape[:-2] + (-1,)).take(
            self._mode, axis=-1, out=dst, mode="clip")
        _conj_by_sign(dst, self._mode_sign)


def _conj_signs(conj: np.ndarray) -> np.ndarray:
    """The float64 view's factors that conjugate a complex array where
    ``conj`` is True: 1 on every real part, -1 on those imaginary parts."""
    sign = np.ones(conj.shape + (2,))
    sign[conj, 1] = -1.0
    return sign.reshape(conj.shape[:-1] + (-1,))


def _conj_by_sign(x: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """x conjugated in place by ``_conj_signs``: one dense multiply, which
    flips the same sign bits as np.conjugate at half the cost of its
    ``where=`` (1.0 against 2.0 us on the 384 modes of the escape torus)."""
    v = x.view(np.float64)
    np.multiply(v, sign, out=v)
    return x


class _HalfSpectrum:
    """The layout of a generator at the zero field: a real field's modes
    n = 0 .. N/2 as they are, one row without a fiber axis.  The Nyquist
    mode is its pad; A and G are zero there, so it keeps its value."""

    def __init__(self, N: int):
        self.size = N // 2 + 1
        self.stack = self.half = lambda x: x


def _phi_tables(h: float, A: np.ndarray) -> tuple:
    """(E2, Q, f1, 2 f2, f3) of ETDRK4 step h for the matrix A: the first
    block row e^Z, phi_1(Z), phi_2(Z), phi_3(Z) of the augmented exponential
    (Sidje) at Z = hA/2, by scaling and squaring on n x n blocks.  At
    X = Z / 2^s, ||X||_1 <= 2, the Taylor sum phi_3(X) = sum_j X^j / (j+3)!
    is evaluated by Paterson-Stockmeyer in Y = X^5, the lower orders follow
    from phi_k(X) = X phi_{k+1}(X) + I / k! (11 products in all, against
    24 for term-by-term sums), and all are doubled s times and once more to
    hA by

        phi_k(2X) = 2^-k [e^X phi_k(X) + sum_{j=1..k} phi_j(X) / (k - j)!].

    No eigenbasis: the fiber k = 0 is defective (the translation kernel,
    cond(V) ~ 1e8), and on the escape wave's other fibers (cond(V) <= 9) an
    eigenbasis e^{hA} at h = 1 is 2e-13 off a long-double reference where
    this one is 7e-15, at the same cost.  The updates run in place: at 96
    modes a matrix is 147 kB.
    """
    n = A.shape[0]
    s = max(0, int(np.ceil(np.log2(max(0.5 * h * np.linalg.norm(A, 1), 1e-300)
                                   / _TAYLOR_RADIUS))))
    X = A * (0.5 * h / 2.0 ** s)
    X2 = X @ X
    P = (X, X2, X2 @ X, X2 @ X2)          # X^1 .. X^4
    Y = P[3] @ X
    del X2
    p3 = None
    for i in range(_TAYLOR_TERMS // 5, -1, -1):   # blocks of X^{5i} .. X^{5i+4}
        B = P[0] * (1.0 / factorial(5 * i + 4))
        for j in (1, 2, 3):
            B += P[j] * (1.0 / factorial(5 * i + j + 4))
        B.flat[::n + 1] += 1.0 / factorial(5 * i + 3)
        if p3 is not None:
            B += Y @ p3
        p3 = B
    del P, Y, B
    p2 = X @ p3                            # phi_k = X phi_{k+1} + I / k!
    p2.flat[::n + 1] += 0.5
    p1 = X @ p2
    p1.flat[::n + 1] += 1.0
    e = X @ p1
    e.flat[::n + 1] += 1.0
    del X
    I = np.eye(n, dtype=A.dtype)
    for i in range(s + 1):
        if i == s:
            E2, Q = e, 0.5 * h * p1
        ep = e + I
        p3 = ep @ p3       # each update reads the lower orders before theirs
        p3 += p2
        p3 += 0.5 * p1
        p3 *= 0.125
        p2 = ep @ p2
        p2 += p1
        p2 *= 0.25
        p1 = ep @ p1
        p1 *= 0.5
        if i < s:
            e = e @ e
    del ep
    f3 = 4.0 * p3      # f3 = h (4 phi_3 - phi_2)
    f3 -= p2
    f3 *= h
    p1 -= 3.0 * p2     # f1 = h (phi_1 - 3 phi_2 + 4 phi_3)
    p1 += 4.0 * p3
    p1 *= h
    p2 -= 2.0 * p3     # 2 f2 = 2h (phi_2 - 2 phi_3)
    p2 *= 2.0 * h
    return E2, Q, p1, p2, f3


def _contour_tables(h: float, lam: np.ndarray) -> tuple:
    """(E, E2, Q, f1, 2 f2, f3) of ETDRK4 step h for the diagonal lam: exact
    exponentials, and phi-functions as means over a unit circle around each
    h lam (Kassam & Trefethen).  O(n) where ``_phi_tables`` is O(n^3), and
    E2 is 5e-17 off at h lam = 1e5 i, where ``_phi_tables`` is 2.8e-12 off.

    The means run over blocks of ``_CONTOUR_BLOCK`` modes, so the
    (block, 16) temporaries stay small: unblocked, seven (n, 16) of them
    took a fallback run at n = 10,501 modes from 86.7 to 104.9 MB.  Each
    mode's mean reduces its own row, and every block, the last one too,
    holds the whole block (the last one overlaps its neighbour), so the
    blocks keep every bit of the unblocked means."""
    n_pts = _CONTOUR_POINTS
    roots = np.exp(1j * np.pi * (np.arange(n_pts) + 0.5) / n_pts * 2.0)
    Q, f1, f2x2, f3 = np.empty((4, len(lam)), dtype=np.complex128)
    for i in range(0, len(lam), _CONTOUR_BLOCK):
        part = slice(max(0, min(i, len(lam) - _CONTOUR_BLOCK)),
                     i + _CONTOUR_BLOCK)
        lr = h * lam[part, None] + roots[None, :]
        lr2, lr3 = lr * lr, lr ** 3
        elr = np.exp(lr)
        Q[part] = h * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
        f1[part] = h * np.mean(
            (-4.0 - lr + elr * (4.0 - 3.0 * lr + lr2)) / lr3, axis=1)
        f2x2[part] = 2.0 * (h * np.mean((2.0 + lr + elr * (lr - 2.0)) / lr3,
                                        axis=1))
        f3[part] = h * np.mean(
            (-4.0 - 3.0 * lr - lr2 + elr * (4.0 - lr)) / lr3, axis=1)
    return np.exp(h * lam), np.exp(0.5 * h * lam), Q, f1, f2x2, f3


class _FiberGenerator:
    """The linearization A of the ETDRK4 right-hand side at a base state
    u_c on T_{2 pi q}, one kept block per fiber (``_Fibers``, ``block``), and
    the pieces of the split w = u - u_c:  dw/dt = A w + G(w) with

        G(w) = push P[f(u_c + w) - f(u_c) - f'(u_c) w] + R,

    R the right-hand side at u_c.  A is the stepper's own linearization: its
    coupling push P[f'(u_c) w] is the exact discrete convolution on the
    transform grid, whose length is a multiple of q so that no aliased
    product couples two fibers.  An integer p sums the remainder as
    sum_{j>=2} f^(j)(u_c) w^j / j!, so nothing cancels; a non-integer p takes
    the difference.  The mode n = 0 has J = 0, so neither A nor G moves it.

    At a zero base f(0) = f'(0) = 0 (every f = sign u^p has p > 1): A is the
    diagonal J E on ``_HalfSpectrum``, G is push P[f(w)], and no coupling
    can alias, so the transform length is not rounded to a multiple of q."""

    def __init__(self, model: ModelSpec, c: float, base: PeriodicField):
        q, N = base.q, base.N
        nl = model.nonlinearity
        self.model, self.c, self.f = model, c, nl.f
        if not np.any(base.coef):
            self.fib, self.tr = _HalfSpectrum(N), _Transform(q, N, nl)
            self.base, self.R = np.zeros(N // 2 + 1, dtype=np.complex128), None
            self.diagonal, self.push = _half_symbols(model, c, q, N)
            return
        self.diagonal = None
        self.fib = _Fibers(q, N)
        self.tr = _Transform(q, N, nl, multiple=q)
        self.base = base.coef[N // 2:].copy()
        uc = self.tr.values(self.base)
        # R, in the arithmetic of the right-hand side
        lin, push = _half_symbols(model, c, q, N)
        self.R = self.fib.stack(lin * self.base + push * self.tr.coef(nl.f(uc)))
        self.push = self.fib.stack(push)
        if nl.degree is None:
            self.f_uc, self.df_uc, self.uc = nl.f(uc), nl.df(uc), uc
            self.taylor = None
        else:
            # f^(p)(u_c) / p! is the constant sign: Horner starts from a float
            self.taylor = [nl._power_rule(uc, j) / factorial(j)
                           for j in range(2, nl.degree)] + [nl.sign]
        self.dhat = np.fft.fft(nl.df(uc)) / self.tr.M
        self._blocks = [None] * len(self.fib.modes)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A on a fiber stack, block by block."""
        out = np.zeros_like(x)
        for r in range(len(self._blocks)):
            A = self.block(r)
            out[..., r, :len(A)] = x[..., r, :len(A)] @ A.T
        return out

    def block(self, r: int) -> np.ndarray:
        """The block J L of A on fiber r, unpadded, from
        ``ModelSpec.generator_factors`` with (f'(u_c))^_{n - m} as the
        convolution; built on first use, then kept."""
        if self._blocks[r] is None:
            n = self.fib.modes[r][self.fib.mask[r]]
            J, L = self.model.generator_factors(
                self.model.kappa * (n / self.tr.q), self.c,
                self.dhat[(n[:, None] - n) % self.tr.M])
            self._blocks[r] = J[:, None] * L
        return self._blocks[r]

    def remainder(self, x: np.ndarray, t: float) -> np.ndarray:
        """G on a fiber stack (G does not depend on t)."""
        if self.R is None:
            return self.push * self.tr.coef(self.f(self.tr.values(x)))
        w = self.tr.values(x, self.fib)
        if self.taylor is None:
            g = self.f(self.uc + w) - self.f_uc - self.df_uc * w
        else:
            g = self.taylor[-1]
            for cj in self.taylor[-2::-1]:
                g = cj + w * g
            g = g * w * w
        return self.push * self.tr.coef(g, self.fib) + self.R


class SplitEvolver:
    """ETDRK4 for dx/dt = A x + G(x, t) with e^{hA} exact on each Bloch fiber.

    The Cox-Matthews stages run on the non-diagonal linear part A of a
    ``_FiberGenerator`` (Hochbruck & Ostermann): E = e^{hA}, E2 = e^{hA/2},
    Q = (h/2) phi_1(hA/2), f1 = h (phi_1 - 3 phi_2 + 4 phi_3),
    2 f2 = 2h (phi_2 - 2 phi_3) and f3 = h (4 phi_3 - phi_2), all at hA, one
    block per fiber, and only G, called on fiber stacks at t, t + h/2,
    t + h/2 and t + h, is explicit; E x is E2 (E2 x).  States are fiber
    stacks, possibly with leading axes; ``rows``/``field`` map a field u to
    the stack of w = u - u_c and back, the state of the escape runs, whose
    G is ``gen.remainder``.  Only the step tables are kept (``tabulate``),
    5 (2b + 1) n complex entries per fiber of n modes for the tables'
    half-bandwidth b, for each of the ``_HELD_STEPS`` steps last used.  At a
    zero base (``gen.diagonal``) the tables are vectors, applied
    elementwise, and E x is E x itself.

    On the escape wave (5 fibers of 96 modes, b = 8, M = 1152, one BLAS
    thread) a step takes about 165 us: 9 band products by zgbmv, about
    7 us each, 4 calls of G, about 20 us each, two transforms and the
    fiber maps in each, and the elementwise sums.
    """

    def __init__(self, gen: _FiberGenerator, h: float, G):
        self.gen = gen
        self.G = G
        self._held = {}         # step -> tables, least recently used first
        self.tabulate(h)

    def tabulate(self, h: float):
        """Step by h: E2, Q and W = (f1, 2 f2, f3) of ``_tables``.

        The tables of the ``_HELD_STEPS`` most recently used steps are held,
        and a held step is not tabulated again: the pilot's h vs h/2 check
        and the runs' ladder levels come back to the steps they left.  The
        least recently used tables are dropped before a new step is
        tabulated, so at most ``_HELD_STEPS`` sets are held at once (2 sets
        of 0.65 MB on the escape wave).
        """
        if h <= 0:
            raise DomainError("the step must be positive")
        self.dt = float(h)
        tables = self._held.pop(self.dt, None)
        if tables is None:
            if len(self._held) == _HELD_STEPS:
                del self._held[next(iter(self._held))]
            tables = self._tables(self.dt)
        self._held[self.dt] = tables
        self.E, self.E2, self.Q, self.W, self.band, self._matvec = tables

    def _tables(self, h: float) -> tuple:
        """(E, E2, Q, W, band, matvec) of the step h, built fiber by fiber
        from ``_phi_tables``; E = E2 E2 is not kept (None).  At a zero base
        they, and E, are ``_contour_tables`` vectors.

        A function of a banded matrix decays away from the band (Benzi &
        Razouk), so the tables are kept to the half-bandwidth ``band``, the
        least b beyond which every entry of every fiber's tables is at most
        2^-53 of that table's largest.  Each table is the rows of LAPACK
        band storage of the transposed block-diagonal stack
        (``_band_rows``), applied by ``_band_matvec``: 2 band + 1 columns,
        each fiber's rows at its own b centred in them.  The array widens
        as a fiber with a wider band comes in, copying only the rows
        filled so far, so the tables are not held twice over (np.zeros
        commits no page of the rows still to come).

        The row of A for the mode n = 0 is exactly zero, so the Taylor sums
        and doublings give that mode the rows of phi_k(0) I exactly; with
        G = 0 there, it keeps its value to the bit.
        """
        if self.gen.diagonal is not None:
            # E kept: 3,000 steps of 6.1e-4 keep the KdV a = 0.05 wave at
            # N = 512 to 4.7e-18, and E2 (E2 x) to 3.7e-14
            E, E2, Q, *W = _contour_tables(h, self.gen.diagonal)
            return E, E2, Q, W, 0, _diagonal_matvec
        F, size = self.gen.fib.mask.shape
        band, tab = 0, np.zeros((5, F * size, 1), dtype=np.complex128)
        for r in range(F):
            tables = _phi_tables(h, self.gen.block(r))
            b = max(map(_half_bandwidth, tables))
            if b > band:        # only the rows filled so far are copied
                wider = np.zeros((5, F * size, 2 * b + 1), dtype=np.complex128)
                wider[:, :r * size, b - band:b + band + 1] = tab[:, :r * size]
                band, tab = b, wider
            k = len(tables[0])
            tab[:, r * size:r * size + k, band - b:band + b + 1] = \
                _band_rows(np.array(tables), b)
        E2, Q, *W = tab
        return None, E2, Q, W, band, _band_matvec

    def rows(self, f: PeriodicField) -> np.ndarray:
        """The state of the real field ``f``: the fiber stack of f - u_c."""
        return self.gen.fib.stack(field_rows(f) - self.gen.base)

    def field(self, rows: np.ndarray) -> PeriodicField:
        """The real field u_c + w of the state ``rows``."""
        q, N = self.gen.tr.q, self.gen.tr.N
        return rows_field(q, N, self.gen.base + self.gen.fib.half(rows))

    def step_coef(self, x: np.ndarray, t: float) -> np.ndarray:
        G, h, mv = self.G, self.dt, self._matvec
        E2, Q = self.E2, self.Q
        # a blow-up overflows quietly; callers check the result is finite
        with np.errstate(invalid="ignore", over="ignore"):
            n0 = G(x, t)
            e2u = mv(E2, x)
            a = e2u + mv(Q, n0)
            na = G(a, t + h / 2.0)
            b = e2u + mv(Q, na)
            nb = G(b, t + h / 2.0)
            c = mv(E2, a) + mv(Q, 2.0 * nb - n0)
            nc = G(c, t + h)
            out = mv(E2, e2u) if self.E is None else mv(self.E, x)
            for T, v in zip(self.W, (n0, na + nb, nc)):
                mv(T, v, out)
            return out


def _matvec(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (T @ x[..., None])[..., 0]


def _diagonal_matvec(T: np.ndarray, x: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """T x for a diagonal table T, added into ``out`` when given."""
    return T * x if out is None else np.add(out, T * x, out=out)


def _half_bandwidth(T: np.ndarray) -> int:
    """The least b with |T_ij| <= 2^-53 max|T| wherever |i - j| > b."""
    mag = np.abs(T)
    i, j = np.nonzero(mag > 2.0 ** -53 * np.max(mag))
    return int(np.max(np.abs(i - j))) if len(i) else 0


def _band_rows(T: np.ndarray, b: int) -> np.ndarray:
    """Row i of each square matrix T at the columns i - b .. i + b, zero
    outside T.  For T^T these rows, in C order, are the columns of LAPACK
    band storage with kl = ku = b."""
    k = T.shape[-1]
    cols = np.arange(k)[:, None] + np.arange(-b, b + 1)
    inside = (cols >= 0) & (cols < k)
    return np.where(inside, T[..., np.arange(k)[:, None],
                              np.clip(cols, 0, k - 1)], 0.0)


def _band_matvec(T: np.ndarray, x: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """T x for a fiber stack x and a table stack T in band rows
    (``_band_rows`` of the block-diagonal stack), added into ``out`` when
    given: one transposed zgbmv per leading row of x, called directly on a
    stack without leading axes.  Each entry of T x is one dot product over
    its band row, so the bits do not depend on the BLAS thread count."""
    n, b = T.shape[0], T.shape[1] // 2
    if x.ndim == 2:
        if out is None:
            return _zgbmv(n, n, b, b, 1.0, T.T, x.ravel(),
                          trans=1).reshape(x.shape)
        _zgbmv(n, n, b, b, 1.0, T.T, x.ravel(), beta=1.0, y=out.ravel(),
               trans=1, overwrite_y=1)
        return out
    if out is None:
        out = np.zeros(x.shape, dtype=np.complex128)
    for xr, yr in zip(x.reshape(-1, n), out.reshape(-1, n)):
        _zgbmv(n, n, b, b, 1.0, T.T, xr, beta=1.0, y=yr, trans=1,
               overwrite_y=1)
    return out


# -- states and conserved quantities ------------------------------------------------


def lift_wave(wave: TravelingWave, q: int, N: int) -> PeriodicField:
    """Extend the 2 pi periodic profile to T_{2 pi q} (modes at multiples of q)."""
    return PeriodicField(q, N, _lift_eigenfunction(wave.profile, 0, q, N), real=True)


def field_rows(f: PeriodicField) -> np.ndarray:
    """The half spectrum of the real field ``f``: its modes
    n = 0 .. N/2, symmetrized.  A complex field raises DomainError."""
    if not f.real:
        raise DomainError("the steppers step real fields only")
    rev = np.conj(f.coef[f.N // 2::-1])     # conj(c_{-n}), n = 0 .. N/2
    return 0.5 * (f.coef[f.N // 2:] + rev)


def rows_field(q: int, N: int, rows: np.ndarray) -> PeriodicField:
    """Inverse of ``field_rows``."""
    return PeriodicField(q, N, hermitian_full(rows), real=True)


def conserved_quantities(model: ModelSpec, f: PeriodicField, c: float):
    """(mass, momentum, energy) in the traveling frame.

    kdv family: mass = int U, momentum = (1/2) int U^2,
    energy = (1/2) <M U, U> + int F(U).  The BBM analogues carry the H^1
    metric: momentum = (1/2) int (U^2 + kappa^2 U_z^2) and
    energy = (c/2) int (U^2 + kappa^2 U_z^2) - (1/2) int U^2 - int F(U).
    A complex field raises DomainError.
    """
    if not f.real:
        raise DomainError("conserved quantities are defined for real fields")
    kap = model.kappa
    scale = _TWO_PI * f.q
    mass = float((scale * f.coef[f.N // 2]).real)
    p2 = scale * float(np.sum(np.abs(f.coef) ** 2))
    nl = model.nonlinearity
    pad = nl.pad + 1.0
    M = int(np.ceil(pad * f.N))
    M += M % 2
    vals = f.values(M)
    intF = float(np.sum(nl.F(vals)) * scale / M)
    xi = kap * f.xi()
    if model.family == "kdv_type":
        momentum = 0.5 * p2
        quad = scale * float(np.sum(evaluate_symbol(model.symbol, xi)
                                    * np.abs(f.coef) ** 2))
        energy = 0.5 * quad + intF
    else:
        h1 = scale * float(np.sum((1.0 + xi ** 2) * np.abs(f.coef) ** 2))
        momentum = 0.5 * h1
        energy = 0.5 * c * h1 - 0.5 * p2 - intF
    return mass, momentum, energy


@dataclass
class ConservedLedger:
    """Append-only record of conserved quantities and their relative drifts."""

    t: list = dc_field(default_factory=list)
    mass: list = dc_field(default_factory=list)
    momentum: list = dc_field(default_factory=list)
    energy: list = dc_field(default_factory=list)

    def append(self, t: float, mass: float, momentum: float, energy: float):
        self.t.append(t)
        self.mass.append(mass)
        self.momentum.append(momentum)
        self.energy.append(energy)

    def _drift(self, series):
        if not series:
            return np.array([])
        ref = series[0]
        scale = max(abs(ref), 1e-30)
        return np.array([(v - ref) / scale for v in series])

    def mass_drift(self):
        ref = self.mass[0] if self.mass else 0.0
        scale = max(abs(ref), 1.0)
        return np.array([(v - ref) / scale for v in self.mass])

    def momentum_drift(self):
        return self._drift(self.momentum)

    def energy_drift(self):
        return self._drift(self.energy)


# -- orbital distance -----------------------------------------------------------------


def orbital_distance(U: PeriodicField, u_c: PeriodicField):
    """Minimize ||U - u_c(. + y)||_L2 over shifts y of the 2 pi periodic wave.

    The correlation over all grid shifts costs one transform; the winner is
    polished to round-off by Newton on the correlation derivative, and the
    distance is assembled as a cancellation-free sum of coefficient
    differences.  Returns (distance, y).
    """
    if u_c.q != 1:
        raise GridMismatchError("the reference wave must live on T_{2 pi}")
    q, N = U.q, U.N
    half_big, half_small = N // 2, u_c.N // 2
    m_max = min(half_small, half_big // q)
    ms = np.arange(-m_max, m_max + 1)
    lattice = ms * q + half_big
    g = U.coef[lattice] * np.conj(u_c.coef[ms + half_small])

    def corr_d(y, order):
        return float(np.sum(g * (-1j * ms) ** order * np.exp(-1j * ms * y)).real)

    M = max(256, 8 * (2 * m_max + 1))
    # corr(y) = Re sum_m g_m e^{-i m y} is the real transform of the modes
    # m >= 0 of the Hermitian part of g
    half = 0.5 * (np.conj(g[m_max:]) + g[m_max::-1])
    corr_grid = scipy.fft.irfft(half, n=M, norm="forward")
    i_best = int(np.argmax(corr_grid))
    y = _TWO_PI * i_best / M

    # Newton on corr'(y) = 0 (guarded bisection-free; the grid start is
    # within half a grid cell of the maximizer)
    for _ in range(60):
        d1 = corr_d(y, 1)
        d2 = corr_d(y, 2)
        if d2 >= 0.0:
            break
        dy = -d1 / d2
        dy = float(np.clip(dy, -_TWO_PI / M, _TWO_PI / M))
        y += dy
        if abs(dy) < 1e-13:
            break

    # distance as a direct sum of squares: lattice modes see the shifted
    # wave, everything off the wave lattice contributes unchanged
    phase = np.exp(1j * ms * y)
    diff2 = np.abs(U.coef[lattice] - u_c.coef[ms + half_small] * phase) ** 2
    mask = np.ones(N + 1, dtype=bool)
    mask[lattice] = False
    # wave modes beyond the big truncation (|m| > m_max) are part of the
    # distance as well
    tail = np.abs(u_c.coef[np.abs(u_c.modes()) > m_max]) ** 2
    d2_total = float(np.sum(diff2) + np.sum(np.abs(U.coef[mask]) ** 2)
                     + np.sum(tail))
    y = float(np.mod(y + np.pi, _TWO_PI) - np.pi)
    return float(np.sqrt(_TWO_PI * q * d2_total)), y


# -- approximate solutions --------------------------------------------------------------


@dataclass
class ApproxSolution:
    """U^app(t) = u_c + sum_j delta^j U_j(t) sampled on a time grid.

    U_1 is carried analytically through (lam, w, wbar); the corrections
    U_2 .. U_n are stored as coefficient arrays per snapshot.
    """

    model: ModelSpec
    wave: TravelingWave
    delta: float
    n_order: int
    times: np.ndarray
    lam: complex
    w: np.ndarray               # lifted eigenfunction coefficients
    wbar: np.ndarray            # conjugate partner
    corrections: list           # per snapshot: [U_2, ..., U_n] coefficient arrays
    q: int
    N: int
    residual_norms: np.ndarray = None

    def U1(self, t: float) -> np.ndarray:
        return self.w * np.exp(self.lam * t) \
            + self.wbar * np.exp(np.conj(self.lam) * t)

    def dU1(self, t: float) -> np.ndarray:
        return self.lam * self.w * np.exp(self.lam * t) \
            + np.conj(self.lam) * self.wbar * np.exp(np.conj(self.lam) * t)

    def field_at(self, i: int) -> PeriodicField:
        coef = self.U1(self.times[i]) * self.delta
        for j, Uj in enumerate(self.corrections[i], start=2):
            coef = coef + self.delta ** j * Uj
        uc = lift_wave(self.wave, self.q, self.N)
        return PeriodicField(self.q, self.N, uc.coef + coef, real=True)


def _cascade_forcing(gen: _FiberGenerator, sol: ApproxSolution):
    """G(x, t) of the forced solves on the stack x of (U_2) or (U_2, U_3):
    G_2 = push P[f''(u_c) U_1^2 / 2] and
    G_3 = push P[f''(u_c) U_1 U_2 + f'''(u_c) U_1^3 / 6], from the
    generator's Taylor table and transform."""
    c2 = gen.taylor[0]
    c3 = gen.taylor[1] if len(gen.taylor) > 1 else 0.0
    half = sol.N // 2

    def forcing(x: np.ndarray, t: float) -> np.ndarray:
        u1 = gen.tr.values(sol.U1(t)[half:])
        g = [c2 * u1 * u1]
        if len(x) > 1:
            u2 = gen.tr.values(x[0], gen.fib)
            g.append(2.0 * c2 * u1 * u2 + c3 * u1 ** 3)
        return gen.push * gen.tr.coef(np.stack(g), gen.fib)

    return forcing


def build_approximate_solution(model: ModelSpec, wave: TravelingWave,
                               lam: complex, v: PeriodicField, pq: tuple,
                               delta: float, n_order: int, t_end: float,
                               dt: float, n_snapshots: int = 17) -> ApproxSolution:
    """Construct U^app = u_c + sum delta^j U_j on T_{2 pi q}.

    U_1 is the analytic eigen-solution; U_j for j >= 2 solves the forced
    linearized equation dU_j/dt = A U_j + G_j with zero initial data, where
    G_j collects the order-j Taylor terms of f at u_c.  The corrections
    step together as one fiber stack on ``SplitEvolver``, at the step
    dt_eff <= dt that puts the snapshots on step boundaries.
    """
    if n_order < 1 or n_order > 3:
        raise DomainError("approximate solutions support orders 1..3 only")
    if not (t_end > 0 and dt > 0):
        raise DomainError("t_end and dt must be positive")
    if n_snapshots < 2:
        raise DomainError("the cascade needs at least two snapshots")
    if n_order >= 2 and model.nonlinearity.degree is None:
        raise DomainError("higher-order corrections need a polynomial f")
    p, q = int(pq[0]), int(pq[1])
    N_big = q * wave.profile.N
    w = _lift_eigenfunction(v, p, q, N_big)
    wbar = np.conj(w[::-1])
    times = np.linspace(0.0, t_end, n_snapshots)
    sol = ApproxSolution(model, wave, delta, n_order, times, complex(lam),
                         w, wbar, [[] for _ in times], q, N_big)
    if n_order == 1:
        return sol

    # align dt so snapshots land exactly on step boundaries
    per = max(1, int(np.ceil(t_end / ((n_snapshots - 1) * dt))))
    dt_eff = t_end / ((n_snapshots - 1) * per)
    gen = _FiberGenerator(model, wave.c, lift_wave(wave, q, N_big))
    state = np.zeros((n_order - 1,) + gen.fib.mask.shape, dtype=np.complex128)
    sol.corrections = [list(hermitian_full(gen.fib.half(state)))]
    snap_t = [0.0]

    def store(t, rows):
        sol.corrections.append(list(hermitian_full(gen.fib.half(rows))))
        snap_t.append(t)

    with serial(gen.fib.size):
        ev = SplitEvolver(gen, dt_eff, _cascade_forcing(gen, sol))
        advance(ev, state, (n_snapshots - 1) * per, per, store)
    sol.times = np.array(snap_t)
    return sol


def approximate_solution_residual(sol: ApproxSolution) -> np.ndarray:
    """L2 norms of d/dt U^app - RHS(U^app) at the stored snapshots.

    The time derivative uses the defining relations (dU_1 analytic,
    dU_j = A U_j + G_j, A applied on the fiber blocks), so the result
    measures the order-(n+1) defect of the construction rather than
    integrator error.  RHS(U^app) is A w + G(w) at w = U^app - u_c, on the
    same fiber generator.
    """
    q, N_big, delta = sol.q, sol.N, sol.delta
    gen = _FiberGenerator(sol.model, sol.wave.c, lift_wave(sol.wave, q, N_big))
    forcing = _cascade_forcing(gen, sol) if sol.n_order > 1 else None
    half = N_big // 2
    out = []
    with serial(gen.fib.size):
        for i, t in enumerate(sol.times):
            dU = delta * sol.dU1(t)[half:]
            w = delta * sol.U1(t)[half:]          # U^app - u_c
            if forcing is not None:
                corr = np.array([Uj[half:] for Uj in sol.corrections[i]])
                x = gen.fib.stack(corr)
                dcorr = gen.fib.half(gen.apply(x) + forcing(x, t))
                for j, (Uj, dUj) in enumerate(zip(corr, dcorr), start=2):
                    dU = dU + delta ** j * dUj
                    w = w + delta ** j * Uj
            # RHS(u_c + w) = A w + G(w), G carrying the RHS at u_c
            x = gen.fib.stack(w)
            rhs = gen.fib.half(gen.apply(x) + gen.remainder(x, t))
            res = hermitian_full(dU - rhs)
            out.append(float(np.sqrt(_TWO_PI * q * np.sum(np.abs(res) ** 2))))
    res_arr = np.array(out)
    sol.residual_norms = res_arr
    return res_arr
