"""Time integration of the traveling-frame equations, conserved-quantity
ledgers, higher-order approximate solutions, and orbital distances.

In the package's frequency orientation the evolved equation is

    dU/dt = J (E U + nl_sign f(U)),  J = j_symbol(xi),  E = energy_diag(xi, c)[0]

with the operator pieces of ``ModelSpec``.  Its linearization at u_c is
exactly the assembled Bloch generator at k = 0 (and at k = p/q on the
2 pi q torus).  Converged waves are fixed points of the stepper to
round-off.

Every model is integrated with the fourth-order exponential time
differencing of Cox & Matthews (ETDRK4): the linear part J E is propagated
exactly, as e^{tA} is in the nonlinear-instability estimates, and the
phi-functions are evaluated by a 16-point unit-circle contour mean
(Kassam & Trefethen).

Evolved fields are real, so the stepper keeps only the modes n = 0 .. N/2
(c_{-n} = conj(c_n) holds by construction) and transforms them with
rfft/irfft.  The full centered array is rebuilt (``fields.hermitian_full``)
only where a ``PeriodicField`` is needed.  A complex linearized state steps
as two real rows, its real and imaginary parts, which is exact because the
linearized flow is real-linear.

``advance`` is the one time loop: the escape runs, the approximate-solution
cascade and ``modulon evolve`` step through it, observing every ``per``
steps and after the last step.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.fft

from .errors import BlowupError, DomainError, GridMismatchError
from .fields import PeriodicField, _lift_eigenfunction, hermitian_full
from .symbols import ModelSpec, evaluate_symbol
from .waves import TravelingWave, resample

_TWO_PI = 2.0 * np.pi
_CONTOUR_POINTS = 16      # contour nodes for the ETDRK4 phi-functions


class _Transform:
    """Padded real transforms between the modes n = 0 .. N/2 of a real
    field and its values on M grid points."""

    def __init__(self, q: int, N: int, pad: float):
        self.q = q
        self.N = N
        M = max(int(np.ceil(pad * N)), 2 * N)
        self.M = scipy.fft.next_fast_len(M)

    def values(self, half: np.ndarray) -> np.ndarray:
        return scipy.fft.irfft(half, n=self.M, axis=-1, norm="forward")

    def coef(self, vals: np.ndarray) -> np.ndarray:
        out = scipy.fft.rfft(vals, axis=-1, norm="forward")[..., :self.N // 2 + 1]
        out[..., -1] = 0.0
        return out


class Evolver:
    """ETDRK4 stepper for one (model, grid, dt) combination.

    States are the modes n = 0 .. N/2 of real fields, and may be stacked
    along leading axes.  ``linearized`` freezes the nonlinearity to
    multiplication by f'(u_c); an optional ``forcing(t, half)`` is added to
    the right-hand side, enabling the forced solves of the
    approximate-solution cascade.
    """

    def __init__(self, model: ModelSpec, c: float, q: int, N: int, dt: float,
                 linearized: bool = False, wave_profile: PeriodicField | None = None,
                 forcing=None):
        if dt <= 0:
            raise DomainError("dt must be positive")
        self.model = model
        self.c = float(c)
        self.q, self.N, self.dt = q, N, float(dt)
        self.linearized = linearized
        self.forcing = forcing
        xi = model.kappa * (np.arange(N // 2 + 1) / q)
        jop = model.j_symbol(xi)
        self.lin = jop * model.energy_diag(xi, c)[0]
        self.push = model.nl_sign * jop    # f(U) -> its term of dU/dt
        self.lin[-1] = 0.0
        self.tr = _Transform(q, N, model.nonlinearity.pad)
        self.df_vals = None
        if linearized:
            if wave_profile is None:
                raise DomainError("linearized stepping needs the base wave")
            base = resample(wave_profile, N) if wave_profile.q == q else None
            if base is None:
                raise DomainError("wave profile must live on the target torus "
                                  "(lift it to q first)")
            uc = self.tr.values(base.coef[N // 2:])
            self.df_vals = model.nonlinearity.df(uc)
        self._etdrk4_tables()

    def nonlinear(self, half: np.ndarray, t: float) -> np.ndarray:
        vals = self.tr.values(half)
        if self.linearized:
            fv = self.df_vals * vals
        else:
            fv = self.model.nonlinearity.f(vals)
        out = self.push * self.tr.coef(fv)
        if self.forcing is not None:
            out = out + self.forcing(t, half)
        return out

    def _etdrk4_tables(self):
        h, n_pts = self.dt, _CONTOUR_POINTS
        L = self.lin.astype(np.complex128)
        self.E = np.exp(h * L)
        self.E2 = np.exp(0.5 * h * L)
        roots = np.exp(1j * np.pi * (np.arange(n_pts) + 0.5) / n_pts * 2.0)
        lr = h * L[:, None] + roots[None, :]
        lr2, lr3 = lr * lr, lr ** 3
        elr = np.exp(lr)
        self.Q = h * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
        self.f1 = h * np.mean((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr2)) / lr3, axis=1)
        self.f2 = h * np.mean((2.0 + lr + elr * (lr - 2.0)) / lr3, axis=1)
        self.f3 = h * np.mean((-4.0 - 3.0 * lr - lr2 + elr * (4.0 - lr)) / lr3, axis=1)

    def step_coef(self, u: np.ndarray, t: float) -> np.ndarray:
        # a blow-up overflows quietly; callers check the result is finite
        with np.errstate(invalid="ignore", over="ignore"):
            h = self.dt
            n0 = self.nonlinear(u, t)
            e2u = self.E2 * u
            a = e2u + self.Q * n0
            na = self.nonlinear(a, t + h / 2.0)
            b = e2u + self.Q * na
            nb = self.nonlinear(b, t + h / 2.0)
            cst = self.E2 * a + self.Q * (2.0 * nb - n0)
            nc = self.nonlinear(cst, t + h)
            return (self.E * u + self.f1 * n0 + 2.0 * self.f2 * (na + nb)
                    + self.f3 * nc)


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


def advance(ev: Evolver, rows: np.ndarray, n_steps: int, per: int,
            observe) -> None:
    """The one time loop: step ``rows`` from t = 0 with ``ev`` n_steps times.

    ``observe(t, rows)`` is called after every ``per`` steps and after the
    last step; a True return stops the run.  Non-finite rows at an
    observation raise BlowupError carrying that time.
    """
    t = 0.0
    for i in range(1, n_steps + 1):
        rows = ev.step_coef(rows, t)
        t += ev.dt
        if i % per == 0 or i == n_steps:
            if not np.all(np.isfinite(rows)):
                raise BlowupError(f"blow-up detected by t = {t:.6g}",
                                  last_time=t)
            if observe(t, rows):
                return


# -- states and conserved quantities ------------------------------------------------


def lift_wave(wave: TravelingWave, q: int, N: int) -> PeriodicField:
    """Extend the 2 pi periodic profile to T_{2 pi q} (modes at multiples of q)."""
    return PeriodicField(q, N, _lift_eigenfunction(wave.profile, 0, q, N), real=True)


def field_rows(f: PeriodicField, ev: Evolver) -> np.ndarray:
    """The stepper state of ``f``: the modes n = 0 .. N/2 of its real part,
    stacked with those of its imaginary part when ``f`` is complex.

    Splitting is exact only for a real-linear flow, so a complex field
    needs a linearized, unforced evolver (DomainError otherwise).
    """
    h = f.coef[f.N // 2:]
    rev = np.conj(f.coef[f.N // 2::-1])     # conj(c_{-n}), n = 0 .. N/2
    re = 0.5 * (h + rev)
    if f.real:
        return re
    if not ev.linearized or ev.forcing is not None:
        raise DomainError("a complex field steps only under the unforced "
                          "linearized flow")
    return np.stack([re, -0.5j * (h - rev)])


def rows_field(q: int, N: int, rows: np.ndarray, real: bool) -> PeriodicField:
    """Inverse of ``field_rows``."""
    if real:
        return PeriodicField(q, N, hermitian_full(rows), real=True)
    return PeriodicField(q, N, hermitian_full(rows[0])
                         + 1j * hermitian_full(rows[1]), real=False)


def conserved_quantities(model: ModelSpec, f: PeriodicField, c: float):
    """(mass, momentum, energy) in the traveling frame.

    kdv family: mass = int U, momentum = (1/2) int U^2,
    energy = (1/2) <M U, U> + int F(U).  The BBM analogues carry the H^1
    metric: momentum = (1/2) int (U^2 + kappa^2 U_z^2) and
    energy = (c/2) int (U^2 + kappa^2 U_z^2) - (1/2) int U^2 - int F(U).
    """
    kap = model.kappa
    scale = _TWO_PI * f.q
    mass = float((scale * f.coef[f.N // 2]).real)
    p2 = scale * float(np.sum(np.abs(f.coef) ** 2))
    nl = model.nonlinearity
    pad = nl.pad + 1.0
    M = int(np.ceil(pad * f.N))
    M += M % 2
    vals = f.values(M)
    if not f.real:
        vals = vals.real
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


class _TaylorForcing:
    """Order-j forcing polynomials f^(k)(u_c)/k! pushed through J."""

    def __init__(self, model: ModelSpec, wave: TravelingWave, q: int, N_big: int):
        self.tr = _Transform(q, N_big, model.nonlinearity.pad + 1.0)
        uc_vals = self.tr.values(lift_wave(wave, q, N_big).coef[N_big // 2:])
        nl = model.nonlinearity
        self.d2f_uc = nl.d2f(uc_vals)
        self.d3f_uc = nl.d3f(uc_vals)
        xi = model.kappa * np.arange(N_big // 2 + 1) / q
        self.gop = model.nl_sign * model.j_symbol(xi)

    def G2(self, u1_half: np.ndarray) -> np.ndarray:
        u1v = self.tr.values(u1_half)
        return self.gop * self.tr.coef(0.5 * self.d2f_uc * u1v * u1v)

    def G3(self, u1_half: np.ndarray, u2_half: np.ndarray) -> np.ndarray:
        u1v = self.tr.values(u1_half)
        u2v = self.tr.values(u2_half)
        g = self.d2f_uc * u1v * u2v + self.d3f_uc * u1v ** 3 / 6.0
        return self.gop * self.tr.coef(g)


def build_approximate_solution(model: ModelSpec, wave: TravelingWave,
                               lam: complex, v: PeriodicField, pq: tuple,
                               delta: float, n_order: int, t_end: float,
                               dt: float, n_snapshots: int = 17) -> ApproxSolution:
    """Construct U^app = u_c + sum delta^j U_j on T_{2 pi q}.

    U_1 is the analytic eigen-solution; U_j for j >= 2 solves the forced
    linearized equation dU_j/dt = A U_j + G_j with zero initial data, where
    G_j collects the order-j Taylor terms of f at u_c.
    """
    if n_order < 1 or n_order > 3:
        raise DomainError("approximate solutions support orders 1..3 only")
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

    forcing = _TaylorForcing(model, wave, q, N_big)
    n_hi = n_order - 1
    half = N_big // 2

    def cascade_forcing(t, stacked):
        u1 = sol.U1(t)[half:]
        rows = [forcing.G2(u1)]
        if n_hi >= 2:
            rows.append(forcing.G3(u1, stacked[0]))
        return np.stack(rows)

    # align dt so snapshots land exactly on step boundaries
    per = max(1, int(np.ceil(t_end / ((n_snapshots - 1) * dt))))
    dt_eff = t_end / ((n_snapshots - 1) * per)
    uc_big = lift_wave(wave, q, N_big)
    ev = Evolver(model, wave.c, q, N_big, dt_eff, linearized=True,
                 wave_profile=uc_big, forcing=cascade_forcing)
    state = np.zeros((n_hi, half + 1), dtype=np.complex128)
    sol.corrections = [list(hermitian_full(state))]
    snap_t = [0.0]

    def store(t, rows):
        sol.corrections.append(list(hermitian_full(rows)))
        snap_t.append(t)

    advance(ev, state, (n_snapshots - 1) * per, per, store)
    sol.times = np.array(snap_t)
    return sol


def approximate_solution_residual(sol: ApproxSolution) -> np.ndarray:
    """L2 norms of d/dt U^app - RHS(U^app) at the stored snapshots.

    The time derivative uses the defining relations (dU_1 analytic,
    dU_j = A U_j + G_j), so the result measures the order-(n+1) defect of
    the construction rather than integrator error.
    """
    model, wave = sol.model, sol.wave
    q, N_big = sol.q, sol.N
    delta = sol.delta
    uc_big = lift_wave(wave, q, N_big)
    ev = Evolver(model, wave.c, q, N_big, dt=1.0, linearized=False)
    ev_lin = Evolver(model, wave.c, q, N_big, dt=1.0, linearized=True,
                     wave_profile=uc_big)
    forcing = _TaylorForcing(model, wave, q, N_big)
    half = N_big // 2
    out = []
    for i, t in enumerate(sol.times):
        U1 = sol.U1(t)[half:]
        dU = delta * sol.dU1(t)[half:]
        total = uc_big.coef[half:] + delta * U1
        corr = [Uj[half:] for Uj in sol.corrections[i]]
        for j, Uj in enumerate(corr, start=2):
            AUj = ev_lin.lin * Uj + ev_lin.nonlinear(Uj, t)
            Gj = forcing.G2(U1) if j == 2 else forcing.G3(U1, corr[0])
            dU = dU + delta ** j * (AUj + Gj)
            total = total + delta ** j * Uj
        rhs = ev.lin * total + ev.nonlinear(total, t)
        res = hermitian_full(dU - rhs)
        out.append(float(np.sqrt(_TWO_PI * q * np.sum(np.abs(res) ** 2))))
    res_arr = np.array(out)
    sol.residual_norms = res_arr
    return res_arr
