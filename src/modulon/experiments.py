"""Headline nonlinear-instability experiments: multi-periodic escape-time
scaling, localized wave-packet growth, and small-amplitude stability
threshold sweeps.

A multi-periodic run seeds u_c + delta * U1(0) with the unstable
eigenfunction lifted to the 2 pi q torus through a rational k0 = p/q, then
records the perturbation norm, the orbital distance, and the escape time
T_delta = first time the orbital distance reaches theta0.  Across a
decreasing list of deltas, T_delta regresses linearly on |ln delta| with
slope 1/Re lambda(k0).

A localized run replaces the single eigenfunction by a wave packet over an
unstable band; the linear phase follows the packet law
||U1(t)||^2 ~ e^{2 lambda0 t} (1+t)^{-1/l} (the band integral of
e^{2 Re lambda(k) t}), and the nonlinear phase measures escape in the plain
(not orbital) L2 distance.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field, fields as dc_fields

import numpy as np

from .bloch import (BlochSpectrum, GrowthCurve, assemble_bloch, bloch_eigvals,
                    fit_band, rational_k0, scan_bloch, unstable_eigenfunction,
                    UNSTABLE_THRESHOLD)
from .errors import (DomainError, DomainTooSmallError, ModulonError,
                     RationalApproximationError)
from .evolve import (ConservedLedger, Evolver, advance, conserved_quantities,
                     field_rows, lift_wave, orbital_distance, rows_field,
                     stable_dt)
from .fields import PeriodicField, l2_norm, midpoint_band_nodes, \
    synthesize_packet, write_csv, _lift_eigenfunction
from .symbols import ModelSpec, SymbolSpec, NonlinearitySpec
from .waves import TravelingWave, refine_newton, resample, small_amplitude_wave, \
    model_to_dict

DEFAULT_THETA_FRACTION = 0.05
PACKET_PROFILE_N = 48     # modes kept per packet eigenprofile


# -- shared monitoring machinery ------------------------------------------------


@dataclass
class DeltaRun:
    """Time series and fits for one perturbation size."""

    delta: float
    times: np.ndarray
    pert_norm: np.ndarray
    orbital: np.ndarray
    escape_time: float | None
    growth_rate: float | None
    growth_window: tuple | None
    mass_drift: float
    momentum_drift: float
    energy_drift: float
    escaped: bool
    ledger: ConservedLedger
    flags: dict = dc_field(default_factory=dict)


@dataclass
class ExperimentReport:
    kind: str
    model: dict
    wave: dict
    theta0: float
    reference_rate: float
    lambda0: float
    k0: float
    deltas: list
    runs: list
    p: int | None = None
    q: int | None = None
    regression: dict | None = None
    packet: dict | None = None
    passes: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        out["deltas"] = list(self.deltas)
        out["runs"] = [{
            "delta": r.delta,
            "escape_time": r.escape_time,
            "escaped": r.escaped,
            "growth_rate": r.growth_rate,
            "growth_window": list(r.growth_window) if r.growth_window else None,
            "mass_drift": r.mass_drift,
            "momentum_drift": r.momentum_drift,
            "energy_drift": r.energy_drift,
            "flags": r.flags,
        } for r in self.runs]
        return out


def _monitor_run(model: ModelSpec, wave: TravelingWave, u0: PeriodicField,
                 ref: PeriodicField, dt: float, t_max: float,
                 snap_dt: float, theta0: float, escape_metric: str,
                 linearized: bool = False) -> DeltaRun:
    """Evolve u0, recording perturbation norms (relative to ref) until the
    escape threshold is crossed or t_max is reached; raises BlowupError on
    non-finite coefficients."""
    per = max(1, int(round(snap_dt / dt)))
    frozen = lift_wave(wave, u0.q, u0.N) if linearized else None
    ev = Evolver(model, wave.c, u0.q, u0.N, dt, linearized=linearized,
                 wave_profile=frozen)
    times, perts, orbs = [], [], []
    ledger = ConservedLedger()
    escape_time = None

    def observe(t, rows):
        nonlocal escape_time
        f = rows_field(u0.q, u0.N, rows, u0.real)
        diff = f - ref
        pert = l2_norm(diff)
        if escape_metric == "orbital":
            dist, _ = orbital_distance(f, wave.profile)
        else:
            dist = pert
        if theta0 > 0 and dist >= theta0:
            escape_time = t
            if times and orbs[-1] < dist:     # interpolate in the last interval
                lo_t, lo_d = times[-1], orbs[-1]
                escape_time = lo_t + (theta0 - lo_d) / (dist - lo_d) * (t - lo_t)
        times.append(t)
        perts.append(pert)
        orbs.append(dist)
        if not linearized:
            m, p, e = conserved_quantities(model, f, wave.c)
            ledger.append(t, m, p, e)
        return escape_time is not None

    rows = field_rows(u0, ev)
    if not observe(0.0, rows):
        advance(ev, rows, int(np.ceil(t_max / dt)), per, observe)
    if theta0 == 0.0:
        escape_time = 0.0

    def peak(drift):
        return float(np.max(np.abs(drift))) if len(drift) else 0.0

    return DeltaRun(
        delta=np.nan, times=np.array(times), pert_norm=np.array(perts),
        orbital=np.array(orbs), escape_time=escape_time, growth_rate=None,
        growth_window=None, mass_drift=peak(ledger.mass_drift()),
        momentum_drift=peak(ledger.momentum_drift()),
        energy_drift=peak(ledger.energy_drift()),
        escaped=escape_time is not None, ledger=ledger)


def _fit_growth(run: DeltaRun, lo: float, hi: float):
    """Exponential-rate fit of the perturbation norm over [lo, hi]."""
    mask = (run.pert_norm >= lo) & (run.pert_norm <= hi)
    if int(np.sum(mask)) < 5:
        return None, None
    t = run.times[mask]
    y = np.log(run.pert_norm[mask])
    rate = float(np.polyfit(t, y, 1)[0])
    return rate, (float(t[0]), float(t[-1]))


def _linregress(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _escape_runs(model: ModelSpec, wave: TravelingWave, u1: PeriodicField,
                 uc_big: PeriodicField, deltas, theta0: float, rate: float,
                 dt: float, snap_dt: float, t_max: float | None,
                 escape_metric: str):
    """Nonlinear runs from uc_big + delta * u1 for each delta, then the
    regression of the escape times on |ln delta| (None below two escapes)."""
    runs = []
    for d in deltas:
        if t_max is None:
            t_pred = np.log(max(theta0 / d, 10.0)) / rate
            run_tmax = 1.6 * t_pred + 50.0 / rate
        else:
            run_tmax = t_max
        run = _monitor_run(model, wave, uc_big + d * u1, uc_big, dt, run_tmax,
                           snap_dt, theta0, escape_metric)
        run.delta = d
        run.growth_rate, run.growth_window = _fit_growth(run, 3 * d, theta0 / 3.0)
        if not run.escaped:
            run.flags["incomplete_escape"] = True
        runs.append(run)

    escaped = [r for r in runs if r.escaped]
    regression = None
    if len(escaped) >= 2:
        x = np.array([abs(np.log(r.delta)) for r in escaped])
        y = np.array([r.escape_time for r in escaped])
        slope, intercept, r2 = _linregress(x, y)
        regression = {"slope": slope, "intercept": intercept, "r2": r2,
                      "slope_times_rate": slope * rate}
    return runs, regression


def _pick_rational_k0(spectrum: BlochSpectrum, curve: GrowthCurve,
                      q_max: int) -> tuple:
    """Rational k0 = p/q inside the unstable band, sacrificing at most ~20%
    of the growth rate; tolerance widens until a representable point exists."""
    tol = float(np.sqrt(0.2 * spectrum.lambda0 / curve.a_fit)) \
        if curve.l == 2 else (0.2 * spectrum.lambda0 / curve.a_fit) ** (1.0 / curve.l)
    band = spectrum.band_containing_k0()
    if band is not None:
        tol = min(tol, spectrum.k0 - band[0], band[1] - spectrum.k0)
    tol = max(tol, 1e-6)
    for _ in range(12):
        try:
            return rational_k0(spectrum.k0, q_max, tol)
        except RationalApproximationError:
            tol *= 1.6
    raise RationalApproximationError(
        f"no usable rational near k0 = {spectrum.k0} with q <= {q_max}")


# -- multi-periodic experiment -----------------------------------------------------


def eigenfunction_seed(model: ModelSpec, wave: TravelingWave,
                       spectrum: BlochSpectrum, q_max: int, N_op: int,
                       N_ev: int):
    """Unit-L2 real perturbation 2 Re(e^{i k0 z} v) on T_{2 pi q}, with v the
    unstable eigenfunction at a rational k0 = p/q near the band maximum.

    Returns (p, q, lam, u1); u1 carries q * N_ev modes.
    """
    p, q = _pick_rational_k0(spectrum, fit_band(spectrum), q_max)
    lam, v = unstable_eigenfunction(model, wave, p / q, N_op)
    N_big = q * N_ev
    w_lift = _lift_eigenfunction(resample(v, N_ev), p, q, N_big)
    u1 = PeriodicField(q, N_big, w_lift + np.conj(w_lift[::-1]), real=True)
    return p, q, lam, u1 * (1.0 / l2_norm(u1))


def run_multiperiodic(model: ModelSpec, wave: TravelingWave,
                      spectrum: BlochSpectrum, deltas, theta0: float | None = None,
                      q_max: int = 8, N_op: int | None = None,
                      N_ev: int | None = None, dt: float | None = None,
                      snap_dt: float | None = None,
                      t_max: float | None = None) -> ExperimentReport:
    """Escape-time experiment for eigenfunction-seeded periodic perturbations."""
    deltas = list(deltas)
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise DomainError("delta list must be strictly decreasing")
    if spectrum.lambda0 <= spectrum.threshold:
        raise DomainError("the wave is spectrally stable; nothing to escape from")
    N_op = N_op or wave.profile.N
    p, q, lam, u1 = eigenfunction_seed(model, wave, spectrum, q_max, N_op,
                                       N_ev or min(N_op, 96))
    rate = float(lam.real)
    uc_big = lift_wave(wave, q, u1.N)
    if theta0 is None:
        theta0 = DEFAULT_THETA_FRACTION * l2_norm(uc_big)

    if dt is None:
        dt = stable_dt(model, q, u1.N,
                       u_inf=2.0 * max(abs(wave.amplitude), 0.05))
    if snap_dt is None:
        snap_dt = max(0.05 / rate, 20 * dt)
    runs, regression = _escape_runs(model, wave, u1, uc_big, deltas, theta0,
                                    rate, dt, snap_dt, t_max, "orbital")

    report = ExperimentReport(
        kind="multiperiodic", model=model_to_dict(model),
        wave={"amplitude": wave.amplitude, "c": wave.c, "residual": wave.residual},
        theta0=float(theta0), reference_rate=rate, lambda0=spectrum.lambda0,
        k0=p / q, deltas=deltas, runs=runs, p=p, q=q, regression=regression)
    report.passes = _multiperiodic_passes(report)
    return report


def _multiperiodic_passes(report: ExperimentReport) -> dict:
    out = {}
    esc = [(r.delta, r.escape_time) for r in report.runs if r.escaped]
    out["escape_monotone"] = all(t2 > t1 for (_, t1), (_, t2)
                                 in zip(esc, esc[1:]))
    rates = [r.growth_rate for r in report.runs if r.growth_rate is not None]
    out["rates_within_5pct"] = bool(rates) and all(
        abs(rt - report.reference_rate) <= 0.05 * report.reference_rate
        for rt in rates)
    if report.regression is not None:
        out["slope_within_10pct"] = abs(
            report.regression["slope_times_rate"] - 1.0) <= 0.10
        out["r2_at_least_0.99"] = report.regression["r2"] >= 0.99
    return out


# -- localized (wave packet) experiment -----------------------------------------------


def build_band_packet(model: ModelSpec, wave: TravelingWave,
                      spectrum: BlochSpectrum, curve: GrowthCurve, Q: int,
                      n_nodes: int | None = None, N_op: int | None = None):
    """Packet of unstable eigenfunctions on the cell-midpoint lattice j/Q.

    The band ends at the lattice point nearest the most unstable k0 (folded
    into [0, 1/2]); the width follows the quasi-quadratic cap
    Re lambda(k0 - eta) >= 0.9 lambda0 but is floored at 10 nodes so the
    quadrature can see the band, and clipped to the unstable band itself.
    """
    N_op = N_op or wave.profile.N
    k0 = curve.k0 if curve.k0 <= 0.5 else 1.0 - curve.k0
    eta_cap = (0.1 * spectrum.lambda0 / curve.a_fit) ** (1.0 / curve.l)
    if n_nodes is None:
        # the quasi-quadratic cap Re lambda >= 0.9 lambda0 rarely leaves
        # enough lattice nodes to resolve the band integral; floor at 10
        # nodes (clipped to the band below) so the algebraic decay is visible
        n_nodes = max(10, int(round(eta_cap * Q)))
    band = None
    for lo, hi in spectrum.bands:
        if lo - 1e-9 <= k0 <= hi + 1e-9:
            band = (lo, hi)
    if band is None:
        mirrored = [(1.0 - hi, 1.0 - lo) for lo, hi in spectrum.bands]
        for lo, hi in mirrored:
            if lo - 1e-9 <= k0 <= hi + 1e-9:
                band = (lo, hi)
    if band is None:
        raise DomainError("k0 does not sit inside a detected unstable band")
    j_hi = int(round(k0 * Q))
    j_lo_band = int(np.floor(band[0] * Q)) + 1
    n_nodes = min(n_nodes, j_hi - j_lo_band + 1)
    if n_nodes < 1:
        raise DomainTooSmallError(
            f"band too narrow for the lattice 1/{Q}; increase Q",
            suggested_Q=int(np.ceil(4.0 / max(k0 - band[0], 1e-6))))
    packet = midpoint_band_nodes(k0, n_nodes, Q)
    packet.check()
    rates = []
    freqs = []
    for k_j in packet.nodes:
        lam, v = unstable_eigenfunction(model, wave, float(k_j), N_op)
        packet.profiles.append(resample(v, PACKET_PROFILE_N))
        rates.append(lam)
        freqs.append(float(k_j))
    return packet, np.array(rates), np.array(freqs)


def packet_domain_check(packet, rates, Q: int, t_end: float):
    """Envelope-separation guard: initial width ~ 2 pi / |I| plus ballistic
    spreading from the group-velocity scatter must stay under a fifth of
    the torus."""
    width0 = 2.0 * np.pi / max(packet.width(), 1e-9)
    if len(rates) >= 2:
        dims = np.diff(rates.imag)
        dks = np.diff(packet.nodes)
        cg_spread = float(np.max(np.abs(dims / dks))) if len(dims) else 0.0
    else:
        cg_spread = 0.0
    width_t = width0 + cg_spread * t_end
    torus = 2.0 * np.pi * Q
    if 5.0 * width_t > torus:
        raise DomainTooSmallError(
            f"packet envelope ({width_t:.1f}) exceeds a fifth of the torus "
            f"({torus:.1f}) by t = {t_end:.0f}",
            suggested_Q=int(np.ceil(5.0 * width_t / (2.0 * np.pi))))
    return width_t


def run_localized(model: ModelSpec, wave: TravelingWave,
                  spectrum: BlochSpectrum, curve: GrowthCurve, Q: int, deltas,
                  theta0: float | None = None, n_nodes: int | None = None,
                  N_op: int | None = None, dt: float | None = None,
                  enforce_envelope: bool = True) -> ExperimentReport:
    """Wave-packet instability: linear packet-law fit plus nonlinear escape.

    The linear phase is exact Bloch-fiber dynamics on the torus, so the
    envelope-separation guard applies only to the nonlinear escape runs;
    ``enforce_envelope=False`` runs them anyway (accepting periodization
    error) instead of raising with a suggested Q.
    """
    deltas = list(deltas)
    packet, rates, freqs = build_band_packet(model, wave, spectrum, curve, Q,
                                             n_nodes=n_nodes, N_op=N_op)
    u1 = synthesize_packet(packet, Q)
    u1 = u1 * (1.0 / l2_norm(u1))
    N_big = u1.N
    uc_big = lift_wave(wave, Q, N_big)
    if theta0 is None:
        theta0 = DEFAULT_THETA_FRACTION * l2_norm(uc_big)
    lambda0 = spectrum.lambda0

    # fit window: the band must be resolved (Gaussian narrower than the
    # band) but still wider than the node spacing
    eta = packet.width()
    a_fit = curve.a_fit
    t1 = 1.5 / (a_fit * eta ** curve.l)
    t2 = (Q / 3.0) ** curve.l / a_fit
    t_linear = 1.05 * t2

    env_t_end = 0.0
    if deltas:
        d_min = min(deltas)
        env_t_end = 1.6 * np.log(max(theta0 / d_min, 10.0)) / lambda0
    if enforce_envelope and deltas:
        packet_width = packet_domain_check(packet, rates, Q, env_t_end)
    else:
        packet_width = 2.0 * np.pi / max(packet.width(), 1e-9)

    if dt is None:
        dt = stable_dt(model, Q, N_big,
                       u_inf=2.0 * max(abs(wave.amplitude), 0.05))
    # frozen-coefficient dynamics has no transport CFL; only the bounded
    # coupling |i xi f'(u_c)| at the active (low) modes limits accuracy
    dt_lin = min(8.0 * dt, 0.25) if model.family == "kdv_type" else dt
    snap_dt = max(t_linear / 400.0, dt_lin)

    zero_ref = uc_big * 0.0
    lin = _monitor_run(model, wave, u1, zero_ref, dt_lin, t_linear, snap_dt,
                       theta0=0.0, escape_metric="plain", linearized=True)
    mask = (lin.times >= t1) & (lin.times <= t2)
    if int(np.sum(mask)) < 8:
        mask = lin.times >= 0.5 * t1
    tt = lin.times[mask]
    yy = np.log(lin.pert_norm[mask])
    X = np.column_stack([np.ones_like(tt), tt, -np.log1p(tt)])
    coef, *_ = np.linalg.lstsq(X, yy, rcond=None)
    lam_fit, beta_joint = float(coef[1]), float(coef[2])
    # the discrete packet's asymptotic rate is the best lattice node, so
    # the algebraic-factor fit subtracts that rather than the band maximum
    lam_lattice = float(np.max(rates.real))
    resid = yy - lam_lattice * tt
    Xb = np.column_stack([np.ones_like(tt), -np.log1p(tt)])
    coefb, *_ = np.linalg.lstsq(Xb, resid, rcond=None)
    beta_norm = float(coefb[1])
    # the band integral gives ||U1||^2 ~ e^{2 lambda0 t} (1+t)^{-1/l}, so the
    # algebraic exponent of the squared norm (2 beta) is the one to compare
    # against 1/l
    inv_l_fit = 2.0 * beta_norm

    packet_info = {
        "Q": Q, "nodes": [float(k) for k in freqs],
        "node_rates": [float(r.real) for r in rates],
        "band": [packet.k_lo, packet.k_hi],
        "l": curve.l, "a_fit": curve.a_fit,
        "fit_window": [float(t1), float(t2)],
        "lambda_fit": lam_fit,
        "lambda_lattice": lam_lattice,
        "beta_norm": beta_norm,
        "beta_joint": beta_joint,
        "inv_l_fit": inv_l_fit,
        "inv_l_expected": 1.0 / curve.l,
        "envelope_width": float(packet_width),
    }

    runs, regression = _escape_runs(model, wave, u1, uc_big, deltas, theta0,
                                    lambda0, dt, max(0.05 / lambda0, 20 * dt),
                                    None, "plain")

    report = ExperimentReport(
        kind="localized", model=model_to_dict(model),
        wave={"amplitude": wave.amplitude, "c": wave.c, "residual": wave.residual},
        theta0=float(theta0), reference_rate=lambda0, lambda0=lambda0,
        k0=float(freqs[-1]), deltas=deltas, runs=runs,
        regression=regression, packet=packet_info)
    report.passes = {
        "inv_l_within_20pct": abs(inv_l_fit - 1.0 / curve.l) <= 0.2 / curve.l,
        "lambda_within_5pct": abs(lam_fit - lambda0) <= 0.05 * lambda0,
    }
    return report


# -- threshold sweeps ------------------------------------------------------------------


@dataclass
class SweepResult:
    family: str
    parameter: str
    amplitude: float
    points: list                 # (value, lambda0, verdict)
    boundary: float | None
    bracket: tuple | None
    history: list = dc_field(default_factory=list)

    def to_dict(self):
        return {
            "family": self.family, "parameter": self.parameter,
            "amplitude": self.amplitude,
            "points": [[v, lam, s] for v, lam, s in self.points],
            "boundary": self.boundary,
            "bracket": list(self.bracket) if self.bracket else None,
            "history": self.history,
        }


@dataclass(frozen=True)
class SweepFamily:
    """How one model family is swept: ``build(value, m_exp)`` is the model
    at a swept value, the default mean level is b = ``b_per_a`` * a, and
    ``full_scan`` adds a full Bloch scan to the low-k ladder.

    Fractional sweeps use b = 5a, where the long-wave index is
    non-degenerate (b = 0 degenerates f''(mean) for non-integer p).  Only
    the bounded BBM operators keep a full scan above its round-off floor;
    the kdv-family sideband index lives at k -> 0 anyway.
    """

    parameter: str
    build: Callable[[float, float], ModelSpec]
    b_per_a: float
    full_scan: bool


SWEEP_FAMILIES = {
    "bbm": SweepFamily("m", lambda v, m_exp: ModelSpec(
        "bbm", SymbolSpec("bbm_linear"), NonlinearitySpec("quadratic"),
        kappa=v), 0.0, True),
    "fractional": SweepFamily("p", lambda v, m_exp: ModelSpec(
        "kdv_type", SymbolSpec("fractional", m=m_exp),
        NonlinearitySpec("minus_power", p=v)), 5.0, False),
}


# long-wave onset bands shrink toward k = 0 faster than any affordable
# uniform grid; the sweep augments the scan with this fixed ladder
_LOWK_LADDER = (5e-4, 1e-3, 2e-3, 3.5e-3, 5e-3, 7e-3, 1e-2, 1.5e-2,
                2e-2, 3e-2, 4.5e-2)


def _sweep_lambda0(fam: SweepFamily, value: float, m_exp: float, a: float,
                   N: int, k_count: int, b: float):
    """Growth rate of the small-amplitude wave at one sweep point."""
    model = fam.build(value, m_exp)
    seed = small_amplitude_wave(model, a=a, b=b, N=N)
    if b == 0.0:
        wave = refine_newton(model, seed, fix_amplitude=a,
                             fix_a_const=seed.a_const)
    else:
        wave = refine_newton(model, seed, fix_amplitude=a, fix_mean=b)
    lam0 = 0.0
    for k in _LOWK_LADDER:
        vals = bloch_eigvals(assemble_bloch(model, wave, k, N))
        lam0 = max(lam0, float(np.max(vals.real)))
    if fam.full_scan:
        sp = scan_bloch(model, wave, k_count=k_count, N=N)
        lam0 = max(lam0, sp.lambda0)
    return lam0


def threshold_sweep(family: str, grid, a: float = 0.02, m_exp: float = 2.0,
                    N: int = 128, k_count: int = 64,
                    threshold: float = UNSTABLE_THRESHOLD,
                    bisect_tol: float = 5e-3, max_bisect: int = 12,
                    b: float | None = None) -> SweepResult:
    """Mark grid points stable/unstable at small amplitude and bisect the
    boundary in the swept parameter of ``SWEEP_FAMILIES[family]`` (m for
    bbm, p for fractional).  The mean level b defaults to the family's
    ``b_per_a`` times a.  An unknown family raises DomainError before any
    point is solved.
    """
    fam = SWEEP_FAMILIES.get(family)
    if fam is None:
        raise DomainError(f"unknown sweep family {family!r}")
    if b is None:
        b = fam.b_per_a * a

    def classify(v):
        try:
            lam0 = _sweep_lambda0(fam, v, m_exp, a, N, k_count, b)
        except ModulonError:
            return float("nan"), "indeterminate"
        return lam0, "unstable" if lam0 > threshold else "stable"

    points = [(float(v), *classify(float(v))) for v in grid]
    bracket = None
    for (v1, _, s1), (v2, _, s2) in zip(points, points[1:]):
        if {s1, s2} == {"stable", "unstable"}:
            bracket = (v1, v2) if s1 == "stable" else (v2, v1)
            break
    history = []
    boundary = None
    if bracket is not None:
        lo, hi = bracket              # lo stable, hi unstable
        for _ in range(max_bisect):
            if abs(hi - lo) <= bisect_tol:
                break
            mid = 0.5 * (lo + hi)
            lam0, verdict = classify(mid)
            if verdict == "indeterminate":
                history.append([mid, None, verdict])
                break
            history.append([mid, lam0, verdict])
            if verdict == "unstable":
                hi = mid
            else:
                lo = mid
        boundary = 0.5 * (lo + hi)
        bracket = (lo, hi)
    return SweepResult(family=family, parameter=fam.parameter, amplitude=a,
                       points=points, boundary=boundary, bracket=bracket,
                       history=history)


# -- persistence -------------------------------------------------------------------------


def save_report(report: ExperimentReport, path):
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)


def export_run_csv(report: ExperimentReport, run: DeltaRun, path,
                   header: str = ""):
    """Per-run time series: t, l2_perturbation, orbital_distance, after an
    optional ``header`` line block."""
    write_csv(path, header, ("t", "l2_perturbation", "orbital_distance"),
              zip(run.times, run.pert_norm, run.orbital))
