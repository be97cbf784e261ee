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
(not orbital) L2 distance.  The linear phase is propagated exactly, fiber
by fiber (``semigroup.fiber_norms``): one expm per occupied conjugate pair
of Bloch fibers, chained over an even time grid.

The nonlinear runs of both kinds are observed every per = round(snap_dt /
dt) steps of dt, at t_j = j per dt, whatever the step.  An experiment
chooses its stepper once, for all of its deltas, and passes that plan to
each run (``plan_steps``, ``StepPlan``): a pilot
steps one observation interval from u_c + theta0 u1 with the fiber-split
stepper (``evolve.SplitEvolver``, which steps w = u - u_c) and keeps the
coarsest tried step whose energy drift stays within ``PILOT_DRIFT_BUDGET``
and whose w stays within ``PILOT_ERROR_BUDGET`` of the w at half the step;
only the step it keeps is stepped at half the step.  A run on a split plan
then steps each interval on a ladder of 2^j times coarser steps while its
perturbation is small: the pilot's error, scaled by the h^4 ||w|| law the
escape wave measured, must stay within the error budget, and a coarse
interval's energy change within ``COARSE_DRIFT_BUDGET``, or the interval is
redone finer.  Without a pilot (``modulon evolve``), or when no split step
coarser than dt passes, the runs step dt split at the zero field, where A
is J E.  Each run (``DeltaRun``) records its observations and conserved
quantities as arrays, and its step, the steps of its accepted intervals,
the intervals it redid and the pilot's h against h/2 error.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field, fields as dc_fields

import numpy as np

from ._blas import serial
from .bloch import (BlochSpectrum, GrowthCurve, assemble_bloch, bloch_eigvals,
                    fit_band, rational_k0, scan_bloch, unstable_eigenfunction,
                    UNSTABLE_THRESHOLD)
from .errors import (BlowupError, DomainError, DomainTooSmallError,
                     ModulonError, RationalApproximationError)
from .evolve import (SPLIT_MAX_ENTRIES, SplitEvolver, _FiberGenerator,
                     _Fibers, advance, conserved_quantities, lift_wave,
                     orbital_distance, relative_drift, stable_dt)
from .fields import PeriodicField, l2_norm, zero_field, \
    midpoint_band_nodes, synthesize_packet, write_csv, _lift_eigenfunction
from .semigroup import fiber_norms
from .symbols import ModelSpec, NonlinearitySpec, SymbolSpec, model_for_symbol
from .waves import TravelingWave, resample, small_amplitude_solution, \
    model_to_dict

DEFAULT_THETA_FRACTION = 0.05
# the escape pilot: one observation interval from u_c + theta0 u1 must keep
# its relative energy drift within the budget, a quarter of the 1e-9 (one
# tenth of criterion 14's bound) that a whole run should keep, because a
# run accumulates 2.5-4x the drift of its last interval
PILOT_DRIFT_BUDGET = 2.5e-10
# ... and its w within this relative L2 distance of the w at half the step,
# which also sees phase and translation errors that conserve the energy.
# Under h -> h/2 the escape time moved by about the pilot's figure (BBM
# escape wave: 6.1e-9 -> 6.7e-9; gKdV p = 3: 9.5e-8 -> 1.3e-7), so the
# budget keeps T_esc well inside 1e-6
PILOT_ERROR_BUDGET = 1e-7
PILOT_FIRST_SPLIT = 20    # the first try's step is 20 dt
PILOT_TRIES = 4
# the step ladder of a run with a pilot: below theta0 an interval may take
# ceil(n / 2^j) steps.  On the escape wave the h vs h/2 error of one
# interval went as h^4 ||w|| (x16-18 a level) and its energy change as h^5
# ||w||^2 or faster: at ||w|| = 0.08 theta0, 4.3e-10 / 1.3e-14 at n = 75,
# 7.0e-9 / 5.1e-13 at 38, 1.2e-7 / 8.5e-12 at 19, 2.1e-6 / 1.6e-10 at 10.
# A fourth level (n / 16) would meet the error law only below
# 2.4e-4 theta0, which no escape delta above 3e-6 starts at
LADDER_DEPTH = 3
# a coarse interval's relative energy change must stay within a tenth of
# the pilot's, so that the tens of coarse intervals of a small-delta run
# add at most a few 1e-10 to the run's drift
COARSE_DRIFT_BUDGET = PILOT_DRIFT_BUDGET / 10
PACKET_PROFILE_N = 48     # modes kept per packet eigenprofile


# -- shared monitoring machinery ------------------------------------------------


@dataclass
class DeltaRun:
    """One perturbation size's run: its observations over ``times`` as
    arrays, and its fits, drift peaks (``relative_drift``) and step counts
    as the scalars a report writes."""

    delta: float
    times: np.ndarray
    pert_norm: np.ndarray
    orbital: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray
    escape_time: float | None
    growth_rate: float | None
    growth_window: tuple | None
    mass_drift: float
    momentum_drift: float
    energy_drift: float
    escaped: bool
    step: float = np.nan
    steps: int = 0
    redone: int = 0
    pilot_error: float | None = None
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
        """The report's fields, and each run's fields but its arrays."""
        out = {f.name: getattr(self, f.name) for f in dc_fields(self)}
        out["runs"] = [{f.name: getattr(r, f.name) for f in dc_fields(r)
                        if not isinstance(getattr(r, f.name), np.ndarray)}
                       for r in self.runs]
        return out


@dataclass
class StepPlan:
    """How the runs of one experiment step: ``ev`` takes ``n`` steps per
    observation interval of ``per`` steps of the observation step ``dt``.
    ``pilot_error`` is the relative L2 distance of the pilot's w at the
    chosen step from its w at half that step (None without a pilot, and
    then every interval takes n steps), and ``theta0`` the L2 size of the
    pilot's w at its start."""

    ev: SplitEvolver
    n: int
    per: int
    dt: float
    pilot_error: float | None = None
    theta0: float = 0.0


def plan_steps(model: ModelSpec, wave: TravelingWave, ref: PeriodicField,
               dt: float, per: int, theta0: float = 0.0,
               u1: PeriodicField | None = None) -> StepPlan:
    """The stepper of the runs from ref + delta u1 observed every per * dt.

    With a direction u1 and theta0 > 0, a pilot (``_pilot``) looks for a
    split step per * dt / n with n < per.  Otherwise (``modulon evolve``),
    where the fiber tables would pass ``SPLIT_MAX_ENTRIES``, or where the
    pilot finds no such n, the steps of dt are split at the zero field: at
    an equal step that costs about half a split at the wave (80 against
    165 us on the escape torus) and builds no dense table.
    """
    fib = _Fibers(ref.q, ref.N)
    size_u1 = 0.0 if u1 is None else l2_norm(u1)
    plan = None
    if (theta0 > 0.0 and size_u1 > 0.0
            and fib.mask.size * fib.size <= SPLIT_MAX_ENTRIES):
        with serial(fib.size):
            gen = _FiberGenerator(model, wave.c, ref)
            plan = _pilot(model, wave.c, gen, ref,
                          ref + u1 * (theta0 / size_u1), dt, per)
    if plan is None:
        gen = _FiberGenerator(model, wave.c, zero_field(ref.q, ref.N))
        plan = StepPlan(SplitEvolver(gen, dt, gen.remainder), per, per, dt)
    return plan


def _pilot(model: ModelSpec, c: float, gen: _FiberGenerator,
           ref: PeriodicField, start: PeriodicField, dt: float,
           per: int) -> StepPlan | None:
    """The split plan whose n < per steps keep one interval of per * dt from
    ``start`` within both pilot budgets, or None.

    A try steps the interval n times, and its relative energy drift must
    stay within ``PILOT_DRIFT_BUDGET``.  The drift goes as h^5 (ROADMAP
    Baseline: n = 20 .. 160), so the next n is n times the drift's ratio to
    its budget to the power 1/5 (a blow-up quadruples n), but not below the
    floor that the last h vs h/2 check set.  Only a try that neither would
    coarsen is checked: its w = u - ref must stay within
    ``PILOT_ERROR_BUDGET``, in relative L2 distance, of the w of 2n steps,
    and n times the error's ratio to its budget to the power 1/4, the order
    of the scheme, becomes the floor.  The first try takes
    ceil(per / ``PILOT_FIRST_SPLIT``) steps, and there are at most
    ``PILOT_TRIES``.  The smallest n within both budgets wins: a try within
    the drift budget, finer than every try that failed its check, is
    checked from its kept w if the tries left it unchecked.  The tries
    retabulate one stepper.
    """
    if per < 2:
        return None
    T_obs = per * dt
    e0 = conserved_quantities(model, start, c)[2]
    n = -(-per // PILOT_FIRST_SPLIT)
    ev = SplitEvolver(gen, T_obs / n, gen.remainder)

    def end(m):
        """w after m steps over the interval, None on a blow-up."""
        ev.tabulate(T_obs / m)
        try:
            rows = advance(ev, ev.rows(start), m, m, lambda t, rows: False)
        except BlowupError:
            return None
        return ev.field(rows) - ref

    tried = {}       # n -> [drift ratio to its budget, w, h vs h/2 error]

    def error(m):
        """The h vs h/2 error of the try m, stepping 2m only once."""
        if tried[m][2] is None:
            fine = end(2 * m)
            tried[m][2] = np.inf if fine is None else \
                l2_norm(tried[m][1] - fine) / max(l2_norm(fine), 1e-300)
        return tried[m][2]

    def rescaled(m, ratio, order):
        if not np.isfinite(ratio):
            return 4 * m
        return int(np.ceil(m * ratio ** (1.0 / order)))

    floor = 1        # the n that the last h vs h/2 check asks for
    for _ in range(PILOT_TRIES):
        w, ratio = end(n), np.inf
        if w is not None:
            ratio = abs(conserved_quantities(model, ref + w, c)[2] - e0) \
                / max(abs(e0), 1e-30) / PILOT_DRIFT_BUDGET
        tried[n] = [ratio, w, None]
        coarse = rescaled(n, ratio, 5)
        if ratio <= 1.0 and max(coarse, floor) >= n:
            floor = rescaled(n, error(n) / PILOT_ERROR_BUDGET, 4)
        nxt = min(max(coarse, floor, 1), per - 1)
        if nxt == n or nxt in tried:
            break
        n = nxt
    failed = max((m for m, (_, _, err) in tried.items()
                  if err is not None and err > PILOT_ERROR_BUDGET), default=0)
    for n in sorted(tried):
        if n > failed and tried[n][0] <= 1.0 and error(n) <= PILOT_ERROR_BUDGET:
            ev.tabulate(T_obs / n)
            return StepPlan(ev, n, per, dt, tried[n][2],
                            l2_norm(start - ref))
    return None


def _monitor_run(model: ModelSpec, wave: TravelingWave, u0: PeriodicField,
                 ref: PeriodicField, t_max: float, theta0: float,
                 escape_metric: str, plan: StepPlan) -> DeltaRun:
    """Evolve u0 on ``plan`` (``plan_steps``), recording the L2 distance
    from ref, the escape distance and the conserved quantities until escape
    or t_max; raises BlowupError on non-finite coefficients.

    Observations fall every per steps of the plan's dt, at t_j = j per dt,
    and the run ends at ceil(t_max / dt) dt.  The plan takes n steps per
    interval; a last partial interval that n does not divide takes its own
    step.  BLAS is pinned by the stepper's row length (``_blas.serial``);
    a zero base's elementwise step makes no BLAS call.  A plan with a
    pilot error steps each interval on the coarsest level j of the ladder
    ceil(n / 2^j), j <= ``LADDER_DEPTH``, that the error law

        pilot_error * 16^j * ||w|| / theta0_pilot <= PILOT_ERROR_BUDGET

    allows at the interval's start (the h^4 ||w|| law of the ROADMAP
    Baseline).  An interval on a coarse level whose relative energy change
    exceeds ``COARSE_DRIFT_BUDGET`` is redone one level finer, and the run
    then never coarsens again.  The plan's stepper is retabulated for a
    level and restored to its step on return.
    """
    ev, n, per, dt = plan.ev, plan.n, plan.per, plan.dt
    step = ev.dt
    times, perts, orbs, conserved = [], [], [], []
    escape_time = None
    steps = redone = 0

    def measure(rows):
        f = ev.field(rows)
        return f, conserved_quantities(model, f, wave.c)

    def observe(t, f, quantities):
        nonlocal escape_time
        pert = l2_norm(f - ref)
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
        conserved.append(quantities)
        return escape_time is not None

    def interval(rows, m, t0, h):
        ev.tabulate(h)
        return advance(ev, rows, m, m, lambda t, rows: False, t0=t0)

    ladder = [n]        # n_j = ceil(n / 2^j) while it still shrinks
    if plan.pilot_error is not None:
        while len(ladder) <= LADDER_DEPTH and ladder[-1] > 1:
            ladder.append(-(-n // 2 ** len(ladder)))
    cap = len(ladder) - 1
    rows = ev.rows(u0)
    done = observe(0.0, *measure(rows))
    full, rest = divmod(int(np.ceil(t_max / dt)), per)
    with serial(ev.gen.fib.size):
        try:
            for i in range(full):
                if done:
                    break
                level = cap
                while level and (plan.pilot_error * 16 ** level * perts[-1]
                                 > PILOT_ERROR_BUDGET * plan.theta0):
                    level -= 1
                start, e0 = rows, conserved[-1][2]
                while True:
                    m = ladder[level]
                    rows = interval(start, m, i * n * step,
                                    per * dt / m if level else step)
                    f, quantities = measure(rows)
                    if level == 0 or abs(quantities[2] - e0) \
                            <= COARSE_DRIFT_BUDGET * max(abs(e0), 1e-30):
                        break
                    redone += 1
                    cap = level = level - 1
                steps += m
                done = observe((i + 1) * n * step, f, quantities)
            if rest and not done:
                m = -(-rest * n // per)
                t0 = full * per * dt
                rows = interval(rows, m, t0,
                                step if m * per == rest * n else rest * dt / m)
                steps += m
                observe(t0 + m * ev.dt, *measure(rows))
        finally:
            ev.tabulate(step)
    if theta0 == 0.0:
        escape_time = 0.0

    mass, momentum, energy = np.array(conserved).T.copy()

    def peak(series, floor=1e-30):
        return float(np.max(np.abs(relative_drift(series, floor))))

    return DeltaRun(
        delta=np.nan, times=np.array(times), pert_norm=np.array(perts),
        orbital=np.array(orbs), mass=mass, momentum=momentum, energy=energy,
        escape_time=escape_time, growth_rate=None, growth_window=None,
        mass_drift=peak(mass, 1.0), momentum_drift=peak(momentum),
        energy_drift=peak(energy), escaped=escape_time is not None,
        step=step, steps=steps, redone=redone, pilot_error=plan.pilot_error)


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


def check_deltas(deltas) -> list:
    """The deltas as a list; DomainError unless they strictly decrease."""
    deltas = list(deltas)
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise DomainError("delta list must be strictly decreasing")
    return deltas


def _escape_reference(wave: TravelingWave, u1: PeriodicField,
                      theta0: float | None):
    """u_c lifted to the torus of u1, and theta0, by default
    ``DEFAULT_THETA_FRACTION`` ||u_c|| there."""
    uc_big = lift_wave(wave, u1.q, u1.N)
    return uc_big, float(DEFAULT_THETA_FRACTION * l2_norm(uc_big)
                         if theta0 is None else theta0)


def _escape_runs(kind: str, model: ModelSpec, wave: TravelingWave,
                 u1: PeriodicField, uc_big: PeriodicField, deltas: list,
                 theta0: float, rate: float, t_max: float | None,
                 escape_metric: str, **head) -> ExperimentReport:
    """The report of an experiment of either kind: its runs from
    uc_big + delta * u1 for each delta, and the regression of the escape
    times on |ln delta| (None below two escapes).  The runs step
    ``stable_dt`` for |u| up to twice the wave's amplitude (at least 0.1),
    are observed every max(0.05 / rate, 20 dt) on one step plan, and end
    at t_max, by default 1.6 times the |ln delta| prediction of the escape
    time plus 50 / rate.  ``head`` holds the driver's own fields."""
    runs, regression = [], None
    if deltas:
        dt = stable_dt(model, u1.q, u1.N,
                       u_inf=2.0 * max(abs(wave.amplitude), 0.05))
        snap_dt = max(0.05 / rate, 20 * dt)
        plan = plan_steps(model, wave, uc_big, dt,
                          max(1, int(round(snap_dt / dt))), theta0, u1)
    for d in deltas:
        run_tmax = t_max if t_max is not None else \
            1.6 * (np.log(max(theta0 / d, 10.0)) / rate) + 50.0 / rate
        run = _monitor_run(model, wave, uc_big + d * u1, uc_big, run_tmax,
                           theta0, escape_metric, plan)
        run.delta = d
        run.growth_rate, run.growth_window = _fit_growth(run, 3 * d, theta0 / 3.0)
        if not run.escaped:
            run.flags["incomplete_escape"] = True
        runs.append(run)

    escaped = [r for r in runs if r.escaped]
    if len(escaped) >= 2:
        x = np.array([abs(np.log(r.delta)) for r in escaped])
        y = np.array([r.escape_time for r in escaped])
        slope, intercept, r2 = _linregress(x, y)
        regression = {"slope": slope, "intercept": intercept, "r2": r2,
                      "slope_times_rate": slope * rate}
    return ExperimentReport(
        kind=kind, model=model_to_dict(model),
        wave={"amplitude": wave.amplitude, "c": wave.c, "residual": wave.residual},
        theta0=theta0, reference_rate=rate, deltas=deltas, runs=runs,
        regression=regression, **head)


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
                      N_ev: int | None = None,
                      t_max: float | None = None) -> ExperimentReport:
    """Escape-time experiment for eigenfunction-seeded periodic perturbations.

    The deltas must strictly decrease (``check_deltas``); the runs escape in
    the orbital distance and are set up by ``_escape_runs``, at the rate
    Re lambda of the rational k0 = p/q.  ``t_max`` caps each escape run.
    """
    deltas = check_deltas(deltas)
    if spectrum.lambda0 <= spectrum.threshold:
        raise DomainError("the wave is spectrally stable; nothing to escape from")
    N_op = N_op or wave.profile.N
    p, q, lam, u1 = eigenfunction_seed(model, wave, spectrum, q_max, N_op,
                                       N_ev or min(N_op, 96))
    uc_big, theta0 = _escape_reference(wave, u1, theta0)
    report = _escape_runs("multiperiodic", model, wave, u1, uc_big, deltas,
                          theta0, float(lam.real), t_max, "orbital",
                          lambda0=spectrum.lambda0, k0=p / q, p=p, q=q)
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
    for lo, hi in spectrum.bands:    # a scan mirrors each band to 1 - k
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
                  N_op: int | None = None, t_max: float | None = None,
                  enforce_envelope: bool = True) -> ExperimentReport:
    """Wave-packet instability: linear packet-law fit plus nonlinear escape.

    The deltas must strictly decrease (``check_deltas``).  The linear phase
    is exact Bloch-fiber dynamics on the torus: the packet's norms come
    from ``fiber_norms``, one expm per occupied conjugate pair of fibers, at
    401 even times up to t_linear.  So the envelope-separation guard
    applies only to the nonlinear escape runs, up to 1.6 times the |ln
    delta| prediction of the smallest delta's escape time;
    ``enforce_envelope=False`` runs them anyway (accepting periodization
    error) instead of raising with a suggested Q.  The escape runs, in the
    plain L2 distance at the rate lambda0, are set up by ``_escape_runs``;
    ``t_max`` caps each of them.
    """
    deltas = check_deltas(deltas)
    packet, rates, freqs = build_band_packet(model, wave, spectrum, curve, Q,
                                             n_nodes=n_nodes, N_op=N_op)
    u1 = synthesize_packet(packet, Q)
    u1 = u1 * (1.0 / l2_norm(u1))
    uc_big, theta0 = _escape_reference(wave, u1, theta0)
    lambda0 = spectrum.lambda0

    # fit window: the band must be resolved (Gaussian narrower than the
    # band) but still wider than the node spacing
    eta = packet.width()
    a_fit = curve.a_fit
    t1 = 1.5 / (a_fit * eta ** curve.l)
    t2 = (Q / 3.0) ** curve.l / a_fit
    t_linear = 1.05 * t2

    if enforce_envelope and deltas:
        t_end = 1.6 * np.log(max(theta0 / deltas[-1], 10.0)) / lambda0
        packet_width = packet_domain_check(packet, rates, Q, t_end)
    else:
        packet_width = 2.0 * np.pi / max(packet.width(), 1e-9)

    # the linear phase is exact, so its observation grid needs no step
    h_linear = t_linear / 400
    norms = fiber_norms(model, wave, u1, h_linear, 400)
    times = h_linear * np.arange(401)
    mask = (times >= t1) & (times <= t2)
    if int(np.sum(mask)) < 8:
        mask = times >= 0.5 * t1
    tt = times[mask]
    yy = np.log(norms[mask])
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

    report = _escape_runs("localized", model, wave, u1, uc_big, deltas,
                          theta0, lambda0, t_max, "plain", lambda0=lambda0,
                          k0=float(freqs[-1]), packet=packet_info)
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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


@dataclass(frozen=True)
class SweepFamily:
    """How one model family is swept: ``build(value, m_exp)`` is the model
    at a swept value, the mean level is b = ``b_per_a`` * a, and
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
    "bbm": SweepFamily("m", lambda v, m_exp: model_for_symbol(
        SymbolSpec("bbm_linear"), kappa=v), 0.0, True),
    "fractional": SweepFamily("p", lambda v, m_exp: model_for_symbol(
        SymbolSpec("fractional", m=m_exp),
        NonlinearitySpec("minus_power", p=v)), 5.0, False),
}


# long-wave onset bands shrink toward k = 0 faster than any affordable
# uniform grid; the sweep augments the scan with this fixed ladder
_LOWK_LADDER = (5e-4, 1e-3, 2e-3, 3.5e-3, 5e-3, 7e-3, 1e-2, 1.5e-2,
                2e-2, 3e-2, 4.5e-2)


def _sweep_lambda0(fam: SweepFamily, value: float, m_exp: float, a: float,
                   N: int, k_count: int):
    """Growth rate of the small-amplitude wave at one sweep point."""
    model = fam.build(value, m_exp)
    with serial(N + 1):
        wave = small_amplitude_solution(model, a, fam.b_per_a * a, N)
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
                    bisect_tol: float = 5e-3,
                    max_bisect: int = 12) -> SweepResult:
    """Mark grid points stable/unstable at small amplitude and bisect the
    boundary in the swept parameter of ``SWEEP_FAMILIES[family]`` (m for
    bbm, p for fractional).  A point is unstable when its growth rate
    exceeds ``UNSTABLE_THRESHOLD``; its wave has the mean level b =
    ``b_per_a`` times a of the family.  An unknown family raises
    DomainError before any point is solved.
    """
    fam = SWEEP_FAMILIES.get(family)
    if fam is None:
        raise DomainError(f"unknown sweep family {family!r}")

    def classify(v):
        try:
            lam0 = _sweep_lambda0(fam, v, m_exp, a, N, k_count)
        except ModulonError:
            return float("nan"), "indeterminate"
        return lam0, "unstable" if lam0 > UNSTABLE_THRESHOLD else "stable"

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


def export_run_csv(run: DeltaRun, path, header: str = ""):
    """Per-run time series: t, l2_perturbation, orbital_distance, after an
    optional ``header`` line block."""
    write_csv(path, header, ("t", "l2_perturbation", "orbital_distance"),
              zip(run.times, run.pert_norm, run.orbital))
