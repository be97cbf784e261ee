"""The four benchmark workloads, written against modulon's public library API.

Each workload has a ``setup`` that builds its Newton waves from the seed and
an ``op`` that runs one pass of the study and returns its science results
and a ``check(checks)`` function, which reports each correctness check
through ``checks.add(name, ok, detail)``.  Modules are called through
their attributes (``bloch.scan_bloch``) so that the span recorder sees
every call.

Seed 0 reproduces the acceptance parameters (a = 0.05, escape deltas
1e-2 and 1e-3).  Any other seed draws each wave amplitude from
0.05 * (1 +- 0.5%) and scales the escape deltas by a factor in [0.95, 1.05].
The narrow bands keep the work per operation nearly the same across seeds.

Sizes are smaller than the acceptance runs (spectrum N=128 and k_count=16,
verify probes at N=64, packet Q=52) so that several operations fit in one
timed run and their median is steady; escape keeps the acceptance sizes
because a growth rate is fitted only for delta <= 1e-3.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

import modulon
from modulon import bloch, experiments, semigroup, waves

# Problem sizes.  "full" is what the benchmark measures; "tiny" keeps every
# stage and check but runs in seconds, for the benchmark's own tests.
SIZES = {
    "full": {
        "newton_N": 96,
        "spectrum": {"k_count": 16, "N": 128},
        "verify": {"k_count": 16, "N_scan": 48, "N": 64, "trich_every": 6},
        "escape": {"k_count": 48, "N": 96, "N_ev": 96, "deltas": [1e-2, 1e-3]},
        "packet": {"k_count": 16, "N": 64, "Q": 52},
    },
    "tiny": {
        "newton_N": 48,
        "spectrum": {"k_count": 16, "N": 48},
        "verify": {"k_count": 16, "N_scan": 48, "N": 48, "trich_every": 6},
        "escape": {"k_count": 16, "N": 48, "N_ev": 32, "deltas": [1e-2, 1e-3]},
        "packet": {"k_count": 16, "N": 48, "Q": 48},
    },
}

CLOSURE_TOL = 1e-8
DUALITY_TOL = 1e-8
IDEMPOTENCE_TOL = 1e-8


@dataclass
class Case:
    """One Newton wave and the model it solves."""

    name: str
    model: object
    wave: object


@dataclass
class Context:
    workload: str
    seed: int
    sizes: dict
    cases: list
    delta_scale: float
    outdir: str


def draw_inputs(seed: int) -> dict:
    """Amplitudes and the delta scale for a seed; seed 0 gives the defaults."""
    if seed == 0:
        return {"a_bbm": 0.05, "a_whitham": 0.05, "delta_scale": 1.0}
    rng = np.random.default_rng(seed)
    a_bbm, a_whitham = 0.05 * (1.0 + rng.uniform(-0.005, 0.005, size=2))
    delta_scale = math.exp(rng.uniform(math.log(0.95), math.log(1.05)))
    return {"a_bbm": float(a_bbm), "a_whitham": float(a_whitham),
            "delta_scale": delta_scale}


def _newton_wave(model, a: float, N: int):
    seed = waves.small_amplitude_wave(model, a=a, N=N)
    return waves.refine_newton(model, seed, fix_amplitude=a, fix_a_const=0.0)


# which waves each workload studies
_CASES = {
    "spectrum": ("bbm", "whitham"),
    "verify": ("bbm", "whitham"),
    "escape": ("bbm",),
    "packet": ("whitham",),
}


def setup(workload: str, seed: int, size: str, outdir: str) -> Context:
    """Build the workload's Newton waves (BBM m=2 and Whitham kappa=2)."""
    sizes = SIZES[size]
    inputs = draw_inputs(seed)
    cases = []
    for name in _CASES[workload]:
        if name == "bbm":
            model = modulon.model_for_symbol(modulon.SymbolSpec("bbm_linear"), kappa=2.0)
        else:
            model = modulon.model_for_symbol(modulon.SymbolSpec("whitham"), kappa=2.0)
        wave = _newton_wave(model, inputs["a_" + name], sizes["newton_N"])
        cases.append(Case(name, model, wave))
    return Context(workload, seed, sizes, cases, inputs["delta_scale"], outdir)


def _fold(k: float) -> float:
    return k if k <= 0.5 else 1.0 - k


def _closure_defect(spectrum) -> float:
    """Largest distance from -conj(lambda) to the sampled spectrum, over all k."""
    worst = 0.0
    for ev in spectrum.eigenvalues:
        gap = np.abs(ev[:, None] + np.conj(ev)[None, :]).min(axis=1)
        worst = max(worst, float(gap.max()))
    return worst


# -- workloads -------------------------------------------------------------------


def op_spectrum(ctx: Context):
    """Bloch scan, band fit, unstable eigenfunction and spectrum files per wave."""
    cfg = ctx.sizes["spectrum"]
    science, spectra = {}, []
    for case in ctx.cases:
        sp = bloch.scan_bloch(case.model, case.wave, k_count=cfg["k_count"], N=cfg["N"])
        curve = bloch.fit_band(sp)
        k = _fold(sp.k0)
        lam, _ = bloch.unstable_eigenfunction(case.model, case.wave, k, N=cfg["N"])
        stem = os.path.join(ctx.outdir, f"spectrum_{case.name}")
        bloch.export_spectrum_dump(sp, stem + ".csv")
        bloch.save_spectrum_summary(bloch.spectrum_summary(sp, curve), stem + ".json")
        spectra.append((case.name, sp))
        science[case.name] = {"lambda0": sp.lambda0, "k0": sp.k0, "l": curve.l,
                              "a_fit": curve.a_fit, "k_samples": len(sp.k_grid),
                              "eig_k": k, "eig_re": lam.real, "eig_im": lam.imag}

    def check(checks):
        for name, sp in spectra:
            s = science[name]
            checks.add(f"{name}.lambda0_positive", s["lambda0"] > 1e-8, repr(s["lambda0"]))
            defect = _closure_defect(sp)
            checks.add(f"{name}.closure", defect <= CLOSURE_TOL, repr(defect))
            checks.add(f"{name}.l_even", s["l"] % 2 == 0, repr(s["l"]))
            # unstable_eigenfunction raises if <L v, v> or the decay check fails
            checks.add(f"{name}.eigenfunction", s["eig_re"] > 1e-8, repr(s["eig_re"]))
    return science, check


def op_verify(ctx: Context):
    """Semigroup growth probes, H^1/H^-1 duality, trichotomy counts and a
    Riesz projector at the most unstable k of each wave."""
    cfg = ctx.sizes["verify"]
    N = cfg["N"]
    science, found = {}, {}
    for case in ctx.cases:
        sp = bloch.scan_bloch(case.model, case.wave, k_count=cfg["k_count"], N=cfg["N_scan"])
        k = _fold(sp.k0)
        op = bloch.assemble_bloch(case.model, case.wave, k, N)
        m_tail = modulon.classify_symbol(case.model.symbol).m
        slopes = {}
        for s in (-1.0, 0.0, m_tail / 2.0):
            slopes[repr(s)] = semigroup.probe_growth(op, s).log_slope()
        duality = 0.0
        for t in (0.5, 1.5, 3.0):
            dual = semigroup.dual_propagator_norm(op, t, check=False)
            direct = semigroup.propagator_norm(op, t, s=-1.0)
            duality = max(duality, abs(dual - direct) / max(1.0, direct))
        splits = []
        for kk in sp.k_grid[::cfg["trich_every"]]:
            split = semigroup.trichotomy_split(
                bloch.assemble_bloch(case.model, case.wave, float(kk), N), strict=False)
            splits.append((split.dim_Eu, split.dim_Es, split.n_minus_L))
        vals = np.linalg.eigvals(op.A_mat)
        top = complex(vals[np.argmax(vals.real)])
        others = np.abs(vals - top)
        radius = 0.5 * float(np.min(others[others > 1e-12]))
        P = semigroup.riesz_projection(op.A_mat, top, radius)
        found[case.name] = (P, int(np.sum(np.abs(vals - top) < radius)))
        science[case.name] = {"lambda0": sp.lambda0, "k0": sp.k0, "k_probe": k,
                              "probe_slopes": slopes, "duality_defect": duality,
                              "trichotomy": splits, "riesz_center_re": top.real,
                              "riesz_center_im": top.imag, "riesz_radius": radius}

    def check(checks):
        for name, s in science.items():
            lam0 = s["lambda0"]
            for key, slope in s["probe_slopes"].items():
                checks.add(f"{name}.probe_slope[s={key}]",
                           lam0 - 0.05 <= slope <= lam0 + 0.05, repr(slope))
            checks.add(f"{name}.duality", s["duality_defect"] < DUALITY_TOL,
                       repr(s["duality_defect"]))
            checks.add(f"{name}.trichotomy",
                       all(u == st and u <= nm for u, st, nm in s["trichotomy"]),
                       repr(s["trichotomy"]))
            P, enclosed = found[name]
            idem = float(np.linalg.norm(P @ P - P, 2))
            rank = int(round(np.trace(P).real))
            checks.add(f"{name}.riesz_idempotent", idem < IDEMPOTENCE_TOL, repr(idem))
            checks.add(f"{name}.riesz_rank", rank == enclosed >= 1, f"{rank} vs {enclosed}")
    return science, check


def op_escape(ctx: Context):
    """Escape-time experiment for the BBM m=2 wave at q = 8."""
    cfg = ctx.sizes["escape"]
    case = ctx.cases[0]
    deltas = [d * ctx.delta_scale for d in cfg["deltas"]]
    sp = bloch.scan_bloch(case.model, case.wave, k_count=cfg["k_count"], N=cfg["N"])
    rep = experiments.run_multiperiodic(case.model, case.wave, sp, deltas=deltas,
                                        N_op=cfg["N"], N_ev=cfg["N_ev"])
    experiments.save_report(rep, os.path.join(ctx.outdir, "escape_report.json"))
    reg = rep.regression or {}
    science = {"bbm": {
        "lambda0": sp.lambda0, "k0": sp.k0, "p": rep.p, "q": rep.q,
        "reference_rate": rep.reference_rate, "deltas": deltas,
        "escape_times": [r.escape_time for r in rep.runs],
        "growth_rates": [r.growth_rate for r in rep.runs],
        "slope_times_rate": reg.get("slope_times_rate"),
        "mass_drift": [r.mass_drift for r in rep.runs],
        "momentum_drift": [r.momentum_drift for r in rep.runs],
        "energy_drift": [r.energy_drift for r in rep.runs]}}

    def check(checks):
        s = science["bbm"]
        times = s["escape_times"]
        checks.add("bbm.all_escape", all(r.escaped for r in rep.runs), repr(times))
        checks.add("bbm.escape_monotone",
                   all(t is not None for t in times)
                   and all(t2 > t1 for t1, t2 in zip(times, times[1:])), repr(times))
        rate = s["reference_rate"]
        # a rate is fitted only where the growth window [3 delta, theta0 / 3]
        # holds five snapshots, which the largest delta does not reach
        fitted = [g for g in s["growth_rates"] if g is not None]
        checks.add("bbm.rates_within_5pct",
                   fitted and all(abs(g - rate) <= 0.05 * rate for g in fitted),
                   repr(s["growth_rates"]))
        sr = s["slope_times_rate"]
        checks.add("bbm.slope_within_10pct", sr is not None and abs(sr - 1.0) <= 0.10, repr(sr))
        checks.add("bbm.mass_drift", max(s["mass_drift"]) <= 1e-11, repr(s["mass_drift"]))
        checks.add("bbm.momentum_drift", max(s["momentum_drift"]) < 1e-8,
                   repr(s["momentum_drift"]))
        checks.add("bbm.energy_drift", max(s["energy_drift"]) < 1e-8, repr(s["energy_drift"]))
    return science, check


def op_packet(ctx: Context):
    """Linearized wave-packet run for the Whitham kappa=2 wave."""
    cfg = ctx.sizes["packet"]
    case = ctx.cases[0]
    sp = bloch.scan_bloch(case.model, case.wave, k_count=cfg["k_count"], N=cfg["N"])
    curve = bloch.fit_band(sp)
    rep = experiments.run_localized(case.model, case.wave, sp, curve, Q=cfg["Q"],
                                    deltas=[], N_op=cfg["N"], enforce_envelope=False)
    pk = rep.packet
    science = {"whitham": {
        "lambda0": sp.lambda0, "k0": sp.k0, "l": curve.l, "Q": cfg["Q"],
        "lambda_fit": pk["lambda_fit"], "inv_l_fit": pk["inv_l_fit"],
        "beta_norm": pk["beta_norm"], "passes": dict(rep.passes)}}

    def check(checks):
        checks.add("whitham.inv_l_within_20pct",
                   rep.passes.get("inv_l_within_20pct", False), repr(pk["inv_l_fit"]))
        checks.add("whitham.lambda_within_5pct",
                   rep.passes.get("lambda_within_5pct", False), repr(pk["lambda_fit"]))
    return science, check


OPS = {"spectrum": op_spectrum, "verify": op_verify,
       "escape": op_escape, "packet": op_packet}
