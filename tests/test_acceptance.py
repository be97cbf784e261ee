"""Acceptance suite: each test implements one numbered criterion at its
stated tolerance and prints a pass line.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from modulon import (ModelSpec, SymbolSpec, TravelingWave,
                     catalog_symbols, evaluate_symbol, l2_norm,
                     model_for_symbol, refine_newton, small_amplitude_wave,
                     zero_field)
from modulon.bloch import (assemble_bloch, eigens, scan_bloch,
                           unstable_eigenfunction)
from modulon.evolve import (Evolver, advance, build_approximate_solution,
                            approximate_solution_residual, lift_wave,
                            stable_dt)
from modulon.experiments import (run_localized, run_multiperiodic,
                                 threshold_sweep)
from modulon.semigroup import (dual_propagator_norm, probe_growth,
                               propagator_norm, riesz_projection,
                               trichotomy_split)


def _ok(num, text):
    print(f"\nACCEPTANCE {num:02d}: PASS - {text}")


def _family_model(sym: SymbolSpec) -> ModelSpec:
    return model_for_symbol(sym)


def _constant_wave(model, c=0.9, N=128):
    return TravelingWave(model, zero_field(1, N), c=c, a_const=0.0,
                         amplitude=0.0, residual=0.0, converged=True)


# -- shared acceptance-scale artifacts -------------------------------------------


@pytest.fixture(scope="module")
def bbm_acceptance(bbm2_model, bbm2_wave):
    """BBM m=2 a=0.05 spectrum at N=256 plus the escape-time experiment
    (deltas over four decades), timed for criterion 11.  It takes 6-9 s,
    so every test that uses it is marked slow."""
    t0 = time.time()
    sp = scan_bloch(bbm2_model, bbm2_wave, k_count=64, N=256)
    rep = run_multiperiodic(bbm2_model, bbm2_wave, sp,
                            deltas=[1e-3, 1e-4, 1e-5, 1e-6],
                            N_op=256, N_ev=96)
    elapsed = time.time() - t0
    return sp, rep, elapsed


def test_acceptance_01_null_spectrum(constant_wave_factory):
    t0 = time.time()
    for sym in catalog_symbols():
        model = _family_model(sym)
        wave = _constant_wave(model, c=0.9, N=128)
        sp = scan_bloch(model, wave, k_count=64, N=128)
        assert sp.lambda0 <= 1e-8, sym.kind
        assert sp.bands == []
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"null scan took {elapsed:.1f}s"
    _ok(1, f"six constant-state scans, max lambda0 <= 1e-8, {elapsed:.1f}s")


def test_acceptance_02_closed_form_dispersion():
    worst = 0.0
    for sym in catalog_symbols():
        model = _family_model(sym)
        wave = _constant_wave(model, c=0.9, N=128)
        fp0 = float(model.nonlinearity.df(0.0))
        for k in (0.0, 0.3, 0.7, 1.0):
            op = assemble_bloch(model, wave, k, 128)
            vals, _ = eigens(op, check_residual=False)
            n = np.arange(-64, 65)
            if model.family == "kdv_type":
                oracle = 1j * (n + k) * (
                    evaluate_symbol(sym, n + k) - 0.9 + fp0)
            else:
                s2 = 1.0 + (n + k) ** 2
                oracle = 1j * (n + k) / s2 * (0.9 * s2 - 1.0 - fp0)
            for lam in oracle:
                worst = max(worst, float(np.min(np.abs(vals - lam))))
    assert worst < 1e-10
    _ok(2, f"diagonal dispersion oracle, worst mismatch {worst:.2e}")


def test_acceptance_03_whitham_expansion_richardson():
    model = model_for_symbol(SymbolSpec("whitham"))
    errs = {}
    for a in (0.02, 0.01):
        seed = small_amplitude_wave(model, a=a, N=64)
        wave = refine_newton(model, seed, fix_amplitude=a, fix_a_const=0.0)
        errs[a] = l2_norm(wave.profile - seed.profile)
    ratio = errs[0.02] / errs[0.01]
    assert 6.0 <= ratio <= 10.0
    _ok(3, f"O(a^3) Richardson ratio {ratio:.2f} in [6, 10]")


def test_acceptance_04_fractional_threshold():
    t0 = time.time()
    res = threshold_sweep("fractional", [1.6, 2.0, 2.4], a=0.02, m_exp=2.0,
                          N=256, k_count=48, bisect_tol=5e-3)
    elapsed = time.time() - t0
    assert res.boundary is not None
    assert 1.8 <= res.boundary <= 2.2
    assert elapsed < 300.0, f"sweep took {elapsed:.0f}s"
    _ok(4, f"fractional m=2 boundary p = {res.boundary:.4f} in [1.8, 2.2], "
           f"{elapsed:.0f}s at N=256")


def test_acceptance_05_bbm_threshold():
    res = threshold_sweep("bbm", [1.6, 1.9], a=0.02, N=128, k_count=64,
                          bisect_tol=5e-3)
    assert res.boundary is not None
    assert 1.68 <= res.boundary <= 1.79
    _ok(5, f"bbm boundary m = {res.boundary:.4f} in [1.68, 1.79] "
           f"(sqrt(3) = {np.sqrt(3):.4f})")


def test_acceptance_06_hamiltonian_symmetry_and_trichotomy(
        bbm2_model, bbm2_wave, bbm2_spectrum,
        whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum):
    worst = 0.0
    for model, wave, sp, N in [
            (bbm2_model, bbm2_wave, bbm2_spectrum, 96),
            (whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum, 96)]:
        for k, ev in zip(sp.k_grid, sp.eigenvalues):
            for lam in ev:
                worst = max(worst, float(np.min(np.abs(ev - (-np.conj(lam))))))
        for k in sp.k_grid[::6]:
            split = trichotomy_split(assemble_bloch(model, wave, float(k), N))
            assert split.dim_Eu == split.dim_Es
            assert split.dim_Eu <= split.n_minus_L
    assert worst < 1e-8
    _ok(6, f"lambda -> -conj(lambda) closure {worst:.2e}; "
           f"dim E^u = dim E^s <= n^-(L) at every sampled k")


def test_acceptance_07_eigenfunction_identity(
        bbm2_model, bbm2_wave, bbm2_spectrum,
        whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum,
        gkdv3_model, gkdv3_wave):
    count = 0
    for model, wave, ks in [
            (bbm2_model, bbm2_wave, [bbm2_spectrum.k0, 0.08, 0.12]),
            (whitham_k2_model, whitham_k2_wave,
             [whitham_k2_spectrum.k0, 0.1, 0.15]),
            (gkdv3_model, gkdv3_wave, [0.05])]:
        for k in ks:
            k = k if k <= 0.5 else 1.0 - k
            lam, v = unstable_eigenfunction(model, wave, float(k), N=96)
            count += 1           # the <L_k v, v> check is asserted inside
    _ok(7, f"<L_k v, v> identity held for {count} unstable eigenpairs")


def test_acceptance_08_semigroup_bound_and_duality(
        whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum):
    model, wave, sp = whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum
    k = sp.k0 if sp.k0 <= 0.5 else 1.0 - sp.k0
    op = assemble_bloch(model, wave, k, 96)
    lam0 = sp.lambda0
    m_exp = 0.5                  # whitham tail exponent
    slopes = {}
    for s in (-1.0, 0.0, m_exp / 2.0):
        probe = probe_growth(op, s)
        slope = probe.log_slope()
        assert lam0 - 0.05 <= slope <= lam0 + 0.05, (s, slope)
        slopes[s] = slope
    # finite-dimensional H^{-1}/H^{1} duality
    worst = 0.0
    for t in (0.5, 1.5, 3.0):
        dual = dual_propagator_norm(op, t, check=False)
        direct = propagator_norm(op, t, s=-1.0)
        worst = max(worst, abs(dual - direct) / max(1.0, direct))
    assert worst < 1e-8
    slope_txt = ", ".join(f"s={s:g}: {v:.5f}" for s, v in slopes.items())
    _ok(8, f"slopes ({slope_txt}) within lambda0 +- 0.05; "
           f"duality defect {worst:.2e}")


def test_acceptance_09_riesz_projectors():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 20:
        n = int(rng.integers(6, 18))
        H = rng.standard_normal((n, n))
        H = 0.5 * (H + H.T)
        D = 1j * np.diag(rng.standard_normal(n))
        M = D @ H + 0.1 * rng.standard_normal((n, n))
        vals = np.linalg.eigvals(M)
        center = complex(vals[int(rng.integers(0, n))])
        others = np.abs(vals - center)
        others = others[others > 1e-9]
        if len(others) == 0:
            continue
        radius = 0.5 * float(np.min(others))
        if radius < 1e-6:
            continue
        dist = np.abs(np.abs(vals - center) - radius)
        if np.min(dist) <= radius / 100.0:
            continue
        P = riesz_projection(M, center, radius)
        defect = np.linalg.norm(P @ P - P, 2)
        assert defect < 1e-8
        n_in = int(np.sum(np.abs(vals - center) < radius))
        assert int(round(np.trace(P).real)) == n_in
        checked += 1
    _ok(9, "20 randomized structured projectors: idempotence < 1e-8, "
           "rank = enclosed count")


@pytest.mark.slow
def test_acceptance_10_nonlinear_growth_rates(bbm_acceptance):
    sp, rep, _ = bbm_acceptance
    rate = rep.reference_rate
    checked = 0
    for run in rep.runs:
        if run.delta <= 1e-4:
            assert run.growth_rate is not None
            assert abs(run.growth_rate - rate) <= 0.05 * rate, run.delta
            checked += 1
    assert checked == 3
    _ok(10, f"bbm m=2 a=0.05 growth rates within 5% of Re lambda(k0) = "
            f"{rate:.4e} for deltas 1e-4, 1e-5, 1e-6")


@pytest.mark.slow
def test_acceptance_11_escape_time_scaling(bbm_acceptance):
    sp, rep, elapsed = bbm_acceptance
    reg = rep.regression
    assert reg is not None
    assert reg["r2"] >= 0.99
    assert abs(reg["slope_times_rate"] - 1.0) <= 0.10
    ts = [r.escape_time for r in rep.runs]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))
    assert elapsed < 1800.0
    _ok(11, f"T_delta ~ |ln delta| over 4 decades: R^2 = {reg['r2']:.6f}, "
            f"slope*rate = {reg['slope_times_rate']:.4f}, q = {rep.q}, "
            f"runtime {elapsed:.0f}s < 30 min")


def test_acceptance_12_packet_law(whitham_k2_model, whitham_k2_wave,
                                  whitham_k2_spectrum, whitham_k2_curve):
    rep = run_localized(whitham_k2_model, whitham_k2_wave,
                        whitham_k2_spectrum, whitham_k2_curve, Q=96,
                        deltas=[], N_op=96, enforce_envelope=False)
    pk = rep.packet
    expected = pk["inv_l_expected"]
    assert abs(pk["inv_l_fit"] - expected) <= 0.2 * expected
    assert abs(pk["lambda_fit"] - rep.lambda0) <= 0.05 * rep.lambda0
    _ok(12, f"packet law at Q=96 >= 32: fitted algebraic exponent "
            f"{pk['inv_l_fit']:.3f} vs 1/l = {expected} (l = {pk['l']}), "
            f"rate within {abs(pk['lambda_fit']/rep.lambda0-1):.1%} of lambda0")


def test_acceptance_13_approximate_solution_orders(bbm2_model, bbm2_wave):
    lam, v = unstable_eigenfunction(bbm2_model, bbm2_wave, 0.125, N=64)
    ratios = {}
    for order in (1, 2):
        res = {}
        for delta in (2e-3, 1e-3):
            sol = build_approximate_solution(bbm2_model, bbm2_wave, lam, v,
                                             (1, 8), delta=delta,
                                             n_order=order, t_end=2.0,
                                             dt=0.01, n_snapshots=5)
            res[delta] = approximate_solution_residual(sol)[-1]
        ratios[order] = res[2e-3] / res[1e-3]
    assert 3.6 <= ratios[1] <= 4.4        # 4 +- 10%
    assert 6.8 <= ratios[2] <= 9.2        # 8 +- 15%
    _ok(13, f"residual Richardson ratios: order 1 -> {ratios[1]:.2f} "
            f"(4 +- 10%), order 2 -> {ratios[2]:.2f} (8 +- 15%)")


@pytest.mark.slow
def test_acceptance_14_conservation(bbm_acceptance, whitham_k2_model,
                                    whitham_k2_wave):
    sp, rep, _ = bbm_acceptance
    for run in rep.runs:
        assert run.mass_drift <= 1e-11
        assert run.momentum_drift < 1e-8
        assert run.energy_drift < 1e-8
    # dt-halving error ratio in [10, 22] (fourth order)
    model, wave = whitham_k2_model, whitham_k2_wave
    N = 48
    uc = lift_wave(wave, 1, N)
    pert = zero_field(1, N)
    pert.set_mode(1, 0.02)
    pert.set_mode(-1, 0.02)
    u0 = uc + pert
    base_dt = 0.04

    def final(dt):
        ev = Evolver(model, wave.c, 1, N, dt)
        n = int(round(4.0 / dt))
        last = []
        advance(ev, ev.rows(u0), n, n, lambda t, rows: last.append(rows))
        return ev.field(last[-1])

    ref = final(base_dt / 8)
    ratio = l2_norm(final(base_dt) - ref) / l2_norm(final(base_dt / 2) - ref)
    assert 10.0 <= ratio <= 22.0
    worst_p = max(r.momentum_drift for r in rep.runs)
    worst_e = max(r.energy_drift for r in rep.runs)
    _ok(14, f"mass at round-off, momentum/energy drift <= "
            f"{max(worst_p, worst_e):.1e} < 1e-8; dt-halving ratio "
            f"{ratio:.1f} in [10, 22]")
