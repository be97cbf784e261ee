import json

import numpy as np
import pytest

from modulon import (SymbolSpec, TravelingWave, cosine_field,
                     model_for_symbol, zero_field)
from modulon.errors import BlowupError, DomainError, DomainTooSmallError
from modulon.experiments import (_monitor_run, build_band_packet,
                                 packet_domain_check, run_localized,
                                 run_multiperiodic, save_report,
                                 export_run_csv, threshold_sweep)


@pytest.fixture(scope="module")
def quick_multiperiodic(whitham_k2_model, whitham_k2_wave,
                        whitham_k2_spectrum):
    """About 6 s of escape runs, so every test that uses it is marked slow."""
    return run_multiperiodic(whitham_k2_model, whitham_k2_wave,
                             whitham_k2_spectrum, deltas=[1e-3, 1e-4],
                             N_op=96, N_ev=48)


@pytest.mark.slow
def test_multiperiodic_rates_match_eigenvalue(quick_multiperiodic):
    rep = quick_multiperiodic
    for run in rep.runs:
        assert run.growth_rate is not None
        assert run.growth_rate == pytest.approx(rep.reference_rate, rel=0.05)


@pytest.mark.slow
def test_multiperiodic_escape_monotone(quick_multiperiodic):
    ts = [r.escape_time for r in quick_multiperiodic.runs]
    assert all(t is not None for t in ts)
    assert ts[1] > ts[0]
    assert quick_multiperiodic.passes["escape_monotone"]


@pytest.mark.slow
def test_multiperiodic_regression(quick_multiperiodic):
    reg = quick_multiperiodic.regression
    assert reg is not None
    assert abs(reg["slope_times_rate"] - 1.0) <= 0.1


@pytest.mark.slow
def test_multiperiodic_conservation(quick_multiperiodic):
    for run in quick_multiperiodic.runs:
        assert run.mass_drift < 1e-12
        assert run.momentum_drift < 1e-8
        assert run.energy_drift < 1e-8


@pytest.mark.slow
def test_multiperiodic_rational_within_qmax(quick_multiperiodic):
    assert 1 <= quick_multiperiodic.q <= 8
    assert 0 < quick_multiperiodic.p / quick_multiperiodic.q < 1


def test_theta0_zero_degenerate(whitham_k2_model, whitham_k2_wave,
                                whitham_k2_spectrum):
    rep = run_multiperiodic(whitham_k2_model, whitham_k2_wave,
                            whitham_k2_spectrum, deltas=[1e-3], theta0=0.0,
                            N_op=96, N_ev=48, t_max=1.0)
    assert rep.runs[0].escape_time == 0.0


def test_deltas_must_decrease(whitham_k2_model, whitham_k2_wave,
                              whitham_k2_spectrum):
    with pytest.raises(DomainError):
        run_multiperiodic(whitham_k2_model, whitham_k2_wave,
                          whitham_k2_spectrum, deltas=[1e-4, 1e-3])


def test_multiperiodic_requires_instability(whitham_model, whitham_wave):
    from modulon.bloch import scan_bloch
    sp = scan_bloch(whitham_model, whitham_wave, k_count=16, N=48)
    assert sp.lambda0 <= sp.threshold     # kappa = 1 small waves are stable
    with pytest.raises(DomainError):
        run_multiperiodic(whitham_model, whitham_wave, sp, deltas=[1e-3])


@pytest.mark.slow
def test_report_serialization(tmp_path, quick_multiperiodic):
    path = tmp_path / "rep.json"
    save_report(quick_multiperiodic, path)
    obj = json.loads(path.read_text())
    assert obj["kind"] == "multiperiodic"
    assert len(obj["runs"]) == 2
    assert obj["regression"]["r2"] > 0.9
    csv_path = tmp_path / "run0.csv"
    export_run_csv(quick_multiperiodic, quick_multiperiodic.runs[0], csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,l2_perturbation,orbital_distance"


# -- localized ----------------------------------------------------------------------


def test_packet_nodes_inside_band(whitham_k2_model, whitham_k2_wave,
                                  whitham_k2_spectrum, whitham_k2_curve):
    packet, rates, freqs = build_band_packet(
        whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum,
        whitham_k2_curve, Q=64, N_op=96)
    lo, hi = whitham_k2_spectrum.bands[0]
    assert np.all(freqs > lo) and np.all(freqs < hi)
    assert np.all(rates.real > 0)
    packet.check()
    for prof in packet.profiles:
        from modulon import l2_norm
        assert abs(l2_norm(prof) - 1.0) < 1e-9


def test_packet_law_fit(whitham_k2_model, whitham_k2_wave,
                        whitham_k2_spectrum, whitham_k2_curve):
    rep = run_localized(whitham_k2_model, whitham_k2_wave,
                        whitham_k2_spectrum, whitham_k2_curve, Q=96,
                        deltas=[], N_op=96, enforce_envelope=False)
    pk = rep.packet
    assert abs(pk["lambda_fit"] - rep.lambda0) <= 0.05 * rep.lambda0
    assert abs(pk["inv_l_fit"] - 0.5) <= 0.1
    assert rep.passes["inv_l_within_20pct"]
    assert rep.passes["lambda_within_5pct"]


def test_packet_envelope_guard(whitham_k2_model, whitham_k2_wave,
                               whitham_k2_spectrum, whitham_k2_curve):
    with pytest.raises(DomainTooSmallError) as err:
        run_localized(whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum,
                      whitham_k2_curve, Q=64, deltas=[1e-5], N_op=96,
                      enforce_envelope=True)
    assert err.value.suggested_Q is not None
    assert err.value.suggested_Q > 64


def test_packet_domain_check_passes_short_horizon():
    from modulon.fields import midpoint_band_nodes
    pk = midpoint_band_nodes(0.25, 8, 64)
    rates = np.array([0.01 + (0.1 + 0.002 * j) * 1j for j in range(8)])
    width = packet_domain_check(pk, rates, 64, t_end=10.0)
    assert width > 0
    with pytest.raises(DomainTooSmallError):
        packet_domain_check(pk, rates, 64, t_end=1e5)


@pytest.mark.slow
def test_theta0_doubling_shifts_escape_by_ln2_over_rate(
        whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum):
    # doubling theta0 adds ~ln2 / Re lambda to every escape time
    reps = {}
    for fac in (1.0, 2.0):
        base = run_multiperiodic(whitham_k2_model, whitham_k2_wave,
                                 whitham_k2_spectrum, deltas=[1e-4],
                                 theta0=fac * 6e-3, N_op=96, N_ev=48)
        reps[fac] = base
    rate = reps[1.0].reference_rate
    dT = reps[2.0].runs[0].escape_time - reps[1.0].runs[0].escape_time
    assert dT == pytest.approx(np.log(2.0) / rate, rel=0.15)


def test_single_node_packet_reduces_to_multiperiodic_growth(
        whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum,
        whitham_k2_curve):
    # eta -> 0 limit: one Fourier line, pure e^{lambda t}, no algebraic factor
    from modulon.evolve import lift_wave, Evolver
    from modulon.fields import (synthesize_packet, l2_norm, PeriodicField,
                                hermitian_full)
    packet, rates, freqs = build_band_packet(
        whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum,
        whitham_k2_curve, Q=64, n_nodes=1, N_op=96)
    u1 = synthesize_packet(packet, 64)
    u1 = u1 * (1.0 / l2_norm(u1))
    uc = lift_wave(whitham_k2_wave, 64, u1.N)
    ev = Evolver(whitham_k2_model, whitham_k2_wave.c, 64, u1.N, 0.05,
                 linearized=True, wave_profile=uc)
    half = u1.coef[u1.N // 2:]
    ts, ys = [0.0], [0.0]
    t = 0.0
    for _ in range(40):
        for _ in range(20):
            half = ev.step_coef(half, t)
            t += 0.05
        f = PeriodicField(64, u1.N, hermitian_full(half), real=True)
        ts.append(t)
        ys.append(np.log(l2_norm(f)))
    ts, ys = np.array(ts), np.array(ys)
    X = np.column_stack([np.ones_like(ts), ts, -np.log1p(ts)])
    c0, lam_fit, beta = np.linalg.lstsq(X, ys, rcond=None)[0]
    node_rate = float(rates[0].real)
    assert lam_fit == pytest.approx(node_rate, rel=0.02)
    assert abs(beta) < 0.05 * abs(np.log(2.0))    # no algebraic correction


@pytest.mark.parametrize("theta0", [1e3, 0.0])
def test_monitor_run_raises_on_blowup(theta0):
    # a wildly unstable step size; theta0 = 0 is the packet's linear phase
    m = model_for_symbol(SymbolSpec("kdv"))
    w = TravelingWave(m, zero_field(1, 64), c=0.0, a_const=0.0,
                      amplitude=0.0, residual=0.0)
    big = cosine_field(1, 64, [0.0, 40.0])
    with pytest.raises(BlowupError) as err:
        _monitor_run(m, w, big, zero_field(1, 64), dt=1.0, t_max=50.0,
                     snap_dt=50.0, theta0=theta0, escape_metric="plain")
    assert err.value.last_time == 50.0


# -- threshold sweep --------------------------------------------------------------------


def test_bbm_sweep_boundary_near_sqrt3():
    res = threshold_sweep("bbm", [1.5, 1.9], a=0.02, N=96, k_count=48,
                          bisect_tol=0.02)
    assert res.bracket is not None
    assert res.boundary == pytest.approx(np.sqrt(3.0), abs=0.05)
    verdicts = {v: s for v, _, s in res.points}
    assert verdicts[1.5] == "stable"
    assert verdicts[1.9] == "unstable"


def test_sweep_no_bracket():
    res = threshold_sweep("bbm", [1.9, 2.1], a=0.02, N=64, k_count=32,
                          bisect_tol=0.05)
    assert res.boundary is None           # all unstable: nothing to bisect
    assert all(s == "unstable" for _, _, s in res.points)


def test_fractional_small_m_unstable_for_every_tested_p():
    # m in (1/2, 1): instability regardless of the power
    res = threshold_sweep("fractional", [2.0, 2.5, 3.0], a=0.02, m_exp=0.8,
                          N=128, k_count=32, max_bisect=0)
    assert all(s == "unstable" for _, _, s in res.points)
    assert res.boundary is None


def test_sweep_serialization(tmp_path):
    res = threshold_sweep("bbm", [1.5, 1.9], a=0.02, N=64, k_count=32,
                          bisect_tol=0.1, max_bisect=2)
    obj = res.to_dict()
    assert obj["family"] == "bbm"
    assert obj["parameter"] == "m"
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(obj))
    assert json.loads(path.read_text())["boundary"] == res.boundary


def test_sweep_unknown_family_is_refused_before_any_point(monkeypatch):
    import modulon.experiments as experiments

    def solve(*args, **kwargs):
        raise AssertionError("a sweep point was solved")

    monkeypatch.setattr(experiments, "_sweep_lambda0", solve)
    with pytest.raises(DomainError, match="bogus"):
        threshold_sweep("bogus", [1.0, 2.0])
