import numpy as np
import pytest

from modulon import (ModelSpec, NonlinearitySpec, SymbolSpec, TravelingWave,
                     continue_in_amplitude, cosine_coefficients,
                     evaluate_symbol, kernel_defect, l2_norm,
                     model_for_symbol, refine_newton, residual_norm,
                     small_amplitude_wave, spectral_decay_diagnostic,
                     whitham_condition_margin, zero_field, save_wave,
                     load_wave)
from modulon.fields import PeriodicField, cosine_field
from modulon.waves import _df_fourier_coeffs, _newton_system
from modulon.errors import (ContinuationStallError, DivergenceError,
                            DomainError, InsufficientDataError)


def test_whitham_expansion_limits(whitham_model):
    w = small_amplitude_wave(whitham_model, a=0.0, b=0.0, N=32)
    assert l2_norm(w.profile) == 0.0
    assert abs(w.c - evaluate_symbol(whitham_model.symbol, 1.0)) < 1e-15


def test_whitham_expansion_small_a(whitham_model):
    m1 = evaluate_symbol(whitham_model.symbol, 1.0)
    m2 = evaluate_symbol(whitham_model.symbol, 2.0)
    w = small_amplitude_wave(whitham_model, a=0.01, b=0.0, N=32)
    d = cosine_coefficients(w.profile)
    assert abs(d[1] - 0.01) < 1e-15
    assert abs(d[0] - 0.5e-4 / (m1 - 1.0)) < 1e-12
    assert abs(d[2] - 0.5e-4 / (m1 - m2)) < 1e-12


def test_bbm_expansion_speed(bbm2_model):
    w = small_amplitude_wave(bbm2_model, a=0.0, N=32)
    assert abs(w.c - 0.2) < 1e-15          # 1/(1+m^2) at m=2
    w2 = small_amplitude_wave(bbm2_model, a=0.05, N=32)
    assert abs(w2.c - (0.2 - 0.05 ** 2 * 5.0 / 24.0)) < 1e-15


def test_seed_amplitude_bound(whitham_model):
    with pytest.raises(DomainError):
        small_amplitude_wave(whitham_model, a=0.2)


def test_newton_zero_steps_for_exact_solution(whitham_model):
    # the zero wave with a_const = 0 solves the equation exactly
    guess = TravelingWave(whitham_model, zero_field(1, 32), c=0.9,
                          a_const=0.0, amplitude=0.0, residual=0.0)
    out = refine_newton(whitham_model, guess, fix_amplitude=0.0,
                        fix_a_const=0.0)
    assert out.newton_iterations == 0
    assert out.residual < 1e-10


def test_newton_converges_whitham(whitham_wave):
    assert whitham_wave.converged
    assert whitham_wave.residual < 1e-10
    # evenness: odd-sine content below 1e-12
    c = whitham_wave.profile.coef
    assert np.max(np.abs(c.imag)) < 1e-12


def test_newton_quadratic_convergence(whitham_model):
    seed = small_amplitude_wave(whitham_model, a=0.05, N=64)
    w = refine_newton(whitham_model, seed, fix_amplitude=0.05, fix_a_const=0.0)
    rs = w.residual_history
    # final two residuals satisfy r_{k+1} <= C r_k^2 with a modest constant
    assert rs[-1] <= 1e3 * rs[-2] ** 2


def test_kernel_identity(whitham_wave, bbm2_wave):
    assert kernel_defect(whitham_wave.model, whitham_wave) <= 1e-7
    assert kernel_defect(bbm2_wave.model, bbm2_wave) <= 1e-7


def test_gkdv_second_harmonic_matches_two_mode_balance():
    # hand-rolled 2x2 harmonic-balance oracle for f(u) = -u^2, alpha = xi^2:
    # (alpha(1) - c) a1 - (2 a0 a1 + a1 a2) = 0,
    # (alpha(2) - c) a2 - (a1^2/2 + ...) = 0 with c = alpha(1) to leading
    # order, giving a2 ~ a^2 / (2 (alpha(2) - alpha(1)))
    m = ModelSpec("kdv_type", SymbolSpec("fractional", m=2.0),
                  NonlinearitySpec("minus_power", p=2.0))
    a = 0.01
    seed = small_amplitude_wave(m, a=a, N=64)
    w = refine_newton(m, seed, fix_amplitude=a, fix_a_const=0.0)
    d = cosine_coefficients(w.profile)
    oracle = a * a / (2.0 * (4.0 - 1.0))
    assert abs(d[2] - oracle) <= 0.01 * abs(oracle)


@pytest.mark.parametrize("model_name,a_list", [
    ("whitham", (0.02, 0.01, 0.005)),
])
def test_expansion_consistency_richardson(model_name, a_list):
    m = model_for_symbol(SymbolSpec(model_name))
    errs = []
    for a in a_list:
        seed = small_amplitude_wave(m, a=a, N=64)
        w = refine_newton(m, seed, fix_amplitude=a, fix_a_const=seed.a_const)
        errs.append(l2_norm(w.profile - seed.profile))
    # error is O(a^3): halving a shrinks it by ~8
    for e1, e2 in zip(errs, errs[1:]):
        assert 6.0 <= e1 / e2 <= 10.0
    # and ||newton - expansion|| / a^3 stays bounded
    ratios = [e / a ** 3 for e, a in zip(errs, a_list)]
    assert max(ratios) <= 3.0 * min(ratios)


def test_translation_gauge_recovery(whitham_model, whitham_wave):
    # shift the converged wave a little and hand it back as a guess; Newton
    # must return to the even representative
    shift = 0.05
    prof = whitham_wave.profile
    shifted = PeriodicField(1, prof.N,
                            prof.coef * np.exp(-1j * prof.modes() * shift),
                            real=True)
    guess = TravelingWave(whitham_model, shifted, whitham_wave.c,
                          whitham_wave.a_const, whitham_wave.amplitude, 1.0)
    out = refine_newton(whitham_model, guess,
                        fix_amplitude=whitham_wave.amplitude, fix_a_const=0.0)
    assert out.converged
    assert l2_norm(out.profile - whitham_wave.profile) < 1e-8


def test_fix_speed_constraint(whitham_model, whitham_wave):
    out = refine_newton(whitham_model, whitham_wave, fix_speed=whitham_wave.c,
                        fix_a_const=0.0)
    assert out.converged
    assert abs(out.c - whitham_wave.c) < 1e-14
    assert abs(out.amplitude - whitham_wave.amplitude) < 1e-6


def test_fix_mean_constraint():
    m = ModelSpec("kdv_type", SymbolSpec("fractional", m=2.0),
                  NonlinearitySpec("minus_power", p=2.2))
    seed = small_amplitude_wave(m, a=0.02, b=0.08, N=64)
    w = refine_newton(m, seed, fix_amplitude=0.02, fix_mean=0.08)
    assert w.converged
    assert abs(cosine_coefficients(w.profile)[0] - 0.08) < 1e-12


def test_continuation_zero_steps(whitham_model, whitham_wave):
    out = continue_in_amplitude(whitham_model, whitham_wave,
                                whitham_wave.amplitude, 0)
    assert out is whitham_wave


def test_continuation_path(whitham_model):
    seed = small_amplitude_wave(whitham_model, a=0.01, N=64)
    w = refine_newton(whitham_model, seed, fix_amplitude=0.01, fix_a_const=0.0)
    out = continue_in_amplitude(whitham_model, w, 0.05, 4)
    assert out.converged
    assert abs(out.amplitude - 0.05) < 1e-12
    assert out.residual < 1e-10


def test_continuation_stall(bbm2_model, bbm2_wave):
    # pushing the BBM branch far past its fold must stall, not loop forever
    with pytest.raises(ContinuationStallError):
        continue_in_amplitude(bbm2_model, bbm2_wave, 3.0, 1)


def test_whitham_margin_examples(whitham_wave):
    m = model_for_symbol(SymbolSpec("whitham"))
    zero = TravelingWave(m, zero_field(1, 32), c=0.9, a_const=0.0,
                         amplitude=0.0, residual=0.0)
    assert abs(whitham_condition_margin(zero) - 0.9) < 1e-14
    # synthetic: c = 0, u = cos x, f = u^2: margin = -max|2 cos x| = -2
    synth = TravelingWave(m, cosine_field(1, 32, [0.0, 1.0]), c=0.0,
                          a_const=0.0, amplitude=1.0, residual=1.0)
    assert abs(whitham_condition_margin(synth) + 2.0) < 1e-12
    # small-amplitude wave: margin ~ alpha(kappa) > 0
    assert whitham_condition_margin(whitham_wave) > 0.7


def test_decay_diagnostic_synthetic_exponential():
    f = zero_field(1, 64, real=False)
    for n in range(1, 33):
        f.set_mode(n, np.exp(-n))
        f.set_mode(-n, np.exp(-n))
    assert abs(spectral_decay_diagnostic(f) + 1.0) < 1e-6


def test_decay_diagnostic_converged_wave(whitham_wave):
    assert spectral_decay_diagnostic(whitham_wave.profile) < -0.5


def test_decay_diagnostic_white_noise():
    rng = np.random.default_rng(0)
    f = zero_field(1, 64, real=False)
    for n in range(1, 33):
        f.set_mode(n, rng.standard_normal() + 1j * rng.standard_normal())
    slope = spectral_decay_diagnostic(f)
    assert abs(slope) < 0.1          # flat spectrum: flagged non-smooth


def test_decay_diagnostic_insufficient_data():
    f = zero_field(1, 64)
    f.set_mode(1, 1.0)
    f.set_mode(-1, 1.0)
    with pytest.raises(InsufficientDataError):
        spectral_decay_diagnostic(f)


def test_divergence_carries_residual():
    # an outrageous guess far from any solution must raise with diagnostics
    m = model_for_symbol(SymbolSpec("whitham"))
    bad = TravelingWave(m, cosine_field(1, 32, [0.0, 5.0]), c=-3.0,
                        a_const=0.0, amplitude=5.0, residual=1.0)
    with pytest.raises(DivergenceError) as err:
        refine_newton(m, bad, fix_amplitude=5.0, fix_a_const=0.0, max_iter=4)
    assert err.value.residual is not None


@pytest.mark.parametrize("symbol,nl_form,p", [
    ("kdv", "quadratic", 2.0),
    ("bo", "quadratic", 2.0),
    ("ilw:H=1.0", "quadratic", 2.0),
    ("frac:m=1.5", "minus_power", 2.0),
])
def test_newton_across_symbol_catalog(symbol, nl_form, p):
    from modulon import parse_symbol
    sym = parse_symbol(symbol)
    m = ModelSpec("kdv_type", sym, NonlinearitySpec(nl_form, p=p))
    seed = small_amplitude_wave(m, a=0.03, N=64)
    w = refine_newton(m, seed, fix_amplitude=0.03, fix_a_const=0.0)
    assert w.converged and w.residual < 1e-10
    assert kernel_defect(m, w) <= 1e-7
    assert abs(w.amplitude - 0.03) < 1e-12


def test_wave_persistence_round_trip(tmp_path, whitham_wave):
    base = tmp_path / "w"
    sidecar = save_wave(whitham_wave, base)
    assert sidecar["kernel_defect"] <= 1e-7
    back = load_wave(base)
    assert abs(back.c - whitham_wave.c) < 1e-15
    assert np.array_equal(back.profile.coef, whitham_wave.profile.coef)
    assert back.model.symbol.kind == "whitham"


def test_newton_jacobian_matches_loop(bbm2_model, bbm2_wave):
    model, N = bbm2_model, bbm2_wave.profile.N
    J = N // 2 - 1
    d = cosine_coefficients(bbm2_wave.profile)
    _, A, _ = _newton_system(model, d, bbm2_wave.c, bbm2_wave.a_const, N)
    w = _df_fourier_coeffs(model, cosine_field(1, N, d), N)[N:].real
    B = np.zeros((J + 1, J + 1))
    for j in range(J + 1):
        for l in range(J + 1):
            if j == 0:
                B[j, l] = w[l]
            elif l == 0:
                B[j, l] = 2.0 * w[j]
            else:
                B[j, l] = w[abs(j - l)] + w[j + l]
    lin, _ = model.energy_diag(model.kappa * np.arange(J + 1), bbm2_wave.c)
    assert np.array_equal(A, np.diag(lin) + model.nl_sign * B)
