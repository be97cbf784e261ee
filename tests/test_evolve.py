import types

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from modulon import (NonlinearitySpec, SymbolSpec, cosine_field, l2_norm,
                     model_for_symbol, zero_field, PeriodicField)
from modulon.bloch import assemble_bloch, unstable_eigenfunction
from modulon.errors import BlowupError, DomainError
from modulon import evolve
from modulon.evolve import (SplitEvolver, _FiberGenerator, _Transform,
                            _contour_tables, _lift_eigenfunction, advance,
                            approximate_solution_residual,
                            build_approximate_solution, conserved_quantities,
                            field_rows, lift_wave, orbital_distance,
                            relative_drift, rows_field, stable_dt)
from modulon.experiments import _monitor_run, plan_steps
from modulon.fields import hermitian_full
from modulon.waves import small_amplitude_solution

TWO_PI = 2.0 * np.pi


def make_evolver(model, wave, field, dt):
    """The stepper of ``plan_steps`` without a pilot: split at the zero
    field of field's torus, so J E is exact and f(U) explicit."""
    return plan_steps(model, wave, field, dt, 1).ev


def run_steps(ev, field, n):
    """Step ``field`` n times through ``advance``; returns (field, t)."""
    last = []
    advance(ev, field_rows(field), n, n,
            lambda t, rows: last.append((t, rows)))
    t, rows = last[-1]
    return rows_field(field.q, field.N, rows), t


def test_zero_is_fixed_point(whitham_model, whitham_wave):
    z = zero_field(1, 64)
    f, _ = run_steps(make_evolver(whitham_model, whitham_wave, z, 0.01), z, 50)
    assert l2_norm(f) == 0.0


@pytest.fixture(scope="module")
def kdv_wave():
    return small_amplitude_solution(model_for_symbol(SymbolSpec("kdv")), 0.05,
                                    N=512)


@pytest.mark.parametrize("name, N, u_inf, steps, bound", [
    ("whitham", 64, 0.2, None, 1e-8),     # up to t = 10
    # E x with E = e^{h lam} kept whole: E2 (E2 x) ends 3.7e-14 off
    ("kdv", 512, 1.0, 3000, 1e-16),
], ids=["whitham", "kdv"])
def test_wave_is_equilibrium(name, N, u_inf, steps, bound, request):
    wave = request.getfixturevalue(name + "_wave")
    uc = lift_wave(wave, 1, N)
    dt = stable_dt(wave.model, 1, N, u_inf=u_inf)
    ev = make_evolver(wave.model, wave, uc, dt)
    n = steps or int(np.ceil(10.0 / dt))
    f, t = run_steps(ev, uc.copy(), n)
    assert steps or t >= 10.0
    assert l2_norm(f - uc) < bound


def test_bbm_wave_is_equilibrium(bbm2_model, bbm2_wave):
    uc = lift_wave(bbm2_wave, 1, 64)
    dt = stable_dt(bbm2_model, 1, 64)
    ev = make_evolver(bbm2_model, bbm2_wave, uc, dt)
    f, _ = run_steps(ev, uc.copy(), int(np.ceil(10.0 / dt)))
    assert l2_norm(f - uc) < 1e-8


def _two_branch_stable_dt(model, c, q, N, u_inf=1.0):
    """The family-branched step rule that the J-derived one replaced: a
    linear-symbol bound for BBM, the nonlinear CFL (uncapped) for kdv."""
    kap = model.kappa
    xi = kap * np.arange(N // 2 + 1) / q
    if model.family == "bbm":
        mult = np.max(np.abs(xi * (c - 1.0 / (1.0 + xi ** 2))))
        return min(8.0 * (0.5 / max(mult, 1e-12)), 0.1)
    dx = TWO_PI * q / (2 * N)
    dfmax = float(np.max(np.abs(model.nonlinearity.df(
        np.array([-u_inf, u_inf, 1e-9])))))
    return 0.2 * dx * kap ** -1 / max(dfmax, 1e-12)


def test_stable_dt_is_the_kdv_cfl_capped_at_one_tenth():
    models = [model_for_symbol(SymbolSpec(kind), nl, kappa=kap)
              for kind in ("kdv", "whitham")
              for nl in (None, NonlinearitySpec("minus_power", p=3.0),
                         NonlinearitySpec("minus_power", p=2.5))
              for kap in (0.5, 1.0, 2.0)]
    same = capped = 0
    for model in models:
        for q in (1, 3, 8):
            for n_per in (16, 48, 96, 256, 1024):
                for u_inf in (0.1, 0.2, 1.0):
                    old = _two_branch_stable_dt(model, 0.9, q, q * n_per, u_inf)
                    new = stable_dt(model, q, q * n_per, u_inf)
                    assert type(new) is float
                    if old <= 0.1:
                        assert new == old          # bitwise
                        same += 1
                    else:
                        assert new == 0.1
                        capped += 1
    assert same and capped


@pytest.mark.parametrize("q, n_per", [(1, 64), (1, 96), (3, 96), (5, 96),
                                      (8, 96)])
def test_stable_dt_bbm_traffic_sizes_keep_one_tenth(bbm2_model, bbm2_wave,
                                                   q, n_per):
    old = _two_branch_stable_dt(bbm2_model, bbm2_wave.c, q, q * n_per)
    assert old == 0.1
    assert stable_dt(bbm2_model, q, q * n_per) == 0.1
    assert stable_dt(bbm2_model, q, q * n_per, u_inf=0.1) == 0.1


def test_stable_dt_bbm_no_longer_shrinks_with_resolution():
    # the old linear-symbol bound 4 / max|xi (c - 1/(1 + xi^2))| fell below
    # 0.1 at high kappa N; ETDRK4 treats that part exactly
    model = model_for_symbol(SymbolSpec("bbm_linear"), kappa=0.5)
    c = 1.0 / (1.0 + 0.5 ** 2)
    old = _two_branch_stable_dt(model, c, 1, 256)
    assert 0.07 < old < 0.08
    assert stable_dt(model, 1, 256) == 0.1


@pytest.mark.parametrize("name", ["whitham", "bbm2"])
def test_linearized_matches_matrix_exponential(name, request, propagate):
    # the fiber propagator and the Bloch assembly share J and L from ModelSpec
    model = request.getfixturevalue(name + "_model")
    wave = request.getfixturevalue(name + "_wave")
    N = 64
    op = assemble_bloch(model, wave, 0.0, N)
    rng = np.random.default_rng(0)
    half = rng.standard_normal(N // 2 + 1) + 1j * rng.standard_normal(N // 2 + 1)
    half *= np.exp(-0.6 * np.arange(N // 2 + 1))
    half[0] = half[0].real
    half[-1] = 0.0
    f0 = PeriodicField(1, N, hermitian_full(half), real=True)
    coef = propagate(model, wave, f0, 0.25, 4, 4)[1][-1].coef
    exact = scipy.linalg.expm(1.0 * op.A_mat) @ f0.coef
    assert np.linalg.norm(coef - exact) / np.linalg.norm(exact) < 1e-6


def test_linearized_eigenfunction_grows_exponentially(bbm2_model, bbm2_wave,
                                                      bbm2_spectrum, propagate):
    # v = eigenfunction: w + conj is e^{lam t} w + conj to high accuracy
    p, q = 1, 8
    lam, v = unstable_eigenfunction(bbm2_model, bbm2_wave, p / q, N=64)
    N_big = q * 64
    w = _lift_eigenfunction(v, p, q, N_big)
    f0 = PeriodicField(q, N_big, w + np.conj(w[::-1]), real=True)
    t_end = 3.0
    coef = propagate(bbm2_model, bbm2_wave, f0, 0.5, 6, 6)[1][-1].coef
    grown = np.exp(lam * t_end) * w
    exact = grown + np.conj(grown[::-1])
    assert np.linalg.norm(coef - exact) / np.linalg.norm(exact) < 1e-6


def test_linearized_zero(whitham_model, whitham_wave, propagate):
    z = zero_field(1, 64)
    f = propagate(whitham_model, whitham_wave, z, 0.01, 1, 1)[1][-1]
    assert l2_norm(f) == 0.0


def test_nonlinear_matches_linearized_growth(bbm2_model, bbm2_wave):
    # delta = 1e-6 perturbation grows at Re lambda within 1% over t in [0, 5]
    # e-folds, on the escape runs' path: the split stepper at the step a
    # pilot from u_c + theta0 u1 picks for intervals of 80
    p, q = 1, 8
    lam, v = unstable_eigenfunction(bbm2_model, bbm2_wave, p / q, N=64)
    N_big = q * 64
    w = _lift_eigenfunction(v, p, q, N_big)
    u1 = PeriodicField(q, N_big, w + np.conj(w[::-1]), real=True)
    u1 = u1 * (1.0 / l2_norm(u1))
    uc = lift_wave(bbm2_wave, q, N_big)
    delta = 1e-6
    dt = 0.02
    t_end = 5.0 / max(lam.real, 1e-3)
    t_end = min(t_end, 5.0 / lam.real)
    theta0 = 0.05 * l2_norm(uc)
    plan = plan_steps(bbm2_model, bbm2_wave, uc, dt, 4000, theta0, u1)
    assert isinstance(plan.ev, SplitEvolver)
    run = _monitor_run(bbm2_model, bbm2_wave, uc + delta * u1, uc, t_end,
                       theta0, "l2", plan)
    assert not run.escaped
    growth = np.log(run.pert_norm[-1] / delta) / run.times[-1]
    assert growth == pytest.approx(lam.real, rel=0.01)


def test_conserved_examples_kdv():
    # U = cos x on T_2pi, alpha = xi^2, f = u^2:
    # mass 0, momentum pi/2, energy (1/2) int (du/dx)^2 + int u^3/3 = pi/2
    m = model_for_symbol(SymbolSpec("kdv"))
    f = cosine_field(1, 64, [0.0, 1.0])
    mass, mom, en = conserved_quantities(m, f, c=1.0)
    assert abs(mass) < 1e-14
    assert abs(mom - np.pi / 2.0) < 1e-12
    assert abs(en - np.pi / 2.0) < 1e-12
    z = zero_field(1, 32)
    assert conserved_quantities(m, z, c=1.0) == (0.0, 0.0, 0.0)


def test_relative_drift_scales_by_the_first_value_or_the_floor():
    assert np.array_equal(relative_drift([2.0, 3.0, 1.0]), [0.0, 0.5, -0.5])
    assert np.array_equal(relative_drift([-4.0, -3.0]), [0.0, 0.25])
    # a zero start divides by the floor: 1 for the mass, 1e-30 by default
    assert np.array_equal(relative_drift([0.0, 1e-3], 1.0), [0.0, 1e-3])
    assert np.array_equal(relative_drift([0.0, 1e-40]), [0.0, 1e-40 / 1e-30])


def test_conserved_quantities_reject_complex_field():
    # the energy's int F(U) needs real values; a complex field is refused,
    # not cut to its real part
    m = model_for_symbol(SymbolSpec("kdv"))
    f = cosine_field(1, 64, [0.0, 1.0])
    for bad in (f * 1j, zero_field(1, 32, real=False)):
        with pytest.raises(DomainError):
            conserved_quantities(m, bad, c=1.0)


def record_run(model, wave, u0, dt, n_obs, per):
    """The peak |relative_drift| of the mass, momentum and energy of u0
    and of n_obs observations every per steps."""
    series = []

    def record(t, rows):
        f = rows_field(u0.q, u0.N, rows)
        series.append(conserved_quantities(model, f, wave.c))

    ev = make_evolver(model, wave, u0, dt)
    rows = field_rows(u0)
    record(0.0, rows)
    advance(ev, rows, n_obs * per, per, record)
    mass, momentum, energy = np.array(series).T
    return [np.max(np.abs(relative_drift(s, floor)))
            for s, floor in ((mass, 1.0), (momentum, 1e-30), (energy, 1e-30))]


def test_conservation_over_perturbed_run(whitham_model, whitham_wave):
    N = 64
    uc = lift_wave(whitham_wave, 1, N)
    pert = zero_field(1, N)
    pert.set_mode(2, 0.005)
    pert.set_mode(-2, 0.005)
    dt = stable_dt(whitham_model, 1, N, u_inf=0.2)
    mass, momentum, energy = record_run(whitham_model, whitham_wave,
                                        uc + pert, dt, 20, 25)
    assert mass < 1e-13
    assert momentum < 1e-8
    assert energy < 1e-8


def test_conservation_bbm_analogues(bbm2_model, bbm2_wave):
    N = 64
    uc = lift_wave(bbm2_wave, 1, N)
    pert = zero_field(1, N)
    pert.set_mode(1, 0.004)
    pert.set_mode(-1, 0.004)
    mass, momentum, energy = record_run(bbm2_model, bbm2_wave, uc + pert,
                                        0.05, 20, 20)
    assert mass < 1e-13
    assert momentum < 1e-8
    assert energy < 1e-8


@pytest.mark.parametrize("family", ["whitham", "bbm"])
def test_dt_halving_fourth_order(family, whitham_model,
                                 whitham_wave, bbm2_model, bbm2_wave):
    model, wave = ((whitham_model, whitham_wave) if family == "whitham"
                   else (bbm2_model, bbm2_wave))
    N = 48
    uc = lift_wave(wave, 1, N)
    pert = zero_field(1, N)
    pert.set_mode(1, 0.02)
    pert.set_mode(-1, 0.02)
    u0 = uc + pert
    t_end = 4.0
    base_dt = 0.1 if family == "bbm" else 0.05

    def final(dt):
        ev = make_evolver(model, wave, u0, dt)
        return run_steps(ev, u0.copy(), int(round(t_end / dt)))[0]

    ref = final(base_dt / 8)
    e1 = l2_norm(final(base_dt) - ref)
    e2 = l2_norm(final(base_dt / 2) - ref)
    # fourth order: halving dt cuts the error ~16x (ref-corrected: 16/(1-1/16))
    assert 10.0 <= e1 / e2 <= 22.0


def test_blowup_detected():
    m = model_for_symbol(SymbolSpec("kdv"))
    from modulon import TravelingWave
    w = TravelingWave(m, zero_field(1, 64), c=0.0, a_const=0.0,
                      amplitude=0.0, residual=0.0)
    big = cosine_field(1, 64, [0.0, 40.0])
    ev = make_evolver(m, w, big, 1.0)     # wildly unstable step size
    with pytest.raises(BlowupError):
        advance(ev, field_rows(big), 50, 1, lambda t, rows: None)


def test_advance_observes_every_per_steps_and_at_the_end():
    # a stand-in stepper that counts its steps in the state
    ev = types.SimpleNamespace(dt=0.5, step_coef=lambda rows, t: rows + 1.0)
    seen = []
    advance(ev, np.zeros(1), 10, 4, lambda t, rows: seen.append((t, rows[0])))
    assert seen == [(2.0, 4.0), (4.0, 8.0), (5.0, 10.0)]


def test_advance_stops_when_observe_returns_true(whitham_model, whitham_wave):
    uc = lift_wave(whitham_wave, 1, 64)
    ev = make_evolver(whitham_model, whitham_wave, uc, 0.01)
    calls = []
    step_coef = ev.step_coef
    ev.step_coef = lambda rows, t: calls.append(t) or step_coef(rows, t)
    seen = []
    advance(ev, field_rows(uc), 20, 4,
            lambda t, rows: seen.append(t) or len(seen) == 2)
    assert len(seen) == 2
    assert len(calls) == 8


def test_advance_blowup_carries_observation_time():
    # finite through step 5, non-finite from step 6 (t = 2.5) on
    ev = types.SimpleNamespace(
        dt=0.5, step_coef=lambda rows, t: rows + (np.inf if t >= 2.5 else 1.0))
    seen = []
    with pytest.raises(BlowupError) as err:
        advance(ev, np.zeros(1), 10, 4, lambda t, rows: seen.append(t))
    assert seen == [2.0]
    assert err.value.last_time == 4.0


class _C2CTransform:
    # the former complex transform pair on the full centered spectrum

    def __init__(self, N, M):
        self.M = M
        self.idx = np.arange(-(N // 2), N // 2 + 1) % M

    def values(self, coef):
        spread = np.zeros(coef.shape[:-1] + (self.M,), dtype=np.complex128)
        spread[..., self.idx] = coef
        return scipy.fft.ifft(spread, axis=-1) * self.M

    def coef(self, vals):
        out = scipy.fft.fft(vals, axis=-1)[..., self.idx] * (1.0 / self.M)
        out[..., 0] = out[..., -1] = 0.0
        return out


def c2c_reference_steps(model, wave, N, dt, coef, n):
    """The former full-spectrum ETDRK4: c2c transforms, tables on every
    mode, and Hermitian re-symmetrization after each step."""
    xi = model.kappa * np.arange(-(N // 2), N // 2 + 1)
    jop = model.j_symbol(xi)
    lin = jop * model.energy_diag(xi, wave.c)[0]
    lin[0] = lin[-1] = 0.0
    E, E2, Q, f1, f2x2, f3 = _contour_tables(dt, lin)
    tr = _C2CTransform(N, _Transform(1, N, model.nonlinearity).M)

    def nonlinear(c):
        fv = model.nonlinearity.f(tr.values(c).real)
        return model.nl_sign * jop * tr.coef(fv)

    for _ in range(n):
        n0 = nonlinear(coef)
        a = E2 * coef + Q * n0
        na = nonlinear(a)
        b = E2 * coef + Q * na
        nb = nonlinear(b)
        cst = E2 * a + Q * (2.0 * nb - n0)
        nc = nonlinear(cst)
        coef = E * coef + f1 * n0 + f2x2 * (na + nb) + f3 * nc
        coef = 0.5 * (coef + np.conj(coef[::-1]))
    return coef


def test_contour_tables_are_the_same_in_blocks(monkeypatch):
    # three blocks, the last one partial, against one block of every mode:
    # each mode's contour mean reduces its own row, so no bit moves
    block = evolve._CONTOUR_BLOCK
    n = 2 * block + block // 3
    rng = np.random.default_rng(5)
    lam = 1j * rng.uniform(-3e5, 3e5, n) - rng.uniform(0.0, 2.0, n)
    lam[:4] = [0.0, 1e-9j, -1e-3, 3e6j]
    blocked = _contour_tables(0.02, lam)
    monkeypatch.setattr(evolve, "_CONTOUR_BLOCK", n)
    for got, want in zip(blocked, _contour_tables(0.02, lam)):
        assert np.array_equal(got, want)


def random_real_field(N, seed, scale):
    rng = np.random.default_rng(seed)
    half = (rng.standard_normal(N // 2 + 1) + 1j * rng.standard_normal(N // 2 + 1))
    half *= scale * np.exp(-0.3 * np.arange(N // 2 + 1))
    half[0] = half[0].real
    return PeriodicField(1, N, hermitian_full(half), real=True)


# the escape runs' transform (q = 8, N = 768: M = 3N/2 = 1152), a quadratic
# f at N = 38 (M = 60, the fast length from 57 on), an odd length for a
# non-integer power at N = 26 (M = 105), and one that q = 13 does not divide
# (N = 832: M = 1250, not 1248)
TRANSFORM_CASES = [
    ("bbm_linear", NonlinearitySpec("quadratic"), 2.0, 8, 768, 1152),
    ("kdv", NonlinearitySpec("quadratic"), 1.0, 1, 38, 60),
    ("kdv", NonlinearitySpec("power", p=2.5), 1.0, 1, 26, 105),
    ("bbm_linear", NonlinearitySpec("quadratic"), 2.0, 13, 832, 1250),
]


def scipy_values(half, M):
    return scipy.fft.irfft(half, n=M, axis=-1, norm="forward")


def scipy_coef(vals, N):
    out = scipy.fft.rfft(vals, axis=-1, norm="forward")[..., :N // 2 + 1]
    out[..., -1] = 0.0
    return out


def random_half(shape, N, seed):
    rng = np.random.default_rng(seed)
    half = rng.standard_normal(shape + (N // 2 + 1,)) \
        + 1j * rng.standard_normal(shape + (N // 2 + 1,))
    return 0.01 * half * np.exp(-0.05 * np.arange(N // 2 + 1))


@pytest.mark.parametrize("sym, nl, kappa, q, N, M", TRANSFORM_CASES)
def test_direct_transforms_equal_scipy_fft(sym, nl, kappa, q, N, M):
    # the stepper calls SciPy's pocketfft kernels directly; a SciPy release
    # that moves them or changes what they compute fails here
    tr = _Transform(q, N, nl)
    assert tr.M == M
    for seed, shape in enumerate([(), (3,), (2, 2), ()]):
        half = random_half(shape, N, seed)
        vals = tr.values(half)
        assert np.array_equal(vals, scipy_values(half, M))
        assert np.array_equal(tr.coef(vals * vals), scipy_coef(vals * vals, N))


@pytest.mark.parametrize("sym, nl, kappa, q, N, M", TRANSFORM_CASES)
def test_step_equals_scipy_fft_reference_step(sym, nl, kappa, q, N, M):
    model = model_for_symbol(SymbolSpec(sym), nl, kappa=kappa)
    # at a zero base the split stepper steps the half spectrum on the
    # plain transform length, not one rounded to a multiple of q
    gen = _FiberGenerator(model, 0.3, zero_field(q, N))
    ev = SplitEvolver(gen, 0.05, gen.remainder)
    assert gen.tr.M == M

    def nonlinear(half):
        vals = scipy_values(half, M)
        return gen.push * scipy_coef(model.nonlinearity.f(vals), N)

    f1, f2x2, f3 = ev.W
    for shape in [(), (2,)]:
        u = random_half(shape, N, 7)
        n0 = nonlinear(u)
        a = ev.E2 * u + ev.Q * n0
        na = nonlinear(a)
        b = ev.E2 * u + ev.Q * na
        nb = nonlinear(b)
        cst = ev.E2 * a + ev.Q * (2.0 * nb - n0)
        nc = nonlinear(cst)
        ref = ev.E * u + f1 * n0 + f2x2 * (na + nb) + f3 * nc
        assert np.array_equal(ev.step_coef(u, 0.0), ref)


# the "-False" ids mark the nonlinear flow; selections by id keep working
@pytest.mark.parametrize("name", ["bbm2", "whitham"],
                         ids=["bbm2-False", "whitham-False"])
def test_real_stepper_matches_c2c_reference(name, request):
    model = request.getfixturevalue(name + "_model")
    wave = request.getfixturevalue(name + "_wave")
    N = 64
    u0 = lift_wave(wave, 1, N) + random_real_field(N, seed=21, scale=0.005)
    dt = 0.05 if name == "bbm2" else stable_dt(model, 1, N, u_inf=0.2)
    ev = make_evolver(model, wave, u0, dt)
    f, _ = run_steps(ev, u0, 200)
    ref = c2c_reference_steps(model, wave, N, dt, u0.coef, 200)
    assert np.linalg.norm(f.coef - ref) <= 1e-13 * np.linalg.norm(ref)


def test_stepped_field_is_exactly_real(whitham_model, whitham_wave):
    u0 = lift_wave(whitham_wave, 1, 64) + random_real_field(64, 22, 0.005)
    ev = make_evolver(whitham_model, whitham_wave, u0, 0.01)
    f, _ = run_steps(ev, u0, 20)
    assert f.real
    assert f.hermitian_defect() == 0.0


def test_nonlinear_step_rejects_complex_field(whitham_model, whitham_wave):
    uc = lift_wave(whitham_wave, 1, 64)
    f = uc.copy()
    f.real = False
    gen = _FiberGenerator(whitham_model, whitham_wave.c, uc)
    for ev in (make_evolver(whitham_model, whitham_wave, f, 0.01),
               SplitEvolver(gen, 0.01, gen.remainder)):
        with pytest.raises(DomainError):
            ev.rows(f)


# -- orbital distance ---------------------------------------------------------------


def test_orbital_distance_exact_translate(whitham_wave):
    # U(x) = u_c(x - 0.3): the matching translate is u_c(x + y) at y = -0.3
    uc = whitham_wave.profile
    shift = 0.3
    moved = PeriodicField(1, uc.N, uc.coef * np.exp(-1j * uc.modes() * shift),
                          real=True)
    d, y = orbital_distance(moved, uc)
    assert d < 1e-10
    assert abs(y + shift) < 1e-8


def test_orbital_distance_zero_field(whitham_wave):
    z = zero_field(1, whitham_wave.profile.N)
    d, _ = orbital_distance(z, whitham_wave.profile)
    assert abs(d - l2_norm(whitham_wave.profile)) < 1e-12


def test_orbital_distance_absorbs_first_order(whitham_wave):
    # U = u_c + eps dx u_c: translation soaks up the first order
    uc = whitham_wave.profile
    du = PeriodicField(1, uc.N, uc.coef * (1j * uc.modes()), real=True)
    ds = {}
    for eps in (1e-3, 5e-4):
        U = uc + eps * du
        d, _ = orbital_distance(U, uc)
        ds[eps] = d
    assert ds[1e-3] / ds[5e-4] == pytest.approx(4.0, rel=0.1)
    assert ds[1e-3] < 1e-3 * l2_norm(du)


def test_orbital_distance_on_big_torus(bbm2_wave):
    uc_big = lift_wave(bbm2_wave, 4, 128)
    d, y = orbital_distance(uc_big, bbm2_wave.profile)
    assert d < 1e-12


# -- approximate solutions -------------------------------------------------------------


@pytest.fixture(scope="module")
def bbm_eigenpair(bbm2_model, bbm2_wave):
    lam, v = unstable_eigenfunction(bbm2_model, bbm2_wave, 0.125, N=64)
    return lam, v


def test_approx_order1_is_exact_sum(bbm2_model, bbm2_wave, bbm_eigenpair):
    lam, v = bbm_eigenpair
    sol = build_approximate_solution(bbm2_model, bbm2_wave, lam, v, (1, 8),
                                     delta=1e-3, n_order=1, t_end=1.0, dt=0.05)
    f = sol.field_at(0)
    uc = lift_wave(bbm2_wave, 8, sol.N)
    diff = f - uc
    u1 = sol.U1(0.0)
    assert np.max(np.abs(diff.coef - 1e-3 * u1)) < 1e-15


def test_approx_residual_orders(bbm2_model, bbm2_wave, bbm_eigenpair):
    # Richardson in delta: order-n residual ratio ~2^(n+1)
    lam, v = bbm_eigenpair
    t_end = 2.0
    ratios = {}
    for order, lo, hi in ((1, 3.6, 4.4), (2, 6.8, 9.2), (3, 13.6, 18.4)):
        res = {}
        for delta in (2e-3, 1e-3):
            sol = build_approximate_solution(bbm2_model, bbm2_wave, lam, v,
                                             (1, 8), delta=delta,
                                             n_order=order, t_end=t_end,
                                             dt=0.01, n_snapshots=5)
            res[delta] = approximate_solution_residual(sol)[-1]
        ratios[order] = res[2e-3] / res[1e-3]
        assert lo <= ratios[order] <= hi, (order, ratios[order])


def test_cascade_times_match_snapshot_grid(bbm2_model, bbm2_wave,
                                          bbm_eigenpair):
    lam, v = bbm_eigenpair
    sol = build_approximate_solution(bbm2_model, bbm2_wave, lam, v, (1, 8),
                                     delta=1e-3, n_order=2, t_end=1.0,
                                     dt=0.03, n_snapshots=5)
    assert len(sol.corrections) == 5
    assert np.allclose(sol.times, np.linspace(0.0, 1.0, 5), rtol=0.0,
                       atol=1e-14)


def test_approx_rejects_bad_order(bbm2_model, bbm2_wave, bbm_eigenpair):
    lam, v = bbm_eigenpair
    with pytest.raises(DomainError):
        build_approximate_solution(bbm2_model, bbm2_wave, lam, v, (1, 8),
                                   delta=1e-3, n_order=4, t_end=1.0, dt=0.05)


@pytest.mark.parametrize("kw", [dict(n_snapshots=1), dict(n_snapshots=0),
                                dict(t_end=0.0), dict(t_end=-1.0),
                                dict(dt=0.0), dict(dt=-0.1)])
@pytest.mark.parametrize("n_order", [1, 2, 3])
def test_approx_rejects_bad_grid(kw, n_order, bbm2_model, bbm2_wave,
                                 bbm_eigenpair):
    lam, v = bbm_eigenpair
    args = dict(delta=1e-3, n_order=n_order, t_end=1.0, dt=0.05,
                n_snapshots=5) | kw
    with pytest.raises(DomainError):
        build_approximate_solution(bbm2_model, bbm2_wave, lam, v, (1, 8),
                                   **args)
