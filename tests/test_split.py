"""The fiber-split stepper: w = u - u_c with e^{hA} exact on each Bloch fiber
and ETDRK4 for the remainder only."""

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import given, settings, strategies as st

from modulon import (ModelSpec, NonlinearitySpec, SymbolSpec, TravelingWave,
                     assemble_bloch, cosine_field, kernel_defect, l2_norm,
                     model_for_symbol, zero_field)
from modulon import evolve
from modulon.evolve import (SplitEvolver, _FiberGenerator, _Fibers, _Transform,
                            _matvec, _phi_tables, advance, field_rows,
                            lift_wave, rows_field)
from modulon.semigroup import fiber_norms
from modulon.experiments import (PILOT_ERROR_BUDGET, _monitor_run,
                                 eigenfunction_seed, plan_steps, StepPlan)
from modulon import experiments
from modulon._blas import serial
from modulon.fields import PeriodicField, _lift_eigenfunction, hermitian_full


def random_half(N, seed, scale=1.0):
    """Modes n = 0 .. N/2 of a random real field (Nyquist mode zero)."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal(N // 2 + 1) + 1j * rng.standard_normal(N // 2 + 1)
    half *= scale * np.exp(-0.1 * np.arange(N // 2 + 1))
    half[0] = half[0].real
    half[-1] = 0.0
    return half


def fractional_base():
    """A non-integer power (p = 2.5) around a positive 2 pi periodic state
    on q = 4; the transform length 4N = 1024 is a multiple of q."""
    model = ModelSpec("kdv_type", SymbolSpec("kdv"),
                      NonlinearitySpec("power", p=2.5))
    base = cosine_field(1, 64, [0.3, 0.05, 0.01])
    return model, 0.9, PeriodicField(4, 256,
                                     _lift_eigenfunction(base, 0, 4, 256))


def on_zero_base(ev):
    """Whether ``ev`` is the stepper of a plan without a pilot: split at
    the zero field, where its generator is the diagonal J E."""
    return isinstance(ev, SplitEvolver) and ev.gen.diagonal is not None


def cases(request):
    out = {}
    for name, q in (("bbm2", 8), ("whitham_k2", 4)):
        model = request.getfixturevalue(name + "_model")
        wave = request.getfixturevalue(name + "_wave")
        out[name] = (model, wave.c, lift_wave(wave, q, q * 48))
    out["power_2.5"] = fractional_base()
    return out


@pytest.mark.parametrize("name", ["bbm2", "whitham_k2", "power_2.5"])
def test_fiber_operator_is_the_stepper_linearization(name, request):
    model, c, base = cases(request)[name]
    gen = _FiberGenerator(model, c, base)
    zero = _FiberGenerator(model, c, zero_field(base.q, base.N))
    assert gen.tr.M == zero.tr.M
    # J E w + push P[f'(u_c) w], the right-hand side linearized at u_c: the
    # generator at a zero base is the diagonal J E
    df_uc = model.nonlinearity.df(zero.tr.values(base.coef[base.N // 2:]))
    ws = np.array([random_half(base.N, seed) for seed in range(3)])
    ref = zero.diagonal * ws + zero.push * zero.tr.coef(df_uc * zero.tr.values(ws))
    got = gen.fib.half(gen.apply(gen.fib.stack(ws)))
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


def flat_stack(fib, seed, scale):
    """A random fiber stack with a flat spectrum, so aliasing shows."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(fib.mask.shape) + 1j * rng.standard_normal(
        fib.mask.shape)
    return np.where(fib.mask, scale * x, 0.0)


@pytest.mark.parametrize("name, p", [("bbm2", 2), ("gkdv3", 3)])
def test_remainder_is_alias_free_at_the_short_length(name, p, request,
                                                      monkeypatch):
    # a degree-p product of modes |n| < N/2 reaches |n| < p N/2, so on
    # M >= (p + 1) N/2 points no alias lands on a kept mode: G equals G on
    # 2N and 3N points (the 2N floor is gone) to round-off, and aliases on
    # fewer points
    model = request.getfixturevalue(name + "_model")
    wave = request.getfixturevalue(name + "_wave")
    q, N = 8, 8 * 48
    base = lift_wave(wave, q, N)
    gen = _FiberGenerator(model, wave.c, base)
    assert gen.tr.M == q * scipy.fft.next_fast_len(-(-(p + 1) * N // (2 * q)))
    xs = [flat_stack(gen.fib, seed, 2e-2) for seed in (1, 2)]
    short = [gen.remainder(x, 0.0) for x in xs]

    def remainders(M):
        def fixed_length(q, N, nl, multiple=1):
            tr = _Transform(q, N, nl, multiple)
            tr.M = M
            return tr

        monkeypatch.setattr(evolve, "_Transform", fixed_length)
        other = _FiberGenerator(model, wave.c, base)
        assert other.tr.M == M
        return [other.remainder(x, 0.0) for x in xs]

    for M in (2 * N, 3 * N):
        for g, ref in zip(short, remainders(M)):
            assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))
    aliased = remainders(gen.tr.M - 2 * q)
    assert max(np.max(np.abs(g - a)) / np.max(np.abs(g))
               for g, a in zip(short, aliased)) > 1e-8


@pytest.mark.parametrize("name", ["bbm2", "whitham_k2", "gkdv3"])
def test_fiber_blocks_are_the_bloch_matrices(name, request):
    # the stepper and the spectrum share one operator: block r of the
    # generator on T_{2 pi q} is A at k = r/q on that fiber's modes q m + r
    model = request.getfixturevalue(name + "_model")
    wave = request.getfixturevalue(name + "_wave")
    q, N = 8, 48
    gen = _FiberGenerator(model, wave.c, lift_wave(wave, q, q * N))
    for r in range(q // 2 + 1):
        m = (gen.fib.modes[r][gen.fib.mask[r]] - r) // q
        A = assemble_bloch(model, wave, r / q, N).A_mat
        ref = A[np.ix_(m + N // 2, m + N // 2)]
        assert np.max(np.abs(gen.block(r) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["bbm2", "whitham_k2", "gkdv3"])
def test_kernel_defect_is_the_bloch_L_at_k_zero(name, request):
    model = request.getfixturevalue(name + "_model")
    wave = request.getfixturevalue(name + "_wave")
    u = wave.profile
    du = u.coef * (1j * u.modes())
    L0 = assemble_bloch(model, wave, 0.0, u.N).L_mat
    want = np.linalg.norm(L0 @ du) / np.linalg.norm(du)
    assert kernel_defect(model, wave) == pytest.approx(want, rel=1e-12, abs=0)


def test_fibers_round_trip_and_pad():
    fib = _Fibers(8, 96)
    w = random_half(96, 4)
    x = fib.stack(w)
    assert np.array_equal(fib.half(x), w)
    assert np.all(x[~fib.mask] == 0.0)
    # every mode |n| < N/2 sits in exactly one of the fibers r, 8 - r
    assert np.sum(fib.mask[1:4]) * 2 + np.sum(fib.mask[[0, 4]]) == 95


def concatenate_and_index_maps(q, N):
    """The fiber maps as they were: one gather array and one scatter array
    into the concatenation [x, conj(x), 0], where a pad reads the zero."""
    half = N // 2
    n = np.arange(1 - half, half)
    rows = [n[n % q == r] for r in range(q // 2 + 1)]
    size = max(len(ns) for ns in rows)
    count = len(rows) * size
    gather = np.full((len(rows), size), 2 * (half + 1))
    slot = {}
    for r, ns in enumerate(rows):
        gather[r, :len(ns)] = np.where(ns >= 0, ns, half + 1 - ns)
        slot.update((int(v), r * size + j) for j, v in enumerate(ns))
    scatter = np.array([slot[k] if k % q <= q // 2 else count + slot[-k]
                        for k in range(half)] + [2 * count])

    def with_conj(x):
        zero = np.zeros(x.shape[:-1] + (1,))
        return np.concatenate((x, np.conj(x), zero), axis=-1)

    def stack(half_modes):
        return with_conj(half_modes)[..., gather]

    def to_half(x):
        return with_conj(x.reshape(x.shape[:-2] + (-1,)))[..., scatter]

    return stack, to_half


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(q=st.integers(1, 16), half=st.integers(2, 40),
       lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fiber_maps_equal_the_concatenate_and_index_form(q, half, lead, seed):
    N = 2 * half
    fib = _Fibers(q, N)
    stack, to_half = concatenate_and_index_maps(q, N)
    rng = np.random.default_rng(seed)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # any input: a complex mode 0, a nonzero Nyquist mode, filled pads
    w = noise(lead + (half + 1,))
    x = noise(lead + fib.mask.shape)
    assert np.array_equal(fib.stack(w), stack(w))
    assert np.all(fib.stack(w)[..., ~fib.mask] == 0.0)
    assert np.array_equal(fib.half(x), to_half(x))
    w[..., -1] = 0.0
    assert np.array_equal(fib.half(fib.stack(w)), w)
    # the transform buffer: the stack written straight in, read straight out
    tr = _Transform(q, N, NonlinearitySpec("quadratic"), multiple=q)
    tr.values(noise(lead + (half + 1,)))     # a half write with a Nyquist mode
    buf = np.zeros(lead + (tr.M // 2 + 1,), dtype=np.complex128)
    buf[..., :half + 1] = to_half(x)
    vals = tr.values(x, fib)
    assert np.array_equal(vals, tr.values(to_half(x)))
    assert np.array_equal(tr._pads[False, lead], buf)
    got = tr.coef(vals * vals, fib)
    assert np.array_equal(got, stack(tr.coef(vals * vals)))
    assert np.all(got[..., ~fib.mask] == 0.0)


def test_stacked_states_step_row_by_row(bbm2_model, bbm2_wave):
    # leading axes of a state (the cascade's U_2, U_3) step independently
    gen = _FiberGenerator(bbm2_model, bbm2_wave.c,
                          lift_wave(bbm2_wave, 8, 8 * 24))
    ev = SplitEvolver(gen, 0.5, lambda x, t: np.sin(t) * x * x)
    ws = np.array([random_half(8 * 24, seed, 1e-2) for seed in (5, 6)])
    x = gen.fib.stack(ws)
    assert np.array_equal(gen.fib.half(x), ws)
    both = ev.step_coef(x, 0.3)
    for row, xr in zip(both, x):
        assert np.array_equal(row, ev.step_coef(xr, 0.3))


def linear_norms(ev, u, n):
    """L2 norms of u after 0 .. n steps of ``ev``, and the states."""
    x = ev.gen.fib.stack(field_rows(u))
    states = [x]
    for _ in range(n):
        states.append(ev.step_coef(states[-1], 0.0))
    q, N = u.q, u.N
    return (np.array([l2_norm(rows_field(q, N, ev.gen.fib.half(s)))
                      for s in states]), states)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 999),
       steps=st.sampled_from([(0.5, 1.5, 2.0), (1.0, 0.25, 3.0),
                              (2.0, 1.0, 0.5)]))
def test_split_stepper_without_G_keeps_fiber_norms(seed, steps, bbm2_model,
                                                   bbm2_wave):
    # with G = 0 a step is e^{hA} on each fiber; h -> h' -> h reuses the
    # held tables of h, and a third step drops the least recently used
    h, h2, h3 = steps
    q, N, n = 8, 8 * 24, 6
    u = rows_field(q, N, random_half(N, seed, 1e-3))
    gen = _FiberGenerator(bbm2_model, bbm2_wave.c, lift_wave(bbm2_wave, q, N))
    ev = SplitEvolver(gen, h, lambda x, t: np.zeros_like(x))
    for step in (h, h2):
        ev.tabulate(step)
        got, states = linear_norms(ev, u, n)
        want = fiber_norms(bbm2_model, bbm2_wave, u, step, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        if step == h:
            first = states
    calls = []

    def counted(*args):
        calls.append(args[0])
        return _phi_tables(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_phi_tables", counted)
        ev.tabulate(h)
        assert calls == []
        _, again = linear_norms(ev, u, n)
        fresh = SplitEvolver(gen, h, ev.G)
        assert len(calls) == len(gen.fib.modes)
        _, new = linear_norms(fresh, u, n)
        for a, b, c in zip(first, again, new):
            assert np.array_equal(a, b) and np.array_equal(a, c)
        ev.tabulate(h3)
    assert list(ev._held) == [h, h3]


@pytest.mark.parametrize("h", [0.3, 2.0, 4.0])   # scaling exponents 0, 2, 3
def test_phi_tables_match_the_augmented_expm(h, bbm2_model, bbm2_wave):
    gen = _FiberGenerator(bbm2_model, bbm2_wave.c,
                          lift_wave(bbm2_wave, 8, 8 * 24))
    A = gen.block(0)
    n = len(A)
    B = np.zeros((4 * n, 4 * n), dtype=np.complex128)
    B[:n, :n] = h * A
    B[np.arange(3 * n), np.arange(n, 4 * n)] = 1.0
    X = scipy.linalg.expm(B)[:n]
    p1, p2, p3 = (X[:, j * n:(j + 1) * n] for j in (1, 2, 3))
    half = scipy.linalg.expm(0.5 * h * A)
    want = (half, None, h * (p1 - 3 * p2 + 4 * p3), 2 * h * (p2 - 2 * p3),
            h * (4 * p3 - p2))
    got = _phi_tables(h, A)
    for g, w in zip(got, want):
        if w is not None:
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
    assert np.max(np.abs(got[0] @ got[0] - X[:, :n])) <= 1e-12


def test_wave_is_a_fixed_point(bbm2_model, bbm2_wave):
    uc = lift_wave(bbm2_wave, 8, 8 * 48)
    gen = _FiberGenerator(bbm2_model, bbm2_wave.c, uc)
    ev = SplitEvolver(gen, 1.0, gen.remainder)
    rows = advance(ev, ev.rows(uc), 50, 50, lambda t, rows: False)
    assert np.max(np.abs(rows)) < 1e-14


def test_split_agrees_with_diagonal_stepper_and_keeps_mode_zero(
        bbm2_model, bbm2_wave):
    q, N = 8, 8 * 24
    uc = lift_wave(bbm2_wave, q, N)
    w0 = random_half(N, 7, 1e-3)
    w0[0] = 0.0
    u0 = uc + PeriodicField(q, N, hermitian_full(w0), real=True)
    h, n = 0.05, 100
    gen = _FiberGenerator(bbm2_model, bbm2_wave.c, uc)
    split = SplitEvolver(gen, h, gen.remainder)
    diag = plan_steps(bbm2_model, bbm2_wave, uc, h, n).ev
    assert on_zero_base(diag)
    end = advance(split, split.rows(u0), n, n, lambda t, rows: False)
    ref = advance(diag, diag.rows(u0), n, n, lambda t, rows: False)
    assert np.all(end[split.gen.fib.modes == 0] == 0.0)   # w's mode 0
    got = split.field(end).coef
    w_ref = diag.field(ref).coef - uc.coef
    assert np.max(np.abs(got - uc.coef - w_ref)) <= 1e-9 * np.max(np.abs(w_ref))
    assert got[N // 2] == uc.coef[N // 2]     # so mode 0 of u keeps its value


@pytest.fixture(scope="module")
def escape_case(bbm2_model, bbm2_wave, bbm2_spectrum):
    """The escape workload's wave and seed at q = 8, its theta0 and the
    observation interval of 798 steps of 0.1."""
    _, q, lam, u1 = eigenfunction_seed(bbm2_model, bbm2_wave, bbm2_spectrum,
                                       8, 96, 96)
    uc = lift_wave(bbm2_wave, q, u1.N)
    return bbm2_model, bbm2_wave, uc, u1, 0.05 * l2_norm(uc), 0.1, 798


@pytest.fixture(scope="module")
def escape_plan(escape_case):
    model, wave, uc, u1, theta0, dt, per = escape_case
    return plan_steps(model, wave, uc, dt, per, theta0, u1)


def escape_run(escape_case, plan, delta, t_max=2000.0):
    model, wave, uc, u1, theta0, dt, per = escape_case
    return _monitor_run(model, wave, uc + delta * u1, uc, dt, t_max, per * dt,
                        theta0, "orbital", plan)


def band_tables(ev):
    """Each fiber's five tables of ``ev`` in band form, back as dense
    (fibers, 5, size, size) arrays."""
    F, size = ev.gen.fib.mask.shape
    b = ev.band
    tab = np.array([ev.E2, ev.Q, *ev.W]).reshape(5, F, size, 2 * b + 1)
    i = np.arange(size)[:, None]
    cols = i + np.arange(-b, b + 1)
    inside = (cols >= 0) & (cols < size)
    out = np.zeros((F, 5, size, size), dtype=np.complex128)
    for r in range(F):
        out[r][:, np.broadcast_to(i, cols.shape)[inside], cols[inside]] = \
            tab[:, r][:, inside]
    return out


def assert_band_drops_only_round_off(ev):
    # every entry left out is at most 2^-53 of its fiber table's largest
    F, size = ev.gen.fib.mask.shape
    assert ev.E2.shape == (F * size, 2 * ev.band + 1)
    kept = band_tables(ev)
    for r in range(F):
        for T, K in zip(_phi_tables(ev.dt, ev.gen.block(r)), kept[r]):
            k = len(T)
            assert np.all(K[k:] == 0.0) and np.all(K[:, k:] == 0.0)
            assert np.max(np.abs(T - K[:k, :k])) <= 2.0 ** -53 * np.max(np.abs(T))


class DenseSplit:
    """The split step of ``ev`` on dense tables from ``_phi_tables``,
    applied by ``_matvec``: the reference for the band form."""

    def __init__(self, ev):
        F, size = ev.gen.fib.mask.shape
        self.G, self.dt = ev.G, ev.dt
        self.tables = np.zeros((5, F, size, size), dtype=np.complex128)
        for r in range(F):
            for T, D in zip(_phi_tables(ev.dt, ev.gen.block(r)),
                            self.tables[:, r]):
                D[:len(T), :len(T)] = T

    def step_coef(self, x, t):
        (E2, Q, f1, f2, f3), G, h = self.tables, self.G, self.dt
        n0 = G(x, t)
        e2u = _matvec(E2, x)
        a = e2u + _matvec(Q, n0)
        na = G(a, t + h / 2.0)
        b = e2u + _matvec(Q, na)
        nb = G(b, t + h / 2.0)
        c = _matvec(E2, a) + _matvec(Q, 2.0 * nb - n0)
        nc = G(c, t + h)
        return (_matvec(E2, e2u) + _matvec(f1, n0) + _matvec(f2, na + nb)
                + _matvec(f3, nc))


def assert_band_steps_match_dense(ev, x, n):
    ends = [advance(e, x, n, n, lambda t, rows: False)
            for e in (ev, DenseSplit(ev))]
    assert np.linalg.norm(ends[0] - ends[1]) <= 1e-13 * np.linalg.norm(ends[1])


def test_escape_tables_take_a_narrow_band(escape_case, escape_plan):
    ev = escape_plan.ev
    assert 2 * ev.band + 1 <= ev.gen.fib.size / 2       # b = 8 of 96 modes
    assert_band_drops_only_round_off(ev)


def test_band_interval_matches_the_dense_tables(escape_case, escape_plan):
    # one escape interval from u_c + theta0 u1
    model, wave, uc, u1, theta0, dt, per = escape_case
    ev = escape_plan.ev
    start = uc + u1 * (theta0 / l2_norm(u1))
    assert_band_steps_match_dense(ev, ev.rows(start), escape_plan.n)


def test_whitham_tables_take_a_wide_band(whitham_k2_model, whitham_k2_wave):
    # Whitham kappa = 2 at q = 7: b = 30 of 96 modes, and 20 steps still
    # match the dense tables
    gen = _FiberGenerator(whitham_k2_model, whitham_k2_wave.c,
                          lift_wave(whitham_k2_wave, 7, 7 * 96))
    ev = SplitEvolver(gen, 0.5, gen.remainder)
    assert 4 * ev.band > gen.fib.size
    assert_band_drops_only_round_off(ev)
    assert_band_steps_match_dense(
        ev, gen.fib.stack(random_half(7 * 96, 3, 1e-4)), 20)


def test_band_product_does_not_depend_on_blas_threads(escape_case,
                                                      escape_plan, two_threads):
    model, wave, uc, u1, theta0, dt, per = escape_case
    ev, n = escape_plan.ev, escape_plan.n
    x = ev.rows(uc + u1 * (theta0 / l2_norm(u1)))
    threaded = advance(ev, x, n, n, lambda t, rows: False)
    with serial(ev.gen.fib.size):
        one = advance(ev, x, n, n, lambda t, rows: False)
    assert np.array_equal(threaded, one)


def test_escape_time_converges_under_step_halving(escape_case, escape_plan):
    # the escape workload's wave and seed, delta = 1e-2
    plan, per = escape_plan, escape_case[-1]
    assert isinstance(plan.ev, SplitEvolver)
    assert plan.n < per
    assert 0.0 < plan.pilot_error <= PILOT_ERROR_BUDGET
    ev = plan.ev
    fine = StepPlan(SplitEvolver(ev.gen, ev.dt / 2, ev.G), 2 * plan.n, per,
                    plan.size)
    runs = [escape_run(escape_case, p, 1e-2) for p in (plan, fine)]
    T, T_half = (r.escape_time for r in runs)
    assert abs(T - T_half) <= 1e-6 * T_half
    assert runs[0].steps == plan.n * (len(runs[0].times) - 1)
    for r in runs:
        assert r.mass_drift == 0.0
        assert r.energy_drift <= 1e-9


def recorded_intervals(monkeypatch):
    """The (start time, steps) of every ``advance`` call in experiments."""
    intervals = []

    def recorded(ev, rows, n_steps, per, observe, t0=0.0):
        intervals.append((t0, n_steps))
        return advance(ev, rows, n_steps, per, observe, t0)

    monkeypatch.setattr(experiments, "advance", recorded)
    return intervals


def test_pilot_checks_only_the_step_it_keeps(escape_case, monkeypatch):
    # one interval at 2n, the h/2 check of the chosen n, and no other
    intervals = recorded_intervals(monkeypatch)
    model, wave, uc, u1, theta0, dt, per = escape_case
    plan = plan_steps(model, wave, uc, dt, per, theta0, u1)
    tries = [m for _, m in intervals]
    assert [m for m in tries if m % 2 == 0 and m // 2 in tries] == [2 * plan.n]
    assert tries.count(plan.n) == 1       # the check reused its w
    assert sum(tries) <= 350
    assert plan.theta0 == pytest.approx(theta0, rel=1e-12)


def test_ladder_keeps_the_escape_time_and_the_drift(escape_case, escape_plan):
    plan = escape_plan
    fixed = StepPlan(plan.ev, plan.n, plan.per, plan.size)  # no pilot error
    ladder, ref = (escape_run(escape_case, p, 1e-3, 6000.0)
                   for p in (plan, fixed))
    assert ref.steps == plan.n * (len(ref.times) - 1)
    assert ladder.steps < ref.steps
    assert np.array_equal(ladder.times, ref.times)
    assert abs(ladder.escape_time - ref.escape_time) <= 1e-7 * ref.escape_time
    assert ladder.energy_drift <= 1e-9
    assert ladder.mass_drift == 0.0
    assert plan.ev.dt == plan.per * escape_case[-2] / plan.n   # restored


def test_ladder_counts_the_steps_and_redone_intervals(escape_case, escape_plan,
                                                      monkeypatch):
    # delta = 1e-2 starts at 0.8 theta0: the error law allows n / 2, whose
    # energy change is too large, so the first interval is redone at n
    intervals, calls = recorded_intervals(monkeypatch), [0]

    def step_coef(self, x, t, _step=SplitEvolver.step_coef):
        calls[0] += 1
        return _step(self, x, t)

    monkeypatch.setattr(SplitEvolver, "step_coef", step_coef)
    run = escape_run(escape_case, escape_plan, 1e-2)
    starts = [t0 for t0, _ in intervals]
    accepted = [m for i, (t0, m) in enumerate(intervals)
                if starts[i + 1:i + 2] != [t0]]     # the next one is not a redo
    assert calls[0] == sum(m for _, m in intervals)
    assert run.redone == len(intervals) - len(accepted) >= 1
    assert run.steps == sum(accepted)
    assert len(accepted) == len(run.times) - 1


def test_run_from_theta0_uses_the_plan_step_only(escape_case, escape_plan,
                                                 monkeypatch):
    model, wave, uc, u1, theta0, dt, per = escape_case
    intervals = recorded_intervals(monkeypatch)
    run = _monitor_run(model, wave, uc + theta0 * u1, uc, dt, 3 * per * dt,
                       per * dt, 10 * theta0, "plain", escape_plan)
    assert len(run.times) == 4
    assert run.steps == 3 * escape_plan.n
    assert [m for _, m in intervals[run.redone:]] == [escape_plan.n] * 3


def test_plan_without_pilot_keeps_the_diagonal_stepper(bbm2_model, bbm2_wave):
    # modulon evolve: theta0 = 0, so the step is dt on a zero base
    uc = lift_wave(bbm2_wave, 2, 2 * 24)
    for theta0, u1 in ((0.0, cosine_field(2, 48, [0.0, 1.0])), (1e-2, None)):
        plan = plan_steps(bbm2_model, bbm2_wave, uc, 0.1, 4, theta0, u1)
        assert on_zero_base(plan.ev)
        assert (plan.n, plan.per, plan.ev.dt, plan.pilot_error) == \
            (4, 4, 0.1, None)


def test_pilot_error_budget_refines_the_step(bbm2_model, bbm2_wave,
                                            monkeypatch):
    # the h against h/2 check, not the energy drift, decides here
    uc = lift_wave(bbm2_wave, 2, 2 * 24)
    u1 = cosine_field(2, 48, [0.0, 1.0])
    plan = plan_steps(bbm2_model, bbm2_wave, uc, 0.1, 40, 1e-2, u1)
    budget = plan.pilot_error / 100
    monkeypatch.setattr("modulon.experiments.PILOT_ERROR_BUDGET", budget)
    tight = plan_steps(bbm2_model, bbm2_wave, uc, 0.1, 40, 1e-2, u1)
    assert isinstance(tight.ev, SplitEvolver)
    assert plan.n < tight.n < 40
    assert tight.pilot_error <= budget


def test_large_fiber_stacks_keep_the_diagonal_stepper(bbm2_model, bbm2_wave,
                                                      monkeypatch):
    uc = lift_wave(bbm2_wave, 2, 2 * 24)
    u1 = cosine_field(2, 48, [0.0, 1.0])
    plans = [plan_steps(bbm2_model, bbm2_wave, uc, 0.1, 5, 1e-2, u1)]
    monkeypatch.setattr("modulon.experiments.SPLIT_MAX_ENTRIES", 0)
    plans.append(plan_steps(bbm2_model, bbm2_wave, uc, 0.1, 5, 1e-2, u1))
    assert isinstance(plans[0].ev, SplitEvolver) and plans[0].n < 5
    assert on_zero_base(plans[1].ev) and plans[1].n == 5
    split, diag = (_monitor_run(bbm2_model, bbm2_wave, uc + 1e-3 * u1, uc,
                                0.1, 2.0, 0.5, 1e-2, "plain", p)
                   for p in plans)
    assert np.array_equal(split.times, diag.times)
    assert (split.steps, diag.steps) == (4 * plans[0].n, 20)
    assert np.allclose(split.pert_norm, diag.pert_norm, rtol=1e-9, atol=0.0)


def test_diagonal_plan_steps_dt_when_per_dt_over_per_rounds(bbm2_model,
                                                           bbm2_wave):
    # 3 * 0.1 / 3 is not 0.1 in floating point; the plan's step is kept
    uc = lift_wave(bbm2_wave, 2, 2 * 24)
    u1 = cosine_field(2, 48, [0.0, 1.0])
    plan = plan_steps(bbm2_model, bbm2_wave, uc, 0.1, 3)
    assert 3 * 0.1 / 3 != 0.1 and on_zero_base(plan.ev)
    run = _monitor_run(bbm2_model, bbm2_wave, uc + 1e-3 * u1, uc, 0.1, 1.0,
                       0.3, 0.0, "plain", plan)
    assert (run.steps, run.redone, len(run.times)) == (10, 0, 5)
    assert run.step == plan.ev.dt == 0.1


def test_pilot_without_a_step_in_budget_keeps_the_diagonal_stepper():
    # every try blows up, as in test_monitor_run_raises_on_blowup
    m = model_for_symbol(SymbolSpec("kdv"))
    w = TravelingWave(m, zero_field(1, 64), c=0.0, a_const=0.0,
                      amplitude=0.0, residual=0.0)
    big = cosine_field(1, 64, [0.0, 40.0])
    plan = plan_steps(m, w, zero_field(1, 64), 1.0, 50, 1e3, big)
    assert on_zero_base(plan.ev)
    assert (plan.n, plan.ev.dt, plan.pilot_error) == (50, 1.0, None)
