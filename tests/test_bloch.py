import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from modulon import (PeriodicField, SymbolSpec, TravelingWave,
                     catalog_symbols, cosine_field, l2_norm, model_for_symbol,
                     refine_newton, small_amplitude_wave, zero_field)
from modulon import bloch
from modulon._blas import serial
from modulon.bloch import (BlochOperator, _peak, assemble_bloch,
                           bloch_eigvals, eigens, fit_band, rational_k0,
                           scan_bloch, unstable_eigenfunction,
                           export_spectrum_dump)
from modulon.errors import (BandFitError, DomainError, InsufficientDataError,
                            RationalApproximationError)


def synthetic_op(A, L=None, D=None, k=0.0):
    n = A.shape[0]
    return BlochOperator(k=k, N=n - 1, xi=np.arange(n, dtype=float),
                         D_diag=D if D is not None else np.ones(n),
                         L_mat=L if L is not None else np.eye(n),
                         A_mat=A)


def test_constant_state_diagonal(constant_wave_factory):
    m = model_for_symbol(SymbolSpec("kdv"))
    w = constant_wave_factory(m, c=0.9, N=32)
    op = assemble_bloch(m, w, 0.3, 32)
    n = np.arange(-16, 17)
    oracle = 1j * (n + 0.3) * ((n + 0.3) ** 2 - 0.9)
    off = op.A_mat - np.diag(np.diag(op.A_mat))
    assert np.max(np.abs(off)) == 0.0
    assert np.max(np.abs(np.diag(op.A_mat) - oracle)) < 1e-12


def test_zero_wave_kdv_kernel_modes(constant_wave_factory):
    # zero wave, k=0, KdV, c=1: L = diag(n^2 - 1), kernel at n = +-1
    m = model_for_symbol(SymbolSpec("kdv"))
    w = constant_wave_factory(m, c=1.0, N=16)
    op = assemble_bloch(m, w, 0.0, 16)
    n = np.arange(-8, 9)
    assert np.max(np.abs(np.diag(op.L_mat) - (n ** 2 - 1.0))) < 1e-14
    kernel = np.abs(np.diag(op.L_mat)) < 1e-14
    assert list(n[kernel]) == [-1, 1]


def test_toeplitz_off_diagonals():
    # f'(u_c) = 2 eps cos x contributes eps on the two off-diagonals
    eps = 0.01
    m = model_for_symbol(SymbolSpec("kdv"))
    prof = cosine_field(1, 32, [0.0, eps])     # u_c = eps cos x, f = u^2
    w = TravelingWave(m, prof, c=1.0, a_const=0.0, amplitude=eps, residual=1.0)
    op = assemble_bloch(m, w, 0.0, 16)
    T = op.L_mat - np.diag(np.diag(op.L_mat))
    up = np.diag(T, 1)
    lo = np.diag(T, -1)
    assert np.max(np.abs(up - eps)) < 1e-12
    assert np.max(np.abs(lo - eps)) < 1e-12
    T2 = T - np.diag(up, 1) - np.diag(lo, -1)
    assert np.max(np.abs(T2)) < 1e-12


def test_bloch_rejects_bad_k(bbm2_model, bbm2_wave):
    with pytest.raises(DomainError):
        assemble_bloch(bbm2_model, bbm2_wave, 1.2, 32)


def test_hermitian_L(bbm2_model, bbm2_wave, whitham_k2_model, whitham_k2_wave):
    for model, wave in [(bbm2_model, bbm2_wave),
                        (whitham_k2_model, whitham_k2_wave)]:
        op = assemble_bloch(model, wave, 0.37, 64)
        assert np.max(np.abs(op.L_mat - op.L_mat.conj().T)) < 1e-12


def test_eigens_diagonal():
    d = np.array([3.0 + 1j, -2.0, 0.5 - 4j])
    vals, vecs = eigens(synthetic_op(np.diag(d)))
    assert np.max(np.abs(np.sort_complex(vals) - np.sort_complex(d))) < 1e-14


def test_eigens_rotation_block():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    vals, _ = eigens(synthetic_op(A))
    for target in (1j, -1j):
        assert np.min(np.abs(vals - target)) < 1e-14


def test_eigens_phase_convention():
    vals, vecs = eigens(synthetic_op(np.diag(np.array([2.0, 1.0 + 0j]))))
    idx = np.argmax(np.abs(vecs), axis=0)
    lead = vecs[idx, np.arange(2)]
    assert np.max(np.abs(lead.imag)) < 1e-14
    assert np.all(lead.real > 0)


def closure_defect(vals):
    return max(float(np.min(np.abs(vals - (-np.conj(lam))))) for lam in vals)


@pytest.mark.parametrize("family", ["bbm2", "whitham_k2"])
@pytest.mark.parametrize("k", [0.0, 0.125, 0.37, 1.0])
def test_real_path_matches_complex_eigvals(request, family, k):
    model = request.getfixturevalue(family + "_model")
    wave = request.getfixturevalue(family + "_wave")
    op = assemble_bloch(model, wave, k, 96)
    vals = bloch_eigvals(op)
    ref = scipy.linalg.eigvals(op.A_mat)
    cost = np.abs(vals[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert np.max(cost[rows, cols]) <= 1e-10 * np.max(np.abs(ref))
    # the real solve pairs eigenvalues exactly
    assert closure_defect(vals) == 0.0


def test_translated_wave_takes_complex_path(bbm2_model, bbm2_wave):
    prof = bbm2_wave.profile
    shifted = PeriodicField(1, prof.N, prof.coef * np.exp(-0.3j * prof.modes()))
    wave = TravelingWave(bbm2_model, shifted, c=bbm2_wave.c,
                         a_const=bbm2_wave.a_const,
                         amplitude=bbm2_wave.amplitude,
                         residual=bbm2_wave.residual)
    op = assemble_bloch(bbm2_model, wave, 0.125, 96)
    vals = bloch_eigvals(op)
    assert np.array_equal(vals, scipy.linalg.eigvals(op.A_mat))
    assert closure_defect(vals) < 1e-8
    even = bloch_eigvals(assemble_bloch(bbm2_model, bbm2_wave, 0.125, 96))
    assert abs(np.max(vals.real) - np.max(even.real)) < 1e-10


@pytest.mark.parametrize("family", ["bbm2", "whitham_k2"])
@pytest.mark.parametrize("k", [0.0, 0.125, 0.37, 0.5])
def test_eigens_real_path_matches_complex_eig(request, eig_inputs, family,
                                              k):
    model = request.getfixturevalue(family + "_model")
    wave = request.getfixturevalue(family + "_wave")
    op = assemble_bloch(model, wave, k, 96)
    vals, vecs = eigens(op)
    assert eig_inputs == [np.dtype(float)]
    ref = scipy.linalg.eig(op.A_mat)[0]
    cost = np.abs(vals[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert np.max(cost[rows, cols]) <= 1e-10 * np.max(np.abs(ref))
    assert closure_defect(vals) == 0.0
    for j in range(5):
        Av = op.A_mat @ vecs[:, j]
        assert np.linalg.norm(Av - vals[j] * vecs[:, j]) \
            <= 1e-8 * max(1.0, np.linalg.norm(Av))
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(vals))]
    assert np.max(np.abs(lead.imag)) < 1e-14
    assert np.all(lead.real > 0)
    np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=1e-13)


def test_eigens_translated_wave_takes_complex_path(bbm2_model, bbm2_wave,
                                                   eig_inputs):
    prof = bbm2_wave.profile
    shifted = PeriodicField(1, prof.N, prof.coef * np.exp(-0.3j * prof.modes()))
    wave = TravelingWave(bbm2_model, shifted, c=bbm2_wave.c,
                         a_const=bbm2_wave.a_const,
                         amplitude=bbm2_wave.amplitude,
                         residual=bbm2_wave.residual)
    op = assemble_bloch(bbm2_model, wave, 0.125, 96)
    vals, _ = eigens(op)
    assert eig_inputs == [np.dtype(complex)]
    even, _ = eigens(assemble_bloch(bbm2_model, bbm2_wave, 0.125, 96))
    assert abs(vals[0].real - even[0].real) < 1e-10


def test_bloch_eigvals_memoized(bbm2_model, bbm2_wave):
    op = assemble_bloch(bbm2_model, bbm2_wave, 0.2, 32)
    assert bloch_eigvals(op) is bloch_eigvals(op)


def test_peak_ties_pick_smallest_k():
    samples = {0.0: np.array([0j]), 0.2: np.array([1.0 + 0j]),
               0.8: np.array([1.0 + 1e-13 + 0j]), 1.0: np.array([0j])}
    ks, rs, k0, lambda0 = _peak(samples)
    assert list(ks) == [0.0, 0.2, 0.8, 1.0]
    assert (k0, lambda0) == (0.2, 1.0 + 1e-13)
    samples[0.8] = np.array([1.0 + 1e-6 + 0j])
    assert _peak(samples)[2] == 0.8


@pytest.mark.parametrize("seed", range(4))
def test_random_hamiltonian_symmetry(seed):
    # D skew diagonal, H Hermitian: spectrum closed under -conj within 1e-8
    rng = np.random.default_rng(seed)
    n = 24
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = 0.5 * (H + H.conj().T)
    D = 1j * np.diag(rng.standard_normal(n))
    vals, _ = eigens(synthetic_op(D @ H, L=H, D=np.diag(D)),
                     )
    for lam in vals:
        assert np.min(np.abs(vals - (-np.conj(lam)))) < 1e-8


def test_scan_constant_state_null(constant_wave_factory):
    m = model_for_symbol(SymbolSpec("kdv"))
    w = constant_wave_factory(m, c=0.9, N=64)
    sp = scan_bloch(m, w, k_count=16, N=64)
    assert sp.lambda0 <= 1e-8
    assert sp.bands == []


def test_scan_bbm_band_presence(bbm2_spectrum):
    assert bbm2_spectrum.lambda0 > 1e-8
    assert len(bbm2_spectrum.bands) >= 1
    lo, hi = bbm2_spectrum.bands[0]
    assert hi > lo


def test_scan_bbm_stable_below_threshold():
    m = model_for_symbol(SymbolSpec("bbm_linear"), kappa=1.5)
    seed = small_amplitude_wave(m, a=0.05, N=64)
    w = refine_newton(m, seed, fix_amplitude=0.05, fix_a_const=0.0)
    sp = scan_bloch(m, w, k_count=32, N=64)
    assert sp.lambda0 <= 1e-8
    assert sp.bands == []


def test_scan_bbm_k0_in_lower_half(bbm2_spectrum):
    # the mirror peak at 1 - k0 ties exactly and never wins
    assert bbm2_spectrum.k0 <= 0.5


def test_scan_requires_enough_points(bbm2_model, bbm2_wave):
    with pytest.raises(DomainError):
        scan_bloch(bbm2_model, bbm2_wave, k_count=8, N=32)


def test_scan_lambda0_nonnegative(bbm2_spectrum):
    assert bbm2_spectrum.lambda0 >= 0.0


def test_conjugation_symmetry_in_k(bbm2_model, bbm2_wave):
    # spectra at k and 1-k are complex conjugates for a real base wave;
    # only the well-resolved part of the truncation (here: the top half by
    # real part, whose eigenfunctions decay inside the grid) can pair up,
    # since the two truncation windows differ by one boundary mode
    for k in (0.15, 0.33):
        v1, _ = eigens(assemble_bloch(bbm2_model, bbm2_wave, k, 48),
                       check_residual=False)
        v2, _ = eigens(assemble_bloch(bbm2_model, bbm2_wave, 1.0 - k, 48),
                       check_residual=False)
        resolved = v1[np.abs(v1) <= 0.6 * np.max(np.abs(v1))]
        assert len(resolved) >= 25
        for lam in resolved:
            assert np.min(np.abs(v2 - np.conj(lam))) < 1e-8


def _spy_solves(monkeypatch):
    """k of every Bloch operator built and solved during a scan."""
    built, solved = [], []
    build, solve = bloch._bloch_operator, bloch.bloch_eigvals

    def build_spy(model, wave, k, N, conv):
        built.append(k)
        return build(model, wave, k, N, conv)

    def solve_spy(op):
        solved.append(op.k)
        return solve(op)

    monkeypatch.setattr(bloch, "_bloch_operator", build_spy)
    monkeypatch.setattr(bloch, "bloch_eigvals", solve_spy)
    monkeypatch.setattr(bloch, "assemble_bloch", None)    # a scan builds its own
    return built, solved


def test_scan_solves_only_at_k_up_to_one_half(bbm2_model, bbm2_wave,
                                              monkeypatch):
    built, solved = _spy_solves(monkeypatch)
    sp = scan_bloch(bbm2_model, bbm2_wave, k_count=16, N=48)
    assert built == solved
    assert len(solved) == 26 and max(solved) <= 0.5
    assert len(sp.k_grid) == 40       # as many samples as solving both halves


def _lower_mirrors(sp):
    """Each sample above 1/2 with the sample below 1/2 it mirrors."""
    lower = {1.0 - k: i for i, k in enumerate(sp.k_grid) if k < 0.5}
    return [(i, lower[k]) for i, k in enumerate(sp.k_grid) if k > 0.5]


def test_scan_upper_half_is_the_conjugate_of_the_lower(bbm2_spectrum):
    pairs = _lower_mirrors(bbm2_spectrum)    # KeyError if a mirror is missing
    assert len(pairs) >= 24
    for i, j in pairs:
        assert np.array_equal(bbm2_spectrum.eigenvalues[i],
                              np.conj(bbm2_spectrum.eigenvalues[j]))


@pytest.mark.parametrize("k_count", [17, 99])
def test_scan_odd_count_puts_one_half_on_the_grid(bbm2_model, bbm2_wave,
                                                  k_count, monkeypatch):
    # np.linspace(0, 1, 99) misses 1/2 by an ulp; the scan does not
    built, _ = _spy_solves(monkeypatch)
    sp = scan_bloch(bbm2_model, bbm2_wave, k_count=k_count, N=32)
    assert 0.5 in built and max(built) == 0.5
    assert np.sum(np.abs(sp.k_grid - 0.5) < 1e-12) == 1
    assert len(_lower_mirrors(sp)) >= k_count // 2
    assert sp.k0 <= 0.5


def test_scan_band_through_one_half_is_symmetric(bbm2_spectrum):
    # the BBM m=2 a=0.05 wave has a second band around 1/2; solving both
    # halves located it at (0.4681, 0.5213)
    assert bbm2_spectrum.k0 < 0.2
    middle = [(lo, hi) for lo, hi in bbm2_spectrum.bands if lo < 0.5 < hi]
    assert len(middle) == 1
    lo, hi = middle[0]
    assert lo == 1.0 - hi and hi == 1.0 - lo
    assert 0.47 < lo < 0.49
    outer = np.array([b for b in bbm2_spectrum.bands if b not in middle])
    assert len(outer) == 2
    assert np.allclose(1.0 - outer[::-1, ::-1], outer, rtol=0.0, atol=1e-15)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(xi=st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=12),
       c=st.floats(0.2, 2.0))
def test_fold_premise_symbols_odd_and_even(xi, c):
    # J(-xi) = -J(xi) and the energy diagonal is even, exactly: with a real
    # f'(u_c) the generator at 1 - k is then the conjugate of the one at k
    xi = np.array(xi)
    for sym in catalog_symbols():
        model = model_for_symbol(sym)
        assert np.array_equal(model.j_symbol(-xi), -model.j_symbol(xi))
        for left, right in zip(model.energy_diag(-xi, c),
                               model.energy_diag(xi, c)):
            assert np.array_equal(left, right)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(sym=st.sampled_from(catalog_symbols()), kappa=st.sampled_from([1.0, 2.0]),
       a=st.floats(0.01, 0.08), k=st.floats(0.01, 0.49))
def test_fold_premise_direct_solves_at_k_and_one_minus_k(sym, kappa, a, k):
    # the two truncation windows differ by one boundary mode, so only the
    # resolved eigenpairs, those with no weight on the outer two modes at
    # either end, pair up under conjugation (Whitham's mix the most)
    model = model_for_symbol(sym, kappa=kappa)
    wave = small_amplitude_wave(model, a=a, N=32)
    with serial(33):
        v1, vecs = eigens(assemble_bloch(model, wave, k, 32),
                          check_residual=False)
        v2 = bloch_eigvals(assemble_bloch(model, wave, 1.0 - k, 32))
    edge = np.max(np.abs(vecs[[0, 1, -2, -1]]), axis=0)
    resolved = v1[edge <= 1e-6]
    assert len(resolved) >= 4
    for lam in resolved:
        assert np.min(np.abs(v2 - np.conj(lam))) < 1e-8


def test_truncation_convergence_lambda0(bbm2_model, bbm2_wave):
    sp1 = scan_bloch(bbm2_model, bbm2_wave, k_count=24, N=64)
    sp2 = scan_bloch(bbm2_model, bbm2_wave, k_count=24, N=128)
    assert abs(sp1.lambda0 - sp2.lambda0) < 1e-6


def test_n_minus_stable_under_doubling(whitham_k2_model, whitham_k2_wave,
                                       gkdv3_model, gkdv3_wave):
    # Morse index of the (differential-family) energy operator is finite
    # and stable in N
    for k in (0.1, 0.45):
        n1 = int(np.sum(np.linalg.eigvalsh(
            assemble_bloch(gkdv3_model, gkdv3_wave, k, 64).L_mat) < -1e-10))
        n2 = int(np.sum(np.linalg.eigvalsh(
            assemble_bloch(gkdv3_model, gkdv3_wave, k, 128).L_mat) < -1e-10))
        assert n1 == n2


def test_fit_band_synthetic_quadratic():
    ks = np.linspace(0.2, 0.4, 41)
    lam0, k0 = 0.01, 0.3
    rs = lam0 - (ks - k0) ** 2
    from modulon.bloch import BlochSpectrum
    sp = BlochSpectrum(k_grid=ks, eigenvalues=[np.array([r + 0j]) for r in rs],
                       lambda0=lam0, k0=0.3, bands=[(0.2, 0.4)],
                       grid_spacing=0.05)
    gc = fit_band(sp, window=0.1)
    assert gc.l == 2
    assert abs(gc.a_fit - 1.0) < 1e-4
    assert abs(gc.k0 - 0.3) < 1e-5
    assert gc.rel_residual < 0.05


def test_fit_band_synthetic_quartic():
    ks = np.linspace(0.2, 0.4, 41)
    lam0, k0 = 0.01, 0.3
    rs = lam0 - (ks - k0) ** 4
    from modulon.bloch import BlochSpectrum
    sp = BlochSpectrum(k_grid=ks, eigenvalues=[np.array([r + 0j]) for r in rs],
                       lambda0=lam0, k0=0.3, bands=[(0.2, 0.4)],
                       grid_spacing=0.05)
    gc = fit_band(sp, window=0.1)
    assert gc.l == 4
    assert abs(gc.a_fit - 1.0) < 1e-4


def test_fit_band_bbm_is_quadratic(bbm2_spectrum):
    gc = fit_band(bbm2_spectrum)
    assert gc.l == 2
    assert gc.a_fit > 0
    assert gc.rel_residual < 0.05


def test_fit_band_needs_interior_max():
    from modulon.bloch import BlochSpectrum
    ks = np.linspace(0.0, 0.1, 21)
    rs = 0.01 + 0.1 * ks     # monotone: max at the window edge
    sp = BlochSpectrum(k_grid=ks, eigenvalues=[np.array([r + 0j]) for r in rs],
                       lambda0=float(rs[-1]), k0=0.1, bands=[(0.0, 0.1)],
                       grid_spacing=0.01)
    with pytest.raises(BandFitError):
        fit_band(sp, window=0.05)


def test_fit_band_requires_samples(bbm2_spectrum):
    with pytest.raises(InsufficientDataError):
        fit_band(bbm2_spectrum, window=1e-6)


def test_rational_k0_examples():
    assert rational_k0(0.5, 10, 1e-9) == (1, 2)
    assert rational_k0(0.333333, 10, 1e-4) == (1, 3)
    assert rational_k0(0.3141593, 50, 1e-3) == (11, 35)
    assert rational_k0(0.0, 5, 1e-9) == (0, 1)
    assert rational_k0(1.0, 5, 1e-9) == (1, 1)


@pytest.mark.parametrize("seed", range(8))
def test_rational_k0_against_brute_force(seed):
    rng = np.random.default_rng(seed)
    k0 = float(rng.uniform(0, 1))
    tol = float(10.0 ** rng.uniform(-5, -2))
    q_max = int(rng.integers(5, 60))
    # brute-force oracle over all q <= q_max
    best = None
    for q in range(1, q_max + 1):
        p = int(round(k0 * q))
        err = abs(p / q - k0)
        if err <= tol:
            best = (p, q)
            break
    if best is None:
        with pytest.raises(RationalApproximationError):
            rational_k0(k0, q_max, tol)
    else:
        p, q = rational_k0(k0, q_max, tol)
        assert q == best[1]
        assert abs(p / q - k0) <= tol


def test_unstable_eigenfunction_identity(bbm2_model, bbm2_wave, bbm2_spectrum):
    k = bbm2_spectrum.k0
    lam, v = unstable_eigenfunction(bbm2_model, bbm2_wave, k, N=96)
    assert lam.real > 0
    assert abs(l2_norm(v) - 1.0) < 1e-12
    op = assemble_bloch(bbm2_model, bbm2_wave, k, 96)
    coefs = v.coef / np.linalg.norm(v.coef)
    pairing = np.vdot(coefs, op.L_mat @ coefs)
    l_norm = np.max(np.abs(np.linalg.eigvalsh(op.L_mat)))
    assert abs(pairing) < 1e-6 * l_norm


def test_unstable_eigenfunction_synthetic_diagonal(constant_wave_factory):
    # a constructed diagonal unstable generator returns a coordinate mode
    n = 9
    A = np.diag(np.array([0.3 + 0j] + [-(0.1 + 0.05 * j) * 1j
                                       for j in range(n - 1)]))
    vals, vecs = eigens(synthetic_op(A))
    assert abs(vals[0] - 0.3) < 1e-14
    lead = np.abs(vecs[:, 0])
    assert abs(lead[0] - 1.0) < 1e-12 and np.max(lead[1:]) < 1e-12


def test_unstable_eigenfunction_stable_k_errors(bbm2_model, bbm2_wave):
    with pytest.raises(DomainError):
        unstable_eigenfunction(bbm2_model, bbm2_wave, 0.3, N=64)


def test_spectrum_dump_csv(tmp_path, bbm2_spectrum):
    path = tmp_path / "dump.csv"
    export_spectrum_dump(bbm2_spectrum, path, top=5)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,re_lambda,im_lambda"
    assert len(lines) == 1 + 5 * len(bbm2_spectrum.k_grid)
    # ties at Re = 0 go to the least |Im|, so the rows listed at 1 - k are
    # the conjugates of those at k (the fold makes the spectra conjugate)
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    listed = {k: sorted(map(tuple, rows[rows[:, 0] == k, 1:]))
              for k in bbm2_spectrum.k_grid}
    mirrored = [k for k in listed if k < 0.5 and 1.0 - k in listed]
    assert len(mirrored) == 35
    for k in mirrored:
        assert listed[k] == sorted((re, -im) for re, im in listed[1.0 - k])
