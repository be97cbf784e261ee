import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from modulon import SymbolSpec, model_for_symbol, semigroup
from modulon.bloch import BlochOperator, assemble_bloch
from modulon.errors import (ContourError, DomainError, PropagatorRangeError,
                            StructureViolationError)
from modulon.experiments import build_band_packet
from modulon.fields import (PeriodicField, l2_norm, midpoint_band_nodes,
                            synthesize_packet)
from modulon.semigroup import (PropagatorProbe, dual_propagator_norm,
                               fiber_norms, probe_growth, propagator_norm,
                               riesz_projection, trichotomy_split)


def random_structured_op(n=16, seed=0, unstable=False):
    """D (skew diagonal) times a real symmetric H, the Hamiltonian shape of
    the truncations; real H matches even real base waves."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, n))
    H = 0.5 * (H + H.T)
    if not unstable:
        H = H @ H.T + 0.1 * np.eye(n)    # definite energy: purely imaginary spectrum
    D = 1j * np.diag(rng.standard_normal(n))
    A = D @ H
    return BlochOperator(k=0.25, N=n - 1, xi=np.linspace(-2, 2, n),
                         D_diag=np.diag(D), L_mat=H.astype(complex), A_mat=A)


def test_propagator_identity_at_t0(bbm2_model, bbm2_wave):
    op = assemble_bloch(bbm2_model, bbm2_wave, 0.11, 48)
    for s in (-1.0, 0.0, 1.0):
        assert abs(propagator_norm(op, 0.0, s) - 1.0) < 1e-12


def test_constant_state_unitary(constant_wave_factory):
    m = model_for_symbol(SymbolSpec("kdv"))
    op = assemble_bloch(m, constant_wave_factory(m, c=0.9, N=32), 0.3, 32)
    for t in (0.5, 2.0, 10.0):
        assert abs(propagator_norm(op, t, 0.0) - 1.0) < 1e-9


def test_unstable_log_norm_approaches_lambda0(bbm2_model, bbm2_wave,
                                              bbm2_spectrum):
    k = bbm2_spectrum.k0
    op = assemble_bloch(bbm2_model, bbm2_wave, k, 64)
    lam0 = float(np.max(np.linalg.eigvals(op.A_mat).real))
    t = 20.0
    rate = np.log(propagator_norm(op, t, 0.0)) / t
    # dominant-eigenvalue asymptotics; transient constants decay like 1/t
    assert rate == pytest.approx(lam0, abs=0.35 / t)


def test_slope_within_growth_bound(bbm2_model, bbm2_wave, bbm2_spectrum):
    # measured slope over t in [5, 20] within [lambda0 - 0.05, lambda0 + 0.05]
    k = bbm2_spectrum.k0
    op = assemble_bloch(bbm2_model, bbm2_wave, k, 64)
    lam0 = bbm2_spectrum.lambda0
    for s in (-1.0, 0.0, 1.0):
        probe = probe_growth(op, s)
        slope = probe.log_slope()
        assert lam0 - 0.05 <= slope <= lam0 + 0.05


def test_probe_records_monotone_time_grid(bbm2_model, bbm2_wave):
    op = assemble_bloch(bbm2_model, bbm2_wave, 0.11, 32)
    probe = probe_growth(op, 0.0, t_min=0.0, t_max=2.0, samples=21)
    assert abs(probe.norms[0] - 1.0) < 1e-12
    ratios = probe.norms[1:] / probe.norms[:-1]
    assert np.max(ratios) < 10.0          # no jumps on a dt <= 0.1 grid


def test_propagator_negative_time_rejected(bbm2_model, bbm2_wave):
    op = assemble_bloch(bbm2_model, bbm2_wave, 0.11, 32)
    with pytest.raises(DomainError):
        propagator_norm(op, -1.0)
    # the probe's chain needs nondecreasing times from t = 0
    for t_grid in ([-1.0, 0.0], [0.0, 2.0, 1.0]):
        with pytest.raises(DomainError):
            PropagatorProbe(op, np.array(t_grid), 0.0).run()


def test_propagator_overflow_guard():
    op = random_structured_op(8, seed=3)
    op.A_mat = np.diag([2.0 + 0j] * 8)     # abscissa 2
    with pytest.raises(PropagatorRangeError) as err:
        propagator_norm(op, 1e4)
    assert err.value.t_cap is not None
    with pytest.raises(PropagatorRangeError) as err:
        probe_growth(op, 0.0, t_max=1e4)
    assert err.value.t_cap is not None


def _relerr(a, b):
    return np.max(np.abs(np.asarray(a) - b) / np.abs(b))


@pytest.mark.parametrize("wave", ["bbm2", "whitham_k2"])
def test_probe_chain_matches_direct_propagator_norm(request, wave):
    # the per-t direct expm is the reference for the chained probe norms
    model = request.getfixturevalue(wave + "_model")
    k0 = request.getfixturevalue(wave + "_spectrum").k0
    op = assemble_bloch(model, request.getfixturevalue(wave + "_wave"), k0,
                        64 if wave == "bbm2" else 96)
    for s in (-1.0, 0.0, 1.0):
        probe = probe_growth(op, s)
        direct = [propagator_norm(op, t, s) for t in probe.t_grid]
        assert _relerr(probe.norms, direct) <= 1e-12
    I = np.eye(op.A_mat.shape[0], dtype=complex)
    *_, E = semigroup._expm_chain(op.A_mat, I, probe.t_grid, op._expm_steps)
    E_direct = scipy.linalg.expm(probe.t_grid[-1] * op.A_mat)
    assert (np.linalg.norm(E - E_direct, 2) <=
            1e-12 * np.linalg.norm(E_direct, 2))


def test_probes_share_two_exponentials_per_operator(bbm2_model, bbm2_wave,
                                                   monkeypatch):
    calls = []
    expm = scipy.linalg.expm

    def counting_expm(M):
        calls.append(M.shape)
        return expm(M)

    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    op = assemble_bloch(bbm2_model, bbm2_wave, 0.11, 32)
    for s in (-1.0, 0.0, 1.0):
        probe_growth(op, s)          # spacings {5, 1} on linspace(5, 20, 16)
    assert len(calls) == 2


def test_probe_nonuniform_grid_matches_direct(bbm2_model, bbm2_wave):
    # five distinct spacings (0, 0.3, 0.7, 0.1, 2.9), one expm each
    op = assemble_bloch(bbm2_model, bbm2_wave, 0.11, 32)
    t_grid = np.array([0.0, 0.3, 1.0, 1.1, 4.0])
    for s in (-1.0, 0.0, 1.0):
        probe = PropagatorProbe(op, t_grid, s).run()
        assert _relerr(probe.norms,
                       [propagator_norm(op, t, s) for t in t_grid]) <= 1e-12


def test_probe_log_slope_defaults_to_its_grid(bbm2_model, bbm2_wave):
    op = assemble_bloch(bbm2_model, bbm2_wave, 0.11, 32)
    probe = probe_growth(op, 0.0, t_min=0.0, t_max=2.0, samples=21)
    fit = np.polyfit(probe.t_grid, np.log(probe.norms), 1)[0]
    assert probe.log_slope() == fit
    default = probe_growth(op, 0.0)
    assert default.log_slope() == default.log_slope(5.0, 20.0)


@pytest.mark.parametrize("seed", range(5))
def test_duality_identity_random_ops(seed):
    # H^1 norm of exp(t L D) equals the H^{-1} norm of exp(t D L)
    op = random_structured_op(14, seed=seed)
    for t in (0.3, 1.0):
        dual = dual_propagator_norm(op, t, check=False)
        direct = propagator_norm(op, t, s=-1.0)
        assert abs(dual - direct) <= 1e-8 * max(1.0, direct)


def test_duality_identity_wave_op(bbm2_model, bbm2_wave, whitham_k2_model,
                                  whitham_k2_wave):
    for model, wave in [(bbm2_model, bbm2_wave),
                        (whitham_k2_model, whitham_k2_wave)]:
        op = assemble_bloch(model, wave, 0.125, 48)
        val = dual_propagator_norm(op, 1.5, check=True)   # asserts internally
        assert val >= 1.0 - 1e-12


def test_dual_identity_at_t0(bbm2_model, bbm2_wave):
    op = assemble_bloch(bbm2_model, bbm2_wave, 0.11, 32)
    assert abs(dual_propagator_norm(op, 0.0) - 1.0) < 1e-12


def test_constant_state_dual_unitary(constant_wave_factory):
    m = model_for_symbol(SymbolSpec("kdv"))
    op = assemble_bloch(m, constant_wave_factory(m, c=0.9, N=32), 0.3, 32)
    for t in (1.0, 5.0):
        assert abs(dual_propagator_norm(op, t) - 1.0) < 1e-9


# -- Riesz projections ------------------------------------------------------------


def test_riesz_empty_contour():
    M = np.diag([1.0 + 0j, 5.0])
    P = riesz_projection(M, center=-10.0, radius=2.0)
    assert np.linalg.norm(P) < 1e-10


def test_riesz_diagonal_selector():
    M = np.diag([1.0 + 0j, 5.0])
    P = riesz_projection(M, center=0.0, radius=2.0)
    assert np.max(np.abs(P - np.diag([1.0, 0.0]))) < 1e-10


def test_riesz_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    vals, vecs = np.linalg.eig(M)
    center = vals[0] + 0.0
    radius = 0.3 * np.min(np.abs(vals - center)[np.abs(vals - center) > 1e-9])
    inside = np.abs(vals - center) < radius
    P = riesz_projection(M, center, radius)
    # oracle: spectral projector from the eigenbasis
    Pi = np.zeros_like(M)
    vinv = np.linalg.inv(vecs)
    for i in np.nonzero(inside)[0]:
        Pi += np.outer(vecs[:, i], vinv[i])
    assert np.linalg.norm(P - Pi, 2) < 1e-8


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       contour=st.sampled_from(["one", "cluster", "empty", "full"]))
def test_riesz_matches_the_eigendecomposition_oracle_on_random_contours(
        n, seed, contour):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vals, vecs = np.linalg.eig(M)
    assume(np.linalg.cond(vecs) < 1e4)
    spread = float(np.max(np.abs(vals))) + 1.0
    if contour == "empty":
        center, radius = 3.0 * spread, spread
    elif contour == "full":
        center, radius = 0.0, 2.0 * spread
    else:
        # a circle about one eigenvalue, or about a point enclosing the
        # nearest few, clear of the rest
        center = vals[0] if contour == "one" else complex(rng.standard_normal(2) @ [1, 1j])
        d = np.sort(np.abs(vals - center))
        cut = 1 if contour == "one" else int(rng.integers(1, n + 1))
        radius = 0.5 * (d[cut - 1] + d[cut]) if cut < n else 2.0 * spread
        assume(radius > 0.0)
    assume(np.min(np.abs(np.abs(vals - center) - radius)) > radius / 100.0)
    P = riesz_projection(M, center, radius)
    inside = np.abs(vals - center) < radius
    oracle = vecs[:, inside] @ np.linalg.inv(vecs)[inside]
    assert np.linalg.norm(P - oracle, 2) <= 1e-8 * max(1.0, np.linalg.norm(oracle, 2))
    if contour == "empty":
        assert not np.any(P)
    if contour == "full":
        assert np.linalg.norm(P - np.eye(n), 2) <= 1e-12


def test_riesz_idempotence_and_rank(bbm2_model, bbm2_wave):
    op = assemble_bloch(bbm2_model, bbm2_wave, 0.11, 32)
    vals = np.linalg.eigvals(op.L_mat.astype(complex))
    P = riesz_projection(op.L_mat.astype(complex), center=0.0, radius=0.45)
    assert np.linalg.norm(P @ P - P, 2) < 1e-8
    n_inside = int(np.sum(np.abs(vals) < 0.45))
    assert int(round(np.trace(P).real)) == n_inside


def test_riesz_contour_near_eigenvalue_rejected():
    M = np.diag([1.0 + 0j, 5.0])
    with pytest.raises(ContourError):
        riesz_projection(M, center=0.0, radius=1.0000001)


def test_riesz_refuses_a_projector_too_ill_conditioned_to_be_idempotent():
    # eigenvalues 0 and 1 with eigenvectors 1e-5 apart: ||P|| ~ 1e5, and
    # round-off of order eps ||P||^2 leaves P^2 - P far above 1e-8
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((2, 2))
                        + 1j * np.random.default_rng(6).standard_normal((2, 2)))
    M = Q @ np.array([[0.0, 1e5], [0.0, 1.0]]) @ Q.conj().T
    with pytest.raises(ContourError, match="idempotent|defect"):
        riesz_projection(M, center=0.0, radius=0.5)


def test_projection_algebra_disjoint_contours():
    rng = np.random.default_rng(11)
    M = np.diag([1.0, 2.0, 7.0, 8.0]) + 0.1 * rng.standard_normal((4, 4))
    M = M.astype(complex)
    P1 = riesz_projection(M, center=1.5, radius=1.5)
    P2 = riesz_projection(M, center=7.5, radius=1.5)
    assert np.linalg.norm(P1 @ P2, 2) < 1e-8
    assert np.linalg.norm(P2 @ P1, 2) < 1e-8
    both = riesz_projection(M, center=4.5, radius=4.45)
    assert np.linalg.norm(P1 + P2 - both, 2) < 1e-7


# -- trichotomy --------------------------------------------------------------------


def test_trichotomy_constant_state(constant_wave_factory):
    m = model_for_symbol(SymbolSpec("kdv"))
    op = assemble_bloch(m, constant_wave_factory(m, c=0.9, N=32), 0.3, 32)
    split = trichotomy_split(op)
    assert (split.dim_Eu, split.dim_Es) == (0, 0)
    assert split.dim_Ec == 33
    assert split.n_minus_L == int(np.sum(np.diag(op.L_mat).real < -1e-10))


def test_trichotomy_bbm_unstable(bbm2_model, bbm2_wave, bbm2_spectrum):
    op = assemble_bloch(bbm2_model, bbm2_wave, bbm2_spectrum.k0, 64)
    split = trichotomy_split(op)
    assert split.dim_Eu == split.dim_Es >= 1
    assert split.dim_Eu <= split.n_minus_L


def test_trichotomy_definite_energy_is_stable():
    op = random_structured_op(16, seed=2, unstable=False)
    split = trichotomy_split(op)
    assert (split.dim_Eu, split.dim_Es) == (0, 0)
    assert split.dim_Ec == 16
    assert split.n_minus_L == 0


def test_trichotomy_rejects_nonhermitian():
    op = random_structured_op(8, seed=5)
    op.L_mat = op.L_mat + 0.01 * 1j * np.eye(8)
    op.L_mat[0, 1] += 0.5
    with pytest.raises(StructureViolationError):
        trichotomy_split(op)


# -- fiber propagation on a multi-period torus ------------------------------------


@pytest.fixture(scope="module")
def whitham_packet(whitham_k2_model, whitham_k2_wave, whitham_k2_spectrum,
                   whitham_k2_curve):
    """Unit-L2 Whitham kappa=2 band packet on T_{2 pi 16} (nodes 1/16, 2/16)."""
    packet, _, _ = build_band_packet(whitham_k2_model, whitham_k2_wave,
                                     whitham_k2_spectrum, whitham_k2_curve,
                                     Q=16, N_op=48)
    u = synthesize_packet(packet, 16)
    return u * (1.0 / l2_norm(u))


def k_half_field(Q=16):
    """Unit-L2 real field on T_{2 pi Q} occupying the fibers k = 1/2 - 1/Q
    and the self-conjugate k = 1/2 (and the mirror of the first)."""
    packet = midpoint_band_nodes(0.5, 2, Q)
    m = np.arange(-24, 25)
    for j in (1, 2):
        packet.profiles.append(PeriodicField(
            1, 48, np.exp(-0.3 * np.abs(m) + 1j * j * m), real=False))
    u = synthesize_packet(packet, Q)
    return u * (1.0 / l2_norm(u))


def stepped_norms(propagate, model, wave, u, h, t_end, per):
    """L2 norms of u under the fiber propagator, observed every ``per``
    steps of h."""
    times, fields = propagate(model, wave, u, h, int(round(t_end / h)), per)
    return times, np.array([l2_norm(f) for f in fields])


def fiber0_field(Q=4, N=192):
    """Unit-L2 real field on T_{2 pi Q} occupying only the fiber k = 0,
    whose block is defective (the translation kernel)."""
    n = np.arange(-(N // 2), N // 2 + 1)
    coef = np.where((n % Q == 0) & (np.abs(n) < N // 2),
                    np.exp(-0.2 * np.abs(n) / Q + 0.3j * np.sign(n)), 0.0)
    u = PeriodicField(Q, N, coef, real=True)
    return u * (1.0 / l2_norm(u))


def test_fiber_norms_are_the_stepper_limit(whitham_k2_model, whitham_k2_wave,
                                           whitham_packet, propagate):
    # the fiber propagator steps e^{hA} exactly, so at any step it gives
    # the chained-expm norms of fiber_norms to round-off
    u = whitham_packet
    for h, per in ((1.0, 5), (0.25, 20)):
        t, stepped = stepped_norms(propagate, whitham_k2_model,
                                   whitham_k2_wave, u, h, 20.0, per)
        exact = fiber_norms(whitham_k2_model, whitham_k2_wave, u, h * per,
                            len(t))
        assert np.max(np.abs(stepped / exact[1:] - 1.0)) <= 1e-12
    at0 = fiber_norms(whitham_k2_model, whitham_k2_wave, u, 1.0, 0)
    assert at0 == pytest.approx([l2_norm(u)], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("case", ["node_at_k_half", "defective_fiber_0"])
def test_fiber_norms_match_the_propagator(case, whitham_k2_model,
                                          whitham_k2_wave, propagate):
    u = k_half_field() if case == "node_at_k_half" else fiber0_field()
    norms = fiber_norms(whitham_k2_model, whitham_k2_wave, u, 2.5, 8)
    # counting each conjugate pair twice and k = 0, 1/2 once keeps ||u||
    assert norms[0] == pytest.approx(l2_norm(u), rel=1e-13, abs=0.0)
    _, stepped = stepped_norms(propagate, whitham_k2_model, whitham_k2_wave,
                               u, 0.5, 20.0, 5)
    np.testing.assert_allclose(norms[1:], stepped, rtol=1e-12, atol=0.0)


def test_fiber_norms_rejects_bad_input(whitham_k2_model, whitham_k2_wave):
    u = k_half_field()
    for bad, h, steps in ((u * 1j, 1.0, 2), (u, 0.0, 2), (u, -1.0, 2),
                          (u, 1.0, -1)):
        with pytest.raises(DomainError):
            fiber_norms(whitham_k2_model, whitham_k2_wave, bad, h, steps)
