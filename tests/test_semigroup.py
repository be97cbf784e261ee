import numpy as np
import pytest

from modulon import SymbolSpec, model_for_symbol
from modulon.bloch import BlochOperator, assemble_bloch
from modulon.errors import (ContourError, DomainError, PropagatorRangeError,
                            StructureViolationError)
from modulon.semigroup import (dual_propagator_norm, expm_cross_check,
                               probe_growth, propagator_norm,
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


def test_propagator_overflow_guard():
    op = random_structured_op(8, seed=3)
    op.A_mat = np.diag([2.0 + 0j] * 8)     # abscissa 2
    with pytest.raises(PropagatorRangeError) as err:
        propagator_norm(op, 1e4)
    assert err.value.t_cap is not None


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


def test_expm_cross_check(bbm2_model, bbm2_wave):
    op = assemble_bloch(bbm2_model, bbm2_wave, 0.11, 48)
    rel, cond = expm_cross_check(op, 2.0)
    if rel is not None:
        assert rel < 1e-8
