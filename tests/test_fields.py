import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modulon import (PeriodicField, SymbolSpec, apply_multiplier,
                     bloch_decompose, cosine_field, dealiased_product,
                     derivative, field_from_values, inner, l2_norm, load_field,
                     midpoint_band_nodes, save_field, sobolev_norm,
                     synthesize_packet, zero_field)
from modulon.errors import BadDataError, DomainError, GridMismatchError
from modulon.fields import (WavePacket, _lift_eigenfunction, hermitian_full,
                            write_csv)

TWO_PI = 2.0 * np.pi


def random_field(q, N, seed=0, real=True, decay=0.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    n = np.arange(-(N // 2), N // 2 + 1)
    c *= np.exp(-decay * np.abs(n))
    f = PeriodicField(q, N, c, real=False)
    if real:
        f.symmetrize()
    return f


def test_oddball_modes_zeroed():
    f = random_field(1, 32)
    assert f.coef[0] == 0.0 and f.coef[-1] == 0.0


def test_hermitian_symmetry_enforced():
    f = random_field(2, 32, real=True)
    assert f.hermitian_defect() < 1e-15


def test_parseval():
    f = random_field(3, 64, seed=1)
    vals = f.values(256)
    quad = np.sum(np.abs(vals) ** 2) * (TWO_PI * f.q / 256)
    assert abs(quad - l2_norm(f) ** 2) <= 1e-12 * l2_norm(f) ** 2


def test_transform_round_trip():
    f = random_field(2, 64, seed=2, real=False)
    g = field_from_values(f.values(160), f.q, f.N)
    assert np.max(np.abs(g.coef - f.coef)) < 1e-12


def test_l2_norm_of_pure_mode():
    f = zero_field(1, 16)
    f.set_mode(3, 1.0)
    f.real = False
    assert abs(l2_norm(f) - np.sqrt(TWO_PI)) < 1e-14


def test_sobolev_examples():
    one = cosine_field(1, 16, [1.0])
    assert abs(sobolev_norm(one, 2.5) - np.sqrt(TWO_PI)) < 1e-14
    eix = zero_field(1, 16)
    eix.set_mode(1, 1.0)
    eix.real = False
    assert abs(sobolev_norm(eix, 1.0) - 2.0 * np.sqrt(np.pi)) < 1e-14
    assert abs(sobolev_norm(eix, 0.0) - np.sqrt(TWO_PI)) < 1e-14


def test_multiplier_constant_field_kdv():
    one = cosine_field(1, 16, [1.0])
    out = apply_multiplier(one, SymbolSpec("kdv"))
    assert l2_norm(out) == 0.0


def test_multiplier_single_mode_bo_shifted():
    f = zero_field(1, 16)
    f.set_mode(2, 1.0)
    f.real = False
    out = apply_multiplier(f, SymbolSpec("benjamin_ono"), k=0.5)
    assert abs(out.mode(2) - 2.5) < 1e-14
    assert not out.real


def test_multiplier_whitham_cos():
    f = zero_field(1, 16)
    f.set_mode(1, 1.0)
    f.real = False
    out = apply_multiplier(f, SymbolSpec("whitham"))
    assert abs(out.mode(1) - np.sqrt(np.tanh(1.0))) < 1e-14


def test_multiplier_rejects_bad_shift():
    with pytest.raises(DomainError):
        apply_multiplier(zero_field(1, 16), SymbolSpec("kdv"), k=1.5)


def test_dealiased_product_cos_squared():
    cos = cosine_field(1, 32, [0.0, 1.0])
    prod = dealiased_product(cos, cos)
    # cos^2 = 1/2 + cos(2x)/2
    assert abs(prod.mode(0) - 0.5) < 1e-15
    assert abs(prod.mode(2) - 0.25) < 1e-15
    assert abs(prod.mode(1)) < 1e-15


def test_dealiased_product_zero_and_single_mode():
    f = random_field(1, 32, seed=3)
    z = zero_field(1, 32)
    assert l2_norm(dealiased_product(f, z)) == 0.0
    e1 = zero_field(1, 32)
    e1.set_mode(1, 1.0)
    e1.real = False
    prod = dealiased_product(e1, e1)
    assert abs(prod.mode(2) - 1.0) < 1e-14
    assert abs(l2_norm(prod) - np.sqrt(TWO_PI)) < 1e-13


def test_dealiased_product_matches_direct_convolution():
    # band-limited inputs whose product fits inside the truncation
    rng = np.random.default_rng(4)
    N = 64
    f, g = zero_field(1, N, real=False), zero_field(1, N, real=False)
    for n in range(-10, 11):
        f.set_mode(n, rng.standard_normal() + 1j * rng.standard_normal())
        g.set_mode(n, rng.standard_normal() + 1j * rng.standard_normal())
    prod = dealiased_product(f, g)
    conv = np.convolve(f.coef, g.coef)[N // 2:N // 2 + N + 1]
    conv[0] = conv[-1] = 0.0
    assert np.max(np.abs(prod.coef - conv)) < 1e-12


def test_dealiased_product_bilinear_commutative():
    f = random_field(1, 32, seed=5)
    g = random_field(1, 32, seed=6)
    h = random_field(1, 32, seed=7)
    fg = dealiased_product(f, g)
    gf = dealiased_product(g, f)
    assert np.max(np.abs(fg.coef - gf.coef)) == 0.0
    lhs = dealiased_product(f + 2.0 * h, g)
    rhs = fg + 2.0 * dealiased_product(h, g)
    assert np.max(np.abs(lhs.coef - rhs.coef)) < 1e-13


def test_grid_mismatch_raises():
    with pytest.raises(GridMismatchError):
        dealiased_product(random_field(1, 32), random_field(1, 64))


def test_derivative_skew():
    f = random_field(1, 32, seed=8)
    g = random_field(1, 32, seed=9)
    lhs = inner(derivative(f), g)
    rhs = -inner(f, derivative(g))
    assert abs(lhs - rhs) < 1e-12


# -- packets ------------------------------------------------------------------


def unit_profile(N=16, value=None):
    p = cosine_field(1, N, [1.0 / np.sqrt(TWO_PI) if value is None else value])
    return p


def test_packet_single_node():
    # k = 1/2, w = 1, v = (2pi)^{-1/2}: u = (2/sqrt(2pi)) cos(x/2) on T_{4pi}
    pk = midpoint_band_nodes(0.5, 1, 2)
    pk.weights = np.array([1.0])
    pk.k_lo, pk.k_hi = 0.0, 1.0
    pk.profiles = [unit_profile()]
    u = synthesize_packet(pk, 2)
    assert u.q == 2
    idx = u.N // 2 + 1     # big-torus mode 1 <-> frequency 1/2
    amp = u.coef[idx]
    assert abs(amp - 1.0 / np.sqrt(TWO_PI)) < 1e-14
    x = u.grid(128)
    expected = (2.0 / np.sqrt(TWO_PI)) * np.cos(x / 2.0)
    assert np.max(np.abs(u.values(128) - expected)) < 1e-12


def test_packet_zero_profiles():
    pk = midpoint_band_nodes(0.5, 3, 8)
    pk.profiles = [zero_field(1, 16) for _ in range(3)]
    u = synthesize_packet(pk, 8)
    assert l2_norm(u) == 0.0


def test_packet_band_below_zero_rejected():
    with pytest.raises(DomainError):
        midpoint_band_nodes(0.25, 3, 8)


def test_packet_weights_sum_to_band_width():
    pk = midpoint_band_nodes(0.37, 5, 32)
    pk.check()
    assert abs(np.sum(pk.weights) - pk.width()) < 1e-15


def test_packet_norm_identity_disjoint_nodes():
    # || u ||^2 = 2 Q sum_j w_j^2 for unit-L2 profiles with disjoint supports
    Q = 16
    pk = midpoint_band_nodes(5.0 / 16.0, 2, Q)
    rng = np.random.default_rng(10)
    profiles = []
    for _ in range(2):
        v = zero_field(1, 16, real=False)
        for n in range(-3, 4):
            v.set_mode(n, rng.standard_normal() + 1j * rng.standard_normal())
        v = v * (1.0 / l2_norm(v))
        profiles.append(v)
    pk.profiles = profiles
    u = synthesize_packet(pk, Q)
    expected = 2.0 * Q * float(np.sum(pk.weights ** 2))
    assert abs(l2_norm(u) ** 2 - expected) < 1e-12 * expected


def test_packet_incommensurate_node_raises():
    pk = midpoint_band_nodes(0.5, 1, 2)
    pk.nodes = np.array([1.0 / 3.0])
    pk.profiles = [unit_profile()]
    with pytest.raises(DomainError):
        synthesize_packet(pk, 2)


# -- Bloch decomposition --------------------------------------------------------


def test_bloch_decompose_pure_mode():
    # e^{i(3 + 1/4)x} on Q=4: only the k = 1/4 component, equal to e^{i3x}
    Q = 4
    f = zero_field(Q, 64, real=False)
    f.coef[3 * Q + 1 + f.N // 2] = 1.0
    comps = bloch_decompose(f)
    for k, sub in comps:
        if abs(k - 0.25) < 1e-12:
            assert abs(sub.mode(3) - 1.0) < 1e-15
            assert abs(l2_norm(sub) - np.sqrt(TWO_PI)) < 1e-14
        else:
            assert l2_norm(sub) == 0.0


def test_bloch_decompose_round_trip():
    Q = 8
    f = random_field(Q, 128, seed=11, real=False)
    comps = bloch_decompose(f)
    # rebuild: coefficient of big mode nQ + j is sub_j's mode n
    rebuilt = zero_field(Q, f.N, real=False)
    half = f.N // 2
    for k, sub in comps:
        j = int(round(k * Q))
        for n, c in zip(sub.modes(), sub.coef):
            idx = int(n) * Q + j
            if abs(idx) <= half:
                rebuilt.coef[idx + half] += c
    assert np.max(np.abs(rebuilt.coef - f.coef)) < 1e-13


def test_bloch_decompose_norm_identity():
    # sum_j ||u_{k_j}||^2_{T_2pi} = ||u||^2_{T_2piQ} / Q  (Parseval bookkeeping)
    Q = 8
    f = random_field(Q, 128, seed=12, real=False)
    comps = bloch_decompose(f)
    total = sum(l2_norm(sub) ** 2 for _, sub in comps)
    assert abs(total - l2_norm(f) ** 2 / Q) < 1e-12 * total


def test_bloch_decompose_divisibility():
    f = random_field(6, 64, seed=13)
    with pytest.raises(DomainError):
        bloch_decompose(f, q=4)


def test_synthesize_then_decompose_identity():
    Q = 8
    pk = midpoint_band_nodes(3.0 / 8.0, 2, Q)
    rng = np.random.default_rng(14)
    pk.profiles = []
    for _ in range(2):
        v = zero_field(1, 16, real=False)
        for n in range(-3, 4):
            v.set_mode(n, rng.standard_normal() + 1j * rng.standard_normal())
        pk.profiles.append(v * (1.0 / l2_norm(v)))
    u = synthesize_packet(pk, Q)
    comps = dict((round(k * Q), sub) for k, sub in bloch_decompose(u))
    for k_j, w_j, prof in zip(pk.nodes, pk.weights, pk.profiles):
        sub = comps[round(k_j * Q)]
        for n in prof.modes():
            if abs(n) < sub.N // 2:
                assert abs(sub.mode(int(n)) - w_j * prof.mode(int(n))) < 1e-14


def test_hermitian_full_rebuilds_real_field():
    f = random_field(2, 32, seed=42)
    assert np.array_equal(hermitian_full(f.coef[f.N // 2:]), f.coef)
    rows = np.stack([f.coef[f.N // 2:], 2.0 * f.coef[f.N // 2:]])
    assert np.array_equal(hermitian_full(rows)[1], 2.0 * f.coef)


def _synthesize_packet_loop(packet, Q):
    # the former mode-by-mode accumulation, kept as the reference
    Np = max(p.N for p in packet.profiles)
    N_big = Q * Np + 2 * Q
    half = N_big // 2
    acc = np.zeros(N_big + 1, dtype=np.complex128)
    for k_j, w_j, prof in zip(packet.nodes, packet.weights, packet.profiles):
        mj = int(round(k_j * Q))
        for n, c in zip(prof.modes(), prof.coef):
            idx = Q * int(n) + mj
            if abs(idx) <= half:
                acc[idx + half] += w_j * c
    return acc + np.conj(acc[::-1])


def _bloch_decompose_loop(f, q):
    # the former mode-by-mode re-indexing, kept as the reference
    r_count = f.q // q
    N_sub = 2 * (f.N // (2 * r_count) + 2)
    half_sub, half = N_sub // 2, f.N // 2
    comps = [zero_field(q, N_sub, real=False) for _ in range(r_count)]
    for idx in range(-half, half + 1):
        c = f.coef[idx + half]
        if c == 0.0:
            continue
        r = idx % r_count
        n = (idx - r) // r_count
        if abs(n) <= half_sub:
            comps[r].coef[n + half_sub] += c
    return comps


@pytest.mark.parametrize("k_right, n_nodes, Q", [(0.37, 5, 32), (0.5, 6, 12),
                                                 (3.0 / 8.0, 2, 8)])
def test_synthesize_packet_matches_mode_loop(k_right, n_nodes, Q):
    pk = midpoint_band_nodes(k_right, n_nodes, Q)
    pk.profiles = [random_field(1, 16 + 8 * (j % 3), seed=30 + j, real=False,
                                decay=0.3) for j in range(n_nodes)]
    pk.profiles[0].coef[3] = complex(-0.0, -0.0)
    u = synthesize_packet(pk, Q)
    assert u.coef.tobytes() == _synthesize_packet_loop(pk, Q).tobytes()


def test_synthesize_packet_accumulates_colliding_nodes():
    # nodes one lattice period apart share big-torus modes
    Q = 4
    pk = WavePacket(k_lo=0.0, k_hi=1.5, nodes=np.array([0.25, 1.25]),
                    weights=np.array([0.75, 0.75]),
                    profiles=[random_field(1, 16, seed=40 + j, real=False)
                              for j in range(2)])
    u = synthesize_packet(pk, Q)
    assert u.coef.tobytes() == _synthesize_packet_loop(pk, Q).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_packet_round_trip_puts_each_node_in_its_fiber(data):
    # nodes j/Q with 0 < j < Q/2: the conjugate mirror of node j lands in
    # fiber Q - j, which holds no node, and every other fiber stays zero
    Q = data.draw(st.integers(3, 24))
    js = data.draw(st.lists(st.integers(1, (Q - 1) // 2), min_size=1,
                            max_size=4, unique=True))
    Np = data.draw(st.sampled_from([4, 8, 16]))
    parts = st.lists(st.floats(-1.0, 1.0), min_size=Np + 1, max_size=Np + 1)
    profiles = [PeriodicField(1, Np, np.array(data.draw(parts))
                              + 1j * np.array(data.draw(parts)), real=False)
                for _ in js]
    weights = np.array(data.draw(st.lists(st.floats(0.1, 2.0),
                                          min_size=len(js),
                                          max_size=len(js))))
    nodes = np.array(js) / Q
    pk = WavePacket(k_lo=nodes.min() - 0.5 / Q, k_hi=nodes.max() + 0.5 / Q,
                    nodes=nodes, weights=weights, profiles=profiles)
    comps = bloch_decompose(synthesize_packet(pk, Q), 1)
    assert [k for k, _ in comps] == [j / Q for j in range(Q)]
    half = comps[0][1].N // 2
    m = np.arange(-(Np // 2), Np // 2 + 1)
    want = np.zeros((Q, 2 * half + 1), dtype=np.complex128)
    for j, w, prof in zip(js, weights, profiles):
        want[j, m + half] = w * prof.coef
        want[Q - j, -m - 1 + half] = np.conj(w * prof.coef)
    assert np.array_equal(np.array([sub.coef for _, sub in comps]), want)


@pytest.mark.parametrize("Q, q, N", [(8, 1, 128), (6, 2, 64), (3, 3, 48),
                                     (5, 1, 10)])
def test_bloch_decompose_matches_mode_loop(Q, q, N):
    f = random_field(Q, N, seed=41, real=False, decay=0.1)
    f.coef[5] = 0.0
    f.coef[7] = complex(-0.0, 1.0)
    f.coef[9] = complex(-0.0, -0.0)
    comps = bloch_decompose(f, q)
    ref = _bloch_decompose_loop(f, q)
    assert [k for k, _ in comps] == [j / Q for j in range(Q // q)]
    for (_, sub), want in zip(comps, ref):
        assert (sub.q, sub.N, sub.real) == (want.q, want.N, want.real)
        assert sub.coef.tobytes() == want.coef.tobytes()


# -- persistence ------------------------------------------------------------------


def test_binary_snapshot_round_trip(tmp_path):
    f = random_field(3, 48, seed=15, real=False)
    path = tmp_path / "field.fld"
    save_field(f, path)
    g = load_field(path)
    assert g.q == f.q and g.N == f.N and g.real == f.real
    assert np.array_equal(g.coef, f.coef)


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "junk.fld"
    path.write_bytes(b"not a field at all")
    with pytest.raises(DomainError):
        load_field(path)


def test_snapshot_short_payload_is_bad_data(tmp_path):
    path = tmp_path / "short.fld"
    save_field(random_field(1, 16, seed=17), path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(BadDataError):
        load_field(path)


def _snapshot_mutation(good: bytes):
    """Arbitrary bytes after the magic, a truncation, or one flipped bit of
    the snapshot ``good``."""
    return st.one_of(
        st.binary(max_size=2 * len(good)).map(lambda tail: good[:8] + tail),
        st.integers(0, len(good) - 1).map(lambda n: good[:n]),
        st.integers(0, 8 * len(good) - 1).map(
            lambda bit: good[:bit // 8] + bytes([good[bit // 8] ^ (1 << bit % 8)])
            + good[bit // 8 + 1:]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_snapshot_fuzz_loads_or_is_bad_data(tmp_path, data):
    good_path = tmp_path / "good.fld"
    if not good_path.exists():
        save_field(random_field(2, 8, seed=19, real=False), good_path)
    path = tmp_path / "fuzz.fld"
    path.write_bytes(data.draw(_snapshot_mutation(good_path.read_bytes())))
    try:
        f = load_field(path)
    except BadDataError:
        return
    assert np.all(np.isfinite(f.coef))
    # what loads is what save_field writes: the header comes back unchanged
    save_field(f, tmp_path / "again.fld")
    assert (tmp_path / "again.fld").read_bytes()[:32] == path.read_bytes()[:32]


@pytest.mark.parametrize("p,q,N_big", [(0, 1, 24), (0, 1, 96), (1, 8, 256),
                                       (3, 8, 96), (-2, 5, 400)])
def test_lift_matches_mode_loop(p, q, N_big):
    v = random_field(1, 48, seed=18, real=False)
    ref = np.zeros(N_big + 1, dtype=np.complex128)
    for n in range(-24, 25):
        if abs(n * q + p) <= N_big // 2:
            ref[n * q + p + N_big // 2] = v.mode(n)
    ref[0] = ref[-1] = 0.0
    assert np.array_equal(_lift_eigenfunction(v, p, q, N_big), ref)



def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "# header\n", ("a", "b"),
              [(0.1, np.float64(2.0)), (1e-300, -3)])
    assert path.read_text() == "# header\na,b\n0.1,2.0\n1e-300,-3.0\n"
