import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simstack.linklevel import (_CHUNK_ROWS, MODULATIONS, Constellation,
                                complex_noise, constellation_for,
                                count_bit_errors, ebn0_to_noise_variance,
                                generate_channel, gray_pam, link_snr,
                                make_constellation, simulate_block)

from oracles import exhaustive_demap, whole_block_simulate


def test_gray_pam_levels():
    assert np.array_equal(np.sort(gray_pam(1)), [-1, 1])
    levels = gray_pam(2)
    assert np.array_equal(np.sort(levels), [-3, -1, 1, 3])
    # walking the lattice flips one bit at a time
    order = np.argsort(levels)
    for a, b in zip(order, order[1:]):
        assert bin(a ^ b).count("1") == 1


@pytest.mark.parametrize("order", [4, 16])
def test_constellation_unit_energy(order):
    c = make_constellation(order)
    assert c.points.shape == (order,)
    assert np.isclose(np.mean(np.abs(c.points) ** 2), 1.0, rtol=1e-12)
    assert c.bits_per_symbol == {4: 2, 16: 4}[order]


@pytest.mark.parametrize("order", [4, 16])
def test_gray_neighbors_differ_by_one_bit(order):
    c = make_constellation(order)
    dmin = np.min(np.abs(c.points[:, None] - c.points[None, :])
                  + np.eye(order) * 1e9)
    for i in range(order):
        for j in range(i + 1, order):
            if np.isclose(abs(c.points[i] - c.points[j]), dmin):
                assert bin(i ^ j).count("1") == 1


@pytest.mark.parametrize("order", [4, 16])
def test_map_demap_round_trip(order, rng):
    c = make_constellation(order)
    labels = rng.integers(0, order, 500)
    assert np.array_equal(c.demap(c.map(labels)), labels)
    # tiny perturbations leave decisions unchanged
    z = c.map(labels) + 1e-6 * (rng.normal(size=500) + 1j * rng.normal(size=500))
    assert np.array_equal(c.demap(z), labels)


@pytest.mark.parametrize("order", [4, 16])
def test_slicer_matches_exhaustive_search(order):
    # 50 blocks of 2e5 noisy symbols, noise variance from 1e-3 to 3
    c = make_constellation(order)
    rng = np.random.default_rng(order)
    mismatches = 0
    for sigma2 in np.geomspace(1e-3, 3.0, 50):
        z = c.map(rng.integers(0, order, 200_000)) + complex_noise(200_000, sigma2, rng)
        mismatches += np.count_nonzero(c.demap(z) != exhaustive_demap(c, z))
    assert mismatches == 0


# Gray label of the winning level at each exact midpoint, low to high
MIDPOINT_WINNERS = {4: [0], 16: [0, 1, 2]}


@pytest.mark.parametrize("order", [4, 16])
def test_exact_midpoints_resolve_like_exhaustive_search(order):
    c = make_constellation(order)
    bpa = c.bits_per_symbol // 2
    levels = np.unique(c.points.real)
    mids = (levels[:-1] + levels[1:]) / 2.0
    assert mids[len(mids) // 2] == 0.0
    for other in (levels[0], levels[-1], 0.1234, mids[0]):
        z_re = mids + 1j * other          # imaginary part on a level or off one
        z_im = other + 1j * mids
        assert np.array_equal(c.demap(z_re), exhaustive_demap(c, z_re))
        assert np.array_equal(c.demap(z_im), exhaustive_demap(c, z_im))
        assert (c.demap(z_re) >> bpa).tolist() == MIDPOINT_WINNERS[order]
        assert (c.demap(z_im) & ((1 << bpa) - 1)).tolist() == MIDPOINT_WINNERS[order]


@pytest.mark.parametrize("order", [4, 16])
def test_non_finite_samples_get_label_zero(order):
    c = make_constellation(order)
    finite = c.points[-1]
    bad = []
    for v in (np.nan, np.inf, -np.inf):
        bad += [complex(v, finite.imag), complex(finite.real, v), complex(v, v)]
    z = np.array(bad)
    assert np.array_equal(c.demap(z), np.zeros(len(z), int))
    assert np.array_equal(exhaustive_demap(c, z), np.zeros(len(z), int))


@pytest.mark.parametrize("order", [4, 16])
@pytest.mark.parametrize("shape", [(7,), (5, 3), (2, 5, 3)])
def test_demap_keeps_shape(order, shape, rng):
    c = make_constellation(order)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    labels = c.demap(z)
    assert labels.shape == shape
    assert np.issubdtype(labels.dtype, np.integer)
    assert np.array_equal(labels, exhaustive_demap(c, z))


def test_make_constellation_rejects_unknown_order():
    with pytest.raises(ValueError):
        make_constellation(8)


def test_constellation_for_names():
    assert constellation_for("qpsk").order == 4
    assert constellation_for("qam16").order == 16
    with pytest.raises(ValueError):
        constellation_for("bpsk")
    assert MODULATIONS == {"qpsk": 4, "qam16": 16}


def test_channel_moments():
    rng = np.random.default_rng(42)
    h = generate_channel(200, 100, rng)
    assert h.shape == (200, 100)
    # CN(0,1): zero mean, unit variance, circular
    assert abs(h.mean()) < 0.01
    assert np.isclose(np.mean(np.abs(h) ** 2), 1.0, atol=0.02)
    assert abs(np.mean(h ** 2)) < 0.01


def test_complex_noise_variance():
    rng = np.random.default_rng(43)
    r = complex_noise((100, 1000), 0.25, rng)
    assert np.isclose(np.mean(np.abs(r) ** 2), 0.25, rtol=0.02)


@pytest.mark.parametrize("shape", [(), (9,), (50, 4), (2, 6, 3)])
@pytest.mark.parametrize("sigma2", [0.25, np.float64(1e-3), 0.0])
def test_complex_noise_matches_two_draw_expression(shape, sigma2):
    rng = np.random.default_rng(99)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    want = np.sqrt(sigma2 / 2.0) * (a + 1j * b)
    got = complex_noise(shape, sigma2, np.random.default_rng(99))
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_noise_variance_trivial_points():
    qpsk = make_constellation(4)
    qam16 = make_constellation(16)
    # 0 dB: sigma^2 = 1/bps
    assert np.isclose(ebn0_to_noise_variance(0.0, qpsk), 0.5, rtol=1e-12)
    assert np.isclose(ebn0_to_noise_variance(0.0, qam16), 0.25, rtol=1e-12)
    # +10 dB divides by 10
    assert np.isclose(ebn0_to_noise_variance(10.0, qpsk), 0.05, rtol=1e-12)


def test_link_snr_consistency():
    qpsk = make_constellation(4)
    sigma2 = ebn0_to_noise_variance(7.0, qpsk)
    # P_S = K makes the link SNR independent of K
    assert np.isclose(link_snr(4.0, 4, sigma2), 1.0 / sigma2, rtol=1e-12)
    assert np.isclose(link_snr(2.0, 2, sigma2), 1.0 / sigma2, rtol=1e-12)


def test_count_bit_errors_oracle(rng):
    a = rng.integers(0, 16, 1000)
    b = rng.integers(0, 16, 1000)
    want = int(np.unpackbits((a ^ b).astype(np.uint8)).sum())
    assert count_bit_errors(a, b) == want
    assert count_bit_errors(a, a) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_count_bit_errors_single_pair(x, y):
    got = count_bit_errors(np.array([x]), np.array([y]))
    assert got == bin(x ^ y).count("1")


class TestSimulateBlock:
    def test_noiseless_identity_is_error_free(self, rng):
        qpsk = make_constellation(4)
        errors, bits = simulate_block(np.eye(2), 1.0, 0.0, qpsk, 1000, rng)
        assert errors == 0
        assert bits == 2000

    def test_scale_invariance_under_matched_beta(self, rng):
        # y = c*B, demap with beta = 1/c: error-free for any positive c
        qam = make_constellation(16)
        errors, _ = simulate_block(np.eye(3) * 4.0, 0.25, 0.0, qam, 400, rng)
        assert errors == 0

    def test_dead_channel_is_half_ber(self):
        rng = np.random.default_rng(7)
        qpsk = make_constellation(4)
        errors, bits = simulate_block(np.zeros((2, 2)), 1.0, 1.0, qpsk,
                                      50000, rng)
        ber = errors / bits
        # pure noise through a symmetric constellation: BER 1/2
        assert abs(ber - 0.5) < 0.01

    def test_bit_packing_validation(self, rng):
        qam = make_constellation(16)
        with pytest.raises(ValueError):
            simulate_block(np.eye(2), 1.0, 0.1, qam, 1001, rng)

    @pytest.mark.parametrize("order", [4, 16])
    def test_counts_match_exhaustive_search(self, order, monkeypatch):
        c = make_constellation(order)
        f = np.array([[0.8, 0.3j], [-0.2, 1.1]])
        runs = [simulate_block(f, 1.05, sigma2, c, 4000, np.random.default_rng(seed))
                for seed in (3, 4) for sigma2 in (0.05, 0.5)]
        monkeypatch.setattr(Constellation, "demap", exhaustive_demap)
        want = [simulate_block(f, 1.05, sigma2, c, 4000, np.random.default_rng(seed))
                for seed in (3, 4) for sigma2 in (0.05, 0.5)]
        assert runs == want
        assert all(0 < errors < bits for errors, bits in runs)

    def test_reproducible_counts(self):
        qpsk = make_constellation(4)
        f = np.eye(2) * 0.9
        out = [simulate_block(f, 1.0, 0.5, qpsk, 10000,
                              np.random.default_rng(11)) for _ in range(2)]
        assert out[0] == out[1]
        assert 0 < out[0][0] < out[0][1]


class TestChunkedBlock:
    """simulate_block streams row chunks; the whole-block pass is the oracle."""

    @pytest.mark.parametrize("symbols", [1, 300, _CHUNK_ROWS, 3 * _CHUNK_ROWS,
                                         3 * _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 700])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [4, 16])
    def test_matches_whole_block(self, order, k, symbols):
        c = make_constellation(order)
        draw = np.random.default_rng(100 * order + k)
        f = (draw.standard_normal((k, k)) + 1j * draw.standard_normal((k, k))) / np.sqrt(2 * k)
        f += np.eye(k)
        for sigma2 in (0.02, 0.5):
            got_rng, want_rng = np.random.default_rng(symbols), np.random.default_rng(symbols)
            got = simulate_block(f, 0.9, sigma2, c, symbols * c.bits_per_symbol, got_rng)
            want = whole_block_simulate(f, 0.9, sigma2, c, symbols * c.bits_per_symbol,
                                        want_rng)
            assert got == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("symbols", [1, 2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                         _CHUNK_ROWS + 2, 3 * _CHUNK_ROWS + 1])
    def test_no_one_row_chunk(self, symbols, rng, monkeypatch):
        # a 1-row product would take the gemv path and sum in another order
        rows = []
        demap = Constellation.demap

        def spy(self, z):
            rows.append(len(z))
            return demap(self, z)

        monkeypatch.setattr(Constellation, "demap", spy)
        simulate_block(np.eye(3), 1.0, 0.1, make_constellation(4), 2 * symbols, rng)
        assert sum(rows) == symbols
        assert max(rows) <= _CHUNK_ROWS + 1
        assert 1 not in rows or symbols == 1
