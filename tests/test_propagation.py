import cmath
import math

import numpy as np
import pytest

from oracles import atom_position, scalar_coupling
from simstack.geometry import SimGeometry
from simstack.propagation import (ForwardOperator, coupling_chain,
                                  coupling_coefficient, radiated_power)


def test_w1_entries_scalar_oracle(small_geometry):
    g = small_geometry
    w1 = coupling_chain(g)[0]
    assert w1.shape == (2, 16)
    lam = g.wavelength
    sigma = g.array_to_first_layer_wl * lam
    for n in range(g.n_antennas):
        xn, yn = g.antenna_xy()[n]
        for q in range(g.n_cells):
            xq, yq = atom_position(g, q)
            d = math.sqrt((xq - xn) ** 2 + (yq - yn) ** 2 + sigma ** 2)
            want = scalar_coupling(d, sigma, g.antenna_area_wl2 * lam ** 2, lam)
            assert abs(w1[n, q] - want) <= 1e-12 * abs(want)


def test_w_ell_entries_scalar_oracle(small_geometry):
    g = small_geometry
    w2 = coupling_chain(g)[1]
    assert w2.shape == (16, 16)
    lam = g.wavelength
    s = g.inter_layer_spacing_wl * lam
    for qp in range(16):
        xa, ya = atom_position(g, qp)
        for q in range(16):
            xb, yb = atom_position(g, q)
            d = math.sqrt((xb - xa) ** 2 + (yb - ya) ** 2 + s ** 2)
            want = scalar_coupling(d, s, g.meta_atom_area_wl2 * lam ** 2, lam)
            assert abs(w2[qp, q] - want) <= 1e-12 * abs(want)


def test_coupling_on_axis():
    # cos(theta) = 1 straight down the axis
    got = coupling_coefficient(0.5, 0.5, 0.25, 1.0)
    want = (0.25 / 0.5) * (1.0 / math.pi - 1j) * cmath.exp(1j * math.pi)
    assert abs(got - want) < 1e-15


def test_wavelength_unit_scaling_invariance():
    """A configuration stated in wavelength units yields the same coupling
    matrices at any carrier: lengths scale with lambda, areas with lambda^2,
    and every factor of the coupling formula cancels."""
    def build(f0):
        return SimGeometry(n_antennas=2, n_layers=2, layer_cells=(4, 4),
                           carrier_frequency_hz=f0, array_to_first_layer_wl=0.5)
    chain_a = coupling_chain(build(3.0e8))
    chain_b = coupling_chain(build(28.0e9))
    for wa, wb in zip(chain_a, chain_b):
        assert np.allclose(wa, wb, rtol=1e-12, atol=0)


def test_chain_shares_identical_layer_couplings(reference_geometry):
    ws = coupling_chain(reference_geometry)
    assert len(ws) == reference_geometry.n_layers
    assert ws[0].shape == (reference_geometry.n_antennas, 144)
    assert ws[1].shape == (144, 144)
    for w in ws[2:]:
        assert w is ws[1]


@pytest.mark.parametrize("name", ["small_geometry", "reference_geometry"])
def test_layer_coupling_is_exactly_symmetric(name, request):
    # the sweep multiplies the antenna rows and the channel rows by the same
    # W from the right, which is exact only while W == W^T bit for bit
    w = coupling_chain(request.getfixturevalue(name))[1]
    assert np.array_equal(w, w.T)


def test_chain_is_cached(small_geometry):
    assert coupling_chain(small_geometry) is coupling_chain(small_geometry)


def test_cached_chain_is_read_only(small_geometry):
    # every caller shares the cached matrices, so none may write into them
    ws = coupling_chain(small_geometry)
    assert ws[1] is ws[2]
    with pytest.raises(ValueError):
        ws[1][0, 0] = 0.0
    assert not any(w.flags.writeable for w in ws)
    with pytest.raises(TypeError):
        ws[0] = ws[0]


def _random_taus(chain, rng):
    shape = (len(chain), chain[0].shape[1])
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_forward_matches_naive_diag_product(small_geometry, rng):
    chain = coupling_chain(small_geometry)
    taus = _random_taus(chain, rng)
    fwd = ForwardOperator(chain, taus)
    naive = np.eye(small_geometry.n_antennas, dtype=complex)
    for w, tau in zip(chain, taus):
        naive = naive @ w @ np.diag(tau)
    assert np.allclose(fwd.matrix, naive, rtol=1e-12)
    # prefixes stop just before each tau
    partial = chain[0].copy()
    assert np.allclose(fwd.prefixes[0], partial)
    for ell in range(1, len(chain)):
        partial = partial @ np.diag(taus[ell - 1]) @ chain[ell]
        assert np.allclose(fwd.prefixes[ell], partial, rtol=1e-12)


def test_forward_validates_shapes(small_geometry, rng):
    chain = coupling_chain(small_geometry)
    taus = _random_taus(chain, rng)
    # the state must be (L, Q): one row per coupling matrix, Q atoms each
    with pytest.raises(ValueError):
        ForwardOperator(chain, taus[:-1])
    with pytest.raises(ValueError):
        ForwardOperator(chain, taus[:, :-1])
    with pytest.raises(ValueError):
        ForwardOperator(chain, taus[0])


def test_tau_cogradients_finite_difference(small_geometry, rng):
    """dL = 2 Re sum(conj(gbar) * dtau) for L = 2 Re tr(C^H G)."""
    chain = coupling_chain(small_geometry)
    taus = _random_taus(chain, rng)
    n = small_geometry.n_antennas
    q_last = chain[-1].shape[1]
    c = rng.normal(size=(n, q_last)) + 1j * rng.normal(size=(n, q_last))

    def loss(tau_list):
        g = ForwardOperator(chain, tau_list).matrix
        return 2.0 * np.real(np.sum(np.conj(c) * g))

    gbars = ForwardOperator(chain, taus).tau_cogradients(c)
    assert gbars.shape == taus.shape
    eps = 1e-5
    for ell in range(len(taus)):
        for q in [0, 7, taus[ell].shape[0] - 1]:
            for direction, part in [(1.0, np.real), (1j, np.imag)]:
                up, dn = taus.copy(), taus.copy()
                up[ell][q] += direction * eps
                dn[ell][q] -= direction * eps
                fd = (loss(up) - loss(dn)) / (2 * eps)
                want = 2.0 * part(gbars[ell][q])
                assert abs(fd - want) <= 1e-5 * max(1.0, abs(want))


def test_radiated_power_bound(small_geometry, rng):
    """||P G||_F^2 <= ||P||_F^2 ||G||_2^2 (squared spectral norm)."""
    chain = coupling_chain(small_geometry)
    taus = np.exp(2j * np.pi * rng.random((len(chain), chain[0].shape[1])))
    g = ForwardOperator(chain, taus).matrix
    g2 = np.linalg.norm(g, ord=2) ** 2
    for _ in range(20):
        p = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        power = radiated_power(p, g)
        assert np.isclose(power, np.linalg.norm(p @ g) ** 2, rtol=1e-12)
        assert 0.0 <= power <= np.linalg.norm(p) ** 2 * g2 * (1 + 1e-12)

