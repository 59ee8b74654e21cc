"""Mollified clamp family: closed forms and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fplab import (
    MollifierFamily,
    capital_phi_eps,
    mollifier_mass,
    phi_eps,
    phi_eps_prime,
    phi_eps_quadrature,
    standard_mollifier,
)


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_mollifier_unit_mass(eps):
    assert abs(mollifier_mass(eps) - 1.0) <= 1e-12


def test_standard_mollifier_support_and_symmetry():
    assert standard_mollifier(1.0) == 0.0
    assert standard_mollifier(-1.0) == 0.0
    assert standard_mollifier(2.5, eps=2.0) == 0.0
    ts = np.linspace(-0.95, 0.95, 21)
    vals = standard_mollifier(ts)
    assert (vals > 0).all()
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-14)
    with pytest.raises(ValueError):
        standard_mollifier(0.0, eps=0.0)


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_phi_closed_form_branches(eps):
    # middle band: the convolution of clip(t, -eps, 1+eps) with the
    # eps/2-bump reproduces t exactly
    mid = np.linspace(-0.5 * eps, 1.0 + 0.5 * eps, 9)
    np.testing.assert_allclose(phi_eps(mid, eps), mid, atol=1e-15)
    assert phi_eps(-1.5 * eps, eps) == -eps
    assert phi_eps(-10.0, eps) == -eps
    assert phi_eps(1.0 + 1.5 * eps, eps) == 1.0 + eps
    assert phi_eps(10.0, eps) == 1.0 + eps


@pytest.mark.parametrize("eps", [0.3, 0.05])
def test_phi_quadrature_agrees_with_branches(eps):
    ts = np.linspace(-2.0 * eps, 1.0 + 2.0 * eps, 41)
    a = phi_eps(ts, eps)
    b = phi_eps_quadrature(ts, eps)
    assert np.abs(a - b).max() <= 1e-8


def test_phi_range_invariant():
    eps = 0.2
    ts = np.linspace(-1.0, 2.0, 2001)
    vals = phi_eps(ts, eps)
    # transition bands are evaluated by quadrature; allow its noise floor
    assert vals.min() >= -eps - 1e-11
    assert vals.max() <= 1.0 + eps + 1e-11


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    s=st.floats(min_value=-1.0, max_value=2.0),
    dt=st.floats(min_value=1e-6, max_value=1.0),
)
def test_phi_monotone_and_lipschitz(s, dt):
    eps = 0.1
    lo, hi = phi_eps(np.array([s, s + dt]), eps)
    # 1e-11 slack absorbs transition-band quadrature noise (~2e-12)
    assert hi - lo >= -1e-11
    assert hi - lo <= dt + 1e-11


def test_capital_phi_identities():
    eps = 0.25
    # vanishes up to the ramp foot
    for t in (-3.0, 0.0, 0.5, 1.0):
        cap, dcap, ddcap = capital_phi_eps(t, eps)
        assert cap == 0.0
        assert dcap == 0.0
    # exact affine branch past the transition, slope 1 from 1 + eps on
    cap, dcap, _ = capital_phi_eps(1.0 + eps, eps)
    assert cap == pytest.approx(eps / 2.0, abs=1e-15)
    assert dcap == 1.0
    cap, dcap, _ = capital_phi_eps(1.0 + 2.0 * eps, eps)
    assert cap == pytest.approx(1.5 * eps, abs=1e-15)
    assert dcap == 1.0
    assert capital_phi_eps(0.0, eps) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        capital_phi_eps(1.0, 0.0)


def test_capital_phi_transition_continuity():
    eps = 0.25
    delta = 1e-5
    cap, _, _ = capital_phi_eps(1.0 + eps - delta, eps)
    # the kernel vanishes to all orders at the band edge, so the affine
    # extrapolation is already machine-accurate just inside it
    assert cap == pytest.approx(eps / 2.0 - delta, abs=1e-10)


def test_capital_phi_convexity():
    eps = 0.1
    ts = np.linspace(0.5, 1.5, 401)
    cap, dcap, ddcap = capital_phi_eps(ts, eps)
    assert (ddcap >= 0.0).all()
    assert (dcap >= 0.0).all() and (dcap <= 1.0 + 1e-12).all()
    second = np.diff(cap, 2)
    assert second.min() >= -1e-10
    # zeta is the derivative of the ramp: central difference cross-check
    h = 1e-6
    mid = 1.0 + 0.5 * eps
    fd = (capital_phi_eps(mid + h, eps)[0] - capital_phi_eps(mid - h, eps)[0]) / (2 * h)
    assert fd == pytest.approx(capital_phi_eps(mid, eps)[1], abs=1e-6)


def test_phi_prime_matches_difference_quotient():
    eps = 0.2
    # keep at least 1.5*eps away from the corners at 0 and 1, where the
    # derivative transitions between 0 and 1
    ts = np.array([-0.5, 0.5, 1.4])
    dp = phi_eps_prime(ts, eps)
    target = ((ts >= 0.0) & (ts <= 1.0)).astype(float)
    assert np.abs(dp - target).max() <= 1e-6


def test_family_table_layout():
    fam = MollifierFamily(eps=0.2)
    ts = np.linspace(-0.5, 1.5, 11)
    tab = fam.table(ts)
    assert tab.shape == (11, 5)
    np.testing.assert_array_equal(tab[:, 0], ts)
    np.testing.assert_allclose(tab[:, 1], phi_eps(ts, 0.2), atol=1e-15)
    cap, dcap, _ = capital_phi_eps(ts, 0.2)
    np.testing.assert_allclose(tab[:, 3], cap, atol=1e-15)
    np.testing.assert_allclose(tab[:, 4], dcap, atol=1e-15)
