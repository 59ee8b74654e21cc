"""Quadrature rules against closed-form reference integrals."""

import itertools
import math

import numpy as np
import pytest

from fplab import gauss_legendre, quadrature_rule


def reference_monomial_integral(dim: int, exponents) -> float:
    """Exact integral of x^a over the reference simplex {x_i >= 0, sum x_i <= 1},
    the oracle of the exactness tests.

    Uses the Dirichlet formula: integral = prod(a_i!) / (dim + sum a_i)!.
    """
    exponents = list(exponents)
    if len(exponents) != dim:
        raise ValueError("need one exponent per coordinate")
    num = 1
    for a in exponents:
        num *= math.factorial(a)
    return num / math.factorial(dim + sum(exponents))


def test_reference_monomial_hand_values():
    # Dirichlet formula cross-checked against integrals done by hand:
    # int_T2 1 = 1/2, int_T2 x = 1/6, int_T2 xy = 1/24, int_T2 x^2 = 1/12,
    # int_T3 1 = 1/6, int_T3 xyz = 1/720.
    assert reference_monomial_integral(2, (0, 0)) == 0.5
    assert reference_monomial_integral(2, (1, 0)) == pytest.approx(1 / 6, rel=1e-15)
    assert reference_monomial_integral(2, (1, 1)) == pytest.approx(1 / 24, rel=1e-15)
    assert reference_monomial_integral(2, (2, 0)) == pytest.approx(1 / 12, rel=1e-15)
    assert reference_monomial_integral(3, (0, 0, 0)) == pytest.approx(1 / 6, rel=1e-15)
    assert reference_monomial_integral(3, (1, 1, 1)) == pytest.approx(1 / 720, rel=1e-15)


def test_reference_monomial_rejects_wrong_arity():
    with pytest.raises(ValueError):
        reference_monomial_integral(2, (1, 0, 0))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_rule_exact_on_monomials(dim, degree):
    rule = quadrature_rule(dim, degree)
    assert rule.degree >= degree
    # barycentric points: nonnegative rows summing to 1
    assert rule.points.shape[1] == dim + 1
    assert (rule.points >= -1e-14).all()
    np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    assert (rule.weights > 0).all()
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)

    # cartesian coordinates on the reference simplex are the trailing
    # barycentric components
    xs = rule.points[:, 1:]
    vol = 1 / math.factorial(dim)
    for expo in itertools.product(range(degree + 1), repeat=dim):
        if sum(expo) > rule.degree:
            continue
        approx = vol * float(rule.weights @ np.prod(xs**np.array(expo), axis=1))
        exact = reference_monomial_integral(dim, expo)
        assert approx == pytest.approx(exact, abs=1e-14), f"monomial {expo}"


def test_rule_lookup_errors():
    with pytest.raises(ValueError):
        quadrature_rule(4)
    with pytest.raises(ValueError):
        quadrature_rule(2, degree=99)


def test_gauss_legendre_degree_and_weights():
    nodes, weights = gauss_legendre(3, 0.0, 1.0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    # 3 points integrate degree 5 exactly: int_0^1 x^5 = 1/6
    assert float(weights @ nodes**5) == pytest.approx(1 / 6, abs=1e-14)
    nodes, weights = gauss_legendre(5, -2.0, 3.0)
    assert weights.sum() == pytest.approx(5.0, abs=1e-12)
    # int_{-2}^{3} x^2 = (27 + 8) / 3
    assert float(weights @ nodes**2) == pytest.approx(35 / 3, rel=1e-14)
