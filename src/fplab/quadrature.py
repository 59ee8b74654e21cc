"""Symmetric quadrature rules on reference simplices.

Points are stored in barycentric coordinates, weights sum to 1 so that
integral(K, f) ~ vol(K) * sum_q w_q f(x_q). Rules are tabulated, not
generated, to keep the package dependency-free and the numbers frozen.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """A fixed rule on the reference simplex.

    Attributes
    ----------
    dim : int
        Simplex dimension (2 for triangles, 3 for tetrahedra).
    degree : int
        Highest polynomial degree the rule integrates exactly.
    points : ndarray, shape (nq, dim + 1)
        Barycentric coordinates of the quadrature points.
    weights : ndarray, shape (nq,)
        Positive weights summing to 1 (relative to element volume).
    """

    dim: int
    degree: int
    points: np.ndarray
    weights: np.ndarray


def _perms_3(a: float, b: float) -> list[tuple[float, float, float]]:
    return [(a, b, b), (b, a, b), (b, b, a)]


def _rule(dim, degree, pts, wts) -> QuadratureRule:
    points = np.asarray(pts, dtype=float)
    weights = np.asarray(wts, dtype=float)
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(dim=dim, degree=degree, points=points, weights=weights)


def _triangle_rules() -> dict[int, QuadratureRule]:
    rules = {}
    rules[1] = _rule(2, 1, [(1 / 3, 1 / 3, 1 / 3)], [1.0])
    rules[2] = _rule(2, 2, _perms_3(2 / 3, 1 / 6), [1 / 3] * 3)
    # 6-point degree-4 rule, both orbits fully symmetric, all weights positive.
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = _perms_3(1 - 2 * a1, a1) + _perms_3(1 - 2 * a2, a2)
    wts = [w1] * 3 + [w2] * 3
    rules[4] = _rule(2, 4, pts, wts)
    return rules


def _tet_perms_4(a: float, b: float) -> list[tuple[float, float, float, float]]:
    return [(a, b, b, b), (b, a, b, b), (b, b, a, b), (b, b, b, a)]


def _tet_pairs_6(a: float, b: float) -> list[tuple[float, float, float, float]]:
    out = []
    for i in range(3):
        for j in range(i + 1, 4):
            p = [b, b, b, b]
            p[i] = a
            p[j] = a
            # remaining two slots keep value (1 - 2a) / 2 = b
            out.append(tuple(p))
    return out


def _tetrahedron_rules() -> dict[int, QuadratureRule]:
    rules = {}
    rules[1] = _rule(3, 1, [(0.25, 0.25, 0.25, 0.25)], [1.0])
    a = (5 + 3 * np.sqrt(5)) / 20
    b = (5 - np.sqrt(5)) / 20
    rules[2] = _rule(3, 2, _tet_perms_4(a, b), [0.25] * 4)
    # 14-point degree-5 rule with positive weights (two vertex-type orbits
    # plus one edge-type orbit). Weights below are relative to tet volume.
    g1 = 0.09273525031089123
    g2 = 0.31088591926330050
    g3 = 0.04550370412564965
    w1 = 6 * 0.012248840519393658
    w2 = 6 * 0.018781320953002642
    w3 = 6 * 0.007091003462846911
    pts = (
        _tet_perms_4(1 - 3 * g1, g1)
        + _tet_perms_4(1 - 3 * g2, g2)
        + _tet_pairs_6(0.5 - g3, g3)
    )
    wts = [w1] * 4 + [w2] * 4 + [w3] * 6
    rules[5] = _rule(3, 5, pts, wts)
    return rules


_RULES = {2: _triangle_rules(), 3: _tetrahedron_rules()}

DEFAULT_DEGREE = 4


def quadrature_rule(dim: int, degree: int = DEFAULT_DEGREE) -> QuadratureRule:
    """Return the cheapest tabulated rule with at least the requested degree."""
    if dim not in _RULES:
        raise ValueError(f"no quadrature rules for dim={dim}")
    table = _RULES[dim]
    admissible = sorted(d for d in table if d >= degree)
    if not admissible:
        raise ValueError(f"no dim={dim} rule of degree >= {degree}")
    return table[admissible[0]]


@functools.lru_cache(maxsize=64)
def _leggauss(n: int):
    """Read-only reference nodes and weights on [-1, 1], computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n: int, lo: float, hi: float):
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi]."""
    x, w = _leggauss(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * x, half * w
