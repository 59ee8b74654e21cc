"""Coefficient fields: presets, VMO moduli, weak matrix divergence.

A CoefficientSet bundles the diffusion matrix with its declared ellipticity
bounds, the drift, optional analytic derivatives, and lower-order data.
preset reads one table of fields per preset. All preset callables
broadcast over a leading batch axis, so they can be sampled at (n, dim)
point arrays in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    DegenerateRadius,
    MissingDerivative,
    NonEllipticSample,
    SingularMass,
    UnknownPreset,
)
from .fem import (
    _eval_callable,
    _flux_local,
    _p1_at_quad,
    _quad_weights,
    _scatter_vector,
    assemble_weighted_mass,
    element_geometry,
    lumped_weights,
    matrix_at_quad,
)
from .mesh import Ball, Box, SimplicialMesh, _boundary_rows
from .quadrature import gauss_legendre, quadrature_rule


@dataclass
class CoefficientSet:
    """Diffusion/drift data with declared bounds.

    Attributes
    ----------
    name : str
    dim : int
    a : callable
        Diffusion matrix, x -> (dim, dim); must satisfy
        lam |xi|^2 <= <a xi, xi> and max_ij |a_ij| <= m_bound on the domain
        the bounds were declared for.
    lam, m_bound : float
        Declared ellipticity constants.
    drift : callable
        First-order coefficient H, x -> (dim,).
    div_a : callable or None
        Analytic row-wise weak divergence of a, x -> (dim,); None when the
        preset has no usable derivative.
    div_a_recoverable : bool
        Whether a finite element recovery of div a is mathematically
        meaningful when div_a is None.
    c, f_data, flux_data : callable or None
        Zero-order coefficient and source data (None means identically 0).
    reference_density : callable or None
        Known stationary density up to scaling, for oracle comparisons.
    """

    name: str
    dim: int
    a: Callable
    lam: float
    m_bound: float
    drift: Callable
    div_a: Optional[Callable] = None
    div_a_recoverable: bool = True
    c: Optional[Callable] = None
    f_data: Optional[Callable] = None
    flux_data: Optional[Callable] = None
    reference_density: Optional[Callable] = None


@dataclass
class AnalyticFunction:
    """Scalar function with analytic gradient and Hessian callbacks."""

    value: Callable
    grad: Callable
    hess: Optional[Callable] = None


def _isotropic(scalar: Callable, dim: int) -> Callable:
    def a(x):
        x = np.asarray(x, dtype=float)
        s = np.asarray(scalar(x), dtype=float)
        out = np.zeros(s.shape + (dim, dim))
        for i in range(dim):
            out[..., i, i] = s
        return out

    return a


def _zero_vector(dim: int) -> Callable:
    def z(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (dim,))

    return z


def _one(x):
    x = np.asarray(x, dtype=float)
    return np.ones(x.shape[:-1])


def example_i_phi(x):
    """2 + |x|^2 + cos(log log(1 + 1/|x|)), with value 0 at the origin.

    Bounded between 1 and 3 + |x|^2 away from 0; the gradient of the
    oscillatory part is not locally integrable to any power above 1, which
    is why the matching preset declares its divergence unavailable.
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt((x * x).sum(axis=-1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = 2.0 + r * r + np.cos(np.log(np.log1p(1.0 / r)))
    return np.where(r > 0, val, 0.0)


def _example_ii_eta(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = t * np.sin(1.0 / t)
    return np.where(t > 0, v, 0.0)


def example_ii_profile(t):
    """exp(eta(t)) with eta(t) = t sin(1/t) for t > 0, 0 otherwise."""
    return np.exp(_example_ii_eta(t))


PRESET_NAMES = ("identity", "gaussian_gradient", "rotator", "example_i", "example_ii")


def preset(name: str, dim: int, radius: float = 1.0, omega: float = 1.0) -> CoefficientSet:
    """Build a named coefficient preset.

    Parameters
    ----------
    name : str
        One of PRESET_NAMES.
    dim : int
        Ambient dimension, 2 or 3.
    radius : float
        Radius of the ball about the origin that the declared bounds must
        cover (bounds of the rough presets depend on the domain size).
    omega : float
        Angular speed of the rotator drift.
    """
    if dim not in (2, 3):
        raise UnknownPreset(f"presets are defined for dim 2 or 3, got {dim}")

    def gaussian(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x * x).sum(axis=-1))

    def rotator_drift(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = -omega * x[..., 1]
        out[..., 1] = omega * x[..., 0]
        return out

    def example_ii_a(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim, dim))
        for i in range(dim):
            out[..., i, i] = example_ii_profile(x[..., (i + 1) % dim])
        return out

    # the fields of each preset; the unit-diffusion fields are shared
    zero = _zero_vector(dim)
    unit = {"a": _isotropic(_one, dim), "lam": 1.0, "m_bound": 1.0, "drift": zero, "div_a": zero}
    table = {
        "identity": {**unit, "reference_density": _one},
        "gaussian_gradient": {
            **unit, "drift": lambda x: -np.asarray(x, dtype=float), "reference_density": gaussian
        },
        "rotator": {**unit, "drift": rotator_drift, "reference_density": _one},
        "example_i": {
            **unit, "a": _isotropic(example_i_phi, dim), "m_bound": 3.0 + radius * radius,
            "div_a": None, "div_a_recoverable": False,
        },
        "example_ii": {
            **unit, "a": example_ii_a, "lam": math.exp(-radius), "m_bound": math.exp(radius)
        },
    }
    if name not in table:
        raise UnknownPreset(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
    return CoefficientSet(name=name, dim=dim, **table[name])


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


def sample_domain_points(domain, n: int, rng) -> np.ndarray:
    """Uniform samples in a Ball or Box."""
    if isinstance(domain, Ball):
        dim = domain.dim
        u = rng.standard_normal((n, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = domain.radius * rng.random(n) ** (1.0 / dim)
        return np.asarray(domain.center) + u * r[:, None]
    if isinstance(domain, Box):
        lo = np.asarray(domain.lo)
        hi = np.asarray(domain.hi)
        return lo + rng.random((n, len(lo))) * (hi - lo)
    raise TypeError(f"unsupported domain {type(domain).__name__}")


@dataclass
class VmoReport:
    """Monte Carlo mean-oscillation estimates over a radii grid.

    modulus[k] is the running maximum of the raw estimates over radii up to
    radii[k], matching the sup over r < R in the definition being sampled.
    """

    radii: np.ndarray
    raw: np.ndarray
    modulus: np.ndarray
    stderr: np.ndarray
    samples: int
    num_centers: int
    seed: int


def _vmo_pairs(domain, radii, samples: int, centers, num_centers: int, seed: int):
    """Validate a VMO sampling grid and draw its sample pairs.

    Returns the sorted radii, the centers (sampled uniformly from the domain
    unless given) and a lazy stream of (k, x, y): for each radius radii[k]
    and each center z, two independent draws of `samples` points uniform in
    the ball of radius radii[k] around z. Every estimator draws from one
    generator seeded with `seed`, centers first, in this order.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii.size == 0:
        raise DegenerateRadius("empty radii grid")
    if (radii <= 0).any():
        raise DegenerateRadius(f"radii must be positive, got min {radii.min():.3e}")
    if radii.max() > domain.diameter:
        raise DegenerateRadius(
            f"radius {radii.max():.3e} exceeds the domain diameter {domain.diameter:.3e}"
        )
    if samples < 1000:
        raise ValueError(f"need at least 1000 sample pairs, got {samples}")
    rng = np.random.default_rng(seed)
    if centers is None:
        centers = sample_domain_points(domain, num_centers, rng)
    else:
        centers = np.atleast_2d(np.asarray(centers, dtype=float))

    def pairs():
        for k, r in enumerate(radii):
            for z in centers:
                x = sample_domain_points(Ball(z, r), samples, rng)
                y = sample_domain_points(Ball(z, r), samples, rng)
                yield k, x, y

    return radii, centers, pairs()


def vmo_modulus(
    field: Callable,
    domain,
    radii,
    samples: int = 2000,
    centers=None,
    num_centers: int = 8,
    seed: int = 0,
) -> VmoReport:
    """Estimate the mean-oscillation modulus of a scalar field.

    For each radius r and center z, draws `samples` independent pairs
    (x, y) uniform in the ball of radius r around z and averages |f(x)-f(y)|;
    the normalization r^(-2 dim) vol(B_r)^2 collapses to the squared unit
    ball volume, so the estimate is omega_dim^2 * mean. Raw estimates take
    the max over centers, the modulus takes running maxima over radii.

    Centers may be supplied explicitly (e.g. on a discontinuity interface);
    otherwise they are sampled uniformly from the domain.
    """
    radii, centers, pairs = _vmo_pairs(domain, radii, samples, centers, num_centers, seed)
    w2 = unit_ball_volume(centers.shape[1]) ** 2

    raw = np.full(radii.size, -np.inf)
    stderr = np.zeros(radii.size)
    for k, x, y in pairs:
        diff = np.abs(np.asarray(field(x)) - np.asarray(field(y)))
        est = w2 * float(diff.mean())
        if est > raw[k]:
            raw[k] = est
            stderr[k] = w2 * float(diff.std(ddof=1)) / math.sqrt(samples)
    modulus = np.maximum.accumulate(raw)
    return VmoReport(
        radii=radii,
        raw=raw,
        modulus=modulus,
        stderr=stderr,
        samples=samples,
        num_centers=len(centers),
        seed=seed,
    )


@dataclass
class VmoProductReport:
    radii: np.ndarray
    modulus_f: np.ndarray
    modulus_g: np.ndarray
    modulus_fg: np.ndarray
    bound: np.ndarray
    stderr: np.ndarray
    sup_f: float
    sup_g: float
    satisfied: bool


def vmo_product_inequality_check(
    f: Callable,
    g: Callable,
    domain,
    radii,
    samples: int = 2000,
    num_centers: int = 8,
    seed: int = 0,
) -> VmoProductReport:
    """Check the product estimate w_fg <= sup|f| w_g + sup|g| w_f.

    All three moduli are estimated from the SAME sample pairs, and the sup
    norms are taken over the sampled points, so the pointwise triangle
    inequality transfers to the estimates; the 3-standard-error slack in the
    reported verdict only guards degenerate roundoff. The radii and sample
    count are validated as in vmo_modulus.
    """
    radii, centers, pairs = _vmo_pairs(domain, radii, samples, None, num_centers, seed)
    w2 = unit_ball_volume(centers.shape[1]) ** 2

    nrad = radii.size
    raw_f = np.zeros(nrad)
    raw_g = np.zeros(nrad)
    raw_fg = np.zeros(nrad)
    stderr = np.zeros(nrad)
    sup_f = sup_g = 0.0
    for k, x, y in pairs:
        fx, fy = np.asarray(f(x)), np.asarray(f(y))
        gx, gy = np.asarray(g(x)), np.asarray(g(y))
        sup_f = max(sup_f, float(np.abs(fx).max()), float(np.abs(fy).max()))
        sup_g = max(sup_g, float(np.abs(gx).max()), float(np.abs(gy).max()))
        df = np.abs(fx - fy)
        dg = np.abs(gx - gy)
        dfg = np.abs(fx * gx - fy * gy)
        raw_f[k] = max(raw_f[k], w2 * float(df.mean()))
        raw_g[k] = max(raw_g[k], w2 * float(dg.mean()))
        raw_fg[k] = max(raw_fg[k], w2 * float(dfg.mean()))
        stderr[k] = max(stderr[k], w2 * float(dfg.std(ddof=1)) / math.sqrt(samples))
    mod_f = np.maximum.accumulate(raw_f)
    mod_g = np.maximum.accumulate(raw_g)
    mod_fg = np.maximum.accumulate(raw_fg)
    bound = sup_f * mod_g + sup_g * mod_f
    satisfied = bool((mod_fg <= bound + 3 * stderr + 1e-14).all())
    return VmoProductReport(
        radii=radii,
        modulus_f=mod_f,
        modulus_g=mod_g,
        modulus_fg=mod_fg,
        bound=bound,
        stderr=stderr,
        sup_f=sup_f,
        sup_g=sup_g,
        satisfied=satisfied,
    )


@dataclass
class WeakDivergence:
    """P1 recovery of the row-wise weak divergence of a matrix field."""

    values: np.ndarray  # (nv, dim)
    residual: float     # max normalized defect against interior tests
    mesh: SimplicialMesh

    def at_quad(self, block: slice = slice(None)) -> np.ndarray:
        """Values at the quadrature points of a block of elements, shape
        (nb, nq, dim)."""
        return _p1_at_quad(self.mesh, self.values, block)


def _boundary_facet_quadrature(mesh: SimplicialMesh):
    """Quadrature on every boundary facet at once.

    Returns the facets' sorted vertex ids (F, dim) in boundary_facets order,
    the barycentric quadrature points of a facet (nq, dim), their physical
    coordinates (F, nq, dim), weights (F, nq) summing to each facet's measure,
    and outward unit normals (F, dim).
    """
    dim = mesh.dim
    rows, facets, _ = _boundary_rows(mesh)
    vs = mesh.vertices[facets]  # (F, dim, dim)
    if dim == 2:
        t = vs[:, 1] - vs[:, 0]
        measure = _row_norms(t)
        normals = np.stack([t[:, 1], -t[:, 0]], axis=1) / measure[:, None]
        nodes, w = gauss_legendre(4, 0.0, 1.0)
        bary = np.stack([1 - nodes, nodes], axis=1)
        pts = vs[:, None, 0] + nodes[:, None] * t[:, None]
    else:
        cross = np.cross(vs[:, 1] - vs[:, 0], vs[:, 2] - vs[:, 0])
        norms = _row_norms(cross)
        measure = 0.5 * norms
        normals = cross / norms[:, None]
        rule = quadrature_rule(2, 4)
        bary, w = rule.points, rule.weights
        pts = bary @ vs
    centroids = mesh.element_coords()[rows // (dim + 1)].mean(axis=1)
    inward = np.einsum("fd,fd->f", normals, vs.mean(axis=1) - centroids) < 0
    normals[inward] *= -1.0
    return facets, bary, pts, w * measure[:, None], normals


def _row_norms(x: np.ndarray) -> np.ndarray:
    # a stacked matmul takes the same dot product as np.linalg.norm of one row
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def weak_divergence_matrix(mesh: SimplicialMesh, a) -> WeakDivergence:
    """Recover div a (row-wise, distributional) as a per-vertex P1 field.

    The recovery is a lumped-mass projection: for each component l the
    moment integral int <a e_l, grad phi_m> dx is corrected by the boundary
    flux int_bnd (a e_l . n) phi_m ds (both computable from pointwise samples
    of a), which by the divergence theorem equals -int (div a)_l phi_m dx
    whenever the weak divergence is integrable. The reported residual is the
    largest lumped-vs-consistent defect over interior test functions,
    normalized by the test function mass.
    """
    grads, _ = element_geometry(mesh)
    dim, nv = mesh.dim, mesh.num_vertices

    weights = lumped_weights(mesh)
    if (weights <= 0).any():
        raise SingularMass(f"lumped weight {weights.min():.3e} is not positive")

    # int <a e_l, grad phi_i> dx per element, vertex and column l
    def kernel(block):
        wr = _quad_weights(mesh, None, block=block)
        a_q = matrix_at_quad(a, mesh, block=block)
        return np.stack([_flux_local(wr, a_q[..., l], grads[block]) for l in range(dim)], axis=2)

    moments = _scatter_vector(mesh, kernel, (dim,))

    facets, bary, fp, fw, normals = _boundary_facet_quadrature(mesh)
    a_f = _eval_callable(a, fp.reshape(-1, dim), (dim, dim)).reshape(fp.shape + (dim,))
    an = np.einsum("fqab,fa->fqb", a_f, normals)  # (a^T n)_b = (a e_b) . n
    local = np.einsum("ql,fqb,fq->flb", bary, an, fw)
    # rows in (facet, local vertex) order, so each vertex sums its facets in
    # boundary_facets order
    flux = np.zeros((nv, dim))
    np.add.at(flux, facets.ravel(), local.reshape(-1, dim))

    values = (flux - moments) / weights[:, None]

    mass = assemble_weighted_mass(mesh)
    interior = mesh.interior
    defect = np.abs(moments[interior] + (mass @ values)[interior])
    residual = float((defect / weights[interior, None]).max())
    return WeakDivergence(values=values, residual=residual, mesh=mesh)


def nondivergence_apply(cs: CoefficientSet, u: AnalyticFunction, points) -> np.ndarray:
    """trace(a hess(u)) + <div a + drift, grad u> at the given points.

    Needs the analytic divergence of a and the analytic Hessian of u.
    """
    if cs.div_a is None:
        raise MissingDerivative(
            f"preset {cs.name!r} does not provide an analytic div a"
        )
    if u.hess is None:
        raise MissingDerivative("u does not provide an analytic Hessian")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a_v = _eval_callable(cs.a, pts, (cs.dim, cs.dim))
    h_v = _eval_callable(u.hess, pts, (cs.dim, cs.dim))
    g_v = _eval_callable(u.grad, pts, (cs.dim,))
    da = _eval_callable(cs.div_a, pts, (cs.dim,))
    dr = _eval_callable(cs.drift, pts, (cs.dim,))
    out = np.einsum("nab,nba->n", a_v, h_v) + np.einsum("na,na->n", da + dr, g_v)
    return out if np.asarray(points).ndim > 1 else float(out[0])


class MeshInterpolant:
    """Barycentric evaluation of vertex-indexed data anywhere in a mesh.

    Wraps an array of per-vertex values (scalars, vectors, or matrices) as
    a callable over physical points. Element lookup goes through a k-d tree
    on element centroids with a brute-force barycentric fallback; points
    outside the triangulated hull are assigned to the element whose
    barycentric coordinates violate least, then clipped, which extends the
    field continuously past polyhedral boundary facets. fem's samplers take
    the values of an interpolant of their own mesh as P1 vertex data, with
    no lookup; on another mesh they call it.
    """

    def __init__(self, mesh: SimplicialMesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != mesh.num_vertices:
            raise ValueError(
                f"vertex data has {values.shape[0]} rows for "
                f"{mesh.num_vertices} mesh vertices"
            )
        if not np.isfinite(values).all():
            raise ValueError("vertex data contains non-finite entries")
        self.mesh = mesh
        self.values = values
        # grad of the barycentric coordinates of vertices 1..dim, (ne, dim, dim)
        self._grads = mesh._gradients[:, :, 1:]
        self._k = min(16, mesh.num_elements)

    # the lookup structures are built on the first locate: fem samples an
    # interpolant of its own mesh as P1 data and never locates
    @cached_property
    def _origins(self) -> np.ndarray:
        return self.mesh.vertices[self.mesh.elements[:, 0]]

    @cached_property
    def _tree(self):
        from scipy.spatial import cKDTree

        return cKDTree(self.mesh.element_coords().mean(axis=1))

    def locate(self, pts: np.ndarray):
        """Element index and clipped barycentric weights per query point."""
        pts = np.asarray(pts, dtype=float)
        n = pts.shape[0]
        _, cand = self._tree.query(pts, k=self._k)
        cand = cand.reshape(n, self._k)
        diffs = pts[:, None, :] - self._origins[cand]
        lam_rest = np.einsum("nkba,nkb->nka", self._grads[cand], diffs)
        lam0 = 1.0 - lam_rest.sum(axis=-1)
        bary = np.concatenate([lam0[..., None], lam_rest], axis=-1)
        score = bary.min(axis=-1)
        best = score.argmax(axis=1)
        rows = np.arange(n)
        idx = cand[rows, best]
        weights = bary[rows, best]

        # a clearly negative best score means the true element was outside
        # the candidate set; rescan those points against all elements
        missed = np.flatnonzero(score[rows, best] < -1e-9)
        for p in missed:
            d = pts[p] - self._origins
            lr = np.einsum("eba,eb->ea", self._grads, d)
            b = np.concatenate([1.0 - lr.sum(axis=1, keepdims=True), lr], axis=1)
            e = b.min(axis=1).argmax()
            idx[p] = e
            weights[p] = b[e]

        weights = np.clip(weights, 0.0, None)
        weights /= weights.sum(axis=1, keepdims=True)
        return idx, weights

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        flat = x.reshape(-1, self.mesh.dim)
        idx, w = self.locate(flat)
        local = self.values[self.mesh.elements[idx]]
        out = np.einsum("nk,nk...->n...", w, local)
        trailing = self.values.shape[1:]
        if single:
            return out[0] if trailing else float(out[0])
        return out.reshape(x.shape[:-1] + trailing)


def sampled_coefficient_set(
    mesh: SimplicialMesh,
    a_values,
    drift_values=None,
    c_values=None,
    f_values=None,
    flux_values=None,
    lam: Optional[float] = None,
    m_bound: Optional[float] = None,
    name: str = "sampled",
) -> CoefficientSet:
    """Coefficient set from vertex-indexed data arrays.

    a_values has shape (nv, dim, dim); drift and flux (nv, dim); c and f
    (nv,). Fields are extended off the vertices by barycentric
    interpolation. Ellipticity bounds default to those of the sampled
    values: lam is the smallest eigenvalue of the symmetrized a over the
    vertices, m_bound the largest entry magnitude. The interpolated a has
    no analytic divergence, but a finite element recovery is meaningful, so
    div_a is left recoverable.
    """
    dim = mesh.dim
    a_values = np.asarray(a_values, dtype=float)
    if a_values.shape != (mesh.num_vertices, dim, dim):
        raise ValueError(
            f"a_values must have shape ({mesh.num_vertices}, {dim}, {dim}), "
            f"got {a_values.shape}"
        )
    if lam is None:
        sym = 0.5 * (a_values + a_values.transpose(0, 2, 1))
        lam = float(np.linalg.eigvalsh(sym)[:, 0].min())
    if m_bound is None:
        m_bound = float(np.abs(a_values).max())
    if lam <= 0:
        raise NonEllipticSample(
            f"sampled diffusion matrix has smallest eigenvalue {lam:.3e}"
        )

    def field(values, shape_tail):
        if values is None:
            return None
        values = np.asarray(values, dtype=float)
        want = (mesh.num_vertices,) + shape_tail
        if values.shape != want:
            raise ValueError(f"vertex data must have shape {want}, got {values.shape}")
        return MeshInterpolant(mesh, values)

    drift = field(drift_values, (dim,))
    if drift is None:
        drift = _zero_vector(dim)
    return CoefficientSet(
        name=name,
        dim=dim,
        a=MeshInterpolant(mesh, a_values),
        lam=lam,
        m_bound=m_bound,
        drift=drift,
        div_a=None,
        div_a_recoverable=True,
        c=field(c_values, ()),
        f_data=field(f_values, ()),
        flux_data=field(flux_values, (dim,)),
    )


def load_coefficient_data(path, mesh: SimplicialMesh) -> CoefficientSet:
    """Read a coefficient .npz data file of vertex-indexed arrays.

    Required key: "a". Optional: "drift", "c", "f", "flux", and scalar
    overrides "lam" and "m_bound".
    """
    with np.load(path) as data:
        if "a" not in data:
            raise ConfigError(f"coefficient data file {path} lacks the key 'a'")
        known = {"a", "drift", "c", "f", "flux", "lam", "m_bound"}
        for key in data.files:
            if key not in known:
                raise ConfigError(
                    f"coefficient data file {path} has unknown key {key!r}"
                )

        def opt(key):
            return data[key] if key in data else None

        try:
            return sampled_coefficient_set(
                mesh,
                data["a"],
                drift_values=opt("drift"),
                c_values=opt("c"),
                f_values=opt("f"),
                flux_values=opt("flux"),
                lam=float(data["lam"]) if "lam" in data else None,
                m_bound=float(data["m_bound"]) if "m_bound" in data else None,
                name="data",
            )
        except ValueError as exc:
            raise ConfigError(f"coefficient data file {path}: {exc}") from None
