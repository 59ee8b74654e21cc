"""Coefficient presets, rough-field diagnostics, and sampled data."""

import math

import numpy as np
import pytest

from fplab import (
    AnalyticFunction,
    Ball,
    Box,
    ConfigError,
    DegenerateRadius,
    MeshInterpolant,
    MissingDerivative,
    NonEllipticSample,
    PRESET_NAMES,
    UnknownPreset,
    assemble_load,
    assemble_weighted_mass,
    boundary_facets,
    build_ball_mesh,
    build_box_mesh,
    example_i_phi,
    example_ii_profile,
    gauss_legendre,
    load_coefficient_data,
    lumped_weights,
    nondivergence_apply,
    preset,
    quadrature_rule,
    sample_domain_points,
    sampled_coefficient_set,
    unit_ball_volume,
    vmo_modulus,
    vmo_product_inequality_check,
    weak_divergence_matrix,
)

DOMAIN2 = Ball(center=(0.0, 0.0), radius=1.0)


def test_preset_identity():
    cs = preset("identity", 2)
    assert cs.lam == 1.0 and cs.m_bound == 1.0
    x = np.array([0.3, -0.7])
    np.testing.assert_allclose(cs.a(x), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(cs.drift(x), 0.0, atol=1e-15)
    np.testing.assert_allclose(cs.div_a(x), 0.0, atol=1e-15)


def test_preset_gaussian_gradient():
    cs = preset("gaussian_gradient", 3)
    x = np.array([0.1, 0.2, -0.3])
    np.testing.assert_allclose(cs.drift(x), -x, atol=1e-15)
    assert cs.reference_density(x) == pytest.approx(
        math.exp(-float(x @ x) / 2.0), rel=1e-14
    )


def test_preset_rotator_tangential():
    cs = preset("rotator", 2, omega=2.0)
    x = np.array([0.4, 0.3])
    b = np.asarray(cs.drift(x))
    assert float(b @ x) == pytest.approx(0.0, abs=1e-15)  # tangent to circles
    np.testing.assert_allclose(b, 2.0 * np.array([-0.3, 0.4]), atol=1e-15)
    cs3 = preset("rotator", 3)
    b3 = np.asarray(cs3.drift(np.array([0.4, 0.3, 0.9])))
    assert b3[2] == 0.0


# per preset: (lam, m_bound) at radius 1 and at radius 2, whether div_a is
# given, div_a_recoverable, and whether a reference density is present
PRESET_TABLE = {
    "identity": ((1.0, 1.0), (1.0, 1.0), True, True, True),
    "gaussian_gradient": ((1.0, 1.0), (1.0, 1.0), True, True, True),
    "rotator": ((1.0, 1.0), (1.0, 1.0), True, True, True),
    "example_i": ((1.0, 4.0), (1.0, 7.0), False, False, False),
    "example_ii": (
        (math.exp(-1.0), math.exp(1.0)),
        (math.exp(-2.0), math.exp(2.0)),
        True,
        True,
        False,
    ),
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_table(name, dim):
    bounds1, bounds2, has_div_a, recoverable, has_reference = PRESET_TABLE[name]
    for radius, bounds in ((1.0, bounds1), (2.0, bounds2)):
        cs = preset(name, dim, radius=radius)
        assert (cs.name, cs.dim) == (name, dim)
        assert (cs.lam, cs.m_bound) == bounds
        assert (cs.div_a is not None) == has_div_a
        assert cs.div_a_recoverable is recoverable
        assert (cs.reference_density is not None) == has_reference
        assert cs.c is cs.f_data is cs.flux_data is None


def test_preset_rotator_drift_is_exact():
    cs = preset("rotator", 3, omega=2.0)
    pts = np.array([[0.4, 0.3, 0.9], [-1.5, 0.25, -0.5], [0.0, -0.75, 0.125]])
    expected = np.array([[-0.6, 0.8, 0.0], [-0.5, -3.0, 0.0], [1.5, 0.0, 0.0]])
    np.testing.assert_array_equal(cs.drift(pts), expected)


def test_preset_unknown():
    with pytest.raises(UnknownPreset):
        preset("not_a_preset", 2)
    with pytest.raises(UnknownPreset):
        preset("identity", 4)


def test_example_i_phi_values():
    assert example_i_phi(np.zeros(2)) == 0.0
    pts = np.array([[0.3, 0.0], [0.0, 0.01], [0.5, 0.5]])
    vals = example_i_phi(pts)
    r2 = (pts * pts).sum(axis=1)
    # cos term is bounded by 1, so 1 + r^2 <= phi <= 3 + r^2
    assert (vals >= 1.0 + r2 - 1e-12).all()
    assert (vals <= 3.0 + r2 + 1e-12).all()


def test_example_i_declares_no_divergence():
    cs = preset("example_i", 2)
    assert cs.div_a is None
    assert cs.div_a_recoverable is False
    u = AnalyticFunction(
        value=lambda x: x[..., 0],
        grad=lambda x: np.broadcast_to(np.array([1.0, 0.0]), x.shape),
        hess=lambda x: np.zeros(x.shape + (2,)),
    )
    with pytest.raises(MissingDerivative):
        nondivergence_apply(cs, u, np.array([[0.3, 0.4]]))


def test_example_ii_profile_and_divergence():
    # eta(2/pi) = (2/pi) sin(pi/2) = 2/pi
    t = 2.0 / math.pi
    assert example_ii_profile(t) == pytest.approx(math.exp(t), rel=1e-14)
    assert example_ii_profile(0.0) == 1.0
    cs = preset("example_ii", 2)
    # a_ii depends only on the other coordinate, so the row divergence is 0
    x = np.array([0.37, 0.21])
    np.testing.assert_allclose(cs.div_a(x), 0.0, atol=1e-15)
    a = np.asarray(cs.a(x))
    assert a[0, 1] == 0.0 and a[1, 0] == 0.0
    assert a[0, 0] == pytest.approx(example_ii_profile(abs(x[1])), rel=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_declared_bounds_hold(name, dim):
    # the CoefficientSet contract on the unit ball the presets are built for:
    # lam |xi|^2 <= <a xi, xi> and max_ij |a_ij| <= m_bound
    cs = preset(name, dim)
    rng = np.random.default_rng(4)
    pts = sample_domain_points(Ball(center=np.zeros(dim), radius=1.0), 2000, rng)
    xi = rng.standard_normal((2000, dim))
    a = np.asarray(cs.a(pts))
    quad = np.einsum("na,nab,nb->n", xi, a, xi)
    assert (quad >= cs.lam * (xi * xi).sum(axis=1) * (1 - 1e-12)).all()
    assert np.abs(a).max() <= cs.m_bound


def test_sample_domain_points_inside():
    rng = np.random.default_rng(0)
    pts = sample_domain_points(Ball(center=(1.0, 0.0), radius=0.5), 256, rng)
    assert (np.linalg.norm(pts - [1.0, 0.0], axis=1) <= 0.5 + 1e-12).all()
    pts = sample_domain_points(Box(lo=(0.0, 0.0), hi=(1.0, 2.0)), 256, rng)
    assert (pts >= 0.0).all() and (pts[:, 1] <= 2.0).all()


def test_unit_ball_volume_closed_forms():
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


def test_vmo_constant_field_zero():
    rep = vmo_modulus(lambda x: np.full(x.shape[0], 2.5), DOMAIN2, [0.1, 0.2], seed=1)
    assert rep.raw.max() == 0.0
    assert rep.modulus.max() == 0.0


@pytest.mark.parametrize(
    "estimate",
    [vmo_modulus, lambda f, *args, **kw: vmo_product_inequality_check(f, f, *args, **kw)],
    ids=["modulus", "product"],
)
def test_vmo_radii_guards(estimate):
    field = lambda x: x[:, 0]
    with pytest.raises(DegenerateRadius):
        estimate(field, DOMAIN2, [], seed=1)
    with pytest.raises(DegenerateRadius):
        estimate(field, DOMAIN2, [-0.1, 0.2], seed=1)
    with pytest.raises(DegenerateRadius):
        estimate(field, DOMAIN2, [5.0], seed=1)  # exceeds the diameter
    with pytest.raises(ValueError):
        estimate(field, DOMAIN2, [0.1], samples=10, seed=1)


def test_vmo_modulus_running_max_and_order():
    field = lambda x: np.sign(x[:, 0])
    rep = vmo_modulus(field, DOMAIN2, [0.3, 0.05, 0.2], samples=2000, seed=2)
    np.testing.assert_array_equal(rep.radii, np.sort(rep.radii))
    np.testing.assert_array_equal(rep.modulus, np.maximum.accumulate(rep.raw))


def test_vmo_product_inequality_holds():
    f = lambda x: np.sign(x[:, 0])
    g = lambda x: 2.0 + np.sin(x[:, 1])
    rep = vmo_product_inequality_check(f, g, DOMAIN2, [0.2, 0.1], samples=2000, seed=5)
    assert rep.satisfied
    assert (rep.modulus_fg <= rep.bound + 3.0 * rep.stderr + 1e-14).all()


def test_weak_divergence_constant_matrix():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 8)
    wd = weak_divergence_matrix(mesh, lambda x: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)))
    # constant a: boundary flux cancels the moment integral identically
    assert np.abs(wd.values).max() <= 1e-10
    assert wd.residual <= 1e-10


def test_weak_divergence_linear_matrix():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 8)

    def a(x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 + x[:, 0]
        out[:, 1, 1] = 1.0 + x[:, 0]
        return out

    wd = weak_divergence_matrix(mesh, a)
    # div a = (1, 0); P1 recovery of a constant field is exact in the interior
    interior = mesh.interior
    np.testing.assert_allclose(wd.values[interior, 0], 1.0, atol=1e-10)
    np.testing.assert_allclose(wd.values[interior, 1], 0.0, atol=1e-10)


def _loop_facet_quadrature(mesh, facet, owner):
    vs = mesh.vertices[list(facet)]
    centroid = mesh.vertices[mesh.elements[owner]].mean(axis=0)
    if mesh.dim == 2:
        t = vs[1] - vs[0]
        length = float(np.linalg.norm(t))
        n = np.array([t[1], -t[0]]) / length
        nodes, w = gauss_legendre(4, 0.0, 1.0)
        pts = vs[0] + nodes[:, None] * t
        weights = w * length
        bary = np.stack([1 - nodes, nodes], axis=1)
    else:
        cr = np.cross(vs[1] - vs[0], vs[2] - vs[0])
        area = 0.5 * float(np.linalg.norm(cr))
        n = cr / np.linalg.norm(cr)
        rule = quadrature_rule(2, 4)
        bary = rule.points
        pts = bary @ vs
        weights = rule.weights * area
    if np.dot(n, vs.mean(axis=0) - centroid) < 0:
        n = -n
    return pts, weights, bary, n


def _loop_weak_divergence(mesh, a):
    """weak_divergence_matrix with its boundary flux summed facet by facet."""
    dim, nv = mesh.dim, mesh.num_vertices
    weights = lumped_weights(mesh)
    moments = np.stack(
        [assemble_load(mesh, flux=lambda x, l=l: a(x)[..., l]) for l in range(dim)], axis=1
    )
    flux = np.zeros((nv, dim))
    for facet, owner in boundary_facets(mesh):
        fp, fw, bary, n = _loop_facet_quadrature(mesh, facet, owner)
        an = np.einsum("qab,a->qb", np.stack([a(x) for x in fp]), n)
        for loc, v in enumerate(facet):
            flux[v] += np.einsum("q,qb,q->b", bary[:, loc], an, fw)
    values = (flux - moments) / weights[:, None]
    mass = assemble_weighted_mass(mesh)
    interior = mesh.interior
    defect = np.abs(moments[interior] + (mass @ values)[interior])
    return values, float((defect / weights[interior, None]).max())


@pytest.mark.parametrize("center", [(0.1, -0.2), (0.1, -0.2, 0.3)])
def test_weak_divergence_matches_the_facet_loop(center):
    mesh = build_ball_mesh(center, 1.3, levels=2)
    dim = mesh.dim

    def a(x):
        # pointwise only: a batch of points fails on x @ x, so the batched
        # recovery takes _eval_callable's pointwise fallback
        return (1.0 + x @ x) * np.eye(dim) + 0.3 * np.outer(x, np.sin(x))

    def a_batched(x):
        eye = (1.0 + (x * x).sum(axis=-1))[..., None, None] * np.eye(dim)
        return eye + 0.3 * x[..., :, None] * np.sin(x)[..., None, :]

    ref_values, ref_residual = _loop_weak_divergence(mesh, a)
    scale = np.abs(ref_values).max()
    for field in (a, a_batched):
        wd = weak_divergence_matrix(mesh, field)
        assert np.abs(wd.values - ref_values).max() <= 1e-14 * scale
        assert abs(wd.residual - ref_residual) <= 1e-14 * ref_residual


def test_nondivergence_apply_quadratic():
    cs = preset("gaussian_gradient", 2)
    u = AnalyticFunction(
        value=lambda x: (x**2).sum(axis=-1),
        grad=lambda x: 2.0 * x,
        hess=lambda x: np.broadcast_to(2.0 * np.eye(2), x.shape + (2,)),
    )
    pts = np.array([[0.3, 0.1], [0.0, 0.5]])
    # trace(a hess u) = 4, div a = 0, <drift, grad u> = -2 |x|^2
    got = nondivergence_apply(cs, u, pts)
    expected = 4.0 - 2.0 * (pts**2).sum(axis=1)
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_mesh_interpolant_reproduces_linears():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=2)
    vals = 2.0 * mesh.vertices[:, 0] - 0.5 * mesh.vertices[:, 1] + 1.0
    interp = MeshInterpolant(mesh, vals)
    rng = np.random.default_rng(7)
    pts = sample_domain_points(DOMAIN2, 200, rng) * 0.99
    got = interp(pts)
    expected = 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 1.0
    np.testing.assert_allclose(got, expected, atol=1e-12)
    # single-point call returns a scalar-shaped result
    one = interp(np.array([0.25, 0.25]))
    assert np.shape(one) == ()


def test_mesh_interpolant_matrix_values():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 4)
    vals = np.broadcast_to(np.eye(2), (mesh.num_vertices, 2, 2)).copy()
    interp = MeshInterpolant(mesh, vals)
    out = interp(np.array([[0.3, 0.7], [0.5, 0.5]]))
    np.testing.assert_allclose(out, np.broadcast_to(np.eye(2), (2, 2, 2)), atol=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_mesh_interpolant_returns_vertex_values_at_vertices(dim):
    # every element's vertices, whichever element each one is located in
    mesh = build_ball_mesh((0.0,) * dim, 1.0, levels=2)
    vals = np.random.default_rng(3).standard_normal(mesh.num_vertices)
    got = MeshInterpolant(mesh, vals)(mesh.element_coords())
    np.testing.assert_allclose(got, vals[mesh.elements], rtol=0, atol=1e-12)


def test_mesh_interpolant_shape_guard():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 2)
    with pytest.raises(ValueError):
        MeshInterpolant(mesh, np.zeros(3))
    with pytest.raises(ValueError):
        MeshInterpolant(mesh, np.full(mesh.num_vertices, np.nan))


def test_sampled_coefficient_set_defaults():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 4)
    a_vals = np.broadcast_to(2.0 * np.eye(2), (mesh.num_vertices, 2, 2)).copy()
    cs = sampled_coefficient_set(mesh, a_vals)
    assert cs.lam == pytest.approx(2.0, rel=1e-12)
    assert cs.m_bound == pytest.approx(2.0, rel=1e-12)
    assert cs.div_a is None and cs.div_a_recoverable
    np.testing.assert_allclose(cs.a(np.array([0.3, 0.3])), 2.0 * np.eye(2), atol=1e-12)


def test_sampled_coefficient_set_rejects_nonelliptic():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 2)
    a_vals = np.broadcast_to(np.diag([1.0, -0.5]), (mesh.num_vertices, 2, 2)).copy()
    with pytest.raises(NonEllipticSample):
        sampled_coefficient_set(mesh, a_vals)


def test_load_coefficient_data_roundtrip(tmp_path):
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 4)
    nv = mesh.num_vertices
    a = np.broadcast_to(np.eye(2), (nv, 2, 2)).copy()
    drift = np.stack([-mesh.vertices[:, 0], -mesh.vertices[:, 1]], axis=1)
    path = tmp_path / "coeffs.npz"
    np.savez(path, a=a, drift=drift)
    cs = load_coefficient_data(path, mesh)
    np.testing.assert_allclose(
        cs.drift(np.array([0.25, 0.5])), [-0.25, -0.5], atol=1e-12
    )

    bad = tmp_path / "bad.npz"
    np.savez(bad, drift=drift)  # missing the required diffusion block
    with pytest.raises(ConfigError):
        load_coefficient_data(bad, mesh)

    unknown = tmp_path / "unknown.npz"
    np.savez(unknown, a=a, extra=drift)
    with pytest.raises(ConfigError):
        load_coefficient_data(unknown, mesh)
