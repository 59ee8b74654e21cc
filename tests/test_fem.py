"""P1 assembly against hand-computed element matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fplab.mesh
from fplab import (
    Box,
    FeFunction,
    NonFiniteValue,
    NonPositiveDensity,
    SimplicialMesh,
    assemble_drift,
    assemble_form,
    assemble_load,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    build_ball_mesh,
    build_box_mesh,
    decompose_drift,
    divergence_free_residual,
    element_geometry,
    interpolate,
    l2_error,
    lumped_weights,
    norm,
    physical_quad_points,
    preset,
    quadrature_norm,
    quadrature_rule,
    solve_invariant_density,
    vector_at_quad,
    weak_divergence_matrix,
)
from fplab.fem import _Restriction
from fplab.mesh import _p1_gradients, signed_volumes


def reference_triangle():
    """Single unit right triangle (0,0), (1,0), (0,1)."""
    return SimplicialMesh(
        dim=2,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        boundary=np.ones(3, dtype=bool),
        domain=Box(lo=(0.0, 0.0), hi=(1.0, 1.0)),
    )


def test_stiffness_reference_triangle():
    # gradients (-1,-1), (1,0), (0,1) on area 1/2 give the classic matrix
    s = assemble_weighted_stiffness(reference_triangle(), np.eye(2)).toarray()
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_allclose(s, expected, atol=1e-14)


def test_stiffness_anisotropic_diffusion():
    # a = diag(2, 3): S[i,j] = int <a grad phi_j, grad phi_i>
    a = np.diag([2.0, 3.0])
    s = assemble_weighted_stiffness(reference_triangle(), a).toarray()
    grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    expected = 0.5 * grads @ a @ grads.T
    np.testing.assert_allclose(s, expected, atol=1e-14)


def test_mass_reference_triangle():
    m = assemble_weighted_mass(reference_triangle()).toarray()
    expected = (1.0 / 24.0) * np.array(
        [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
    )
    np.testing.assert_allclose(m, expected, atol=1e-15)


def test_drift_reference_triangle():
    # D[i,j] = -int <b, grad phi_j> phi_i; with b = (1,0) the directional
    # derivatives are (-1, 1, 0) and each int phi_i = 1/6
    d = assemble_drift(reference_triangle(), np.array([1.0, 0.0])).toarray()
    expected = -np.outer(np.full(3, 1.0 / 6.0), np.array([-1.0, 1.0, 0.0]))
    np.testing.assert_allclose(d, expected, atol=1e-15)


def test_load_source_and_flux():
    mesh = reference_triangle()
    load = assemble_load(mesh, f=1.0)
    np.testing.assert_allclose(load, np.full(3, 1.0 / 6.0), atol=1e-15)
    # flux term: int <F, grad phi_i> with F = (1,0) gives (-1, 1, 0) / 2
    load = assemble_load(mesh, flux=np.array([1.0, 0.0]))
    np.testing.assert_allclose(load, np.array([-0.5, 0.5, 0.0]), atol=1e-15)


def test_lumped_weights_partition_volume():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 4)
    w = lumped_weights(mesh)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    assert (w > 0).all()


def test_quadrature_norm_square():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 8)
    u = interpolate(mesh, lambda x: x[..., 0])
    # ||x_0||_{L^2} on the unit square is 1/sqrt(3); the interpolant of a
    # linear function is exact, so quadrature reproduces it to roundoff
    val = quadrature_norm(mesh, u.at_quad(), p=2.0)
    assert val == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-13)
    # p = 1 of the constant 1 is the volume
    ones = np.ones_like(u.at_quad())
    assert quadrature_norm(mesh, ones, p=1.0) == pytest.approx(1.0, rel=1e-14)
    assert quadrature_norm(mesh, u.at_quad(), p=np.inf) <= 1.0 + 1e-14


def test_norm_weighted():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 8)
    u = interpolate(mesh, lambda x: x[..., 0])
    # int x^2 * 2 dx = 2/3 over the unit square
    val = norm(u, p=2.0, weight=2.0)
    assert val == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-13)


def test_interpolate_and_l2_error():
    mesh = build_box_mesh((0.0, 0.0), (2.0, 2.0), 4)

    def affine(x):
        return 3.0 * x[..., 0] - 2.0 * x[..., 1] + 1.0

    u = interpolate(mesh, affine)
    assert l2_error(u, affine) <= 1e-13
    shifted = lambda x: affine(x) + 0.5
    assert l2_error(u, shifted) == pytest.approx(0.5 * 2.0, rel=1e-13)  # 0.5 * sqrt(area)


def test_element_gradients_constant():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 3)
    u = interpolate(mesh, lambda x: 2.0 * x[..., 0] - x[..., 1])
    g = u.element_gradients()
    np.testing.assert_allclose(g, np.broadcast_to([2.0, -1.0], g.shape), atol=1e-13)


def test_fe_function_shape_check():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 2)
    with pytest.raises(ValueError):
        FeFunction(mesh=mesh, values=np.zeros(3))


def test_p1_field_of_another_mesh_is_refused():
    # the two level-2 disks have the same element count, so sampling one
    # disk's P1 field on the other used to give a silently wrong answer
    disk1 = build_ball_mesh((0.0, 0.0), 1.0, levels=2)
    disk2 = build_ball_mesh((0.0, 0.0), 2.0, levels=2)
    assert disk1.num_elements == disk2.num_elements
    u = interpolate(disk1, lambda x: x[..., 0])
    with pytest.raises(ValueError, match="another mesh"):
        quadrature_norm(disk2, u)
    with pytest.raises(ValueError, match="another mesh"):
        assemble_weighted_mass(disk2, rho=interpolate(disk1, 1.0))
    div_a = weak_divergence_matrix(disk1, preset("identity", 2).a)
    with pytest.raises(ValueError, match="another mesh"):
        vector_at_quad(div_a, disk2)
    # on its own mesh the field samples as before
    assert quadrature_norm(disk1, u) == norm(u)


def test_positivity_guard():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 2)
    with pytest.raises(NonPositiveDensity):
        assemble_weighted_mass(mesh, rho=lambda x: x[..., 0] - 0.5)
    # the load vector admits the same weight
    load = assemble_load(mesh, f=1.0, rho=lambda x: x[..., 0] - 0.5)
    assert np.isfinite(load).all()


def test_nonfinite_field_rejected():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 2)
    with pytest.raises(NonFiniteValue):
        interpolate(mesh, lambda x: np.where(x[..., 0] > 0.4, np.nan, 1.0))


def test_field_errors_surface_from_assembly():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 2)

    def a(x):
        # fine point by point, broken on a batch by a real error
        if x.ndim > 1:
            raise ZeroDivisionError("batched coefficient")
        return np.eye(2)

    with pytest.raises(ZeroDivisionError, match="batched coefficient"):
        assemble_weighted_stiffness(mesh, a)

    def b(x):
        # pointwise only: a batch fails with a TypeError, and falls back
        return np.array([float(x[0]), 0.0])

    ref = assemble_drift(mesh, lambda x: np.stack([x[..., 0], 0.0 * x[..., 1]], axis=-1))
    np.testing.assert_allclose(assemble_drift(mesh, b).toarray(), ref.toarray(), atol=1e-15)


def test_gradients_are_computed_once_per_mesh(monkeypatch):
    calls = []

    def counted(coords):
        calls.append(coords.shape)
        return _p1_gradients(coords)

    monkeypatch.setattr(fplab.mesh, "_p1_gradients", counted)
    for center in ((0.0, 0.0), (0.0, 0.0, 0.0)):
        mesh = build_ball_mesh(center, 1.0, levels=1)
        cs = preset("rotator", mesh.dim)
        density = solve_invariant_density(mesh, cs)
        decomposition = decompose_drift(mesh, cs, density)
        assemble_form(mesh, cs, density, decomposition)
        divergence_free_residual(mesh, decomposition)
        assert calls == [(mesh.num_elements, mesh.dim + 1, mesh.dim)]
        calls.clear()


def _cached_geometry(mesh):
    grads, vols = element_geometry(mesh)
    pts = physical_quad_points(mesh)
    return {"grads": grads, "vols": vols, "pts": pts}


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.0, 0.0, 0.0)])
def test_cached_geometry_is_read_only(center):
    mesh = build_ball_mesh(center, 1.0, levels=1)
    for arr in _cached_geometry(mesh).values():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.0


def test_restricted_pattern_is_read_only():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=2)
    order = mesh.dissection_order
    block = _Restriction(mesh, order[~mesh.boundary[order]])
    data = np.random.default_rng(0).standard_normal(mesh._csr_plan.indices.size)
    k_int = block.matrix(data)
    reference = k_int.toarray()
    assert not k_int.has_sorted_indices
    # abs() would sort the shared column indices in place
    with pytest.raises(ValueError, match="read-only"):
        abs(k_int)
    np.testing.assert_array_equal(block.matrix(data).toarray(), reference)


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.2, -0.1, 0.3)])
def test_cached_geometry_matches_a_fresh_computation(center):
    mesh = build_ball_mesh(center, 1.5, levels=2)
    vertices, elements = mesh.vertices.copy(), mesh.elements.copy()
    coords = vertices[elements]
    rule = quadrature_rule(mesh.dim)
    fresh = {
        "grads": _p1_gradients(coords),
        "vols": signed_volumes(vertices, elements, mesh.dim),
        "pts": np.einsum("qk,ekd->eqd", rule.points, coords),
    }
    cached = _cached_geometry(mesh)
    for name in fresh:
        assert np.array_equal(cached[name], fresh[name]), name
    # a second read hands back the same arrays
    again = _cached_geometry(mesh)
    assert all(again[name] is cached[name] for name in cached)


def _fresh_copy(mesh):
    return SimplicialMesh(
        dim=mesh.dim,
        vertices=mesh.vertices.copy(),
        elements=mesh.elements.copy(),
        boundary=mesh.boundary.copy(),
        domain=mesh.domain,
    )


def _assemble_sdm(mesh):
    cs = preset("rotator", mesh.dim)
    rho = lambda x: 1.0 + 0.25 * np.sin(x[..., 0]) * np.cos(x[..., -1])
    return (
        assemble_weighted_stiffness(mesh, cs.a, rho=rho),
        assemble_drift(mesh, cs.drift, rho=rho),
        assemble_weighted_mass(mesh, rho=rho),
    )


@settings(max_examples=20, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    cells=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    stretch=st.floats(0.25, 4.0),
)
def test_cached_assembly_is_bitwise_repeatable(dim, cells, stretch):
    hi = np.ones(dim)
    hi[0] = stretch
    mesh = build_box_mesh(np.zeros(dim), hi, cells[:dim])
    first, second = _assemble_sdm(mesh), _assemble_sdm(mesh)
    fresh = _assemble_sdm(_fresh_copy(mesh))
    for a, b, c in zip(first, second, fresh):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))
            assert np.array_equal(getattr(a, attr), getattr(c, attr))
