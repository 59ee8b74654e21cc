"""Invariant density solves and the drift decomposition."""

import numpy as np
import pytest

from fplab import (
    KernelDimensionError,
    SimplicialMesh,
    build_ball_mesh,
    build_box_mesh,
    decompose_drift,
    divergence_free_residual,
    interpolate,
    norm,
    preset,
    solve_invariant_density,
    vector_at_quad,
)


@pytest.fixture(scope="module")
def disk2():
    return build_ball_mesh((0.0, 0.0), 1.0, levels=2)


def test_identity_density_is_constant(disk2):
    density = solve_invariant_density(disk2, preset("identity", 2))
    assert np.abs(density.rho.values - 1.0).max() <= 1e-9
    assert density.normalized
    assert density.rho_min > 0.0
    assert density.residual <= 1e-9 * max(density.residual_scale, 1.0)


def test_rotator_density_is_constant(disk2):
    # the rotator drift is divergence free and tangent to the boundary, so
    # the uniform density is stationary
    density = solve_invariant_density(disk2, preset("rotator", 2))
    assert np.abs(density.rho.values - 1.0).max() <= 1e-8


def test_gaussian_density_matches_reference(disk2):
    cs = preset("gaussian_gradient", 2)
    density = solve_invariant_density(disk2, cs)
    ref = interpolate(disk2, cs.reference_density)
    # both have unit mean up to the interpolation of the reference
    scale = norm(density.rho, p=1.0) / norm(ref, p=1.0)
    err = np.abs(density.rho.values - scale * ref.values).max()
    assert err <= 0.02 * ref.values.max()
    # the density dips toward the rim: e^(-1/2) versus 1 at the center
    assert density.rho_max == pytest.approx(density.rho.values[0], rel=1e-12)
    assert density.rho_min < density.rho_max


def test_gaussian_density_3d():
    mesh = build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=1)
    cs = preset("gaussian_gradient", 3)
    density = solve_invariant_density(mesh, cs)
    assert density.rho_min > 0.0
    assert density.residual <= 1e-9 * max(density.residual_scale, 1.0)


def test_decomposition_recovers_drift_for_constant_density(disk2):
    cs = preset("rotator", 2, omega=1.5)
    density = solve_invariant_density(disk2, cs)
    dec = decompose_drift(disk2, cs, density)
    rule = dec.rule
    h_q = vector_at_quad(cs.drift, disk2, rule)
    # rho is constant to solver tolerance, so B = H - (a grad rho)/rho = H
    assert np.abs(dec.b_quad - h_q).max() <= 1e-6


def test_divergence_free_residual_inherits_solver_tolerance(disk2):
    for name in ("identity", "gaussian_gradient", "rotator"):
        cs = preset(name, 2)
        density = solve_invariant_density(disk2, cs)
        dec = decompose_drift(disk2, cs, density)
        rep = divergence_free_residual(disk2, dec)
        scale = max(density.residual_scale, 1.0)
        assert rep["max_residual"] <= 1e-10 * scale, name
        assert rep["per_test"].shape == (disk2.num_vertices,)


def test_decomposition_quadratic_defect_finite(disk2):
    cs = preset("gaussian_gradient", 2)
    density = solve_invariant_density(disk2, cs)
    dec = decompose_drift(disk2, cs, density)
    # genuinely nonzero at finite h; it only vanishes in the continuum
    assert np.isfinite(dec.quadratic_defect)
    assert dec.quadratic_defect > 0.0


def test_disconnected_mesh_raises_kernel_dimension_error():
    # two disjoint 6 x 6 squares: each carries its own stationary density,
    # so the kernel is two-dimensional and the pinned solves disagree
    left = build_box_mesh((0.0, 0.0), (1.0, 1.0), 6)
    right_vertices = left.vertices + np.array([2.0, 0.0])
    mesh = SimplicialMesh(
        dim=2,
        vertices=np.vstack([left.vertices, right_vertices]),
        elements=np.vstack([left.elements, left.elements + left.num_vertices]),
        boundary=np.concatenate([left.boundary, left.boundary]),
    )
    with pytest.raises(KernelDimensionError):
        solve_invariant_density(mesh, preset("gaussian_gradient", 2))


@pytest.mark.parametrize("name", ["identity", "gaussian_gradient"])
def test_singular_pinned_system_raises_kernel_dimension_error(name):
    # a vertex in no element adds its own unit vector to the kernel, so
    # every pinned system is singular and no density can be certified
    box = build_box_mesh((0.0, 0.0), (1.0, 1.0), 4)
    mesh = SimplicialMesh(
        dim=2,
        vertices=np.vstack([box.vertices, [[0.3, 0.6]]]),
        elements=box.elements,
        boundary=np.append(box.boundary, False),
    )
    with pytest.raises(KernelDimensionError, match="singular"):
        solve_invariant_density(mesh, preset(name, 2))
