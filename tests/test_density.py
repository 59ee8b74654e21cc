"""Invariant density solves and the drift decomposition."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import fplab.density
import fplab.fem
from fplab import (
    KernelDimensionError,
    SimplicialMesh,
    build_ball_mesh,
    build_box_mesh,
    decompose_drift,
    divergence_free_residual,
    interpolate,
    lumped_weights,
    norm,
    preset,
    refine_uniform,
    solve_invariant_density,
    vector_at_quad,
)
from fplab.cli import main
from fplab.density import _pinned_solve, stationarity_matrix
from fplab.fem import _runs_multigrid


@pytest.fixture(scope="module")
def disk2():
    return build_ball_mesh((0.0, 0.0), 1.0, levels=2)


@pytest.fixture(scope="module")
def disk5():
    # 12481 vertices: above the size from which the density uses multigrid
    return build_ball_mesh((0.0, 0.0), 1.0, levels=5)


def test_identity_density_is_constant(disk2):
    density = solve_invariant_density(disk2, preset("identity", 2))
    assert np.abs(density.rho.values - 1.0).max() <= 1e-9
    assert density.iterations == ()
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
    h_q = vector_at_quad(cs.drift, disk2)
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


@st.composite
def stationarity_cases(draw):
    """identity or gaussian_gradient on a random box in [-1, 1]^dim with 2-5
    cells per axis, or rotator on a ball of level 1 or 2, in 2D or 3D.

    The boxes stay in the unit cube, where the presets are declared: on a
    coarse box reaching |x| = 3 the gaussian drift makes the P1 kernel
    vector change sign, and the density solve rightly raises
    DensityNotPositive.
    """
    dim = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        levels = draw(st.integers(1, 2))
        return preset("rotator", dim), build_ball_mesh((0.0,) * dim, 1.0, levels=levels)
    lo = np.array(draw(st.tuples(*[st.floats(-1.0, 0.75)] * dim)))
    size = np.array(draw(st.tuples(*[st.floats(0.25, 2.0)] * dim)))
    cells = draw(st.tuples(*[st.integers(2, 5)] * dim))
    name = draw(st.sampled_from(["identity", "gaussian_gradient"]))
    return preset(name, dim), build_box_mesh(lo, np.minimum(lo + size, 1.0), cells)


@settings(max_examples=20, deadline=None)
@given(case=stationarity_cases())
def test_stationarity_kernel_is_one_dimensional(case):
    cs, mesh = case
    k = stationarity_matrix(mesh, cs).toarray()
    # the basis gradients sum to zero, so every column of K sums to zero
    assert np.abs(k.sum(axis=0)).max() <= 1e-12 * np.abs(k).max()
    _, sigma, vt = np.linalg.svd(k)
    assert (sigma < 1e-10 * sigma[0]).sum() == 1
    assert sigma[-2] > 1e-6 * sigma[0]
    # the null vector is the density, up to scale
    null = vt[-1] * np.sign(vt[-1].sum())
    rho = solve_invariant_density(mesh, cs).rho.values
    assert np.abs(null - rho / np.linalg.norm(rho)).max() <= 1e-8


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


@pytest.mark.parametrize("dim", [2, 3])
def test_lu_pins_differ_on_a_mesh_with_one_interior_vertex(dim, monkeypatch):
    # two cells per axis leave one interior vertex; a second pin equal to
    # the first would make the two-pin certificate compare a solve with itself
    mesh = build_box_mesh((0.0,) * dim, (1.0,) * dim, 2)
    assert mesh.interior.size == 1
    pins = []

    def recording(mesh, k, pin, multigrid):
        pins.append(pin)
        return _pinned_solve(mesh, k, pin, multigrid)

    monkeypatch.setattr(fplab.density, "_pinned_solve", recording)
    solve_invariant_density(mesh, preset("gaussian_gradient", dim))
    assert pins[0] == mesh.interior[0]
    assert len(pins) == 2 and pins[1] != pins[0]


@pytest.mark.parametrize(
    "mesh, far",
    [
        (build_ball_mesh((0.0, 0.0), 1.0, levels=5), 7),
        # the pins are the one-cell box's corners lo and hi, at the first and
        # last vertex of the box of 64 cells per axis
        (build_box_mesh((-1.0, -1.0), (1.0, 1.0), 64), 65**2 - 1),
    ],
    ids=["ball", "box"],
)
def test_multigrid_density_matches_the_lu_path(mesh, far, monkeypatch):
    assert _runs_multigrid(mesh, mesh.num_vertices - 1)
    cs = preset("gaussian_gradient", 2, radius=float(np.sqrt(2.0)))
    pins = []

    def recording(mesh, k, pin, multigrid):
        pins.append(pin)
        return _pinned_solve(mesh, k, pin, multigrid)

    monkeypatch.setattr(fplab.density, "_pinned_solve", recording)
    density = solve_invariant_density(mesh, cs)
    assert pins == [0, far]
    assert len(density.iterations) == 2
    # the LU of the same pinned systems is the oracle
    k = stationarity_matrix(mesh, cs)
    weights = lumped_weights(mesh)
    for pin in (0, 1):
        v, iterations = _pinned_solve(mesh, k, pin, multigrid=False)
        assert iterations is None
        v *= weights.sum() / (weights @ v)
        assert np.abs(v - density.rho.values).max() <= 1e-10 * np.abs(v).max()


class RecordingSplu:
    """Stands in for scipy.sparse.linalg inside fplab.density: records what splu factors."""

    def __init__(self):
        self.matrices = []

    def splu(self, a, **kwargs):
        self.matrices.append((a, kwargs))
        return spla.splu(a, **kwargs)

    def __getattr__(self, name):
        return getattr(spla, name)


@pytest.mark.parametrize("multigrid", [False, True], ids=["lu", "multigrid"])
def test_pinned_system_keeps_every_vertex_but_the_pin_in_index_order(multigrid, monkeypatch):
    mesh = build_box_mesh((-1.0, -1.0), (1.0, 1.0), 64 if multigrid else 8)
    assert _runs_multigrid(mesh, mesh.num_vertices - 1) == multigrid
    k = stationarity_matrix(mesh, preset("gaussian_gradient", 2, radius=float(np.sqrt(2.0))))
    pin = int(mesh.interior[mesh.interior.size // 2])
    kept = np.delete(np.arange(mesh.num_vertices), pin)
    systems = []
    recorder = RecordingSplu()
    monkeypatch.setattr(fplab.density, "spla", recorder)

    def recording_gmres(a, b, *args):
        systems.append(a)
        return fplab.fem._gmres(a, b, *args)

    monkeypatch.setattr(fplab.density, "_gmres", recording_gmres)
    v, iterations = _pinned_solve(mesh, k, pin, multigrid)
    if multigrid:
        assert recorder.matrices == [] and iterations >= 1
    else:
        # one LU with SuperLU's default column order
        systems = [a for a, kwargs in recorder.matrices if kwargs == {}]
        assert len(recorder.matrices) == 1 and iterations is None
    (sub,) = systems
    assert (sub != k[kept][:, kept]).nnz == 0
    # the kernel vector is 1 at the pin and solves every kept row
    assert v[pin] == 1.0
    assert np.abs((k @ v)[kept]).max() <= 1e-9 * np.abs(k).max() * np.abs(v).max()


def test_density_iterations_do_not_grow_under_refinement(disk5):
    cs = preset("gaussian_gradient", 2)
    counts = [solve_invariant_density(m, cs).iterations for m in (disk5, refine_uniform(disk5))]
    flat = [c for pins in counts for c in pins]
    assert len(flat) == 4 and min(flat) >= 5
    assert max(flat) - min(flat) <= 2, counts


def test_cli_density_exits_three_when_multigrid_misses_its_tolerance(
    disk5, tmp_path, capsys, monkeypatch
):
    # rtol = 1e-30 is out of GMRES's reach; one restart cycle keeps it quick
    monkeypatch.setattr(fplab.density, "_MULTIGRID_RTOL", 1e-30)
    monkeypatch.setattr(fplab.density, "_DENSITY_MAXITER", 1)
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[run]\noutput_dir = {tmp_path / 'out'}\n"
        "[domain]\nkind = ball\ndim = 2\nradius = 1.0\nlevel = 5\n"
        "[coefficients]\npreset = gaussian_gradient\n"
    )
    assert main(["density", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "KernelDimensionError" in err
    assert "pinned at vertex 0 missed rtol=1e-30 within 20 iterations" in err


class SingularSpla:
    """Stands in for scipy.sparse.linalg inside fplab.fem: every LU is singular."""

    def splu(self, *args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    def __getattr__(self, name):
        return getattr(spla, name)


def test_singular_multigrid_pinned_system_raises_kernel_dimension_error(disk5, monkeypatch):
    monkeypatch.setattr(fplab.fem, "spla", SingularSpla())
    with pytest.raises(KernelDimensionError, match="pinned at vertex 0 is singular"):
        solve_invariant_density(disk5, preset("identity", 2))


def test_disconnected_refined_mesh_raises_kernel_dimension_error():
    # the pins are vertex 0 and the base vertex farthest from it (97), one
    # in each square, so each multigrid density vanishes on the other
    # square and the two-pin certificate sees the second kernel direction
    left = build_box_mesh((0.0, 0.0), (1.0, 1.0), 6)
    mesh = SimplicialMesh(
        dim=2,
        vertices=np.vstack([left.vertices, left.vertices + np.array([2.0, 0.0])]),
        elements=np.vstack([left.elements, left.elements + left.num_vertices]),
        boundary=np.concatenate([left.boundary, left.boundary]),
        domain=left.domain,
    )
    for _ in range(3):
        mesh = refine_uniform(mesh)
    assert _runs_multigrid(mesh, mesh.num_vertices - 1)
    with pytest.raises(KernelDimensionError, match="pinned solves disagree"):
        solve_invariant_density(mesh, preset("gaussian_gradient", 2))
