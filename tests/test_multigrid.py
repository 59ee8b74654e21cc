"""Refinement lineage and the multigrid-preconditioned GMRES backend."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

import fplab.fem
import fplab.forms
from fplab import (
    ConfigError,
    DensityNotPositive,
    Resolvent,
    SolverDivergence,
    apply_generator,
    assemble_form,
    build_ball_mesh,
    build_box_mesh,
    check_contraction,
    check_resolvent_identity,
    check_submarkov,
    decompose_drift,
    parse_config_text,
    preset,
    read_mesh,
    refine_uniform,
    resolvent_sweep,
    solve_invariant_density,
    solve_resolvent,
    stationarity_matrix,
    strong_continuity_gaps,
    write_mesh,
)
from fplab.cli import main
from fplab.forms import _CHECK_RTOL, _MULTIGRID_MIN_UNKNOWNS


def make_form(mesh, name="rotator"):
    cs = preset(name, mesh.dim)
    density = solve_invariant_density(mesh, cs)
    return assemble_form(mesh, cs, density, decompose_drift(mesh, cs, density))


def ball_form(dim, level):
    return make_form(build_ball_mesh((0.0,) * dim, 1.0, levels=level))


def interior_data(form, seed):
    f = np.zeros(form.mesh.num_vertices)
    f[form.interior] = np.random.default_rng(seed).standard_normal(form.interior.size)
    return f


@pytest.fixture(scope="module")
def disk_forms():
    return {level: ball_form(2, level) for level in (2, 3, 4, 5)}


class SizedSpla:
    """Stands in for scipy.sparse.linalg inside fplab.forms and fplab.fem (the
    V-cycle's coarse LU), recording LU sizes."""

    def __init__(self):
        self.sizes = []

    def splu(self, a, *args, **kwargs):
        self.sizes.append(a.shape[0])
        return spla.splu(a, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(spla, name)


@pytest.fixture
def lu_sizes(monkeypatch):
    counter = SizedSpla()
    monkeypatch.setattr(fplab.forms, "spla", counter)
    monkeypatch.setattr(fplab.fem, "spla", counter)
    return counter.sizes


def test_refinement_records_the_lineage():
    meshes = [build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=k) for k in range(3)]
    fine = meshes[-1]
    assert meshes[0].lineage == ()
    assert len(fine.lineage) == 2
    for coarse, level, finer in zip(meshes, fine.lineage, meshes[1:]):
        assert level.num_vertices == coarse.num_vertices
        assert level.num_vertices + len(level.edges) == finer.num_vertices
        assert np.array_equal((~fine.boundary)[: level.num_vertices], ~coarse.boundary)
        assert not level.edges.flags.writeable
        # an interior midpoint sits halfway between its edge's ends
        mids = np.arange(level.num_vertices, finer.num_vertices)
        inner = ~finer.boundary[mids]
        halfway = finer.vertices[level.edges].mean(axis=1)
        np.testing.assert_allclose(finer.vertices[mids][inner], halfway[inner], atol=1e-15)
    # a refined mesh inherits the coarse mesh's lineage
    again = refine_uniform(fine)
    assert again.lineage[:2] == fine.lineage


@pytest.mark.parametrize(
    "base",
    [
        build_ball_mesh((0.0, 0.0), 1.0),
        build_ball_mesh((0.0, 0.0, 0.0), 1.0),
        build_box_mesh((0.0, 0.0), (1.0, 2.0), 3),
        build_box_mesh((-1.0, 0.0, 0.0), (1.0, 1.0, 1.0), 2),
    ],
)
def test_lineage_vertices_keep_their_boundary_flag(base):
    # a lineage mesh's vertices keep their index and their boundary flag on
    # every finer mesh, so a mask of the finest mesh restricts to each level
    meshes = [base]
    for _ in range(2):
        meshes.append(refine_uniform(meshes[-1]))
    fine = meshes[-1]
    for coarse, level in zip(meshes, fine.lineage):
        n = level.num_vertices
        np.testing.assert_array_equal(fine.vertices[:n], coarse.vertices)
        np.testing.assert_array_equal((~fine.boundary)[:n], ~coarse.boundary)


def test_built_and_read_meshes_have_no_lineage(tmp_path):
    assert build_box_mesh((0.0, 0.0), (1.0, 1.0), 4).lineage == ()
    path = tmp_path / "mesh.npz"
    write_mesh(build_ball_mesh((0.0, 0.0), 1.0, levels=2), path)
    assert read_mesh(path).lineage == ()


def test_prolongation_interpolates_coarse_interior_values():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=2)
    level = mesh.lineage[-1]
    p = mesh._prolongations(mesh.interior)[-1]
    coarse_interior = (~mesh.boundary)[: level.num_vertices]
    assert p.shape == (mesh.interior.size, int(coarse_interior.sum()))
    coarse = np.zeros(level.num_vertices)
    coarse[coarse_interior] = np.random.default_rng(5).standard_normal(p.shape[1])
    fine = np.concatenate([coarse, coarse[level.edges].mean(axis=1)])
    np.testing.assert_array_equal(p @ coarse[coarse_interior], fine[mesh.interior])


def test_prolongation_between_all_vertices_but_a_pin():
    # the density's levels keep every vertex but the pinned one, a vertex of
    # the lineage's first mesh, whose value counts as zero
    mesh = build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=2)
    pin = 1
    sizes = [lvl.num_vertices for lvl in mesh.lineage] + [mesh.num_vertices]
    keep = [np.arange(n) != pin for n in sizes]
    p = mesh._prolongations(keep[-1])
    assert [x.shape for x in p] == [(n - 1, m - 1) for m, n in zip(sizes, sizes[1:])]
    level = mesh.lineage[-1]
    coarse = np.random.default_rng(6).standard_normal(level.num_vertices)
    coarse[pin] = 0.0
    fine = np.concatenate([coarse, coarse[level.edges].mean(axis=1)])
    np.testing.assert_array_equal(p[-1] @ coarse[keep[-2]], fine[keep[-1]])


@pytest.mark.parametrize("dim, level", [(2, 3), (2, 4), (2, 5), (3, 3)])
def test_multigrid_matches_direct(disk_forms, dim, level):
    form = disk_forms[level] if dim == 2 else ball_form(dim, level)
    f = interior_data(form, 51)
    multigrid = Resolvent(form, backend="gmres", tol=_CHECK_RTOL)
    for alpha in (1.0, 64.0, 4096.0):
        u = solve_resolvent(multigrid, alpha, f).values
        ref = solve_resolvent(form, alpha, f).values
        assert np.linalg.norm(u - ref) <= 1e-9 * np.linalg.norm(ref)


def test_multigrid_skips_levels_without_interior_unknowns(lu_sizes):
    # a one-cell box has no interior vertex; refined twice, its lineage
    # starts with that level, and the coarse LU lands on the next one
    mesh = refine_uniform(refine_uniform(build_box_mesh((0.0, 0.0), (1.0, 1.0), 1)))
    interior = ~mesh.boundary
    assert [int(interior[: level.num_vertices].sum()) for level in mesh.lineage] == [0, 1]
    form = make_form(mesh)
    f = interior_data(form, 58)
    u = solve_resolvent(Resolvent(form, backend="gmres", tol=_CHECK_RTOL), 3.0, f).values
    assert lu_sizes == [1]
    ref = solve_resolvent(form, 3.0, f).values
    assert np.linalg.norm(u - ref) <= 1e-9 * np.linalg.norm(ref)


def test_iterations_do_not_grow_under_refinement(disk_forms):
    for alpha in (1.0, 64.0, 4096.0):
        counts = []
        for level, form in sorted(disk_forms.items()):
            res = Resolvent(form, backend="gmres", tol=_CHECK_RTOL)
            solve_resolvent(res, alpha, interior_data(form, 52))
            counts.append(res.iterations)
        assert all(5 <= c <= 20 for c in counts), (alpha, counts)
        assert max(counts) - min(counts) <= 4, (alpha, counts)


def test_iterations_is_none_after_a_direct_solve(disk_forms):
    form = disk_forms[2]
    f = interior_data(form, 53)
    direct = Resolvent(form)
    assert direct.iterations is None
    solve_resolvent(direct, 2.0, f)
    assert direct.iterations is None and direct.residual is not None
    multigrid = Resolvent(form, backend="gmres")
    solve_resolvent(multigrid, 2.0, f)
    assert isinstance(multigrid.iterations, int) and multigrid.iterations > 0


def test_cg_mass_solve_matches_the_mass_lu(lu_sizes):
    form = ball_form(3, 4)
    del lu_sizes[:]
    z = np.random.default_rng(59).standard_normal(form.interior.size)
    for lumped in (False, True):
        res = Resolvent(form, lumped=lumped)
        assert res.interior.size >= _MULTIGRID_MIN_UNKNOWNS
        w = res.mass_solve(z)
        m_int = res.m[res.interior][:, res.interior].tocsc()
        ref = spla.splu(m_int).solve(z)
        assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)
    assert lu_sizes == []


class StalledCg:
    """Stands in for scipy.sparse.linalg inside fplab.forms: CG never converges."""

    def cg(self, a, b, **kwargs):
        return np.zeros_like(b), 100

    def __getattr__(self, name):
        return getattr(spla, name)


def test_cg_mass_solve_that_misses_its_tolerance_raises(disk_forms, monkeypatch):
    monkeypatch.setattr(fplab.forms, "_MULTIGRID_MIN_UNKNOWNS", 0)
    monkeypatch.setattr(fplab.forms, "spla", StalledCg())
    form = disk_forms[2]
    with pytest.raises(SolverDivergence, match="mass matrix CG missed rtol=1e-14"):
        apply_generator(form, interior_data(form, 60))


def test_gmres_needs_a_lineage():
    form = make_form(build_box_mesh((0.0, 0.0), (1.0, 1.0), 8))
    with pytest.raises(ValueError, match="lineage"):
        Resolvent(form, backend="gmres")


def test_gmres_config_needs_a_refined_ball(tmp_path, capsys):
    box = "[domain]\nkind = box\ndim = 2\nlo = 0 0\nhi = 1 1\n"
    gmres = "[resolvent]\nbackend = gmres\n"
    with pytest.raises(ConfigError, match="refined ball"):
        parse_config_text(box + gmres)
    with pytest.raises(ConfigError, match="refined ball"):
        parse_config_text("[domain]\nkind = ball\ndim = 2\nradius = 1.0\nlevel = 0\n" + gmres)
    assert parse_config_text(box).backend == "direct"
    path = tmp_path / "run.ini"
    path.write_text(f"[run]\noutput_dir = {tmp_path / 'out'}\n" + box + gmres)
    assert main(["resolvent", "--config", str(path)]) == 2
    assert "refined ball" in capsys.readouterr().err


def test_checks_pick_multigrid_on_refined_meshes(disk_forms, lu_sizes, monkeypatch):
    form = disk_forms[3]
    n = form.interior.size
    f = interior_data(form, 55)
    direct = (
        check_contraction(form, alphas=(1.0, 100.0), trials=2, seed=56).rows,
        check_resolvent_identity(form, 1.0, 10.0, f).relative_defect,
        check_submarkov(form, 10.0).max_value,
        strong_continuity_gaps(form, f).gaps,
    )
    assert lu_sizes.count(n) == 2 + 2 + 1 + 13 + 1
    del lu_sizes[:]
    monkeypatch.setattr(fplab.forms, "_MULTIGRID_MIN_UNKNOWNS", n)
    multigrid = (
        check_contraction(form, alphas=(1.0, 100.0), trials=2, seed=56).rows,
        check_resolvent_identity(form, 1.0, 10.0, f).relative_defect,
        check_submarkov(form, 10.0).max_value,
        strong_continuity_gaps(form, f).gaps,
    )
    # only coarse-level LUs: at this size the continuity bound's mass solve
    # runs CG as well
    assert lu_sizes and max(lu_sizes) < n
    for (_, _, r_lu), (_, _, r_mg) in zip(direct[0], multigrid[0]):
        assert r_mg == pytest.approx(r_lu, rel=1e-10)
    assert multigrid[1] <= 1e-8
    assert multigrid[2] == pytest.approx(direct[2], rel=1e-10)
    np.testing.assert_allclose(multigrid[3], direct[3], rtol=1e-8)


def test_sweep_submarkov_follows_the_sweep_backend(disk_forms, lu_sizes, monkeypatch):
    form = disk_forms[2]
    n = form.interior.size
    # the checks would pick multigrid at this size; the sweep's backend rules
    monkeypatch.setattr(fplab.forms, "_MULTIGRID_MIN_UNKNOWNS", 0)
    alphas = (1.0, 4.0, 16.0)
    direct = resolvent_sweep(form, alphas=alphas, seed=57)
    assert lu_sizes == [n] * (len(alphas) + 1)
    del lu_sizes[:]
    multigrid = resolvent_sweep(form, alphas=alphas, seed=57, backend="gmres")
    assert n not in lu_sizes and multigrid.backend == "gmres"
    assert multigrid.submarkov_max == pytest.approx(direct.submarkov_max, rel=1e-9)
    np.testing.assert_allclose(multigrid.contraction_ratios, direct.contraction_ratios, rtol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    cells=st.integers(2, 6),
    extent=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    name=st.sampled_from(["identity", "gaussian_gradient", "rotator"]),
    alpha=st.floats(0.1, 1000.0),
    seed=st.integers(0, 2**16),
)
# the P1 density of this box has a vertex value of -0.218
@example(dim=3, cells=2, extent=(2.0, 2.0, 2.0), name="gaussian_gradient", alpha=1.0, seed=0)
def test_contraction_and_submarkov_on_random_boxes(dim, cells, extent, name, alpha, seed):
    lo = (-0.5,) * dim
    hi = tuple(x - 0.5 for x in extent[:dim])
    mesh = build_box_mesh(lo, hi, cells)
    try:
        form = make_form(mesh, name)
    except DensityNotPositive:
        # a stationarity matrix with no positive off-diagonal entry (a
        # Z-matrix) would have a positive kernel vector
        k = stationarity_matrix(mesh, preset(name, dim)).tocoo()
        assert (k.data[k.row != k.col] > 0).any()
        return
    rep = check_contraction(form, alphas=(alpha,), trials=3, seed=seed)
    assert rep.max_ratio <= 1.0 + 1e-10
    sub = check_submarkov(form, alpha)
    assert -1e-8 <= sub.min_value and sub.max_value <= 1.0 + 1e-8
