"""Refinement lineage and the multigrid-preconditioned GMRES backend."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

import fplab.fem
import fplab.forms
from fplab import (
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
from fplab.fem import _GMRES_RESTART, _MULTIGRID_MIN_UNKNOWNS, _MULTIGRID_RTOL, _gmres
from fplab.mesh import _mesh_edges


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


def multigrid_resolvent(monkeypatch, form, **kwargs):
    """A gmres Resolvent that runs the V-cycle at any size: fem's cut is
    lowered to 0 while it is made, which is when it picks its solver."""
    with monkeypatch.context() as patch:
        patch.setattr(fplab.fem, "_MULTIGRID_MIN_UNKNOWNS", 0)
        return Resolvent(form, backend="gmres", **kwargs)


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
        n = level.num_vertices
        assert n == coarse.num_vertices
        assert len(level.parents) == finer.num_vertices
        assert level.parents.dtype == np.int32 and not level.parents.flags.writeable
        # the coarse vertices come first, each its own parent, then one
        # midpoint per coarse edge
        np.testing.assert_array_equal(level.parents[:n], np.arange(n).repeat(2).reshape(-1, 2))
        np.testing.assert_array_equal(level.parents[n:], _mesh_edges(coarse)[0])
        np.testing.assert_array_equal(level.fine_ids(), np.arange(n))
        # an interior vertex sits halfway between its parents
        inner = ~finer.boundary
        halfway = coarse.vertices[level.parents].mean(axis=1)
        np.testing.assert_allclose(finer.vertices[inner], halfway[inner], atol=1e-15)
    # a refined mesh inherits the coarse mesh's lineage
    again = refine_uniform(fine)
    assert again.lineage[:2] == fine.lineage


@pytest.mark.parametrize(
    "meshes",
    [
        [build_ball_mesh((0.0, 0.0), 1.0)],
        [build_ball_mesh((0.0, 0.0, 0.0), 1.0)],
        [build_box_mesh((0.0, 0.0), (1.0, 2.0), 3)],
        # the box of 2 cells and the one-cell box of its lineage
        [build_box_mesh((-1.0, 0.0, 0.0), (1.0, 1.0, 1.0), n) for n in (1, 2)],
    ],
)
def test_lineage_vertices_keep_their_place_and_boundary_flag(meshes):
    # every lineage mesh's vertex has an id on each finer mesh, at the same
    # place and with the same boundary flag, so a mask of the finest mesh
    # restricts to each level
    meshes = list(meshes)
    for _ in range(2):
        meshes.append(refine_uniform(meshes[-1]))
    fine = meshes[-1]
    assert len(fine.lineage) == len(meshes) - 1
    for k, coarse in enumerate(meshes[:-1]):
        assert fine.lineage[k].num_vertices == coarse.num_vertices
        ids = np.arange(coarse.num_vertices)
        for level in fine.lineage[k:]:
            ids = level.fine_ids()[ids]
        np.testing.assert_allclose(fine.vertices[ids], coarse.vertices, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(fine.boundary[ids], coarse.boundary)


def test_meshes_without_a_lineage(tmp_path):
    assert build_box_mesh((0.0, 0.0), (1.0, 1.0), 6).lineage == ()
    assert build_box_mesh((0.0, 0.0), (1.0, 1.0), (4, 2)).lineage == ()
    assert build_box_mesh((0.0, 0.0), (1.0, 1.0), 1).lineage == ()
    assert build_ball_mesh((0.0, 0.0), 1.0).lineage == ()
    path = tmp_path / "mesh.npz"
    write_mesh(build_ball_mesh((0.0, 0.0), 1.0, levels=2), path)
    assert read_mesh(path).lineage == ()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("cells", [1, 2, 3, 4, 5, 6, 7, 8])
def test_kuhn_box_of_2n_cells_nests_in_the_box_of_n(dim, cells):
    lo, hi = np.array([-1.0, 0.0, 0.5][:dim]), np.array([1.0, 1.5, 2.0][:dim])
    coarse = build_box_mesh(lo, hi, cells)
    fine = build_box_mesh(lo, hi, 2 * cells)

    def cell(points):
        index = np.floor((points - lo) / ((hi - lo) / cells)).astype(int)
        return np.ravel_multi_index(index.T, (cells,) * dim)

    # every fine element lies inside one of the d! coarse elements of the
    # coarse cell that holds its centroid
    by_cell = np.argsort(cell(coarse.element_coords().mean(axis=1)), kind="stable")
    by_cell = by_cell.reshape(cells**dim, -1)
    assert by_cell.shape[1] == (2 if dim == 2 else 6)
    corners = fine.element_coords()
    coords = coarse.element_coords()[by_cell[cell(corners.mean(axis=1))]]
    inverse = np.linalg.inv(coords[:, :, 1:] - coords[:, :, :1])  # rows x_j - x_0
    inside = True
    for k in range(dim + 1):
        local = np.einsum("nqd,nqdj->nqj", corners[:, None, k] - coords[:, :, 0], inverse)
        bary = np.concatenate([1.0 - local.sum(axis=2, keepdims=True), local], axis=2)
        inside = inside & (bary.min(axis=2) >= -1e-12)
    assert inside.any(axis=1).all()
    # a fine vertex with grid index g is the mean of the coarse vertices
    # g // 2 and -(-g // 2), which are one vertex or the ends of a coarse edge
    g = np.indices((2 * cells + 1,) * dim).reshape(dim, -1)
    parents = np.stack(
        [np.ravel_multi_index(x, (cells + 1,) * dim) for x in (g // 2, -(-g // 2))], axis=1
    )
    np.testing.assert_allclose(
        coarse.vertices[parents].mean(axis=1), fine.vertices, rtol=0, atol=1e-15
    )
    edges = {tuple(e) for e in _mesh_edges(coarse)[0].tolist()}
    split = parents[parents[:, 0] != parents[:, 1]]
    assert {tuple(p) for p in split.tolist()} <= edges
    if cells & (cells - 1) == 0:
        np.testing.assert_array_equal(fine.lineage[-1].parents, parents)
        assert len(fine.lineage) == len(coarse.lineage) + 1


# vertices, elements and boundary flags of Kuhn boxes as built before boxes
# recorded a lineage: sha256 of the three arrays' bytes in turn
BOX_DIGESTS = {
    (2, 8): "11f62d6e0f8c6b4ca899128f7a353d6867d3add6ba5b0e6c7cf247675ff1cc1f",
    (3, 4): "25b3360039711846865f2f1ddf173ae0c803a6751c29bb833d87b3fc3f21821a",
    (3, 8): "3e8a4d0d1262424eb72f9a27152f5ec2d8e4466114d3634df01571e618a47b09",
}


@pytest.mark.parametrize("dim, cells", sorted(BOX_DIGESTS))
def test_box_meshes_are_unchanged_by_their_lineage(dim, cells):
    mesh = build_box_mesh((-1.0,) * dim, (1.0, 2.0, 0.5)[:dim], cells)
    assert mesh.lineage
    digest = hashlib.sha256()
    for a in (mesh.vertices, mesh.elements, mesh.boundary):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == BOX_DIGESTS[dim, cells]


def old_prolongations(mesh, kept):
    """The prolongations as built from each level's midpoint edges, when
    every lineage vertex kept its index on each finer mesh."""
    mask = np.zeros(mesh.num_vertices, dtype=bool)
    mask[kept] = True
    out = []
    for level in mesh.lineage:
        nc = level.num_vertices
        edges = level.parents[nc:]
        mids = np.arange(nc, nc + len(edges))
        rows = np.concatenate([np.arange(nc), np.repeat(mids, 2)])
        cols = np.concatenate([np.arange(nc), edges.ravel()])
        vals = np.concatenate([np.ones(nc), np.full(edges.size, 0.5)])
        p = sp.csr_matrix((vals, (rows, cols)), shape=(nc + len(edges), nc))
        fine = kept if level is mesh.lineage[-1] else mask[: nc + len(edges)]
        out.append(p[fine][:, mask[:nc]])
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_ball_prolongations_equal_the_edge_based_ones(dim):
    mesh = build_ball_mesh((0.0,) * dim, 1.0, levels=3)
    shuffled = np.random.default_rng(dim).permutation(mesh.interior)
    for kept in (shuffled, np.arange(1, mesh.num_vertices)):
        new, old = mesh._prolongations(kept), old_prolongations(mesh, kept)
        assert len(new) == len(old) == 3
        for a, b in zip(new, old):
            assert a.shape == b.shape
            for x, y in zip((a.data, a.indices, a.indptr), (b.data, b.indices, b.indptr)):
                np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize(
    "mesh, coarse_mesh",
    [
        (build_ball_mesh((0.0, 0.0), 1.0, levels=2), build_ball_mesh((0.0, 0.0), 1.0, levels=1)),
        (
            build_box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 2.0), 8),
            build_box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 2.0), 4),
        ),
    ],
    ids=["ball", "box"],
)
def test_prolongation_interpolates_coarse_interior_values(mesh, coarse_mesh):
    level = mesh.lineage[-1]
    p = mesh._prolongations(mesh.interior)[-1]
    assert p.shape == (mesh.interior.size, coarse_mesh.interior.size)
    coarse = np.zeros(level.num_vertices)
    coarse[coarse_mesh.interior] = np.random.default_rng(5).standard_normal(p.shape[1])
    # a P1 function of the coarse mesh is linear on each fine element
    fine = coarse[level.parents].mean(axis=1)
    np.testing.assert_array_equal(p @ coarse[coarse_mesh.interior], fine[mesh.interior])


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
    fine = coarse[level.parents].mean(axis=1)
    np.testing.assert_array_equal(p[-1] @ coarse[keep[-2]], fine[keep[-1]])


@pytest.mark.parametrize("dim, level", [(2, 3), (2, 4), (2, 5), (3, 3)])
def test_multigrid_matches_direct(disk_forms, dim, level, monkeypatch):
    form = disk_forms[level] if dim == 2 else ball_form(dim, level)
    f = interior_data(form, 51)
    # below the cut the reference is the LU, above it the direct refinement
    multigrid = multigrid_resolvent(monkeypatch, form, tol=_MULTIGRID_RTOL)
    for alpha in (1.0, 64.0, 4096.0):
        u = solve_resolvent(multigrid, alpha, f).values
        ref = solve_resolvent(form, alpha, f).values
        assert np.linalg.norm(u - ref) <= 1e-9 * np.linalg.norm(ref)


def test_multigrid_skips_levels_without_interior_unknowns(lu_sizes, monkeypatch):
    # a one-cell box has no interior vertex; refined twice, its lineage
    # starts with that level, and the coarse LU lands on the next one
    mesh = refine_uniform(refine_uniform(build_box_mesh((0.0, 0.0), (1.0, 1.0), 1)))
    interior = ~mesh.boundary
    assert [int(interior[: level.num_vertices].sum()) for level in mesh.lineage] == [0, 1]
    form = make_form(mesh)
    f = interior_data(form, 58)
    u = solve_resolvent(multigrid_resolvent(monkeypatch, form, tol=_MULTIGRID_RTOL), 3.0, f).values
    assert lu_sizes == [1]
    ref = solve_resolvent(form, 3.0, f).values
    assert np.linalg.norm(u - ref) <= 1e-9 * np.linalg.norm(ref)


def test_iterations_do_not_grow_under_refinement(disk_forms, monkeypatch):
    for alpha in (1.0, 64.0, 4096.0):
        counts = []
        for level, form in sorted(disk_forms.items()):
            res = multigrid_resolvent(monkeypatch, form, tol=_MULTIGRID_RTOL)
            solve_resolvent(res, alpha, interior_data(form, 52))
            counts.append(res.iterations)
        assert all(5 <= c <= 20 for c in counts), (alpha, counts)
        assert max(counts) - min(counts) <= 4, (alpha, counts)


def test_iterations_is_none_after_a_direct_solve(disk_forms, monkeypatch):
    form = disk_forms[2]
    f = interior_data(form, 53)
    # below the cut both backends take the LU
    for backend in ("direct", "gmres"):
        lu = Resolvent(form, backend=backend)
        assert lu.iterations is None
        solve_resolvent(lu, 2.0, f)
        assert lu.iterations is None and lu.residual is not None
    multigrid = multigrid_resolvent(monkeypatch, form)
    solve_resolvent(multigrid, 2.0, f)
    assert isinstance(multigrid.iterations, int) and multigrid.iterations > 0


def dominant_system(n, seed):
    """A random non-symmetric, strictly diagonally dominant CSR matrix of
    order n, with a counting Jacobi preconditioner: (a, jacobi, calls)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    calls = []

    def jacobi(v):
        calls.append(1)
        return v / np.diag(a)

    return sp.csr_matrix(a), jacobi, calls


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**16),
    rtol=st.sampled_from([1e-4, 1e-8, 1e-12]),
    maxiter=st.integers(2, 4),
)
def test_gmres_meets_its_tolerance_on_dominant_systems(n, seed, rtol, maxiter):
    a, jacobi, calls = dominant_system(n, seed)
    rng = np.random.default_rng(seed + 1)
    b, start = rng.standard_normal(n), rng.standard_normal(n)
    x, info, iterations = _gmres(a, b, jacobi, rtol, maxiter, start)
    # Jacobi makes these systems contractions: one cycle of 20 sufficed for
    # every n up to 60 and 30 seeds each
    assert info == 0 and iterations <= _GMRES_RESTART * maxiter
    assert np.linalg.norm(b - a @ x) <= rtol * np.linalg.norm(b)
    dense = a.toarray()
    # the forward error is at most ||A^-1||_2 times the residual
    gap = np.linalg.norm(x - np.linalg.solve(dense, b))
    assert gap <= 1.01 * rtol * np.linalg.norm(b) * np.linalg.norm(np.linalg.inv(dense), 2)


def test_gmres_at_the_solution_or_with_zero_data_does_not_iterate():
    a, jacobi, calls = dominant_system(30, 1)
    # integer data make b = a x exact, so the start has a zero residual
    a.data = np.round(a.data)
    x = np.arange(30.0)
    out, info, iterations = _gmres(a, a @ x, jacobi, 0.0, 3, x)
    assert np.array_equal(out, x) and (info, iterations) == (0, 0) and not calls
    out, info, iterations = _gmres(a, np.zeros(30), jacobi, 1e-12, 3)
    assert np.array_equal(out, np.zeros(30)) and (info, iterations) == (0, 0) and not calls


def test_gmres_applies_the_preconditioner_once_per_iteration_and_per_cycle():
    a, jacobi, calls = dominant_system(50, 2)
    b = np.random.default_rng(3).standard_normal(50)
    # rtol 0: the residual estimate of a cycle decays past any rounding
    # level, but only an exact breakdown would end a cycle early
    x, info, iterations = _gmres(a, b, jacobi, 0.0, 3)
    assert (info, iterations) == (3, 3 * _GMRES_RESTART)
    assert len(calls) == iterations + 3
    # a reachable one: one cycle that stops on its residual estimate
    del calls[:]
    x, info, iterations = _gmres(a, b, jacobi, 1e-8, 3)
    assert info == 0 and 0 < iterations < _GMRES_RESTART
    assert len(calls) == iterations + 1


def test_gmres_stops_after_a_cycle_that_leaves_a_non_finite_residual():
    a, _, _ = dominant_system(30, 4)
    b = np.ones(30)
    x, info, iterations = _gmres(a, b, lambda v: np.full_like(v, np.nan), 1e-8, 1000)
    assert (info, iterations) == (1000, _GMRES_RESTART) and np.isnan(x).all()


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
    monkeypatch.setattr(fplab.fem, "_MULTIGRID_MIN_UNKNOWNS", 0)
    monkeypatch.setattr(fplab.forms, "spla", StalledCg())
    form = disk_forms[2]
    with pytest.raises(SolverDivergence, match="mass matrix CG missed rtol=1e-14"):
        apply_generator(form, interior_data(form, 60))


def test_gmres_without_a_lineage_is_the_direct_lu(tmp_path, lu_sizes, monkeypatch):
    # with the cut at 0 only the lineage decides: a box of 6 cells and a
    # read mesh have none, so gmres takes the same LU as direct
    path = tmp_path / "mesh.npz"
    write_mesh(build_ball_mesh((0.0, 0.0), 1.0, levels=2), path)
    forms = [make_form(build_box_mesh((0.0, 0.0), (1.0, 1.0), 6)), make_form(read_mesh(path))]
    monkeypatch.setattr(fplab.fem, "_MULTIGRID_MIN_UNKNOWNS", 0)
    for form in forms:
        f = interior_data(form, 61)
        del lu_sizes[:]
        u = {}
        for backend in ("direct", "gmres"):
            res = Resolvent(form, backend=backend)
            u[backend] = solve_resolvent(res, 3.0, f).values
            assert res.iterations is None
        assert lu_sizes == [form.interior.size] * 2
        assert np.array_equal(u["gmres"], u["direct"])


def test_one_cut_switches_the_density_and_the_resolvent(lu_sizes, monkeypatch):
    # the 2D level-3 disk is below the cut: its 816 pinned unknowns and 721
    # interior unknowns both reach a cut lowered to 721
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=3)
    cs = preset("rotator", 2)
    n = int((~mesh.boundary).sum())
    assert n < _MULTIGRID_MIN_UNKNOWNS
    for cut in (_MULTIGRID_MIN_UNKNOWNS, n):
        monkeypatch.setattr(fplab.fem, "_MULTIGRID_MIN_UNKNOWNS", cut)
        multigrid = cut == n
        density = solve_invariant_density(mesh, cs)
        assert (len(density.iterations) == 2) is multigrid
        form = assemble_form(mesh, cs, density, decompose_drift(mesh, cs, density))
        del lu_sizes[:]
        res = Resolvent(form)
        solve_resolvent(res, 3.0, interior_data(form, 62))
        # the V-cycle factors its coarsest level only
        assert (max(lu_sizes) < n) is multigrid
        assert (res.iterations is not None) is multigrid


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
    # the rule's cut, which also switches mass_solve to CG
    monkeypatch.setattr(fplab.fem, "_MULTIGRID_MIN_UNKNOWNS", n)
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
    # below the cut the direct sweep factors every alpha and the lumped
    # system; with the cut lowered the gmres sweep factors only coarse
    # levels, where a check would still factor the lumped system
    alphas = (1.0, 4.0, 16.0)
    direct = resolvent_sweep(form, alphas=alphas, seed=57)
    assert lu_sizes == [n] * (len(alphas) + 1)
    del lu_sizes[:]
    monkeypatch.setattr(fplab.fem, "_MULTIGRID_MIN_UNKNOWNS", 0)
    multigrid = resolvent_sweep(form, alphas=alphas, seed=57, backend="gmres")
    assert n not in lu_sizes
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
