"""Direct resolvent solves above the size cut: float64 iterative refinement
whose steps are restart cycles of one V-cycle-preconditioned GMRES run.

The 2D level-5 disk has 12097 interior unknowns and the 3D box of 16 cells
per axis 3375, above the 2000 from which the direct backend refines on a
mesh with a lineage; the level-3 disk is below.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import fplab.fem
import fplab.forms
from fplab import (
    DEFAULT_ALPHAS,
    Resolvent,
    assemble_form,
    build_ball_mesh,
    build_box_mesh,
    decompose_drift,
    preset,
    resolvent_sweep,
    solve_invariant_density,
    solve_resolvent,
)
from fplab.fem import _GMRES_RESTART, _MULTIGRID_MIN_UNKNOWNS, _csr

EPS = np.finfo(float).eps


def make_forms(mesh):
    cs = preset("rotator", mesh.dim, radius=float(np.linalg.norm(mesh.vertices, axis=1).max()))
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    return {mode: assemble_form(mesh, cs, density, dec, d_mode=mode) for mode in ("skew", "raw")}


@pytest.fixture(scope="module")
def disk5():
    return make_forms(build_ball_mesh((0.0, 0.0), 1.0, levels=5))


@pytest.fixture(scope="module")
def disk3():
    return make_forms(build_ball_mesh((0.0, 0.0), 1.0, levels=3))


@pytest.fixture(scope="module")
def box16():
    return make_forms(build_box_mesh((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), 16))


def interior_data(form, seed):
    f = np.zeros(form.mesh.num_vertices)
    f[form.interior] = np.random.default_rng(seed).standard_normal(form.interior.size)
    return f


def system(res, alpha, f):
    """The interior matrix and right side that solve_resolvent(res, alpha, f) solves."""
    form = res.form
    k_int = res._block.matrix(alpha * res.m.data + form.s.data + form.d.data)
    return k_int, (res.m @ f)[res.interior]


def float64_solve(res, alpha, f):
    """The float64 LU solution, as the direct backend computes it below the cut."""
    k_int, rhs = system(res, alpha, f)
    u = np.zeros(res.form.mesh.num_vertices)
    u[res.interior] = spla.splu(k_int.tocsc(), permc_spec="NATURAL").solve(rhs)
    return u


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


@pytest.fixture
def gmres_runs(monkeypatch):
    """The inner iteration counts of fplab.forms' calls of fem._gmres, one
    entry per call."""
    counts = []

    def counted(*args, **kwargs):
        out = fplab.fem._gmres(*args, **kwargs)
        counts.append(out[2])
        return out

    monkeypatch.setattr(fplab.forms, "_gmres", counted)
    return counts


@pytest.mark.parametrize("case", ["disk5", "box16"])
@pytest.mark.parametrize("mode", ["skew", "raw"])
def test_refined_solves_match_float64_lu(case, mode, request, gmres_runs):
    form = request.getfixturevalue(case)[mode]
    res = Resolvent(form)
    assert res.interior.size >= _MULTIGRID_MIN_UNKNOWNS
    f = interior_data(form, 70)
    for alpha in DEFAULT_ALPHAS:
        del gmres_runs[:]
        u = solve_resolvent(res, alpha, f).values
        ref = float64_solve(res, alpha, f)
        assert form.l2_norm(u - ref) <= 1e-12 * form.l2_norm(ref), alpha
        # the normwise backward error meets the stopping rule
        k_int, rhs = system(res, alpha, f)
        x = u[res.interior]
        k_norm = spla.norm(k_int.copy(), np.inf)
        backward = np.abs(rhs - k_int @ x).max()
        assert backward <= 4.0 * EPS * (k_norm * np.abs(x).max() + np.abs(rhs).max()), alpha
        # one restart cycle (a call with maxiter 1) meets it
        assert gmres_runs == [res.iterations], alpha
        assert 1 <= res.iterations <= _GMRES_RESTART, alpha


def test_refinement_steps_per_alpha_above_the_cut(disk5, disk3, lu_sizes, gmres_runs):
    form = disk5["skew"]
    n = form.interior.size
    res = Resolvent(form)
    f = interior_data(form, 71)
    cycles = []
    for alpha in DEFAULT_ALPHAS:
        del gmres_runs[:]
        solve_resolvent(res, alpha, f)
        cycles.append(len(gmres_runs))
        assert res.iterations == sum(gmres_runs)
    # one restart cycle of V-cycle GMRES on b, stopped at a 4-eps relative
    # residual estimate, meets the float64 backward error at every alpha
    assert cycles == [1] * len(DEFAULT_ALPHAS), cycles
    # the sweep (alphas and the lumped sub-Markov system) factors only the
    # V-cycle's coarsest levels
    del lu_sizes[:]
    resolvent_sweep(form, seed=71)
    assert lu_sizes and max(lu_sizes) < n
    # below the cut: one float64 LU per alpha and one for the lumped system
    small = disk3["skew"]
    assert small.interior.size < _MULTIGRID_MIN_UNKNOWNS
    del lu_sizes[:]
    resolvent_sweep(small, seed=71)
    assert lu_sizes == [small.interior.size] * (len(DEFAULT_ALPHAS) + 1)


def test_a_mesh_without_a_lineage_gets_a_float64_lu_at_every_size(box16, lu_sizes):
    form = box16["skew"]
    bare = dataclasses.replace(form.mesh, lineage=())
    res = Resolvent(dataclasses.replace(form, mesh=bare))
    n = res.interior.size
    assert n >= _MULTIGRID_MIN_UNKNOWNS
    f = interior_data(form, 75)
    u = solve_resolvent(res, 4.0, f).values
    assert lu_sizes == [n] and res.iterations is None
    assert np.array_equal(u, float64_solve(res, 4.0, f))


def test_refinement_that_cannot_meet_the_rule_falls_back_to_float64_lu(disk5, lu_sizes):
    # a hundredfold rotation makes the system convection dominated: the
    # V-cycle's Jacobi smoothing no longer reduces its error, so a GMRES
    # correction does not halve the residual
    form = disk5["skew"]
    form = dataclasses.replace(form, d=_csr(form.mesh, 100.0 * form.d.data))
    res = Resolvent(form)
    n = res.interior.size
    f = interior_data(form, 73)
    u = solve_resolvent(res, 1.0, f).values
    assert np.array_equal(u, float64_solve(res, 1.0, f))
    assert res.iterations is None
    # the float64 LU replaces the refinement and solves every later right
    # side at that alpha
    assert lu_sizes.count(n) == 1
    g = interior_data(form, 74)
    assert np.array_equal(solve_resolvent(res, 1.0, g).values, float64_solve(res, 1.0, g))
    assert lu_sizes.count(n) == 1 and res.iterations is None
