"""Direct resolvent solves above the size cut: a float32 LU refined to float64.

The 2D level-5 disk has 12097 interior unknowns, above the 2000 from which
the direct backend factors in single precision; the level-3 disk is below.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import fplab.forms
from fplab import (
    DEFAULT_ALPHAS,
    Resolvent,
    assemble_form,
    build_ball_mesh,
    decompose_drift,
    preset,
    resolvent_sweep,
    solve_invariant_density,
    solve_resolvent,
)
from fplab.fem import _csr
from fplab.forms import _MULTIGRID_MIN_UNKNOWNS

EPS = np.finfo(float).eps


def disk_forms(level):
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=level)
    cs = preset("rotator", 2)
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    return {mode: assemble_form(mesh, cs, density, dec, d_mode=mode) for mode in ("skew", "raw")}


@pytest.fixture(scope="module")
def disk5():
    return disk_forms(5)


@pytest.fixture(scope="module")
def disk3():
    return disk_forms(3)


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


class DtypeRecorder:
    """Stands in for scipy.sparse.linalg inside fplab.forms, recording the
    dtype and size of every factored matrix."""

    def __init__(self):
        self.factored = []

    def splu(self, a, *args, **kwargs):
        self.factored.append((a.dtype, a.shape[0]))
        return spla.splu(a, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(spla, name)


@pytest.mark.parametrize("mode", ["skew", "raw"])
def test_refined_solves_match_float64_lu(disk5, mode):
    form = disk5[mode]
    res = Resolvent(form)
    assert res.interior.size >= _MULTIGRID_MIN_UNKNOWNS
    f = interior_data(form, 70)
    for alpha in DEFAULT_ALPHAS:
        u = solve_resolvent(res, alpha, f).values
        ref = float64_solve(res, alpha, f)
        assert form.l2_norm(u - ref) <= 1e-12 * form.l2_norm(ref), alpha
        # the normwise backward error meets the stopping rule
        k_int, rhs = system(res, alpha, f)
        x = u[res.interior]
        k_norm = spla.norm(k_int.copy(), np.inf)
        backward = np.abs(rhs - k_int @ x).max()
        assert backward <= 4.0 * EPS * (k_norm * np.abs(x).max() + np.abs(rhs).max()), alpha
        assert isinstance(res.iterations, int) and 1 <= res.iterations <= 10


def test_one_float32_factor_per_alpha_above_the_cut(disk5, disk3, monkeypatch):
    recorder = DtypeRecorder()
    monkeypatch.setattr(fplab.forms, "spla", recorder)
    form = disk5["skew"]
    # one factor per alpha and one for the lumped sub-Markov system
    resolvent_sweep(form, seed=71)
    n = form.interior.size
    assert recorder.factored == [(np.float32, n)] * (len(DEFAULT_ALPHAS) + 1)
    small = disk3["skew"]
    assert small.interior.size < _MULTIGRID_MIN_UNKNOWNS
    del recorder.factored[:]
    resolvent_sweep(small, seed=71)
    n = small.interior.size
    assert recorder.factored == [(np.float64, n)] * (len(DEFAULT_ALPHAS) + 1)


def test_iterations_count_refinement_steps_only(disk5, disk3):
    res = Resolvent(disk5["skew"])
    solve_resolvent(res, 8.0, interior_data(res.form, 72))
    assert isinstance(res.iterations, int) and res.iterations >= 1
    small = Resolvent(disk3["skew"])
    solve_resolvent(small, 8.0, interior_data(small.form, 72))
    assert small.iterations is None


def island_form(form, contrast):
    """The form with `contrast` times the graph Laplacian of the vertices
    within radius 0.5 added to S: the island's constant mode makes the
    system ill-conditioned in a way no diagonal scaling undoes."""
    mesh = form.mesh
    plan = mesh._csr_plan
    rows, cols = plan.rows(), plan.indices
    island = np.linalg.norm(mesh.vertices, axis=1) < 0.5
    lap = np.where(island[rows] & island[cols] & (rows != cols), -1.0, 0.0)
    degree = np.bincount(rows, weights=-lap, minlength=mesh.num_vertices)
    lap = np.where(rows == cols, degree[rows], lap)
    return dataclasses.replace(form, s=_csr(mesh, form.s.data + contrast * lap))


def test_ill_conditioned_system_falls_back_to_float64_lu(disk5, monkeypatch):
    form = island_form(disk5["skew"], 1e5)
    res = Resolvent(form)
    f = interior_data(form, 73)
    k_int, _ = system(res, 1.0, f)
    lu = spla.splu(k_int.tocsc(), permc_spec="NATURAL")
    inverse = spla.LinearOperator(
        k_int.shape, matvec=lu.solve, rmatvec=lambda y: lu.solve(y, trans="T"), dtype=float
    )
    cond = spla.onenormest(inverse) * spla.norm(k_int.copy(), 1)
    assert cond > 1.0 / np.finfo(np.float32).eps
    recorder = DtypeRecorder()
    monkeypatch.setattr(fplab.forms, "spla", recorder)
    u = solve_resolvent(res, 1.0, f).values
    assert np.array_equal(u, float64_solve(res, 1.0, f))
    assert res.iterations is None
    # refinement failed once: the float64 LU replaces the float32 one and
    # solves every later right side at that alpha
    n = form.interior.size
    assert recorder.factored == [(np.float32, n), (np.float64, n)]
    g = interior_data(form, 74)
    assert np.array_equal(solve_resolvent(res, 1.0, g).values, float64_solve(res, 1.0, g))
    assert len(recorder.factored) == 2 and res.iterations is None
