"""Dirichlet form assembly and resolvent family checks."""

import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

import fplab.forms
from fplab import (
    DEFAULT_ALPHAS,
    DensityNotPositive,
    DimensionUnsupported,
    ContractionViolation,
    Resolvent,
    SubmarkovViolation,
    apply_generator,
    assemble_form,
    build_ball_mesh,
    build_box_mesh,
    check_contraction,
    check_resolvent_identity,
    check_submarkov,
    decompose_drift,
    first_dirichlet_eigenpair,
    preset,
    resolvent_sweep,
    sector_constant,
    solve_invariant_density,
    solve_resolvent,
    stationarity_matrix,
    strong_continuity_gaps,
    theoretical_sector_bound,
)
from fplab.fem import _MULTIGRID_MIN_UNKNOWNS, _runs_multigrid


def make_pipeline(name, dim, level, d_mode="skew", **kw):
    center = (0.0,) * dim
    mesh = build_ball_mesh(center, 1.0, levels=level)
    cs = preset(name, dim, **kw)
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    form = assemble_form(mesh, cs, density, dec, d_mode=d_mode)
    return mesh, cs, density, dec, form


@pytest.fixture(scope="module")
def gaussian2():
    return make_pipeline("gaussian_gradient", 2, 2)


def identity_box_form(cells):
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), cells)
    cs = preset("identity", 2)
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    return assemble_form(mesh, cs, density, dec)


@pytest.fixture(scope="module")
def box_form():
    return identity_box_form(8)


def test_skew_mode_energy_identity(gaussian2):
    _, _, _, _, form = gaussian2
    rng = np.random.default_rng(13)
    n = form.mesh.num_vertices
    for _ in range(20):
        f = np.zeros(n)
        f[form.interior] = rng.standard_normal(form.interior.size)
        diffusion = float(f @ (form.s @ f))
        # the skew drift block cancels exactly on the diagonal
        assert abs(form.energy(f) - diffusion) <= 1e-12 * diffusion


@settings(max_examples=25, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    cells=st.integers(2, 5),
    extent=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    name=st.sampled_from(["gaussian_gradient", "rotator", "example_ii"]),
    seed=st.integers(0, 2**16),
)
def test_skew_energy_identity_on_random_boxes(dim, cells, extent, name, seed):
    lo = (-0.5,) * dim
    hi = tuple(x - 0.5 for x in extent[:dim])
    mesh = build_box_mesh(lo, hi, cells)
    cs = preset(name, dim)
    try:
        density = solve_invariant_density(mesh, cs)
    except DensityNotPositive:
        # a stationarity matrix with no positive off-diagonal entry (a
        # Z-matrix) would have a positive kernel vector
        k = stationarity_matrix(mesh, cs).tocoo()
        assert (k.data[k.row != k.col] > 0).any()
        return
    form = assemble_form(mesh, cs, density, decompose_drift(mesh, cs, density))
    f = np.zeros(mesh.num_vertices)
    f[form.interior] = np.random.default_rng(seed).standard_normal(form.interior.size)
    diffusion = float(f @ (form.s @ f))
    assert abs(form.energy(f) - diffusion) <= 1e-12 * diffusion
    assert abs(float(f @ (form.d @ f))) <= 1e-12 * diffusion


def test_raw_mode_defect_vanishes_without_drift():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=2)
    cs = preset("identity", 2)
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    form = assemble_form(mesh, cs, density, dec, d_mode="raw")
    # B = H - (a grad rho)/rho is zero up to the density solve roundoff
    assert form.sym_defect_max <= 1e-9
    assert form.d_mode == "raw"


def test_raw_mode_defect_positive_for_gaussian():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=2)
    cs = preset("gaussian_gradient", 2)
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    form = assemble_form(mesh, cs, density, dec, d_mode="raw")
    assert form.sym_defect_max > 1e-6  # finite-h consistency error, not roundoff
    assert form.sym_defect_fro >= form.sym_defect_max


def test_contraction_all_presets(gaussian2):
    _, _, _, _, form = gaussian2
    rep = check_contraction(form, alphas=(1.0, 10.0, 100.0), trials=4, seed=21)
    assert rep.max_ratio <= 1.0 + 1e-10
    assert len(rep.rows) == 3 * 4


def test_resolvent_identity(gaussian2):
    _, _, _, _, form = gaussian2
    rng = np.random.default_rng(22)
    f = np.zeros(form.mesh.num_vertices)
    f[form.interior] = rng.standard_normal(form.interior.size)
    rep = check_resolvent_identity(form, 1.0, 10.0, f)
    assert rep.relative_defect <= 1e-8


def test_submarkov_box(box_form):
    rep = check_submarkov(box_form, alpha=10.0)
    assert rep.min_value >= -1e-8
    assert rep.max_value <= 1.0 + 1e-8


def test_submarkov_takes_a_lumped_resolvent_only(box_form):
    lumped = Resolvent(box_form, lumped=True)
    assert check_submarkov(lumped, alpha=10.0) == check_submarkov(box_form, alpha=10.0)
    with pytest.raises(ValueError, match="lumped Resolvent"):
        check_submarkov(Resolvent(box_form), alpha=10.0)


def test_submarkov_rejects_bad_data(box_form):
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha must be positive"):
            check_submarkov(box_form, alpha=alpha)


def test_submarkov_solves_for_one_on_the_interior(box_form):
    # the lumped system alpha M_l + S + D with f = 1 on the interior, solved densely
    alpha, interior = 10.0, box_form.interior
    lumped = np.asarray(box_form.m.sum(axis=1)).ravel()
    k = (alpha * sp.diags(lumped) + box_form.s + box_form.d).toarray()
    u = np.zeros(box_form.mesh.num_vertices)
    u[interior] = np.linalg.solve(k[np.ix_(interior, interior)], lumped[interior])
    rep = check_submarkov(box_form, alpha=alpha)
    assert rep.min_value == pytest.approx(alpha * u.min(), abs=1e-12)
    assert rep.max_value == pytest.approx(alpha * u.max(), rel=1e-10)


def test_submarkov_violation_names_the_range(box_form, monkeypatch):
    rep = check_submarkov(box_form, alpha=10.0)
    assert 0.0 < rep.max_value < 1.0
    # a tolerance that puts 1 + tol just below the maximum
    monkeypatch.setattr(fplab.forms, "_SUBMARKOV_TOL", rep.max_value - 1.0 - 1e-6)
    message = f"range [{rep.min_value:.3e}, {rep.max_value:.3e}] at alpha=10.0"
    with pytest.raises(SubmarkovViolation, match=re.escape(message)):
        check_submarkov(box_form, alpha=10.0)


def test_mass_lu_solves_the_interior_mass(box_form):
    interior = box_form.interior
    z = np.random.default_rng(17).standard_normal(interior.size)
    for lumped in (False, True):
        res = Resolvent(box_form, lumped=lumped)
        assert interior.size < _MULTIGRID_MIN_UNKNOWNS
        m_int = res.m.toarray()[np.ix_(interior, interior)]
        ref = np.linalg.solve(m_int, z)
        assert np.linalg.norm(res.mass_solve(z) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("alpha", [1.0, 64.0])
def test_lu_resolvent_equals_the_default_order_lu(box_form, alpha):
    # below the cut the resolvent is one SuperLU factorization of the
    # interior system in vertex order, with SuperLU's default column order
    f = interior_data(box_form, 41)
    k = (alpha * box_form.m + box_form.s + box_form.d).tocsr()
    k_int = k[box_form.interior][:, box_form.interior]
    ref = np.zeros_like(f)
    ref[box_form.interior] = spla.splu(k_int.tocsc()).solve((box_form.m @ f)[box_form.interior])
    assert np.array_equal(solve_resolvent(box_form, alpha, f).values, ref)


def test_resolvent_restricts_boundary_data(gaussian2):
    _, _, _, _, form = gaussian2
    # data supported on the boundary only produces the zero solution
    f = np.ones(form.mesh.num_vertices)
    f[form.interior] = 0.0
    u = solve_resolvent(form, 5.0, f)
    assert np.abs(u.values).max() == 0.0


def test_resolvent_input_validation(gaussian2):
    _, _, _, _, form = gaussian2
    f = np.ones(form.mesh.num_vertices)
    with pytest.raises(ValueError):
        solve_resolvent(form, -1.0, f)
    with pytest.raises(ValueError):
        Resolvent(form, backend="cg")
    # the resolvent adds the blocks' data arrays, so they must share a pattern
    diagonal = sp.identity(form.mesh.num_vertices, format="csr")
    with pytest.raises(ValueError, match="pattern"):
        Resolvent(dataclasses.replace(form, d=diagonal))


def test_gmres_below_the_cut_is_the_direct_lu(gaussian2):
    _, _, _, _, form = gaussian2
    rng = np.random.default_rng(23)
    f = np.zeros(form.mesh.num_vertices)
    f[form.interior] = rng.standard_normal(form.interior.size)
    ud = solve_resolvent(Resolvent(form, backend="direct"), 10.0, f)
    ug = solve_resolvent(Resolvent(form, backend="gmres"), 10.0, f)
    assert np.array_equal(ud.values, ug.values)


def test_generator_energy_pairing(gaussian2):
    _, _, _, _, form = gaussian2
    rng = np.random.default_rng(24)
    n = form.mesh.num_vertices
    for _ in range(5):
        u = np.zeros(n)
        v = np.zeros(n)
        u[form.interior] = rng.standard_normal(form.interior.size)
        v[form.interior] = rng.standard_normal(form.interior.size)
        lu = apply_generator(form, u)
        lhs = form.energy(u, v)
        rhs = -float(v @ (form.m @ lu.values))
        scale = np.sqrt(form.energy(u) * form.energy(v))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_resolvent_inverts_generator(gaussian2):
    _, _, _, _, form = gaussian2
    rng = np.random.default_rng(25)
    f = np.zeros(form.mesh.num_vertices)
    f[form.interior] = rng.standard_normal(form.interior.size)
    alpha = 7.0
    u = solve_resolvent(form, alpha, f)
    lu = apply_generator(form, u.values)
    resid = alpha * u.values[form.interior] - lu.values[form.interior] - f[form.interior]
    assert np.abs(resid).max() <= 1e-8 * np.abs(f).max()


def test_eigenpair_disk_identity():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=3)
    cs = preset("identity", 2)
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    form = assemble_form(mesh, cs, density, dec)
    lam, psi = first_dirichlet_eigenpair(form)
    # first Dirichlet eigenvalue of the unit disk is j_{0,1}^2; conforming P1
    # on an inscribed polygon approximates it from above
    j01sq = 5.783185962946785
    assert j01sq - 1e-9 <= lam <= 1.05 * j01sq
    assert form.l2_norm(psi.values) == pytest.approx(1.0, rel=1e-12)
    assert psi.values[form.interior].sum() > 0


def test_eigenpair_square_identity(box_form):
    lam, _ = first_dirichlet_eigenpair(box_form)
    # unit square: 2 pi^2, again from above
    exact = 2.0 * np.pi**2
    assert exact - 1e-9 <= lam <= 1.05 * exact


def test_resolvent_on_eigenfunction_is_exact(box_form):
    lam, psi = first_dirichlet_eigenpair(box_form)
    for alpha in (1.0, 10.0):
        u = solve_resolvent(box_form, alpha, psi)
        model = psi.values / (alpha + lam)
        assert np.abs(u.values - model).max() <= 1e-10 * np.abs(model).max()


def test_strong_continuity(gaussian2):
    _, _, _, _, form = gaussian2
    rng = np.random.default_rng(26)
    f = np.zeros(form.mesh.num_vertices)
    f[form.interior] = rng.standard_normal(form.interior.size)
    rep = strong_continuity_gaps(form, f, alphas=[2.0**k for k in range(11)])
    assert rep.monotone
    assert rep.gaps[-1] <= 1.1 * rep.final_bound
    assert rep.gaps[-1] < rep.gaps[0]


def test_sector_constant_identity_is_cauchy_schwarz(box_form):
    rep = sector_constant(box_form, trials=32, seed=27)
    # no drift block: |E(f,g)| <= sqrt(E(f,f) E(g,g)) exactly
    assert rep.empirical <= 1.0 + 1e-12
    assert rep.theoretical is None and rep.within_bound is None


def test_sector_bound_rotator_3d():
    _, cs, density, dec, form = make_pipeline("rotator", 3, 1)
    rep = sector_constant(form, cs, density, dec, trials=64, seed=28)
    assert rep.theoretical is not None and rep.theoretical >= 1.0
    assert rep.within_bound


def test_sector_bound_needs_three_dimensions():
    mesh, cs, density, dec, _ = make_pipeline("rotator", 2, 1)
    with pytest.raises(DimensionUnsupported):
        theoretical_sector_bound(cs, density, dec, mesh)


def test_resolvent_sweep_report(box_form):
    rep = resolvent_sweep(box_form, alphas=(1.0, 4.0, 16.0), seed=29)
    assert len(rep.alphas) == 3
    assert max(rep.contraction_ratios) <= 1.0 + 1e-10
    assert rep.identity_defect <= 1e-8
    assert rep.submarkov_min >= -1e-8
    assert rep.submarkov_max <= 1.0 + 1e-8


class CountingSpla:
    """Stands in for scipy.sparse.linalg inside fplab.forms, counting LUs."""

    def __init__(self):
        self.factorizations = 0

    def splu(self, *args, **kwargs):
        self.factorizations += 1
        return spla.splu(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(spla, name)


@pytest.fixture
def lu_count(monkeypatch):
    counter = CountingSpla()
    monkeypatch.setattr(fplab.forms, "spla", counter)
    return counter


def interior_data(form, seed):
    f = np.zeros(form.mesh.num_vertices)
    f[form.interior] = np.random.default_rng(seed).standard_normal(form.interior.size)
    return f


def assert_form_untouched(form, before):
    after = vars(form)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_contraction_factors_once_per_alpha(gaussian2, lu_count):
    form = gaussian2[4]
    before = dict(vars(form))
    alphas = (1.0, 10.0, 100.0, 1000.0)
    rep = check_contraction(form, alphas=alphas, trials=5, seed=31)
    assert lu_count.factorizations == 4
    assert_form_untouched(form, before)
    rng = np.random.default_rng(31)
    one_shot = []
    for alpha in alphas:
        for _ in range(5):
            f = np.zeros(form.mesh.num_vertices)
            f[form.interior] = rng.standard_normal(form.interior.size)
            u = solve_resolvent(form, alpha, f)
            one_shot.append(alpha * form.l2_norm(u.values) / form.l2_norm(f))
    assert np.array_equal([ratio for _, _, ratio in rep.rows], one_shot)


def test_resolvent_identity_factors_twice(gaussian2, lu_count):
    form = gaussian2[4]
    before = dict(vars(form))
    f = interior_data(form, 32)
    rep = check_resolvent_identity(form, 1.0, 10.0, f)
    assert lu_count.factorizations == 2
    assert_form_untouched(form, before)
    u_a = solve_resolvent(form, 1.0, f)
    u_b = solve_resolvent(form, 10.0, f)
    w = solve_resolvent(form, 1.0, u_b)
    assert rep.defect == form.l2_norm(u_a.values - u_b.values - 9.0 * w.values)


def test_strong_continuity_factors_each_alpha_and_mass_once(gaussian2, lu_count):
    form = gaussian2[4]
    before = dict(vars(form))
    f = interior_data(form, 33)
    rep = strong_continuity_gaps(form, f)
    assert len(DEFAULT_ALPHAS) == 13
    assert lu_count.factorizations == 13 + 1
    assert_form_untouched(form, before)
    one_shot = [
        form.l2_norm(alpha * solve_resolvent(form, alpha, f).values - f)
        for alpha in rep.alphas
    ]
    assert np.array_equal(rep.gaps, one_shot)


def test_resolvent_holds_one_factor_and_matches_one_shot_solves(gaussian2, lu_count):
    form = gaussian2[4]
    before = dict(vars(form))
    f = interior_data(form, 34)
    g = interior_data(form, 35)
    res = Resolvent(form)
    solves = [(1.0, f), (1.0, g), (2.0, f), (1.0, f)]
    shared = [solve_resolvent(res, alpha, data).values for alpha, data in solves]
    # a new alpha replaces the held factor, so returning to alpha = 1 refactors
    assert lu_count.factorizations == 3
    assert res.residual is not None
    for (alpha, data), u in zip(solves, shared):
        assert np.array_equal(u, solve_resolvent(form, alpha, data).values)
    generated = [apply_generator(res, data).values for data in (f, g, f)]
    assert lu_count.factorizations == 3 + len(solves) + 1
    for data, lu in zip((f, g, f), generated):
        assert np.array_equal(lu, apply_generator(form, data).values)
    assert_form_untouched(form, before)


def test_resolvent_sweep_reuses_its_solves(box_form, lu_count):
    before = dict(vars(box_form))
    rep = resolvent_sweep(box_form, alphas=(1.0, 4.0, 16.0), seed=36)
    # one LU per alpha (G_1 G_16 f reuses the alpha = 1 factor), one lumped
    assert lu_count.factorizations == 3 + 1
    assert_form_untouched(box_form, before)
    f = interior_data(box_form, 36)
    ident = check_resolvent_identity(box_form, 1.0, 16.0, f)
    assert rep.identity_defect == ident.relative_defect
    # the reported ratios and residuals are those of one-shot solves, and
    # the residuals are the guard's ||(alpha M + S + D) u - M f||
    interior = box_form.interior
    for alpha, ratio, residual in zip(rep.alphas, rep.contraction_ratios, rep.residuals):
        u = solve_resolvent(box_form, alpha, f).values
        assert ratio == alpha * box_form.l2_norm(u) / box_form.l2_norm(f)
        k = (alpha * box_form.m + box_form.s + box_form.d).tocsr()
        k_int = k[interior][:, interior]
        rhs = (box_form.m @ f)[interior]
        assert residual == np.linalg.norm(k_int @ u[interior] - rhs)


def colamd_solve(form, alpha, f):
    """One-shot reference: SuperLU's own COLAMD order on the mesh's interior."""
    interior = form.mesh.interior
    k = (alpha * form.m + form.s + form.d).tocsr()[interior][:, interior]
    f_int = np.zeros_like(f)
    f_int[interior] = f[interior]
    u = np.zeros_like(f)
    u[interior] = spla.splu(k.tocsc()).solve((form.m @ f_int)[interior])
    return u


@pytest.fixture(scope="module")
def rotator3():
    return make_pipeline("rotator", 3, 3)


def test_contraction_violation_names_the_first_offending_alpha(rotator3, monkeypatch):
    form = rotator3[4]
    alphas = tuple(float(4**k) for k in range(4))
    rows = check_contraction(form, alphas=alphas, trials=3, seed=45).rows
    # every ratio above the largest one at the first alpha now violates
    threshold = max(ratio for alpha, _, ratio in rows if alpha == alphas[0])
    offenders = [(alpha, ratio) for alpha, _, ratio in rows if ratio > threshold]
    assert len({alpha for alpha, _ in offenders}) >= 2
    alpha, ratio = offenders[0]
    message = f"||alpha G_alpha f|| / ||f|| = {ratio:.12f} at alpha={alpha}"
    monkeypatch.setattr(fplab.forms, "_CONTRACTION_TOL", threshold - 1.0)
    with pytest.raises(ContractionViolation, match=re.escape(message)):
        check_contraction(form, alphas=alphas, trials=3, seed=45)


@pytest.mark.parametrize("cells", [8, 64], ids=["lu", "multigrid"])
def test_resolvent_interior_is_the_form_interior(cells):
    form = identity_box_form(cells)
    assert _runs_multigrid(form.mesh, form.interior.size) == (cells == 64)
    for lumped in (False, True):
        assert np.array_equal(Resolvent(form, lumped=lumped).interior, form.interior)


@pytest.mark.parametrize("alpha", [1.0, 64.0])
def test_resolvent_matches_colamd_solve(rotator3, alpha):
    form = rotator3[4]
    f = interior_data(form, 37)
    u = solve_resolvent(form, alpha, f).values
    ref = colamd_solve(form, alpha, f)
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=12, deadline=None)
@given(
    cells=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    stretch=st.floats(0.25, 4.0),
)
@example(cells=(1, 80), stretch=1.0)   # one cell thick: no interior at all
@example(cells=(2, 60), stretch=0.05)  # one interior column of 59 vertices
@example(cells=(24, 24), stretch=1.0)
@example(cells=(2, 2), stretch=4.0)  # one interior vertex on a tall box
def test_resolvent_matches_colamd_solve_on_random_boxes(cells, stretch):
    mesh = build_box_mesh((0.0, 0.0), (1.0, stretch), cells)
    if mesh.interior.size == 0:
        return
    # the rotator drift grows with |x|; slowing it on a tall box keeps it
    # at most 1, as on the unit square, where the P1 density stays positive
    cs = preset("rotator", 2, omega=1.0 / max(1.0, stretch))
    density = solve_invariant_density(mesh, cs)
    form = assemble_form(mesh, cs, density, decompose_drift(mesh, cs, density))
    f = interior_data(form, 38)
    u = solve_resolvent(form, 3.0, f).values
    ref = colamd_solve(form, 3.0, f)
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)
