"""Cutoff calculus and the energy bound sweep."""

import dataclasses

import numpy as np
import pytest

from fplab import (
    AnalyticFunction,
    ConstantsReport,
    DimensionUnsupported,
    InvalidRadii,
    CoefficientSet,
    assemble_form,
    build_ball_mesh,
    build_cutoff,
    compute_constants,
    convergence_diagnostics,
    decompose_drift,
    first_dirichlet_eigenpair,
    interpolate,
    nondivergence_apply,
    physical_quad_points,
    preset,
    product_rule_residual,
    run_experiment,
    solve_invariant_density,
)
from fplab.experiment import _as_analytic, _lb_chi_sampler


def test_build_cutoff_guards():
    with pytest.raises(InvalidRadii):
        build_cutoff((0.0, 0.0), 0.8, 0.5)
    with pytest.raises(InvalidRadii):
        build_cutoff((0.0, 0.0), 0.0, 0.5)
    chi = build_cutoff((0.0, 0.0), 0.5, 0.9)
    assert chi.grad_inf_norm == pytest.approx(1.875 / 0.4, rel=1e-15)


def test_cutoff_values_and_plateaus():
    chi = build_cutoff((0.0, 0.0), 0.4, 0.8)
    assert chi.value(np.array([0.0, 0.0])) == 1.0
    assert chi.value(np.array([0.3, 0.0])) == 1.0
    assert chi.value(np.array([0.9, 0.0])) == 0.0
    # quintic smoothstep is 1/2 at the midpoint radius
    assert chi.value(np.array([0.6, 0.0])) == pytest.approx(0.5, abs=1e-14)
    # radial monotonicity along a ray
    rs = np.linspace(0.0, 1.0, 101)
    vals = chi.value(np.stack([rs, np.zeros_like(rs)], axis=1))
    assert (np.diff(vals) <= 1e-14).all()


def test_cutoff_gradient_plateaus_and_peak():
    chi = build_cutoff((0.0, 0.0), 0.4, 0.8)
    assert np.abs(chi.gradient(np.array([0.2, 0.1]))).max() == 0.0
    assert np.abs(chi.gradient(np.array([0.9, 0.0]))).max() == 0.0
    assert np.abs(chi.gradient(np.array([0.0, 0.0]))).max() == 0.0
    # slope peaks at the midpoint with magnitude (15/8)/width
    g = chi.gradient(np.array([0.6, 0.0]))
    assert np.linalg.norm(g) == pytest.approx(chi.grad_inf_norm, rel=1e-13)
    rs = np.linspace(0.41, 0.79, 200)
    pts = np.stack([rs, np.zeros_like(rs)], axis=1)
    norms = np.linalg.norm(chi.gradient(pts), axis=1)
    assert norms.max() <= chi.grad_inf_norm * (1 + 1e-12)


def _anisotropic_coefficients():
    """A full, nonsymmetric, varying a, with div a and H unrelated to it:
    the cutoff term's algebra is checked, not an identity of the fields."""

    def a(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 3))
        out[...] = 2.0 * np.eye(3)
        out[..., 0, 1] = 0.3 * np.sin(x[..., 2])
        out[..., 1, 0] = x[..., 0] - 0.2
        out[..., 2, 0] = 0.5 * x[..., 1] ** 2
        out[..., 1, 2] = 0.1
        out[..., 2, 2] += x[..., 0] * x[..., 1]
        return out

    return CoefficientSet(
        name="anisotropic", dim=3, a=a, lam=1.0, m_bound=3.0,
        drift=lambda x: np.cos(x), div_a=lambda x: np.asarray(x) ** 2 - 0.5,
    )


def test_radial_cutoff_term_matches_the_hessian_form():
    cs = _anisotropic_coefficients()
    center = np.array([0.1, -0.2, 0.05])
    chi = build_cutoff(center, 0.3, 0.7)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((300, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    # the center, both plateaus, the shell's edges and its inside
    radii = np.concatenate([
        [0.0, 0.1, 0.3, 0.3 + 1e-6, 0.7 - 1e-6, 0.7, 0.9],
        rng.uniform(0.3, 0.7, 293),
    ])
    pts = center + radii[:, None] * u
    pts[0] = center
    ref = nondivergence_apply(cs, _as_analytic(chi), pts)
    got = chi._nondivergence_term(pts, cs.a(pts), cs.div_a(pts) + cs.drift(pts))
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
    plateau = (radii < 0.3) | (radii > 0.7)
    assert (got[plateau] == 0.0).all() and (ref[plateau] == 0.0).all()


def test_cutoff_term_is_evaluated_on_the_transition_shell_only():
    cs = _anisotropic_coefficients()
    mesh = build_ball_mesh((0.0,) * 3, 1.0, levels=3)
    chi = build_cutoff((0.1, -0.2, 0.05), 0.3, 0.7)
    sample, recovered = _lb_chi_sampler(mesh, cs, chi)
    lb = sample(slice(0, mesh.num_elements))
    assert recovered == ()
    pts = physical_quad_points(mesh)
    rad = np.linalg.norm(pts - chi.center, axis=2)
    on = ((rad > 0.3) & (rad < 0.7)).any(axis=1)
    inside, outside = (rad <= 0.3).all(axis=1), (rad >= 0.7).all(axis=1)
    assert on.sum() and inside.sum() and outside.sum()
    assert (lb[~on] == 0.0).all()
    ref = nondivergence_apply(cs, _as_analytic(chi), pts[on].reshape(-1, 3))
    np.testing.assert_allclose(
        lb[on].ravel(), ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max()
    )


def test_cutoff_derivatives_match_differences():
    chi = build_cutoff((0.1, -0.2, 0.0), 0.3, 0.7)
    rng = np.random.default_rng(31)
    pts = np.array([0.1, -0.2, 0.0]) + 0.5 * rng.standard_normal((8, 3))
    h = 1e-6
    for x in pts:
        g = chi.gradient(x)
        hess = chi.hessian(x)
        np.testing.assert_allclose(hess, hess.T, atol=1e-12)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd_g = (chi.value(x + e) - chi.value(x - e)) / (2 * h)
            assert abs(fd_g - g[k]) <= 2e-5
            fd_h = (chi.gradient(x + e) - chi.gradient(x - e)) / (2 * h)
            np.testing.assert_allclose(fd_h, hess[:, k], atol=5e-4)


@pytest.fixture(scope="module")
def eigen3():
    mesh = build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=1)
    cs = preset("identity", 3)
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    form = assemble_form(mesh, cs, density, dec)
    return mesh, cs, density, form


def test_constants_identity_closed_forms(eigen3):
    mesh, cs, density, _ = eigen3
    cutoff = build_cutoff((0.0, 0.0, 0.0), 0.4, 0.8)
    h = interpolate(mesh, 1.0)
    rep = compute_constants(cs, density, cutoff, h)
    assert rep.gamma == 4.0
    # rho = 1 and lam = 1 collapse K_{d,rho} to gamma
    assert rep.k_d_rho == pytest.approx(4.0, rel=1e-9)
    vol = mesh.total_volume()
    assert rep.h_l2 == pytest.approx(np.sqrt(vol), rel=1e-9)
    g = 1.875 / 0.4
    assert rep.grad_chi_inf == pytest.approx(g, rel=1e-14)
    assert rep.c2 == pytest.approx(np.sqrt(3.0) * g * rep.h_l2, rel=1e-12)
    assert rep.c9 == pytest.approx(2.0 * rep.c2, rel=1e-14)
    assert rep.c3 == pytest.approx(2.0 * 3.0 * g * g * rep.h_l2**2, rel=1e-12)
    # no zero-order term and no source data in this preset
    assert rep.c_ld == 0.0 and rep.c4 == 0.0
    assert rep.f_l2star == 0.0 and rep.c5 == 0.0
    assert rep.flux_l2 == 0.0 and rep.c6 == 0.0
    # ledger recomposition is exact, not approximate
    assert rep.big_c1 == rep.c1 + 2.0 * rep.c2 + rep.c4 + rep.c5 + rep.c6 + rep.c7 + 2.0 * rep.c9
    assert rep.big_c2 == rep.c3 + rep.c8 + 2.0 * rep.c10
    assert rep.bound == rep.big_c1**2 + 2.0 * rep.big_c2
    assert rep.c3 == rep.c8 == rep.c10


# the energy-bound ledger's JSON keys and the attribute each one reads
LEDGER_KEYS = {
    "dim": "dim",
    "K_d_rho": "k_d_rho",
    "gamma": "gamma",
    "C1": "big_c1",
    "C2": "big_c2",
    "bound": "bound",
    "norm_h_l2_mu": "h_l2",
    "norm_lb_chi_ld_mu": "lb_chi_ld",
    "norm_grad_chi_inf": "grad_chi_inf",
    "norm_c_ld_mu": "c_ld",
    "norm_f_l2star_mu": "f_l2star",
    "norm_flux_l2_mu": "flux_l2",
    "lambda": "lam",
    "m_bound": "m_bound",
    "rho_min": "rho_min",
    "rho_max": "rho_max",
    "recovered": "recovered",
    **{f"c{i}": f"c{i}" for i in range(1, 11)},
}


def test_constants_ledger_keys():
    # distinct field values, so that a key reading the wrong attribute shows
    names = [f.name for f in dataclasses.fields(ConstantsReport)]
    values = {name: float(i + 1) for i, name in enumerate(names)}
    values.update(dim=3, recovered=("div_a",))
    rep = ConstantsReport(**values)
    out = rep.as_dict()
    assert len(out) == 27
    assert set(out) == set(LEDGER_KEYS)
    for key, attr in LEDGER_KEYS.items():
        expected = getattr(rep, attr)
        assert out[key] == (list(expected) if key == "recovered" else expected), key
    assert out["recovered"] == ["div_a"]
    assert out["c8"] == out["c10"] == out["c3"] == values["c3"]


def test_constants_need_three_dimensions():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=1)
    cs = preset("identity", 2)
    density = solve_invariant_density(mesh, cs)
    cutoff = build_cutoff((0.0, 0.0), 0.4, 0.8)
    with pytest.raises(DimensionUnsupported):
        compute_constants(cs, density, cutoff, interpolate(mesh, 1.0))


def test_energy_bound_eigen_case(eigen3):
    mesh, cs, density, form = eigen3
    lam, psi = first_dirichlet_eigenpair(form)
    cutoff = build_cutoff((0.0, 0.0, 0.0), 0.5, 0.9)
    constants = compute_constants(cs, density, cutoff, psi)
    alphas = [2.0**k for k in range(19)]
    rep = run_experiment(form, cutoff, psi, constants, alphas=alphas)

    assert rep.sup_energy == rep.energies.max()
    assert rep.margin == rep.bound - rep.sup_energy
    assert rep.margin >= 0.0
    assert len(rep.rows()) == len(alphas)

    # alpha G_alpha psi = alpha/(alpha+lam) psi makes every sweep quantity
    # a closed form in the eigenvalue
    chi_vals = interpolate(mesh, cutoff.value).values
    chi_psi = chi_vals * psi.values
    base = form.energy(chi_psi)
    factors = (np.asarray(alphas) / (np.asarray(alphas) + lam)) ** 2
    np.testing.assert_allclose(rep.energies, factors * base, rtol=1e-8)

    diag = convergence_diagnostics(rep)
    assert diag.l2_monotone
    assert diag.l2_reduction <= 1e-3
    assert diag.form_norm_bounded
    assert diag.passed


def test_product_rule_residual_polynomial(eigen3):
    mesh, cs, _, _ = eigen3
    cutoff = build_cutoff((0.0, 0.0, 0.0), 0.4, 0.8)
    def hess(x):
        z = np.zeros(x.shape[:-1])
        row0 = np.stack([2.0 * x[..., 1], 2.0 * x[..., 0], z], axis=-1)
        row1 = np.stack([2.0 * x[..., 0], z, z], axis=-1)
        row2 = np.stack([z, z, z], axis=-1)
        return np.stack([row0, row1, row2], axis=-2)

    u = AnalyticFunction(
        value=lambda x: x[..., 0] * x[..., 0] * x[..., 1],
        grad=lambda x: np.stack(
            [2.0 * x[..., 0] * x[..., 1], x[..., 0] ** 2, np.zeros(x.shape[:-1])],
            axis=-1,
        ),
        hess=hess,
    )
    rng = np.random.default_rng(32)
    pts = 0.9 * rng.standard_normal((100, 3)) * 0.5
    assert product_rule_residual(cs, cutoff, u, pts) <= 1e-10
