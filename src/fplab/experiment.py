"""Uniform energy-bound experiment for the resolvent approximation.

Pipeline: the caller supplies h_tilde, a solution of the double-divergence
problem (the CLI and `verify` pass the invariant density rho, which solves
the homogeneous problem), divide it by rho to get h, build a radial
quintic cutoff chi, sweep the resolvent over a dyadic alpha grid, and
compare the energies of chi * alpha G_alpha h against the explicit
constant C1^2 + 2 C2 assembled from quadrature norms of the ingredients.
ConstantsReport.as_dict names the ledger entries from one table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import (
    AnalyticFunction,
    CoefficientSet,
    nondivergence_apply,
    weak_divergence_matrix,
)
from .density import DensityField
from .errors import DimensionUnsupported, InvalidRadii, MissingDerivative
from .fem import (
    FeFunction,
    _blocks,
    _eval_callable,
    assemble_weighted_stiffness,
    interpolate,
    matrix_at_quad,
    quadrature_norm,
    scalar_at_quad,
    vector_at_quad,
)
from .forms import DEFAULT_ALPHAS, FormMatrices, Resolvent, solve_resolvent
from .quadrature import quadrature_rule

# max of d/dt (6t^5 - 15t^4 + 10t^3) = 30 t^2 (1-t)^2 on [0, 1], at t = 1/2
_QUINTIC_SLOPE_MAX = 15.0 / 8.0
# the resolvent and cutoff gaps must drop by this factor across the alphas
_GAP_REDUCTION = 1e-3


@dataclass
class CutoffSpec:
    """Radial quintic-smoothstep cutoff: 1 inside, 0 outside, C^2 overall."""

    center: np.ndarray
    inner: float
    outer: float

    @property
    def grad_inf_norm(self) -> float:
        return _QUINTIC_SLOPE_MAX / (self.outer - self.inner)

    def _profile(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        rad = np.linalg.norm(pts - self.center, axis=1)
        width = self.outer - self.inner
        t = np.clip((rad - self.inner) / width, 0.0, 1.0)
        return pts, rad, t, width, single

    def value(self, x):
        _, _, t, _, single = self._profile(x)
        s = t * t * t * (10.0 + t * (6.0 * t - 15.0))
        out = 1.0 - s
        return float(out[0]) if single else out

    def gradient(self, x):
        pts, rad, t, width, single = self._profile(x)
        slope = -30.0 * t * t * (1.0 - t) ** 2 / width
        safe = np.where(rad > 0.0, rad, 1.0)
        unit = (pts - self.center) / safe[:, None]
        out = np.where(rad[:, None] > 0.0, slope[:, None] * unit, 0.0)
        return out[0] if single else out

    def hessian(self, x):
        pts, rad, t, width, single = self._profile(x)
        gp = -30.0 * t * t * (1.0 - t) ** 2 / width
        gpp = -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / (width * width)
        safe = np.where(rad > 0.0, rad, 1.0)
        unit = (pts - self.center) / safe[:, None]
        dim = pts.shape[1]
        # radial Hessian: g'' uu^T + (g'/r)(I - uu^T); zero on the plateaus.
        # Built in place, so that at most two (n, dim, dim) arrays are held
        uu = unit[:, :, None] * unit[:, None, :]
        tangential = np.eye(dim) - uu
        tangential *= (gp / safe)[:, None, None]
        out = uu
        out *= gpp[:, None, None]
        out += tangential
        out[~(rad > 0.0)] = 0.0
        return out[0] if single else out


def build_cutoff(center, inner: float, outer: float) -> CutoffSpec:
    """Cutoff equal to 1 on ||x - center|| <= inner, 0 beyond outer.

    The transition is the quintic smoothstep, so the gradient sup norm is
    exactly (15/8) / (outer - inner).
    """
    center = np.asarray(center, dtype=float).ravel()
    if not (0.0 < inner < outer):
        raise InvalidRadii(
            f"cutoff radii must satisfy 0 < inner < outer, got {inner}, {outer}"
        )
    return CutoffSpec(center=center, inner=float(inner), outer=float(outer))


@dataclass
class ConstantsReport:
    """Explicit constants of the uniform energy bound with their ingredients.

    big_c1 and big_c2 are the exact sums c1 + 2c2 + c4 + c5 + c6 + c7 + 2c9
    and c3 + c8 + 2c10 of the fields; c8 and c10 equal c3 by construction
    and are read-only properties.
    `recovered` names ingredients that were finite-element recovered rather
    than analytic (currently only "div_a").
    """

    dim: int
    k_d_rho: float
    gamma: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c9: float
    big_c1: float
    big_c2: float
    bound: float
    h_l2: float
    lb_chi_ld: float
    grad_chi_inf: float
    c_ld: float
    f_l2star: float
    flux_l2: float
    lam: float
    m_bound: float
    rho_min: float
    rho_max: float
    recovered: tuple = ()

    @property
    def c8(self) -> float:
        return self.c3

    @property
    def c10(self) -> float:
        return self.c3

    def as_dict(self) -> dict:
        """The ledger under its JSON keys, `recovered` as a list."""
        values = ((key, getattr(self, attr)) for attr, key in _LEDGER_KEYS)
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values}


# (ConstantsReport attribute, JSON key) of every ledger entry
_LEDGER_KEYS = (
    ("dim", "dim"), ("k_d_rho", "K_d_rho"), ("gamma", "gamma"), ("big_c1", "C1"),
    ("big_c2", "C2"), ("bound", "bound"), ("h_l2", "norm_h_l2_mu"),
    ("lb_chi_ld", "norm_lb_chi_ld_mu"), ("grad_chi_inf", "norm_grad_chi_inf"),
    ("c_ld", "norm_c_ld_mu"), ("f_l2star", "norm_f_l2star_mu"), ("flux_l2", "norm_flux_l2_mu"),
    ("lam", "lambda"), ("m_bound", "m_bound"), ("rho_min", "rho_min"), ("rho_max", "rho_max"),
    ("recovered", "recovered"), *((f"c{i}", f"c{i}") for i in range(1, 11)),
)


def _lb_chi_at_quad(mesh, cs, cutoff):
    """trace(A hess chi) + <div A + H, grad chi> at quadrature points, every
    field sampled per block of elements."""
    recovered = ()
    if cs.div_a is not None:
        div_a = cs.div_a
    elif cs.div_a_recoverable:
        div_a = weak_divergence_matrix(mesh, cs.a)
        recovered = ("div_a",)
    else:
        raise MissingDerivative(
            f"preset {cs.name!r} has no analytic div A and recovery is not meaningful"
        )
    lb = np.empty((mesh.num_elements, quadrature_rule(mesh.dim).weights.size))
    for block in _blocks(mesh.num_elements):
        lb[block] = np.einsum(
            "eqab,eqba->eq",
            matrix_at_quad(cs.a, mesh, block=block),
            matrix_at_quad(cutoff.hessian, mesh, block=block),
        )
        grad_chi = vector_at_quad(cutoff.gradient, mesh, block=block)
        drift_q = vector_at_quad(cs.drift, mesh, block=block)
        div_a_q = vector_at_quad(div_a, mesh, block=block)
        lb[block] += np.einsum("eqa,eqa->eq", div_a_q + drift_q, grad_chi)
    return lb, recovered


def compute_constants(
    cs: CoefficientSet,
    density: DensityField,
    cutoff: CutoffSpec,
    h: FeFunction,
) -> ConstantsReport:
    """Assemble the explicit constants of the uniform energy bound.

    Requires d = 3: the Sobolev factor gamma = 2(d-1)/(d-2) and the
    constant K_{d,rho} are meaningful only there among the supported mesh
    dimensions. All integral norms are over the mu = rho dx measure; f and
    F are the mu-rescaled data f_tilde/rho and F_tilde/rho.
    """
    mesh = h.mesh
    d = mesh.dim
    if d != 3:
        raise DimensionUnsupported(
            f"energy-bound constants need dimension 3, got {d}"
        )
    lb_chi, recovered = _lb_chi_at_quad(mesh, cs, cutoff)

    gamma = 2.0 * (d - 1) / (d - 2)
    k_d_rho = (
        density.rho_max ** (0.5 - 1.0 / d)
        / (np.sqrt(cs.lam) * np.sqrt(density.rho_min))
        * gamma
    )
    h_l2 = quadrature_norm(mesh, h, p=2.0, weight=density.rho)
    lb_chi_ld = quadrature_norm(mesh, lb_chi, p=float(d), weight=density.rho)
    grad_chi_inf = cutoff.grad_inf_norm
    if cs.c is not None:
        c_ld = quadrature_norm(mesh, cs.c, p=float(d), weight=density.rho)
    else:
        c_ld = 0.0
    if cs.f_data is not None:
        f_mu = scalar_at_quad(cs.f_data, mesh) / density.rho.at_quad()
        f_l2star = quadrature_norm(mesh, f_mu, p=2.0 * d / (d + 2.0), weight=density.rho)
    else:
        f_l2star = 0.0
    if cs.flux_data is not None:
        rho_q = density.rho.at_quad()
        flux_mu = vector_at_quad(cs.flux_data, mesh) / rho_q[:, :, None]
        flux_l2 = quadrature_norm(
            mesh,
            np.sqrt(np.einsum("eqa,eqa->eq", flux_mu, flux_mu)),
            p=2.0,
            weight=density.rho,
        )
    else:
        flux_l2 = 0.0

    dm = d * cs.m_bound
    c1 = h_l2 * lb_chi_ld * k_d_rho
    c2 = np.sqrt(dm) * grad_chi_inf * h_l2
    c3 = 2.0 * dm * grad_chi_inf**2 * h_l2**2
    c4 = c_ld * h_l2 * k_d_rho
    c5 = f_l2star * k_d_rho
    c6 = flux_l2 / np.sqrt(cs.lam)
    c7 = k_d_rho * (2.0 * lb_chi_ld) * h_l2
    c9 = 2.0 * np.sqrt(dm) * grad_chi_inf * h_l2
    big_c1 = c1 + 2.0 * c2 + c4 + c5 + c6 + c7 + 2.0 * c9
    big_c2 = 4.0 * c3
    return ConstantsReport(
        dim=d,
        k_d_rho=float(k_d_rho),
        gamma=float(gamma),
        c1=float(c1),
        c2=float(c2),
        c3=float(c3),
        c4=float(c4),
        c5=float(c5),
        c6=float(c6),
        c7=float(c7),
        c9=float(c9),
        big_c1=float(big_c1),
        big_c2=float(big_c2),
        bound=float(big_c1**2 + 2.0 * big_c2),
        h_l2=float(h_l2),
        lb_chi_ld=float(lb_chi_ld),
        grad_chi_inf=float(grad_chi_inf),
        c_ld=float(c_ld),
        f_l2star=float(f_l2star),
        flux_l2=float(flux_l2),
        lam=float(cs.lam),
        m_bound=float(cs.m_bound),
        rho_min=float(density.rho_min),
        rho_max=float(density.rho_max),
        recovered=recovered,
    )


@dataclass
class EnergyBoundReport:
    """Alpha sweep of the cutoff resolvent energies against the bound."""

    alphas: np.ndarray
    energies: np.ndarray
    sup_energy: float
    bound: float
    margin: float  # bound - sup_energy; reported even when negative
    l2_gaps: np.ndarray       # ||alpha G_alpha h - h||_{L^2(mu)}, interior data
    cutoff_gaps: np.ndarray   # ||chi alpha G_alpha h - chi h||_{L^2(mu)}
    h1_seminorms: np.ndarray  # mu-weighted H^1 seminorm of chi alpha G_alpha h
    chi_u_norms: np.ndarray   # ||chi alpha G_alpha h||_{L^2(mu)}
    h_l2: float
    constants: ConstantsReport

    def rows(self):
        """Per-alpha tuples (alpha, energy, l2_gap, h1_seminorm)."""
        return [
            (float(a), float(e), float(g), float(s))
            for a, e, g, s in zip(
                self.alphas, self.energies, self.l2_gaps, self.h1_seminorms
            )
        ]


def run_experiment(
    form: FormMatrices,
    cutoff: CutoffSpec,
    h_tilde: FeFunction,
    constants: ConstantsReport,
    alphas=DEFAULT_ALPHAS,
    backend: str = "direct",
    tol: float = 1e-10,
    maxiter: int = 10000,
) -> EnergyBoundReport:
    """Sweep alpha and test sup E(chi alpha G_alpha h) <= C1^2 + 2 C2.

    h = h_tilde / rho nodewise; the cutoff is applied by nodal
    multiplication with its vertex interpolant. The form must be assembled
    in skew mode for the energy identity and contraction to be exact.
    backend, tol and maxiter configure the resolvent solves.
    """
    mesh = form.mesh
    h_vals = h_tilde.values / form.rho.values
    interior = form.interior
    h_int = np.zeros_like(h_vals)
    h_int[interior] = h_vals[interior]
    chi = interpolate(mesh, cutoff.value).values
    chi_h = chi * h_int
    s_identity = assemble_weighted_stiffness(mesh, np.eye(mesh.dim), rho=form.rho)
    alphas = np.asarray(sorted(float(a) for a in alphas))
    n = alphas.size
    energies = np.zeros(n)
    l2_gaps = np.zeros(n)
    cutoff_gaps = np.zeros(n)
    h1_seminorms = np.zeros(n)
    chi_u_norms = np.zeros(n)
    res = Resolvent(form, backend=backend, tol=tol, maxiter=maxiter)

    # each task fills its own index of the arrays
    def work(i, _):
        alpha = alphas[i]
        u = solve_resolvent(res, alpha, h_vals)
        scaled = alpha * u.values
        x = chi * scaled
        energies[i] = form.energy(x)
        l2_gaps[i] = form.l2_norm(scaled - h_int)
        cutoff_gaps[i] = form.l2_norm(x - chi_h)
        h1_seminorms[i] = float(np.sqrt(max(x @ (s_identity @ x), 0.0)))
        chi_u_norms[i] = form.l2_norm(x)

    res.map(work, range(n))
    sup_energy = float(energies.max()) if n else 0.0
    return EnergyBoundReport(
        alphas=alphas,
        energies=energies,
        sup_energy=sup_energy,
        bound=constants.bound,
        margin=float(constants.bound - sup_energy),
        l2_gaps=l2_gaps,
        cutoff_gaps=cutoff_gaps,
        h1_seminorms=h1_seminorms,
        chi_u_norms=chi_u_norms,
        h_l2=float(form.l2_norm(h_int)),
        constants=constants,
    )


@dataclass
class ConvergenceDiagnostics:
    """Structured pass/fail summary of the alpha-limit behavior."""

    l2_monotone: bool
    l2_reduction: float
    l2_reduction_ok: bool
    form_norm_bounded: bool
    cutoff_reduction: float
    cutoff_reduction_ok: bool
    passed: bool


def convergence_diagnostics(report: EnergyBoundReport) -> ConvergenceDiagnostics:
    """Check the three alpha-limit properties behind the compactness step.

    (a) the resolvent gaps decrease monotonically and drop by a factor of
    1e-3 across the grid; (b) sqrt(E_alpha) + ||chi alpha G_alpha h|| stays
    below sqrt(bound) + ||h|| (boundedness in the form norm); (c) the
    cutoff gaps drop by the same factor.
    """
    gaps = report.l2_gaps
    monotone = bool((np.diff(gaps) <= 1e-12 + 1e-9 * gaps[:-1]).all())
    l2_reduction = float(gaps[-1] / gaps[0]) if gaps[0] > 0 else 0.0
    l2_ok = gaps[-1] <= _GAP_REDUCTION * gaps[0] if gaps[0] > 0 else True
    h_norm = max(report.constants.h_l2, report.h_l2)
    cap = np.sqrt(max(report.bound, 0.0)) + h_norm
    lhs = np.sqrt(np.clip(report.energies, 0.0, None)) + report.chi_u_norms
    bounded = bool((lhs <= cap * (1.0 + 1e-12) + 1e-15).all())
    cgaps = report.cutoff_gaps
    cutoff_reduction = float(cgaps[-1] / cgaps[0]) if cgaps[0] > 0 else 0.0
    cutoff_ok = cgaps[-1] <= _GAP_REDUCTION * cgaps[0] if cgaps[0] > 0 else True
    return ConvergenceDiagnostics(
        l2_monotone=monotone,
        l2_reduction=l2_reduction,
        l2_reduction_ok=bool(l2_ok),
        form_norm_bounded=bounded,
        cutoff_reduction=cutoff_reduction,
        cutoff_reduction_ok=bool(cutoff_ok),
        passed=bool(monotone and l2_ok and bounded and cutoff_ok),
    )


def _as_analytic(obj) -> AnalyticFunction:
    if isinstance(obj, AnalyticFunction):
        return obj
    grad = getattr(obj, "grad", None) or getattr(obj, "gradient", None)
    hess = getattr(obj, "hess", None) or getattr(obj, "hessian", None)
    if grad is None:
        raise MissingDerivative("analytic test function lacks a gradient callback")
    return AnalyticFunction(value=obj.value, grad=grad, hess=hess)


def product_rule_residual(cs: CoefficientSet, chi, u, points) -> float:
    """Pointwise defect of L(chi u) = u L chi + chi L u + 2 sym<A grad chi, grad u>.

    chi and u are analytic pairs (AnalyticFunction or CutoffSpec). Both
    sides are evaluated through the nondivergence-form application, so an
    analytic div A is required.
    """
    chi_f = _as_analytic(chi)
    u_f = _as_analytic(u)
    if chi_f.hess is None or u_f.hess is None:
        raise MissingDerivative("product rule check needs Hessians for both factors")

    def pval(x):
        return np.asarray(chi_f.value(x), dtype=float) * np.asarray(
            u_f.value(x), dtype=float
        )

    def pgrad(x):
        cv = np.asarray(chi_f.value(x), dtype=float)
        uv = np.asarray(u_f.value(x), dtype=float)
        cg = np.asarray(chi_f.grad(x), dtype=float)
        ug = np.asarray(u_f.grad(x), dtype=float)
        return cv[..., None] * ug + uv[..., None] * cg

    def phess(x):
        cv = np.asarray(chi_f.value(x), dtype=float)
        uv = np.asarray(u_f.value(x), dtype=float)
        cg = np.asarray(chi_f.grad(x), dtype=float)
        ug = np.asarray(u_f.grad(x), dtype=float)
        ch = np.asarray(chi_f.hess(x), dtype=float)
        uh = np.asarray(u_f.hess(x), dtype=float)
        outer = cg[..., :, None] * ug[..., None, :]
        return (
            uv[..., None, None] * ch
            + cv[..., None, None] * uh
            + outer
            + np.swapaxes(outer, -1, -2)
        )

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lhs = nondivergence_apply(cs, AnalyticFunction(pval, pgrad, phess), pts)
    lb_chi = nondivergence_apply(cs, chi_f, pts)
    lb_u = nondivergence_apply(cs, u_f, pts)
    a_v = _eval_callable(cs.a, pts, (cs.dim, cs.dim))
    cg = _eval_callable(chi_f.grad, pts, (cs.dim,))
    ug = _eval_callable(u_f.grad, pts, (cs.dim,))
    cv = _eval_callable(chi_f.value, pts, ())
    uv = _eval_callable(u_f.value, pts, ())
    cross = np.einsum("na,nab,nb->n", ug, a_v, cg) + np.einsum(
        "na,nab,nb->n", cg, a_v, ug
    )
    rhs = uv * lb_chi + cv * lb_u + cross
    return float(np.abs(np.asarray(lhs) - rhs).max())
