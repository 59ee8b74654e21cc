"""End-to-end verification of every checkable claim in the laboratory.

Each criterion is a function of the shared VerificationContext returning
a verdict `(passed, detail)`. A criterion is numbered by its position in
CRITERIA and named after its function without the `criterion_` prefix;
`_evaluate` does that numbering, times the call and turns a raised
FplabError, LinAlgError or ValueError into a failed result. run_all
evaluates them in order against one context, whose cache builds meshes,
densities and forms once. The command line `verify` subcommand and the
acceptance test suite both go through `_evaluate`, so a green run here is
the definition of a working build.

All randomness is seeded per criterion; two runs produce identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    AnalyticFunction,
    CoefficientSet,
    example_i_phi,
    preset,
    sample_domain_points,
    unit_ball_volume,
    vmo_modulus,
    vmo_product_inequality_check,
)
from .density import (
    DensityField,
    decompose_drift,
    divergence_free_residual,
    solve_invariant_density,
)
from .errors import FplabError
from .experiment import (
    build_cutoff,
    compute_constants,
    convergence_diagnostics,
    product_rule_residual,
    run_experiment,
)
from .fem import interpolate, l2_error, quadrature_norm
from .forms import (
    FormMatrices,
    Resolvent,
    apply_generator,
    assemble_form,
    check_contraction,
    check_resolvent_identity,
    check_submarkov,
    first_dirichlet_eigenpair,
    sector_constant,
    solve_resolvent,
)
from .mesh import Ball, SimplicialMesh, build_ball_mesh, build_box_mesh
from .mollifiers import (
    capital_phi_eps,
    mollifier_mass,
    phi_eps,
    phi_eps_prime,
    phi_eps_quadrature,
)

# Unit ball pipelines at these levels stay under a second each while the
# level-3 disk and level-2 ball already resolve the gaussian density to
# well under the 5% oracle tolerance.
LEVEL_FOR_DIM = {2: 3, 3: 2}

VERIFICATION_PRESETS = (
    ("identity", 2),
    ("identity", 3),
    ("gaussian_gradient", 2),
    ("gaussian_gradient", 3),
    ("rotator", 2),
    ("rotator", 3),
    ("example_ii", 2),
)

EXPERIMENT_ALPHAS = tuple(float(2**k) for k in range(19))


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} {self.name}: {status} ({self.detail})"


@dataclass
class Pipeline:
    mesh: SimplicialMesh
    cs: CoefficientSet
    density: DensityField
    decomposition: object
    form: FormMatrices


def _solve_pipeline(mesh: SimplicialMesh, cs: CoefficientSet, d_mode="skew") -> Pipeline:
    """Density, drift decomposition and form of one coefficient set."""
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    form = assemble_form(mesh, cs, density, dec, d_mode=d_mode)
    return Pipeline(mesh, cs, density, dec, form)


class VerificationContext:
    """Caches the preset pipelines shared across criteria."""

    def __init__(self):
        self._cache = {}

    def pipeline(self, name: str, dim: int) -> Pipeline:
        key = (name, dim)
        if key not in self._cache:
            mesh = build_ball_mesh((0.0,) * dim, 1.0, levels=LEVEL_FOR_DIM[dim])
            self._cache[key] = _solve_pipeline(mesh, preset(name, dim))
        return self._cache[key]

    def box_form(self, dim: int) -> Pipeline:
        key = ("box", dim)
        if key not in self._cache:
            cells = 8 if dim == 2 else 4
            mesh = build_box_mesh((0.0,) * dim, (1.0,) * dim, cells)
            self._cache[key] = _solve_pipeline(mesh, preset("identity", dim))
        return self._cache[key]

    def eigenpair(self, name: str, dim: int):
        key = ("eig", name, dim)
        if key not in self._cache:
            pipe = self.pipeline(name, dim)
            self._cache[key] = first_dirichlet_eigenpair(pipe.form)
        return self._cache[key]

    def experiment(self, case: str):
        """Cutoff energy-bound run; case 'gaussian' (h = 1) or 'eigen'."""
        key = ("exp", case)
        if key not in self._cache:
            name = "gaussian_gradient" if case == "gaussian" else "identity"
            pipe = self.pipeline(name, 3)
            cutoff = build_cutoff((0.0, 0.0, 0.0), 0.5, 0.9)
            if case == "gaussian":
                h_tilde = pipe.density.rho
            else:
                _, psi = self.eigenpair("identity", 3)
                h_tilde = psi
            constants = compute_constants(pipe.cs, pipe.density, cutoff, h_tilde)
            report = run_experiment(
                pipe.form, cutoff, h_tilde, constants, alphas=EXPERIMENT_ALPHAS
            )
            self._cache[key] = (pipe, cutoff, h_tilde, report)
        return self._cache[key]


def _gaussian_reference(pipe: Pipeline):
    """Reference density scaled to the same unit-mean normalization."""
    vol = pipe.mesh.total_volume()
    mass = quadrature_norm(pipe.mesh, pipe.cs.reference_density, p=1.0)
    scale = vol / mass

    def target(x):
        return scale * pipe.cs.reference_density(x)

    return target


def criterion_density_oracle(ctx: VerificationContext):
    """Gaussian drift reproduces the normalized e^{-|x|^2/2} within 5%."""
    parts = []
    worst = 0.0
    for dim in (2, 3):
        pipe = ctx.pipeline("gaussian_gradient", dim)
        target = _gaussian_reference(pipe)
        rel = l2_error(pipe.density.rho, target) / quadrature_norm(
            pipe.mesh, target, p=2.0
        )
        worst = max(worst, rel)
        parts.append(f"d={dim} rel err {rel:.3e}")
    return worst <= 0.05, ", ".join(parts) + " (tol 5e-2)"


def criterion_divergence_free(ctx: VerificationContext):
    """Interior residual of the decomposed drift vanishes at solver scale."""
    worst_ratio = 0.0
    worst_case = ""
    for name, dim in VERIFICATION_PRESETS:
        pipe = ctx.pipeline(name, dim)
        res = divergence_free_residual(pipe.mesh, pipe.decomposition)
        scale = max(pipe.density.residual_scale, 1.0)
        ratio = res["max_residual"] / (1e-10 * scale)
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_case = f"{name}/d{dim}"
    return worst_ratio <= 1.0, (
        f"worst residual {worst_ratio:.3e} of the 1e-10 scale budget"
        f" ({worst_case})"
    )


def criterion_energy_identity(ctx: VerificationContext):
    """Skew mode: E(f,f) equals the diffusion integral; raw defect decays."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for name, dim in (
        ("gaussian_gradient", 2),
        ("gaussian_gradient", 3),
        ("rotator", 2),
        ("rotator", 3),
    ):
        pipe = ctx.pipeline(name, dim)
        form = pipe.form
        n = form.mesh.num_vertices
        trials = 50 if dim == 2 else 25
        for _ in range(trials):
            f = np.zeros(n)
            f[form.interior] = rng.standard_normal(form.interior.size)
            e_total = form.energy(f)
            e_diff = float(f @ (form.s @ f))
            worst = max(worst, abs(e_total - e_diff) / e_total)
    skew_ok = worst <= 1e-12

    # Raw mode: the symmetric part of the drift block is the reported
    # defect; it vanishes only in the continuum and must decay under
    # refinement. The gaussian case carries a genuine O(h^2) defect (the
    # rotator one is polynomially exact and sits at roundoff).
    defects = []
    for level in (1, 2, 3, 4):
        mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=level)
        pipe = _solve_pipeline(mesh, preset("gaussian_gradient", 2), d_mode="raw")
        defects.append(pipe.form.sym_defect_max)
    logs = np.log2(np.asarray(defects))
    order = float(-np.polyfit(np.arange(len(logs)), logs, 1)[0])
    raw_ok = order >= 0.8
    return skew_ok and raw_ok, (
        f"skew defect {worst:.3e} (tol 1e-12), raw-mode decay order "
        f"{order:.2f} (need >= 0.8)"
    )


def criterion_sector_bound(ctx: VerificationContext):
    """Empirical sector ratio under the drift-norm bound with 5% slack."""
    pipe = ctx.pipeline("rotator", 3)
    rep = sector_constant(
        pipe.form,
        pipe.cs,
        pipe.density,
        pipe.decomposition,
        trials=200,
        seed=404,
    )
    return rep.within_bound, (
        f"empirical {rep.empirical:.4f} vs 1.05 * theoretical "
        f"{rep.theoretical:.4f} over {rep.trials} pairs"
    )


def criterion_resolvent_axioms(ctx: VerificationContext):
    """Contraction, resolvent identity, sub-Markov range, eigen closed form."""
    ratios = []
    for name, dim in VERIFICATION_PRESETS:
        pipe = ctx.pipeline(name, dim)
        rep = check_contraction(
            pipe.form, alphas=(1.0, 10.0, 100.0, 1000.0), trials=5, seed=505
        )
        ratios.append(rep.max_ratio)
    contraction_ok = max(ratios) <= 1.0 + 1e-10

    ident_worst = 0.0
    rng = np.random.default_rng(506)
    for dim in (2, 3):
        pipe = ctx.pipeline("gaussian_gradient", dim)
        f = np.zeros(pipe.mesh.num_vertices)
        f[pipe.form.interior] = rng.standard_normal(pipe.form.interior.size)
        for alpha, beta in ((1.0, 10.0), (10.0, 100.0)):
            rep = check_resolvent_identity(pipe.form, alpha, beta, f)
            ident_worst = max(ident_worst, rep.relative_defect)
    ident_ok = ident_worst <= 1e-8

    sub_lo, sub_hi = 0.0, 1.0
    for dim in (2, 3):
        pipe = ctx.box_form(dim)
        for alpha in (1.0, 10.0):
            rep = check_submarkov(pipe.form, alpha)
            sub_lo = min(sub_lo, rep.min_value)
            sub_hi = max(sub_hi, rep.max_value)
    sub_ok = sub_lo >= -1e-8 and sub_hi <= 1.0 + 1e-8

    eig_worst = 0.0
    for dim in (2, 3):
        pipe = ctx.pipeline("identity", dim)
        lam, psi = ctx.eigenpair("identity", dim)
        res = Resolvent(pipe.form)
        for alpha in (1.0, 10.0):
            u = solve_resolvent(res, alpha, psi.values)
            model = (alpha / (alpha + lam)) * psi.values
            dev = pipe.form.l2_norm(alpha * u.values - model)
            eig_worst = max(eig_worst, dev / pipe.form.l2_norm(model))
    eig_ok = eig_worst <= 1e-8

    return contraction_ok and ident_ok and sub_ok and eig_ok, (
        f"contraction max {max(ratios):.12f}, identity defect "
        f"{ident_worst:.3e}, range [{sub_lo:.2e}, {1.0 + (sub_hi - 1.0):.8f}], "
        f"eigen dev {eig_worst:.3e}"
    )


def _polynomial(terms) -> AnalyticFunction:
    """The polynomial sum of c * prod_i x_i^e_i over its (c, e) terms, with
    its exact gradient and Hessian; factors with e_i = 0 are left out, so no
    negative power is ever evaluated."""

    def derive(terms, k):
        return [(c * e[k], e[:k] + (e[k] - 1,) + e[k + 1 :]) for c, e in terms if e[k]]

    def value(x, terms=terms):
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        for c, e in terms:
            term = np.full(x.shape[:-1], float(c))
            for i in np.flatnonzero(e):
                term = term * x[..., i] ** e[i]
            total = total + term
        return total

    def grad(x):
        dim = np.shape(x)[-1]
        return np.stack([value(x, derive(terms, k)) for k in range(dim)], axis=-1)

    def hess(x):
        dim = np.shape(x)[-1]
        rows = [[value(x, derive(derive(terms, k), l)) for l in range(dim)] for k in range(dim)]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    return AnalyticFunction(value, grad, hess)


def _polynomial_corpus(dim: int):
    """Analytic test functions with exact gradients and Hessians: 1, x_0,
    x_0 x_1, |x|^2 and x_0^2 x_1."""

    def monomial(*powers):
        return (1.0, powers + (0,) * (dim - len(powers)))

    squares = [monomial(*(0,) * i, 2) for i in range(dim)]
    terms = [[monomial()], [monomial(1)], [monomial(1, 1)], squares, [monomial(2, 1)]]
    return [_polynomial(t) for t in terms]


def criterion_generator_identities(ctx: VerificationContext):
    """E(u,v) = -<M L u, v> and the nondivergence product rule."""
    rng = np.random.default_rng(606)
    pair_worst = 0.0
    for dim in (2, 3):
        pipe = ctx.pipeline("gaussian_gradient", dim)
        form = pipe.form
        res = Resolvent(form)
        n = form.mesh.num_vertices
        for _ in range(10):
            u = np.zeros(n)
            v = np.zeros(n)
            u[form.interior] = rng.standard_normal(form.interior.size)
            v[form.interior] = rng.standard_normal(form.interior.size)
            lu = apply_generator(res, u)
            lhs = form.energy(u, v)
            rhs = -float(v @ (form.m @ lu.values))
            scale = np.sqrt(form.energy(u) * form.energy(v))
            pair_worst = max(pair_worst, abs(lhs - rhs) / scale)
    pair_ok = pair_worst <= 1e-12

    rng = np.random.default_rng(607)
    rule_worst = 0.0
    for dim in (2, 3):
        for name in ("identity", "gaussian_gradient"):
            cs = preset(name, dim)
            chi = build_cutoff((0.0,) * dim, 0.5, 0.9)
            pts = sample_domain_points(Ball(np.zeros(dim), 1.0), 200, rng)
            for u in _polynomial_corpus(dim):
                rule_worst = max(
                    rule_worst, product_rule_residual(cs, chi, u, pts)
                )
    rule_ok = rule_worst <= 1e-10

    return pair_ok and rule_ok, (
        f"pairing defect {pair_worst:.3e} (tol 1e-12), product rule "
        f"residual {rule_worst:.3e} (tol 1e-10)"
    )


def criterion_energy_bound(ctx: VerificationContext):
    """Cutoff energies stay under C1^2 + 2 C2 and every convergence flag holds."""
    parts = []
    ok = True
    for case in ("gaussian", "eigen"):
        _, _, _, report = ctx.experiment(case)
        diag = convergence_diagnostics(report)
        case_ok = report.margin >= 0.0 and diag.passed
        ok = ok and case_ok
        parts.append(
            f"{case}: sup E {report.sup_energy:.4f} vs bound {report.bound:.1f},"
            f" gap ratio {diag.l2_reduction:.2e}, monotone {diag.l2_monotone}"
        )
    return ok, "; ".join(parts)


def criterion_constants_ledger(ctx: VerificationContext):
    """Constant recomposition is exact; eigen energies match the closed form."""
    recomposed = True
    for case in ("gaussian", "eigen"):
        _, _, _, report = ctx.experiment(case)
        c = report.constants
        recomposed = recomposed and (
            c.big_c1
            == c.c1 + 2.0 * c.c2 + c.c4 + c.c5 + c.c6 + c.c7 + 2.0 * c.c9
            and c.big_c2 == c.c3 + c.c8 + 2.0 * c.c10
            and c.bound == c.big_c1**2 + 2.0 * c.big_c2
            and c.c3 == c.c8 == c.c10
        )

    pipe, cutoff, h_tilde, report = ctx.experiment("eigen")
    lam, psi = ctx.eigenpair("identity", 3)
    chi = interpolate(pipe.mesh, cutoff.value).values
    e_ref = pipe.form.energy(chi * psi.values)
    eig_worst = 0.0
    for alpha, energy in zip(report.alphas, report.energies):
        model = (alpha / (alpha + lam)) ** 2 * e_ref
        eig_worst = max(eig_worst, abs(energy - model) / model)
    eig_ok = eig_worst <= 1e-8

    return recomposed and eig_ok, (
        f"recomposition exact: {recomposed}, eigen energy closed-form dev "
        f"{eig_worst:.3e} (tol 1e-8)"
    )


def criterion_mollifier_suite(ctx: VerificationContext):
    """Plateaus, 1-Lipschitz monotonicity, and the three pointwise limits."""
    plateau_worst = 0.0
    for eps in (0.1, 0.01):
        plateau_worst = max(plateau_worst, abs(mollifier_mass(eps) - 1.0))
        mid = np.linspace(-eps / 2, 1.0 + eps / 2, 21)
        plateau_worst = max(
            plateau_worst, np.abs(phi_eps_quadrature(mid, eps) - mid).max()
        )
        lo = np.linspace(-1.0, -1.5 * eps, 9)
        plateau_worst = max(
            plateau_worst, np.abs(phi_eps_quadrature(lo, eps) + eps).max()
        )
        hi = np.linspace(1.0 + 1.5 * eps, 2.0, 9)
        plateau_worst = max(
            plateau_worst, np.abs(phi_eps_quadrature(hi, eps) - (1.0 + eps)).max()
        )
        big, _, _ = capital_phi_eps(np.array([1.0 + eps]), eps)
        plateau_worst = max(plateau_worst, abs(big[0] - eps / 2))
        delta = 1e-4 * eps
        big, _, _ = capital_phi_eps(np.array([1.0 + eps - delta]), eps)
        plateau_worst = max(plateau_worst, abs(big[0] - (eps / 2 - delta)))
    plateau_ok = plateau_worst <= 1e-8

    # the 1e-11 floor absorbs transition-quadrature evaluation noise
    # (~2e-12), three orders below the 3e-4 grid spacing being certified
    ts = np.linspace(-1.0, 2.0, 10001)
    dt = ts[1] - ts[0]
    lipschitz_ok = True
    for eps in (0.1, 0.01):
        diffs = np.diff(phi_eps(ts, eps))
        lipschitz_ok = lipschitz_ok and bool(
            diffs.min() >= -1e-11 and diffs.max() <= dt * (1.0 + 1e-6) + 1e-11
        )

    limit_worst = 0.0
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        full = np.linspace(-1.0, 2.0, 301)
        value_dev = np.abs(phi_eps(full, eps) - np.clip(full, 0.0, 1.0)).max()
        big, zeta, _ = capital_phi_eps(full, eps)
        big_dev = np.abs(big - np.maximum(full - 1.0, 0.0)).max()

        away = np.concatenate(
            [
                np.linspace(-1.0, -1.5 * eps, 25),
                np.linspace(1.5 * eps, 1.0 - 1.5 * eps, 50),
                np.linspace(1.0 + 1.5 * eps, 2.0, 25),
            ]
        )
        indicator = ((away >= 0.0) & (away <= 1.0)).astype(float)
        deriv_dev = np.abs(phi_eps_prime(away, eps) - indicator).max()

        right = np.concatenate(
            [np.linspace(0.0, 1.0, 30), np.linspace(1.0 + 1.5 * eps, 2.0, 30)]
        )
        _, zeta_r, _ = capital_phi_eps(right, eps)
        zeta_dev = np.abs(zeta_r - (right > 1.0).astype(float)).max()

        limit_worst = max(
            limit_worst,
            max(value_dev, big_dev, deriv_dev, zeta_dev) / (2.0 * eps),
        )
    limits_ok = limit_worst <= 1.0

    return plateau_ok and lipschitz_ok and limits_ok, (
        f"plateau dev {plateau_worst:.3e} (tol 1e-8), lipschitz "
        f"{lipschitz_ok}, limit dev {limit_worst:.3f} of the 2*eps budget"
    )


def criterion_vmo_diagnostics(ctx: VerificationContext):
    """Constant, half-space, product, and oscillatory-example moduli."""

    def const_field(x):
        return np.full(np.asarray(x, dtype=float).shape[:-1], 3.0)

    disk = Ball(np.zeros(2), 1.0)
    rep = vmo_modulus(
        const_field, disk, radii=(0.4, 0.2, 0.1), samples=2000, num_centers=4, seed=11
    )
    const_ok = float(rep.modulus.max()) == 0.0

    half_ok = True
    half_detail = []
    def half(x):
        return (np.asarray(x, dtype=float)[..., 0] > 0.0).astype(float)

    for dim in (2, 3):
        domain = Ball(np.zeros(dim), 1.0)
        target = unit_ball_volume(dim) ** 2 / 2.0
        rep = vmo_modulus(
            half,
            domain,
            radii=(0.4, 0.2, 0.1, 0.05),
            samples=4000,
            centers=np.zeros((1, dim)),
            seed=12,
        )
        devs = np.abs(rep.raw - target)
        half_ok = half_ok and bool((devs <= 3.0 * rep.stderr).all())
        half_detail.append(f"d={dim} max dev {float((devs / rep.stderr).max()):.2f} SE")

    def smooth(x):
        return 2.0 + np.sin(np.asarray(x, dtype=float)[..., 0])

    prod_ok = True
    for rough in (example_i_phi, half):
        rep = vmo_product_inequality_check(
            rough, smooth, disk, radii=(0.4, 0.2, 0.1), samples=2000,
            num_centers=6, seed=13,
        )
        prod_ok = prod_ok and rep.satisfied

    rep = vmo_modulus(
        example_i_phi,
        disk,
        radii=(0.4, 0.1, 0.01, 0.001),
        samples=20000,
        centers=np.zeros((1, 2)),
        seed=17,
    )
    # radii come back sorted ascending, so the estimate must grow along the
    # array (within sampling noise) and drop toward the smallest radius
    slack = 3.0 * (rep.stderr[1:] + rep.stderr[:-1])
    trend_ok = bool(
        (np.diff(rep.raw) >= -slack).all() and rep.raw[0] < 0.8 * rep.raw[-1]
    )

    return const_ok and half_ok and prod_ok and trend_ok, (
        f"constant 0: {const_ok}; half-space {', '.join(half_detail)}; "
        f"product: {prod_ok}; oscillatory trend "
        f"{rep.raw[-1]:.3f} -> {rep.raw[0]:.3f} decreasing: {trend_ok}"
    )


CRITERIA = (
    criterion_density_oracle,
    criterion_divergence_free,
    criterion_energy_identity,
    criterion_sector_bound,
    criterion_resolvent_axioms,
    criterion_generator_identities,
    criterion_energy_bound,
    criterion_constants_ledger,
    criterion_mollifier_suite,
    criterion_vmo_diagnostics,
)


def _evaluate(index: int, ctx: VerificationContext) -> CriterionResult:
    """Run criterion `index` (1-based position in CRITERIA), never raising."""
    crit = CRITERIA[index - 1]
    start = time.perf_counter()
    try:
        passed, detail = crit(ctx)
    except (FplabError, np.linalg.LinAlgError, ValueError) as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(
        index=index,
        name=crit.__name__.removeprefix("criterion_"),
        passed=bool(passed),
        detail=detail,
        elapsed=time.perf_counter() - start,
    )


def run_all(ctx: VerificationContext = None) -> list:
    """Run every criterion, never raising; failures land in the results."""
    ctx = ctx or VerificationContext()
    return [_evaluate(index, ctx) for index in range(1, len(CRITERIA) + 1)]


def report_dict(results) -> dict:
    """Deterministic payload for serialized reports (elapsed excluded)."""
    return {
        "criteria": [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": bool(all(r.passed for r in results)),
    }
