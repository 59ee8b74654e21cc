"""Sectorial bilinear form, resolvents, and their verifiable identities.

The assembled form reads E(u, v) = v^T (S + D) u with S the mu-weighted
diffusion stiffness and D the drift block. In skew mode D is replaced by
its antisymmetric part, which makes the discrete analog of the
divergence-free identity hold exactly: x^T D x = 0 for every x, so the
energy E(f, f) collapses to the diffusion part alone.

A Resolvent solves alpha M + S + D on the interior. fem's one rule picks
its solver: the V-cycle along the mesh's refinement lineage (a refined mesh
or a box of 2**k cells per axis) from 2000 interior unknowns on, else a
float64 sparse LU, whatever the backend. The backend picks the V-cycle's
stopping rule: "gmres" runs V-cycle GMRES to its tolerance, and "direct"
refines in float64 (Carson & Higham 2018), one restart cycle of that GMRES
on b per step, each continuing from the last x, to a float64 backward
error, or else falls back to the LU. The skew part D is small next to the
SPD part alpha M + S, so the iteration count does not grow under
refinement (Eisenstat, Elman & Schultz 1983). The checks
(contraction, resolvent identity, sub-Markov range, strong continuity)
solve with "gmres" to a relative residual of 1e-12. M^{-1} is applied by
Jacobi-preconditioned CG (M is well conditioned) to 1e-14 from 2000
interior unknowns on, else by a sparse LU. The interior systems come from
fem._Restriction, in the mesh's own vertex order, as the density's pinned
systems do. Everything runs on the calling thread.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .coefficients import CoefficientSet
from .density import DensityField, DriftDecomposition
from .errors import (
    ContractionViolation,
    DimensionUnsupported,
    SolverDivergence,
    SubmarkovViolation,
)
from .fem import (
    _GMRES_RESTART,
    _MULTIGRID_RTOL,
    FeFunction,
    _csr,
    _gmres,
    _Restriction,
    _runs_multigrid,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
)
from .mesh import SimplicialMesh

DEFAULT_ALPHAS = tuple(float(2**k) for k in range(13))
# mass_solve runs CG from fem._MULTIGRID_MIN_UNKNOWNS interior unknowns on
# (3D level 5: 0.03 s against an 8.6 s LU), to this relative residual
_MASS_RTOL = 1e-14
# the rounding check_contraction and check_submarkov allow past 1 (and 0)
_CONTRACTION_TOL, _SUBMARKOV_TOL = 1e-10, 1e-8


@dataclass
class FormMatrices:
    """Assembled form blocks plus the interior index map.

    S, D and M are CSR matrices on one pattern, the mesh's P1 graph.
    """

    mesh: SimplicialMesh
    s: sp.csr_matrix
    d: sp.csr_matrix
    m: sp.csr_matrix
    interior: np.ndarray
    d_mode: str
    sym_defect_max: float
    sym_defect_fro: float
    rho: FeFunction

    def energy(self, u: np.ndarray, v: Optional[np.ndarray] = None) -> float:
        """E(u, v) = v^T (S + D) u; v defaults to u."""
        if v is None:
            v = u
        return float(v @ (self.s @ u) + v @ (self.d @ u))

    def l2_norm(self, u: np.ndarray) -> float:
        """L^2(mu) norm via the weighted mass matrix."""
        return float(np.sqrt(max(u @ (self.m @ u), 0.0)))


def assemble_form(
    mesh: SimplicialMesh,
    cs: CoefficientSet,
    density: DensityField,
    decomposition: DriftDecomposition,
    d_mode: str = "skew",
) -> FormMatrices:
    """Assemble S, D, M for the mu-weighted sectorial form.

    The drift block is the decomposition's D, so the decomposition must
    come from this density (a ValueError otherwise). d_mode "skew"
    antisymmetrizes it (the discrete counterpart of the continuum identity
    that kills the drift term in E(f, f)); "raw" keeps the assembled block
    and leaves its symmetric part as a reported defect that must decay
    under refinement.
    """
    if d_mode not in ("skew", "raw"):
        raise ValueError(f"d_mode must be 'skew' or 'raw', got {d_mode!r}")
    if decomposition.rho is not density.rho:
        raise ValueError("the drift decomposition was made from another density")
    s = assemble_weighted_stiffness(mesh, cs.a, rho=density.rho)
    d_raw = decomposition.d
    m = assemble_weighted_mass(mesh, rho=density.rho)
    # S, D and M share the mesh's pattern: D^T is a permutation of D's data
    mirrored = d_raw.data[mesh._csr_plan.transpose]
    sym = 0.5 * (d_raw.data + mirrored)
    defect_max = float(np.abs(sym).max())
    defect_fro = float(np.linalg.norm(sym))
    d = _csr(mesh, 0.5 * (d_raw.data - mirrored)) if d_mode == "skew" else d_raw
    return FormMatrices(
        mesh=mesh,
        s=s,
        d=d,
        m=m,
        interior=mesh.interior,
        d_mode=d_mode,
        sym_defect_max=defect_max,
        sym_defect_fro=defect_fro,
        rho=density.rho,
    )


def theoretical_sector_bound(
    cs: CoefficientSet,
    density: DensityField,
    decomposition: DriftDecomposition,
    mesh: SimplicialMesh,
) -> float:
    """1 + (gamma / lam) (max rho / min rho) ||B||_{L^d}, gamma = 2(d-1)/(d-2).

    The Lebesgue (unweighted) L^d norm of |B| enters, as the decomposition
    holds it (b_norm); only d = 3 admits the Sobolev constant gamma.
    """
    d = mesh.dim
    if d != 3:
        raise DimensionUnsupported(f"theoretical sector bound needs d = 3, got {d}")
    gamma = 2.0 * (d - 1) / (d - 2)
    return 1.0 + (gamma / cs.lam) * (density.rho_max / density.rho_min) * decomposition.b_norm


@dataclass
class SectorReport:
    empirical: float
    theoretical: Optional[float]
    within_bound: Optional[bool]
    trials: int


def sector_constant(
    form: FormMatrices,
    cs: Optional[CoefficientSet] = None,
    density: Optional[DensityField] = None,
    decomposition: Optional[DriftDecomposition] = None,
    trials: int = 64,
    seed: int = 0,
) -> SectorReport:
    """Empirical sector constant max |E(f,g)| / sqrt(E(f,f) E(g,g)).

    Trials are random interior-supported pairs; energies use the skew-mode
    diffusion part (E(f,f) = f^T S f). When the coefficient data allows it
    (d = 3), the theoretical bound is evaluated and compared with 5% slack.
    """
    rng = np.random.default_rng(seed)
    n = form.mesh.num_vertices
    interior = form.interior
    best = 0.0
    for _ in range(trials):
        f = np.zeros(n)
        g = np.zeros(n)
        f[interior] = rng.standard_normal(interior.size)
        g[interior] = rng.standard_normal(interior.size)
        e_ff = float(f @ (form.s @ f))
        e_gg = float(g @ (form.s @ g))
        e_fg = abs(form.energy(f, g))
        best = max(best, e_fg / np.sqrt(e_ff * e_gg))
    theoretical = None
    within = None
    if (
        cs is not None
        and density is not None
        and decomposition is not None
        and form.mesh.dim == 3
    ):
        theoretical = theoretical_sector_bound(cs, density, decomposition, form.mesh)
        within = bool(best <= 1.05 * theoretical)
    return SectorReport(
        empirical=float(best), theoretical=theoretical, within_bound=within, trials=trials
    )


class Resolvent:
    """G_alpha = (alpha M + S + D)^{-1} on the interior DOFs of one form.

    The interior block of the mesh's pattern (where S, D and M must lie) is
    indexed once, so the system for one alpha is a gather of its data. Its
    solver (an LU or a V-cycle) is made on the first solve at that alpha and
    reused for every further solve at it; a solve at another alpha replaces
    it, so a Resolvent holds one system at a time. mass_solve applies
    M^{-1}. A Resolvent is meant to live for one computation: the form
    itself stores no factors, so holding on to them never stacks on later
    stages' memory.

    The unknowns, `interior`, are `form.interior` (index order); every
    interior vector the Resolvent takes or returns is indexed by them.
    Sparse LUs are taken in SuperLU's own (COLAMD) column order.

    lumped=True replaces M by its row-sum diagonal (the sub-Markov scheme).
    fem's rule picks the solver. From 2000 interior unknowns on a mesh with
    a refinement lineage it is a V(2,2)-cycle (fem._Multigrid): damped
    Jacobi (weight 0.6) on every level and a sparse LU on the coarsest one
    with interior unknowns. Its Galerkin operators P^T M P and P^T (S + D) P
    are built once, so an alpha only costs alpha M_l + (S + D)_l and one
    small LU. Otherwise it is a float64 sparse LU, for either backend. The
    backend picks the V-cycle's stopping rule for fem._gmres, GMRES (restart
    20) right-preconditioned by the V-cycle. "gmres" runs it to relative
    tolerance tol within maxiter restart cycles. "direct" runs it on b from
    x = 0 one restart cycle per refinement step, each continuing from the
    last x and ending at a residual estimate of 4 eps ||b||_2, until the
    float64 residual meets ||b - K x|| <= 4 eps (||K|| ||x|| + ||b||) in the
    infinity norm with eps that of float64. If a step does not halve that
    residual or 10 steps after the first do not reach it, a float64 LU
    solves this and every later right side at that alpha. Solves go
    through solve_resolvent, which records the residual norm of the latest
    solve in `residual` and its GMRES inner iterations (summed over the
    restart cycles of a direct solve) in `iterations`, None after an LU.
    """

    def __init__(
        self,
        form: FormMatrices,
        backend: str = "direct",
        lumped: bool = False,
        tol: float = 1e-10,
        maxiter: int = 10000,
    ):
        if backend not in ("direct", "gmres"):
            raise ValueError(f"unknown backend {backend!r}")
        self.form = form
        self.backend = backend
        self.tol = tol
        self.maxiter = maxiter
        mesh = form.mesh
        self.interior = interior = form.interior
        plan = mesh._csr_plan
        for x in (form.s, form.d, form.m):
            if not all(map(np.array_equal, (x.indptr, x.indices), (plan.indptr, plan.indices))):
                raise ValueError("S, D and M of a form must lie on the mesh's CSR pattern")
        m = form.m
        self.lumped = lumped
        if lumped:
            rows, row_sums = plan.rows(), np.asarray(m.sum(axis=1)).ravel()
            m = _csr(mesh, np.where(rows == plan.indices, row_sums[rows], 0.0))
        self.m = m
        self._block = _Restriction(mesh, interior)
        self._alpha = self._k_int = self._solver = None
        self.residual = self.iterations = None
        self._mass = None
        self._levels = None
        if _runs_multigrid(mesh, interior.size):
            k = self._block.matrix(form.s.data + form.d.data)
            self._levels = self._block.multigrid(self._block.matrix(m.data), k)

    def _system(self, alpha: float):
        """Interior matrix alpha M + S + D and its solver: a _DirectSolver,
        or the V-cycle that preconditions gmres (see Resolvent)."""
        if alpha != self._alpha:
            # drop the old solver before building the next one
            self._alpha = self._k_int = self._solver = None
            k = alpha * self.m.data + self.form.s.data + self.form.d.data
            k_int = self._block.matrix(k)
            cycle = None
            if self._levels is not None:
                levels = [(alpha * m + k).tocsr() for m, k in self._levels.levels]
                cycle = self._levels.v_cycle(levels + [k_int])
            gmres = cycle is not None and self.backend == "gmres"
            solver = cycle if gmres else _DirectSolver(k_int, cycle)
            self._alpha, self._k_int, self._solver = alpha, k_int, solver
        return self._k_int, self._solver

    def mass_solve(self, z: np.ndarray) -> np.ndarray:
        """M^{-1} z on interior DOFs: Jacobi-preconditioned CG to a relative
        residual of 1e-14 from 2000 interior unknowns on, else a sparse LU
        that is factored once. CG that misses it raises SolverDivergence."""
        if self._mass is None:
            m_int = self._block.matrix(self.m.data)
            if self.interior.size >= fem._MULTIGRID_MIN_UNKNOWNS:
                self._mass = functools.partial(_mass_cg, m_int)
            else:
                self._mass = spla.splu(m_int.tocsc()).solve
        return self._mass(z)


class _DirectSolver:
    """One interior system solved to float64 accuracy: by refinement whose
    steps are restart cycles of one V-cycle GMRES run when given the
    V-cycle, else (or once the refinement fails) by a float64 sparse LU (see
    Resolvent). A call returns the solution and its GMRES inner iterations,
    None after the LU."""

    def __init__(self, k_int: sp.csr_matrix, cycle: Optional[Callable]):
        self.k_int, self.cycle, self.lu = k_int, cycle, None
        if cycle is None:
            self.lu = spla.splu(k_int.tocsc())
        else:
            self.norm = spla.norm(k_int, np.inf)

    def __call__(self, b: np.ndarray):
        if self.lu is None:
            rule = 4 * np.finfo(float).eps
            x, last, iterations = None, np.inf, 0
            for steps in range(11):
                x, _, count = _gmres(self.k_int, b, self.cycle, rule, 1, x)
                iterations += count
                r = b - self.k_int @ x
                size, scale = np.abs(r).max(), self.norm * np.abs(x).max() + np.abs(b).max()
                if size <= rule * scale:
                    return x, iterations
                if steps == 10 or not size <= last / 2:  # capped, stagnating or not finite
                    break
                last = size
            # the LU serves this and every later solve
            self.lu = spla.splu(self.k_int.tocsc())
        return self.lu.solve(b), None


def _mass_cg(m_int: sp.csr_matrix, z: np.ndarray) -> np.ndarray:
    """M^{-1} z by Jacobi-preconditioned CG to relative residual _MASS_RTOL."""
    jacobi = sp.diags(1.0 / m_int.diagonal())
    w, info = spla.cg(m_int, z, rtol=_MASS_RTOL, atol=0.0, M=jacobi)
    if info != 0:
        raise SolverDivergence(f"mass matrix CG missed rtol={_MASS_RTOL:.0e}")
    return w


def solve_resolvent(form, alpha: float, f) -> FeFunction:
    """Solve (alpha M + S + D) u = M f on interior DOFs with zero boundary.

    Data enters through its interior restriction: boundary vertex values
    of f never reach the system. This keeps alpha G_alpha an exact
    contraction of the interior space and lets alpha G_alpha f -> f there
    (with the full-mass right side the discrete limit would instead be the
    M-projection of f, leaving an alpha-independent gap for data with a
    nonzero boundary trace).

    `form` is a Resolvent, which reuses its solver across solves at the
    same alpha and solves with its own backend, tol and maxiter, or a
    FormMatrices, which gets a one-shot default (direct) Resolvent.
    GMRES that misses its tolerance within maxiter restart cycles of 20
    inner iterations raises SolverDivergence, and a residual check guards
    both backends.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    res = form if isinstance(form, Resolvent) else Resolvent(form)
    f_vec = f.values if isinstance(f, FeFunction) else np.asarray(f, dtype=float)
    interior = res.interior
    f_zeroed = np.zeros_like(f_vec)
    f_zeroed[interior] = f_vec[interior]
    rhs = (res.m @ f_zeroed)[interior]
    k_int, solver = res._system(alpha)
    if isinstance(solver, _DirectSolver):
        u_int, iterations = solver(rhs)
    else:
        u_int, info, iterations = _gmres(k_int, rhs, solver, res.tol, res.maxiter)
        if info != 0:
            raise SolverDivergence(
                f"gmres failed to reach rtol={res.tol:.1e} "
                f"within {res.maxiter} restart cycles of {_GMRES_RESTART} iterations"
            )
    resid = np.linalg.norm(k_int @ u_int - rhs)
    scale = np.linalg.norm(rhs)
    if resid > max(1e-8, res.tol) * max(scale, 1e-30):
        raise SolverDivergence(
            f"resolvent residual {resid:.3e} exceeds tolerance at alpha={alpha}"
        )
    res.residual = float(resid)
    res.iterations = iterations
    u = np.zeros(res.form.mesh.num_vertices)
    u[interior] = u_int
    return FeFunction(mesh=res.form.mesh, values=u)


@dataclass
class ContractionReport:
    rows: list  # (alpha, trial index, ratio)
    max_ratio: float


def check_contraction(
    form: FormMatrices,
    alphas=(1.0, 10.0, 100.0, 1000.0),
    trials: int = 5,
    seed: int = 0,
) -> ContractionReport:
    """Verify ||alpha G_alpha f|| <= ||f|| in L^2(mu) for random trial data.

    Raises ContractionViolation if any ratio exceeds 1 + 1e-10.
    """
    rng = np.random.default_rng(seed)
    res = Resolvent(form, backend="gmres", tol=_MULTIGRID_RTOL)
    rows = []
    # all trials at one alpha share its factor
    for alpha in alphas:
        for t in range(trials):
            f = np.zeros(form.mesh.num_vertices)
            f[form.interior] = rng.standard_normal(form.interior.size)
            u = solve_resolvent(res, alpha, f)
            ratio = alpha * form.l2_norm(u.values) / form.l2_norm(f)
            if ratio > 1.0 + _CONTRACTION_TOL:
                raise ContractionViolation(
                    f"||alpha G_alpha f|| / ||f|| = {ratio:.12f} at alpha={alpha}"
                )
            rows.append((float(alpha), t, float(ratio)))
    worst = max([0.0] + [ratio for _, _, ratio in rows])
    return ContractionReport(rows=rows, max_ratio=float(worst))


@dataclass
class ResolventIdentityReport:
    alpha: float
    beta: float
    defect: float
    relative_defect: float


def check_resolvent_identity(
    form: FormMatrices, alpha: float, beta: float, f
) -> ResolventIdentityReport:
    """Defect of G_alpha - G_beta - (beta - alpha) G_alpha G_beta applied to f."""
    res = Resolvent(form, backend="gmres", tol=_MULTIGRID_RTOL)
    # beta first, so that both alpha solves share one factor
    u_b = solve_resolvent(res, beta, f)
    return _identity_report(res, alpha, beta, f, solve_resolvent(res, alpha, f), u_b)


def _identity_report(
    res: Resolvent, alpha: float, beta: float, f, u_a: FeFunction, u_b: FeFunction
) -> ResolventIdentityReport:
    """Identity defect from u_a = G_alpha f and u_b = G_beta f."""
    form = res.form
    w = solve_resolvent(res, alpha, u_b)
    defect_vec = u_a.values - u_b.values - (beta - alpha) * w.values
    defect = form.l2_norm(defect_vec)
    f_vec = f.values if isinstance(f, FeFunction) else np.asarray(f, dtype=float)
    return ResolventIdentityReport(
        alpha=float(alpha),
        beta=float(beta),
        defect=float(defect),
        relative_defect=float(defect / form.l2_norm(f_vec)),
    )


@dataclass
class SubmarkovReport:
    alpha: float
    min_value: float
    max_value: float


def check_submarkov(form, alpha: float) -> SubmarkovReport:
    """Check 0 <= alpha G_alpha f <= 1 for f = 1 on the interior.

    The weighted mass is lumped; with non-positive stiffness off-diagonals
    the system matrix is then an M-matrix and the bounds are exact in exact
    arithmetic. Raises SubmarkovViolation beyond 1e-8. `form` is a
    FormMatrices, solved like the other checks (gmres to 1e-12), or a
    lumped Resolvent, which solves with its own backend, tol and maxiter;
    a Resolvent that is not lumped is a ValueError.
    """
    res = form
    if not isinstance(res, Resolvent):
        res = Resolvent(form, backend="gmres", lumped=True, tol=_MULTIGRID_RTOL)
    if not res.lumped:
        raise ValueError("check_submarkov needs a lumped Resolvent")
    u = solve_resolvent(res, alpha, (~res.form.mesh.boundary).astype(float))
    lo = float(alpha * u.values.min())
    hi = float(alpha * u.values.max())
    if lo < -_SUBMARKOV_TOL or hi > 1.0 + _SUBMARKOV_TOL:
        raise SubmarkovViolation(
            f"alpha G_alpha f has range [{lo:.3e}, {hi:.3e}] at alpha={alpha}"
        )
    return SubmarkovReport(alpha=float(alpha), min_value=lo, max_value=hi)


def apply_generator(form, u) -> FeFunction:
    """L_h u = -M^-1 (S + D) u on interior DOFs (zero on the boundary).

    Satisfies E(u, v) = -<M L_h u, v> for interior v, and together with the
    resolvent: (alpha - L_h) G_alpha f = f exactly. `form` may be a
    Resolvent, whose mass factor is then reused across calls.
    """
    res = form if isinstance(form, Resolvent) else Resolvent(form)
    form = res.form
    u_vec = u.values if isinstance(u, FeFunction) else np.asarray(u, dtype=float)
    interior = res.interior
    z = ((form.s + form.d) @ u_vec)[interior]
    w = res.mass_solve(z)
    out = np.zeros(form.mesh.num_vertices)
    out[interior] = -w
    return FeFunction(mesh=form.mesh, values=out)


def first_dirichlet_eigenpair(form: FormMatrices):
    """Smallest eigenpair of S psi = lam M psi on interior DOFs.

    Intended for the symmetric (drift-free) oracle cases; the stiffness is
    symmetrized defensively before the call into ARPACK.
    """
    interior = form.interior
    s_int = form.s[interior][:, interior]
    s_int = 0.5 * (s_int + s_int.T)
    m_int = form.m[interior][:, interior]
    # fixed ARPACK start vector: a random v0 would make repeat calls differ
    # in the last bits and break byte-identical reports
    v0 = np.ones(s_int.shape[0])
    vals, vecs = spla.eigsh(
        s_int.tocsc(), k=1, M=m_int.tocsc(), sigma=0.0, which="LM", v0=v0
    )
    lam = float(vals[0])
    psi_int = vecs[:, 0]
    psi = np.zeros(form.mesh.num_vertices)
    psi[interior] = psi_int
    nrm = float(np.sqrt(psi @ (form.m @ psi)))
    psi /= nrm
    if psi[interior].sum() < 0:
        psi = -psi
    return lam, FeFunction(mesh=form.mesh, values=psi)


@dataclass
class StrongContinuityReport:
    alphas: np.ndarray
    gaps: np.ndarray
    final_bound: float
    monotone: bool


def strong_continuity_gaps(
    form: FormMatrices, f, alphas=DEFAULT_ALPHAS
) -> StrongContinuityReport:
    """Gaps ||alpha G_alpha f - f||_{L^2(mu)} over an increasing alpha grid.

    Also evaluates the discrete bound ||(S + D) f||_{M^-1} / alpha_max that
    the final gap must stay below (with 10% slack, per the interior-data
    contraction argument).
    """
    f_raw = f.values if isinstance(f, FeFunction) else np.asarray(f, dtype=float)
    interior = form.interior
    f_vec = np.zeros_like(f_raw)
    f_vec[interior] = f_raw[interior]
    alphas = np.asarray(sorted(float(a) for a in alphas))
    res = Resolvent(form, backend="gmres", tol=_MULTIGRID_RTOL)
    gaps = np.array(
        [form.l2_norm(a * solve_resolvent(res, a, f_vec).values - f_vec) for a in alphas]
    )
    z = ((form.s + form.d) @ f_vec)[res.interior]
    w = res.mass_solve(z)
    final_bound = float(np.sqrt(max(z @ w, 0.0))) / alphas[-1]
    return StrongContinuityReport(
        alphas=alphas, gaps=gaps, final_bound=final_bound, monotone=_monotone(gaps)
    )


def _monotone(gaps: np.ndarray) -> bool:
    """Whether no gap exceeds the one before it by more than 1e-12 plus
    1e-9 of that one (rounding of the solves)."""
    return bool((np.diff(gaps) <= 1e-12 + 1e-9 * gaps[:-1]).all())


@dataclass
class ResolventSweepReport:
    """Per-alpha diagnostics for serialization by the command line tools."""

    alphas: list
    contraction_ratios: list
    residuals: list
    identity_defect: float
    submarkov_min: float
    submarkov_max: float
    backend: str
    d_mode: str
    lu_solves: int  # the per-alpha solves that a sparse LU answered


def resolvent_sweep(
    form: FormMatrices,
    alphas=DEFAULT_ALPHAS,
    backend: str = "direct",
    seed: int = 0,
    tol: float = 1e-10,
    maxiter: int = 10000,
) -> ResolventSweepReport:
    """Run the standard per-alpha checks used by the resolvent report.

    The residuals are those of the solver's residual guard. The identity
    check at (alphas[0], alphas[2]) reuses the sweep's own G_alpha f solves:
    alphas[2] is solved first, so that the identity's extra alphas[0] solve
    reuses the solver of the sweep's own alphas[0] solve. The sub-Markov
    check at alphas[0] uses the sweep's backend, tol and maxiter as well.
    """
    rng = np.random.default_rng(seed)
    n = form.mesh.num_vertices
    f = np.zeros(n)
    f[form.interior] = rng.standard_normal(form.interior.size)
    f_norm = form.l2_norm(f)
    res = Resolvent(form, backend=backend, tol=tol, maxiter=maxiter)
    j = min(2, len(alphas) - 1)
    ratios = [0.0] * len(alphas)
    residuals = [0.0] * len(alphas)
    lu_solves = 0
    for i in [j] + [i for i in range(len(alphas)) if i != j]:
        u = solve_resolvent(res, alphas[i], f)
        ratios[i] = float(alphas[i] * form.l2_norm(u.values) / f_norm)
        residuals[i] = res.residual
        lu_solves += res.iterations is None
        if i == j:
            u_b = u
        if i == 0:
            ident = _identity_report(res, alphas[0], alphas[j], f, u, u_b)
    lumped = Resolvent(form, backend=backend, lumped=True, tol=tol, maxiter=maxiter)
    sub = check_submarkov(lumped, alphas[0])
    return ResolventSweepReport(
        alphas=[float(a) for a in alphas],
        contraction_ratios=ratios,
        residuals=residuals,
        identity_defect=ident.relative_defect,
        submarkov_min=sub.min_value,
        submarkov_max=sub.max_value,
        backend=backend,
        d_mode=form.d_mode,
        lu_solves=lu_solves,
    )
