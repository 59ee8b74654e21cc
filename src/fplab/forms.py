"""Sectorial bilinear form, resolvents, and their verifiable identities.

The assembled form reads E(u, v) = v^T (S + D) u with S the mu-weighted
diffusion stiffness and D the drift block. In skew mode D is replaced by
its antisymmetric part, which makes the discrete analog of the
divergence-free identity hold exactly: x^T D x = 0 for every x, so the
energy E(f, f) collapses to the diffusion part alone.

A Resolvent solves alpha M + S + D on the interior either by a sparse LU
("direct") or by GMRES preconditioned with a geometric multigrid V-cycle
on the mesh's refinement lineage ("gmres"), which only a mesh made by
refine_uniform has. The skew part D is small next to the SPD part
alpha M + S, so the iteration count does not grow under refinement
(Eisenstat, Elman & Schultz 1983). From 2000 interior unknowns on, the
direct LU is taken in float32 and each solve is refined in float64 to a
float64 backward error, or else redone by a float64 LU (mixed-precision
iterative refinement, Buttari et al. 2007); the checks (contraction,
resolvent identity, sub-Markov range, strong continuity) use multigrid
GMRES to a relative residual of 1e-12 on a refined mesh; and M^{-1} (the
generator, the strong continuity bound) is applied by Jacobi-preconditioned
CG to a relative residual of 1e-14, since M is well conditioned. Below that
size they all use a sparse LU. The interior systems and their V-cycle come
from fem._Restriction, as the density's pinned systems do.

The checks solve their alphas in turn on the calling thread. The direct
sweeps (resolvent_sweep, experiment.run_experiment) solve one independent
system per alpha through Resolvent.map, which runs two alphas at a time on
worker threads, because SciPy's sparse LU releases the interpreter lock:
each alpha's factor is made, used and freed on one worker, and the
results, the factorization count and the solve order at each alpha are
those of a sequential sweep. With one usable CPU, on systems too small to
gain from it (fewer than 2000 interior unknowns), or with multigrid GMRES,
whose solves take milliseconds, the work runs inline.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    FeFunction,
    _csr,
    _gmres,
    _Restriction,
    assemble_drift,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    quadrature_norm,
)
from .mesh import SimplicialMesh

DEFAULT_ALPHAS = tuple(float(2**k) for k in range(13))
# glibc's mallopt parameter number for the malloc arena limit
_M_ARENA_MAX = -8
# alphas factored at once by Resolvent.map, at most the usable CPUs; with
# 1 the work runs inline
_WORKERS = min(
    2,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)
# Resolvent.map also runs inline below this many interior unknowns: such
# LUs take milliseconds, and handing them to threads cost more than it
# saved (a 13-alpha sweep with 63 unknowns took 9.7 ms instead of 5.3 ms)
_POOL_MIN_UNKNOWNS = 2000
# the checks solve with multigrid GMRES from this many interior unknowns of
# a refined mesh on (a 3D level-4 LU takes 120-170 ms, a solve ~10 ms), to
# this relative residual; mass_solve runs CG from this many interior
# unknowns on (3D level 5: 0.03 s against an 8.6 s LU), to _MASS_RTOL; and
# the direct backend factors in float32 from this many on
_MULTIGRID_MIN_UNKNOWNS = 2000
_CHECK_RTOL = 1e-12
_MASS_RTOL = 1e-14


@functools.cache
def _share_main_arena():
    """Make new threads allocate from glibc's main malloc arena (else a no-op).

    A worker's own arena kept its last freed factor resident: 13-alpha sweeps
    on the 3D level-4 ball peaked at 226 MB that way, 182-188 MB without it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


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

    d_mode "skew" antisymmetrizes the drift block (the discrete counterpart
    of the continuum identity that kills the drift term in E(f, f)); "raw"
    keeps the assembled block and leaves its symmetric part as a reported
    defect that must decay under refinement.
    """
    if d_mode not in ("skew", "raw"):
        raise ValueError(f"d_mode must be 'skew' or 'raw', got {d_mode!r}")
    s = assemble_weighted_stiffness(mesh, cs.a, rho=density.rho)
    d_raw = assemble_drift(mesh, decomposition.b_quad, rho=density.rho)
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

    The Lebesgue (unweighted) L^d norm of |B| enters; only d = 3 admits the
    Sobolev constant gamma.
    """
    d = mesh.dim
    if d != 3:
        raise DimensionUnsupported(f"theoretical sector bound needs d = 3, got {d}")
    gamma = 2.0 * (d - 1) / (d - 2)
    b_norm = quadrature_norm(mesh, np.linalg.norm(decomposition.b_quad, axis=2), p=float(d))
    return 1.0 + (gamma / cs.lam) * (density.rho_max / density.rho_min) * b_norm


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
    indexed once, so the system for one alpha is a gather of its data. It is
    factored on its first solve and the factor is reused for every further
    solve at that alpha on the same thread; a solve at another alpha
    replaces it. The checks solve on the calling thread. Factors are held
    per thread, so each thread holds at most one system factor, and a
    factor is freed on the thread that made it: map() drops a worker's
    factor before each task returns. (A SuperLU factor freed on another
    thread left its memory with the thread that made it: 12 factors on the
    3D level-4 ball raised RSS from 170 to 386 MB, against 193 MB when each
    was freed where it was made.) Before it starts its threads, map() sets
    glibc's arena limit to 1, so that workers allocate from the main arena
    and a worker's last factor does not stay resident after it is freed.
    mass_solve applies M^{-1}. A Resolvent is meant to live for one
    computation: the form itself stores no factors, so holding on to them
    never stacks on later stages' memory.

    The interior unknowns are held in the mesh's nested-dissection order:
    `interior` is `order[~boundary[order]]` for `order =
    mesh.dissection_order`, and every interior vector the Resolvent takes
    or returns (the factor's and mass_solve's) is indexed by it. Sparse
    LUs are taken in that order as is (permc_spec="NATURAL"), which fills
    far less than SuperLU's own COLAMD ordering of P1 systems.

    lumped=True replaces M by its row-sum diagonal (the sub-Markov scheme).
    backend "direct" uses a sparse LU. From 2000 interior unknowns on it is
    a float32 LU (one per alpha, in the same order); a solve starts from
    x = LU^{-1} b and adds LU^{-1} (b - K x), the residual taken in float64,
    until ||b - K x|| <= 4 eps (||K|| ||x|| + ||b||) in the infinity norm
    with eps that of float64. If a step does not halve the residual or 10
    steps do not reach it, a float64 LU replaces the float32 one and solves
    this and every later right side at that alpha. "gmres" uses GMRES
    (restart 20) with relative tolerance tol and at most maxiter restart
    cycles, preconditioned by a V(2,2)-cycle (fem._Multigrid): damped Jacobi
    (weight 0.6) on every level of the mesh's refinement lineage and a
    sparse LU on the coarsest level that has interior unknowns. The
    Galerkin operators P^T M P and P^T (S + D) P of every level are built
    once, so an alpha only costs alpha M_l + (S + D)_l and one small LU;
    the mesh must have a lineage (be made by refine_uniform), else
    ValueError. Solves go through solve_resolvent, which records the
    residual norm of the calling thread's latest solve in `residual` and
    its GMRES iterations or refinement steps in `iterations`.
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
        order = mesh.dissection_order
        self.interior = interior = order[~mesh.boundary[order]]
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
        self._held = _Held()
        self._mass = None
        self._levels = None
        if backend == "gmres":
            if not mesh.lineage:
                raise ValueError(
                    "the gmres backend needs a mesh with a refinement lineage "
                    "(one made by refine_uniform); this mesh has none"
                )
            k = self._block.matrix(form.s.data + form.d.data)
            self._levels = self._block.multigrid(self._block.matrix(m.data), k)

    @property
    def residual(self):
        """Residual norm of the calling thread's latest solve (None before it)."""
        return self._held.residual

    @property
    def iterations(self):
        """GMRES iterations or float32 refinement steps of the calling
        thread's latest solve (None after a float64 LU or before the first)."""
        return self._held.iterations

    def map(self, work, items) -> list:
        """[work(x, earlier) for x in items], two items at a time.

        The direct sweeps (resolvent_sweep, experiment.run_experiment) run
        their alphas through it. Each work(x, earlier) must solve at one
        alpha only. It runs on a worker thread, which factors that alpha's
        system on its first solve, reuses the factor for work's further
        solves and drops it when work returns; so at most two factors are
        alive at once, and an item that repeats an alpha factors it again.
        `earlier(k)` returns (waiting for it if need be) the result of
        items[k]; k must be below the index of x, because items start in
        order. The results come back in the order of items, and the first
        failing item in that order raises. With one usable CPU, fewer than
        2000 interior unknowns or the gmres backend, every item runs inline,
        in order, on the calling thread.
        """
        if (
            _WORKERS < 2
            or self.interior.size < _POOL_MIN_UNKNOWNS
            or self.backend == "gmres"
        ):
            results = []
            for x in items:
                results.append(self._task(work, x, results.__getitem__))
            return results
        _share_main_arena()
        futures = []

        def earlier(k):
            return futures[k].result()

        pool = ThreadPoolExecutor(_WORKERS)
        try:
            for x in items:
                futures.append(pool.submit(self._task, work, x, earlier))
            return [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)

    def _task(self, work, x, earlier):
        """work(x, earlier), then drop the factor this thread made for it."""
        try:
            return work(x, earlier)
        except BaseException as exc:
            # the failed frames' locals may still reference the factor
            traceback.clear_frames(exc.__traceback__)
            raise
        finally:
            held = self._held
            held.alpha = held.k_int = held.factor = None

    def _system(self, alpha: float):
        """Interior matrix alpha M + S + D and its factor (or V-cycle)."""
        held = self._held
        if alpha != held.alpha:
            # drop the old factor before building the next one
            held.alpha = held.k_int = held.factor = None
            k = alpha * self.m.data + self.form.s.data + self.form.d.data
            k_int = self._block.matrix(k)
            if self.backend == "direct":
                factor = _DirectFactor(k_int, k_int.shape[0] >= _MULTIGRID_MIN_UNKNOWNS)
            else:
                levels = [(alpha * m + k).tocsr() for m, k in self._levels.levels]
                factor = self._levels.v_cycle(levels + [k_int])
            held.alpha, held.k_int, held.factor = alpha, k_int, factor
        return held.k_int, held.factor

    def mass_solve(self, z: np.ndarray) -> np.ndarray:
        """M^{-1} z on interior DOFs: Jacobi-preconditioned CG to a relative
        residual of 1e-14 from 2000 interior unknowns on, else a sparse LU
        that is factored once. CG that misses it raises SolverDivergence."""
        if self._mass is None:
            m_int = self._block.matrix(self.m.data)
            if self.interior.size >= _MULTIGRID_MIN_UNKNOWNS:
                self._mass = functools.partial(_mass_cg, m_int)
            else:
                self._mass = spla.splu(m_int.tocsc(), permc_spec="NATURAL").solve
        return self._mass(z)


class _DirectFactor:
    """Sparse LU of one interior system; with `single` a float32 LU whose
    solves are refined to float64 accuracy (see Resolvent). A call returns
    the solution and its refinement steps, None after a float64 LU."""

    def __init__(self, k_int: sp.csr_matrix, single: bool):
        self.k_int, self.single, self.norm = k_int, single, None
        if single:
            # ||K||_inf; abs(k_int) would sort the index arrays it shares in place
            self.norm = np.add.reduceat(np.abs(k_int.data), k_int.indptr[:-1]).max()
        a = k_int.astype(np.float32 if single else float, copy=False)
        self.lu = spla.splu(a.tocsc(), permc_spec="NATURAL")

    def __call__(self, b: np.ndarray):
        if self.single:
            x, last = self.lu.solve(b.astype(np.float32)).astype(float), np.inf
            for steps in range(11):
                r = b - self.k_int @ x
                size, scale = np.abs(r).max(), self.norm * np.abs(x).max() + np.abs(b).max()
                if size <= 4 * np.finfo(float).eps * scale:
                    return x, steps
                if steps == 10 or not size <= last / 2:  # capped, stagnating or not finite
                    break
                last = size
                x += self.lu.solve(r.astype(np.float32))
            # free the float32 LU first; the float64 one serves every later solve
            self.lu = None
            self.lu = spla.splu(self.k_int.tocsc(), permc_spec="NATURAL")
            self.single = False
        return self.lu.solve(b), None


class _Held(threading.local):
    """One thread's held system: its alpha, matrix and factor, and the
    residual and iteration count of its latest solve."""

    alpha = k_int = factor = residual = iterations = None


def _mass_cg(m_int: sp.csr_matrix, z: np.ndarray) -> np.ndarray:
    """M^{-1} z by Jacobi-preconditioned CG to relative residual _MASS_RTOL."""
    jacobi = sp.diags(1.0 / m_int.diagonal())
    w, info = spla.cg(m_int, z, rtol=_MASS_RTOL, atol=0.0, M=jacobi)
    if info != 0:
        raise SolverDivergence(f"mass matrix CG missed rtol={_MASS_RTOL:.0e}")
    return w


def _check_resolvent(form: FormMatrices, lumped: bool = False) -> Resolvent:
    """The Resolvent of a check: multigrid GMRES to _CHECK_RTOL on a refined
    mesh with at least _MULTIGRID_MIN_UNKNOWNS interior unknowns, else LU."""
    if form.mesh.lineage and form.interior.size >= _MULTIGRID_MIN_UNKNOWNS:
        return Resolvent(form, backend="gmres", lumped=lumped, tol=_CHECK_RTOL)
    return Resolvent(form, lumped=lumped)


def solve_resolvent(form, alpha: float, f) -> FeFunction:
    """Solve (alpha M + S + D) u = M f on interior DOFs with zero boundary.

    Data enters through its interior restriction: boundary vertex values
    of f never reach the system. This keeps alpha G_alpha an exact
    contraction of the interior space and lets alpha G_alpha f -> f there
    (with the full-mass right side the discrete limit would instead be the
    M-projection of f, leaving an alpha-independent gap for data with a
    nonzero boundary trace).

    `form` is a Resolvent, which reuses its factor across solves at the same
    alpha and solves with its own backend, tol and maxiter, or a
    FormMatrices, which gets a one-shot default Resolvent (a sparse LU).
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
    k_int, factor = res._system(alpha)
    if res.backend == "direct":
        u_int, iterations = factor(rhs)
    else:
        u_int, info, iterations = _gmres(k_int, rhs, factor, res.tol, res.maxiter)
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
    res._held.residual = float(resid)
    res._held.iterations = iterations
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
    tol: float = 1e-10,
) -> ContractionReport:
    """Verify ||alpha G_alpha f|| <= ||f|| in L^2(mu) for random trial data.

    Raises ContractionViolation if any ratio exceeds 1 + tol.
    """
    rng = np.random.default_rng(seed)
    res = _check_resolvent(form)
    rows = []
    # all trials at one alpha share its factor
    for alpha in alphas:
        for t in range(trials):
            f = np.zeros(form.mesh.num_vertices)
            f[form.interior] = rng.standard_normal(form.interior.size)
            u = solve_resolvent(res, alpha, f)
            ratio = alpha * form.l2_norm(u.values) / form.l2_norm(f)
            if ratio > 1.0 + tol:
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
    res = _check_resolvent(form)
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


def check_submarkov(
    form: FormMatrices,
    alpha: float,
    f=None,
    tol: float = 1e-8,
) -> SubmarkovReport:
    """Check 0 <= alpha G_alpha f <= 1 for indicator-like data 0 <= f <= 1.

    The weighted mass is lumped; with non-positive stiffness off-diagonals
    the system matrix is then an M-matrix and the bounds are exact in exact
    arithmetic. Raises SubmarkovViolation beyond tol.
    """
    return _submarkov(_check_resolvent(form, lumped=True), alpha, f, tol)


def _submarkov(res: Resolvent, alpha: float, f, tol: float) -> SubmarkovReport:
    """check_submarkov solved with res; f None means 1 on the interior."""
    form = res.form
    if f is None:
        f_vec = np.zeros(form.mesh.num_vertices)
        f_vec[form.interior] = 1.0
    else:
        f_vec = f.values if isinstance(f, FeFunction) else np.asarray(f, dtype=float)
    if f_vec.min() < -1e-14 or f_vec.max() > 1 + 1e-14:
        raise ValueError("submarkov trial data must satisfy 0 <= f <= 1")
    u = solve_resolvent(res, alpha, f_vec)
    lo = float(alpha * u.values.min())
    hi = float(alpha * u.values.max())
    if lo < -tol or hi > 1.0 + tol:
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
    res = _check_resolvent(form)
    gaps = np.array(
        [form.l2_norm(a * solve_resolvent(res, a, f_vec).values - f_vec) for a in alphas]
    )
    z = ((form.s + form.d) @ f_vec)[res.interior]
    w = res.mass_solve(z)
    final_bound = float(np.sqrt(max(z @ w, 0.0))) / alphas[-1]
    monotone = bool((np.diff(gaps) <= 1e-12 + 1e-9 * gaps[:-1]).all())
    return StrongContinuityReport(
        alphas=alphas, gaps=gaps, final_bound=final_bound, monotone=monotone
    )


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
    reuses the factor of the sweep's own alphas[0] solve. The sub-Markov
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
    ident = None

    # each task fills its own index i
    def work(i, earlier):
        nonlocal ident
        u = solve_resolvent(res, alphas[i], f)
        ratios[i] = float(alphas[i] * form.l2_norm(u.values) / f_norm)
        residuals[i] = res.residual
        if i == 0:
            # the first task solves at alphas[j]
            u_b = u if j == 0 else earlier(0)
            ident = _identity_report(res, alphas[0], alphas[j], f, u, u_b)
        return u

    res.map(work, [j] + [i for i in range(len(alphas)) if i != j])
    lumped = Resolvent(form, backend=backend, lumped=True, tol=tol, maxiter=maxiter)
    sub = _submarkov(lumped, alphas[0], None, 1e-8)
    return ResolventSweepReport(
        alphas=[float(a) for a in alphas],
        contraction_ratios=ratios,
        residuals=residuals,
        identity_defect=ident.relative_defect,
        submarkov_min=sub.min_value,
        submarkov_max=sub.max_value,
        backend=backend,
        d_mode=form.d_mode,
    )
