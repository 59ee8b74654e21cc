"""P1 finite element core: interpolation, weighted assembly, norms.

All bilinear forms follow one orientation convention: the assembled entry
(i, j) pairs test function i with trial function j, so a quadratic form
evaluates as v^T K u for trial vector u and test vector v.

Every volume integral uses one rule, quadrature_rule(mesh.dim): degree 4
on triangles, degree 5 on tetrahedra. The samplers
scalar_at_quad(field, mesh, *, block=slice(None)), vector_at_quad and
matrix_at_quad (same signature) sample a field at that rule's points in a
block of elements (all of them by default) themselves: a P1 field
(FeFunction, WeakDivergence, whose at_quad(block) the samplers call) is
interpolated on the block's elements, a pre-evaluated whole-mesh array of
shape (ne, nq, ...) is cut to them, a constant is broadcast, and a
callable is sampled at their quadrature points (vectorized over an
(n, dim) array when the callable supports it, pointwise otherwise).
Fields are sampled and the element kernels run per block of _BLOCK_ELEMENTS
(2^12) elements (_blocks) into one preallocated full-size result, which
bounds temporaries by a block (Cuvelier, Japhet & Scarella, BIT 2016).
Reductions over all elements (the bincounts, quadrature_norm's einsum) stay
single calls, so no bit depends on the block size.

Element kernels weight the field samples elementwise (exact, into a fresh
array) before batched matmuls contract them, so their bits do not depend
on the memory layout of a sampled field. A matrix is one `np.bincount` of
its element matrices onto the mesh's cached CSR plan (`mesh._csr_plan`),
and its transpose is the same onto the plan's mirrored slots: duplicates
sum in element order, deterministically and without a sort. Every matrix
of a mesh shares one pattern, so a sum of matrices is a sum of data arrays.

_Restriction is the one restricted-system path of the package, for the
resolvent and the invariant density's pinned systems alike: the pattern
restricted to kept vertices, from which it gathers CSR matrices and builds
_Multigrid, the one geometric multigrid (Galerkin levels along the lineage
and a V(2,2)-cycle that preconditions _gmres).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonFiniteValue, NonPositiveDensity
from .mesh import SimplicialMesh, _read_only
from .quadrature import quadrature_rule

# quadrature fields and element kernels run over blocks of this many elements
_BLOCK_ELEMENTS = 2**12
# inner GMRES iterations per restart cycle; maxiter counts cycles
_GMRES_RESTART = 20
# the V-cycle: damped Jacobi weight, and sweeps before and after the
# coarse-level correction
_JACOBI_WEIGHT = 0.6
_SMOOTHING_SWEEPS = 2


def _p1_at_quad(mesh, values: np.ndarray, block: slice) -> np.ndarray:
    """P1 vertex data (nv, ...) at the quadrature points of the elements in
    block, shape (nb, nq, ...)."""
    bary = quadrature_rule(mesh.dim).points
    return np.einsum("qk,ek...->eq...", bary, values[mesh.elements[block]])


@dataclass
class FeFunction:
    """Piecewise-linear function given by vertex values on a fixed mesh."""

    mesh: SimplicialMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.num_vertices,):
            raise ValueError(
                f"value vector has shape {self.values.shape}, expected ({self.mesh.num_vertices},)"
            )

    def at_quad(self, block: slice = slice(None)) -> np.ndarray:
        """Values at the quadrature points of a block of elements, shape (nb, nq)."""
        return _p1_at_quad(self.mesh, self.values, block)

    def element_gradients(self) -> np.ndarray:
        """Constant-per-element gradients, shape (ne, dim)."""
        grads, _ = element_geometry(self.mesh)
        local = self.values[self.mesh.elements]
        return np.einsum("eak,ek->ea", grads, local)


def element_geometry(mesh: SimplicialMesh):
    """Per-element basis gradients and volumes, read-only and cached on the mesh.

    Returns
    -------
    grads : ndarray, shape (ne, dim, dim + 1)
        Column k holds grad of the barycentric basis function of vertex k.
    vols : ndarray, shape (ne,)
    """
    return mesh._gradients, mesh.volumes()


def physical_quad_points(mesh: SimplicialMesh) -> np.ndarray:
    """Quadrature point coordinates, shape (ne, nq, dim), read-only and cached
    on the mesh."""
    return mesh._quad_points


def _eval_callable(f: Callable, pts_flat: np.ndarray, out_shape: tuple):
    """f at every row of pts_flat, shape (n,) + out_shape.

    f is called on the whole batch first. Only a result of the wrong shape,
    or a ValueError or TypeError (the errors of a pointwise-only callable
    handed an array), falls back to one call per point; any other error
    propagates.
    """
    try:
        out = np.asarray(f(pts_flat), dtype=float)
        if out.shape == (pts_flat.shape[0],) + out_shape:
            return out
    except (ValueError, TypeError):
        pass
    out = np.empty((pts_flat.shape[0],) + out_shape)
    for i, x in enumerate(pts_flat):
        out[i] = f(x)
    return out


def _blocks(ne: int):
    """Slices of at most _BLOCK_ELEMENTS consecutive elements covering ne."""
    size = _BLOCK_ELEMENTS
    return [slice(start, start + size) for start in range(0, ne, size)]


def _at_quad(field, mesh, block: slice, shape: tuple, what: str) -> np.ndarray:
    """The field at the quadrature points of the elements in block, shape
    (nb, nq) + shape. A P1 field (with at_quad) is interpolated on those
    elements, a whole-mesh (ne, nq) + shape array is cut to them, a scalar or
    a constant of shape is broadcast, and a callable is called per block of
    elements at their quadrature points, so that its own temporaries are
    bounded by a block. A P1 field of another mesh is a ValueError."""
    if hasattr(field, "at_quad"):
        if field.mesh is not mesh:
            raise ValueError(f"{what} is a P1 field of another mesh")
        return field.at_quad(block)
    if callable(field):
        pts = physical_quad_points(mesh)[block]
        out = np.empty(pts.shape[:2] + shape)
        for sub in _blocks(len(pts)):
            flat = _eval_callable(field, pts[sub].reshape(-1, mesh.dim), shape)
            out[sub] = flat.reshape(out[sub].shape)
        if not np.isfinite(out).all():
            raise NonFiniteValue(f"{what} produced a non-finite value")
        return out
    ne, nq = mesh.num_elements, quadrature_rule(mesh.dim).weights.size
    nb = len(range(ne)[block])
    if np.isscalar(field):
        return np.full((nb, nq) + shape, float(field))
    if np.shape(field) == shape:
        return np.broadcast_to(field, (nb, nq) + shape)
    if isinstance(field, np.ndarray) and field.shape == (ne, nq) + shape:
        return field[block]
    raise ValueError(f"{what} array has shape {np.shape(field)}, expected {(ne, nq) + shape}")


def scalar_at_quad(field, mesh, *, block: slice = slice(None)) -> np.ndarray:
    """A scalar field at the quadrature points of block, shape (nb, nq)."""
    return _at_quad(field, mesh, block, (), "scalar field")


def vector_at_quad(field, mesh, *, block: slice = slice(None)) -> np.ndarray:
    """A vector field at the quadrature points of block, shape (nb, nq, dim)."""
    return _at_quad(field, mesh, block, (mesh.dim,), "vector field")


def matrix_at_quad(field, mesh, *, block: slice = slice(None)) -> np.ndarray:
    """A matrix field at the quadrature points of block, shape (nb, nq, dim, dim)."""
    return _at_quad(field, mesh, block, (mesh.dim,) * 2, "matrix field")


def _density_at_quad(rho, mesh, allow_signed=False) -> np.ndarray:
    vals = scalar_at_quad(1.0 if rho is None else rho, mesh)
    if not allow_signed and (vals <= 0).any():
        raise NonPositiveDensity(
            f"weight has non-positive quadrature value {vals.min():.3e}"
        )
    return vals


def interpolate(mesh: SimplicialMesh, f) -> FeFunction:
    """Vertex interpolant of a callable (or constant) scalar field."""
    if np.isscalar(f):
        vals = np.full(mesh.num_vertices, float(f))
    else:
        vals = _eval_callable(f, mesh.vertices, ())
    if not np.isfinite(vals).all():
        raise NonFiniteValue("interpolated values contain NaN or inf")
    return FeFunction(mesh=mesh, values=vals)


def _csr(mesh: SimplicialMesh, data: np.ndarray) -> sp.csr_matrix:
    """The matrix with the given data array on the mesh's P1 pattern."""
    plan = mesh._csr_plan
    nv = mesh.num_vertices
    return sp.csr_matrix((data, plan.indices, plan.indptr), shape=(nv, nv))


def _scatter(
    mesh: SimplicialMesh, local: np.ndarray, transpose: bool = False
) -> sp.csr_matrix:
    """Sum element matrices (ne, nloc, nloc) into a CSR matrix, or its transpose."""
    plan = mesh._csr_plan
    slots = plan.transpose[plan.slots] if transpose else plan.slots
    data = np.bincount(slots.ravel(), local.ravel(), minlength=plan.indices.size)
    return _csr(mesh, data)


def _scatter_vector(mesh: SimplicialMesh, local: np.ndarray) -> np.ndarray:
    """Sum element vectors (ne, nloc) into a vertex vector, in element order."""
    return np.bincount(mesh.elements.ravel(), local.ravel(), minlength=mesh.num_vertices)


def _quad_weights(mesh, rho, allow_signed=False) -> np.ndarray:
    """rho times the physical quadrature weights, shape (ne, nq)."""
    _, vols = element_geometry(mesh)
    rho_q = _density_at_quad(rho, mesh, allow_signed=allow_signed)
    return rho_q * (vols[:, None] * quadrature_rule(mesh.dim).weights)


def _quad_sum(phi: np.ndarray, wr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_q phi[q, ...] wr[e, q] values[e, q, ...], shape (ne, *phi.shape[1:],
    *values.shape[2:]); the product wr * values fixes the matmul's layout."""
    ne, nq = wr.shape
    weighted = wr.reshape(ne, nq, *(1,) * (values.ndim - 2)) * values
    out = phi.T @ weighted.reshape(ne, nq, -1)
    return out.reshape(ne, *phi.shape[1:], *values.shape[2:])


def _stiffness_local(mesh, a, rho) -> np.ndarray:
    """Element matrices of S, shape (ne, nloc, nloc)."""
    grads, _ = element_geometry(mesh)
    wr = _quad_weights(mesh, rho)
    ones = np.ones(wr.shape[1])
    local = np.empty(grads.shape[:1] + grads.shape[2:] * 2)
    for block in _blocks(mesh.num_elements):
        a_q = matrix_at_quad(a, mesh, block=block)
        a_e = _quad_sum(ones, wr[block], a_q)
        g = grads[block]
        local[block] = np.matmul(g.transpose(0, 2, 1), a_e @ g)
    return local


def _drift_local(mesh, b, rho) -> np.ndarray:
    """Element matrices of D, shape (ne, nloc, nloc)."""
    grads, _ = element_geometry(mesh)
    wr = _quad_weights(mesh, rho)
    bary = quadrature_rule(mesh.dim).points
    local = np.empty(grads.shape[:1] + grads.shape[2:] * 2)
    for block in _blocks(mesh.num_elements):
        b_q = vector_at_quad(b, mesh, block=block)
        # int phi_i b rho dx per element, shape (nb, nloc, dim)
        b_e = _quad_sum(bary, wr[block], b_q)
        local[block] = -(b_e @ grads[block])
    return local


def _flux_local(wr: np.ndarray, flux_q: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """int <flux, grad(phi_i)> rho dx per element, shape (ne, nloc), from the
    weights wr (ne, nq), flux samples (ne, nq, dim) and basis gradients.

    flux . grad(phi_i) is taken point by point, then summed over the points;
    summing the points first moved weak_divergence_matrix's 2D residual,
    which cancels heavily, by 3e-14 between two samplings of one field.
    """
    return ((wr[..., None] * flux_q) @ grads).sum(axis=1)


def assemble_weighted_stiffness(mesh: SimplicialMesh, a, rho=None) -> sp.csr_matrix:
    """Assemble S with S[i, j] = int <a grad(phi_j), grad(phi_i)> rho dx."""
    return _scatter(mesh, _stiffness_local(mesh, a, rho))


def assemble_drift(mesh: SimplicialMesh, b, rho=None) -> sp.csr_matrix:
    """Assemble D with D[i, j] = -int <b, grad(phi_j)> phi_i rho dx."""
    return _scatter(mesh, _drift_local(mesh, b, rho))


def assemble_weighted_mass(mesh: SimplicialMesh, rho=None) -> sp.csr_matrix:
    """Assemble M with M[i, j] = int phi_i phi_j rho dx for a positive density."""
    wr = _quad_weights(mesh, rho)
    bary = quadrature_rule(mesh.dim).points
    nq, nloc = bary.shape
    phi_phi = (bary[:, :, None] * bary[:, None, :]).reshape(nq, -1)
    return _scatter(mesh, (wr[:, None, :] @ phi_phi).reshape(-1, nloc, nloc))


def assemble_load(mesh: SimplicialMesh, f=None, flux=None, rho=None) -> np.ndarray:
    """Assemble the vector int f phi_i rho dx + int <flux, grad(phi_i)> rho dx;
    the weight rho may change sign."""
    grads, _ = element_geometry(mesh)
    wr = _quad_weights(mesh, rho, allow_signed=True)
    local = np.zeros((mesh.num_elements, mesh.dim + 1))
    if f is not None:
        local += _quad_sum(quadrature_rule(mesh.dim).points, wr, scalar_at_quad(f, mesh))
    if flux is not None:
        for block in _blocks(mesh.num_elements):
            flux_q = vector_at_quad(flux, mesh, block=block)
            local[block] += _flux_local(wr[block], flux_q, grads[block])
    return _scatter_vector(mesh, local)


def lumped_weights(mesh: SimplicialMesh, rho=None) -> np.ndarray:
    """Row sums of the weighted mass matrix: w_i = int phi_i rho dx."""
    return assemble_load(mesh, f=1.0, rho=rho)


def quadrature_norm(mesh: SimplicialMesh, values, p: float = 2.0, weight=None) -> float:
    """L^p norm of a scalar quantity sampled at quadrature points.

    `values` may be anything scalar_at_quad accepts. weight is a density
    (None for Lebesgue measure). p = inf takes the max over samples.
    """
    vals = scalar_at_quad(values, mesh)
    if np.isinf(p):
        return float(np.abs(vals).max())
    if p <= 0:
        raise ValueError(f"norm exponent must be positive, got {p}")
    # |vals|^p in place, one (ne, nq) temporary fewer
    magnitude = np.abs(vals)
    magnitude **= p
    rho_q = _density_at_quad(weight, mesh)
    _, vols = element_geometry(mesh)
    weights = quadrature_rule(mesh.dim).weights
    total = np.einsum("eq,eq,q,e->", magnitude, rho_q, weights, vols)
    return float(total ** (1.0 / p))


def norm(u: FeFunction, p: float = 2.0, weight=None) -> float:
    """L^p(weight dx) norm of an FE function; p = inf is the max vertex magnitude."""
    if np.isinf(p):
        return float(np.abs(u.values).max())
    return quadrature_norm(u.mesh, u, p=p, weight=weight)


def l2_error(u: FeFunction, exact, weight=None) -> float:
    """L^2(weight dx) distance between an FE function and a callable."""
    e_q = scalar_at_quad(exact, u.mesh)
    return quadrature_norm(u.mesh, u.at_quad() - e_q, p=2.0, weight=weight)


class _Restriction:
    """Matrices on the mesh's P1 pattern (`mesh._csr_plan`) restricted to
    kept vertex ids, in their order. The pattern is indexed once, so a
    restricted matrix is one gather of pattern data. The matrices share its
    index arrays, read-only so that an in-place canonicalization (abs()
    sorts unsorted rows) raises ValueError instead of corrupting them."""

    def __init__(self, mesh: SimplicialMesh, kept: np.ndarray):
        self.mesh, self.kept = mesh, kept
        ids = _csr(mesh, np.arange(mesh._csr_plan.indices.size, dtype=np.int32))[kept][:, kept]
        self._take, self._pattern = ids.data, (_read_only(ids.indices), _read_only(ids.indptr))

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The restricted CSR matrix of the data on the mesh's pattern."""
        n = self._pattern[1].size - 1
        return sp.csr_matrix((data[self._take], *self._pattern), shape=(n, n))

    def multigrid(self, *fine) -> _Multigrid:
        """The _Multigrid of restricted matrices (from matrix()) along the
        mesh's refinement lineage."""
        return _Multigrid(self.mesh._prolongations(self.kept), *fine)


class _Multigrid:
    """Galerkin levels of fine matrices along prolongations, and V-cycles.

    prolongations[l] maps the unknowns of level l to those of level l + 1,
    coarsest first, the last one to the unknowns of the fine matrices;
    levels without unknowns (a prefix) are dropped. With P the prolongation
    from level l to level l + 1, level l holds P^T X P of level l + 1's X
    for every fine matrix X, built once: `levels` lists them per coarse
    level, coarsest first, as tuples in the order of the fine matrices.
    """

    def __init__(self, prolongations, *fine):
        self.p = [x for x in prolongations if x.shape[1]]
        self.pt = [x.T.tocsr() for x in self.p]
        levels = [fine]
        for x, xt in zip(reversed(self.p), reversed(self.pt)):
            levels.append(tuple((xt @ a @ x).tocsr() for a in levels[-1]))
        self.levels = levels[:0:-1]

    def v_cycle(self, a) -> spla.LinearOperator:
        """The V(2,2)-cycle for the CSR level matrices a, coarsest first:
        damped Jacobi (weight 0.6) on every level and a sparse LU of the
        coarsest, which is factored here."""
        coarse = spla.splu(a[0].tocsc())
        weights = [_JACOBI_WEIGHT / x.diagonal() for x in a]
        p, pt = self.p, self.pt

        def cycle(b, level):
            if level == 0:
                return coarse.solve(b)
            x_a, w = a[level], weights[level]
            x = w * b
            for _ in range(_SMOOTHING_SWEEPS - 1):
                x += w * (b - x_a @ x)
            x += p[level - 1] @ cycle(pt[level - 1] @ (b - x_a @ x), level - 1)
            for _ in range(_SMOOTHING_SWEEPS):
                x += w * (b - x_a @ x)
            return x

        return spla.LinearOperator(
            a[-1].shape, matvec=lambda b: cycle(np.ravel(b), len(a) - 1)
        )


def _gmres(a, b, preconditioner, rtol: float, maxiter: int):
    """GMRES (restart 20) on a x = b to relative residual rtol within maxiter
    restart cycles: x, SciPy's info (0 when rtol was met) and the number of
    inner iterations."""
    residuals = []
    x, info = spla.gmres(
        a,
        b,
        rtol=rtol,
        atol=0.0,
        restart=_GMRES_RESTART,
        maxiter=maxiter,
        M=preconditioner,
        callback=residuals.append,
        callback_type="pr_norm",
    )
    return x, info, len(residuals)
