"""P1 finite element core: interpolation, weighted assembly, norms.

All bilinear forms follow one orientation convention: the assembled entry
(i, j) pairs test function i with trial function j, so a quadratic form
evaluates as v^T K u for trial vector u and test vector v.

Every volume integral uses one rule, quadrature_rule(mesh.dim): degree 4
on triangles, degree 5 on tetrahedra. The samplers
scalar_at_quad(field, mesh, *, block=slice(None)), vector_at_quad and
matrix_at_quad (same signature) sample a field at that rule's points in a
block of elements (a slice or an index array; all of them by default)
themselves: vertex data of the mesh (FeFunction, WeakDivergence and
MeshInterpolant) is interpolated on the block's elements, a pre-evaluated
whole-mesh array of shape (ne, nq, ...) is cut to them, a constant is
broadcast, and a callable is sampled at their quadrature points
(vectorized over an (n, dim) array when the callable supports it,
pointwise otherwise). The mesh keeps no quadrature points:
physical_quad_points computes those of a block.
Fields are sampled, and the element kernels run and their results are
scattered, per block of _BLOCK_ELEMENTS (2^10) elements (_blocks), which
bounds temporaries by a block (Cuvelier, Japhet & Scarella, BIT 2016).
A norm holds one (ne, nq) array, |v|^p times the weight filled block by
block, and sums it by one einsum over all elements. The scatters add in
element order and that sum is one call, so no bit depends on the block
size.

Element kernels weight the field samples elementwise (exact, into a fresh
array) before batched matmuls contract them, so their bits do not depend
on the memory layout of a sampled field. A matrix is the sum of the
element matrices of a per-block kernel onto the mesh's cached CSR plan
(`mesh._csr_plan`), added block by block by `np.add.at`, and its transpose
is the same onto the plan's mirrored slots: duplicates sum in element
order, the sequential sums of one `np.bincount` over all elements, without
a sort. Every matrix of a mesh shares one pattern, so a sum of matrices is
a sum of data arrays.

_Restriction is the one restricted-system path of the package, for the
resolvent and the invariant density's pinned systems alike: the pattern
restricted to kept vertices, from which it gathers CSR matrices and builds
_Multigrid, the one geometric multigrid (Galerkin levels along the lineage
and a V(2,2)-cycle that right-preconditions _gmres, the package's one
GMRES). One rule (_runs_multigrid) picks the solver of every restricted
system: the V-cycle when its mesh has a lineage and it has at least
_MULTIGRID_MIN_UNKNOWNS (2000) unknowns, else a float64 sparse LU. Its
callers only pick the V-cycle's stopping rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonFiniteValue, NonPositiveDensity
from .mesh import SimplicialMesh, _read_only
from .quadrature import quadrature_rule

# quadrature fields and element kernels run over blocks of this many elements
_BLOCK_ELEMENTS = 2**10
# inner GMRES iterations per restart cycle; maxiter counts cycles
_GMRES_RESTART = 20
# the V-cycle: damped Jacobi weight, and sweeps before and after the
# coarse-level correction
_JACOBI_WEIGHT = 0.6
_SMOOTHING_SWEEPS = 2
# a restricted system of a mesh with a lineage runs the V-cycle from this
# many unknowns on, else a sparse LU (a 3D level-4 LU takes 120-170 ms, a
# V-cycle GMRES solve ~10 ms); the checks and the density run GMRES to
# _MULTIGRID_RTOL
_MULTIGRID_MIN_UNKNOWNS = 2000
_MULTIGRID_RTOL = 1e-12


def _p1_at_quad(mesh, values: np.ndarray, block: slice) -> np.ndarray:
    """P1 vertex data (nv, ...) at the quadrature points of the elements in
    block (a slice or an index array), shape (nb, nq, ...)."""
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


def physical_quad_points(mesh: SimplicialMesh, block: slice = slice(None)) -> np.ndarray:
    """Quadrature point coordinates of the elements in block (a slice or an
    index array; all elements by default), shape (nb, nq, dim).

    The points are computed on every call and not kept, so a caller holds
    those of one block at a time. Each coordinate is the sum of
    bary[q, k] x_k over the vertices k in order, from zero: the bits of
    np.einsum("qk,ekd->eqd", bary, coords), whatever the block.
    """
    return _quad_points(mesh, mesh.elements[block])


def _quad_points(mesh: SimplicialMesh, elements: np.ndarray) -> np.ndarray:
    """physical_quad_points of the elements given by their vertex ids."""
    bary = quadrature_rule(mesh.dim).points
    # laid out (nq, nb, dim), so that each vertex adds one broadcast term
    pts = np.zeros((len(bary), len(elements), mesh.dim))
    for k in range(mesh.dim + 1):
        pts += bary[:, k, None, None] * mesh.vertices[elements[:, k]]
    return pts.transpose(1, 0, 2).copy()


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


def _at_quad(field, mesh, block: slice, shape: tuple, what: str, pts=None) -> np.ndarray:
    """The field at the quadrature points of the elements in block (a slice
    or an index array), shape (nb, nq) + shape. Vertex data of this mesh
    (`values` of an object whose `mesh` is it: FeFunction, WeakDivergence,
    MeshInterpolant) is interpolated on those elements, a whole-mesh
    (ne, nq) + shape array is cut to them, a scalar or a constant of shape
    is broadcast, and a callable is called per block of elements at their
    quadrature points, so that its own temporaries and the points are
    bounded by a block; pts, when given, are the block's points
    (physical_quad_points), which a caller sampling several fields on one
    block computes once. A P1 field (with at_quad) of another mesh is a
    ValueError; a MeshInterpolant of another mesh is a callable."""
    if getattr(field, "mesh", None) is mesh:
        return _p1_at_quad(mesh, field.values, block)
    if hasattr(field, "at_quad"):
        raise ValueError(f"{what} is a P1 field of another mesh")
    elements = mesh.elements[block]
    nb, nq = len(elements), quadrature_rule(mesh.dim).weights.size
    if callable(field):
        out = np.empty((nb, nq) + shape)
        for sub in _blocks(nb):
            at = _quad_points(mesh, elements[sub]) if pts is None else pts[sub]
            flat = _eval_callable(field, at.reshape(-1, mesh.dim), shape)
            out[sub] = flat.reshape(out[sub].shape)
        if not np.isfinite(out).all():
            raise NonFiniteValue(f"{what} produced a non-finite value")
        return out
    ne = mesh.num_elements
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


def _density_at_quad(rho, mesh, allow_signed=False, block=slice(None)) -> np.ndarray:
    """rho (1 for None) at the quadrature points of block; unless
    allow_signed, a NonPositiveDensity when a value there is <= 0, which
    names the least value over every element, whatever the block."""
    vals = scalar_at_quad(1.0 if rho is None else rho, mesh, block=block)
    if not allow_signed and (vals <= 0).any():
        blocks = _blocks(mesh.num_elements)
        lowest = np.min([scalar_at_quad(rho, mesh, block=b).min() for b in blocks])
        raise NonPositiveDensity(f"weight has non-positive quadrature value {lowest:.3e}")
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
    mesh: SimplicialMesh, kernel: Callable, transpose: bool = False
) -> sp.csr_matrix:
    """Sum the element matrices kernel(block) (nb, nloc, nloc) of every block
    of elements into a CSR matrix, or its transpose."""
    plan = mesh._csr_plan
    data = np.zeros(plan.indices.size)
    for block in _blocks(mesh.num_elements):
        slots = plan.slots[block]
        slots = plan.transpose[slots] if transpose else slots
        np.add.at(data, slots.ravel(), kernel(block).ravel())
    return _csr(mesh, data)


def _scatter_vector(mesh: SimplicialMesh, kernel: Callable, shape: tuple = ()) -> np.ndarray:
    """Sum the element vectors kernel(block) (nb, nloc) + shape of every block
    of elements into vertex values (nv,) + shape."""
    out = np.zeros((mesh.num_vertices,) + shape)
    for block in _blocks(mesh.num_elements):
        np.add.at(out, mesh.elements[block].ravel(), kernel(block).reshape((-1,) + shape))
    return out


def _quad_weights(mesh, rho, allow_signed=False, block=slice(None)) -> np.ndarray:
    """rho times the physical quadrature weights of the elements in block,
    shape (nb, nq)."""
    _, vols = element_geometry(mesh)
    rho_q = _density_at_quad(rho, mesh, allow_signed=allow_signed, block=block)
    return rho_q * (vols[block, None] * quadrature_rule(mesh.dim).weights)


def _quad_sum(phi: np.ndarray, wr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_q phi[q, ...] wr[e, q] values[e, q, ...], shape (ne, *phi.shape[1:],
    *values.shape[2:]); the product wr * values fixes the matmul's layout."""
    ne, nq = wr.shape
    weighted = wr.reshape(ne, nq, *(1,) * (values.ndim - 2)) * values
    out = phi.T @ weighted.reshape(ne, nq, -1)
    return out.reshape(ne, *phi.shape[1:], *values.shape[2:])


def _stiffness_element(wr: np.ndarray, a_q: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Element matrices of S, shape (nb, nloc, nloc), from the weights wr
    (nb, nq), samples of a (nb, nq, dim, dim) and basis gradients."""
    a_e = _quad_sum(np.ones(wr.shape[1]), wr, a_q)
    return np.matmul(grads.transpose(0, 2, 1), a_e @ grads)


def _drift_element(wr: np.ndarray, b_q: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Element matrices of D, shape (nb, nloc, nloc), from the weights wr
    (nb, nq), drift samples (nb, nq, dim) and basis gradients."""
    bary = quadrature_rule(grads.shape[1]).points
    # int phi_i b rho dx per element, shape (nb, nloc, dim)
    return -(_quad_sum(bary, wr, b_q) @ grads)


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
    grads, _ = element_geometry(mesh)

    def kernel(block):
        wr = _quad_weights(mesh, rho, block=block)
        return _stiffness_element(wr, matrix_at_quad(a, mesh, block=block), grads[block])

    return _scatter(mesh, kernel)


def assemble_drift(mesh: SimplicialMesh, b, rho=None) -> sp.csr_matrix:
    """Assemble D with D[i, j] = -int <b, grad(phi_j)> phi_i rho dx."""
    grads, _ = element_geometry(mesh)

    def kernel(block):
        wr = _quad_weights(mesh, rho, block=block)
        return _drift_element(wr, vector_at_quad(b, mesh, block=block), grads[block])

    return _scatter(mesh, kernel)


def assemble_weighted_mass(mesh: SimplicialMesh, rho=None) -> sp.csr_matrix:
    """Assemble M with M[i, j] = int phi_i phi_j rho dx for a positive density."""
    bary = quadrature_rule(mesh.dim).points
    nq, nloc = bary.shape
    phi_phi = (bary[:, :, None] * bary[:, None, :]).reshape(nq, -1)

    def kernel(block):
        wr = _quad_weights(mesh, rho, block=block)
        return (wr[:, None, :] @ phi_phi).reshape(-1, nloc, nloc)

    return _scatter(mesh, kernel)


def assemble_load(mesh: SimplicialMesh, f=None, flux=None, rho=None) -> np.ndarray:
    """Assemble the vector int f phi_i rho dx + int <flux, grad(phi_i)> rho dx;
    the weight rho may change sign."""
    grads, _ = element_geometry(mesh)
    bary = quadrature_rule(mesh.dim).points

    def kernel(block):
        wr = _quad_weights(mesh, rho, allow_signed=True, block=block)
        local = np.zeros((wr.shape[0], mesh.dim + 1))
        if f is not None:
            local += _quad_sum(bary, wr, scalar_at_quad(f, mesh, block=block))
        if flux is not None:
            local += _flux_local(wr, vector_at_quad(flux, mesh, block=block), grads[block])
        return local

    return _scatter_vector(mesh, kernel)


def lumped_weights(mesh: SimplicialMesh, rho=None) -> np.ndarray:
    """Row sums of the weighted mass matrix: w_i = int phi_i rho dx."""
    return assemble_load(mesh, f=1.0, rho=rho)


def quadrature_norm(mesh: SimplicialMesh, values, p: float = 2.0, weight=None) -> float:
    """L^p norm of a scalar quantity sampled at quadrature points.

    `values` may be anything scalar_at_quad accepts. weight is a density
    (None for Lebesgue measure). p = inf takes the max over samples.
    """
    return _sampled_norm(mesh, lambda block: scalar_at_quad(values, mesh, block=block), p, weight)


def _sampled_norm(mesh: SimplicialMesh, sample: Callable, p: float, weight=None) -> float:
    """quadrature_norm of the scalar samples sample(block), shape (nb, nq),
    of every block of elements.

    One (ne, nq) array holds |v|^p rho: each block's samples are written
    into it, raised to the power p and multiplied by the weight's samples in
    place, so a block's samples and weight are the only other arrays held.
    """
    blocks = _blocks(mesh.num_elements)
    if np.isinf(p):
        return float(np.max([np.abs(sample(block)).max() for block in blocks]))
    if p <= 0:
        raise ValueError(f"norm exponent must be positive, got {p}")
    powers = np.empty((mesh.num_elements, quadrature_rule(mesh.dim).weights.size))
    for block in blocks:
        out = powers[block]
        np.abs(sample(block), out=out)
        out **= p
        if weight is not None:
            out *= _density_at_quad(weight, mesh, block=block)
    return _root_of_sum(mesh, powers, p)


def _root_of_sum(mesh: SimplicialMesh, powers: np.ndarray, p: float) -> float:
    """(sum over elements and points of powers times the physical quadrature
    weights) ** (1 / p), for powers of shape (ne, nq).

    The sum is one einsum over all elements, so its bits do not depend on
    the block size; with powers = |v|^p rho it is the bits of
    einsum("eq,eq,q,e->", |v|^p, rho, weights, vols), whose first product
    is |v|^p rho. Sums per block, added in order, would not be.
    """
    _, vols = element_geometry(mesh)
    total = np.einsum("eq,q,e->", powers, quadrature_rule(mesh.dim).weights, vols)
    return float(total ** (1.0 / p))


def norm(u: FeFunction, p: float = 2.0, weight=None) -> float:
    """L^p(weight dx) norm of an FE function; p = inf is the max vertex magnitude."""
    if np.isinf(p):
        return float(np.abs(u.values).max())
    return quadrature_norm(u.mesh, u, p=p, weight=weight)


def l2_error(u: FeFunction, exact, weight=None) -> float:
    """L^2(weight dx) distance between an FE function and a callable."""

    def difference(block):
        return u.at_quad(block) - scalar_at_quad(exact, u.mesh, block=block)

    return _sampled_norm(u.mesh, difference, 2.0, weight)


def _runs_multigrid(mesh: SimplicialMesh, unknowns: int) -> bool:
    """Whether a restricted system of the mesh with this many unknowns runs
    the V-cycle (else a float64 sparse LU): the one solver rule."""
    return bool(mesh.lineage) and unknowns >= _MULTIGRID_MIN_UNKNOWNS


class _Restriction:
    """Matrices on the mesh's P1 pattern (`mesh._csr_plan`) restricted to
    kept vertex ids, in their order. The pattern is indexed once, so a
    restricted matrix is one gather of pattern data. The matrices share its
    index arrays, read-only as a guard; every caller keeps its ids sorted,
    so the matrices are canonical and abs() writes nothing to them."""

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

    def v_cycle(self, a) -> _VCycle:
        """The V(2,2)-cycle for the CSR level matrices a, coarsest first."""
        return _VCycle(self, a)


class _VCycle:
    """The V(2,2)-cycle of a _Multigrid's prolongations for the CSR level
    matrices a, coarsest first: damped Jacobi (weight 0.6) on every level
    and a sparse LU of the coarsest, which is factored here. It refers to
    nothing that refers back to it, so its matrices and LU are freed as
    soon as the last reference to it goes."""

    def __init__(self, multigrid: _Multigrid, a):
        self.coarse = spla.splu(a[0].tocsc())
        self.weights = [_JACOBI_WEIGHT / x.diagonal() for x in a]
        self.a, self.p, self.pt = a, multigrid.p, multigrid.pt

    def __call__(self, b: np.ndarray) -> np.ndarray:
        return self._cycle(b, len(self.a) - 1)

    def _cycle(self, b, level):
        if level == 0:
            return self.coarse.solve(b)
        x_a, w = self.a[level], self.weights[level]
        x = w * b
        for _ in range(_SMOOTHING_SWEEPS - 1):
            x += w * (b - x_a @ x)
        x += self.p[level - 1] @ self._cycle(self.pt[level - 1] @ (b - x_a @ x), level - 1)
        for _ in range(_SMOOTHING_SWEEPS):
            x += w * (b - x_a @ x)
        return x


def _gmres(a, b, preconditioner, rtol: float, maxiter: int, x=None):
    """GMRES (restart 20; Saad & Schultz 1986) on a x = b from x (zeros by
    default), right-preconditioned by M: x, info (0 when the explicit
    ||b - a x||_2 <= rtol ||b||_2, else maxiter) and the inner iterations.
    Arnoldi runs on a M with classical Gram-Schmidt and one
    reorthogonalization. A cycle ends at a residual estimate of
    rtol ||b||_2 or after 20 iterations and adds M (V y) to x: M is applied
    once per iteration and once per cycle, within maxiter cycles."""
    x = np.zeros_like(b) if x is None else x.copy()
    target = rtol * np.linalg.norm(b)
    basis = np.empty((_GMRES_RESTART + 1, b.size))
    iterations = 0
    for cycles in range(maxiter + 1):
        r = b - a @ x
        beta = np.linalg.norm(r)
        if beta <= target:
            return x, 0, iterations
        if cycles == maxiter or not np.isfinite(beta):
            break
        basis[0] = r / beta
        g, columns, rotations = [float(beta)], [], []
        for j in range(_GMRES_RESTART):
            w = a @ preconditioner(basis[j])
            v = basis[: j + 1]
            h = v @ w
            w -= h @ v
            again = v @ w
            w -= again @ v
            norm = float(np.linalg.norm(w))
            # rotate the new Hessenberg column to triangular; |g[j + 1]| is the
            # residual norm of the least-squares solution over the basis
            column = (h + again).tolist()
            for i, (c, s) in enumerate(rotations):
                top, bottom = column[i : i + 2]
                column[i : i + 2] = c * top + s * bottom, c * bottom - s * top
            d = math.hypot(column[j], norm)
            c, s = column[j] / d, norm / d
            rotations.append((c, s))
            column[j] = d
            columns.append(column)
            g[j : j + 1] = c * g[j], -s * g[j]
            iterations += 1
            if abs(g[j + 1]) <= target:
                break
            basis[j + 1] = w / norm
        y = g[: len(columns)]
        for i in reversed(range(len(y))):
            y[i] = (y[i] - sum(columns[m][i] * y[m] for m in range(i + 1, len(y)))) / columns[i][i]
        x += preconditioner(np.asarray(y) @ basis[: len(y)])
    return x, maxiter, iterations
