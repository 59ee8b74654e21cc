"""Invariant density construction and drift decomposition.

The stationarity problem on a bounded mesh tests against EVERY P1 function
(boundary vertices included), the natural no-flux analog of the whole-space
identity int <a^T grad(rho) - rho H, grad(phi)> dx = 0. Its matrix is the
transpose of the drift-diffusion operator matrix, so the density spans the
kernel of the adjoint system, exactly as in the continuum.

The density is found by pinning a vertex to 1, twice with different pins
(solve_invariant_density). fem's one solver rule, applied to the nv - 1
unknowns of a pinned system, picks how: on a mesh with a lineage from 2000
unknowns on by fem._gmres right-preconditioned with the Galerkin V-cycle
of fem._Multigrid along the lineage, as multilevel stationary-distribution
solvers do (Horton & Leutenegger 1994), and otherwise by sparse LUs, which
stay the test oracle.
One function (_pinned_solve) restricts K to the other vertices for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import CoefficientSet
from .errors import DensityNotPositive, KernelDimensionError
from .fem import (
    _MULTIGRID_RTOL,
    FeFunction,
    _at_quad,
    _blocks,
    _csr,
    _drift_element,
    _flux_local,
    _gmres,
    _quad_weights,
    _Restriction,
    _root_of_sum,
    _runs_multigrid,
    _scatter,
    _stiffness_element,
    element_geometry,
    lumped_weights,
    physical_quad_points,
)
from .mesh import SimplicialMesh
from .quadrature import quadrature_rule

# multigrid GMRES on a pinned system stops within this many restart cycles
_DENSITY_MAXITER = 10
# the density's stationarity residual max|K rho| may be at most this
# multiple of max(max|K| max|rho|, 1)
_STATIONARITY_TOL = 1e-9


@dataclass
class DensityField:
    """Normalized positive stationary density with solve diagnostics."""

    rho: FeFunction
    rho_min: float
    rho_max: float
    residual: float
    residual_scale: float
    iterations: tuple = ()  # GMRES iterations per pin; empty after LUs


@dataclass
class DriftDecomposition:
    """What the later stages need of the divergence-free drift
    B = H - (a^T grad rho) / rho; decompose_drift forms B one block of
    elements at a time and keeps no array over the quadrature points.

    d is the raw drift block D[i, j] = -int <B, grad phi_j> phi_i rho dx on
    the mesh's pattern (the D of assemble_form), flux the vector
    int <B, grad phi_j> rho dx over every vertex j (divergence_free_residual)
    and b_norm the Lebesgue norm ||B||_{L^d} with d the mesh dimension
    (theoretical_sector_bound).
    """

    d: sp.csr_matrix
    flux: np.ndarray  # (nv,)
    b_norm: float
    rho: FeFunction
    quadratic_defect: float  # max_j |int <B, grad(phi_j^2)> rho dx|, interior j


def stationarity_matrix(mesh: SimplicialMesh, cs: CoefficientSet) -> sp.csr_matrix:
    """Matrix K with K[j, i] = int <a^T grad(phi_i) - phi_i H, grad(phi_j)> dx.

    Row j is the stationarity equation tested against phi_j; K is the
    transpose of the assembled drift-diffusion operator S + D, scattered
    transposed straight from the element matrices of S + D, for which a and
    H are sampled at one computation of each block's quadrature points.
    """
    grads, _ = element_geometry(mesh)
    shape = (mesh.dim,)

    def kernel(block):
        wr = _quad_weights(mesh, None, block=block)
        pts = physical_quad_points(mesh, block)
        a_q = _at_quad(cs.a, mesh, block, shape * 2, "matrix field", pts)
        h_q = _at_quad(cs.drift, mesh, block, shape, "vector field", pts)
        local = _stiffness_element(wr, a_q, grads[block])
        local += _drift_element(wr, h_q, grads[block])
        return local

    return _scatter(mesh, kernel, transpose=True)


def _pinned_solve(mesh: SimplicialMesh, k: sp.csr_matrix, pin: int, multigrid: bool):
    """The kernel vector of K with value 1 at pin, and the GMRES iteration
    count (None after an LU). The unknowns are the vertices but the pin, in
    index order, solved by V-cycle-preconditioned GMRES along the lineage
    or else by a sparse LU."""
    kept = np.delete(np.arange(mesh.num_vertices), pin)
    block = _Restriction(mesh, kept)
    sub, rhs = block.matrix(k.data), -k.getcol(pin).toarray().ravel()[kept]
    if multigrid:
        levels = block.multigrid(sub)
        cycle = levels.v_cycle([x for x, in levels.levels] + [sub])
        x, info, iterations = _gmres(sub, rhs, cycle, _MULTIGRID_RTOL, _DENSITY_MAXITER)
        if info != 0 or not np.isfinite(x).all():
            raise KernelDimensionError(
                f"multigrid GMRES on the stationarity system pinned at vertex {pin} "
                f"missed rtol={_MULTIGRID_RTOL:.0e} within {iterations} iterations; "
                "the pinned system may be singular"
            )
    else:
        x, iterations = spla.splu(sub.tocsc()).solve(rhs), None
    full = np.ones(mesh.num_vertices)  # 1 at the pin
    full[kept] = x
    return full, iterations


def solve_invariant_density(mesh: SimplicialMesh, cs: CoefficientSet) -> DensityField:
    """Compute the positive kernel vector of the stationarity system.

    Solves K rho = 0 by pinning one vertex to 1 and solving the reduced
    system; a second solve with a different pin certifies that the kernel
    is one-dimensional. The result is normalized to unit mean over the mesh.

    When fem's rule picks the V-cycle for the nv - 1 unknowns of a pinned
    system (a mesh with a refinement lineage and at least 2001 vertices),
    the pins are the first vertex of the lineage's first mesh and its
    vertex farthest from that one (vertex 0 and another for balls and boxes
    alike), and each pinned system is solved by GMRES (restart 20), right
    preconditioned with the V(2,2)-cycle, to an explicit relative residual
    of 1e-12 within 10 restart cycles, with one coarse-level LU per pin; the
    inner iteration counts land in `iterations`.
    Otherwise the first pin is the interior vertex nearest to the vertex
    centroid and the second the vertex farthest from the first (boundary
    vertices allowed, so the two differ even with one interior vertex),
    each pinned system is factored by a sparse LU, and `iterations` is empty.

    Raises
    ------
    KernelDimensionError
        If a pinned system is singular (the kernel has dimension above one),
        multigrid GMRES misses its tolerance, the two pinned solves disagree
        beyond 1e-8 after normalization, or the stationarity residual
        exceeds 1e-9 times max(max|K| max|rho|, 1).
    DensityNotPositive
        If the kernel vector has vanishing mean, or any vertex value of the
        normalized density is <= 0.
    """
    k = stationarity_matrix(mesh, cs)
    multigrid = _runs_multigrid(mesh, mesh.num_vertices - 1)
    if multigrid:
        # the ids on this mesh of the lineage's first mesh's vertices; the
        # pins are its first vertex and the one of them farthest from it
        ids = np.arange(mesh.lineage[0].num_vertices)
        for level in mesh.lineage:
            ids = level.fine_ids()[ids]
        base = mesh.vertices[ids]
        pins = [int(ids[0]), int(ids[np.argmax(np.linalg.norm(base - base[0], axis=1))])]
    else:
        interior = mesh.interior
        dist = np.linalg.norm(mesh.vertices[interior] - mesh.vertices.mean(axis=0), axis=1)
        first = int(interior[np.argmin(dist)])
        far = np.linalg.norm(mesh.vertices - mesh.vertices[first], axis=1)
        pins = [first, int(np.argmax(far))]

    weights = lumped_weights(mesh)
    volume = float(weights.sum())

    candidates = []
    counts = []
    for pin in pins:
        try:
            v, count = _pinned_solve(mesh, k, pin, multigrid)
        except RuntimeError as exc:
            raise KernelDimensionError(
                f"stationarity system pinned at vertex {pin} is singular: {exc}"
            ) from exc
        counts.append(count)
        mean = float(weights @ v) / volume
        if abs(mean) < 1e-300:
            raise DensityNotPositive("kernel vector has vanishing mean")
        candidates.append(v / mean)

    gap = float(np.abs(candidates[0] - candidates[1]).max())
    ref = float(np.abs(candidates[0]).max())
    if gap > 1e-8 * max(ref, 1.0):
        raise KernelDimensionError(
            f"pinned solves disagree by {gap:.3e}; kernel is not one-dimensional "
            "within tolerance"
        )
    rho_vec = candidates[0]

    residual = float(np.abs(k @ rho_vec).max())
    scale = float(abs(k).max()) * float(np.abs(rho_vec).max())
    if residual > _STATIONARITY_TOL * max(scale, 1.0):
        raise KernelDimensionError(
            f"stationarity residual {residual:.3e} exceeds "
            f"{_STATIONARITY_TOL:.1e} * {scale:.3e}"
        )

    if rho_vec.min() <= 0:
        raise DensityNotPositive(
            f"density has non-positive vertex value {rho_vec.min():.3e}"
        )
    rho = FeFunction(mesh=mesh, values=rho_vec)
    return DensityField(
        rho=rho,
        rho_min=float(rho_vec.min()),
        rho_max=float(rho_vec.max()),
        residual=residual,
        residual_scale=scale,
        iterations=tuple(c for c in counts if c is not None),
    )


def decompose_drift(
    mesh: SimplicialMesh, cs: CoefficientSet, density: DensityField
) -> DriftDecomposition:
    """Decompose the drift: B = H - (a^T grad rho) / rho at quadrature points.

    B is invariant under rescaling of rho. It is formed per block of
    elements: each block adds its part of D and of the flux vector, and
    writes |B|^d into the one (ne, nq) array of ||B||_{L^d} (see
    DriftDecomposition), each by the arithmetic of a whole-mesh call. The
    quadratic defect max_j |int <B, grad(phi_j^2)> rho dx| over
    interior j is reported (it vanishes only in the continuum; it must
    decay under refinement).
    """
    grads, vols = element_geometry(mesh)
    weights = quadrature_rule(mesh.dim).weights
    grad_rho = density.rho.element_gradients()
    plan, elements = mesh._csr_plan, mesh.elements
    d_data = np.zeros(plan.indices.size)
    flux_vec, diagonal = np.zeros(mesh.num_vertices), np.zeros(mesh.num_vertices)
    # |B|^d, the one (ne, nq) array of the decomposition
    b_powers = np.empty((mesh.num_elements, weights.size))
    for block in _blocks(mesh.num_elements):
        rho_q = density.rho.at_quad(block)
        if (rho_q <= 0).any():
            raise DensityNotPositive(
                f"density is not positive at a quadrature point: {rho_q.min():.3e}"
            )
        pts = physical_quad_points(mesh, block)
        a_q = _at_quad(cs.a, mesh, block, (mesh.dim,) * 2, "matrix field", pts)
        h_q = _at_quad(cs.drift, mesh, block, (mesh.dim,), "vector field", pts)
        # (a^T grad rho)_a = sum_b a_ba (grad rho)_b, one row of a at a time
        flux = sum(grad_rho[block, None, b, None] * a_q[:, :, b] for b in range(mesh.dim))
        b_q = h_q - flux / rho_q[:, :, None]
        wr = rho_q * (vols[block, None] * weights)
        local = _drift_element(wr, b_q, grads[block])
        # the sums of fem's scatters, in element order
        ids = elements[block].ravel()
        np.add.at(d_data, plan.slots[block].ravel(), local.ravel())
        np.add.at(flux_vec, ids, _flux_local(wr, b_q, grads[block]).ravel())
        np.add.at(diagonal, ids, np.diagonal(local, axis1=1, axis2=2).ravel())
        # |B| as np.linalg.norm sums the squares, in a quarter of its time,
        # raised to the power d in place, as quadrature_norm does
        out = b_powers[block]
        np.sqrt(sum(b_q[:, :, k] * b_q[:, :, k] for k in range(mesh.dim)), out=out)
        out **= float(mesh.dim)

    # int <B, grad(phi_j^2)> rho dx is -2 D[j, j] for the drift block of B
    defect_all = -2.0 * diagonal
    return DriftDecomposition(
        d=_csr(mesh, d_data),
        flux=flux_vec,
        b_norm=_root_of_sum(mesh, b_powers, float(mesh.dim)),
        rho=density.rho,
        quadratic_defect=float(np.abs(defect_all[mesh.interior]).max()),
    )


def divergence_free_residual(
    mesh: SimplicialMesh, decomposition: DriftDecomposition
) -> dict:
    """Residuals r_j = int <B, grad phi_j> rho dx against interior tests.

    By construction of B this equals the stationarity-equation residual of
    the solved density (same quadrature, same samples), so it inherits the
    linear-solver tolerance.
    """
    vec = decomposition.flux
    interior = mesh.interior
    max_resid = float(np.abs(vec[interior]).max())
    return {
        "max_residual": max_resid,
        "per_test": vec,
        "interior": interior,
        "quadratic_defect": decomposition.quadratic_defect,
    }
