"""Simplicial meshes of balls and boxes in two and three dimensions.

Construction is fully deterministic: ball meshes come from a fixed layered
template (concentric rings in 2D, an octahedral fan in 3D) refined uniformly
with radial projection of new boundary vertices; box meshes come from the
Kuhn subdivision of a tensor grid. Meshes are immutable once built.

All topology (boundary facets, the conformity audit, the boundary edges that
refinement projects) comes from one facet table, and refinement and Kuhn
subdivision are fixed local index tables applied to every element at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations
from typing import NamedTuple, Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import (
    InvalidBox,
    InvalidRadius,
    RefinementTooDeep,
    SingularElement,
)
from .quadrature import quadrature_rule

MAX_LEVELS = 8
_BOUNDARY_RTOL = 1e-12

_FACTORIAL = {2: 2.0, 3: 6.0}

# local edges and facets of a d-simplex, in itertools.combinations order
_LOCAL_EDGES = {d: list(combinations(range(d + 1), 2)) for d in (1, 2, 3)}
_LOCAL_FACETS = {d: list(combinations(range(d + 1), d)) for d in (2, 3)}

# Red-refinement children as rows into an element's local vertex array: its
# vertices, then its edge midpoints in _LOCAL_EDGES order (2D: 3 m01, 4 m02,
# 5 m12; 3D: 4 m01, 5 m02, 6 m03, 7 m12, 8 m13, 9 m23).
_RED_CHILDREN_2D = np.array([[0, 3, 4], [1, 5, 3], [2, 4, 5], [3, 5, 4]])
_RED_CORNERS_3D = np.array([[0, 4, 5, 6], [1, 4, 7, 8], [2, 5, 7, 9], [3, 6, 8, 9]])
# The inner octahedron is cut along one of its three diagonals (m01-m23,
# m02-m13, m03-m12); each row holds the 4 tetrahedra around that diagonal,
# one per pair of equatorial midpoints that share a parent vertex.
_OCTAHEDRON_DIAGONALS = np.array([[4, 9], [5, 8], [6, 7]])
_OCTAHEDRON_CHILDREN = np.array([
    [[4, 9, 5, 6], [4, 9, 5, 7], [4, 9, 6, 8], [4, 9, 7, 8]],
    [[5, 8, 4, 6], [5, 8, 4, 7], [5, 8, 6, 9], [5, 8, 7, 9]],
    [[6, 7, 4, 5], [6, 7, 4, 8], [6, 7, 5, 9], [6, 7, 8, 9]],
])

# parts of at most this many vertices are not dissected further
_DISSECTION_LEAF = 64


@dataclass(frozen=True)
class Ball:
    """Ball domain descriptor."""

    center: tuple
    radius: float

    @property
    def dim(self) -> int:
        return len(self.center)

    def boundary_mask(self, vertices: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(vertices - np.asarray(self.center), axis=1)
        return np.abs(r - self.radius) <= _BOUNDARY_RTOL * max(self.radius, 1.0)

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class Box:
    """Axis-aligned box domain descriptor."""

    lo: tuple
    hi: tuple

    @property
    def dim(self) -> int:
        return len(self.lo)

    def boundary_mask(self, vertices: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        scale = np.maximum(np.abs(lo), np.maximum(np.abs(hi), 1.0))
        on_lo = np.abs(vertices - lo) <= _BOUNDARY_RTOL * scale
        on_hi = np.abs(vertices - hi) <= _BOUNDARY_RTOL * scale
        return (on_lo | on_hi).any(axis=1)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(np.asarray(self.hi) - np.asarray(self.lo)))


Domain = Union[Ball, Box]


@dataclass(frozen=True)
class SimplicialMesh:
    """Conforming simplicial mesh.

    Attributes
    ----------
    dim : int
        Ambient (and element) dimension, 2 or 3.
    vertices : ndarray, shape (nv, dim)
    elements : ndarray, shape (ne, dim + 1)
        Vertex indices, positively oriented.
    boundary : ndarray of bool, shape (nv,)
        Per-vertex boundary flags (analytic against the domain descriptor
        when one is attached, otherwise as read from file; refine_uniform
        carries them to the finer mesh).
    domain : Ball | Box | None
        Descriptor used for boundary detection and refinement projection.
    lineage : tuple of RefinementLevel
        The meshes this one was refined from by refine_uniform, coarsest
        first; empty for a mesh that was built or read, not refined.
    """

    dim: int
    vertices: np.ndarray
    elements: np.ndarray
    boundary: np.ndarray
    domain: Optional[Domain] = None
    lineage: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.elements.setflags(write=False)
        self.boundary.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def interior(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary)

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """Nested-dissection vertex order, computed once per mesh.

        A permutation of range(num_vertices) that puts each part's vertex
        separator after both halves it separates (George 1973), so a sparse
        LU of a P1 system taken in this order fills far less than in the
        mesh's own numbering. Slicing an index set in this order (for
        instance `order[~boundary[order]]`) keeps the property.
        """
        # the P1 graph's edges (i < j), in lexicographic order
        plan = self._csr_plan
        rows = plan.rows()
        upper = plan.indices > rows
        edges = np.stack([rows[upper], plan.indices[upper]], axis=1)
        order = _dissection_order(self.vertices, edges)
        order.setflags(write=False)
        return order

    # Element geometry (basis gradients, volumes, quadrature points)
    # and the CSR plan of the P1 graph are computed on first use and kept
    # read-only for the life of the mesh; every assembly, norm and audit
    # reads them. Element coordinates are not kept: each cached array
    # gathers them once.

    @cached_property
    def _gradients(self) -> np.ndarray:
        # a compact copy, not a view that keeps the whole inverse alive
        return _read_only(np.ascontiguousarray(_p1_gradients(self.element_coords())))

    @cached_property
    def _volumes(self) -> np.ndarray:
        return _read_only(signed_volumes(self.vertices, self.elements, self.dim))

    @cached_property
    def _quad_points(self) -> np.ndarray:
        """Physical coordinates of the points of quadrature_rule(dim) in
        every element, shape (ne, nq, dim)."""
        # sum bary[q, k] x_k over k in order, from zero: the bits of
        # np.einsum("qk,ekd->eqd", bary, coords) at a fraction of its cost
        bary = quadrature_rule(self.dim).points
        coords = [self.vertices[self.elements[:, k]] for k in range(self.dim + 1)]
        pts = np.empty((self.num_elements, len(bary), self.dim))
        for q, weights in enumerate(bary):
            acc = np.zeros_like(coords[0])
            for w, x in zip(weights, coords):
                acc += w * x
            pts[:, q] = acc
        return _read_only(pts)

    @cached_property
    def _csr_plan(self) -> CsrPlan:
        return _csr_plan(self)

    def _prolongations(self, kept) -> list:
        """Prolongations along the lineage between kept vertices, coarsest first.

        kept is vertex ids of this mesh. A lineage mesh of n vertices keeps
        the kept ones below n, since every lineage vertex keeps its index on
        each finer mesh. Entry k maps values at the kept vertices of lineage
        level k (in index order) to values at the kept vertices of the next
        finer mesh, the last one to this mesh's in the order of kept:
        P = [I; (e_i + e_j) / 2], a coarse vertex keeping its value and a
        midpoint taking the mean of its edge's ends. Values off the kept
        vertices are zero.
        """
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[kept] = True
        out = []
        for level in self.lineage:
            nc, edges = level.num_vertices, level.edges
            mids = np.arange(nc, nc + len(edges))
            rows = np.concatenate([np.arange(nc), np.repeat(mids, 2)])
            cols = np.concatenate([np.arange(nc), edges.ravel()])
            vals = np.concatenate([np.ones(nc), np.full(edges.size, 0.5)])
            p = sp.csr_matrix((vals, (rows, cols)), shape=(nc + len(edges), nc))
            fine = kept if level is self.lineage[-1] else mask[: nc + len(edges)]
            out.append(p[fine][:, mask[:nc]])
        return out

    def element_coords(self) -> np.ndarray:
        """Vertex coordinates per element, shape (ne, dim + 1, dim)."""
        return self.vertices[self.elements]

    def volumes(self) -> np.ndarray:
        return self._volumes

    def total_volume(self) -> float:
        return float(self.volumes().sum())


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class RefinementLevel(NamedTuple):
    """A coarse mesh of a refinement lineage, as read-only arrays.

    The finer mesh's vertices are the num_vertices coarse ones followed by
    one midpoint per row of edges (its two parent vertices, int32, in
    _mesh_edges order).
    """

    num_vertices: int
    edges: np.ndarray  # (nE, 2)


class CsrPlan(NamedTuple):
    """The CSR pattern (sorted columns) of a mesh's P1 graph, read-only int32.

    Element e's local entry (i, j) has data index slots[e, i, j], and the
    entry mirroring data index k across the diagonal has transpose[k].
    """

    indptr: np.ndarray  # (nv + 1,)
    indices: np.ndarray  # (nnz,)
    slots: np.ndarray  # (ne, nloc, nloc)
    transpose: np.ndarray  # (nnz,)

    def rows(self) -> np.ndarray:
        """The row of every entry, shape (nnz,)."""
        return np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))


def _csr_plan(mesh: SimplicialMesh) -> CsrPlan:
    nv, elements = mesh.num_vertices, mesh.elements
    # one int64 key per entry sorts like (row, column), the CSR order
    keys, slots = np.unique(
        elements[:, :, None] * nv + elements[:, None, :], return_inverse=True
    )
    slots = slots.reshape(elements.shape + elements.shape[1:])
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // nv, minlength=nv), out=indptr[1:])
    # local (j, i) mirrors local (i, j) in every element
    transpose = np.empty(keys.size, dtype=np.int64)
    transpose[slots] = slots.transpose(0, 2, 1)
    arrays = (indptr, keys % nv, slots, transpose)
    return CsrPlan(*(_read_only(a.astype(np.int32)) for a in arrays))


def signed_volumes(vertices: np.ndarray, elements: np.ndarray, dim: int) -> np.ndarray:
    coords = vertices[elements]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    det = np.linalg.det(edges)
    return det / _FACTORIAL[dim]


def _orient_and_build(
    vertices, elements, dim, domain, boundary=None, lineage=()
) -> SimplicialMesh:
    vertices = np.ascontiguousarray(vertices, dtype=float)
    elements = np.ascontiguousarray(elements, dtype=np.int64)
    vols = signed_volumes(vertices, elements, dim)
    flip = vols < 0
    if flip.any():
        elements = elements.copy()
        elements[flip, -2], elements[flip, -1] = (
            elements[flip, -1].copy(),
            elements[flip, -2].copy(),
        )
        vols = signed_volumes(vertices, elements, dim)
    if (vols <= 0).any():
        bad = int(np.argmax(vols <= 0))
        raise SingularElement(f"element {bad} has volume {vols[bad]:.3e}")
    if boundary is None:
        boundary = domain.boundary_mask(vertices)
    boundary = np.ascontiguousarray(boundary, dtype=bool)
    mesh = SimplicialMesh(
        dim=dim,
        vertices=vertices,
        elements=elements,
        boundary=boundary,
        domain=domain,
        lineage=lineage,
    )
    # seed the cached volumes (cached_property keeps its value in __dict__)
    mesh.__dict__["_volumes"] = _read_only(vols)
    return mesh


def _check_levels(levels: int):
    if not isinstance(levels, (int, np.integer)) or levels < 0:
        raise RefinementTooDeep(f"levels must be a non-negative integer, got {levels!r}")
    if levels > MAX_LEVELS:
        raise RefinementTooDeep(f"levels={levels} exceeds the supported depth {MAX_LEVELS}")


def _disk_template(center: np.ndarray, radius: float) -> SimplicialMesh:
    # Two concentric rings: 6 vertices at radius/2, 12 at the boundary.
    # 24 triangles total; the boundary polygon is a regular 12-gon (area 3 r^2).
    verts = [center]
    for k in range(6):
        t = 2 * np.pi * k / 6
        verts.append(center + 0.5 * radius * np.array([np.cos(t), np.sin(t)]))
    for k in range(12):
        t = 2 * np.pi * k / 12
        verts.append(center + radius * np.array([np.cos(t), np.sin(t)]))
    a = [1 + k for k in range(6)]          # inner ring
    b = [7 + k for k in range(12)]         # outer ring
    tris = []
    for k in range(6):
        a0, a1 = a[k], a[(k + 1) % 6]
        b0, b1, b2 = b[2 * k], b[2 * k + 1], b[(2 * k + 2) % 12]
        tris.append((0, a0, a1))
        tris.append((a0, b0, b1))
        tris.append((a0, b1, a1))
        tris.append((a1, b1, b2))
    domain = Ball(center=tuple(center), radius=radius)
    return _orient_and_build(np.array(verts), np.array(tris), 2, domain)


def _ball_template(center: np.ndarray, radius: float) -> SimplicialMesh:
    # Octahedron inscribed in the sphere, fanned through the center: 8 tets.
    verts = [center]
    for axis in range(3):
        for sign in (1.0, -1.0):
            v = center.copy()
            v[axis] += sign * radius
            verts.append(v)
    plus = [1, 3, 5]
    minus = [2, 4, 6]
    tets = []
    for s0 in (0, 1):
        for s1 in (0, 1):
            for s2 in (0, 1):
                i = plus[0] if s0 == 0 else minus[0]
                j = plus[1] if s1 == 0 else minus[1]
                k = plus[2] if s2 == 0 else minus[2]
                tets.append((0, i, j, k))
    domain = Ball(center=tuple(center), radius=radius)
    return _orient_and_build(np.array(verts), np.array(tets), 3, domain)


def build_ball_mesh(center, radius: float, levels: int = 0) -> SimplicialMesh:
    """Mesh a ball by uniform refinement of a fixed layered template.

    New boundary vertices created by refinement are projected onto the
    sphere, so the mesh volume increases monotonically toward the ball
    volume at the standard O(4^-levels) rate.

    Parameters
    ----------
    center : sequence of float
        Ball center; its length fixes the dimension (2 or 3).
    radius : float
        Positive finite radius.
    levels : int
        Number of uniform refinements of the template, at most 8.
    """
    center = np.asarray(center, dtype=float)
    dim = center.shape[0]
    if dim not in (2, 3):
        raise ValueError(f"ball center must have length 2 or 3, got {dim}")
    if not np.isfinite(radius) or radius <= 0:
        raise InvalidRadius(f"radius must be positive and finite, got {radius!r}")
    _check_levels(levels)
    mesh = _disk_template(center, radius) if dim == 2 else _ball_template(center, radius)
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    return mesh


def build_box_mesh(lo, hi, cells_per_axis) -> SimplicialMesh:
    """Kuhn-subdivide a tensor grid on an axis-aligned box.

    Every grid cell is split along the same lo-to-hi diagonal (2 triangles in
    2D, 6 tetrahedra in 3D), which yields a conforming, nonobtuse mesh.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dim = lo.shape[0]
    if dim not in (2, 3) or hi.shape[0] != dim:
        raise InvalidBox("box bounds must both have length 2 or 3")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()) or (hi <= lo).any():
        raise InvalidBox(f"box bounds must satisfy lo < hi per axis, got lo={lo}, hi={hi}")
    if np.isscalar(cells_per_axis) or isinstance(cells_per_axis, (int, np.integer)):
        cells = np.full(dim, int(cells_per_axis))
    else:
        cells = np.asarray(cells_per_axis, dtype=int)
    if (cells < 1).any():
        raise InvalidBox(f"cells_per_axis must be >= 1, got {cells}")

    axes = [np.linspace(lo[d], hi[d], cells[d] + 1) for d in range(dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    vertices = np.stack([g.ravel() for g in grids], axis=1)
    # path simplices: each permutation of the axes walks from a cell's lo
    # corner to its hi corner, one unit step per axis
    steps = np.eye(dim, dtype=np.int64)[list(permutations(range(dim)))]
    paths = np.pad(steps.cumsum(axis=1), ((0, 0), (1, 0), (0, 0)))  # lo corner first
    corners = np.indices(cells).reshape(dim, -1).T
    grid_index = corners[:, None, None, :] + paths  # (corner, path, step, axis)
    # vertex ids follow the C order of the meshgrid above
    elements = np.ravel_multi_index(np.moveaxis(grid_index, -1, 0), cells + 1)
    domain = Box(lo=tuple(lo), hi=tuple(hi))
    return _orient_and_build(vertices, elements.reshape(-1, dim + 1), dim, domain)


def _mesh_edges(mesh: SimplicialMesh):
    """Distinct edges as sorted rows in lexicographic order, shape (nE, 2),
    and each element's edge ids in _LOCAL_EDGES order, shape (ne, nloc)."""
    pairs = np.sort(mesh.elements[:, _LOCAL_EDGES[mesh.dim]], axis=2).reshape(-1, 2)
    # one int64 key per pair sorts like the rows and uniques far faster
    nv = mesh.num_vertices
    keys, element_edges = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_inverse=True)
    edges = np.stack([keys // nv, keys % nv], axis=1)
    return edges, element_edges.reshape(mesh.num_elements, -1)


def _facet_table(mesh: SimplicialMesh):
    """Every element facet as a sorted row, with its distinct-facet id and count.

    Rows are element-major: rows k*(dim+1) .. k*(dim+1)+dim are the facets of
    element k in _LOCAL_FACETS order over its sorted vertex ids. Returns
    (facets, ids, counts) with facets of shape (ne*(dim+1), dim), ids[row]
    the row's distinct facet and counts[id] the number of rows sharing it.
    """
    dim, nv = mesh.dim, mesh.num_vertices
    facets = np.sort(mesh.elements, axis=1)[:, _LOCAL_FACETS[dim]].reshape(-1, dim)
    # one int64 key per row
    key = facets[:, 0] * nv + facets[:, 1]
    if dim == 3:
        # rank the leading pair first: (f0 nv + f1) nv + f2 would overflow
        # int64 beyond 2^21 vertices, the rank times nv does not
        key = np.unique(key, return_inverse=True)[1] * nv + facets[:, 2]
    _, ids, counts = np.unique(key, return_inverse=True, return_counts=True)
    return facets, ids, counts


def _dissection_order(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Geometric nested dissection, built level by level over the edge list.

    Every live part with more than _DISSECTION_LEAF vertices is cut at the
    median of its longest coordinate axis (coord >= median goes right, so
    ties on structured grids stay on one side of a straight cut); the
    lower-side endpoints of the edges crossing the cut form the part's
    separator. A part that cannot be cut becomes a leaf. Each vertex ends
    in one tree node (path bits, depth); sorting the nodes in postorder
    (left subtree, right subtree, separator) gives the order.
    """
    nv = vertices.shape[0]
    path = np.zeros(nv, dtype=np.int64)
    depth = np.zeros(nv, dtype=np.int64)
    live = np.ones(nv, dtype=bool)
    level = 0
    while live.any():
        idx = np.flatnonzero(live)
        # group the live vertices by part
        _, part, counts = np.unique(path[idx], return_inverse=True, return_counts=True)
        grouped = np.argsort(part, kind="stable")
        idx, part = idx[grouped], part[grouped]
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        x = vertices[idx]
        extent = np.maximum.reduceat(x, starts, axis=0) - np.minimum.reduceat(
            x, starts, axis=0
        )
        coord = x[np.arange(idx.size), np.argmax(extent, axis=1)[part]]
        by_coord = coord[np.lexsort((coord, part))]
        lower, upper = starts + (counts - 1) // 2, starts + counts // 2
        median = 0.5 * (by_coord[lower] + by_coord[upper])
        right = coord >= median[part]
        n_left = np.bincount(part, weights=~right, minlength=counts.size)
        cut = (counts > _DISSECTION_LEAF) & (n_left > 0)
        # parts left uncut are leaves
        live[idx[~cut[part]]] = False
        idx, right = idx[cut[part]], right[cut[part]]
        side = np.zeros(nv, dtype=bool)
        side[idx] = right
        a, b = edges[:, 0], edges[:, 1]
        crossing = live[a] & live[b] & (path[a] == path[b]) & (side[a] != side[b])
        separator = np.where(side[a], b, a)[crossing]
        # the separator stays in the node being cut; the rest moves down
        live[separator] = False
        moved = idx[live[idx]]
        path[moved] = 2 * path[moved] + side[moved]
        level += 1
        depth[moved] = level
        edges = edges[live[a] & live[b]]
    top = int(depth.max())
    key = ((path + 1) << (top - depth)) - 1
    return np.lexsort((-depth, key))


def boundary_facets(mesh: SimplicialMesh):
    """Facets owned by exactly one element.

    Returns
    -------
    list of (facet, element) pairs; facet is a sorted tuple of vertex ids.
    The pairs come in element order, and an element's facets in
    itertools.combinations order over its sorted vertex ids.
    weak_divergence_matrix sums its boundary flux in this order, so the
    order fixes the last bits of the recovered divergence and of the
    constants computed from it.
    """
    facets, ids, counts = _facet_table(mesh)
    rows = np.flatnonzero(counts[ids] == 1)
    owners = rows // (mesh.dim + 1)
    return list(zip(map(tuple, facets[rows].tolist()), owners.tolist()))


def check_conformity(mesh: SimplicialMesh) -> dict:
    """Validate facet sharing and boundary-flag consistency.

    Every facet must be owned by one element (boundary) or exactly two
    (interior); boundary-facet vertices must carry the boundary flag.
    """
    facets, ids, counts = _facet_table(mesh)
    boundary = facets[counts[ids] == 1]
    over = int((counts > 2).sum())
    flag_errors = int((~mesh.boundary[boundary].all(axis=1)).sum())
    return {
        "conforming": not over and not flag_errors,
        "num_boundary_facets": len(boundary),
        "overshared_facets": over,
        "flag_mismatches": flag_errors,
    }


def refine_uniform(mesh: SimplicialMesh) -> SimplicialMesh:
    """Red refinement: split every element by its edge midpoints.

    Midpoints of boundary edges of a ball mesh are projected onto the
    sphere. Every coarse vertex keeps its index and boundary flag; a
    midpoint is flagged when its edge lies on a boundary facet whose
    vertices are all flagged, so flags set by hand survive refinement.
    Triangles yield 4 children; tetrahedra yield 4 corner children plus 4
    from the inner octahedron, split along its shortest diagonal (Bey
    1995). The refined mesh's lineage is the coarse mesh's plus the
    coarse mesh itself, kept as a RefinementLevel.
    """
    dim, nv = mesh.dim, mesh.num_vertices
    edges, element_edges = _mesh_edges(mesh)
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])

    facets, ids, counts = _facet_table(mesh)
    outer = facets[counts[ids] == 1]
    facet_edges = outer[:, _LOCAL_EDGES[dim - 1]].reshape(-1, 2)
    edge_keys = edges[:, 0] * nv + edges[:, 1]
    on_facet = np.searchsorted(edge_keys, facet_edges[:, 0] * nv + facet_edges[:, 1])
    if isinstance(mesh.domain, Ball) and on_facet.size:
        c = np.asarray(mesh.domain.center)
        v = mids[on_facet] - c
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        mids[on_facet] = c + mesh.domain.radius * v / norms
    flagged = mesh.boundary[outer].all(axis=1).repeat(len(_LOCAL_EDGES[dim - 1]))
    boundary = np.concatenate([mesh.boundary, np.zeros(len(edges), dtype=bool)])
    boundary[nv + on_facet[flagged]] = True

    vertices = np.vstack([mesh.vertices, mids])
    local = np.concatenate([mesh.elements, nv + element_edges], axis=1)
    if dim == 2:
        children = local[:, _RED_CHILDREN_2D]
    else:
        ends = vertices[local[:, _OCTAHEDRON_DIAGONALS]]  # (ne, 3, 2, dim)
        lengths = ((ends[:, :, 0] - ends[:, :, 1]) ** 2).sum(axis=2)
        octahedron = _OCTAHEDRON_CHILDREN[np.argmin(lengths, axis=1)]
        rows = np.arange(len(local))[:, None, None]
        children = np.concatenate(
            [local[:, _RED_CORNERS_3D], local[rows, octahedron]], axis=1
        )
    level = RefinementLevel(nv, _read_only(edges.astype(np.int32)))
    return _orient_and_build(
        vertices,
        children.reshape(-1, dim + 1),
        dim,
        mesh.domain,
        boundary=boundary,
        lineage=mesh.lineage + (level,),
    )


def _p1_gradients(coords: np.ndarray) -> np.ndarray:
    """Barycentric basis gradients from element coordinates (ne, dim + 1, dim).

    Column k of each (dim, dim + 1) block is the gradient of vertex k's
    basis function. For k >= 1 it is column k of the inverse of the matrix
    with rows e_j = x_j - x_0, formed by cofactors (in 3D, e.g., the cross
    product of the two other edges over the determinant); the gradients sum
    to zero.
    """
    e = coords[:, 1:] - coords[:, :1]
    if coords.shape[2] == 2:
        cof = np.stack([e[:, 1, ::-1] * [1.0, -1.0], e[:, 0, ::-1] * [-1.0, 1.0]], axis=2)
    else:
        cof = np.stack([np.cross(e[:, (k + 1) % 3], e[:, (k + 2) % 3]) for k in range(3)], axis=2)
    grads = cof / np.einsum("ed,ed->e", e[:, 0], cof[:, :, 0])[:, None, None]
    return np.concatenate([-grads.sum(axis=2, keepdims=True), grads], axis=2)


def mesh_quality(mesh: SimplicialMesh) -> dict:
    """Volume extremes, shape regularity, and the acuteness flag.

    The acuteness flag is true iff every element's identity-diffusion
    stiffness block has non-positive off-diagonal entries, which is the
    property the discrete maximum principle needs.
    """
    coords = mesh.element_coords()
    vols = mesh.volumes()
    ne, nloc, dim = coords.shape

    grads = mesh._gradients  # (ne, dim, nloc)

    # sum over d in order, from zero: the bits of np.einsum("edi,edj->eij")
    gram = np.zeros((ne, nloc, nloc))
    for d in range(dim):
        g = grads[:, d]
        gram += g[:, :, None] * g[:, None, :]
    gram *= vols[:, None, None]
    off = ~np.eye(nloc, dtype=bool)
    max_off = gram[:, off].max()
    scale = np.abs(gram).max()
    acute = bool(max_off <= 1e-12 * scale)

    ends = np.array(_LOCAL_EDGES[dim]).T
    edges_sq = ((coords[:, ends[0]] - coords[:, ends[1]]) ** 2).sum(axis=2)
    longest = np.sqrt(edges_sq.max(axis=1))

    # inradius = dim * vol / (sum of facet measures)
    facet_meas = np.zeros(ne)
    for f in _LOCAL_FACETS[dim]:
        fc = coords[:, list(f), :]
        if dim == 2:
            facet_meas += np.linalg.norm(fc[:, 1] - fc[:, 0], axis=1)
        else:
            cr = np.cross(fc[:, 1] - fc[:, 0], fc[:, 2] - fc[:, 0])
            facet_meas += 0.5 * np.linalg.norm(cr, axis=1)
    inradius = dim * vols / facet_meas

    return {
        "min_volume": float(vols.min()),
        "max_volume": float(vols.max()),
        "total_volume": float(vols.sum()),
        "shape_regularity": float((longest / inradius).max()),
        "max_edge": float(longest.max()),
        "acute": acute,
        "num_vertices": mesh.num_vertices,
        "num_elements": mesh.num_elements,
    }


def write_mesh(mesh: SimplicialMesh, path):
    """Store vertices, elements, boundary flags, and the domain descriptor
    as an uncompressed npz archive."""
    extra = {}
    if isinstance(mesh.domain, Ball):
        extra["domain_kind"] = np.array("ball")
        extra["domain_a"] = np.asarray(mesh.domain.center, dtype=float)
        extra["domain_b"] = np.array([mesh.domain.radius], dtype=float)
    elif isinstance(mesh.domain, Box):
        extra["domain_kind"] = np.array("box")
        extra["domain_a"] = np.asarray(mesh.domain.lo, dtype=float)
        extra["domain_b"] = np.asarray(mesh.domain.hi, dtype=float)
    np.savez(
        path,
        dim=np.array([mesh.dim]),
        vertices=mesh.vertices,
        elements=mesh.elements,
        boundary=mesh.boundary,
        **extra,
    )


def read_mesh(path) -> SimplicialMesh:
    """Read a write_mesh archive, orienting and checking elements as the builders do."""
    with np.load(path, allow_pickle=False) as data:
        domain = None
        if "domain_kind" in data:
            if str(data["domain_kind"]) == "ball":
                domain = Ball(
                    center=tuple(float(c) for c in data["domain_a"]),
                    radius=float(data["domain_b"][0]),
                )
            else:
                domain = Box(
                    lo=tuple(float(c) for c in data["domain_a"]),
                    hi=tuple(float(c) for c in data["domain_b"]),
                )
        return _orient_and_build(
            data["vertices"],
            data["elements"],
            int(data["dim"][0]),
            domain,
            boundary=data["boundary"],
        )
