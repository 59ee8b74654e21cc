"""Assembly on the per-mesh CSR plan against a reference COO assembly."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fplab import (
    CoefficientSet,
    DensityField,
    DriftDecomposition,
    assemble_drift,
    assemble_form,
    assemble_load,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    build_ball_mesh,
    build_box_mesh,
    element_geometry,
    interpolate,
    lumped_weights,
    matrix_at_quad,
    physical_quad_points,
    quadrature_rule,
    read_mesh,
    scalar_at_quad,
    stationarity_matrix,
    vector_at_quad,
    write_mesh,
)
from fplab.fem import _scatter

RTOL = 1e-13


def coo_reference(mesh, a, b, rho):
    """S, D and M from 5-operand einsums and a COO-to-CSR conversion."""
    rule = quadrature_rule(mesh.dim)
    grads, vols = element_geometry(mesh)
    a_q = matrix_at_quad(a, mesh)
    b_q = vector_at_quad(b, mesh)
    rho_q = scalar_at_quad(1.0 if rho is None else rho, mesh)
    phi, w = rule.points, rule.weights
    local_s = np.einsum("eai,eqab,ebj,eq,q->eij", grads, a_q, grads, rho_q, w)
    local_d = -np.einsum("qi,eqa,eaj,eq,q->eij", phi, b_q, grads, rho_q, w)
    local_m = np.einsum("qi,qj,eq,q->eij", phi, phi, rho_q, w)
    nloc = mesh.dim + 1
    rows = np.repeat(mesh.elements, nloc, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, nloc)).ravel()
    shape = (mesh.num_vertices,) * 2
    return [
        sp.coo_matrix(((x * vols[:, None, None]).ravel(), (rows, cols)), shape=shape).tocsr()
        for x in (local_s, local_d, local_m)
    ]


def random_fields(dim, seed, constant_a, constant_b, weighted):
    """Constant or affine a and b, and an affine weight positive on [0, 4]^dim."""
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
    a1 = 0.2 * rng.standard_normal((dim, dim, dim))
    b0, b1 = rng.standard_normal(dim), rng.standard_normal((dim, dim))
    a = a0 if constant_a else (lambda x: a0 + np.einsum("...k,kij->...ij", x, a1))
    b = b0 if constant_b else (lambda x: b0 + x @ b1)
    slope = 0.1 * rng.random(dim)
    rho = (lambda x: 1.0 + x @ slope) if weighted else None
    return a, b, rho


def assert_close(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    scale = np.abs(want.data).max()
    assert np.abs(got.data - want.data).max() <= RTOL * scale


mesh_and_fields = st.tuples(
    st.sampled_from([2, 3]),
    st.lists(st.integers(1, 4), min_size=3, max_size=3),
    st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


def build(case):
    dim, cells, extents, seed, constant_a, constant_b, weighted = case
    mesh = build_box_mesh(np.zeros(dim), np.asarray(extents[:dim]), cells[:dim])
    return mesh, random_fields(dim, seed, constant_a, constant_b, weighted)


@settings(max_examples=25, deadline=None)
@given(case=mesh_and_fields)
def test_plan_assembly_matches_the_coo_reference(case):
    mesh, (a, b, rho) = build(case)
    s_ref, d_ref, m_ref = coo_reference(mesh, a, b, rho)
    assert_close(assemble_weighted_stiffness(mesh, a, rho=rho), s_ref)
    assert_close(assemble_drift(mesh, b, rho=rho), d_ref)
    assert_close(assemble_weighted_mass(mesh, rho=rho), m_ref)


@settings(max_examples=25, deadline=None)
@given(case=mesh_and_fields)
def test_transposed_scatter_is_the_transpose(case):
    mesh, (a, b, _) = build(case)
    shape = (mesh.num_elements, mesh.dim + 1, mesh.dim + 1)
    local = np.random.default_rng(case[3]).standard_normal(shape)
    kernel = local.__getitem__
    transposed = _scatter(mesh, kernel, transpose=True)
    # the same entries summed in the same element order
    assert (transposed != _scatter(mesh, kernel).T).nnz == 0
    cs = CoefficientSet(name="affine", dim=mesh.dim, a=a, lam=1.0, m_bound=1.0, drift=b)
    s_ref, d_ref, _ = coo_reference(mesh, a, b, None)
    assert_close(stationarity_matrix(mesh, cs), (s_ref + d_ref).T.tocsr())


@settings(max_examples=25, deadline=None)
@given(case=mesh_and_fields)
def test_plan_assembly_identities(case):
    mesh, (a, b, rho) = build(case)
    ones = np.ones(mesh.num_vertices)
    s = assemble_weighted_stiffness(mesh, a, rho=rho)
    assert np.abs(s @ ones).max() <= RTOL * np.abs(s.data).max()
    m = assemble_weighted_mass(mesh, rho=rho)
    weights = lumped_weights(mesh, rho=rho)
    assert np.abs(m @ ones - weights).max() <= RTOL * weights.max()

    weight = interpolate(mesh, 1.0 if rho is None else rho)
    density = DensityField(
        rho=weight, rho_min=1.0, rho_max=1.0, residual=0.0, residual_scale=1.0
    )
    decomposition = DriftDecomposition(
        d=assemble_drift(mesh, b, rho=weight),
        flux=np.zeros(mesh.num_vertices),
        b_norm=0.0,
        rho=weight,
        quadratic_defect=0.0,
    )
    cs = CoefficientSet(name="affine", dim=mesh.dim, a=a, lam=1.0, m_bound=1.0, drift=b)
    d = assemble_form(mesh, cs, density, decomposition, d_mode="skew").d
    x = np.random.default_rng(case[3]).standard_normal(mesh.num_vertices)
    assert abs(x @ (d @ x)) <= RTOL * np.abs(d.data).max() * (x @ x)


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.0, 0.0, 0.0)])
def test_plan_is_read_only_and_cached(center):
    mesh = build_ball_mesh(center, 1.0, levels=1)
    plan = mesh._csr_plan
    assert mesh._csr_plan is plan
    for arr in plan:
        assert arr.dtype == np.int32
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0
    # the transpose map is an involution that swaps row and column
    rows = plan.rows()
    assert np.array_equal(plan.transpose[plan.transpose], np.arange(plan.indices.size))
    assert np.array_equal(plan.indices[plan.transpose], rows)


def unique_plan(mesh):
    """The plan from one np.unique over an int64 key per element entry,
    which sorts like (row, column)."""
    nv, elements = mesh.num_vertices, mesh.elements
    keys, slots = np.unique(
        elements[:, :, None] * nv + elements[:, None, :], return_inverse=True
    )
    slots = slots.reshape(elements.shape + elements.shape[1:])
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // nv, minlength=nv), out=indptr[1:])
    transpose = np.empty(keys.size, dtype=np.int64)
    transpose[slots] = slots.transpose(0, 2, 1)
    return [a.astype(np.int32) for a in (indptr, keys % nv, slots, transpose)]


def read_back(mesh, tmp_path):
    write_mesh(mesh, tmp_path / "mesh.npz")
    return read_mesh(tmp_path / "mesh.npz")


@pytest.mark.parametrize(
    "make",
    [
        lambda _: build_ball_mesh((0.0, 0.0), 1.0, levels=3),
        lambda _: build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=2),
        lambda _: build_box_mesh((0.0, 0.0, 0.0), (1.0, 2.0, 1.0), 4),
        lambda _: build_box_mesh((0.0, 0.0), (1.0, 2.0), (3, 5)),
        # a read mesh has no lineage
        lambda tmp: read_back(build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=1), tmp),
        lambda tmp: read_back(build_box_mesh((0.0, 0.0), (1.0, 1.0), 4), tmp),
    ],
    ids=["disk", "ball", "box 2**k", "box", "read ball", "read box"],
)
def test_plan_from_edges_equals_the_unique_plan(make, tmp_path):
    mesh = make(tmp_path)
    plan = mesh._csr_plan
    for got, want in zip(plan, unique_plan(mesh)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("center", [(0.1, -0.2), (0.1, -0.2, 0.3)])
def test_kernels_ignore_the_memory_layout_of_a_sampled_field(center):
    mesh = build_ball_mesh(center, 1.3, levels=2)
    dim = mesh.dim
    pts = physical_quad_points(mesh)
    stacked = np.concatenate([pts, pts[..., :1]], axis=-1)
    fields = np.einsum("eqa,eqb->eqab", stacked, stacked) + np.eye(dim + 1)
    view = fields[:, :, :dim, :dim]  # strided
    layouts = [view, np.ascontiguousarray(view), np.asfortranarray(view)]
    s = [assemble_weighted_stiffness(mesh, f).data for f in layouts]
    d = [assemble_drift(mesh, f[..., 0]).data for f in layouts]
    load = [assemble_load(mesh, flux=f[..., 1]) for f in layouts]
    for got in (s, d, load):
        assert all(np.array_equal(got[0], other) for other in got[1:])
    # a broadcast constant and its materialized copy
    a = np.diag(np.arange(1.0, dim + 1.0))
    full = np.ascontiguousarray(np.broadcast_to(a, view.shape))
    constant, materialized = (assemble_weighted_stiffness(mesh, x).data for x in (a, full))
    assert np.array_equal(constant, materialized)
