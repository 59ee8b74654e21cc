"""Blocked quadrature: bits that do not depend on the block size, and
transient memory bounded by a block rather than by the mesh."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import fplab.fem
from fplab import (
    FeFunction,
    build_ball_mesh,
    build_cutoff,
    check_conformity,
    compute_constants,
    decompose_drift,
    divergence_free_residual,
    element_geometry,
    interpolate,
    l2_error,
    lumped_weights,
    matrix_at_quad,
    mesh_quality,
    preset,
    quadrature_norm,
    quadrature_rule,
    sampled_coefficient_set,
    solve_invariant_density,
    scalar_at_quad,
    stationarity_matrix,
    vector_at_quad,
    weak_divergence_matrix,
)
from fplab.forms import assemble_form


def test_samplers_share_the_block_contract():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=2)
    nq = quadrature_rule(2).weights.size
    ne = mesh.num_elements
    rotator = preset("rotator", 2)
    fields = [
        (scalar_at_quad, interpolate(mesh, lambda x: x[0])),
        (scalar_at_quad, lambda x: x[:, 0]),
        (scalar_at_quad, 2.0),
        (scalar_at_quad, np.arange(ne * nq, dtype=float).reshape(ne, nq)),
        (vector_at_quad, lambda x: x),
        (vector_at_quad, np.arange(ne * nq * 2, dtype=float).reshape(ne, nq, 2)),
        (vector_at_quad, weak_divergence_matrix(mesh, rotator.a)),
        (matrix_at_quad, np.eye(2)),
        (matrix_at_quad, rotator.a),
    ]
    ids = np.array([7, 2, 2, ne - 1])
    for sampler, field in fields:
        # a block of a whole-mesh field, a slice or an index array, is the
        # block's rows of its whole sample
        whole = sampler(field, mesh)
        assert whole.shape[:2] == (ne, nq)
        assert np.array_equal(sampler(field, mesh, block=slice(3, 8)), whole[3:8])
        assert np.array_equal(sampler(field, mesh, block=ids), whole[ids])
    with pytest.raises(ValueError, match="scalar field array"):
        scalar_at_quad(np.zeros((5, nq)), mesh, block=slice(3, 8))
    with pytest.raises(ValueError, match="vector field array"):
        vector_at_quad(np.zeros((ne - 1, nq, 2)), mesh, block=slice(3, 8))


@pytest.mark.parametrize("dim, level", [(2, 3), (3, 2)])
def test_pre_evaluated_fields_match_their_callables(dim, level, monkeypatch):
    # whole-mesh samples of a and H, cut per block by the samplers, give the
    # bits of the callables sampled per block; 97 divides neither mesh's
    # element count (1536 and 512)
    monkeypatch.setattr(fplab.fem, "_BLOCK_ELEMENTS", 97)
    mesh = build_ball_mesh((0.0,) * dim, 1.0, levels=level)
    cs = preset("gaussian_gradient", dim)
    sampled = dataclasses.replace(
        cs, a=matrix_at_quad(cs.a, mesh), drift=vector_at_quad(cs.drift, mesh)
    )
    outputs = []
    for c in (cs, sampled):
        density = solve_invariant_density(mesh, c)
        dec = decompose_drift(mesh, c, density)
        out = {"rho": density.rho.values, "D": dec.d.data, "flux": dec.flux, "b_norm": dec.b_norm}
        if dim == 3:
            cutoff = build_cutoff(np.zeros(3), 0.4, 0.8)
            report = compute_constants(c, density, cutoff, density.rho)
            out.update(dataclasses.asdict(report))
        outputs.append(out)
    expected, got = outputs
    assert got.keys() == expected.keys()
    for key in expected:
        assert np.array_equal(got[key], expected[key]), key


def whole_mesh_quadrature_norm(mesh, values, p=2.0, weight=None):
    """The oracle of quadrature_norm: every sample of the mesh at once, and
    the weight as the second operand of one four-operand einsum."""
    vals = scalar_at_quad(values, mesh)
    if np.isinf(p):
        return float(np.abs(vals).max())
    magnitude = np.abs(vals)
    magnitude **= p
    _, vols = element_geometry(mesh)
    weights = quadrature_rule(mesh.dim).weights
    if weight is None:
        total = np.einsum("eq,q,e->", magnitude, weights, vols)
    else:
        rho_q = scalar_at_quad(weight, mesh)
        total = np.einsum("eq,eq,q,e->", magnitude, rho_q, weights, vols)
    return float(total ** (1.0 / p))


# 97 divides neither mesh's element count (1536 and 512)
@pytest.mark.parametrize("size", [1, 97, 2**30])
@pytest.mark.parametrize("dim, level", [(2, 3), (3, 2)])
def test_quadrature_norm_matches_the_whole_mesh_oracle(dim, level, size, monkeypatch):
    mesh = build_ball_mesh((0.0,) * dim, 1.0, levels=level)
    ne, nq, nv = mesh.num_elements, quadrature_rule(dim).weights.size, mesh.num_vertices
    rng = np.random.default_rng(10 * dim + level)
    fields = {
        "array": rng.standard_normal((ne, nq)) * 10.0 ** rng.uniform(-3, 3, (ne, 1)),
        "P1": FeFunction(mesh, rng.standard_normal(nv)),
        "callable": lambda x: np.sin(3.0 * x[:, 0]) * np.exp(x[:, -1]),
    }
    weights = {
        "none": None,
        "P1": FeFunction(mesh, rng.uniform(0.1, 2.0, nv)),
        "callable": lambda x: 1.0 + x[:, 0] ** 2,
    }
    u = fields["P1"]

    def exact(x):
        return np.cos(x[:, 0])

    def whole_mesh_l2_error(weight):
        diff = u.at_quad() - scalar_at_quad(exact, mesh)
        return whole_mesh_quadrature_norm(mesh, diff, 2.0, weight)

    def norms(norm, l2):
        out = {}
        for (name, field), (tag, weight) in itertools.product(fields.items(), weights.items()):
            for p in (0.5, 1.2, 2.0, 3.0, np.inf):
                out[name, tag, p] = norm(mesh, field, p, weight)
            out["l2_error", tag] = l2(weight)
        return out

    expected = norms(whole_mesh_quadrature_norm, whole_mesh_l2_error)
    monkeypatch.setattr(fplab.fem, "_BLOCK_ELEMENTS", size)
    assert norms(quadrature_norm, lambda weight: l2_error(u, exact, weight)) == expected


CASES = {"3D L2 rotator": (3, 2, "rotator"), "2D L3 gaussian": (2, 3, "gaussian_gradient")}


def pipeline_outputs(dim, level, name):
    """Every blocked quantity of the pipeline on one mesh, as arrays."""
    mesh = build_ball_mesh((0.0,) * dim, 1.0, levels=level)
    cs = preset(name, dim)
    density = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, density)
    form = assemble_form(mesh, cs, density, dec, d_mode="raw")
    out = {
        "K": stationarity_matrix(mesh, cs).data,
        "rho": density.rho.values,
        "S": form.s.data,
        "D": form.d.data,
        "M": form.m.data,
        "b_norm": dec.b_norm,
        "quadratic_defect": dec.quadratic_defect,
        "per_test": divergence_free_residual(mesh, dec)["per_test"],
        "div_a": weak_divergence_matrix(mesh, cs.a).values,
    }
    if dim == 3:
        # vertex data with c, f and F, sampled off the vertices by a
        # MeshInterpolant, and a recovered div A
        x = mesh.vertices
        data = sampled_coefficient_set(
            mesh,
            cs.a(x),
            drift_values=cs.drift(x),
            c_values=(x * x).sum(axis=1),
            f_values=1.0 + x[:, 0],
            flux_values=x,
        )
        out["data K"] = stationarity_matrix(mesh, data).data
        cutoff = build_cutoff(np.zeros(3), 0.4, 0.8)
        for tag, c in (("", cs), ("data ", data)):
            report = compute_constants(c, density, cutoff, density.rho)
            for key, value in dataclasses.asdict(report).items():
                out[tag + key] = np.asarray(value)
        assert report.recovered == ("div_a",) and report.f_l2star > 0.0
    return mesh.num_elements, out


@pytest.fixture(scope="module", params=list(CASES))
def whole(request):
    """The outputs with every mesh in one block, as a whole-mesh call makes them."""
    case = CASES[request.param]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fplab.fem, "_BLOCK_ELEMENTS", 2**30)
        return case, pipeline_outputs(*case)


# 97 and 997 divide neither mesh's element count (512 and 1536)
@pytest.mark.parametrize("size", [1, 97, 997])
def test_bits_do_not_depend_on_the_block_size(whole, size, monkeypatch):
    case, (ne, expected) = whole
    assert ne % size or size == 1
    monkeypatch.setattr(fplab.fem, "_BLOCK_ELEMENTS", size)
    _, got = pipeline_outputs(*case)
    assert got.keys() == expected.keys()
    for key in expected:
        assert np.array_equal(got[key], expected[key]), key


@pytest.mark.parametrize("dim, level", [(2, 3), (3, 2)])
def test_mesh_geometry_does_not_depend_on_the_block_size(dim, level, monkeypatch):
    # the basis gradients and mesh_quality's extremes are formed per block
    got = []
    for size in (2**30, 97):
        monkeypatch.setattr(fplab.fem, "_BLOCK_ELEMENTS", size)
        mesh = build_ball_mesh((0.0,) * dim, 1.0, levels=level)
        got.append((mesh_quality(mesh), mesh._gradients))
    (quality, grads), (blocked_quality, blocked_grads) = got
    assert quality == blocked_quality
    assert np.array_equal(grads, blocked_grads)


@pytest.fixture(scope="module")
def ball4():
    mesh = build_ball_mesh((0.0,) * 3, 1.0, levels=4)
    cs = preset("rotator", 3)
    # the density solve builds the mesh's cached geometry
    return mesh, cs, solve_invariant_density(mesh, cs)


def traced_peak_mb(fn, *args):
    """Peak of the memory fn allocates above what was live before the call,
    in MiB, as tracemalloc sees this process's own allocations."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_compute_constants_transient_memory_is_bounded(ball4):
    mesh, cs, density = ball4
    cutoff = build_cutoff(np.zeros(3), 0.5, 0.9)
    # 109 MiB when every field was sampled on all 32768 elements at once, and
    # 27 MiB when the cutoff term built a Hessian at every quadrature point,
    # and 15.0 MiB when each norm sampled its values and weight on every
    # element at once (6.2 MiB since)
    assert traced_peak_mb(compute_constants, cs, density, cutoff, density.rho) <= 7.5


def test_drift_decomposition_keeps_no_quadrature_array(ball4):
    mesh, cs, density = ball4
    dec = decompose_drift(mesh, cs, density)
    arrays = {"D": dec.d.data, "D indices": dec.d.indices, "flux": dec.flux, "rho": dec.rho.values}
    # every other field is a number: b_norm and the quadratic defect
    others = {f.name for f in dataclasses.fields(dec)} - {"d", "flux", "rho"}
    assert all(np.ndim(getattr(dec, name)) == 0 for name in others)
    limit = mesh.num_elements * quadrature_rule(3).weights.size
    assert all(x.size < limit for x in arrays.values()), {k: x.size for k, x in arrays.items()}


def test_stationarity_matrix_transient_memory_is_bounded(ball4):
    mesh, cs, _ = ball4
    # 69 MiB when a was sampled on all 32768 elements at once, and 19.4 MiB
    # when the element matrices of all of them were scattered at once, and
    # 12.1 MiB with blocks of 4096 elements (3.5 MiB with blocks of 1024)
    assert traced_peak_mb(stationarity_matrix, mesh, cs) < 4.4


def test_weighted_norm_holds_one_quadrature_array(ball4):
    mesh, _, density = ball4
    array_mb = mesh.num_elements * quadrature_rule(3).weights.size * 8 / 2**20
    # 11.5 MiB (3.3 arrays) when the samples, their powers and the weight
    # were held for all elements at once
    peak = traced_peak_mb(quadrature_norm, mesh, density.rho, 2.0, density.rho)
    assert peak < 1.25 * array_mb


def test_conformity_audit_memory_is_bounded():
    mesh = build_ball_mesh((0.0,) * 3, 1.0, levels=4)
    # 10.65 MiB when a (facets, 3) table and two np.unique inverses were held
    # for every element facet
    assert traced_peak_mb(check_conformity, mesh) < 5.3


def test_csr_plan_build_memory_is_bounded():
    mesh = build_ball_mesh((0.0,) * 3, 1.0, levels=4)
    # 25.2 MiB when the plan came from one np.unique over 16 keys per element
    assert traced_peak_mb(lambda: mesh._csr_plan) < 15


def test_lumped_weights_transient_memory_is_bounded(ball4):
    mesh, _, _ = ball4
    # 12.5 MiB when the load of all 32768 elements was formed at once
    assert traced_peak_mb(lumped_weights, mesh) < 2


def test_drift_decomposition_transient_memory_is_bounded(ball4):
    mesh, cs, density = ball4
    # 27.7 MiB when D and the flux were scattered from whole-mesh arrays and
    # quadrature_norm weighted |B| by an array of ones, and 23.9 MiB when it
    # held |B| and its d-th powers for all elements (9.7 MiB since)
    assert traced_peak_mb(decompose_drift, mesh, cs, density) < 12


def test_form_assembly_transient_memory_is_bounded(ball4):
    mesh, cs, density = ball4
    decomposition = decompose_drift(mesh, cs, density)
    # 18.1 MiB when S and M were scattered from whole-mesh element matrices,
    # and 10.8 MiB with blocks of 4096 elements (3.3 MiB with blocks of 1024)
    assert traced_peak_mb(assemble_form, mesh, cs, density, decomposition) < 4.1


def test_callables_are_sampled_per_block(monkeypatch):
    # locating points in a mesh holds (points, 16, dim, dim) temporaries,
    # which sampling per block bounds by a block's points; the interpolant
    # is built on a copy of the mesh, so that it is sampled as a callable
    mesh = build_ball_mesh((0.0,) * 3, 1.0, levels=3)
    other = dataclasses.replace(mesh)
    x = mesh.vertices
    a = np.broadcast_to(np.eye(3), (len(x), 3, 3))
    c = sampled_coefficient_set(other, a, c_values=(x * x).sum(axis=1)).c
    peaks = {}
    for size in (mesh.num_elements, mesh.num_elements // 8):
        monkeypatch.setattr(fplab.fem, "_BLOCK_ELEMENTS", size)
        peaks[size] = traced_peak_mb(quadrature_norm, mesh, c, 3.0)
    assert peaks[mesh.num_elements // 8] < peaks[mesh.num_elements] / 4
