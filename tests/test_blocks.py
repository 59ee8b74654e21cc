"""Blocked quadrature: bits that do not depend on the block size, and
transient memory bounded by a block rather than by the mesh."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import fplab.fem
from fplab import (
    build_ball_mesh,
    build_cutoff,
    compute_constants,
    decompose_drift,
    divergence_free_residual,
    interpolate,
    matrix_at_quad,
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
    for sampler, field in fields:
        # a block of a whole-mesh field is the block's rows of its whole sample
        whole = sampler(field, mesh)
        assert whole.shape[:2] == (ne, nq)
        assert np.array_equal(sampler(field, mesh, block=slice(3, 8)), whole[3:8])
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
        out = {"rho": density.rho.values, "b_quad": decompose_drift(mesh, c, density).b_quad}
        if dim == 3:
            cutoff = build_cutoff(np.zeros(3), 0.4, 0.8)
            report = compute_constants(c, density, cutoff, density.rho)
            out.update(dataclasses.asdict(report))
        outputs.append(out)
    expected, got = outputs
    assert got.keys() == expected.keys()
    for key in expected:
        assert np.array_equal(got[key], expected[key]), key


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
        "b_quad": dec.b_quad,
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


@pytest.fixture(scope="module")
def ball4():
    mesh = build_ball_mesh((0.0,) * 3, 1.0, levels=4)
    cs = preset("rotator", 3)
    # the density solve builds the mesh's cached geometry and quadrature points
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
    # 109 MiB when every field was sampled on all 32768 elements at once
    assert traced_peak_mb(compute_constants, cs, density, cutoff, density.rho) < 40


def test_stationarity_matrix_transient_memory_is_bounded(ball4):
    mesh, cs, _ = ball4
    # 69 MiB when a was sampled on all 32768 elements at once
    assert traced_peak_mb(stationarity_matrix, mesh, cs) < 40


def test_callables_are_sampled_per_block(monkeypatch):
    # locating points in a mesh holds (points, 16, dim, dim) temporaries,
    # which sampling per block bounds by a block's points
    mesh = build_ball_mesh((0.0,) * 3, 1.0, levels=3)
    x = mesh.vertices
    a = np.broadcast_to(np.eye(3), (len(x), 3, 3))
    c = sampled_coefficient_set(mesh, a, c_values=(x * x).sum(axis=1)).c
    peaks = {}
    for size in (mesh.num_elements, mesh.num_elements // 8):
        monkeypatch.setattr(fplab.fem, "_BLOCK_ELEMENTS", size)
        peaks[size] = traced_peak_mb(quadrature_norm, mesh, c, 3.0)
    assert peaks[mesh.num_elements // 8] < peaks[mesh.num_elements] / 4
