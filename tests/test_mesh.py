"""Mesh construction, refinement, conformity, and serialization."""

import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fplab.mesh
from fplab import (
    Ball,
    Box,
    InvalidBox,
    InvalidRadius,
    RefinementTooDeep,
    SimplicialMesh,
    SingularElement,
    boundary_facets,
    build_ball_mesh,
    build_box_mesh,
    check_conformity,
    mesh_quality,
    read_mesh,
    refine_uniform,
    write_mesh,
)
from fplab.mesh import _p1_gradients, signed_volumes


def test_disk_template_counts_and_area():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=0)
    assert mesh.num_vertices == 19
    assert mesh.num_elements == 24
    assert int(mesh.boundary.sum()) == 12
    # boundary polygon is a regular 12-gon: area = 6 sin(pi/6) = 3 exactly
    assert mesh.total_volume() == pytest.approx(3.0, abs=1e-12)


def test_disk_level_one_area_closed_form():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=1)
    # 24-gon: area = 12 sin(pi/12) = 3 (sqrt 6 - sqrt 2)
    exact = 3.0 * (np.sqrt(6.0) - np.sqrt(2.0))
    assert mesh.total_volume() == pytest.approx(exact, abs=1e-12)
    assert mesh.num_elements == 96


def test_ball_template_counts_and_volume():
    mesh = build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=0)
    assert mesh.num_vertices == 7
    assert mesh.num_elements == 8
    # octahedron with unit semi-axes: volume 4/3
    assert mesh.total_volume() == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_ball_refinement_volume_monotone():
    vols = [
        build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=lv).total_volume()
        for lv in range(3)
    ]
    assert vols[0] < vols[1] < vols[2]
    assert vols[2] < 4.0 / 3.0 * np.pi  # inscribed, never overshoots
    mesh = build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=2)
    assert mesh.num_vertices == 129
    assert mesh.num_elements == 512
    assert mesh.interior.size == 63


def test_disk_level_three_counts():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=3)
    assert mesh.num_vertices == 817
    assert mesh.num_elements == 1536
    assert mesh.interior.size == 721


def test_ball_scaling_and_center():
    mesh = build_ball_mesh((1.0, -2.0), 0.5, levels=0)
    assert mesh.total_volume() == pytest.approx(3.0 * 0.25, abs=1e-12)
    assert np.linalg.norm(mesh.vertices[0] - (1.0, -2.0)) < 1e-14


@pytest.mark.parametrize(
    "dim,cells,expected_elems",
    [(2, 3, 18), (2, 1, 2), (3, 2, 48), (3, 1, 6)],
)
def test_box_kuhn_counts(dim, cells, expected_elems):
    lo = np.zeros(dim)
    hi = np.full(dim, 2.0)
    mesh = build_box_mesh(lo, hi, cells)
    assert mesh.num_elements == expected_elems
    assert mesh.total_volume() == pytest.approx(2.0**dim, rel=1e-13)
    rep = check_conformity(mesh)
    assert rep["conforming"]


def test_box_anisotropic_cells():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 3.0), (2, 6))
    assert mesh.num_elements == 2 * 2 * 6
    assert mesh.total_volume() == pytest.approx(3.0, rel=1e-13)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_ball_mesh((0.0, 0.0), 1.0, levels=2),
        lambda: build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=1),
        lambda: build_box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 2),
    ],
)
def test_conformity_report(build):
    rep = check_conformity(build())
    assert rep["conforming"]
    assert rep["overshared_facets"] == 0
    assert rep["flag_mismatches"] == 0
    assert rep["num_boundary_facets"] > 0


def test_conformity_counts_an_overshared_facet():
    # three triangles on the edge (0, 1): one facet owned three times
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    elements = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    mesh = SimplicialMesh(
        dim=2, vertices=vertices, elements=elements, boundary=np.ones(5, dtype=bool)
    )
    rep = check_conformity(mesh)
    assert rep["overshared_facets"] == 1
    assert rep["conforming"] is False
    assert rep["flag_mismatches"] == 0


def test_conformity_counts_a_cleared_boundary_flag():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=1)
    flags = mesh.boundary.copy()
    flags[np.flatnonzero(flags)[0]] = False
    cleared = SimplicialMesh(
        dim=2, vertices=mesh.vertices, elements=mesh.elements, boundary=flags
    )
    rep = check_conformity(cleared)
    # the cleared vertex sits on the two boundary facets around it
    assert rep["flag_mismatches"] == 2
    assert rep["conforming"] is False
    assert rep["overshared_facets"] == 0


def test_facets_of_a_mesh_with_more_than_2_21_vertices():
    # facet keys of the form (f0 nv + f1) nv + f2 would overflow int64 here
    nv = 3_000_000
    top = nv - np.arange(1, 6)
    mesh = SimplicialMesh(
        dim=3,
        vertices=np.broadcast_to(np.zeros(3), (nv, 3)),
        elements=np.array([top[:4], top[1:]]),
        boundary=np.broadcast_to(True, (nv,)),
    )
    assert boundary_facets(mesh) == _loop_boundary_facets(mesh)
    assert check_conformity(mesh)["num_boundary_facets"] == 6


def _digests(mesh):
    return tuple(
        hashlib.md5(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in (mesh.vertices, mesh.elements, mesh.boundary)
    )


_BOX_2D = ((-1.0, 0.5), (2.0, 1.25), (5, 3))
_BOX_3D = ((0.0, -1.0, 0.0), (1.0, 2.0, 0.5), (2, 3, 4))


# md5 of (vertices, elements, boundary) as the per-element loops of the
# original construction produced them; the vectorized construction must
# reproduce every bit, since assembly and the reports read these arrays
@pytest.mark.parametrize(
    "build, digests",
    [
        (
            lambda: build_ball_mesh((0.0, 0.0), 1.0, levels=3),
            ("5a31d81e6bf080da162a7081f1380f53", "e9bc4811c269b9a66dc68a344dbac047",
             "046cd17035eba9039dfb2b2e2f9286ad"),
        ),
        (
            lambda: build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=2),
            ("ad15a6d3513cacb0ca7006e8b9ba9ec9", "72daed003ff09dee8bef40dfa0e05c04",
             "5d80f041418b5a89cd392c926b36daf8"),
        ),
        (
            lambda: build_ball_mesh((1.0, 2.0, -0.5), 0.7, levels=2),
            ("004e8edb0568321107fc5c54c52c353b", "df03530e3a34c28c4d38fb89cd1f951d",
             "5d80f041418b5a89cd392c926b36daf8"),
        ),
        (
            lambda: build_box_mesh(*_BOX_2D),
            ("d043d30cec26d80cffc8ae503717055c", "d8d01c148eafb9a620b1b05974ddf9ba",
             "06502d4924a874411a1c8844dea30abb"),
        ),
        (
            lambda: refine_uniform(build_box_mesh(*_BOX_2D)),
            ("48086819a09f7399c0c06f9dc053e1ae", "a60b0b46d4f3fb82bfcf1eb13b623d77",
             "683f0c5137e077499a6daf92002e5304"),
        ),
        (
            lambda: build_box_mesh(*_BOX_3D),
            ("2438ed281b180e825bcabe9159f2a26e", "9487e46499fcb85396f28e7731feab48",
             "1092a0124fe8d2fdd6e0e957da767516"),
        ),
        (
            lambda: refine_uniform(build_box_mesh(*_BOX_3D)),
            ("d0ba6dd27d29ba6574fc08f54e8baa29", "5d19aa0031ca8b72bbde8e86511fc225",
             "671563d5b2f9ee11c9012309d2f72517"),
        ),
    ],
    ids=["disk-L3", "ball-L2", "ball-off-center-L2", "box-2d", "box-2d-refined",
         "box-3d", "box-3d-refined"],
)
def test_mesh_digests_are_pinned(build, digests):
    assert _digests(build()) == digests


def _loop_boundary_facets(mesh):
    """Reference: count every facet in element order with a dict."""
    count, owner = {}, {}
    for ei, elem in enumerate(mesh.elements.tolist()):
        for f in combinations(sorted(elem), mesh.dim):
            count[f] = count.get(f, 0) + 1
            owner[f] = ei
    return [(f, owner[f]) for f, c in count.items() if c == 1]


@settings(max_examples=15, deadline=None)
@given(
    cells=st.lists(st.integers(1, 4), min_size=2, max_size=3),
    stretch=st.floats(0.25, 4.0),
)
def test_box_topology_matches_the_loop_reference(cells, stretch):
    dim = len(cells)
    hi = (1.0,) * (dim - 1) + (stretch,)
    mesh = build_box_mesh((0.0,) * dim, hi, cells)
    fine = refine_uniform(mesh)
    rep = check_conformity(fine)
    assert rep["conforming"]
    assert fine.total_volume() == pytest.approx(stretch, rel=1e-13)
    for m in (mesh, fine):
        facets = boundary_facets(m)
        assert facets == _loop_boundary_facets(m)
        assert len(facets) == check_conformity(m)["num_boundary_facets"]


def test_refine_uniform_counts_and_flat_volume():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 2)
    fine = refine_uniform(mesh)
    assert fine.num_elements == 4 * mesh.num_elements
    # flat boundary: refinement preserves volume exactly
    assert fine.total_volume() == pytest.approx(mesh.total_volume(), rel=1e-14)
    assert check_conformity(fine)["conforming"]

    mesh3 = build_box_mesh((0.0,) * 3, (1.0,) * 3, 1)
    fine3 = refine_uniform(mesh3)
    assert fine3.num_elements == 8 * mesh3.num_elements
    assert fine3.total_volume() == pytest.approx(1.0, rel=1e-13)


def test_volumes_positive_after_orientation():
    for mesh in (
        build_ball_mesh((0.0, 0.0), 1.0, levels=1),
        build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=1),
    ):
        assert (mesh.volumes() > 0).all()


def test_quality_report_types_and_kuhn_acute():
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 2)
    q = mesh_quality(mesh)
    assert q["acute"] is True  # Kuhn triangles are right triangles
    assert isinstance(q["num_vertices"], int)
    assert q["min_volume"] == pytest.approx(1.0 / 8.0, rel=1e-14)
    assert q["max_edge"] == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-14)
    assert q["shape_regularity"] > 1.0


def test_quality_flags_obtuse_triangle():
    # flat sliver: the angle at (2, 0.2) is far beyond 90 degrees
    sliver = SimplicialMesh(
        dim=2,
        vertices=np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.2]]),
        elements=np.array([[0, 1, 2]], dtype=np.int64),
        boundary=np.array([True, True, True]),
        domain=None,
    )
    q = mesh_quality(sliver)
    assert q["acute"] is False


def test_quality_disk_levels_acute():
    for lv in range(3):
        assert mesh_quality(build_ball_mesh((0.0, 0.0), 1.0, levels=lv))["acute"]


def _all_pairs_quality(mesh):
    """mesh_quality from a fresh geometry and every ordered vertex pair."""
    coords = mesh.vertices[mesh.elements]
    vols = signed_volumes(mesh.vertices, mesh.elements, mesh.dim)
    ne, nloc, dim = coords.shape
    grads = _p1_gradients(coords)
    gram = np.einsum("edi,edj->eij", grads, grads) * vols[:, None, None]
    off = ~np.eye(nloc, dtype=bool)
    acute = bool(gram[:, off].max() <= 1e-12 * np.abs(gram).max())
    edges_sq = ((coords[:, None, :, :] - coords[:, :, None, :]) ** 2).sum(axis=3)
    longest = np.sqrt(edges_sq.max(axis=(1, 2)))
    facet_meas = np.zeros(ne)
    for f in combinations(range(nloc), dim):
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_ball_mesh((0.0, 0.0), 1.0, levels=3),
        lambda: build_ball_mesh((0.3, -0.2, 0.1), 1.7, levels=2),
        lambda: build_box_mesh((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (2, 3, 4)),
        lambda: refine_uniform(build_box_mesh((0.0, 0.0), (2.0, 1.0), (5, 3))),
    ],
)
def test_quality_matches_the_all_pairs_reference(build):
    mesh = build()
    assert mesh_quality(mesh) == _all_pairs_quality(mesh)


def test_build_seeds_the_cached_volumes(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return signed_volumes(*args)

    monkeypatch.setattr(fplab.mesh, "signed_volumes", counted)
    mesh = build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=1)
    calls.clear()
    vols = mesh.volumes()
    assert mesh.total_volume() == float(vols.sum())
    assert calls == []
    # a mesh that no build produced computes them on first use, once
    plain = SimplicialMesh(
        dim=3,
        vertices=mesh.vertices.copy(),
        elements=mesh.elements.copy(),
        boundary=mesh.boundary.copy(),
    )
    assert np.array_equal(plain.volumes(), vols)
    plain.volumes()
    assert calls == [3]


def test_refined_mesh_has_its_own_cache():
    mesh = build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=1)
    coarse = (mesh._gradients, mesh.volumes())
    fine = refine_uniform(mesh)
    # only the volumes are computed by the build; the rest waits for first use
    assert "_volumes" in vars(fine) and "_gradients" not in vars(fine)
    cached = (fine._gradients, fine.volumes())
    for c, f in zip(coarse, cached):
        assert f.shape[0] == 8 * c.shape[0]
        assert not np.shares_memory(c, f)
    assert mesh._gradients is coarse[0]
    # projected boundary midpoints make the refined ball strictly larger
    assert fine.total_volume() > mesh.total_volume()


def test_domain_descriptors():
    ball = Ball(center=(0.0, 0.0), radius=2.0)
    assert ball.dim == 2
    assert ball.diameter == 4.0
    box = Box(lo=(0.0, 0.0), hi=(3.0, 4.0))
    assert box.diameter == 5.0


def test_mesh_io_roundtrip(tmp_path):
    mesh = build_ball_mesh((0.5, -0.5, 0.0), 1.5, levels=1)
    path = tmp_path / "mesh.npz"
    write_mesh(mesh, path)
    back = read_mesh(path)
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.elements, mesh.elements)
    np.testing.assert_array_equal(back.boundary, mesh.boundary)
    assert back.domain == mesh.domain

    mesh2 = build_box_mesh((0.0, 0.0), (1.0, 2.0), 3)
    path2 = tmp_path / "box.npz"
    write_mesh(mesh2, path2)
    assert read_mesh(path2).domain == mesh2.domain


def test_read_mesh_orients_and_checks_elements(tmp_path):
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=1)
    flipped = mesh.elements.copy()
    flipped[0, [-2, -1]] = flipped[0, [-1, -2]]
    # hand-set flags that the domain descriptor would not give
    boundary = mesh.boundary.copy()
    boundary[0] = True
    path = tmp_path / "flipped.npz"
    write_mesh(
        SimplicialMesh(mesh.dim, mesh.vertices, flipped, boundary, mesh.domain), path
    )
    assert signed_volumes(mesh.vertices, flipped, mesh.dim)[0] < 0
    back = read_mesh(path)
    np.testing.assert_array_equal(back.elements, mesh.elements)
    assert (signed_volumes(back.vertices, back.elements, back.dim) > 0).all()
    np.testing.assert_array_equal(back.boundary, boundary)
    assert back.domain == mesh.domain

    degenerate = mesh.elements.copy()
    degenerate[0, 1] = degenerate[0, 0]
    write_mesh(
        SimplicialMesh(mesh.dim, mesh.vertices, degenerate, mesh.boundary, mesh.domain), path
    )
    with pytest.raises(SingularElement, match="element 0"):
        read_mesh(path)


def test_invalid_inputs_raise():
    with pytest.raises(InvalidRadius):
        build_ball_mesh((0.0, 0.0), 0.0)
    with pytest.raises(InvalidRadius):
        build_ball_mesh((0.0, 0.0), -1.0)
    with pytest.raises(RefinementTooDeep):
        build_ball_mesh((0.0, 0.0), 1.0, levels=-1)
    with pytest.raises(RefinementTooDeep):
        build_ball_mesh((0.0, 0.0), 1.0, levels=99)
    with pytest.raises(InvalidBox):
        build_box_mesh((0.0, 0.0), (0.0, 1.0), 2)
    with pytest.raises(InvalidBox):
        build_box_mesh((0.0, 0.0), (1.0, 1.0), 0)
    with pytest.raises(InvalidBox):
        build_box_mesh((0.0,), (1.0,), 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_ball_mesh((0.0, 0.0), 1.0, levels=4),
        lambda: build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=3),
        lambda: build_box_mesh((0.0, 0.0), (1.0, 3.0), (5, 40)),
    ],
)
def test_dissection_order_is_a_cached_deterministic_permutation(build):
    mesh = build()
    order = mesh.dissection_order
    assert np.array_equal(np.sort(order), np.arange(mesh.num_vertices))
    # computed once: a second access returns the very same array
    assert mesh.dissection_order is order
    assert not order.flags.writeable
    assert np.array_equal(build().dissection_order, order)


def test_dissection_order_puts_separator_last():
    # a 16 x 16 grid of 289 vertices is cut at the median x = 0.5; the
    # edges crossing the cut start on the column x = 7/16, which becomes
    # the top separator and must close the order
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 16)
    order = mesh.dissection_order
    line = np.flatnonzero(np.abs(mesh.vertices[:, 0] - 7.0 / 16.0) < 1e-12)
    assert np.array_equal(np.sort(order[-line.size:]), line)


def test_dissection_keeps_an_uncuttable_part_whole():
    # a fan of 100 vertices on the line x = 0 around one apex at x = 1: the
    # median of the longest axis is 0, so no vertex lies below the cut and
    # the whole mesh stays one leaf in its own numbering
    line = np.stack([np.zeros(100), np.linspace(0.0, 0.5, 100)], axis=1)
    vertices = np.vstack([line, [[1.0, 0.25]]])
    elements = np.array([(k, k + 1, 100) for k in range(99)])
    mesh = SimplicialMesh(
        dim=2, vertices=vertices, elements=elements, boundary=np.ones(101, dtype=bool)
    )
    assert np.array_equal(mesh.dissection_order, np.arange(101))


def test_refinement_keeps_hand_set_boundary_flags():
    # two unit squares side by side with the left one's Box descriptor: the
    # descriptor misses most of the right square's boundary
    left = build_box_mesh((0.0, 0.0), (1.0, 1.0), 6)
    mesh = SimplicialMesh(
        dim=2,
        vertices=np.vstack([left.vertices, left.vertices + np.array([2.0, 0.0])]),
        elements=np.vstack([left.elements, left.elements + left.num_vertices]),
        boundary=np.concatenate([left.boundary, left.boundary]),
        domain=left.domain,
    )
    fine = refine_uniform(mesh)
    n = mesh.num_vertices
    assert np.array_equal(fine.boundary[:n], mesh.boundary)
    assert int(fine.boundary.sum()) == 2 * int(refine_uniform(left).boundary.sum())
    assert check_conformity(fine)["conforming"]


def test_refinement_keeps_a_partial_dirichlet_set():
    # only the bottom side flagged: its midpoints are flagged, no others
    mesh = build_box_mesh((0.0, 0.0), (1.0, 1.0), 4)
    bottom = mesh.vertices[:, 1] == 0.0
    mesh = SimplicialMesh(
        dim=2, vertices=mesh.vertices, elements=mesh.elements, boundary=bottom,
        domain=mesh.domain,
    )
    fine = refine_uniform(mesh)
    assert np.array_equal(fine.boundary, fine.vertices[:, 1] == 0.0)


@pytest.mark.parametrize("dim, levels", [(2, 6), (3, 4)])
def test_refined_ball_flags_match_the_descriptor(dim, levels):
    mesh = build_ball_mesh((0.0,) * dim, 1.0, levels=0)
    for level in range(levels + 1):
        if level:
            mesh = refine_uniform(mesh)
        assert np.array_equal(mesh.boundary, mesh.domain.boundary_mask(mesh.vertices))


@pytest.mark.parametrize(
    "lo, hi, cells",
    [
        ((0.0, 0.0), (1.0, 1.0), 6),
        ((-1.0, 0.5), (2.0, 3.0), (5, 3)),
        ((0.0, 0.0, 0.0), (2.0, 1.0, 1.0), 3),
    ],
)
def test_refined_box_flags_match_the_descriptor(lo, hi, cells):
    mesh = build_box_mesh(lo, hi, cells)
    for _ in range(3):
        mesh = refine_uniform(mesh)
        assert np.array_equal(mesh.boundary, mesh.domain.boundary_mask(mesh.vertices))
