"""Mesh construction, bisection refinement and marking checks."""

import numpy as np
import pytest

from helpers import LoopMesh, loop_refine
from shelldpg.mesh import Mesh, dorfler_mark, initial_rectangle_mesh, refine


def total_area(mesh):
    return float(mesh.areas.sum())


def check_conforming(mesh):
    # every interior edge is shared by exactly two triangles, and every
    # triangle references each of its edges with matching endpoints
    loc = np.array([[1, 2], [2, 0], [0, 1]])
    ends = np.sort(mesh.edges[mesh.tri_edges], axis=-1)  # (nt, 3, 2)
    want = np.sort(mesh.triangles[:, loc], axis=-1)
    assert np.array_equal(ends, want)
    counts = np.bincount(mesh.tri_edges.ravel(), minlength=mesh.nedges)
    assert np.all((counts == 1) | (counts == 2))
    # no vertex of one triangle lies strictly inside an edge of another;
    # (edge, vertex) pairs in blocks of 256 edges
    verts = np.arange(mesh.nvertices)
    for lo in range(0, mesh.nedges, 256):
        edges = mesh.edges[lo:lo + 256]
        a, b = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
        ab = (b - a)[:, None, :]  # (ne, 1, 2)
        pa = mesh.vertices[None, :, :] - a[:, None, :]  # (ne, nv, 2)
        L2 = np.sum(ab * ab, axis=-1)
        t = np.sum(pa * ab, axis=-1) / L2
        dist = np.abs(pa[..., 0] * ab[..., 1] - pa[..., 1] * ab[..., 0]) / np.sqrt(L2)
        own = (verts == edges[:, :1]) | (verts == edges[:, 1:])
        inside = ~own & (1e-10 < t) & (t < 1.0 - 1e-10)
        hanging = np.argwhere(inside & ~(dist > 1e-10 * np.sqrt(L2)))
        assert hanging.size == 0, f"vertex inside edge (edge, vertex): {hanging[0] + [lo, 0]}"


def test_initial_mesh_unit_square():
    mesh = initial_rectangle_mesh((-1.0, 1.0, -1.0, 1.0))
    assert mesh.nvertices == 5
    assert mesh.ntriangles == 4
    assert np.allclose(mesh.vertices[4], [0.0, 0.0])
    assert total_area(mesh) == pytest.approx(4.0, abs=1e-14)
    assert np.allclose(mesh.areas, 1.0)


def test_initial_mesh_scordelis_rectangle():
    R = 25.0
    rect = (0.0, R, 0.0, R * 2.0 * np.pi / 9.0)
    mesh = initial_rectangle_mesh(rect)
    assert np.allclose(mesh.vertices[4], [12.5, 25.0 * np.pi / 9.0])
    assert total_area(mesh) == pytest.approx(R * R * 2.0 * np.pi / 9.0, rel=1e-14)


def test_initial_mesh_rejects_bad_rect():
    with pytest.raises(ValueError):
        initial_rectangle_mesh((0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        initial_rectangle_mesh((0.0, 1.0, 2.0, 1.0))


def test_mesh_rejects_wrong_orientation():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="area"):
        Mesh(verts, np.array([[0, 2, 1]]))


def test_edge_data_consistency():
    mesh = initial_rectangle_mesh((0.0, 2.0, 0.0, 1.0))
    assert mesh.nedges == 8
    assert len(mesh.boundary_edges) == 4
    check_conforming(mesh)
    # normals are unit and perpendicular to the edge
    tang = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    assert np.allclose(np.linalg.norm(mesh.edge_normals, axis=1), 1.0)
    assert np.allclose(np.einsum("ij,ij->i", tang, mesh.edge_normals), 0.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(tang, axis=1), mesh.edge_lengths)


def test_refine_none_is_identity():
    mesh = initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0))
    out = refine(mesh, np.array([], dtype=int))
    assert out is mesh


def test_refine_all_gives_quarter_children():
    mesh = initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0))
    fine = refine(mesh, np.arange(mesh.ntriangles))
    assert fine.ntriangles == 16
    assert total_area(fine) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(fine.areas, mesh.areas[0] / 4.0)
    check_conforming(fine)


def test_refine_single_triangle_stays_conforming():
    mesh = initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0))
    fine = refine(mesh, np.array([2]))
    assert fine.ntriangles > mesh.ntriangles
    assert total_area(fine) == pytest.approx(1.0, abs=1e-14)
    check_conforming(fine)


def test_refine_preserves_coarse_vertices_and_area():
    rng = np.random.default_rng(3)
    rect = (0.0, 25.0, 0.0, 25.0 * 2.0 * np.pi / 9.0)
    mesh = initial_rectangle_mesh(rect)
    area0 = total_area(mesh)
    for _ in range(6):
        nmark = max(1, mesh.ntriangles // 3)
        marked = rng.choice(mesh.ntriangles, size=nmark, replace=False)
        fine = refine(mesh, marked)
        assert np.allclose(fine.vertices[: mesh.nvertices], mesh.vertices)
        assert total_area(fine) == pytest.approx(area0, rel=1e-12)
        check_conforming(fine)
        mesh = fine


def test_refined_boundary_stays_on_rectangle():
    rect = (-1.0, 1.0, 0.0, np.pi / 4.0)
    mesh = initial_rectangle_mesh(rect)
    rng = np.random.default_rng(5)
    for _ in range(5):
        marked = rng.choice(mesh.ntriangles, size=max(1, mesh.ntriangles // 4), replace=False)
        mesh = refine(mesh, marked)
    x0, x1, y0, y1 = rect
    pts = mesh.vertices[np.unique(mesh.edges[mesh.boundary_edges])]
    on_side = (
        np.isclose(pts[:, 0], x0)
        | np.isclose(pts[:, 0], x1)
        | np.isclose(pts[:, 1], y0)
        | np.isclose(pts[:, 1], y1)
    )
    assert np.all(on_side)


def test_refine_rejects_bad_indices():
    mesh = initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        refine(mesh, np.array([4]))
    with pytest.raises(ValueError):
        refine(mesh, np.array([-1]))


def brute_force_dorfler(etas, theta):
    # smallest subset with sum eta^2 >= theta * total, ties by lowest indices
    import itertools

    eta2 = np.asarray(etas) ** 2
    total = eta2.sum()
    if total == 0.0:
        return []
    n = len(eta2)
    for size in range(0, n + 1):
        best = None
        for combo in itertools.combinations(range(n), size):
            if eta2[list(combo)].sum() >= theta * total * (1.0 - 1e-12):
                if best is None or sorted(combo) < sorted(best):
                    best = combo
        if best is not None:
            return sorted(best)
    return list(range(n))


def test_dorfler_quarter_selects_largest():
    marked = dorfler_mark(np.array([2.0, np.sqrt(3.0), np.sqrt(2.0), 1.0]), 0.25)
    assert marked.tolist() == [0]


def test_dorfler_theta_one_selects_all():
    marked = dorfler_mark(np.array([1.0, 0.5, 0.7]), 1.0)
    assert sorted(marked.tolist()) == [0, 1, 2]


def test_dorfler_zero_estimate_marks_nothing():
    marked = dorfler_mark(np.zeros(6), 0.5)
    assert marked.size == 0


def test_dorfler_matches_brute_force_minimality():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = rng.integers(1, 13)
        etas = rng.random(n) * rng.choice([1.0, 1.0, 0.0], size=n)
        theta = float(rng.uniform(0.05, 1.0))
        marked = dorfler_mark(etas, theta)
        eta2 = etas**2
        total = eta2.sum()
        if total == 0.0:
            assert marked.size == 0
            continue
        assert eta2[marked].sum() >= theta * total * (1.0 - 1e-9)
        best = brute_force_dorfler(etas, theta)
        assert len(marked) == len(best)


def test_dorfler_near_ties_do_not_depend_on_last_bits():
    # an estimator symmetric under y -> -y on a mirror-symmetric mesh:
    # mirror-image elements carry the same eta up to rounding.  theta
    # is chosen so that exactly one element of a mirror pair is needed
    mesh = initial_rectangle_mesh((-1.0, 1.0, -1.0, 1.0))
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.ntriangles))
    cen = mesh.vertices[mesh.triangles].mean(axis=1)
    etas = 1.0 / (0.1 + (cen[:, 0] - 0.3) ** 2 + cen[:, 1] ** 2)
    where = {(round(x, 9), round(y, 9)): t for t, (x, y) in enumerate(cen)}
    mirror = np.array([where[round(x, 9), round(-y, 9)] for x, y in cen])
    eta2 = etas**2
    near = np.abs(eta2[:, None] - eta2[None, :]) <= 1e-12 * eta2[:, None]
    pairs = [t for t in range(mesh.ntriangles)
             if mirror[t] > t and near[t].sum() == 2 and near[t, mirror[t]]]
    t = sorted(pairs, key=lambda t: -eta2[t])[4]
    above = eta2[eta2 > eta2[t] * (1.0 + 1e-12)].sum()
    theta = (above + 0.5 * eta2[t]) / eta2.sum()

    marked = dorfler_mark(etas, theta)
    assert t in marked and mirror[t] not in marked  # the lower index
    rng = np.random.default_rng(3)
    for _ in range(20):
        wiggle = 1.0 + 1e-14 * rng.choice([-1.0, 1.0], size=etas.size)
        assert np.array_equal(dorfler_mark(etas * wiggle, theta), marked)


def test_dorfler_rejects_bad_input():
    with pytest.raises(ValueError):
        dorfler_mark(np.array([1.0, -0.5]), 0.5)
    with pytest.raises(ValueError):
        dorfler_mark(np.array([1.0, np.nan]), 0.5)
    with pytest.raises(ValueError):
        dorfler_mark(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        dorfler_mark(np.array([1.0]), 1.5)


def test_write_mesh_round_trip(tmp_path):
    from shelldpg.mesh import write_mesh

    mesh = refine(
        initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0)),
        np.array([0, 1]),
    )
    prefix = tmp_path / "mesh_l1"
    write_mesh(mesh, str(prefix))
    coords = np.loadtxt(prefix.parent / (prefix.name + "_coords.dat"))
    elems = np.loadtxt(prefix.parent / (prefix.name + "_elems.dat"), dtype=int)
    assert np.allclose(coords[:, 1:], mesh.vertices)
    assert np.array_equal(elems[:, 1:], mesh.triangles)


def assert_same_mesh(a, b):
    assert vars(a).keys() == vars(b).keys()
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype, name
            assert np.array_equal(value, other), name
            assert value.flags.writeable == other.flags.writeable, name
        else:
            assert value == other, name


@pytest.mark.parametrize("rect, seed", [((0.0, 2.0, 0.0, 1.0), 0),
                                        ((-1.0, 1.0, 0.0, np.pi / 4.0), 1)])
def test_mesh_and_refine_match_loop_versions(rect, seed):
    # every attribute, bit for bit: the edge numbering and the child order
    # fix the twist gauge and the element order of the assembly
    rng = np.random.default_rng(seed)
    mesh = initial_rectangle_mesh(rect)
    loop = LoopMesh(mesh.vertices, mesh.triangles, rect=mesh.rect)
    assert_same_mesh(mesh, loop)
    marks = ["all", "one", "one"] + ["random"] * 6
    for kind in marks:
        if kind == "all":
            marked = np.arange(mesh.ntriangles)
        elif kind == "one":
            marked = [int(rng.integers(mesh.ntriangles))]
        else:
            nmark = int(rng.integers(1, max(2, mesh.ntriangles // 3)))
            marked = rng.choice(mesh.ntriangles, size=nmark, replace=False)
        mesh, loop = refine(mesh, marked), loop_refine(loop, marked)
        assert_same_mesh(mesh, loop)
    assert mesh.ntriangles > 500


def test_third_triangle_on_an_edge_is_named_as_the_loop_names_it():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                      [2.0, 2.0], [1.5, 0.2]])
    # edge 0 = (1, 2) and edge 2 = (0, 1) both have three triangles; the
    # third one of edge 2 comes first
    tris = np.array([[0, 1, 2], [1, 0, 3], [4, 2, 1], [0, 1, 4], [2, 1, 5]])
    for cls in (Mesh, LoopMesh):
        with pytest.raises(ValueError, match="edge 2 has more than two"):
            cls(verts, tris)
