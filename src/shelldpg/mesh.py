"""Triangle meshes of rectangles with newest-vertex bisection.

Triangles are stored as vertex triples (a, b, c), counterclockwise, with
the refinement edge opposite the first vertex; the first vertex plays the
role of the NVB "newest vertex".  Marked triangles are split into four
equal-area children (two bisection levels); conformity closure uses
single bisections.  Every edge carries a fixed global unit normal nu_E:
the direction from its lower-index to its higher-index vertex rotated by
-90 degrees.  This orientation is deterministic and refinement-stable.
"""

import numpy as np

# estimators whose squares agree to this relative tolerance tie in marking
TIE_RTOL = 1e-10


class Mesh:
    """Conforming triangular mesh.

    Parameters
    ----------
    vertices : array (nv, 2)
    triangles : array (nt, 3) of vertex indices
        Counterclockwise, refinement edge opposite the first vertex.
    rect : tuple (x0, x1, y0, y1), optional
        The axis-aligned domain the mesh triangulates, kept for boundary
        classification; propagated through refinement.

    Raises
    ------
    ValueError
        If a triangle has nonpositive signed area or an edge has more
        than two incident triangles.
    """

    def __init__(self, vertices, triangles, rect=None):
        self.vertices = np.array(vertices, dtype=float)
        self.triangles = np.array(triangles, dtype=int)
        self.rect = None if rect is None else tuple(float(v) for v in rect)
        self.vertices.flags.writeable = False
        self.triangles.flags.writeable = False

        v = self.vertices
        t = self.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(self.areas <= 0.0):
            bad = int(np.argmin(self.areas))
            raise ValueError(f"triangle {bad} has nonpositive area")

        edge_of = {}
        edges = []
        tri_edges = np.empty_like(self.triangles)
        # edge j of a triangle is opposite local vertex j
        for it, (a, b, c) in enumerate(self.triangles):
            for j, (p, q) in enumerate(((b, c), (c, a), (a, b))):
                key = (p, q) if p < q else (q, p)
                idx = edge_of.get(key)
                if idx is None:
                    idx = len(edges)
                    edge_of[key] = idx
                    edges.append(key)
                tri_edges[it, j] = idx
        self.edges = np.array(edges, dtype=int)
        self.tri_edges = tri_edges
        self.tri_edges.flags.writeable = False
        self.edges.flags.writeable = False

        ne = len(edges)
        edge_tris = np.full((ne, 2), -1, dtype=int)
        count = np.zeros(ne, dtype=int)
        for it in range(self.triangles.shape[0]):
            for e in tri_edges[it]:
                if count[e] == 2:
                    raise ValueError(f"edge {e} has more than two incident triangles")
                edge_tris[e, count[e]] = it
                count[e] += 1
        self.edge_tris = edge_tris
        self.edge_is_boundary = count == 1
        self.boundary_edges = np.nonzero(self.edge_is_boundary)[0]
        self.vertex_is_boundary = np.zeros(self.vertices.shape[0], dtype=bool)
        self.vertex_is_boundary[self.edges[self.boundary_edges].ravel()] = True

        tang = v[self.edges[:, 1]] - v[self.edges[:, 0]]
        self.edge_lengths = np.hypot(tang[:, 0], tang[:, 1])
        tang = tang / self.edge_lengths[:, None]
        # lower-to-higher direction rotated by -90 degrees
        self.edge_normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1)

        # s_{T,E} = n_T . nu_E: +1 iff the CCW traversal of edge j runs
        # from the lower to the higher global vertex index
        tri = self.triangles
        trav = np.stack(
            [tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]], axis=1
        )
        self.tri_edge_sign = np.where(trav[:, :, 0] < trav[:, :, 1], 1, -1)

    @property
    def nvertices(self):
        return self.vertices.shape[0]

    @property
    def ntriangles(self):
        return self.triangles.shape[0]

    @property
    def nedges(self):
        return self.edges.shape[0]

    def triangle_coords(self, which=None):
        """Vertex coordinates per triangle, shape (nt, 3, 2)."""
        tri = self.triangles if which is None else self.triangles[which]
        return self.vertices[tri]


def initial_rectangle_mesh(rect):
    """Criss-cross mesh of an axis-aligned rectangle: 4 triangles.

    The center is a vertex (it hosts the point load of the plate-like
    benchmarks) and each triangle's refinement edge is its boundary edge.
    """
    x0, x1, y0, y1 = (float(v) for v in rect)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("rectangle must have positive width and height")
    xc = 0.5 * (x0 + x1)
    yc = 0.5 * (y0 + y1)
    vertices = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (xc, yc)]
    triangles = [(4, 0, 1), (4, 1, 2), (4, 2, 3), (4, 3, 0)]
    return Mesh(vertices, triangles, rect=(x0, x1, y0, y1))


def refine(mesh, marked):
    """Refine: four equal-area children per marked triangle, NVB closure.

    Parameters
    ----------
    mesh : Mesh
    marked : iterable of triangle indices

    Returns
    -------
    Mesh
        New conforming mesh; the input mesh is unchanged.
    """
    marked = np.unique(np.asarray(list(marked), dtype=int))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.ntriangles:
        raise ValueError("marked set contains invalid triangle indices")

    edge_marked = np.zeros(mesh.nedges, dtype=bool)
    edge_marked[mesh.tri_edges[marked].ravel()] = True
    # closure: a triangle losing any edge must lose its refinement edge too
    while True:
        need = edge_marked[mesh.tri_edges].any(axis=1) & ~edge_marked[
            mesh.tri_edges[:, 0]
        ]
        if not need.any():
            break
        edge_marked[mesh.tri_edges[need, 0]] = True

    vertices = list(map(tuple, mesh.vertices))
    midpoint = {}
    for e in np.flatnonzero(edge_marked):
        p, q = mesh.edges[e]
        xm = 0.5 * (mesh.vertices[p] + mesh.vertices[q])
        midpoint[e] = len(vertices)
        vertices.append((xm[0], xm[1]))

    def bisect(tri, children):
        # tri = (a, b, c) with refinement edge (b, c); both children keep
        # the new vertex first so their refinement edges are (a,b), (c,a)
        a, b, c = tri
        key = (b, c) if b < c else (c, b)
        m = new_vertex[key]
        children.append((m, a, b))
        children.append((m, c, a))

    new_vertex = {}
    for e, m in midpoint.items():
        p, q = mesh.edges[e]
        new_vertex[(p, q) if p < q else (q, p)] = m

    triangles = []
    for it, (a, b, c) in enumerate(mesh.triangles):
        e0, e1, e2 = mesh.tri_edges[it]
        if not edge_marked[e0]:
            if edge_marked[e1] or edge_marked[e2]:
                raise AssertionError("closure failed to mark a refinement edge")
            triangles.append((a, b, c))
            continue
        first = []
        bisect((a, b, c), first)
        for child, e in zip(first, (e2, e1)):
            if edge_marked[e]:
                bisect(child, triangles)
            else:
                triangles.append(child)
    return Mesh(vertices, triangles, rect=mesh.rect)


def dorfler_mark(etas, theta):
    """Bulk marking: minimal set M with theta * sum(eta^2) <= sum_M eta^2.

    Greedy selection in descending eta^2 order.  Consecutive eta^2 that
    agree to `TIE_RTOL` form one group, taken in triangle-index order:
    mirror-image elements of a symmetric problem carry the same eta up to
    rounding, and which of them get marked must not depend on its last
    bits.  Returns a sorted index array (empty for an all-zero estimator).
    """
    etas = np.asarray(etas, dtype=float)
    if not np.all(np.isfinite(etas)) or np.any(etas < 0.0):
        raise ValueError("estimator values must be finite and nonnegative")
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    eta2 = etas * etas
    total = eta2.sum()
    if total == 0.0:
        return np.empty(0, dtype=int)
    order = np.argsort(-eta2, kind="stable")
    desc = eta2[order]
    group = np.cumsum(np.r_[False, desc[1:] < desc[:-1] * (1.0 - TIE_RTOL)])
    order = order[np.lexsort((order, group))]
    csum = np.cumsum(eta2[order])
    nsel = int(np.searchsorted(csum, theta * total * (1.0 - 1e-12))) + 1
    return np.sort(order[:nsel])


def write_mesh(mesh, prefix):
    """Write `<prefix>_coords.dat` (index x y) and `<prefix>_elems.dat`."""
    with open(f"{prefix}_coords.dat", "w") as fh:
        fh.write("# vertex x y\n")
        for i, (x, y) in enumerate(mesh.vertices):
            fh.write(f"{i} {x:.15e} {y:.15e}\n")
    with open(f"{prefix}_elems.dat", "w") as fh:
        fh.write("# triangle v0 v1 v2\n")
        for i, (a, b, c) in enumerate(mesh.triangles):
            fh.write(f"{i} {a} {b} {c}\n")
