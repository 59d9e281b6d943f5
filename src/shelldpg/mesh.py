"""Triangle meshes of rectangles with newest-vertex bisection.

Triangles are stored as vertex triples (a, b, c), counterclockwise, with
the refinement edge opposite the first vertex; the first vertex plays the
role of the NVB "newest vertex".  Marked triangles are split into four
equal-area children (two bisection levels); conformity closure uses
single bisections.  Every edge carries a fixed global unit normal nu_E:
the direction from its lower-index to its higher-index vertex rotated by
-90 degrees.  This orientation is deterministic and refinement-stable.
The mesh keeps nu_E only through `Mesh.tri_edge_sign`, the sign of
n_T . nu_E of each triangle T and local edge E.

The mesh also holds each triangle's affine map from the reference
triangle (`polyquad.triangle_geometry`): its Jacobian J, detJ and
J^-1, computed once when the mesh is built and read by every element
kernel, the error norms and the point location.
"""

import numpy as np

from .polyquad import EDGE_FROM, EDGE_TO, triangle_geometry

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

    Attributes J (nt, 2, 2), detJ (nt,) and Jinv (nt, 2, 2) hold the
    affine map of each triangle (`polyquad.triangle_geometry`),
    read-only like `vertices` and `triangles`.

    Raises
    ------
    ValueError
        If a triangle is degenerate or has nonpositive signed area, or
        an edge has more than two incident triangles.
    """

    def __init__(self, vertices, triangles, rect=None):
        self.vertices = np.array(vertices, dtype=float)
        self.triangles = np.array(triangles, dtype=int)
        self.rect = None if rect is None else tuple(float(v) for v in rect)
        v = self.vertices
        t = self.triangles
        self.J, self.detJ, self.Jinv = triangle_geometry(v[t])
        for arr in (v, t, self.J, self.detJ, self.Jinv):
            arr.flags.writeable = False
        if np.any(self.detJ <= 0.0):
            bad = int(np.argmin(self.detJ))
            raise ValueError(f"triangle {bad} has nonpositive area")

        # edges are numbered in order of first appearance over
        # (triangle, local edge)
        nt = t.shape[0]
        # one gather: the min and max over its last axis run 20x slower
        # on a stack of two
        ends = t[:, np.stack([EDGE_FROM, EDGE_TO], axis=1)]  # (nt, 3 j, 2)
        lo, hi = ends.min(axis=2).ravel(), ends.max(axis=2).ravel()
        _, first, inv = np.unique(lo * v.shape[0] + hi,
                                  return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(len(order))
        self.tri_edges = number[inv].reshape(nt, 3)
        first = first[order]
        self.edges = np.stack([lo[first], hi[first]], axis=1)
        self.tri_edges.flags.writeable = False
        self.edges.flags.writeable = False

        count = np.bincount(self.tri_edges.ravel(), minlength=len(first))
        over = np.nonzero(count > 2)[0]
        if over.size:
            # the edge a scan over the triangles finds first: incidences
            # grouped by edge, each group in (triangle, local edge) order
            by_edge = np.argsort(self.tri_edges.ravel(), kind="stable")
            start = np.cumsum(count) - count
            e = over[np.argmin(by_edge[start[over] + 2])]
            raise ValueError(f"edge {e} has more than two incident triangles")
        self.edge_is_boundary = count == 1
        self.boundary_edges = np.nonzero(self.edge_is_boundary)[0]

        # s_{T,E} = n_T . nu_E: +1 iff the CCW traversal of edge j runs
        # from the lower to the higher global vertex index
        self.tri_edge_sign = np.where(ends[:, :, 0] < ends[:, :, 1], 1, -1)

    @property
    def areas(self):
        return 0.5 * self.detJ

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

    def vertex_at(self, point, scale):
        """The vertex within 1e-12 * scale of a point in the max norm and
        the triangles incident to it, ascending; (None, None) if no
        vertex is that close."""
        dist = np.abs(self.vertices - np.asarray(point)).max(axis=1)
        v = int(np.argmin(dist))
        if dist[v] > 1e-12 * scale:
            return None, None
        return v, np.nonzero(np.any(self.triangles == v, axis=1))[0]


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
    if not isinstance(marked, np.ndarray):
        marked = list(marked)
    marked = np.unique(np.asarray(marked, dtype=int))
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

    # the midpoint of the i-th marked edge becomes vertex nv + i
    split_edges = np.flatnonzero(edge_marked)
    mid = np.full(mesh.nedges, -1, dtype=int)
    mid[split_edges] = mesh.nvertices + np.arange(len(split_edges))
    p, q = mesh.edges[split_edges].T
    vertices = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[p] + mesh.vertices[q])])

    # (a, b, c) with refinement edge (b, c) = local edge 0 bisects into
    # (m0, a, b) and (m0, c, a): the new vertex first, so that their
    # refinement edges are local edges 2 and 1 of the parent, and each
    # bisects again if that edge is marked.  Up to four children per
    # triangle, in this order; the slots a triangle does not fill drop out.
    split = edge_marked[mesh.tri_edges]
    s0, s1, s2 = split.T
    if np.any(~s0 & (s1 | s2)):
        raise AssertionError("closure failed to mark a refinement edge")
    a, b, c = mesh.triangles.T
    m0, m1, m2 = mid[mesh.tri_edges].T
    kids = np.empty((mesh.ntriangles, 4, 3), dtype=int)
    kids[:, 0] = np.where(s0[:, None],
                          np.where(s2[:, None], np.column_stack([m2, m0, a]),
                                   np.column_stack([m0, a, b])),
                          mesh.triangles)
    kids[:, 1] = np.column_stack([m2, b, m0])
    kids[:, 2] = np.where(s1[:, None], np.column_stack([m1, m0, c]),
                          np.column_stack([m0, c, a]))
    kids[:, 3] = np.column_stack([m1, a, m0])
    keep = np.stack([np.ones_like(s0), s0 & s2, s0, s0 & s1], axis=1)
    return Mesh(vertices, kids[keep], rect=mesh.rect)


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
    drops = desc[1:] < desc[:-1] * (1.0 - TIE_RTOL)
    group = np.cumsum(np.concatenate([[False], drops]))
    order = order[np.lexsort((order, group))]
    csum = np.cumsum(eta2[order])
    nsel = int(np.searchsorted(csum, theta * total * (1.0 - 1e-12))) + 1
    return np.sort(order[:nsel])


def match_rows(rows, known):
    """Index in `known` of each row of `rows`, -1 where it has none.

    Both are 2-D integer arrays whose rows are unique within each; one
    stable sort of the two together puts each match next to its partner.
    Carries per-element and per-class data from one mesh to the next.
    """
    both = np.concatenate([known, rows])
    order = np.lexsort(both.T[::-1])
    pair = np.nonzero(np.all(both[order[1:]] == both[order[:-1]], axis=1))[0]
    out = np.full(len(rows), -1)
    out[order[pair + 1] - len(known)] = order[pair]
    return out


def write_mesh(mesh, prefix):
    """Write `<prefix>_coords.dat` (index x y) and `<prefix>_elems.dat`."""
    np.savetxt(f"{prefix}_coords.dat",
               np.column_stack([np.arange(mesh.nvertices), mesh.vertices]),
               fmt=["%d", "%.15e", "%.15e"], header="vertex x y")
    np.savetxt(f"{prefix}_elems.dat",
               np.column_stack([np.arange(mesh.ntriangles), mesh.triangles]),
               fmt="%d", header="triangle v0 v1 v2")
