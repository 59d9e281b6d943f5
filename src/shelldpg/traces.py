"""Skeleton trace variables: numbering, boundary conditions, edge pairings.

Four trace fields live on the mesh skeleton:

* u_hat  -- continuous piecewise P^{k+1} vector (2 dofs per vertex, plus
  2 per edge when k = 1),
* w_hat  -- vertex values and vertex gradients (3 dofs per vertex); on
  each edge the value trace is the cubic Hermite interpolant and the
  normal-derivative trace the linear interpolant of the endpoint data,
* N_hat  -- one constant vector per edge (normal force trace, relative
  to the global edge normal nu_E),
* M_hat  -- the Kirchhoff trace of the bending moment: per edge a
  constant normal moment m_n = nu.M nu and a constant effective shear
  q = nu.div M + d/dtau (tau.M nu), relative to the global edge frame
  (nu_E, tau_E); per edge endpoint the twisting moment t = tau.M nu at
  that endpoint, whose jumps around a vertex are the corner forces.

Global dof order: u_hat vertex dofs, w_hat vertex dofs, u_hat edge dofs
(k = 1 only), N_hat edge dofs, M_hat edge dofs (m_n, q per edge), M_hat
twist dofs (lower-index endpoint, higher-index endpoint per edge).
Element-local trace columns follow the same field order with
vertices/edges in local order; the two twist columns of a local edge are
its start and its end on the counterclockwise traversal of the element.

The pairing matrices integrate each trace basis function against the
element test blocks over the element boundary, in the element's own
frame: N_hat and q relative to the outward normal n_T, the twists at the
start and the end of each counterclockwise edge.  So they depend on the
element only through its Jacobian, and the orientation of the skeleton
lives in the element-to-global column map alone (Rognes, Kirby and Logg,
"Efficient assembly of H(div) and H(curl) conforming finite elements",
SIAM J. Sci. Comput. 2009).  Hermite and hat traces are geometric
interpolants of shared vertex data, hence orientation free.  The global
N_hat components and q are relative to nu_E, and the element reads them
times s_{T,E} = n_T . nu_E (`TraceDofMap.element_signs`).  The normal
moment and the twists need no sign, because nu.M nu and tau.M nu are
invariant under flipping nu_E (tau_E flips with it), and
s_{T,E} d/d nu_E = d/d n_T; a twist only lands in the start or the end
column of its edge (`TraceDofMap.element_columns`).

The moment trace is the trace of H(div div) in the form of Fuehrer,
Heuer and Niemi (Math. Comp. 2019).  Integrating the twisting part of
<M n, grad z> by parts along each edge of an element T gives

  <M_hat, z>_dT = sum_E [ -int_E m_n dz/dn + int_E q z ]
                  - sum_E [ t z ]_a^b ,

with m_n, q and t in the frame of T and a -> b counterclockwise around
T.  The last sum only sees, at each corner x of T, the jump
t(leaving edge) - t(arriving edge): the corner force of T at x.  Adding
one constant to the twists of all edges meeting at a vertex leaves every
corner force unchanged, so each vertex fixes one twist dof to zero,
the gauge (`TraceDofMap.gauge`): the lowest-index incident boundary
edge at a boundary vertex, else the lowest-index incident edge.  What
remains is exactly the space of conforming corner forces: deg(x) - 1
per vertex, whose sum over the elements around an interior vertex
vanishes.

The Kirchhoff natural conditions become plain dof constraints: where w
is free, q = 0 on the edge and the total corner force vanishes at each
vertex where w is free, i.e. both boundary twists there are zero (one
is the gauge); where dnw is free, m_n = 0.

Why this layout.  The former layout had four dofs per edge: m_n, a
constant twist m_t and a linear q = nu.div M (mean and slope).  Its m_t
paired as m_t (z(b) - z(a)), which telescopes to zero around every
element, so constant m_t was an exact kernel of the normal equations;
and m_t, free on edges where w is free, acted as a point force at each
boundary vertex and in effect pinned w there.  Measured with uniform
refinement, k = 0, 64 / 256 / 1024 elements (table in CHANGES.md):

* flat strip (-1,1)x(-pi/4,pi/4), d = 1, f = cos 2y, w = 3/4 cos 2y,
  free at x = +-1: w_h/w is 0.38 / 0.42 / 0.43 with the former layout
  and 0.81 / 0.944 / 0.986 with this one;
* `cyl_free`, d = 1: the error stalls at 0.47 / 0.47 / 0.46 with the
  former layout and falls 0.082 / 0.032 / 0.014 with this one; at
  d = 1e-2 and k = 1 it is 59 / 48 / 43 against 13.7 / 3.3 / 1.4;
* dropping m_t and the q slope (m_n and q only, no corner terms) stalls
  eta at 0.69 / 0.67 / 0.67 on `cyl_free`, d = 1;
* adding a q slope to this layout changes no error by more than 0.3%
  and costs one dof per edge, so it is left out.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import Mesh
from .polyquad import (
    REF_VERTICES,
    SQ2,
    edge_rule,
    edges_table,
    triangle_basis,
    triangle_geometry,
)

EDGE_RULE_DEGREE = 7  # `edge_pairings` integrands have degree <= 6


def local_trace_columns(k):
    """Number of local trace columns of one element (`TraceDofMap.ncols`)."""
    return 33 + 6 * k


class TraceDofMap:
    """Global numbering of the skeleton trace dofs for one mesh.

    Attributes give the offset of each block; `element_columns` lists,
    per element, the global indices of its local trace dofs in the
    order u_hat (6 or 12), w_hat (9), N_hat (6), M_hat edge dofs (m_n, q
    per local edge: 6), M_hat twists (start then end of each local edge
    on the counterclockwise traversal: 6).  `element_signs` (nt, ncols)
    holds s_{T,E} on the N_hat and q columns and 1 on all others: the
    element's own trace values are element_signs times the global ones
    at element_columns.  `gauge` holds the one twist dof per vertex that
    the numbering fixes at zero; it is never a free dof.

    Every dof belongs to one mesh entity: vertex v is entity v and edge
    e is entity nv + e (`nentities` in all).  A vertex owns its u_hat
    and w_hat dofs (5), an edge its N_hat, M_hat and twist dofs and,
    when k = 1, its u_hat bubble (6 or 8).  `dof_entity` gives the
    entity of each dof, `element_entities` the 6 entities of each
    element (its vertices, then its edges, in local order) and
    `column_entity` the local entity (0..5) of each local trace column,
    so that dof_entity[element_columns] equals
    element_entities[:, column_entity].
    """

    def __init__(self, mesh: Mesh, k: int):
        if k not in (0, 1):
            raise ValueError(f"trace order k must be 0 or 1, got {k}")
        self.mesh = mesh
        self.k = k
        nv, ne, nt = mesh.nvertices, mesh.nedges, mesh.ntriangles
        self.off_uhat = 0
        self.off_what = 2 * nv
        self.off_ubub = 5 * nv
        self.off_Nhat = 5 * nv + (2 * ne if k == 1 else 0)
        self.off_Mhat = self.off_Nhat + 2 * ne
        self.off_twist = self.off_Mhat + 2 * ne
        self.ntrace = self.off_twist + 2 * ne
        self.ncols = local_trace_columns(k)

        tri = mesh.triangles
        edg = mesh.tri_edges
        cols = np.empty((nt, self.ncols), dtype=int)
        pos = 0
        for m in range(3):
            cols[:, pos] = 2 * tri[:, m]
            cols[:, pos + 1] = 2 * tri[:, m] + 1
            pos += 2
        if k == 1:
            for j in range(3):
                cols[:, pos] = self.off_ubub + 2 * edg[:, j]
                cols[:, pos + 1] = self.off_ubub + 2 * edg[:, j] + 1
                pos += 2
        for m in range(3):
            for c in range(3):
                cols[:, pos] = self.off_what + 3 * tri[:, m] + c
                pos += 1
        cn = pos  # first N_hat column
        for off in (self.off_Nhat, self.off_Mhat):
            for j in range(3):
                cols[:, pos] = off + 2 * edg[:, j]
                cols[:, pos + 1] = off + 2 * edg[:, j] + 1
                pos += 2
        # twist 2e + i sits at vertex edges[e, i], and the
        # counterclockwise edge starts at the lower-index vertex iff
        # s_{T,E} = +1
        s = mesh.tri_edge_sign
        for j in range(3):
            cols[:, pos] = self.off_twist + 2 * edg[:, j] + (s[:, j] < 0)
            cols[:, pos + 1] = self.off_twist + 2 * edg[:, j] + (s[:, j] > 0)
            pos += 2
        assert pos == self.ncols
        cols.flags.writeable = False
        self.element_columns = cols
        sign = np.ones((nt, self.ncols))
        sign[:, cn:cn + 6] = np.repeat(s, 2, axis=1)
        sign[:, cn + 7:cn + 12:2] = s
        sign.flags.writeable = False
        self.element_signs = sign

        self.nentities = nv + ne
        vert, edge = np.arange(nv), nv + np.arange(ne)
        self.dof_entity = np.concatenate(
            [np.repeat(vert, 2), np.repeat(vert, 3)] + [np.repeat(edge, 2)] * (3 + k))
        self.element_entities = np.hstack([tri, nv + edg])
        lv, le = np.arange(3), np.arange(3, 6)
        self.column_entity = np.concatenate(
            [np.repeat(lv, 2)] + [np.repeat(le, 2)] * k + [np.repeat(lv, 3)]
            + [np.repeat(le, 2)] * 3)

        # twist dof 2e + s sits at vertex edges[e, s]; per vertex, prefer
        # boundary edges, then the lowest edge index
        ends = mesh.edges.ravel()
        interior = np.repeat(~mesh.edge_is_boundary, 2)
        order = np.lexsort((np.arange(2 * ne), interior, ends))
        first = np.concatenate([[True], ends[order][1:] != ends[order][:-1]])
        gauge = self.off_twist + order[first]
        gauge.flags.writeable = False
        self.gauge = gauge



def _classify_sides(mesh, rect):
    """Side label (0..3 for xmin/xmax/ymin/ymax) of every boundary edge."""
    x0, x1, y0, y1 = rect
    tol = 1e-9 * max(x1 - x0, y1 - y0)
    pts = mesh.vertices[mesh.edges[mesh.boundary_edges]]
    side = np.full(len(mesh.boundary_edges), -1, dtype=int)
    for s, (axis, val) in enumerate(((0, x0), (0, x1), (1, y0), (1, y1))):
        on = np.all(np.abs(pts[:, :, axis] - val) < tol, axis=1)
        side[on & (side < 0)] = s
    if np.any(side < 0):
        bad = mesh.boundary_edges[side < 0][0]
        raise ValueError(f"boundary edge {bad} lies on no rectangle side")
    return side


def apply_bc(dofmap: TraceDofMap, problem):
    """Constrained-dof mask from the problem's boundary-condition table.

    Kinematic constraints zero u_hat/w_hat dofs; on each boundary edge
    the dual force/moment dofs are zeroed exactly where the kinematic
    partner is free (component i of N_hat iff u_i free, normal moment
    m_n iff dnw free, effective shear q iff w free).  At every boundary
    vertex where w is free the corner force vanishes: both boundary
    twists there are zeroed.  The gauge dofs (`dofmap.gauge`) are not
    boundary conditions and are not included.
    """
    mesh = dofmap.mesh
    rect = problem.rect if mesh.rect is None else mesh.rect
    side = _classify_sides(mesh, rect)
    constrained = np.zeros(dofmap.ntrace, dtype=bool)
    for s, name in enumerate(("xmin", "xmax", "ymin", "ymax")):
        bc = problem.bc[name]
        be = mesh.boundary_edges[side == s]
        ends = mesh.edges[be]  # (nb, 2)
        ncomp = 0 if s < 2 else 1  # side normal direction (x or y)
        tcomp = 1 - ncomp
        for i, comp in enumerate(("u1", "u2")):
            if comp in bc:
                constrained[2 * ends + i] = True
                if dofmap.k == 1:
                    constrained[dofmap.off_ubub + 2 * be + i] = True
            else:
                constrained[dofmap.off_Nhat + 2 * be + i] = True
        if "w" in bc:
            constrained[dofmap.off_what + 3 * ends] = True
            constrained[dofmap.off_what + 3 * ends + 1 + tcomp] = True
        else:
            constrained[dofmap.off_Mhat + 2 * be + 1] = True
        if "dnw" in bc:
            constrained[dofmap.off_what + 3 * ends + 1 + ncomp] = True
        else:
            constrained[dofmap.off_Mhat + 2 * be] = True
    be = mesh.boundary_edges
    w_free = ~constrained[dofmap.off_what + 3 * mesh.edges[be]]  # (nb, 2)
    twists = dofmap.off_twist + 2 * be[:, None] + np.arange(2)
    constrained[twists[w_free]] = True
    return constrained


@dataclass(frozen=True)
class TracePairings:
    """Batched element pairing matrices (one leading element axis).

    u_hat: (nt, 30, 6+6k)  T-block rows,
    w_hat: (nt, 45, 9)     S-block rows,
    N_hat: (nt, 20, 6)     v-block rows,
    M_hat: (nt, 10, 12)    z-block rows; columns 2j, 2j+1: m_n and q of
                           local edge j, columns 6+2j, 6+2j+1: twists at
                           its start and its end on the counterclockwise
                           traversal.

    N_hat and q are relative to the outward normal of the element, so
    the matrices depend on the element only through its Jacobian;
    `TraceDofMap.element_signs` carries the global edge orientation.
    """

    u_hat: np.ndarray
    w_hat: np.ndarray
    N_hat: np.ndarray
    M_hat: np.ndarray


def _frame_times_normal(nrm):
    """(..., 3 frames, 2) arrays: each of `polyquad.FRAMES_SYM` applied to n."""
    n1, n2 = nrm[..., 0], nrm[..., 1]
    zero = np.zeros_like(n1)
    return np.stack([n1, zero, n2 / SQ2, n1 / SQ2, zero, n2], axis=-1).reshape(
        nrm.shape[:-1] + (3, 2))


# local edge j runs from vertex EDGE_FROM[j] = (j + 1) % 3 to vertex
# EDGE_TO[j] = (j + 2) % 3; vertex m starts edge STARTS[m] = (m + 2) % 3
# and ends edge ENDS[m] = (m + 1) % 3
EDGE_FROM, EDGE_TO = [1, 2, 0], [2, 0, 1]
STARTS, ENDS = [2, 0, 1], [1, 2, 0]


@dataclass(frozen=True)
class _EdgeTables:
    """The element-independent factors of `edge_pairings`, stacked over the
    three local edges j or vertices m, from `polyquad.edges_table`."""

    ends: np.ndarray     # (10, 1, 3 m, 2): P3 x hat of m on STARTS[m], ENDS[m]
    bubble: np.ndarray   # (10, 1, 3 j, 1): P3 against the edge bubble
    wval4: np.ndarray    # (3 j, 1, 15, Q): weighted P4 values
    wgrad4: np.ndarray   # (3 j, 2 d, 15, Q): weighted P4 gradients d/dxi_d
    mean3: np.ndarray    # (3 j, 10): P3 edge integrals
    dmean3: np.ndarray   # (3 j, 2, 10): P3 reference-gradient edge integrals
    hermite: np.ndarray  # (5, Q, 2 ends): hval, hgrad, dval, dgrad, nlin
    twists: np.ndarray   # (10, 3 j, 2): z at the start and -z at the end


@lru_cache(maxsize=None)
def _edge_tables():
    rule = edge_rule(EDGE_RULE_DEGREE)
    sq, wq = rule.points, rule.weights
    t3, t4 = (edges_table(p, EDGE_RULE_DEGREE) for p in (3, 4))
    # (3 j, Q, ...): the rows of each local edge
    val3, grad3, val4, grad4 = (x.reshape((3, -1) + x.shape[1:])
                                for x in (t3.val, t3.grad, t4.val, t4.grad))
    wv3 = wq[:, None] * val3
    hats = np.stack([1 - sq, sq], axis=0)
    at_ends = np.array([[h @ wv for h in hats] for wv in wv3])  # (3 j, 2, 10)
    z_at_vertex = triangle_basis(3).eval(REF_VERTICES)  # (3, 10)
    tables = _EdgeTables(
        ends=np.stack([at_ends[STARTS, 0], at_ends[ENDS, 1]], axis=-1
                      ).transpose(1, 0, 2)[:, None],
        bubble=((4 * sq * (1 - sq)) @ wv3).T[:, None, :, None],
        wval4=(wq[:, None] * val4).transpose(0, 2, 1)[:, None],
        wgrad4=(wq[:, None, None] * grad4).transpose(0, 3, 2, 1),
        mean3=wq @ val3,
        dmean3=np.tensordot(wq, grad3, (0, 1)).transpose(0, 2, 1),
        hermite=np.stack([
            [2 * sq**3 - 3 * sq**2 + 1, -2 * sq**3 + 3 * sq**2],
            [sq**3 - 2 * sq**2 + sq, sq**3 - sq**2],
            [6 * sq**2 - 6 * sq, 6 * sq - 6 * sq**2],
            [3 * sq**2 - 4 * sq + 1, 3 * sq**2 - 2 * sq], hats]
        ).transpose(0, 2, 1),
        twists=np.stack([z_at_vertex[EDGE_FROM], -z_at_vertex[EDGE_TO]], axis=-1
                        ).transpose(1, 0, 2),
    )
    for arr in vars(tables).values():
        arr.flags.writeable = False
    return tables


def edge_pairings(mesh: Mesh, k: int, elements=None) -> TracePairings:
    """Pairing matrices of all trace dofs for the given elements, each in
    the element's own frame (`TracePairings`).

    Integrands are polynomials of degree <= 6 along each edge; a fixed
    4-point Gauss rule integrates them exactly.  Every edge integral is
    the edge length L times one over the reference edge.  The edge
    geometry (L, tangent tau, outward normal n) and each per-edge term
    carry an axis of the three local edges after the element axis,
    against the reference tables of `_edge_tables`, which stack the
    same axis; so a batch costs a fixed number of array operations.  A
    vertex column sums the terms of the edge it starts and the edge it
    ends (`STARTS`, `ENDS`), and the terms are then moved to the column
    layout of `TracePairings`.
    """
    if k not in (0, 1):
        raise ValueError(f"trace order k must be 0 or 1, got {k}")
    els = np.arange(mesh.ntriangles) if elements is None else np.asarray(elements)
    coords = mesh.triangle_coords(els)
    nt = len(els)
    _, _, Jinv = triangle_geometry(coords)
    T = _edge_tables()
    hval, hgrad, dval, dgrad, nlin = T.hermite
    nq = len(hval)

    ed = coords[:, EDGE_TO] - coords[:, EDGE_FROM]  # (nt, 3 j, 2)
    L = np.hypot(ed[..., 0], ed[..., 1])
    tau = ed / L[..., None]
    nrm = np.stack([tau[..., 1], -tau[..., 0]], axis=-1)  # outward for CCW
    Lfn3 = L[..., None, None] * _frame_times_normal(nrm)  # (nt, 3 j, 3 f, 2)

    # --- u_hat columns: integral (T n) . phi over the edge; rows 3i+f,
    # columns 2m+c (vertex m), then 6+2j+c (bubble of edge j, k = 1)
    Lf = Lfn3.transpose(0, 2, 1, 3)[:, None]  # (nt, 1, 3 f, 3 j, 2)
    pu = (T.ends[..., 0, None] * Lf[:, :, :, STARTS]
          + T.ends[..., 1, None] * Lf[:, :, :, ENDS])
    if k == 1:
        pu = np.concatenate([pu, T.bubble * Lf], axis=3)
    pu = pu.reshape(nt, 30, 6 + 6 * k)

    # --- w_hat columns: integral [ w (n . div S) - (S n) . grad w ]
    # n . div(psi F) = grad psi . (F n) and S n = psi F n per frame F.
    # At edge end p, column 3p (value dof): w = hval, grad w = (hval'/L)
    # tau; column 3p+1+c (gradient dof c): w = L hgrad tau_c, grad w =
    # hgrad' tau_c tau + nlin n_c n.  Axes (nt, 3 j, [2 d,] Q, 2 p, 3)
    at_q, by_d = (slice(None), slice(None), None, None), (Ellipsis, None, None, None)
    wcol = np.empty((nt, 3, nq, 2, 3))
    wcol[..., 0] = hval
    wcol[..., 1:] = (L[at_q] * hgrad)[..., None] * tau[at_q]
    gcol = np.empty((nt, 3, 2, nq, 2, 3))
    gcol[..., 0] = (dval / L[at_q])[:, :, None] * tau[..., None, None]
    gcol[..., 1:] = ((dgrad[..., None] * tau[at_q])[:, :, None] * tau[by_d]
                     + (nlin[..., None] * nrm[at_q])[:, :, None] * nrm[by_d])
    # Iw: reference gradients against w, mapped by Jinv; Ig: psi against
    # grad w; both (nt, 3 j, 2 d, (i, p, r)), each paired over d with F n
    Iw = (T.wgrad4 @ wcol.reshape(nt, 3, 1, nq, 6)).reshape(nt, 3, 2, 90)
    Ig = (T.wval4 @ gcol.reshape(nt, 3, 2, nq, 6)).reshape(nt, 3, 2, 90)
    JFn = (Jinv[:, None] @ Lfn3.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    contrib = (JFn @ Iw - Lfn3 @ Ig).reshape(nt, 3, 3, 15, 2, 3)
    pw = contrib[..., 0, :][:, STARTS] + contrib[..., 1, :][:, ENDS]  # (nt, 3 m, 3 f, 15, 3)
    pw = pw.transpose(0, 3, 2, 1, 4).reshape(nt, 45, 9)

    # --- N_hat columns: integral sigma_hat . v; rows 2i+c, columns 2j+c
    I3 = (L[..., None] * T.mean3).transpose(0, 2, 1)  # (nt, 10, 3 j)
    pn = np.zeros((nt, 10, 2, 3, 2))
    pn[:, :, [0, 1], :, [0, 1]] = I3

    # --- M_hat columns: -m_n integral dz/dn, q integral z, and the
    #     twists' endpoint terms -[t z]_a^b: z(a) at the start, -z(b)
    #     at the end
    Jn = (Jinv[:, None] @ (L[..., None] * nrm)[..., None])[..., 0]  # (nt, 3 j, 2)
    pm = np.empty((nt, 10, 2, 3, 2))
    # two elementwise products, not a (nt, 2)(2, 10) product per edge,
    # whose rounding depends on nt
    pm[:, :, 0, :, 0] = -(Jn[..., 0, None] * T.dmean3[:, 0]
                          + Jn[..., 1, None] * T.dmean3[:, 1]).transpose(0, 2, 1)
    pm[:, :, 0, :, 1] = I3
    pm[:, :, 1] = T.twists

    return TracePairings(pu, pw, pn.reshape(nt, 20, 6), pm.reshape(nt, 10, 12))
