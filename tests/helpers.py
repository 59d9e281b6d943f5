"""Shared oracle helpers: projections onto element test blocks, the
element kernels of a single element, the Gram matrix and the whitened
element system formed from the Gram rows, Householder QR and triangular
solves in long double, loop versions of the mesh, boundary-condition and
class-kernel code, and the triplet scatter of the trace system."""

import math

import numpy as np
import scipy.sparse
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgeqrf, dormqr

from shelldpg.assembly import (
    CLASS_RTOL,
    N_FIELD,
    N_TEST,
    OFF_Q,
    OFF_T,
    OFF_Z,
    QUAD_DEGREE,
    _gram_blocks,
    element_b_batch,
    element_gram_batch,
    element_load_batch,
)
from shelldpg.mesh import Mesh
from shelldpg.polyquad import (
    map_gradients,
    map_hessians,
    map_points,
    triangle_basis,
    triangle_geometry,
    triangle_rule,
    triangle_table,
)
from shelldpg.traces import TraceDofMap, _classify_sides

SQ2 = np.sqrt(2.0)
# orthonormal symmetric frames and the skew frame
FRAMES_SYM = np.array(
    [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 1.0 / SQ2], [1.0 / SQ2, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
    ]
)
FRAME_SKEW = np.array([[0.0, 1.0 / SQ2], [-1.0 / SQ2, 0.0]])


def project_scalar(coords, fn, degree, fn_degree=4):
    """Coefficients of fn (restricted to the element) in the orthonormal
    reference basis of the given degree; exact for polynomial fn."""
    basis = triangle_basis(degree)
    rule = triangle_rule(degree + fn_degree)
    vals = basis.eval(rule.points)
    phys = map_points(coords, rule.points)
    f = np.asarray(fn(phys[..., 0], phys[..., 1]), dtype=float)
    return (vals * rule.weights[:, None]).T @ f


def project_vector(coords, fn, degree, fn_degree=4):
    """Coefficients (2*dim,) with index 2*i + c."""
    basis = triangle_basis(degree)
    rule = triangle_rule(degree + fn_degree)
    vals = basis.eval(rule.points)
    phys = map_points(coords, rule.points)
    f = np.asarray(fn(phys[..., 0], phys[..., 1]), dtype=float)  # (Q, 2)
    coef = (vals * rule.weights[:, None]).T @ f  # (dim, 2)
    return coef.reshape(-1)


def project_sym_tensor(coords, fn, degree, fn_degree=4):
    """Coefficients (3*dim,) with index 3*i + frame."""
    basis = triangle_basis(degree)
    rule = triangle_rule(degree + fn_degree)
    vals = basis.eval(rule.points)
    phys = map_points(coords, rule.points)
    f = np.asarray(fn(phys[..., 0], phys[..., 1]), dtype=float)  # (Q, 2, 2)
    fr = np.einsum("qab,fab->qf", f, FRAMES_SYM)
    coef = (vals * rule.weights[:, None]).T @ fr  # (dim, 3)
    return coef.reshape(-1)


def element_gram(mesh, problem, element=0):
    """Gram matrix G = F' F (111, 111) of one element."""
    F = element_gram_batch(mesh, problem, np.array([element]))[0]
    return F.T @ F


def householder_r(X):
    """R (..., n, n) of the Householder QR of X (..., m, n), m >= n, in
    long double (x86-64: 64-bit mantissa), for a stack of matrices; a
    column that is zero below the diagonal is left as it is."""
    A = np.array(X, dtype=np.longdouble)
    n = A.shape[-1]
    for j in range(n):
        x = A[..., j:, j]
        norm = np.sqrt(np.einsum("...i,...i->...", x, x))
        v = x.copy()
        v[..., 0] += np.where(x[..., 0] < 0, -norm, norm)
        vv = np.einsum("...i,...i->...", v, v)
        beta = 2.0 / np.where(vv > 0, vv, np.inf)
        w = np.einsum("...i,...ij->...j", v, A[..., j:, j:])
        A[..., j:, j:] -= beta[..., None, None] * v[..., :, None] * w[..., None, :]
    return np.triu(A[..., :n, :])


def triangular_solve_ld(R, B, trans):
    """R^-1 B, or R'^-1 B if `trans`, for upper triangular R (..., n, n),
    by substitution in long double."""
    n = R.shape[-1]
    X = np.empty(B.shape, dtype=np.longdouble)
    rows = range(n) if trans else range(n - 1, -1, -1)
    for i in rows:
        done = slice(0, i) if trans else slice(i + 1, n)
        coef = R[..., done, i] if trans else R[..., i, done]
        done_part = np.einsum("...k,...kc->...c", coef, X[..., done, :])
        X[..., i, :] = (B[..., i, :] - done_part) / R[..., i, i, None]
    return X


def whitened_element_systems(mesh, problem, k, els):
    """W = R'^-1 [Bmat l] (nel, 111, 10 + ncols + 1) in long double, with
    R' R = F' F the factor of each element's own Gram rows, by one
    Householder QR per diagonal block; B's trace columns signed into the
    global edge frames.  Then W' W = [Bmat l]' G^-1 [Bmat l]."""
    F = _gram_blocks(element_gram_batch(mesh, problem, els))
    Bl = np.concatenate([element_b_batch(mesh, problem, k, els),
                         element_load_batch(mesh, problem, els)[:, :, None]],
                        axis=2).astype(np.longdouble)
    Bl[:, :, N_FIELD:-1] *= TraceDofMap(mesh, k).element_signs[els][:, None, :]
    return np.concatenate(
        [triangular_solve_ld(householder_r(Fb), Bl[:, rows], True)
         for Fb, rows in zip(F, (slice(0, OFF_T), slice(OFF_T, None)))], axis=1)


def element_b(mesh, problem, k, element=0):
    """Trial-to-test matrix of one element."""
    return element_b_batch(mesh, problem, k, np.array([element]))[0]


def element_load(mesh, problem, element=0):
    """Load vector (111,) of one element."""
    return element_load_batch(mesh, problem, np.array([element]))[0]


class LoopMesh(Mesh):
    """`Mesh` with its edge tables built by loops over the triangles: an
    oracle for the array construction of `shelldpg.mesh.Mesh`."""

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
        self.edge_normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1)

        tri = self.triangles
        trav = np.stack(
            [tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]], axis=1
        )
        self.tri_edge_sign = np.where(trav[:, :, 0] < trav[:, :, 1], 1, -1)


def loop_refine(mesh, marked):
    """`shelldpg.mesh.refine` by a loop over the triangles, as a `LoopMesh`."""
    marked = np.unique(np.asarray(list(marked), dtype=int))
    if marked.size == 0:
        return mesh
    edge_marked = np.zeros(mesh.nedges, dtype=bool)
    edge_marked[mesh.tri_edges[marked].ravel()] = True
    while True:
        need = edge_marked[mesh.tri_edges].any(axis=1) & ~edge_marked[
            mesh.tri_edges[:, 0]
        ]
        if not need.any():
            break
        edge_marked[mesh.tri_edges[need, 0]] = True

    vertices = list(map(tuple, mesh.vertices))
    new_vertex = {}
    for e in np.flatnonzero(edge_marked):
        p, q = mesh.edges[e]
        xm = 0.5 * (mesh.vertices[p] + mesh.vertices[q])
        new_vertex[(p, q) if p < q else (q, p)] = len(vertices)
        vertices.append((xm[0], xm[1]))

    def bisect(tri, children):
        a, b, c = tri
        m = new_vertex[(b, c) if b < c else (c, b)]
        children.append((m, a, b))
        children.append((m, c, a))

    triangles = []
    for it, (a, b, c) in enumerate(mesh.triangles):
        e0, e1, e2 = mesh.tri_edges[it]
        if not edge_marked[e0]:
            assert not (edge_marked[e1] or edge_marked[e2])
            triangles.append((a, b, c))
            continue
        first = []
        bisect((a, b, c), first)
        for child, e in zip(first, (e2, e1)):
            if edge_marked[e]:
                bisect(child, triangles)
            else:
                triangles.append(child)
    return LoopMesh(vertices, triangles, rect=mesh.rect)


def loop_apply_bc(dofmap, problem):
    """`shelldpg.traces.apply_bc` by a loop over the boundary edges."""
    mesh = dofmap.mesh
    rect = problem.rect if mesh.rect is None else mesh.rect
    side = _classify_sides(mesh, rect)
    names = ("xmin", "xmax", "ymin", "ymax")
    constrained = np.zeros(dofmap.ntrace, dtype=bool)
    for be, s in zip(mesh.boundary_edges, side):
        bc = problem.bc[names[s]]
        va, vb = mesh.edges[be]
        ncomp = 0 if s < 2 else 1
        tcomp = 1 - ncomp
        for i, name in enumerate(("u1", "u2")):
            if name in bc:
                constrained[[2 * va + i, 2 * vb + i]] = True
                if dofmap.k == 1:
                    constrained[dofmap.off_ubub + 2 * be + i] = True
            else:
                constrained[dofmap.off_Nhat + 2 * be + i] = True
        if "w" in bc:
            for v in (va, vb):
                constrained[dofmap.off_what + 3 * v] = True
                constrained[dofmap.off_what + 3 * v + 1 + tcomp] = True
        else:
            constrained[dofmap.off_Mhat + 2 * be + 1] = True
        if "dnw" in bc:
            for v in (va, vb):
                constrained[dofmap.off_what + 3 * v + 1 + ncomp] = True
        else:
            constrained[dofmap.off_Mhat + 2 * be] = True
    be = mesh.boundary_edges
    w_free = ~constrained[dofmap.off_what + 3 * mesh.edges[be]]
    twists = dofmap.off_twist + 2 * be[:, None] + np.arange(2)
    constrained[twists[w_free]] = True
    return constrained


def loop_class_kernels(F, Bm):
    """W^c_J, K_J and E_J of one class, as `shelldpg.assembly._class_kernels`
    builds them for a stack of classes, from its Gram rows F."""
    nc = Bm.shape[1] - N_FIELD
    Bl = np.hstack([Bm, np.eye(N_TEST, OFF_Q)])
    X = np.vstack([solve_triangular(np.linalg.qr(Fb[0], mode="r"), Bl[rows], trans="T")
                   for Fb, rows in zip(_gram_blocks(F[None]),
                                       (slice(0, OFF_T), slice(OFF_T, None)))])
    qr, tau, _, _ = dgeqrf(X[:, :N_FIELD])
    QX = dormqr("L", "T", qr, tau, X[:, N_FIELD:], lwork=64 * X.shape[1])[0]
    QX[:N_FIELD] = solve_triangular(np.triu(qr[:N_FIELD]), QX[:N_FIELD])
    return QX[N_FIELD:, :nc], QX[:N_FIELD, :nc], QX[:, nc:]


def class_loop_systems(el, uloc):
    """A_T, rhs_T, residuals and fields of `ElementSystems` `el` from
    W^c_J' W^c_J and P_T u_T formed class by class, the fields of the
    elements of parity -1 signed afterwards."""
    nel, nc = el.sign.shape
    A = np.empty((nel, nc, nc))
    rhs = np.empty((nel, nc))
    res = np.empty(el.y.shape)
    fields = np.empty((nel, N_FIELD))
    for j in range(len(el.W)):
        mem = np.nonzero(el.cls == j)[0]
        W = el.W[j]
        WtW = W.T @ W
        WtW = 0.5 * (WtW + WtW.T)
        S = el.sign[mem]
        A[mem] = WtW * (S[:, :, None] * S[:, None, :])
        rhs[mem] = S * (el.y[mem] @ W)
        v = S * uloc[mem]
        res[mem] = el.y[mem] - v @ W.T
        fields[mem] = el.f[mem] - v @ el.K[j].T
    # u1 and u2 are odd under the point reflection J -> -J
    fields[el.parity < 0, :2] *= -1.0
    return A, rhs, res, fields


def coo_assembled_matrix(neq):
    """(A, free): the trace matrix of `neq` scattered from its element
    matrices as (row, column, value) triplets that `tocsr` sorts and sums,
    over the free trace dofs `free` numbered in trace order."""
    free = np.nonzero(neq.index_map >= 0)[0]
    trace_order = np.full(neq.index_map.size, -1)
    trace_order[free] = np.arange(free.size)
    gcols = trace_order[neq.elements.cols]
    nt, nc = gcols.shape
    rows = np.broadcast_to(gcols[:, :, None], (nt, nc, nc))
    cols = np.broadcast_to(gcols[:, None, :], (nt, nc, nc))
    keep = (rows >= 0) & (cols >= 0)
    vals = neq.elements.matrices()[keep]
    A = scipy.sparse.coo_matrix((vals, (rows[keep], cols[keep])),
                                shape=(free.size, free.size)).tocsr()
    return A, free


def loop_monomials(basis, points, dx, dy):
    """`TriangleBasis._monomials` as a loop over the exponents: column k
    is c x^(a - dx) y^(b - dy) for the k-th exponent pair (a, b), c the
    falling factorials a!/(a - dx)! b!/(b - dy)!, or zero where c is."""
    points = np.asarray(points, dtype=float)
    mono = np.empty((points.shape[0], basis.dim))
    for k, (a, b) in enumerate(basis.exponents):
        c = math.perm(a, dx) * math.perm(b, dy)
        if c == 0:
            mono[:, k] = 0.0
        else:
            mono[:, k] = c * points[:, 0] ** (a - dx) * points[:, 1] ** (b - dy)
    return mono


def unique_jacobian_classes(mesh):
    """`shelldpg.assembly.jacobian_classes` grouped by `np.unique(axis=0)`
    over the same keys."""
    J, _, _ = triangle_geometry(mesh.triangle_coords())
    J = J.reshape(len(J), 4)
    _, expo = np.frexp(np.abs(J).max(axis=1))
    grid = np.rint(np.ldexp(J, -expo[:, None]) / CLASS_RTOL).astype(np.int64)
    lead = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    parity = np.where(lead < 0, -1, 1)
    key = np.column_stack([expo, grid * parity[:, None]])
    keys, reps, cls = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return cls.ravel(), reps, keys, parity


def pointwise_operator_rows(mesh, problem, els):
    """The operator terms of the test norm at the points of the
    `QUAD_DEGREE` rule, weighted by sqrt(w_q detJ), one row per point and
    component: grad v - B z + Q (nel, nq, 4, 36) and d grad grad z
    (nel, nq, 3, 36) over (v, z, Q); D C_disp^-1 div T (nel, nq, 2, 75)
    and (D^2 / d) (divdiv S - B : T) (nel, nq, 1, 75) over (T, S)."""
    _, detJ, Jinv = triangle_geometry(mesh.triangle_coords(els))
    rule = triangle_rule(QUAD_DEGREE)
    t2, t3, t4 = (triangle_table(p, QUAD_DEGREE) for p in (2, 3, 4))
    nel, nq = len(detJ), len(rule.weights)
    d, D, B = problem.d, problem.D, problem.B
    sw = np.sqrt(rule.weights[None, :] * detJ[:, None])[:, :, None]
    v2, v3 = sw * t2.val, sw * t3.val
    g3 = sw[..., None] * map_gradients(t3.grad, Jinv)  # (nel, nq, 10, 2)
    h3 = sw[..., None, None] * map_hessians(t3.hess, Jinv)
    h4 = sw[..., None, None] * map_hessians(t4.hess, Jinv)

    gv = np.zeros((nel, nq, 2, 2, OFF_T))
    for c in range(2):
        gv[:, :, c, :, c:OFF_Z:2] = g3.transpose(0, 1, 3, 2)
    gv[..., OFF_Z:OFF_Q] = -B[:, :, None] * v3[:, :, None, None, :]
    gv[..., OFF_Q:] = FRAME_SKEW[:, :, None] * v2[:, :, None, None, :]
    hz = np.zeros((nel, nq, 3, OFF_T))
    hz[..., OFF_Z:OFF_Q] = d * np.stack(
        [h3[..., 0, 0], SQ2 * h3[..., 0, 1], h3[..., 1, 1]], axis=2)

    Cinv = np.linalg.inv(problem.C_disp)
    divT = np.zeros((nel, nq, 2, N_TEST - OFF_T))
    ddS = np.zeros((nel, nq, 1, N_TEST - OFF_T))
    for f, frame in enumerate(FRAMES_SYM):
        # div(psi frame) = frame grad psi, then D C_disp^-1
        divT[..., 3 * np.arange(10) + f] = D * np.einsum(
            "ab,bc,eqic->eqai", Cinv, frame, g3)
        ddS[:, :, 0, 30 + f::3] = np.einsum("eqiab,ab->eqi", h4, frame)
        ddS[:, :, 0, f:30:3] = -np.sum(B * frame) * v3
    return (gv.reshape(nel, nq, 4, OFF_T), hz, divT, D * D / d * ddS)
