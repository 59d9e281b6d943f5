"""Element systems and global DPG normal equations.

Per element the method computes the scaled test-space Gram matrix G
(111 x 111), the trial-to-test matrix Bmat, and the load vector l; the
optimal test functions give the element normal equations
Bmat' G^-1 Bmat u = Bmat' G^-1 l.  The 10 field dofs of an element
couple only within it, so they are eliminated per element (static
condensation) and only the skeleton traces are solved for globally:
scatter-adding the condensed element contributions over the global
trace numbering yields a sparse SPD system on the free trace dofs, and
the fields are recovered per element after the solve
(`NormalEquations.fields`).

G and Bmat depend on the element only through its Jacobian J and its
edge signs s_{T,E}: the element tensors of an affine map are those of
its shape (Kirby and Logg, ACM TOMS 2006), and a sign flip is a signed
permutation of the trace columns (`traces.flipped_edge_columns`).
Newest-vertex bisection keeps the number of distinct Jacobians small
(Stevenson, Math. Comp. 2008), so the elements are grouped into
Jacobian classes (`jacobian_classes`), and G, Bmat, the Cholesky
factor of G and the field elimination are built once per class; only
the load is per element.  `ElementSystems` documents the algebra.

Test space per element (broken): v in [P3]^2, z in P3, T in sym P3,
S in sym P4, Q in skew P2; 111 dofs with the block offsets below.
Symmetric tensor blocks use the orthonormal frames (E11, E12s, E22)
with E12s = offdiag/sqrt(2); the skew block uses [[0,1],[-1,0]]/sqrt(2).

Trial space per element: piecewise constant fields
(u1, u2, w, N11, N12, N21, N22, M11, M12, M22) followed by the
`TraceDofMap.ncols` local trace dofs in the order of
`TraceDofMap.element_columns`; the moment trace contributes the normal
moment and effective shear of each edge and the twists at its two
endpoints, which pair with z through the corner forces.  The global
system holds the free trace dofs only: those that neither a boundary
condition (`apply_bc`) nor the twist gauge (`TraceDofMap.gauge`, one
twist per vertex) fixes at zero.  `NormalEquations.ndof` still counts
the free traces plus the 10 field dofs per element.
"""
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg import solve_triangular

from .model import apply_Cinv, eval_loads
from .polyquad import (
    FRAMES_SYM,
    SQ2,
    map_gradients,
    map_hessians,
    map_points,
    triangle_basis,
    triangle_geometry,
    triangle_rule,
)
from .traces import (
    TraceDofMap,
    apply_bc,
    edge_pairings,
    flipped_edge_columns,
    local_trace_columns,
)

N_TEST = 111
OFF_V, OFF_Z, OFF_T, OFF_S, OFF_Q = 0, 20, 30, 60, 105
QUAD_DEGREE = 8
N_FIELD = 10
# Jacobians are keyed on a grid of this size relative to the power of two
# of their largest entry: rounding noise of a repeated shape stays on one
# grid point, distinct shapes do not merge
CLASS_RTOL = 1e-10
# Jacobian classes per call of the element kernels: each call holds a few
# (batch, 111, 111) Gram-sized temporaries, so this bounds the peak
# memory on meshes with many distinct shapes
CLASS_BATCH = 128

FRAME_SKEW = np.array([[0.0, 1.0 / SQ2], [-1.0 / SQ2, 0.0]])
# M field directions M11, M12, M22
DIR_M = np.array(
    [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
    ]
)


class AssemblyError(Exception):
    pass


def _div_from_grads(g):
    """Row-wise divergence of psi*frame for all frames; (..., dim, 3, 2)."""
    gx, gy = g[..., 0], g[..., 1]
    out = np.zeros(g.shape[:-1] + (3, 2))
    out[..., 0, 0] = gx
    out[..., 1, 0] = gy / SQ2
    out[..., 1, 1] = gx / SQ2
    out[..., 2, 1] = gy
    return out


def _divdiv_from_hess(h):
    """div div of psi*frame for all frames; (..., dim, 3)."""
    return np.stack(
        [h[..., 0, 0], SQ2 * h[..., 0, 1], h[..., 1, 1]], axis=-1
    )


def _b_coeffs(B):
    """B : frame for the three symmetric frames."""
    return np.array([B[0, 0], SQ2 * B[0, 1], B[1, 1]])


def element_gram_batch(mesh, problem, els):
    """Gram matrices (nel, 111, 111) of the scaled test inner product."""
    if problem.d <= 0.0 or problem.D <= 0.0:
        raise ValueError("thickness and scaling length must be positive")
    coords = mesh.triangle_coords(els)
    _, detJ, Jinv = triangle_geometry(coords)
    rule = triangle_rule(QUAD_DEGREE)
    b2, b3, b4 = triangle_basis(2), triangle_basis(3), triangle_basis(4)
    nel = len(detJ)
    wd = rule.weights[None, :] * detJ[:, None]

    v3 = b3.eval(rule.points)
    g3 = map_gradients(b3.grad(rule.points), Jinv)
    h3 = map_hessians(b3.hess(rule.points), Jinv)
    h4 = map_hessians(b4.hess(rule.points), Jinv)

    d, D, cQ = problem.d, problem.D, problem.c_Q
    Cd = problem.C_disp
    B = problem.B
    bf = _b_coeffs(B)

    G = np.zeros((nel, N_TEST, N_TEST))

    # value terms: the reference basis is orthonormal, element mass = detJ I
    i10 = np.arange(10)
    C2 = Cd @ Cd
    for c in range(2):
        for cc in range(2):
            G[:, OFF_V + 2 * i10 + c, OFF_V + 2 * i10 + cc] += (
                C2[c, cc] / D**2
            ) * detJ[:, None]
    zidx = OFF_Z + i10
    G[:, zidx, zidx] += (d * d / D**4 + np.sum(B * B)) * detJ[:, None]
    tidx = OFF_T + np.arange(30)
    G[:, tidx, tidx] += detJ[:, None]
    sidx = OFF_S + np.arange(45)
    G[:, sidx, sidx] += detJ[:, None] / d**2
    # |grad v - B z + Q|^2 contributes |Q|^2 on top of the weighted term
    qidx = OFF_Q + np.arange(6)
    G[:, qidx, qidx] += (1.0 + cQ) * detJ[:, None]

    # |grad v - B z + Q|^2, gradient parts
    K3 = np.einsum("eq,eqia,eqja->eij", wd, g3, g3)
    for c in range(2):
        G[:, (OFF_V + 2 * i10 + c)[:, None], OFF_V + 2 * i10[None, :] + c] += K3
    Bg = np.einsum("ab,eqib->eqia", B, g3)
    M_vz = np.einsum("eq,eqic,qj->eicj", wd, Bg, v3)
    for c in range(2):
        blk = M_vz[:, :, c, :]
        G[:, (OFF_V + 2 * i10 + c)[:, None], OFF_Z + i10[None, :]] -= blk
        G[:, (OFF_Z + i10)[:, None], OFF_V + 2 * i10[None, :] + c] -= blk.transpose(
            0, 2, 1
        )
    v2 = b2.eval(rule.points)
    Wg = np.stack([g3[..., 1], -g3[..., 0]], axis=-1) / SQ2
    M_vq = np.einsum("eq,eqic,qm->eicm", wd, Wg, v2)
    for c in range(2):
        blk = M_vq[:, :, c, :]
        G[:, (OFF_V + 2 * i10 + c)[:, None], OFF_Q + np.arange(6)[None, :]] += blk
        G[
            :, (OFF_Q + np.arange(6))[:, None], OFF_V + 2 * i10[None, :] + c
        ] += blk.transpose(0, 2, 1)

    # d^2 |eps grad z|^2
    G[:, (OFF_Z + i10)[:, None], OFF_Z + i10[None, :]] += (d * d) * np.einsum(
        "eq,eqiab,eqjab->eij", wd, h3, h3
    )

    # D^2 |C_disp^-1 div T|^2
    divT = _div_from_grads(g3).reshape(nel, len(rule.weights), 30, 2)
    Cinv = np.linalg.inv(Cd)
    CdivT = np.einsum("ab,eqRb->eqRa", Cinv, divT)
    G[:, OFF_T : OFF_T + 30, OFF_T : OFF_T + 30] += (D * D) * np.einsum(
        "eq,eqRa,eqPa->eRP", wd, CdivT, CdivT
    )

    # d^-2 D^4 |divdiv S - B:T|^2
    ddS = _divdiv_from_hess(h4).reshape(nel, len(rule.weights), 45)
    fac = D**4 / d**2
    G[:, OFF_S : OFF_S + 45, OFF_S : OFF_S + 45] += fac * np.einsum(
        "eq,eqR,eqP->eRP", wd, ddS, ddS
    )
    cross = np.einsum("eq,eqR,qi->eRi", wd, ddS, v3)
    ST = fac * np.einsum("eRi,f->eRif", cross, bf).reshape(nel, 45, 30)
    G[:, OFF_S : OFF_S + 45, OFF_T : OFF_T + 30] -= ST
    G[:, OFF_T : OFF_T + 30, OFF_S : OFF_S + 45] -= ST.transpose(0, 2, 1)
    bb = np.outer(bf, bf)
    for f in range(3):
        for ff in range(3):
            G[:, OFF_T + 3 * i10 + f, OFF_T + 3 * i10 + ff] += (
                fac * bb[f, ff]
            ) * detJ[:, None]

    # the quadrature einsums are symmetric only up to rounding; scaled in
    # place so that no third Gram-sized array is alive at once
    Gsym = G + G.transpose(0, 2, 1)
    Gsym *= 0.5
    return Gsym


def element_b_batch(mesh, problem, k, els, pairings=None):
    """Trial-to-test matrices (nel, 111, 10 + TraceDofMap.ncols)."""
    coords = mesh.triangle_coords(els)
    _, detJ, Jinv = triangle_geometry(coords)
    rule = triangle_rule(QUAD_DEGREE)
    b2, b3, b4 = triangle_basis(2), triangle_basis(3), triangle_basis(4)
    nel = len(detJ)
    wd = rule.weights[None, :] * detJ[:, None]
    nu_cols = 6 + 6 * k
    ncols = N_FIELD + local_trace_columns(k)

    v2 = b2.eval(rule.points)
    v3 = b3.eval(rule.points)
    v4 = b4.eval(rule.points)
    g3 = map_gradients(b3.grad(rule.points), Jinv)
    h3 = map_hessians(b3.hess(rule.points), Jinv)
    h4 = map_hessians(b4.hess(rule.points), Jinv)

    B = problem.B
    bf = _b_coeffs(B)
    nu = problem.nu
    d = problem.d

    Bmat = np.zeros((nel, N_TEST, ncols))

    IT2 = np.einsum("eq,qm->em", wd, v2)
    IT3 = np.einsum("eq,qi->ei", wd, v3)
    IT4 = np.einsum("eq,qi->ei", wd, v4)
    Ig3 = np.einsum("eq,eqib->eib", wd, g3)
    Ih3 = np.einsum("eq,eqjab->ejab", wd, h3)

    # (u, div T)
    divT = _div_from_grads(g3).reshape(nel, -1, 30, 2)
    IdivT = np.einsum("eq,eqRc->eRc", wd, divT)
    for c in range(2):
        Bmat[:, OFF_T : OFF_T + 30, c] = IdivT[:, :, c]

    # (w, divdiv S - B:T)
    ddS = _divdiv_from_hess(h4).reshape(nel, -1, 45)
    Bmat[:, OFF_S : OFF_S + 45, 2] = np.einsum("eq,eqR->eR", wd, ddS)
    for f in range(3):
        Bmat[:, OFF_T + 3 * np.arange(10) + f, 2] -= bf[f] * IT3

    # (N, C^-1 T + grad v - B z + Q); N columns 3 + 2a + b
    CinvF = apply_Cinv(FRAMES_SYM, nu)
    for a in range(2):
        for b in range(2):
            col = 3 + 2 * a + b
            for f in range(3):
                Bmat[:, OFF_T + 3 * np.arange(10) + f, col] += CinvF[f, a, b] * IT3
            Bmat[:, OFF_V + 2 * np.arange(10) + a, col] += Ig3[:, :, b]
            Bmat[:, OFF_Z + np.arange(10), col] -= B[a, b] * IT3
            Bmat[:, OFF_Q + np.arange(6), col] += FRAME_SKEW[a, b] * IT2

    # (M, 12 d^-2 C^-1 S + eps grad z); M columns 7 + f'
    CM = np.einsum("pab,fab->pf", DIR_M, CinvF)
    for p in range(3):
        col = 7 + p
        for f in range(3):
            Bmat[:, OFF_S + 3 * np.arange(15) + f, col] += (
                12.0 / d**2 * CM[p, f]
            ) * IT4
        Bmat[:, OFF_Z + np.arange(10), col] += np.einsum(
            "ejab,ab->ej", Ih3, DIR_M[p]
        )

    # trace columns, signs of the skeleton duality
    pair = edge_pairings(mesh, k, els) if pairings is None else pairings
    cu = N_FIELD
    cw = cu + nu_cols
    cn = cw + 9
    cm = cn + 6
    Bmat[:, OFF_T : OFF_T + 30, cu:cw] = -pair.u_hat
    Bmat[:, OFF_S : OFF_S + 45, cw:cn] = -pair.w_hat
    Bmat[:, OFF_V : OFF_V + 20, cn:cm] = -pair.N_hat
    Bmat[:, OFF_Z : OFF_Z + 10, cm:] = pair.M_hat
    return Bmat


def find_point_element(mesh, point):
    """Vertex index and lowest-index element owning a point-load vertex."""
    dist = np.abs(mesh.vertices - np.asarray(point)).max(axis=1)
    v = int(np.argmin(dist))
    scale = max(abs(float(x)) for x in mesh.rect or (1.0,)) or 1.0
    if dist[v] > 1e-12 * scale:
        raise AssemblyError(f"point load location {tuple(point)} is not a mesh vertex")
    owners = np.nonzero(np.any(mesh.triangles == v, axis=1))[0]
    return v, int(owners[0])


def element_load_batch(mesh, problem, els):
    """Load vectors (nel, 111): (p, v) - (f, z), or the point-load entry."""
    coords = mesh.triangle_coords(els)
    _, detJ, _ = triangle_geometry(coords)
    rule = triangle_rule(QUAD_DEGREE)
    b3 = triangle_basis(3)
    nel = len(detJ)
    l = np.zeros((nel, N_TEST))

    load = problem.point_load
    if load is not None:
        v, t0 = find_point_element(mesh, load.point)
        sel = np.nonzero(np.asarray(els) == t0)[0]
        if sel.size:
            m = int(np.nonzero(mesh.triangles[t0] == v)[0][0])
            ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])[m]
            zvals = b3.eval(ref[None, :])[0]
            l[sel[0], OFF_Z : OFF_Z + 10] = -load.weight * zvals
        return l

    wd = rule.weights[None, :] * detJ[:, None]
    v3 = b3.eval(rule.points)
    phys = map_points(coords, rule.points)
    f, p = eval_loads(problem, phys[..., 0], phys[..., 1])
    for c in range(2):
        l[:, OFF_V + 2 * np.arange(10) + c] = np.einsum(
            "eq,qi->ei", wd * p[..., c], v3
        )
    l[:, OFF_Z : OFF_Z + 10] = -np.einsum("eq,qi->ei", wd * f, v3)
    return l


def jacobian_classes(mesh):
    """Group the elements of a mesh by their Jacobian up to translation.

    Returns (cls, reps): the class index of every element and the
    lowest-index element of each class.  A Jacobian is keyed by the
    binary exponent of its largest entry and its entries rounded to
    `CLASS_RTOL` times that power of two, so J and 2 J never share a
    class.  A shape whose entries straddle a grid point may get two
    classes, which costs one more kernel call and nothing else.
    """
    J, _, _ = triangle_geometry(mesh.triangle_coords())
    J = J.reshape(len(J), 4)
    _, expo = np.frexp(np.abs(J).max(axis=1))
    grid = np.rint(np.ldexp(J, -expo[:, None]) / CLASS_RTOL).astype(np.int64)
    key = np.column_stack([expo, grid])
    _, reps, cls = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return cls.ravel(), reps


def gram_factor(G):
    """Cholesky factor of one symmetrically equilibrated Gram matrix.

    Returns (L, s) with L L' = S G S for S = diag(s), s = diag(G)^-1/2,
    so that G^-1 = S L^-T L^-1 S.
    """
    diag = np.diag(G)
    if not np.all(diag > 0.0):
        raise AssemblyError("Gram matrix not positive")
    s = 1.0 / np.sqrt(diag)
    try:
        L = np.linalg.cholesky(s[:, None] * G * s[None, :])
    except np.linalg.LinAlgError:
        raise AssemblyError("Cholesky factorization of the Gram matrix failed") from None
    return L, s


@dataclass
class ElementSystems:
    """Field-condensed element normal equations from Jacobian-class factors.

    The elements of class J (`jacobian_classes`) share G_J, B_J and the
    factor L_J of `gram_factor`, built on the class's lowest-index
    element; W_J = L_J^-1 S_J B_J splits into its field and trace
    columns [W_f | W_t].  With the full QR W_f = [Q_1 Q_2] [R; 0] the
    class keeps

        W^c_J = Q_2' W_t,  K_J = R^-1 Q_1' W_t,

    and element T keeps, from its whitened load y_T = L_J^-1 S_J l_T,

        y^c_T = Q_2' y_T,  f_T = R^-1 Q_1' y_T,

    and the signed column map P_T (`perm`, `sign`) of its edge signs
    relative to the class element: B_T[:, j] = sign[T, j] * B_J[:, perm[T, j]]
    on the trace columns (the field columns are never permuted).  Then

        A_T = P_T' W^c' W^c P_T,  rhs_T = P_T' W^c' y^c_T,  c_T = |y^c_T|^2

    are the Schur complements on the field block of the uncondensed
    element system, formed without inverting it.  For trace values u_T
    the locally optimal fields are f_T - K_J P_T u_T (`fields`), and the
    residual in the dual test norm at those fields is
    |y^c_T - W^c P_T u_T| (`residual_norms`).
    """

    A: np.ndarray  # (nel, nc, nc) over the local trace columns
    rhs: np.ndarray  # (nel, nc)
    c: np.ndarray  # (nel,)   |y^c_T|^2
    cols: np.ndarray  # (nel, nc) global trace dof indices
    cls: np.ndarray  # (nel,) Jacobian class
    W: list  # per class (111 - 10, nc): W^c_J
    K: list  # per class (10, nc): field recovery
    y: np.ndarray  # (nel, 111 - 10): y^c_T
    f: np.ndarray  # (nel, 10): fields at zero traces
    perm: np.ndarray  # (nel, nc)
    sign: np.ndarray  # (nel, nc)

    def _class_frames(self, uloc):
        """(class, members, P_T u_T) for local trace values (nel, nc)."""
        for j, mem in enumerate(_class_members(self.cls, len(self.W))):
            v = np.zeros((len(mem), self.W[j].shape[1]))
            np.put_along_axis(v, self.perm[mem], self.sign[mem] * uloc[mem], axis=1)
            yield j, mem, v

    def residual_norms(self, uloc):
        """|y^c_T - W^c_J P_T u_T| per element for local trace values."""
        out = np.empty(len(uloc))
        for j, mem, v in self._class_frames(uloc):
            out[mem] = np.linalg.norm(self.y[mem] - v @ self.W[j].T, axis=1)
        return out

    def fields(self, uloc):
        """Locally optimal fields (nel, 10) f_T - K_J P_T u_T."""
        out = np.empty((len(uloc), N_FIELD))
        for j, mem, v in self._class_frames(uloc):
            out[mem] = self.f[mem] - v @ self.K[j].T
        return out


def _class_members(cls, ncls):
    """Element indices of each class, in class order."""
    order = np.argsort(cls, kind="stable")
    return np.split(order, np.cumsum(np.bincount(cls, minlength=ncls))[:-1])


def _element_systems(mesh, problem, k, cols):
    """Class-factored, field-condensed `ElementSystems` of all elements.

    `cols` (nel, nc) are the global indices of the local trace columns.
    """
    nt, nc = cols.shape
    cls, reps = jacobian_classes(mesh)
    signs = mesh.tri_edge_sign
    perm, sign = flipped_edge_columns(k, signs != signs[reps[cls]])
    l = element_load_batch(mesh, problem, np.arange(nt))

    members = _class_members(cls, len(reps))
    Ws, Ks = [], []
    y = np.empty((nt, N_TEST - N_FIELD))
    f = np.empty((nt, N_FIELD))
    A = np.empty((nt, nc, nc))
    rhs = np.empty((nt, nc))
    for lo in range(0, len(reps), CLASS_BATCH):
        batch = reps[lo:lo + CLASS_BATCH]
        G = element_gram_batch(mesh, problem, batch)
        Bm = element_b_batch(mesh, problem, k, batch)
        for j in range(lo, lo + len(batch)):
            try:
                L, s = gram_factor(G[j - lo])
            except AssemblyError as err:
                raise AssemblyError(
                    f"{err} in element {reps[j]} (Jacobian class {j})") from None
            Wfull = solve_triangular(L, s[:, None] * Bm[j - lo], lower=True)
            Q, R = np.linalg.qr(Wfull[:, :N_FIELD], mode="complete")
            R = R[:N_FIELD]
            QW = Q.T @ Wfull[:, N_FIELD:]
            W = QW[N_FIELD:]
            Ws.append(W)
            Ks.append(solve_triangular(R, QW[:N_FIELD]))
            mem = members[j]
            Qy = solve_triangular(L, (s * l[mem]).T, lower=True).T @ Q
            y[mem] = Qy[:, N_FIELD:]
            f[mem] = solve_triangular(R, Qy[:, :N_FIELD].T).T
            WtW = W.T @ W
            WtW = 0.5 * (WtW + WtW.T)
            P, S = perm[mem], sign[mem]
            A[mem] = WtW[P[:, :, None], P[:, None, :]] * (S[:, :, None] * S[:, None, :])
            rhs[mem] = S * np.take_along_axis(y[mem] @ W, P, axis=1)
    c = np.einsum("ei,ei->e", y, y)
    return ElementSystems(A, rhs, c, cols, cls, Ws, Ks, y, f, perm, sign)


@dataclass
class NormalEquations:
    A: scipy.sparse.csr_matrix  # over the free trace dofs
    rhs: np.ndarray
    dofmap: TraceDofMap
    constrained: np.ndarray
    index_map: np.ndarray  # trace dof -> row of A, -1 if constrained
    ndof: int  # free traces + 10 field dofs per element
    elements: ElementSystems
    dof_xy: np.ndarray = None
    problem: object = None

    def expand(self, x):
        """Free-dof solution -> full trace vector (zeros on constrained dofs)."""
        full = np.zeros(self.index_map.size)
        free = self.index_map >= 0
        full[free] = x[self.index_map[free]]
        return full

    def fields(self, x):
        """Per-element constant fields (nel, 10) recovered from a solution."""
        return self.elements.fields(self.expand(x)[self.elements.cols])


def assemble_normal_equations(mesh, problem, k):
    """Assemble the field-condensed DPG normal equations on the free traces."""
    dofmap = TraceDofMap(mesh, k)
    constrained = apply_bc(dofmap, problem)
    constrained[dofmap.gauge] = True
    nt = mesh.ntriangles
    free = np.nonzero(~constrained)[0]
    n = free.size
    index_map = np.full(dofmap.ntrace, -1, dtype=int)
    index_map[free] = np.arange(n)

    cols = dofmap.element_columns
    elements = _element_systems(mesh, problem, k, cols)

    nc = cols.shape[1]
    gcols = index_map[cols]  # (nt, nc), -1 on constrained
    rows = np.broadcast_to(gcols[:, :, None], (nt, nc, nc))
    colsm = np.broadcast_to(gcols[:, None, :], (nt, nc, nc))
    keep = (rows >= 0) & (colsm >= 0)
    A = scipy.sparse.coo_matrix(
        (elements.A[keep], (rows[keep].astype(np.int32), colsm[keep].astype(np.int32))),
        shape=(n, n),
    ).tocsr()
    rhs = np.zeros(n)
    keep_r = gcols >= 0
    np.add.at(rhs, gcols[keep_r], elements.rhs[keep_r])

    dof_xy = _dof_coordinates(mesh, dofmap)[free]
    return NormalEquations(A, rhs, dofmap, constrained, index_map,
                           n + N_FIELD * nt, elements, dof_xy, problem)


def _dof_coordinates(mesh, dofmap):
    """Location of every trace dof (vertex or edge midpoint).

    Twist dofs sit at the edge endpoint they belong to.  Feeds the
    nested-dissection ordering in the solver.
    """
    verts = mesh.vertices
    emid = verts[mesh.edges].mean(axis=1)
    xy = np.empty((dofmap.ntrace, 2))
    xy[dofmap.off_uhat:dofmap.off_what] = np.repeat(verts, 2, axis=0)
    xy[dofmap.off_what:dofmap.off_ubub] = np.repeat(verts, 3, axis=0)
    for lo, hi in ((dofmap.off_ubub, dofmap.off_Nhat),
                   (dofmap.off_Nhat, dofmap.off_Mhat),
                   (dofmap.off_Mhat, dofmap.off_twist)):
        if hi > lo:
            xy[lo:hi] = np.repeat(emid, (hi - lo) // mesh.nedges, axis=0)
    xy[dofmap.off_twist:dofmap.ntrace] = verts[mesh.edges.ravel()]
    return xy


def element_gram(mesh, problem, element=0):
    return element_gram_batch(mesh, problem, np.array([element]))[0]


def element_b(mesh, problem, k, element=0):
    return element_b_batch(mesh, problem, k, np.array([element]))[0]


def element_load(mesh, problem, element=0):
    return element_load_batch(mesh, problem, np.array([element]))[0]
