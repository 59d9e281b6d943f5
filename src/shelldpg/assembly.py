"""Element systems and global DPG normal equations.

Per element the method computes the square-root rows F of the scaled
test-space Gram matrix G = F' F (111 x 111), the trial-to-test matrix
Bmat, and the load vector l; the optimal test functions give the element
normal equations Bmat' G^-1 Bmat u = Bmat' G^-1 l.  G is never formed:
one QR per diagonal block of F gives G = R' R (`_gram_root`).  The 10
field dofs of an element couple only within it, so they are eliminated
per element (static condensation) and only the skeleton traces are
solved for globally: scatter-adding the condensed element contributions
over the global trace numbering yields a sparse SPD system on the free
trace dofs, and the fields are recovered per element after the solve
(`NormalEquations.fields`).

F and Bmat depend on the element only through its Jacobian J: the
element tensors of an affine map are those of its shape (Kirby and
Logg, ACM TOMS 2006), and the trace pairings are written in the
element's own frame (`traces.edge_pairings`), so that the orientation of
the skeleton lives only in the signed element-to-global column map
P_T = diag(sign_T) (`TraceDofMap.element_signs`).  Newest-vertex
bisection keeps the number of distinct Jacobians small (Stevenson,
Math. Comp. 2008), and makes them in pairs J and -J, an element and its
180-degree rotation.  Under the point reflection x -> -x the operator
(constant B and C_disp) is even once the odd quantities change sign:
the vectors v, u, u_hat, grad w_hat and N_hat = N n are odd; z, T, S,
Q, w, N, M, the w_hat values, m_n, q and the twists are even.  So the
element tensors of -J are those of J with rows and columns signed, and
the elements are grouped into classes of +-J (`jacobian_classes`), each
element with its parity p_T = +-1 against its class's canonical J.  F,
Bmat, the QR factor of F, the field elimination and a load map are
built on one element per class; per element only the load and the
signs remain.  Most shapes survive a refinement step, so an assembly
given the previous level's `NormalEquations` builds the class kernels
only for the shapes new to its mesh and takes the others over.
`ElementSystems` documents the algebra.

Test space per element (broken): v in [P3]^2, z in P3, Q in skew P2,
T in sym P3, S in sym P4; 111 dofs: (v, z, Q) at 0:36, (T, S) at 36:111.
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

The free traces are numbered entity by entity: the free dofs of each
vertex and each edge (`TraceDofMap.dof_entity`) are consecutive, the
entities in a fill-reducing elimination order (`_entity_order`), and
`NormalEquations.index_map` maps the trace numbering to this one.  The
order is minimum degree on the vertex graph, each edge eliminated just
before the first of its two ends (Ashcraft's compressed graph, SIAM
J. Sci. Comput. 1995); the factorization keeps it (`solver._splu`).
The sparsity of A depends only on the mesh topology and the
constraints, so its CSR pattern is built from the element-entity
incidence before any element matrix exists (`_trace_pattern`),
together with what places an element matrix entry in A.data: the start
of its row, the rank of its column within its entity, and the offset
of each pair of the element's entities.  The fill (`_csr_fill`) forms
the positions and the element matrices (`ElementSystems.matrices`) a
fixed chunk of elements at a time and adds them in element order, so
neither an (nt, nc, nc) table of positions nor one of matrices is ever
held.  This is the vectorised assembly of Cuvelier, Japhet and Scarella
("An efficient way to assemble finite element matrices in vector
languages", BIT 2016) on the entity graph.

The fill writes the matrix that `solver.solve` factors: As = S A S with
the Jacobi scaling S = diag(s), s = diag(A)^-1/2 (`NormalEquations`).
The signs of P_T square to one, so diag(A) sums the diagonals of the
class matrices WtW[J] over the elements, one bincount before the fill,
and the fill scales each column of A_T by s at its global dof in the
product of signs it already forms (`ElementSystems.matrices`).
"""
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg.lapack import dgeqrf, dormqr, dtrtrs

from .mesh import match_rows
from .model import apply_Cinv, eval_loads
from .polyquad import (
    FRAMES_SYM,
    REF_VERTICES,
    SQ2,
    map_gradients,
    map_hessians,
    map_points,
    triangle_basis,
    triangle_geometry,
    triangle_rule,
    triangle_table,
)
from .traces import TraceDofMap, apply_bc, edge_pairings, local_trace_columns

N_TEST = 111
# the (v, z, Q) block of the test norm, then the (T, S) block
OFF_V, OFF_Z, OFF_Q, OFF_T, OFF_S = 0, 20, 30, 36, 66
QUAD_DEGREE = 8
# the orthonormal P3 basis, in which each operator term of the test norm
# is given by its coefficients (`element_gram_batch`)
N_P3 = 10
N_FIELD = 10
# Jacobians are keyed on a grid of this size relative to the power of two
# of their largest entry: rounding noise of a repeated shape stays on one
# grid point, distinct shapes do not merge
CLASS_RTOL = 1e-10
# Jacobian classes per call of the element kernels.  At 128 classes
# `element_gram_batch` peaks at 32 MB (24 MB of Gram rows, tracemalloc),
# `element_b_batch` at 9-10 MB and `_class_kernels` at 36-38 MB, so this
# bounds the peak memory on meshes with many distinct shapes
CLASS_BATCH = 128
# elements per step of the CSR fill (`_csr_fill`): 32 to 128 fill as fast
# from 384 to 6,144 elements, 256 and more up to twice as slow
FILL_CHUNK = 64

# signs under J -> -J (`ElementSystems`): of the test rows, v odd; of the
# field columns of B, u1 and u2 odd
S_V = np.r_[-np.ones(OFF_Z - OFF_V), np.ones(N_TEST - OFF_Z)]
SIGMA_F = np.r_[-1.0, -1.0, np.ones(N_FIELD - 2)]
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


def _gram_block(X):
    """X' X over the rows of a stack of tables (nel, rows, cols), made
    exactly symmetric: the batched product is symmetric only up to
    rounding."""
    P = X.transpose(0, 2, 1) @ X
    P += P.transpose(0, 2, 1).copy()
    P *= 0.5
    return P


def element_gram_batch(mesh, problem, els):
    """Square-root rows F (nel, 211, 111) of the Gram matrices G = F' F
    of the scaled test inner product.

    The squared test norm of tau = (v, z, T, S, Q) on an element is

        D^-2 |C_disp v|^2 + d^2 D^-4 z^2 + |T|^2 + d^-2 |S|^2 + c_Q |Q|^2
        + |grad v - B z + Q|^2 + |d grad grad z|^2 + |D C_disp^-1 div T|^2
        + |(D^2 / d) (divdiv S - B : T)|^2

    integrated over it: |F tau|^2.  No term couples (v, z, Q) with
    (T, S), so F is block diagonal (`_gram_blocks`), with 36 + 7 * 10 and
    75 + 3 * 10 rows.  Each block starts with its mass rows, sqrt(detJ)
    times the terms' weights (the reference basis is orthonormal).  Each
    component of an operator term, grad v - B z + Q and d grad grad z,
    then div T and divdiv S - B : T, has degree <= 3 on an affine element,
    so its integral squared is detJ times the sum of its squared
    coefficients in the orthonormal P3 basis: the rows of a component are
    those 10 coefficients times sqrt(detJ), from the reference tables
    projected onto P3 once (`_p3_coefficients`) and mapped by Jinv.
    """
    coords = mesh.triangle_coords(els)
    _, detJ, Jinv = triangle_geometry(coords)
    nel, (c2, c3, _, g3, h3, h4) = len(detJ), _p3_coefficients()
    d, D, B = problem.d, problem.D, problem.B

    sdJ = np.sqrt(detJ)[:, None, None]
    v2, v3 = sdJ * c2, sdJ * c3
    g3 = sdJ[..., None] * map_gradients(g3, Jinv)  # (nel, P3, 10, 2)

    F = np.zeros((nel, N_TEST + 10 * N_P3, N_TEST))
    F1, F2 = _gram_blocks(F)
    n2 = N_TEST - OFF_T
    M = np.diag(np.repeat([0.0, d / D**2, np.sqrt(problem.c_Q), 1.0, 1.0 / d],
                          [OFF_Z, 10, 6, 30, 45]))
    M[:OFF_Z, :OFF_Z] = np.kron(np.eye(10), problem.C_disp / D)
    F1[:, :OFF_T], F2[:, :n2] = sdJ * M[:OFF_T, :OFF_T], sdJ * M[OFF_T:, OFF_T:]

    # grad v - B z + Q, component (a, b), over the v, z and Q columns
    X = F1[:, OFF_T:OFF_T + 4 * N_P3].reshape(nel, N_P3, 2, 2, OFF_T)
    for c in range(2):
        X[:, :, c, :, OFF_V + c:OFF_Z:2] = g3.transpose(0, 1, 3, 2)
    X[..., OFF_Z:OFF_Q] = -B[:, :, None] * v3[:, :, None, None, :]
    X[..., OFF_Q:] = FRAME_SKEW[:, :, None] * v2[:, :, None, None, :]

    # d grad grad z, entries (xx, sqrt2 xy, yy)
    h3 = _divdiv_from_hess(map_hessians(h3, Jinv))  # (nel, P3, 10, 3)
    F1[:, OFF_T + 4 * N_P3:, OFF_Z:OFF_Q] = (d * sdJ[..., None] * h3).transpose(
        0, 1, 3, 2).reshape(nel, 3 * N_P3, 10)

    # D C_disp^-1 div T
    DCinvT = D * np.linalg.inv(problem.C_disp).T
    divT = _div_from_grads(g3).reshape(nel, N_P3, 30, 2) @ DCinvT
    F2[:, n2:n2 + 2 * N_P3, :30] = divT.transpose(0, 1, 3, 2).reshape(
        nel, 2 * N_P3, 30)

    # (D^2 / d) (divdiv S - B : T) over the T and S columns
    h4 = _divdiv_from_hess(map_hessians(h4, Jinv))  # (nel, P3, 15, 3)
    X = F2[:, n2 + 2 * N_P3:]
    X[..., :30] = -(v3[..., None] * _b_coeffs(B)).reshape(nel, N_P3, 30)
    X[..., 30:] = sdJ * h4.reshape(nel, N_P3, 45)
    X *= D * D / d
    return F


@lru_cache(maxsize=None)
def _p3_coefficients():
    """Coefficients in the orthonormal P3 basis (leading axis) of the P2,
    P3 and P4 test bases, of the P3 gradients and of the P3 and P4
    Hessians on the reference triangle: the tables at the points of the
    `QUAD_DEGREE` rule, which is exact for these degree <= 7 products,
    weighted by w_q phi_i(x_q) and summed over the points.  The first
    basis function is the constant sqrt(2), so row 0 over sqrt(2) is the
    integral over the reference triangle."""
    rule = triangle_rule(QUAD_DEGREE)
    t2, t3, t4 = (triangle_table(p, QUAD_DEGREE) for p in (2, 3, 4))
    P = (rule.weights[:, None] * t3.val).T
    out = tuple(np.tensordot(P, x, 1) for x in (t2.val, t3.val, t4.val, t3.grad,
                                                  t3.hess, t4.hess))
    for arr in out:
        arr.flags.writeable = False
    return out


def _gram_blocks(F):
    """Views of the two diagonal blocks of Gram rows F (`element_gram_batch`):
    its rows on the test dofs (v, z, Q), then those on (T, S)."""
    m1 = OFF_T + 7 * (F.shape[1] - N_TEST) // 10
    return F[:, :m1, :OFF_T], F[:, m1:, OFF_T:]


def element_b_batch(mesh, problem, k, els):
    """Trial-to-test matrices (nel, 111, 10 + TraceDofMap.ncols).

    The trial fields are constant on an element, so each field column
    integrates a test function, its gradient or its Hessian over the
    element: detJ times a reference integral (`_p3_coefficients`), the
    derivatives mapped by Jinv after integrating.  Each block of test
    rows of the field columns is one broadcast product of such an
    integral with the coefficients of the field in that block's terms.
    """
    coords = mesh.triangle_coords(els)
    _, detJ, Jinv = triangle_geometry(coords)
    nel = len(detJ)
    B, d = problem.B, problem.d

    Bmat = np.zeros((nel, N_TEST, N_FIELD + local_trace_columns(k)))

    I2, I3, I4, G3, H3, H4 = (x[0] / SQ2 for x in _p3_coefficients())
    dJ = detJ[:, None]
    IT2, IT3, IT4 = dJ * I2, dJ * I3, dJ * I4
    Ig3 = dJ[..., None] * map_gradients(G3, Jinv)
    Ih3, Ih4 = (dJ[..., None, None] * map_hessians(H, Jinv) for H in (H3, H4))

    # field columns u (0, 1), w (2), N11, N12, N21, N22 (3 + 2a + b) and
    # M11, M12, M22 (7 + p) against the test terms
    # (u, div T), (w, divdiv S - B:T), (N, C^-1 T + grad v - B z + Q) and
    # (M, 12 d^-2 C^-1 S + eps grad z)
    CinvF = apply_Cinv(FRAMES_SYM, problem.nu)  # (3 f, 2, 2)
    on_T = np.column_stack([-_b_coeffs(B), CinvF.reshape(3, 4)])  # (3 f, w, N columns)
    on_S = 12.0 / d**2 * np.einsum("pab,fab->pf", DIR_M, CinvF).T  # (3 f, M columns)
    Bmat[:, OFF_T:OFF_S, :2] = _div_from_grads(Ig3).reshape(nel, 30, 2)
    Bmat[:, OFF_T:OFF_S, 2:7] = (IT3[:, :, None, None] * on_T).reshape(nel, 30, 5)
    Bmat[:, OFF_S:, 2] = _divdiv_from_hess(Ih4).reshape(nel, 45)
    Bmat[:, OFF_S:, 7:N_FIELD] = (IT4[:, :, None, None] * on_S).reshape(nel, 45, 3)
    for a in range(2):
        Bmat[:, OFF_V + a:OFF_Z:2, 3 + 2 * a:5 + 2 * a] = Ig3
    Bmat[:, OFF_Z:OFF_Q, 3:7] = IT3[:, :, None] * -B.ravel()
    Bmat[:, OFF_Z:OFF_Q, 7:N_FIELD] = np.einsum("ejab,pab->ejp", Ih3, DIR_M)
    Bmat[:, OFF_Q:OFF_T, 3:7] = IT2[:, :, None] * FRAME_SKEW.ravel()

    # trace columns, signs of the skeleton duality
    pair = edge_pairings(mesh, k, els)
    su, sw, sn, sm = _trace_blocks(k)
    Bt = Bmat[:, :, N_FIELD:]
    Bt[:, OFF_T : OFF_T + 30, su] = -pair.u_hat
    Bt[:, OFF_S : OFF_S + 45, sw] = -pair.w_hat
    Bt[:, OFF_V : OFF_V + 20, sn] = -pair.N_hat
    Bt[:, OFF_Z : OFF_Z + 10, sm] = pair.M_hat
    return Bmat


def _trace_blocks(k):
    """The u_hat, w_hat (value, d/dx, d/dy at each vertex), N_hat and
    M_hat slices of the local trace columns (`TraceDofMap.ncols`)."""
    nu = 6 + 6 * k
    return (slice(0, nu), slice(nu, nu + 9), slice(nu + 9, nu + 15),
            slice(nu + 15, local_trace_columns(k)))


def _reflection_signs(k):
    """sigma_t (`TraceDofMap.ncols`,): the signs of the trace columns of B
    under J -> -J (`ElementSystems`): -1 on u_hat, on the two gradient
    dofs of each vertex's w_hat and on N_hat; +1 on the w_hat values,
    m_n, q and the twists."""
    su, sw, sn, _ = _trace_blocks(k)
    sigma = np.ones(local_trace_columns(k))
    sigma[su] = sigma[sn] = -1.0
    sigma[sw] = np.tile([1.0, -1.0, -1.0], 3)
    return sigma


def find_point_element(mesh, point):
    """Vertex index and lowest-index element owning a point-load vertex."""
    scale = max(abs(float(x)) for x in mesh.rect or (1.0,)) or 1.0
    v, owners = mesh.vertex_at(point, scale)
    if v is None:
        raise AssemblyError(f"point load location {tuple(point)} is not a mesh vertex")
    return v, int(owners[0])


def element_load_batch(mesh, problem, els):
    """Load vectors (nel, 111): (p, v) - (f, z), or the point-load entry."""
    coords = mesh.triangle_coords(els)
    _, detJ, _ = triangle_geometry(coords)
    rule = triangle_rule(QUAD_DEGREE)
    nel = len(detJ)
    l = np.zeros((nel, N_TEST))

    load = problem.point_load
    if load is not None:
        v, t0 = find_point_element(mesh, load.point)
        sel = np.nonzero(np.asarray(els) == t0)[0]
        if sel.size:
            m = int(np.nonzero(mesh.triangles[t0] == v)[0][0])
            zvals = triangle_basis(3).eval(REF_VERTICES[m][None, :])[0]
            l[sel[0], OFF_Z : OFF_Z + 10] = -load.weight * zvals
        return l

    wd = rule.weights[None, :] * detJ[:, None]
    v3 = triangle_table(3, QUAD_DEGREE).val
    phys = map_points(coords, rule.points)
    f, p = eval_loads(problem, phys[..., 0], phys[..., 1])
    for c in range(2):
        l[:, OFF_V + 2 * np.arange(10) + c] = (wd * p[..., c]) @ v3
    l[:, OFF_Z : OFF_Z + 10] = -(wd * f) @ v3
    return l


def jacobian_classes(mesh):
    """Group the elements of a mesh by their Jacobian up to translation
    and point reflection.

    Returns (cls, reps, keys, parity): the class index of every element,
    the lowest-index element of each class, the key of each class and
    the parity p_T = +-1 of every element, the sign that takes its
    Jacobian to its class's canonical one.  A Jacobian is keyed by the
    binary exponent of its largest entry and its entries rounded to
    `CLASS_RTOL` times that power of two, so J and 2 J never share a
    class.  J and -J share one: the canonical key is the one whose first
    nonzero grid entry is positive, and p_T = -1 where the element's own
    grid had to be negated to reach it (`ElementSystems` gives the
    algebra).  A shape whose entries straddle a grid point may get two
    classes, which costs one more kernel call and nothing else.  Keys
    are absolute, so equal keys on two meshes mean the same shape.
    """
    J, _, _ = triangle_geometry(mesh.triangle_coords())
    J = J.reshape(len(J), 4)
    _, expo = np.frexp(np.abs(J).max(axis=1))
    grid = np.rint(np.ldexp(J, -expo[:, None]) / CLASS_RTOL).astype(np.int64)
    lead = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    parity = np.where(lead < 0, -1, 1)
    key = np.column_stack([expo, grid * parity[:, None]])
    # the keys in lexicographic order, ties by element index
    order = np.lexsort(key.T[::-1])
    key = key[order]
    first = np.concatenate([[True], (key[1:] != key[:-1]).any(axis=1)])
    cls = np.empty(len(key), dtype=np.intp)
    cls[order] = np.cumsum(first) - 1
    return cls, order[first], key[first], parity


@dataclass
class ElementSystems:
    """Field-condensed element normal equations from Jacobian-class kernels.

    The elements of class J (`jacobian_classes`) share the Gram rows F_J
    and B_J of the class's canonical Jacobian, built on one element of
    the class in its own frame, and L_J = R_J' with G_J = R_J' R_J
    (`_gram_root`); W_J = L_J^-1 B_J splits into its field and trace
    columns [W_f | W_t].  With the full QR W_f = [Q_1 Q_2] [R; 0] the
    class keeps the kernels

        W^c_J = Q_2' W_t,  K_J = R^-1 Q_1' W_t,
        E_J = [R^-1 Q_1'; Q_2'] L_J^-1[:, :OFF_Q],

    E_J being the load map on the v and z test rows, the only ones a
    load fills (`element_load_batch`).  The row signs of R_J that QR
    leaves open flip rows of W_J and E_J alike, unseen by A_T, K_J, r_T.

    Point reflection.  J -> -J maps x - x_0 to -(x - x_0): first
    derivatives change sign, values and second derivatives do not, and
    B and C_disp are constant.  So every term of the test norm and of
    the ultraweak form is even once the odd quantities are negated: the
    vectors v, u, u_hat, grad w_hat and N_hat = N n are odd; z, T, S, Q,
    w, N, M, the w_hat values, m_n, q and the twists are even.  Hence

        F(-J) = D_r F(J) S_v,  B(-J) = S_v B(J) diag(sigma_f, sigma_t),

    S_v = -1 on the 20 v test rows (`S_V`), sigma_f = -1 on u1 and u2
    (`SIGMA_F`), sigma_t = -1 on u_hat, on the two gradient dofs of each
    vertex's w_hat and on N_hat (`_reflection_signs`), D_r = -1 on the
    rows of the odd C_disp v and div T, which R does not see.  A class
    keeps the kernels of its canonical Jacobian: a representative of
    parity -1 has F and B signed before its kernels are built.  Element T
    of parity p_T (`parity`) keeps

        [f_T; y^c_T] = E_J l_T[:OFF_Q],

    its load signed by S_v first where p_T = -1: the fields at zero
    traces f_T = R^-1 Q_1' y_T (in the canonical frame) and the condensed
    load y^c_T = Q_2' y_T of the whitened load y_T = L_J^-1 l_T.  Its
    signed column map P_T = diag(sign_T) holds the edge orientation
    (`TraceDofMap.element_signs`) times sigma_t where p_T = -1: the
    canonical element's trace values are P_T u_T for the global values
    u_T at its columns `cols`.  Then

        A_T = P_T W^c' W^c P_T,  rhs_T = P_T W^c' y^c_T

    are the Schur complements on the field block of the uncondensed
    element system, formed without inverting it; each class keeps
    W^c' W^c (`WtW`), and A_T is WtW[J] signed along both axes.  The
    systems keep rhs_T but not A_T: `matrices` forms A_T for the fill
    of the global matrix only.  For
    trace values u_T the locally optimal fields are f_T - K_J P_T u_T,
    times sigma_f where p_T = -1 (`fields`), and the residual in the
    dual test norm at those fields is r_T = y^c_T - W^c P_T u_T
    (`residuals`); its adjoint P_T W^c' r_T (`adjoint`) gives rhs_T at
    u_T = 0.

    Reuse: W^c_J, K_J, E_J and WtW[J] depend on the mesh only through
    the class key (`keys`), so the systems of the same problem and k on
    another mesh
    (`assemble_normal_equations(previous=...)`) lend them to every class
    whose key they hold, and only the other classes are built.
    """

    rhs: np.ndarray  # (nel, nc)
    cols: np.ndarray  # (nel, nc) global trace dof indices
    cls: np.ndarray  # (nel,) Jacobian class
    keys: np.ndarray  # (ncls, 5) class keys of `jacobian_classes`
    W: np.ndarray  # (ncls, 111 - 10, nc): W^c_J
    K: np.ndarray  # (ncls, 10, nc): field recovery
    E: np.ndarray  # (ncls, 111, OFF_Q): load map to [f_T; y^c_T]
    WtW: np.ndarray  # (ncls, nc, nc): W^c_J' W^c_J, exactly symmetric
    y: np.ndarray  # (nel, 111 - 10): y^c_T
    f: np.ndarray  # (nel, 10): fields at zero traces, canonical frame
    sign: np.ndarray  # (nel, nc): the diagonal of P_T
    parity: np.ndarray  # (nel,) p_T of `jacobian_classes`
    classes: tuple  # (order, bounds) of `_class_order`

    def matrices(self, els=None, scale=None):
        """A_T = P_T WtW[J] P_T (n, nc, nc) over the local trace columns
        of the elements `els` (all by default), or D_T A_T D_T with
        D_T = diag(scale[T]) for a factor per column of every element,
        `scale` (nel, nc), joined to the signs before they touch WtW[J]."""
        if els is None:
            els = slice(None)
        sign = self.sign[els]
        if scale is not None:
            sign = sign * scale[els]
        A = self.WtW[self.cls[els]]
        A *= sign[:, :, None]
        A *= sign[:, None, :]
        return A

    def residuals(self, uloc):
        """r_T = y^c_T - W^c_J P_T u_T (nel, 101) for local trace values."""
        return self.y - _by_class(self.classes, self.sign * uloc,
                                  self.W.transpose(0, 2, 1))

    def adjoint(self, r):
        """P_T W^c_J' r_T (nel, nc) for element vectors r (nel, 101)."""
        return self.sign * _by_class(self.classes, r, self.W)

    def fields(self, uloc):
        """Locally optimal fields (nel, 10) f_T - K_J P_T u_T, times
        sigma_f where p_T = -1."""
        out = self.f - _by_class(self.classes, self.sign * uloc,
                                 self.K.transpose(0, 2, 1))
        out[self.parity < 0] *= SIGMA_F
        return out


def _class_order(cls):
    """(order, bounds): the elements sorted by class, and where each
    class starts in that order (every class has a member)."""
    bounds = np.concatenate([[0], np.cumsum(np.bincount(cls))])
    return np.argsort(cls, kind="stable"), bounds


def _by_class(classes, x, M):
    """x_T M_J (nel, b) for element rows x (nel, a) and the matrices
    M (ncls, a, b) of the elements' classes, one product per class."""
    order, bounds = classes
    xs = x[order]
    ys = np.empty((len(x), M.shape[2]))
    for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(xs[a:b], M[j], out=ys[a:b])
    out = np.empty_like(ys)
    out[order] = ys
    return out


def _triangular_solve(R, b, trans, element, j):
    """R^-1 b, or R'^-1 b if `trans`, for a C-ordered upper triangular R,
    by the LAPACK call that `scipy.linalg.solve_triangular` makes for it."""
    x, info = dtrtrs(R.T, b, lower=True, trans=0 if trans else 1)
    if info != 0:
        raise AssemblyError(f"singular triangular factor in element {element} "
                            f"(Jacobian class {j})")
    return x


def _gram_root(F, elements, classes):
    """R (nb, n, n) with R' R = F' F, one QR per class of the Gram rows
    F (nb, m, n) of a block (`_gram_blocks`), so that the test norm's
    condition enters once, not squared as in a Cholesky factor of F' F
    (Keith, Petrides, Fuentes and Demkowicz, CMAME 2017); a column scaling
    S of F would give R S and leave R'^-1 B as it is.  An error names the
    first of `elements` whose R has a diagonal entry <= m eps |column|."""
    R = np.linalg.qr(F, mode="r")
    m = F.shape[1]
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    bad = ~(diag > m * np.finfo(float).eps * np.linalg.norm(R, axis=1)).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise AssemblyError(f"singular test-norm factor in element {elements[i]} "
                            f"(Jacobian class {classes[i]})")
    return R


def _class_kernels(F, Bm, elements, classes):
    """W^c_J, K_J and E_J (`ElementSystems`) of a batch of classes, stacked.

    F, the Gram rows of `element_gram_batch`, and Bm are those of one
    member element of each class, `elements`, and `classes` are the class
    indices; an error names the first member whose factor is singular.
    """
    R1, R2 = (_gram_root(Fb, elements, classes) for Fb in _gram_blocks(F))
    nb, _, ncols = Bm.shape
    nc = ncols - N_FIELD
    # W = R_J'^-1 [B_J | I on the v and z rows], by blocks of R_J
    X = np.zeros((nb, N_TEST, ncols + OFF_Q))
    X[:, :, :ncols] = Bm
    X[:, :OFF_Q, ncols:] = np.eye(OFF_Q)
    QX = np.empty((nb, N_TEST, ncols + OFF_Q - N_FIELD))
    for i in range(nb):
        X[i, :OFF_T] = _triangular_solve(R1[i], X[i, :OFF_T], True,
                                         elements[i], classes[i])
        X[i, OFF_T:, :ncols] = _triangular_solve(R2[i], X[i, OFF_T:, :ncols], True,
                                                 elements[i], classes[i])
        # Q' [W_t | I] by the Householder reflectors of W_f = Q R, without
        # forming the 111 x 111 Q; the workspace fits LAPACK's largest
        # block of 64 reflectors
        qr, tau, _, _ = dgeqrf(X[i, :, :N_FIELD])
        QX[i], _, _ = dormqr("L", "T", qr, tau, X[i, :, N_FIELD:],
                             lwork=64 * QX.shape[2])
        QX[i, :N_FIELD] = _triangular_solve(np.triu(qr[:N_FIELD]), QX[i, :N_FIELD],
                                            False, elements[i], classes[i])
    return QX[:, N_FIELD:, :nc], QX[:, :N_FIELD, :nc], QX[:, :, nc:]


def _element_systems(problem, dofmap, previous=None):
    """Class-factored, field-condensed `ElementSystems` of all elements
    of `dofmap.mesh`, over its element columns; P_T signs them by the
    edge orientation and the parity.

    The kernels of a class whose key `previous` (the `ElementSystems` of
    the same problem and k on another mesh) holds are taken from it; the
    others are built on the class's lowest-index element.
    """
    mesh, k = dofmap.mesh, dofmap.k
    cols = dofmap.element_columns
    nt, nc = cols.shape
    cls, reps, keys, parity = jacobian_classes(mesh)
    sigma_t = _reflection_signs(k)
    ncls = len(reps)
    W = np.empty((ncls, N_TEST - N_FIELD, nc))
    K = np.empty((ncls, N_FIELD, nc))
    E = np.empty((ncls, N_TEST, OFF_Q))
    WtW = np.empty((ncls, nc, nc))
    new = np.arange(ncls)
    if previous is not None:
        src = match_rows(keys, previous.keys)
        old, new = np.nonzero(src >= 0)[0], np.nonzero(src < 0)[0]
        for mine, theirs in ((W, previous.W), (K, previous.K), (E, previous.E),
                             (WtW, previous.WtW)):
            mine[old] = theirs[src[old]]
    for lo in range(0, len(new), CLASS_BATCH):
        batch = new[lo:lo + CLASS_BATCH]
        F = element_gram_batch(mesh, problem, reps[batch])
        Bm = element_b_batch(mesh, problem, k, reps[batch])
        # representatives of -J, signed to the canonical J
        flip = parity[reps[batch]] < 0
        F[flip] *= S_V
        Bm[flip] *= S_V[:, None] * np.concatenate([SIGMA_F, sigma_t])
        W[batch], K[batch], E[batch] = _class_kernels(F, Bm, reps[batch], batch)
        WtW[batch] = _gram_block(W[batch])
    sign = dofmap.element_signs * np.where(parity[:, None] < 0, sigma_t, 1.0)
    l = element_load_batch(mesh, problem, np.arange(nt))[:, :OFF_Q]
    l[parity < 0] *= S_V[:OFF_Q]

    classes = _class_order(cls)
    fy = _by_class(classes, l, E.transpose(0, 2, 1))
    f, y = fy[:, :N_FIELD], fy[:, N_FIELD:]
    systems = ElementSystems(None, cols, cls, keys, W, K, E, WtW, y, f, sign,
                             parity, classes)
    systems.rhs = systems.adjoint(y)
    return systems


@dataclass
class NormalEquations:
    """The trace system A x = rhs over the free trace dofs, held as the
    matrix `solver.solve` factors, As = S A S with S = diag(s)."""

    As: scipy.sparse.csr_matrix  # S A S, symmetric up to the rounding of S
    s: np.ndarray  # diag(A)^-1/2
    rhs: np.ndarray  # of A x = rhs, unscaled
    dofmap: TraceDofMap
    index_map: np.ndarray  # trace dof -> row of A, -1 if constrained
    ndof: int  # free traces + 10 field dofs per element
    elements: ElementSystems
    problem: object = None

    @property
    def A(self):
        """S^-1 As S^-1 (canonical CSR, on As's indptr and indices),
        formed anew at each read."""
        As, d = self.As, 1.0 / self.s
        data = As.data * np.repeat(d, np.diff(As.indptr))
        data *= d[As.indices]
        return scipy.sparse.csr_matrix((data, As.indices, As.indptr), shape=As.shape)

    def expand(self, x):
        """Free-dof solution -> full trace vector (zeros on constrained dofs)."""
        full = np.zeros(self.index_map.size)
        free = self.index_map >= 0
        full[free] = x[self.index_map[free]]
        return full

    def fields(self, x):
        """Per-element constant fields (nel, 10) recovered from a solution."""
        return self.elements.fields(self.expand(x)[self.elements.cols])

    def residual(self, x):
        """(g, r) at x: the element residuals r (`ElementSystems.residuals`)
        and g = sum_T P_T' W^c' r_T, that is rhs - A x formed without A."""
        el = self.elements
        r = el.residuals(self.expand(x)[el.cols])
        return _scatter(self.index_map[el.cols], el.adjoint(r), len(self.rhs)), r


def _scatter(gcols, vals, n):
    """Sum (n,) of element vectors vals over their global rows gcols >= 0."""
    keep = gcols >= 0
    return np.bincount(gcols[keep], vals[keep], minlength=n)


def _ranges(starts, counts):
    """The ranges [s, s + c) of starts s and counts c, concatenated (int32)."""
    ends = np.cumsum(counts)
    return (np.repeat((starts + counts - ends).astype(np.int32), counts)
            + np.arange(ends[-1], dtype=np.int32))


def _entity_order(mesh):
    """position[entity] of the entities (`TraceDofMap.dof_entity`) in a
    fill-reducing elimination order.

    The vertices go in SuperLU's multiple minimum degree order of the
    vertex graph, whose links are `mesh.edges`.  scipy exposes that
    order only through `splu`, so it is read off the factorization of
    M, the upper triangle of the graph Laplacian plus the identity (deg
    + 1 on the diagonal, -1 above it): the ordering sees the pattern of
    M + M', the vertex graph, and half of it builds and factors faster
    than the whole.  M is strictly diagonally dominant, so the
    factorization cannot break down.  Each edge goes just before the
    first-eliminated of its two ends, ties by edge index.
    Every entity that shares an element with the edge shares one with
    that vertex, so eliminating the edge there adds no fill beyond the
    vertex's clique and puts the dofs of both in one supernode.
    """
    nv, edges = mesh.nvertices, mesh.edges  # edges[:, 0] < edges[:, 1]
    links = np.concatenate([np.arange(nv) * (nv + 1), edges[:, 1] * nv + edges[:, 0]])
    col, row = np.divmod(np.sort(links), nv)
    deg = np.bincount(edges.ravel(), minlength=nv)
    M = scipy.sparse.csc_matrix(
        (np.where(row == col, deg[col] + 1.0, -1.0), row,
         np.concatenate([[0], np.cumsum(np.bincount(col, minlength=nv))])),
        shape=(nv, nv))
    rank = scipy.sparse.linalg.splu(
        M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True}).perm_c
    key = np.concatenate([2 * rank + 1, 2 * rank[edges].min(axis=1)])
    position = np.empty(len(key), dtype=int)
    position[np.argsort(key, kind="stable")] = np.arange(len(key))
    return position


def _trace_pattern(dofmap, constrained):
    """Free numbering and CSR pattern of A from the mesh topology alone.

    Returns (index_map, indptr, indices, places).  The free dofs are
    numbered entity by entity (`TraceDofMap.dof_entity`), the entities
    in elimination order (`_entity_order`), each entity's dofs in trace
    order; `solver.solve` factors A in this order.  Two entities couple
    iff an element holds both, so all rows of entity i share one column
    list: the free dofs of each entity j coupled to i, j ascending; the
    indices come out sorted and without duplicates.  indptr and indices
    are int32, the index type scipy.sparse picks for them: nnz <= nt nc^2
    < 2^31, since at 2^31 entries the element matrices alone would take
    17 GB.

    places = (start, rank, blocks, entity) place element entry (T, a, b)
    in A.data (`_csr_fill`): at start[T, a], indptr at the row of a, plus
    blocks[T, entity[a], entity[b]], the offset of the block of the local
    entity of b in the rows of that of a, plus rank[T, b], the rank of b
    among its entity's free dofs (`TraceDofMap.column_entity` gives the
    local entity of a column).  start and rank are nnz at a constrained
    column, so its entries fall past the end of A.data.
    """
    position = _entity_order(dofmap.mesh)
    nent, owner = dofmap.nentities, position[dofmap.dof_entity]
    free = np.nonzero(~constrained)[0]
    index_map = np.full(dofmap.ntrace, -1)
    index_map[free[np.argsort(owner[free], kind="stable")]] = np.arange(free.size)
    nfree = np.bincount(owner[free], minlength=nent)
    first = np.cumsum(nfree) - nfree

    # the entity graph: pairs (i, j) sorted by i, then j
    ent = position[dofmap.element_entities]
    nt = len(ent)
    pairs, pair_of = np.unique((ent[:, :, None] * nent + ent[:, None, :]).ravel(),
                               return_inverse=True)
    i, j = np.divmod(pairs, nent)
    width = nfree[j]
    row_len = np.bincount(i, width, minlength=nent).astype(int)
    row_start = np.cumsum(row_len) - row_len  # of entity i's pairs in `width`
    block_off = np.cumsum(width) - width - row_start[i]
    row_entity = np.repeat(np.arange(nent), nfree)
    indptr = np.concatenate([[0], np.cumsum(row_len[row_entity])]).astype(np.int32)
    nnz = int(indptr[-1])
    indices = _ranges(first[j], width)[
        _ranges(row_start[row_entity], row_len[row_entity])]

    cols = dofmap.element_columns
    gcols = index_map[cols]
    held = gcols >= 0
    start = np.where(held, indptr[gcols].astype(np.intp), nnz)
    rank = np.where(held, gcols - first[owner[cols]], nnz)
    places = (start, rank, block_off[pair_of].reshape(nt, 6, 6), dofmap.column_entity)
    return index_map, indptr, indices, places


def _csr_fill(indptr, indices, places, elements, scale):
    """The CSR matrix of the pattern (indptr, indices) holding the sums of
    the scaled element matrices D_T A_T D_T of `elements`
    (`ElementSystems.matrices`) at their `places` (`_trace_pattern`),
    D_T = diag(scale[T]).

    The slots and D_T A_T D_T are formed `FILL_CHUNK` elements at a time
    and added in element order, so no (nt, nc, nc) table is held and the
    sums are those of one `np.bincount` over all the slots.
    """
    start, rank, blocks, entity = places
    n, nnz = len(indptr) - 1, len(indices)
    data = np.zeros(nnz + 1)
    for lo in range(0, len(start), FILL_CHUNK):
        els = slice(lo, lo + FILL_CHUNK)
        # column b's offset in the rows of each local entity, then in row a
        at = np.take(blocks[els], entity, axis=2)
        at += rank[els, None, :]
        slots = np.take(at, entity, axis=1)
        slots += start[els, :, None]
        np.minimum(slots, nnz, out=slots)
        np.add.at(data, slots.ravel(), elements.matrices(els, scale).ravel())
    return scipy.sparse.csr_matrix((data[:-1], indices, indptr), shape=(n, n))


def assemble_normal_equations(mesh, problem, k, previous=None):
    """Assemble the field-condensed DPG normal equations on the free traces.

    `previous`, the `NormalEquations` of the same problem object and k
    on another mesh (the last adaptive level), lends its Jacobian-class
    kernels: only the classes new to `mesh` are built.  The result
    agrees with a fresh assembly up to the rounding between the members
    of a class.  A constant in-plane displacement has no membrane strain,
    so a problem that holds u1 or u2 on no side is refused.
    """
    if previous is not None and (previous.problem is not problem
                                 or previous.dofmap.k != k):
        raise ValueError("previous normal equations belong to another "
                         "problem or polynomial degree")
    for comp in ("u1", "u2"):
        if not any(comp in held for held in problem.bc.values()):
            raise AssemblyError(f"no side holds {comp}: a constant {comp} is a "
                                "kernel mode")
    dofmap = TraceDofMap(mesh, k)
    constrained = apply_bc(dofmap, problem)
    constrained[dofmap.gauge] = True
    index_map, indptr, indices, places = _trace_pattern(dofmap, constrained)

    elements = _element_systems(
        problem, dofmap, None if previous is None else previous.elements)
    n, gcols = len(indptr) - 1, index_map[elements.cols]
    # diag(A), summed in element order as the fill would sum A
    diag = _scatter(gcols, np.diagonal(elements.WtW, axis1=1, axis2=2)[elements.cls], n)
    # a diagonal <= 0 leaves s not finite and positive, and As not finite
    # where it scales: `solver.solve` refuses it
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 1.0 / np.sqrt(diag)
        # s at each element column, 0 at a constrained one (gcols = -1)
        As = _csr_fill(indptr, indices, places, elements, np.append(s, 0.0)[gcols])
    rhs = _scatter(gcols, elements.rhs, n)
    return NormalEquations(As, s, rhs, dofmap, index_map,
                           n + N_FIELD * mesh.ntriangles, elements, problem)
