"""Element Gram/trial matrices, loads, and the assembled normal equations."""

import numpy as np
import pytest
import scipy.linalg

from shelldpg import assembly as asm
from shelldpg.estimator import AdaptiveConfig, adaptive_loop
from shelldpg.mesh import Mesh, initial_rectangle_mesh, refine
from shelldpg.model import (
    BENCHMARKS,
    PointLoad,
    ShellProblem,
    apply_C,
    apply_Cinv,
    make_benchmark,
)
from shelldpg.polyquad import (
    map_hessians,
    map_points,
    triangle_basis,
    triangle_geometry,
    triangle_rule,
)
from shelldpg.solver import solve_spd
from shelldpg.traces import TraceDofMap, apply_bc

RECT = (0.0, 1.3, 0.0, 1.0)


def small_mesh(rounds=1, seed=3):
    mesh = initial_rectangle_mesh(RECT)
    rng = np.random.default_rng(seed)
    mesh = refine(mesh, np.arange(mesh.ntriangles))
    for _ in range(rounds):
        marked = rng.choice(mesh.ntriangles, mesh.ntriangles // 4, replace=False)
        mesh = refine(mesh, marked)
    return mesh


def plain_problem(B=None, d=1.0, nu=0.0, bc=None, **kw):
    B = np.zeros((2, 2)) if B is None else np.asarray(B, float)
    return ShellProblem(rect=RECT, B=B, d=d, nu=nu, f=None, p=None,
                        bc=bc or {}, **kw)


def random_ccw_triangles(rng, n):
    pts = rng.uniform(-1.0, 1.0, (3 * n, 3, 2))
    a = pts[:, 1] - pts[:, 0]
    b = pts[:, 2] - pts[:, 0]
    area2 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    pts[area2 < 0.0] = pts[area2 < 0.0][:, [0, 2, 1]]
    pts = pts[np.abs(area2) > 0.1][:n]
    assert len(pts) == n
    return pts


def test_gram_spd_random_triangles():
    rng = np.random.default_rng(11)
    for d in (1.0, 1e-2):
        coords = random_ccw_triangles(rng, 50)
        mesh = Mesh(coords.reshape(-1, 2), np.arange(150).reshape(50, 3))
        b = rng.uniform(-1.0, 1.0, 3)
        prob = ShellProblem(rect=None, B=[[b[0], b[1]], [b[1], b[2]]], d=d,
                            f=None, p=None, bc={})
        G = asm.element_gram_batch(mesh, prob, np.arange(50))
        assert np.all(np.linalg.eigvalsh(G) > 0.0)
        assert np.abs(G - G.transpose(0, 2, 1)).max() == 0.0


def test_gram_constant_tensor_energy():
    mesh = small_mesh()
    prob = plain_problem()
    G = asm.element_gram_batch(mesh, prob, np.arange(mesh.ntriangles))
    x = np.zeros(asm.N_TEST)
    x[asm.OFF_T + 0] = 1.0 / np.sqrt(2.0)
    x[asm.OFF_T + 2] = 1.0 / np.sqrt(2.0)
    _, detJ, _ = triangle_geometry(mesh.triangle_coords())
    energy = np.einsum("i,eij,j->e", x, G, x)
    # |T|^2 = 2 for T = identity, element integral = 2 * area = detJ
    assert np.abs(energy - detJ).max() < 1e-13 * detJ.max()


def test_gram_value_blocks():
    mesh = small_mesh(rounds=0)
    Cd = np.array([[2.0, 0.0], [0.0, 0.5]])
    prob = plain_problem(d=0.3, D=2.0, C_disp=Cd, c_Q=0.7)
    e = 2
    G = asm.element_gram(mesh, prob, e)
    _, detJ, _ = triangle_geometry(mesh.triangle_coords())
    dJ = detJ[e]
    i10 = np.arange(10)
    z = G[asm.OFF_Z + i10, asm.OFF_Z + i10]
    # z block: d^2/D^4 mass only (B = 0, the Hessian part is zero for psi_0)
    assert np.isclose(z[0], (0.3**2 / 2.0**4) * dJ, rtol=1e-13)
    q = G[asm.OFF_Q + np.arange(6), asm.OFF_Q + np.arange(6)]
    assert np.allclose(q, (1.0 + 0.7) * dJ, rtol=1e-13)
    s = G[asm.OFF_S + np.arange(45), asm.OFF_S + np.arange(45)]
    assert np.isclose(s[0], dJ / 0.3**2, rtol=1e-13)
    # constant v has grad zero: pure D^-2 |C_disp v|^2 block
    assert np.isclose(G[asm.OFF_V, asm.OFF_V], (4.0 / 4.0) * dJ, rtol=1e-13)
    assert np.isclose(G[asm.OFF_V + 1, asm.OFF_V + 1], (0.25 / 4.0) * dJ, rtol=1e-13)


def test_gram_inverse_reconstruction():
    # the factor is checked against the symmetrically equilibrated
    # operator that actually gets factorized; in the raw frame the
    # entries span too many orders for L L' to reproduce G beyond
    # eps * |G| entrywise
    mesh = small_mesh()
    _, reps = asm.jacobian_classes(mesh)
    for d in (1.0, 1e-2, 1e-4):
        prob = plain_problem(B=[[0.0, 0.0], [0.0, 1.0]], d=d)
        for G in asm.element_gram_batch(mesh, prob, reps):
            L, s = asm.gram_factor(G)
            Gs = s[:, None] * G * s[None, :]
            assert np.array_equal(L, np.tril(L))
            rel = np.abs(L @ L.T - Gs).max() / np.abs(Gs).max()
            assert rel < 1e-10, (d, rel)


@pytest.mark.parametrize("spoil", ["negate", "indefinite"])
def test_gram_failure_names_element_and_class(monkeypatch, spoil):
    mesh = small_mesh()
    prob = make_benchmark("cyl_clamped")
    cls, reps = asm.jacobian_classes(mesh)
    bad = len(reps) // 2
    kernel = asm.element_gram_batch

    def spoiled(mesh_, prob_, els):
        G = kernel(mesh_, prob_, els)
        hit = np.nonzero(np.asarray(els) == reps[bad])[0]
        if spoil == "negate":
            G[hit] *= -1.0
        else:
            # positive diagonal, but the leading 2x2 block is indefinite
            G[hit, 0, 1] = G[hit, 1, 0] = 2.0 * np.sqrt(G[hit, 0, 0] * G[hit, 1, 1])
        return G

    monkeypatch.setattr(asm, "element_gram_batch", spoiled)
    with pytest.raises(asm.AssemblyError,
                       match=rf"in element {reps[bad]} \(Jacobian class {bad}\)"):
        asm.assemble_normal_equations(mesh, prob, 0)


def test_gram_membrane_bending_decoupling():
    # flat geometry: no coupling between (v, T, Q) and (z, S) test blocks
    mesh = small_mesh(rounds=0)
    prob = plain_problem(d=0.2)
    G = asm.element_gram(mesh, prob, 0)
    memb = np.r_[asm.OFF_V : asm.OFF_V + 20, asm.OFF_T : asm.OFF_T + 30,
                 asm.OFF_Q : asm.OFF_Q + 6]
    bend = np.r_[asm.OFF_Z : asm.OFF_Z + 10, asm.OFF_S : asm.OFF_S + 45]
    assert np.abs(G[np.ix_(memb, bend)]).max() == 0.0


def exact_constant_state(mesh, dofmap, B, nu, a, w0):
    """Trace vector and local trial vectors of a constant exact solution."""
    N = w0 * apply_C(B, nu)
    tv = np.zeros(dofmap.ntrace)
    for vtx in range(mesh.nvertices):
        tv[dofmap.off_uhat + 2 * vtx : dofmap.off_uhat + 2 * vtx + 2] = a
        tv[dofmap.off_what + 3 * vtx] = w0
    for e in range(mesh.nedges):
        tv[dofmap.off_Nhat + 2 * e : dofmap.off_Nhat + 2 * e + 2] = (
            N @ mesh.edge_normals[e]
        )
    nt = mesh.ntriangles
    uloc = np.zeros((nt, 10 + dofmap.ncols))
    uloc[:, 0], uloc[:, 1], uloc[:, 2] = a[0], a[1], w0
    uloc[:, 3:7] = N.ravel()
    uloc[:, 10:] = tv[dofmap.element_columns]
    return uloc, N


@pytest.mark.parametrize("k", [0, 1])
def test_manufactured_identity(k):
    # constant exact solution of the curved system: u, w constant,
    # N = w C B, M = 0, load f = B:N, p = 0.  The element matrix applied
    # to the exact trial coefficients must reproduce the load exactly.
    mesh = small_mesh()
    B = np.array([[0.3, 0.1], [0.1, -0.2]])
    nu, d = 0.3, 0.7
    a = np.array([0.37, -0.81])
    w0 = 1.234
    N = w0 * apply_C(B, nu)
    fval = float(np.sum(B * N))
    prob = ShellProblem(
        rect=RECT, B=B, d=d, nu=nu,
        f=lambda x, y: np.full(np.broadcast(x, y).shape, fval),
        p=None, bc={},
    )
    dm = TraceDofMap(mesh, k)
    els = np.arange(mesh.ntriangles)
    Bm = asm.element_b_batch(mesh, prob, k, els)
    load = asm.element_load_batch(mesh, prob, els)
    uloc, _ = exact_constant_state(mesh, dm, B, nu, a, w0)
    res = np.einsum("erc,ec->er", Bm, uloc) - load
    scale = np.abs(Bm).sum(axis=2).max() * max(np.abs(uloc).max(), 1.0)
    assert np.abs(res).max() < 1e-13 * scale


def test_b_field_columns_against_quadrature():
    # independent evaluation: test functions as full matrices at the
    # quadrature points, constitutive law via apply_Cinv
    mesh = small_mesh()
    e = 7
    B = np.array([[0.4, -0.3], [-0.3, 0.1]])
    nu, d = 0.2, 0.37
    prob = plain_problem(B=B, nu=nu, d=d)
    Bm = asm.element_b(mesh, prob, 0, e)

    coords = mesh.triangle_coords(np.array([e]))
    _, detJ, Jinv = triangle_geometry(coords)
    rule = triangle_rule(asm.QUAD_DEGREE)
    wd = rule.weights * detJ[0]
    b2, b3, b4 = triangle_basis(2), triangle_basis(3), triangle_basis(4)
    v2, v3, v4 = b2.eval(rule.points), b3.eval(rule.points), b4.eval(rule.points)
    g3 = np.einsum("qib,ba->qia", b3.grad(rule.points), Jinv[0])
    h3 = map_hessians(b3.hess(rule.points), Jinv[0])
    h4 = map_hessians(b4.hess(rule.points), Jinv[0])

    F = asm.FRAMES_SYM
    W = asm.FRAME_SKEW
    # T_R = psi_i F_f as (q, 30, 2, 2); same for S with P4
    Tq = np.einsum("qi,fab->qifab", v3, F).reshape(len(wd), 30, 2, 2)
    Sq = np.einsum("qi,fab->qifab", v4, F).reshape(len(wd), 45, 2, 2)
    divT = np.einsum("fab,qib->qifa", F, g3).reshape(len(wd), 30, 2)
    ddS = np.einsum("fab,qiab->qif", F, h4).reshape(len(wd), 45)

    # u columns
    for c in range(2):
        expect = np.einsum("q,qRa->Ra", wd, divT)[:, c]
        assert np.allclose(Bm[asm.OFF_T : asm.OFF_T + 30, c], expect, atol=1e-13)
    # w column
    expect_S = np.einsum("q,qR->R", wd, ddS)
    expect_T = -np.einsum("q,qRab,ab->R", wd, Tq, B)
    assert np.allclose(Bm[asm.OFF_S : asm.OFF_S + 45, 2], expect_S, atol=1e-13)
    assert np.allclose(Bm[asm.OFF_T : asm.OFF_T + 30, 2], expect_T, atol=1e-13)
    # N columns
    CinvT = apply_Cinv(Tq, nu)
    for a_ in range(2):
        for b_ in range(2):
            col = 3 + 2 * a_ + b_
            assert np.allclose(
                Bm[asm.OFF_T : asm.OFF_T + 30, col],
                np.einsum("q,qRab->Rab", wd, CinvT)[:, a_, b_], atol=1e-13)
            gradv = np.zeros((len(wd), 20, 2, 2))
            for c in range(2):
                gradv[:, 2 * np.arange(10) + c, c, :] = g3
            assert np.allclose(
                Bm[asm.OFF_V : asm.OFF_V + 20, col],
                np.einsum("q,qRab->Rab", wd, gradv)[:, a_, b_], atol=1e-13)
            assert np.allclose(
                Bm[asm.OFF_Z : asm.OFF_Z + 10, col],
                -B[a_, b_] * np.einsum("q,qj->j", wd, v3), atol=1e-13)
            assert np.allclose(
                Bm[asm.OFF_Q : asm.OFF_Q + 6, col],
                W[a_, b_] * np.einsum("q,qm->m", wd, v2), atol=1e-13)
    # M columns
    CinvS = apply_Cinv(Sq, nu)
    for p_, dirM in enumerate(asm.DIR_M):
        col = 7 + p_
        assert np.allclose(
            Bm[asm.OFF_S : asm.OFF_S + 45, col],
            (12.0 / d**2) * np.einsum("q,qRab,ab->R", wd, CinvS, dirM),
            atol=1e-12)
        assert np.allclose(
            Bm[asm.OFF_Z : asm.OFF_Z + 10, col],
            np.einsum("q,qjab,ab->j", wd, h3, dirM), atol=1e-13)


def test_trace_column_placement():
    from shelldpg.traces import edge_pairings

    mesh = small_mesh(rounds=0)
    prob = plain_problem(B=[[0.1, 0.0], [0.0, 0.2]], d=0.5)
    for k in (0, 1):
        els = np.arange(mesh.ntriangles)
        Bm = asm.element_b_batch(mesh, prob, k, els)
        pair = edge_pairings(mesh, k, els)
        nuc = 6 + 6 * k
        cu = 10
        cw = cu + nuc
        cn = cw + 9
        cm = cn + 6
        assert np.array_equal(Bm[:, asm.OFF_T : asm.OFF_T + 30, cu:cw], -pair.u_hat)
        assert np.array_equal(Bm[:, asm.OFF_S : asm.OFF_S + 45, cw:cn], -pair.w_hat)
        assert np.array_equal(Bm[:, asm.OFF_V : asm.OFF_V + 20, cn:cm], -pair.N_hat)
        assert np.array_equal(Bm[:, asm.OFF_Z : asm.OFF_Z + 10, cm:], pair.M_hat)
        # no other rows touched by trace columns
        other = np.ones(asm.N_TEST, bool)
        other[asm.OFF_T : asm.OFF_T + 30] = False
        assert np.abs(Bm[:, other, cu:cw]).max() == 0.0


def test_load_constant_forcing():
    mesh = small_mesh(rounds=0)
    prob = ShellProblem(
        rect=RECT, B=np.zeros((2, 2)), d=1.0,
        f=lambda x, y: np.full(np.broadcast(x, y).shape, 3.0),
        p=lambda x, y: np.stack(
            [np.full(np.broadcast(x, y).shape, 2.0),
             np.full(np.broadcast(x, y).shape, -1.0)], axis=-1),
        bc={},
    )
    els = np.arange(mesh.ntriangles)
    l = asm.element_load_batch(mesh, prob, els)
    _, detJ, _ = triangle_geometry(mesh.triangle_coords())
    # integral of the constant reference mode is detJ / sqrt(2), higher
    # modes integrate to zero by orthogonality
    c0 = detJ / np.sqrt(2.0)
    assert np.allclose(l[:, asm.OFF_V], 2.0 * c0, rtol=1e-13)
    assert np.allclose(l[:, asm.OFF_V + 1], -1.0 * c0, rtol=1e-13)
    assert np.allclose(l[:, asm.OFF_Z], -3.0 * c0, rtol=1e-13)
    mask = np.ones(asm.N_TEST, bool)
    mask[[asm.OFF_V, asm.OFF_V + 1, asm.OFF_Z]] = False
    assert np.abs(l[:, mask]).max() < 1e-13 * detJ.max()


def test_point_load_entry():
    mesh = initial_rectangle_mesh((-1.0, 1.0, -1.0, 1.0))
    prob = ShellProblem(
        rect=(-1.0, 1.0, -1.0, 1.0), B=np.eye(2), d=1e-2,
        f=PointLoad(), p=None, bc={},
    )
    v, t0 = asm.find_point_element(mesh, (0.0, 0.0))
    assert v == 4 and t0 == 0
    l = asm.element_load_batch(mesh, prob, np.arange(mesh.ntriangles))
    b3 = triangle_basis(3)
    zvals = b3.eval(np.array([[0.0, 0.0]]))[0]
    assert np.allclose(l[0, asm.OFF_Z : asm.OFF_Z + 10], -zvals)
    l0 = l.copy()
    l0[0, asm.OFF_Z : asm.OFF_Z + 10] = 0.0
    assert np.abs(l0).max() == 0.0
    with pytest.raises(asm.AssemblyError):
        asm.find_point_element(mesh, (0.1, 0.2))


def test_normal_equations_dense_oracle():
    # the uncondensed system over the free traces and the fields, built
    # densely from each element's G, B and l; eliminating its field
    # block must give the assembled trace system
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    mesh = Mesh(verts, tris, rect=(0.0, 1.0, 0.0, 1.0))
    bc = {s: ("u1", "u2", "w", "dnw") for s in ("xmin", "xmax", "ymin", "ymax")}
    prob = ShellProblem(
        rect=(0.0, 1.0, 0.0, 1.0), B=[[0.0, 0.0], [0.0, 1.0]], d=1e-1,
        f=lambda x, y: np.cos(2.0 * y), p=None, bc=bc,
    )
    neq = asm.assemble_normal_equations(mesh, prob, 1)

    nt = mesh.ntriangles
    n = neq.A.shape[0]
    dense = np.zeros((neq.ndof, neq.ndof))
    rhs = np.zeros(neq.ndof)
    for t in range(nt):
        G = asm.element_gram(mesh, prob, t)
        Bm = asm.element_b(mesh, prob, 1, t)
        l = asm.element_load(mesh, prob, t)
        GiB = np.linalg.solve(G, Bm)
        Gil = np.linalg.solve(G, l)
        At = Bm.T @ GiB
        rt = Bm.T @ Gil
        gc = np.r_[n + 10 * t + np.arange(10), neq.index_map[neq.elements.cols[t]]]
        keep = gc >= 0
        dense[np.ix_(gc[keep], gc[keep])] += At[np.ix_(keep, keep)]
        rhs[gc[keep]] += rt[keep]
        c = l @ Gil - rt[:10] @ np.linalg.solve(At[:10, :10], rt[:10])
        assert np.isclose(neq.elements.c[t], c, rtol=1e-10, atol=1e-14)
    tr, fl = slice(0, n), slice(n, None)
    X = np.linalg.solve(dense[fl, fl], np.c_[dense[fl, tr], rhs[fl]])
    schur = dense[tr, tr] - dense[tr, fl] @ X[:, :-1]
    srhs = rhs[tr] - dense[tr, fl] @ X[:, -1]
    A = neq.A.toarray()
    assert np.abs(A - schur).max() < 1e-10 * np.abs(schur).max()
    assert np.abs(neq.rhs - srhs).max() < 1e-10 * max(np.abs(srhs).max(), 1e-30)


def test_assembled_system_shape_and_symmetry():
    mesh = small_mesh()
    prob = make_benchmark("cyl_free")
    neq = asm.assemble_normal_equations(mesh, prob, 0)
    dm = neq.dofmap
    nfree_trace = int((~neq.constrained).sum())
    # the fields are condensed out of A but still count as dofs
    assert neq.A.shape == (nfree_trace, nfree_trace)
    assert neq.rhs.shape == (nfree_trace,) and neq.dof_xy.shape == (nfree_trace, 2)
    assert neq.ndof == nfree_trace + 10 * mesh.ntriangles
    asym = np.abs(neq.A - neq.A.T).max()
    assert asym <= 1e-12 * np.abs(neq.A.data).max()


def test_element_order_invariance():
    # renumbering the elements renumbers edges and dofs and changes the
    # element on which each Jacobian class is built; the systems agree to
    # the rounding of G and B between members of a class (the direct
    # oracle's bound)
    mesh = small_mesh()
    prob = make_benchmark("cyl_clamped")
    perm = np.random.default_rng(9).permutation(mesh.ntriangles)
    renum = Mesh(mesh.vertices, mesh.triangles[perm], rect=mesh.rect)
    a = asm.assemble_normal_equations(mesh, prob, 0)
    b = asm.assemble_normal_equations(renum, prob, 0)
    assert len(a.elements.W) == len(b.elements.W)
    A, rhs, c, _, _ = direct_condensed_systems(mesh, prob, 0, np.arange(mesh.ntriangles))
    for name, ref in (("A", A), ("rhs", rhs), ("c", c)):
        x, y = getattr(a.elements, name)[perm], getattr(b.elements, name)
        assert np.abs(x - y).max() <= 1e-10 * np.abs(x).max(), name
        assert np.abs(x - ref[perm]).max() <= 1e-10 * np.abs(ref).max(), name

    # global dofs of b -> global dofs of a, through the element columns
    to_a = np.empty(b.index_map.size, dtype=int)
    to_a[b.elements.cols] = a.elements.cols[perm]
    ia, ib = a.index_map[to_a], b.index_map
    # the twist gauge follows the edge numbering: compare the dofs free
    # in both numberings
    both = (ia >= 0) & (ib >= 0)
    assert both.sum() >= a.A.shape[0] - mesh.nvertices
    Aa = a.A.toarray()[np.ix_(ia[both], ia[both])]
    Ab = b.A.toarray()[np.ix_(ib[both], ib[both])]
    assert np.abs(Aa - Ab).max() <= 1e-10 * np.abs(Aa).max()
    ra, rb = a.rhs[ia[both]], b.rhs[ib[both]]
    assert np.abs(ra - rb).max() <= 1e-10 * np.abs(ra).max()
    # the gauge does not reach the fields recovered from a solution
    fa = a.fields(solve_spd(a.A, a.rhs))[perm]
    fb = b.fields(solve_spd(b.A, b.rhs))
    assert np.abs(fa - fb).max() <= 1e-8 * np.abs(fa).max()


def test_jacobian_class_keys():
    base = np.array([[0.0, 0.0], [0.3, 0.1], [0.05, 0.27]])
    J = (base[1:] - base[0]).T
    pattern = np.array([[1.0, -1.0], [-1.0, 1.0]])
    mirrored = base[[0, 2, 1]] * np.array([-1.0, 1.0])  # reflected, still CCW
    tris = [
        base,
        base + np.array([5.0, -2.0]),  # translated: same class
        np.vstack([[0.0, 0.0], (J * (1.0 + 1e-13 * pattern)).T]),  # same class
        2.0 * base,  # 2 J: own class
        mirrored,  # mirror image: own class
        np.vstack([[0.0, 0.0], (J * (1.0 + 1e-7 * pattern)).T]),  # own class
    ]
    mesh = Mesh(np.vstack(tris), np.arange(18).reshape(6, 3))
    cls, reps = asm.jacobian_classes(mesh)
    assert cls[0] == cls[1] == cls[2]
    assert reps[cls[0]] == 0
    assert len({cls[0], cls[3], cls[4], cls[5]}) == 4
    assert len(reps) == 4


def direct_element_systems(mesh, prob, k, els):
    """A_T, rhs_T, c_T of each element from its own G, B and l.

    Cholesky solves of each element's equilibrated G: the class path
    factors G the same way, and at these condition numbers (1e10 and
    more) LU and Cholesky solves differ by up to 1e-9 relative.
    """
    G = asm.element_gram_batch(mesh, prob, els)
    Bm = asm.element_b_batch(mesh, prob, k, els)
    l = asm.element_load_batch(mesh, prob, els)
    out = []
    for g, b, f in zip(G, Bm, l):
        s = 1.0 / np.sqrt(np.diag(g))
        fac = scipy.linalg.cho_factor(s[:, None] * g * s[None, :])
        X = s[:, None] * scipy.linalg.cho_solve(fac, s[:, None] * np.c_[b, f])
        A = b.T @ X[:, :-1]
        out.append((0.5 * (A + A.T), b.T @ X[:, -1], f @ X[:, -1]))
    return [np.array(x) for x in zip(*out)]


def direct_condensed_systems(mesh, prob, k, els):
    """Each element's own static condensation of its direct system.

    Returns the Schur complements A_T, rhs_T, c_T on the field block and
    the field recovery u_f = f_T - K_T u_t, all in the element's own
    trace column order.
    """
    A, rhs, c = direct_element_systems(mesh, prob, k, els)
    fl, tr = slice(0, asm.N_FIELD), slice(asm.N_FIELD, None)
    X = np.linalg.solve(A[:, fl, fl], np.concatenate(
        [A[:, fl, tr], rhs[:, fl, None]], axis=2))
    K, f = X[..., :-1], X[..., -1]
    Ac = A[:, tr, tr] - A[:, tr, fl] @ K
    rc = rhs[:, tr] - np.einsum("etf,ef->et", A[:, tr, fl], f)
    cc = c - np.einsum("ef,ef->e", rhs[:, fl], f)
    return 0.5 * (Ac + Ac.transpose(0, 2, 1)), rc, cc, f, K


@pytest.mark.parametrize("kind, k, d, bound", [
    ("cyl_clamped", 0, 1e-2, 1e-10),
    ("scordelis_lo", 1, 0.25, 1e-10),
    # the bound follows kappa(S G S), which is 3e10-3e11 for scordelis_lo
    # at d = 1e-2 and about 7e9 for cyl_free at d = 1e-3; there both the
    # class path and the direct solve are ~1e-9 from a solve refined in
    # long double, and LU and Cholesky solves differ by ~6e-10
    ("scordelis_lo", 1, 1e-2, 2e-8),
    ("cyl_free", 0, 1e-3, 1e-8),
])
def test_class_systems_match_direct_oracle(kind, k, d, bound):
    prob = make_benchmark(kind, d=d)
    mesh = initial_rectangle_mesh(prob.rect)
    rng = np.random.default_rng(17)
    for _ in range(2):
        mesh = refine(mesh, rng.choice(mesh.ntriangles, 4, replace=False))
    el = asm.assemble_normal_equations(mesh, prob, k).elements
    # the mesh exercises the signed column map: some class has members
    # whose edge signs differ, which swaps twist columns (s = -1)
    signs = mesh.tri_edge_sign
    assert any(len(np.unique(signs[el.cls == c], axis=0)) > 1
               for c in range(len(el.W)))
    ident = np.arange(el.perm.shape[1])
    assert np.any(el.perm != ident) and np.any(el.sign < 0)

    A, rhs, c, _, _ = direct_condensed_systems(mesh, prob, k,
                                               np.arange(mesh.ntriangles))
    rel = lambda x, ref: np.abs(x - ref).max() / np.abs(ref).max()
    for t in range(mesh.ntriangles):
        assert rel(el.A[t], A[t]) <= bound, (t, rel(el.A[t], A[t]))
        assert rel(el.rhs[t], rhs[t]) <= bound, (t, rel(el.rhs[t], rhs[t]))
    assert rel(el.c, c) <= bound


def test_global_spd_clamped():
    # positive definite with room to spare: the Jacobi-scaled normal
    # equations of every benchmark have no near-kernel on a 16-element
    # mesh (a kernel shows up as lambda_min/lambda_max ~ 1e-16)
    for kind in BENCHMARKS:
        if kind == "custom":
            continue
        prob = make_benchmark(kind)
        mesh = initial_rectangle_mesh(prob.rect)
        mesh = refine(mesh, np.arange(mesh.ntriangles))
        for k in (0, 1):
            A = asm.assemble_normal_equations(mesh, prob, k).A.toarray()
            s = 1.0 / np.sqrt(np.diag(A))
            ev = np.linalg.eigvalsh(A * s[:, None] * s[None, :])
            assert ev[0] > 1e-8 * ev[-1], (kind, k, ev[0] / ev[-1])


def test_zero_load_zero_rhs():
    mesh = small_mesh(rounds=0)
    prob = plain_problem(B=[[0.0, 0.0], [0.0, 1.0]], d=1e-2,
                         bc={s: ("u1", "u2", "w", "dnw")
                             for s in ("xmin", "xmax", "ymin", "ymax")})
    neq = asm.assemble_normal_equations(mesh, prob, 0)
    assert np.abs(neq.rhs).max() == 0.0
    assert np.abs(neq.elements.c).max() == 0.0


def test_flat_plate_membrane_bending_decoupling():
    # B = 0 splits the system into independent membrane (u, N, and their
    # traces) and bending (w, M, traces) problems: the condensed trace
    # system has no cross block, and the fields recovered from membrane
    # traces are membrane fields only
    mesh = small_mesh(rounds=0)
    bc = {s: ("u1", "u2", "w", "dnw") for s in ("xmin", "xmax", "ymin", "ymax")}
    prob = plain_problem(d=0.3, bc=bc)
    neq = asm.assemble_normal_equations(mesh, prob, 0)
    dm = neq.dofmap
    memb = np.zeros(dm.ntrace, bool)
    memb[dm.off_uhat : dm.off_what] = True
    memb[dm.off_Nhat : dm.off_Mhat] = True
    gm = np.zeros(neq.A.shape[0], bool)
    free = neq.index_map >= 0
    gm[neq.index_map[free]] = memb[free]
    A = neq.A.toarray()
    cross = A[np.ix_(gm, ~gm)]
    assert np.abs(cross).max() <= 1e-14 * np.abs(A).max()

    memb_fields = np.isin(np.arange(10), (0, 1, 3, 4, 5, 6))
    memb_cols = memb[dm.element_columns[0]]  # the same layout on every element
    for K in neq.elements.K:
        scale = np.abs(K).max()
        assert np.abs(K[np.ix_(memb_fields, ~memb_cols)]).max() <= 1e-14 * scale
        assert np.abs(K[np.ix_(~memb_fields, memb_cols)]).max() <= 1e-14 * scale


def test_expand_and_fields():
    mesh = small_mesh(rounds=0)
    prob = make_benchmark("cyl_clamped")
    neq = asm.assemble_normal_equations(mesh, prob, 0)
    x = np.arange(neq.A.shape[0], dtype=float)
    full = neq.expand(x)
    assert full.size == neq.dofmap.ntrace
    assert np.abs(full[neq.constrained]).max() == 0.0
    assert np.array_equal(full[~neq.constrained], x)
    # the fields are each element's own locally optimal fields
    got = neq.fields(x)
    _, _, _, f, K = direct_condensed_systems(mesh, prob, 0, np.arange(mesh.ntriangles))
    want = f - np.einsum("eft,et->ef", K, full[neq.elements.cols])
    assert got.shape == (mesh.ntriangles, 10)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("kind, k, d", [
    ("cyl_clamped", 0, 1e-2),
    ("scordelis_lo", 1, 0.25),
    ("cyl_free", 0, 1e-3),
])
def test_fields_match_uncondensed_solve(kind, k, d):
    # the uncondensed system over the free traces and all fields, built
    # densely from each element's own G, B and l and solved with
    # refinement in long double: its fields must be the ones recovered
    # from the condensed solve.  The element systems are formed as W'W
    # with W = L^-1 S B from each element's own Cholesky factor; the
    # form B' (G^-1 B) rounds differently, and at kappa(S G S) ~ 7e9
    # (cyl_free, d = 1e-3) that alone moves the global fields by 3e-8
    prob = make_benchmark(kind, d=d)
    mesh = initial_rectangle_mesh(prob.rect)
    rng = np.random.default_rng(17)
    for _ in range(2):
        mesh = refine(mesh, rng.choice(mesh.ntriangles, 4, replace=False))
    neq = asm.assemble_normal_equations(mesh, prob, k)
    got = neq.fields(solve_spd(neq.A, neq.rhs))

    nt, n = mesh.ntriangles, neq.A.shape[0]
    els = np.arange(nt)
    G = asm.element_gram_batch(mesh, prob, els)
    Bl = np.concatenate([asm.element_b_batch(mesh, prob, k, els),
                         asm.element_load_batch(mesh, prob, els)[:, :, None]], axis=2)
    gc = np.hstack([n + 10 * np.arange(nt)[:, None] + np.arange(10),
                    neq.index_map[neq.elements.cols]])
    dense = np.zeros((neq.ndof, neq.ndof))
    b = np.zeros(neq.ndof)
    for t in range(nt):
        s = 1.0 / np.sqrt(np.diag(G[t]))
        L = np.linalg.cholesky(s[:, None] * G[t] * s[None, :])
        W = scipy.linalg.solve_triangular(L, s[:, None] * Bl[t], lower=True)
        At, rt = W[:, :-1].T @ W[:, :-1], W[:, :-1].T @ W[:, -1]
        keep = gc[t] >= 0
        dense[np.ix_(gc[t, keep], gc[t, keep])] += At[np.ix_(keep, keep)]
        b[gc[t, keep]] += rt[keep]
    s = 1.0 / np.sqrt(np.diag(dense))
    As = dense * s[:, None] * s[None, :]
    lu = scipy.linalg.lu_factor(As)
    y = scipy.linalg.lu_solve(lu, s * b)
    for _ in range(3):
        r = (s * b).astype(np.longdouble) - As.astype(np.longdouble) @ y
        y = y + scipy.linalg.lu_solve(lu, r.astype(float))
    want = (s * y)[n:].reshape(nt, 10)
    # measured: 4e-11 to 1e-10
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_adaptive_ndof_counts_free_traces_and_fields():
    prob = make_benchmark("cyl_free", d=1e-3)
    run = adaptive_loop(prob, AdaptiveConfig(max_levels=2))
    assert len(run.levels) == 3
    for rec in run.levels:
        dm = TraceDofMap(rec.mesh, 0)
        constrained = apply_bc(dm, prob)
        constrained[dm.gauge] = True
        assert rec.ndof == int((~constrained).sum()) + 10 * rec.nelems
