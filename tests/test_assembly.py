"""Element Gram/trial matrices, loads, and the assembled normal equations."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from helpers import (
    FRAME_SKEW,
    FRAMES_SYM,
    class_loop_systems,
    coo_assembled_matrix,
    element_b,
    element_gram,
    element_load,
    householder_r,
    loop_class_kernels,
    pointwise_operator_rows,
    triangular_solve_ld,
    unique_jacobian_classes,
    whitened_element_systems,
)
from shelldpg import assembly as asm
from shelldpg import solver
from shelldpg.estimator import AdaptiveConfig, adaptive_loop
from shelldpg.mesh import Mesh, initial_rectangle_mesh, match_rows, refine
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
    triangle_table,
)
from shelldpg.solver import solve
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
        # G = F' F is SPD iff the rows of each block have full column
        # rank; with unit columns the smallest singular value measured 6e-5
        for F in asm._gram_blocks(asm.element_gram_batch(mesh, prob, np.arange(50))):
            sv = np.linalg.svd(F / np.linalg.norm(F, axis=1)[:, None, :],
                               compute_uv=False)
            assert np.all(sv[:, -1] > 1e-6)


def gram_oracle(coords, prob):
    """G of one element assembled point by point at triangle_rule(10).

    At each point every test dof's fields (v, z, T, S, Q) and their
    derivatives are built from fresh basis evaluations; each term of the
    test norm, the mass terms included, adds its weighted outer product.
    """
    _, detJ, Jinv = triangle_geometry(coords)
    b2, b3, b4 = triangle_basis(2), triangle_basis(3), triangle_basis(4)
    d, D, B, C = prob.d, prob.D, prob.B, prob.C_disp
    n = asm.N_TEST
    G = np.zeros((n, n))
    rule = triangle_rule(10)
    for x, w in zip(rule.points, rule.weights):
        p = x[None]
        phi2, phi3, phi4 = b2.eval(p)[0], b3.eval(p)[0], b4.eval(p)[0]
        grad3 = b3.grad(p)[0] @ Jinv
        hess3 = [Jinv.T @ h @ Jinv for h in b3.hess(p)[0]]
        hess4 = [Jinv.T @ h @ Jinv for h in b4.hess(p)[0]]
        v, gv, z, hz = (np.zeros((n, 2)), np.zeros((n, 2, 2)), np.zeros(n),
                        np.zeros((n, 2, 2)))
        T, divT, S, ddS, Q = (np.zeros((n, 2, 2)), np.zeros((n, 2)),
                              np.zeros((n, 2, 2)), np.zeros(n), np.zeros((n, 2, 2)))
        for i in range(10):
            for c in range(2):
                v[asm.OFF_V + 2 * i + c, c] = phi3[i]
                gv[asm.OFF_V + 2 * i + c, c] = grad3[i]
            z[asm.OFF_Z + i] = phi3[i]
            hz[asm.OFF_Z + i] = hess3[i]
            for f in range(3):
                T[asm.OFF_T + 3 * i + f] = phi3[i] * FRAMES_SYM[f]
                divT[asm.OFF_T + 3 * i + f] = FRAMES_SYM[f] @ grad3[i]
        for i in range(15):
            for f in range(3):
                S[asm.OFF_S + 3 * i + f] = phi4[i] * FRAMES_SYM[f]
                ddS[asm.OFF_S + 3 * i + f] = np.sum(FRAMES_SYM[f] * hess4[i])
        for m in range(6):
            Q[asm.OFF_Q + m] = phi2[m] * FRAME_SKEW
        BT = np.array([np.sum(B * t) for t in T])
        terms = [
            (1.0 / D**2, v @ C.T),
            (d**2 / D**4, z[:, None]),
            (1.0, T.reshape(n, 4)),
            (1.0 / d**2, S.reshape(n, 4)),
            (prob.c_Q, Q.reshape(n, 4)),
            (1.0, (gv - B * z[:, None, None] + Q).reshape(n, 4)),
            (d**2, hz.reshape(n, 4)),
            (D**2, divT @ np.linalg.inv(C).T),
            (D**4 / d**2, (ddS - BT)[:, None]),
        ]
        for scale, op in terms:
            G += (w * detJ * scale) * (op @ op.T)
    return G


@pytest.mark.parametrize("kind, d", [
    ("cyl_clamped", None),
    ("scordelis_lo", None),
    ("point_hyperbolic", None),  # off-diagonal B
    ("cyl_free", 1e-3),
])
def test_gram_matches_pointwise_oracle(kind, d):
    prob = make_benchmark(kind, d=d)
    coords = random_ccw_triangles(np.random.default_rng(23), 6)
    mesh = Mesh(coords.reshape(-1, 2), np.arange(18).reshape(6, 3))
    F = asm.element_gram_batch(mesh, prob, np.arange(6))
    for g, c in zip(F.transpose(0, 2, 1) @ F, coords):
        want = gram_oracle(c, prob)
        # entry ij scaled by sqrt(G_ii G_jj) <= max|G|: every block is
        # checked on its own scale, the small B cross terms included
        # (measured: 3.5e-14)
        s = 1.0 / np.sqrt(np.diag(want))
        assert np.abs(s[:, None] * (g - want) * s[None, :]).max() <= 1e-12


@pytest.mark.parametrize("kind, d", [("point_hyperbolic", None), ("cyl_free", 1e-3)])
def test_gram_operator_rows_are_p3_coefficients(kind, d):
    # every operator term of the test norm has degree <= 3, so its P3
    # coefficients give back its weighted values at the rule's points
    # (measured 5.2e-14); a term of higher degree would not come back
    prob = make_benchmark(kind, d=d)
    coords = random_ccw_triangles(np.random.default_rng(29), 6)
    mesh = Mesh(coords.reshape(-1, 2), np.arange(18).reshape(6, 3))
    F1, F2 = asm._gram_blocks(asm.element_gram_batch(mesh, prob, np.arange(6)))
    n = asm.N_P3
    rule = triangle_rule(asm.QUAD_DEGREE)
    phi = np.sqrt(rule.weights)[:, None] * triangle_table(3, asm.QUAD_DEGREE).val
    coef = [F1[:, 36:36 + 4 * n].reshape(6, n, 4, 36),
            F1[:, 36 + 4 * n:].reshape(6, n, 3, 36),
            F2[:, 75:75 + 2 * n].reshape(6, n, 2, 75),
            F2[:, 75 + 2 * n:].reshape(6, n, 1, 75)]
    for c, want in zip(coef, pointwise_operator_rows(mesh, prob, np.arange(6))):
        got = np.einsum("qi,eikn->eqkn", phi, c)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_gram_constant_tensor_energy():
    mesh = small_mesh()
    prob = plain_problem()
    F = asm.element_gram_batch(mesh, prob, np.arange(mesh.ntriangles))
    x = np.zeros(asm.N_TEST)
    x[asm.OFF_T + 0] = 1.0 / np.sqrt(2.0)
    x[asm.OFF_T + 2] = 1.0 / np.sqrt(2.0)
    _, detJ, _ = triangle_geometry(mesh.triangle_coords())
    energy = np.sum((F @ x) ** 2, axis=1)
    # |T|^2 = 2 for T = identity, element integral = 2 * area = detJ
    assert np.abs(energy - detJ).max() < 1e-13 * detJ.max()


def test_gram_value_blocks():
    mesh = small_mesh(rounds=0)
    Cd = np.array([[2.0, 0.0], [0.0, 0.5]])
    prob = plain_problem(d=0.3, D=2.0, C_disp=Cd, c_Q=0.7)
    e = 2
    G = element_gram(mesh, prob, e)
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
    # R' R reproduces F' F in the symmetrically equilibrated frame, where
    # the entries are at most 1; in the raw frame they span too many
    # orders for a check against eps * |G| entrywise
    mesh = small_mesh()
    _, reps, _, _ = asm.jacobian_classes(mesh)
    for d in (1.0, 1e-2, 1e-4):
        prob = plain_problem(B=[[0.0, 0.0], [0.0, 1.0]], d=d)
        for F in asm._gram_blocks(asm.element_gram_batch(mesh, prob, reps)):
            R = asm._gram_root(F, reps, np.arange(len(reps)))
            G = F.transpose(0, 2, 1) @ F
            s = 1.0 / np.sqrt(np.diagonal(G, axis1=1, axis2=2))
            eq = lambda X: s[:, :, None] * X * s[:, None, :]
            assert np.array_equal(R, np.triu(R))
            rel = np.abs(eq(R.transpose(0, 2, 1) @ R - G)).max()
            assert rel < 1e-13, (d, rel)  # measured 1.9e-15


@pytest.mark.parametrize("spoil", ["zero", "duplicate"])
def test_gram_failure_names_element_and_class(monkeypatch, spoil):
    mesh = small_mesh()
    prob = make_benchmark("cyl_clamped")
    cls, reps, _, _ = asm.jacobian_classes(mesh)
    bad = len(reps) // 2
    kernel = asm.element_gram_batch

    def spoiled(mesh_, prob_, els):
        F = kernel(mesh_, prob_, els)
        hit = np.nonzero(np.asarray(els) == reps[bad])[0]
        if spoil == "zero":
            F[hit, :, 25] = 0.0
        else:
            F[hit, :, 76] = F[hit, :, 43]
        return F

    monkeypatch.setattr(asm, "element_gram_batch", spoiled)
    with pytest.raises(asm.AssemblyError,
                       match=rf"in element {reps[bad]} \(Jacobian class {bad}\)"):
        asm.assemble_normal_equations(mesh, prob, 0)


def test_gram_membrane_bending_decoupling():
    # flat geometry: no coupling between (v, T, Q) and (z, S) test blocks
    mesh = small_mesh(rounds=0)
    prob = plain_problem(d=0.2)
    G = element_gram(mesh, prob, 0)
    memb = np.r_[asm.OFF_V : asm.OFF_V + 20, asm.OFF_T : asm.OFF_T + 30,
                 asm.OFF_Q : asm.OFF_Q + 6]
    bend = np.r_[asm.OFF_Z : asm.OFF_Z + 10, asm.OFF_S : asm.OFF_S + 45]
    assert np.abs(G[np.ix_(memb, bend)]).max() == 0.0


def exact_constant_state(mesh, dofmap, B, nu, a, w0):
    """Trace vector and local trial vectors of a constant exact solution;
    the local trace values are in each element's own frame."""
    N = w0 * apply_C(B, nu)
    tv = np.zeros(dofmap.ntrace)
    for vtx in range(mesh.nvertices):
        tv[dofmap.off_uhat + 2 * vtx : dofmap.off_uhat + 2 * vtx + 2] = a
        tv[dofmap.off_what + 3 * vtx] = w0
    # nu_E: the lower-to-higher direction of each edge rotated by -90 degrees
    tang = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    nu = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / np.hypot(*tang.T)[:, None]
    for e in range(mesh.nedges):
        tv[dofmap.off_Nhat + 2 * e : dofmap.off_Nhat + 2 * e + 2] = N @ nu[e]
    nt = mesh.ntriangles
    uloc = np.zeros((nt, 10 + dofmap.ncols))
    uloc[:, 0], uloc[:, 1], uloc[:, 2] = a[0], a[1], w0
    uloc[:, 3:7] = N.ravel()
    uloc[:, 10:] = dofmap.element_signs * tv[dofmap.element_columns]
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
    Bm = element_b(mesh, prob, 0, e)

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
    y = neq.elements.y
    for t in range(nt):
        G = element_gram(mesh, prob, t)
        Bm = element_b(mesh, prob, 1, t)
        # the element reads its global trace values times its signs
        Bm[:, 10:] *= neq.dofmap.element_signs[t]
        l = element_load(mesh, prob, t)
        GiB = np.linalg.solve(G, Bm)
        Gil = np.linalg.solve(G, l)
        At = Bm.T @ GiB
        rt = Bm.T @ Gil
        gc = np.r_[n + 10 * t + np.arange(10), neq.index_map[neq.elements.cols[t]]]
        keep = gc >= 0
        dense[np.ix_(gc[keep], gc[keep])] += At[np.ix_(keep, keep)]
        rhs[gc[keep]] += rt[keep]
        c = l @ Gil - rt[:10] @ np.linalg.solve(At[:10, :10], rt[:10])
        assert np.isclose(y[t] @ y[t], c, rtol=1e-10, atol=1e-14)
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
    nfree_trace = int((~(neq.index_map < 0)).sum())
    # the fields are condensed out of A but still count as dofs
    assert neq.A.shape == (nfree_trace, nfree_trace)
    assert neq.rhs.shape == (nfree_trace,)
    assert neq.ndof == nfree_trace + 10 * mesh.ntriangles
    asym = np.abs(neq.A - neq.A.T).max()
    assert asym <= 1e-12 * np.abs(neq.A.data).max()


def refined_system(kind, k):
    """`kind`'s system on a mesh refined 3 times at a random third of its
    elements, and its COO oracle (`coo_assembled_matrix`) renumbered as
    the free traces, with that renumbering."""
    prob = make_benchmark(kind)
    mesh = initial_rectangle_mesh(prob.rect)
    rng = np.random.default_rng(5)
    for _ in range(3):
        mesh = refine(mesh, rng.choice(mesh.ntriangles, (mesh.ntriangles + 2) // 3,
                                       replace=False))
    neq = asm.assemble_normal_equations(mesh, prob, k)
    ref, free = coo_assembled_matrix(neq)
    order = np.argsort(neq.index_map[free])
    ref = ref[order][:, order].tocsr()
    ref.sort_indices()
    return mesh, neq, ref, free, order


def fill_slots(places, nnz):
    """The slot in A.data of every element entry (`_trace_pattern`), nnz
    past the end, as one (nt, nc, nc) table."""
    start, rank, blocks, entity = places
    return np.minimum(blocks[:, entity][:, :, entity] + start[:, :, None]
                      + rank[:, None, :], nnz)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("kind", [b for b in BENCHMARKS if b != "custom"])
def test_csr_pattern_matches_coo_scatter(kind, k):
    # the pattern from the mesh topology holds exactly the entries the
    # triplet scatter sums, renumbered entity by entity.  cyl_clamped has
    # vertices with no free dof, cyl_free and scordelis_lo at k = 0 edges
    # with none.  The fill scales the element matrices before it sums
    # them, the oracle after: 6.7e-16 apart here, 3 eps of S A S's unit
    # diagonal
    mesh, neq, ref, free, order = refined_system(kind, k)
    As, s = neq.As, neq.s
    n = free.size
    new = neq.index_map[free]
    assert np.array_equal(new[order], np.arange(n))
    owner = neq.dofmap.dof_entity[free[order]]
    assert np.count_nonzero(np.diff(owner)) + 1 == len(np.unique(owner))
    nfree = np.bincount(owner, minlength=neq.dofmap.nentities)
    if kind == "cyl_clamped":
        assert np.any(nfree[:mesh.nvertices] == 0)
    if kind == "cyl_free" and k == 0:
        assert np.any(nfree[mesh.nvertices:] == 0)

    assert As.has_canonical_format
    assert As.shape == ref.shape and As.nnz == ref.nnz
    assert np.array_equal(As.indptr, ref.indptr)
    assert np.array_equal(As.indices, ref.indices)
    sref = ref.data * np.repeat(s, np.diff(ref.indptr)) * s[ref.indices]
    assert np.abs(As.data - sref).max() <= 2e-15 * np.abs(sref).max()


@pytest.mark.parametrize("kind, k", [("cyl_clamped", 0), ("scordelis_lo", 1),
                                     ("point_parabolic", 1)])
def test_unscaled_matrix_on_the_scaled_pattern(kind, k):
    # A, derived from As for readers outside the solve, keeps As's
    # pattern and agrees with the triplet scatter (2.2e-16 here)
    _, neq, ref, _, _ = refined_system(kind, k)
    A = neq.A
    assert A.has_canonical_format
    assert np.array_equal(A.indptr, neq.As.indptr)
    assert np.array_equal(A.indices, neq.As.indices)
    assert np.abs(A.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()


def test_scale_is_the_root_of_the_filled_diagonal():
    # s is the Jacobi scaling of the matrix the unscaled fill would sum,
    # bitwise: its diagonal sums the element diagonals in element order,
    # as one bincount over all the slots does
    prob = make_benchmark("cyl_free", d=1e-3)
    mesh = adaptive_loop(prob, AdaptiveConfig(k=1, max_levels=4)).levels[-1].mesh
    neq = asm.assemble_normal_equations(mesh, prob, 1)
    _, indptr, indices, places = asm._trace_pattern(neq.dofmap, neq.index_map < 0)
    slots = fill_slots(places, len(indices))
    data = np.bincount(slots.ravel(), neq.elements.matrices().ravel(),
                       minlength=len(indices) + 1)[:-1]
    A = scipy.sparse.csr_matrix((data, indices, indptr), shape=neq.As.shape)
    assert np.array_equal(neq.s, 1.0 / np.sqrt(A.diagonal()))


def test_element_systems_hold_no_element_matrices():
    # the scaled A_T are formed for the fill only, a chunk of elements at
    # a time: the fill gives As bitwise as one bincount over every slot
    # and every scaled A_T, the arrays a NormalEquations keeps per
    # element stay well below one dense (nc, nc) matrix per element, and
    # so does the assembly's peak memory above what its result keeps
    # (measured 2.7 MB against 8.9 MB; 17.8 MB with a table of all the
    # slots and one of all the A_T)
    prob = make_benchmark("cyl_clamped")
    mesh = initial_rectangle_mesh(prob.rect)
    while mesh.ntriangles < 1024:
        mesh = refine(mesh, np.arange(mesh.ntriangles))
    asm.assemble_normal_equations(mesh, prob, 0)  # fill the lazy tables
    tracemalloc.start()
    try:
        neq = asm.assemble_normal_equations(mesh, prob, 0)
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    el = neq.elements
    nt, nc = el.cols.shape
    _, indptr, indices, places = asm._trace_pattern(neq.dofmap, neq.index_map < 0)
    scale = np.append(neq.s, 0.0)[neq.index_map[el.cols]]
    As = asm._csr_fill(indptr, indices, places, el, scale)
    assert np.array_equal(As.indptr, neq.As.indptr)
    assert np.array_equal(As.data, neq.As.data)
    whole = np.bincount(fill_slots(places, len(indices)).ravel(),
                        el.matrices(scale=scale).ravel(),
                        minlength=len(indices) + 1)[:-1]
    assert np.array_equal(As.data, whole)

    kept = [*vars(neq).values(), *vars(el).values(), *el.classes]
    held = sum(x.nbytes for x in kept if isinstance(x, np.ndarray) and len(x) == nt)
    assert held < nt * nc * nc * 8 / 2
    assert peak - result < nt * nc * nc * 8


@pytest.mark.parametrize("kind, k, bound", [("cyl_clamped", 0, 0.75),
                                             ("point_parabolic", 1, 0.9)])
def test_free_traces_numbered_in_elimination_order(kind, k, bound):
    # the entities are numbered in minimum degree order of the vertex
    # graph, each edge before the first-eliminated of its ends; factored
    # in that order, the equilibrated A holds at most `bound` times the
    # LU fill of SuperLU's minimum degree on A itself (measured 0.60 on
    # the uniform mesh of 1,024 elements, 0.82 on the point-load mesh
    # after 8 adaptive levels, 371 elements)
    prob = make_benchmark(kind, d=1e-2)
    if kind == "cyl_clamped":
        mesh = initial_rectangle_mesh(prob.rect)
        while mesh.ntriangles < 1024:
            mesh = refine(mesh, np.arange(mesh.ntriangles))
    else:
        mesh = adaptive_loop(prob, AdaptiveConfig(k=k, max_levels=8)).levels[-1].mesh
    neq = asm.assemble_normal_equations(mesh, prob, k)
    nv, ne, n = mesh.nvertices, mesh.nedges, len(neq.s)
    position = asm._entity_order(mesh)
    assert np.array_equal(np.sort(position), np.arange(nv + ne))

    free = np.flatnonzero(neq.index_map >= 0)
    owner, row = neq.dofmap.dof_entity[free], neq.index_map[free]
    assert np.all(np.diff(position[owner[np.argsort(row)]]) >= 0)
    first = np.full(nv + ne, n)
    np.minimum.at(first, owner, row)
    last = np.full(nv + ne, -1)
    np.maximum.at(last, owner, row)
    ends = mesh.edges
    pivot = ends[np.arange(ne), np.argmin(position[ends], axis=1)]
    edge_last, pivot_first = last[nv:], first[pivot]
    both = (edge_last >= 0) & (pivot_first < n)
    assert both.sum() > ne // 2
    assert np.all(edge_last[both] < pivot_first[both])

    s = scipy.sparse.diags(1.0 / np.sqrt(neq.A.diagonal()))
    As = (s @ neq.A @ s).tocsc()
    ours = solver._splu(As)
    mmd = scipy.sparse.linalg.splu(As, permc_spec="MMD_AT_PLUS_A",
                                   diag_pivot_thresh=0.0,
                                   options={"SymmetricMode": True})
    assert ours.L.nnz + ours.U.nnz <= bound * (mmd.L.nnz + mmd.U.nnz)


def test_element_order_invariance():
    # renumbering the elements renumbers edges and dofs and changes the
    # element on which each Jacobian class is built; the systems agree to
    # the rounding of F and B between members of a class (the direct
    # oracle's bound; measured 5.9e-15)
    mesh = small_mesh()
    prob = make_benchmark("cyl_clamped")
    perm = np.random.default_rng(9).permutation(mesh.ntriangles)
    renum = Mesh(mesh.vertices, mesh.triangles[perm], rect=mesh.rect)
    a = asm.assemble_normal_equations(mesh, prob, 0)
    b = asm.assemble_normal_equations(renum, prob, 0)
    assert len(a.elements.W) == len(b.elements.W)
    A, rhs, c, _, _ = direct_condensed_systems(mesh, prob, 0, np.arange(mesh.ntriangles))
    ea, eb = a.elements, b.elements
    for name, x, y, ref in (
            ("A", ea.matrices()[perm], eb.matrices(), A),
            ("rhs", ea.rhs[perm], eb.rhs, rhs),
            ("c", np.einsum("ei,ei->e", ea.y, ea.y)[perm],
             np.einsum("ei,ei->e", eb.y, eb.y), c)):
        assert np.abs(x - y).max() <= 1e-13 * np.abs(x).max(), name
        assert np.abs(x - ref[perm]).max() <= 1e-13 * np.abs(ref).max(), name

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
    fa = a.fields(solve(a)[0])[perm]
    fb = b.fields(solve(b)[0])
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
        np.array([1.0, 3.0]) - base,  # rotated by 180 degrees, -J: same class
    ]
    mesh = Mesh(np.vstack(tris), np.arange(21).reshape(7, 3))
    cls, reps, keys, parity = asm.jacobian_classes(mesh)
    assert cls[0] == cls[1] == cls[2] == cls[6]
    assert reps[cls[0]] == 0
    assert len({cls[0], cls[3], cls[4], cls[5]}) == 4
    assert len(reps) == 4
    # the rotated copy has the other parity; the mirror image is not -J
    assert parity[6] == -parity[0] and np.all(parity[:3] == parity[0])
    assert np.all(np.abs(parity) == 1)
    # one distinct key per class, absolute across meshes, canonical: the
    # first nonzero grid entry is positive
    assert keys.shape == (4, 5) and len(np.unique(keys, axis=0)) == 4
    assert all(key[1:][key[1:] != 0][0] > 0 for key in keys)
    _, _, alone, _ = asm.jacobian_classes(Mesh(tris[3], np.arange(3)[None]))
    assert np.array_equal(alone[0], keys[cls[3]])
    _, _, alone, flipped = asm.jacobian_classes(Mesh(tris[6], np.arange(3)[None]))
    assert np.array_equal(alone[0], keys[cls[0]]) and flipped[0] == parity[6]


@pytest.mark.parametrize("graded", [False, True])
def test_jacobian_classes_match_unique_rows(graded):
    # grouped by a lexicographic sort, the classes, representatives, keys
    # and parities are those of np.unique over the key rows
    if graded:
        prob = make_benchmark("point_parabolic")
        mesh = initial_rectangle_mesh(prob.rect)
        for _ in range(12):
            near = np.any(np.abs(mesh.triangle_coords() - prob.point_load.point).max(
                axis=2) < 1e-12, axis=1)
            mesh = refine(mesh, np.nonzero(near)[0])
    else:
        coords = random_ccw_triangles(np.random.default_rng(31), 200)
        coords[100:] = coords[:100] + 0.5  # translated copies
        coords[150:] = 2.0 - coords[:50]  # rotated by 180 degrees: -J
        mesh = Mesh(coords.reshape(-1, 2), np.arange(600).reshape(200, 3))
    got, want = asm.jacobian_classes(mesh), unique_jacobian_classes(mesh)
    assert len(want[1]) < mesh.ntriangles
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def reflection_oracle_signs(k):
    """(S_v, sigma_f, sigma_t) of the point reflection J -> -J, from the
    parity of each quantity: the vectors v, u, u_hat, grad w_hat and
    N_hat are odd, everything else is even."""
    S_v = np.r_[-np.ones(20), np.ones(91)]
    sigma_f = np.r_[-1.0, -1.0, np.ones(8)]  # u1 u2 w N11 N12 N21 N22 M11 M12 M22
    u_hat = -np.ones(6 + 6 * k)
    w_hat = np.tile([1.0, -1.0, -1.0], 3)  # value, d/dx, d/dy at each vertex
    N_hat = -np.ones(6)
    moment = np.ones(12)  # m_n, q per edge, then the twists
    return S_v, sigma_f, np.r_[u_hat, w_hat, N_hat, moment]


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("kind", [b for b in BENCHMARKS if b != "custom"])
def test_point_reflection_symmetry(kind, k):
    # F(-J) = D_r F(J) S_v, G(-J) = S_v G(J) S_v and
    # B(-J) = S_v B(J) diag(sigma_f, sigma_t) for an element and its
    # 180-degree rotation about another point
    prob = make_benchmark(kind)
    base = np.array([[0.37, 0.61], [0.58, 0.66], [0.41, 0.83]])
    rotated = np.array([0.9, 1.7]) - base
    mesh = Mesh(np.vstack([base, rotated]), np.arange(6).reshape(2, 3))
    cls, _, _, parity = asm.jacobian_classes(mesh)
    assert cls[0] == cls[1] and parity[0] == -parity[1]
    S_v, sigma_f, sigma_t = reflection_oracle_signs(k)
    assert np.array_equal(asm._reflection_signs(k), sigma_t)
    F = asm.element_gram_batch(mesh, prob, [0, 1])
    # D_r = -1 on the rows of the odd terms: C_disp v, the first 20 rows,
    # and div T, the 2 nq rows after the 75 mass rows of the (T, S) block
    m1 = asm._gram_blocks(F)[0].shape[1]
    nq = (F.shape[1] - m1 - 75) // 3
    D_r = np.ones(F.shape[1])
    D_r[np.r_[0:20, m1 + 75:m1 + 75 + 2 * nq]] = -1.0
    assert np.abs(F[1] - D_r[:, None] * F[0] * S_v).max() <= 1e-13 * np.abs(F[1]).max()
    G = F.transpose(0, 2, 1) @ F
    Bm = asm.element_b_batch(mesh, prob, k, [0, 1])
    sG = S_v[:, None] * G[0] * S_v
    sB = S_v[:, None] * Bm[0] * np.r_[sigma_f, sigma_t]
    assert np.abs(G[1] - sG).max() <= 1e-13 * np.abs(G[1]).max()
    assert np.abs(Bm[1] - sB).max() <= 1e-13 * np.abs(Bm[1]).max()
    # the same in the equilibrated frame that gets factored, where the
    # entries are at most 1 and the small odd blocks count as much as the
    # rest (measured 1.1e-13 and 5.2e-14); there the signs are not idle:
    # G and B of -J differ from those of J by far more than the bound
    s = 1.0 / np.sqrt(np.diag(G[1]))
    c = 1.0 / np.abs(s[:, None] * Bm[1]).max(axis=0)
    eqG = lambda X: s[:, None] * X * s
    eqB = lambda X: s[:, None] * X * c
    assert np.abs(eqG(G[1] - sG)).max() <= 1e-12
    assert np.abs(eqB(Bm[1] - sB)).max() <= 1e-12
    assert np.abs(eqG(G[1] - G[0])).max() > 0.1
    assert np.abs(eqB(Bm[1] - Bm[0])).max() > 0.1


@pytest.mark.parametrize("kind, k, d", [("cyl_clamped", 0, 1e-2),
                                         ("point_parabolic", 1, 1e-2),
                                         ("cyl_free", 0, 1e-3)])
def test_stacked_class_kernels_match_one_class_at_a_time(kind, k, d):
    prob = make_benchmark(kind, d=d)
    mesh = small_mesh(rounds=2)
    _, reps, _, _ = asm.jacobian_classes(mesh)
    assert len(reps) > 8
    F = asm.element_gram_batch(mesh, prob, reps)
    Bm = asm.element_b_batch(mesh, prob, k, reps)
    stacked = asm._class_kernels(F, Bm, reps, np.arange(len(reps)))
    for j in range(len(reps)):
        one = loop_class_kernels(F[j], Bm[j])
        for got, want in zip(stacked, one):
            assert np.abs(got[j] - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("spoil", ["zero", "duplicate"])
def test_bad_member_of_a_stacked_batch_is_named(spoil):
    prob = make_benchmark("cyl_clamped")
    mesh = small_mesh(rounds=2)
    _, reps, _, _ = asm.jacobian_classes(mesh)
    F = asm.element_gram_batch(mesh, prob, reps[:7])
    Bm = asm.element_b_batch(mesh, prob, 0, reps[:7])
    classes = np.arange(10, 17)
    if spoil == "zero":
        F[4, :, 96] = 0.0
    else:
        F[4, :, 3] = F[4, :, 1]
    with pytest.raises(asm.AssemblyError,
                       match=rf"in element {reps[4]} \(Jacobian class 14\)"):
        asm._class_kernels(F, Bm, reps[:7], classes)


@pytest.mark.parametrize("kind, k", [("cyl_clamped", 0), ("scordelis_lo", 1)])
def test_element_systems_match_per_class_loops(kind, k):
    # A_T signed from the class table, rhs_T, and P_T u_T built once for
    # all elements give exactly the per-class products
    prob = make_benchmark(kind, d=1e-2)
    mesh = small_mesh(rounds=2)
    el = asm.assemble_normal_equations(mesh, prob, k).elements
    assert any(len(np.unique(mesh.tri_edge_sign[el.cls == c], axis=0)) > 1
               for c in range(len(el.W)))
    uloc = np.random.default_rng(5).normal(size=el.sign.shape)
    A, rhs, res, fields = class_loop_systems(el, uloc)
    assert np.array_equal(el.matrices(), A)
    assert np.array_equal(el.rhs, rhs)
    assert np.array_equal(el.residuals(uloc), res)
    assert np.array_equal(el.fields(uloc), fields)


def direct_element_systems(mesh, prob, k, els):
    """A_T = B' G^-1 B and rhs_T = B' G^-1 l of each element from its own
    Gram rows F, B and l, with B's trace columns signed into the global
    edge frames, formed in long double from W = R'^-1 [B l]
    (`whitened_element_systems`).

    A Householder QR of F in long double, not a Cholesky factor of
    G = F' F: the error of the class path is about kappa(R) eps, that of
    a normal-equations oracle kappa(R)^2 eps_ld, which is the larger one
    once kappa(R) > 1e3.
    """
    W = whitened_element_systems(mesh, prob, k, els)
    M = W.transpose(0, 2, 1)[:, :-1] @ W
    return M[:, :, :-1].astype(float), M[:, :, -1].astype(float)


def direct_condensed_systems(mesh, prob, k, els):
    """Each element's own static condensation of its direct system.

    With the R of the QR of W = [W_f W_t w] (`whitened_element_systems`),
    in long double, R = [[R11, R12, r1], [0, R22, r2], [0, 0, rho]], the
    fields u_f = R11^-1 (r1 - R12 u_t) minimise the element residual, and
    the Schur complements on the field block are A_T = R22' R22,
    rhs_T = R22' r2 and c_T = |r2|^2 + rho^2.  Returns those and the field
    recovery u_f = f_T - K_T u_t, all over the element's global trace
    values.
    """
    R = householder_r(whitened_element_systems(mesh, prob, k, els))
    fl, tr = slice(0, asm.N_FIELD), slice(asm.N_FIELD, -1)
    R22, r2 = R[:, tr, tr], R[:, tr, -1]
    KF = triangular_solve_ld(R[:, fl, fl], R[:, fl, asm.N_FIELD:], False)
    A = R22.transpose(0, 2, 1) @ R22
    rhs = np.einsum("eit,ei->et", R22, r2)
    c = np.einsum("ei,ei->e", r2, r2) + R[:, -1, -1] ** 2
    return tuple(x.astype(float) for x in (A, rhs, c, KF[..., -1], KF[..., :-1]))


@pytest.mark.parametrize("kind, k, d, bound", [
    # measured 1.0e-14, 1.3e-14, 3.6e-13 and 1.7e-13 against the
    # long-double oracle; the bounds follow the condition of the
    # column-scaled R, kappa(S G S)^(1/2): 2e5-5e5 for scordelis_lo at
    # d = 1e-2 and about 8e4 for cyl_free at d = 1e-3
    ("cyl_clamped", 0, 1e-2, 1e-13),
    ("scordelis_lo", 1, 0.25, 1e-13),
    ("scordelis_lo", 1, 1e-2, 3e-12),
    ("cyl_free", 0, 1e-3, 2e-12),
])
def test_class_systems_match_direct_oracle(kind, k, d, bound):
    prob = make_benchmark(kind, d=d)
    mesh = initial_rectangle_mesh(prob.rect)
    rng = np.random.default_rng(17)
    for _ in range(2):
        mesh = refine(mesh, rng.choice(mesh.ntriangles, 4, replace=False))
    el = asm.assemble_normal_equations(mesh, prob, k).elements
    # the mesh exercises the signed column map: some class has members
    # whose edge signs differ, so their P_T differ
    signs = mesh.tri_edge_sign
    assert any(len(np.unique(signs[el.cls == c], axis=0)) > 1
               for c in range(len(el.W)))
    assert np.any(el.sign < 0)
    # and the point reflection: some class has members of both parities,
    # whose kernels come from one build
    assert any(len(np.unique(el.parity[el.cls == c])) == 2
               for c in range(len(el.W)))

    A, rhs, c, _, _ = direct_condensed_systems(mesh, prob, k,
                                               np.arange(mesh.ntriangles))
    rel = lambda x, ref: np.abs(x - ref).max() / np.abs(ref).max()
    mats = el.matrices()
    for t in range(mesh.ntriangles):
        assert rel(mats[t], A[t]) <= bound, (t, rel(mats[t], A[t]))
        assert rel(el.rhs[t], rhs[t]) <= bound, (t, rel(el.rhs[t], rhs[t]))
    assert rel(np.einsum("ei,ei->e", el.y, el.y), c) <= bound


@pytest.mark.parametrize("kind", ["point_parabolic", "point_elliptic"])
def test_point_refinement_below_area_1e8_matches_oracle(kind):
    # NVB at the load vertex halves the smallest element per round.  A
    # Cholesky factor of G failed at area 1e-6 (round 10, 440 elements),
    # where kappa(S G S) passes 1/eps.  Every level must assemble, with
    # the kernels carried as in the adaptive loop, and on the last mesh
    # (632 elements, area 3.7e-9; kappa(R) 3e10 and 7e12 on the smallest
    # element) the class systems of one member per class and of the load
    # element must match the long-double oracle (measured 2.4e-14)
    prob = make_benchmark(kind, d=1e-2)
    mesh = initial_rectangle_mesh(prob.rect)
    neq = None
    while True:
        neq = asm.assemble_normal_equations(mesh, prob, 1, previous=neq)
        if mesh.areas.min() < 1e-8:
            break
        v, _ = asm.find_point_element(mesh, prob.point_load.point)
        mesh = refine(mesh, np.nonzero(np.any(mesh.triangles == v, axis=1))[0])
    el = neq.elements
    last = np.zeros(len(el.W), dtype=int)
    np.maximum.at(last, el.cls, np.arange(mesh.ntriangles))
    _, loaded = asm.find_point_element(mesh, prob.point_load.point)
    els = np.union1d(last, [loaded])
    A, rhs, c, _, _ = direct_condensed_systems(mesh, prob, 1, els)
    rel = lambda x, ref: np.abs(x - ref).max() / np.abs(ref).max()
    mats = el.matrices(els)
    for i in range(len(els)):
        assert rel(mats[i], A[i]) <= 2e-13, (els[i], rel(mats[i], A[i]))
    i = np.searchsorted(els, loaded)
    assert rel(el.rhs[loaded], rhs[i]) <= 2e-13
    assert abs(el.y[loaded] @ el.y[loaded] - c[i]) <= 2e-13 * c[i]


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


@pytest.mark.parametrize("held, missing", [((), "u1"), (("u1", "w"), "u2"),
                                           (("u2", "dnw"), "u1")])
def test_unheld_in_plane_translation_raises(held, missing):
    # a constant u has no membrane strain for any B: with no side holding
    # u1 (or u2) the system is singular.  Measured on the CLI's default
    # custom problem (no bc keys, 16 elements, B = diag(0, 1)): two
    # eigenvalues of S A S near 1e-16, and two elimination orders gave
    # u fields 0.05 apart at a field scale of 0.2-0.35
    prob = plain_problem(B=[[0.0, 0.0], [0.0, 1.0]], d=1e-2,
                         bc={"xmin": held, "ymax": ("w",)})
    with pytest.raises(asm.AssemblyError, match=f"no side holds {missing}"):
        asm.assemble_normal_equations(small_mesh(rounds=0), prob, 0)


def test_zero_load_zero_rhs():
    mesh = small_mesh(rounds=0)
    prob = plain_problem(B=[[0.0, 0.0], [0.0, 1.0]], d=1e-2,
                         bc={s: ("u1", "u2", "w", "dnw")
                             for s in ("xmin", "xmax", "ymin", "ymax")})
    neq = asm.assemble_normal_equations(mesh, prob, 0)
    assert np.abs(neq.rhs).max() == 0.0
    y = neq.elements.y
    assert np.abs(np.einsum("ei,ei->e", y, y)).max() == 0.0


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
    free = neq.index_map >= 0
    assert np.abs(full[~free]).max() == 0.0
    assert np.array_equal(full[free], x[neq.index_map[free]])
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
    # densely from each element's own F, B and l by the long-double
    # oracle (`direct_element_systems`) and solved with refinement in
    # long double: its fields must be the ones recovered from the
    # condensed solve
    prob = make_benchmark(kind, d=d)
    mesh = initial_rectangle_mesh(prob.rect)
    rng = np.random.default_rng(17)
    for _ in range(2):
        mesh = refine(mesh, rng.choice(mesh.ntriangles, 4, replace=False))
    neq = asm.assemble_normal_equations(mesh, prob, k)
    got = neq.fields(solve(neq)[0])

    nt, n = mesh.ntriangles, neq.A.shape[0]
    els = np.arange(nt)
    At, rt = direct_element_systems(mesh, prob, k, els)
    gc = np.hstack([n + 10 * np.arange(nt)[:, None] + np.arange(10),
                    neq.index_map[neq.elements.cols]])
    dense = np.zeros((neq.ndof, neq.ndof))
    b = np.zeros(neq.ndof)
    for t in range(nt):
        keep = gc[t] >= 0
        dense[np.ix_(gc[t, keep], gc[t, keep])] += At[t][np.ix_(keep, keep)]
        b[gc[t, keep]] += rt[t, keep]
    s = 1.0 / np.sqrt(np.diag(dense))
    As = dense * s[:, None] * s[None, :]
    lu = scipy.linalg.lu_factor(As)
    y = scipy.linalg.lu_solve(lu, s * b)
    for _ in range(3):
        r = (s * b).astype(np.longdouble) - As.astype(np.longdouble) @ y
        y = y + scipy.linalg.lu_solve(lu, r.astype(float))
    want = (s * y)[n:].reshape(nt, 10)
    # measured: 8.7e-12 to 7.5e-11
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


def nvb_sequence(kind, d):
    """Problem and two consecutive meshes of a random NVB-adapted sequence.

    The first mesh is the 45-element mesh of the direct-oracle tests.
    """
    prob = make_benchmark(kind, d=d)
    mesh = initial_rectangle_mesh(prob.rect)
    rng = np.random.default_rng(17)
    meshes = []
    for _ in range(3):
        mesh = refine(mesh, rng.choice(mesh.ntriangles, 4, replace=False))
        meshes.append(mesh)
    return prob, meshes[1], meshes[2]


@pytest.mark.parametrize("kind, k, d, bound", [
    # a taken-over kernel was built on another member of the class
    # (measured at most 1.0e-14 in A_T and rhs_T, 1.6e-10 in the fields)
    ("cyl_clamped", 0, 1e-2, 1e-10),
    ("scordelis_lo", 1, 1e-2, 2e-8),
    ("cyl_free", 0, 1e-3, 1e-8),
])
def test_previous_level_kernels_match_fresh_assembly(monkeypatch, kind, k, d, bound):
    prob, first, second = nvb_sequence(kind, d)
    prev = asm.assemble_normal_equations(first, prob, k)
    built = []
    kernel = asm.element_gram_batch

    def counting(mesh_, prob_, els):
        built.extend(np.asarray(els).tolist())
        return kernel(mesh_, prob_, els)

    monkeypatch.setattr(asm, "element_gram_batch", counting)
    neq = asm.assemble_normal_equations(second, prob, k, previous=prev)
    monkeypatch.undo()
    fresh = asm.assemble_normal_equations(second, prob, k)

    # the Gram kernel ran once on each class new to the second mesh, on
    # its lowest-index element, and on nothing else
    _, reps, keys, _ = asm.jacobian_classes(second)
    old = {key.tobytes() for key in prev.elements.keys}
    new = np.array([j for j, key in enumerate(keys) if key.tobytes() not in old])
    assert 0 < len(new) < len(keys)
    assert sorted(built) == sorted(reps[new].tolist())
    # a carried class whose lowest-index element has other edge signs
    # than the element of the first mesh its kernels were built on: the
    # kernels must not depend on the signs
    el = neq.elements
    reused = np.setdiff1d(np.arange(len(keys)), new)
    _, first_reps, first_keys, first_parity = asm.jacobian_classes(first)
    built_on = first_reps[match_rows(keys[reused], first_keys)]
    assert np.any(second.tri_edge_sign[reps[reused]] != first.tri_edge_sign[built_on])
    # and one whose members on the second mesh include the other parity
    # than that element: the carried kernels are the canonical ones
    assert any(np.any(el.parity[el.cls == j] != first_parity[t])
               for j, t in zip(reused, built_on))
    assert np.array_equal(el.keys, keys)

    rel = lambda x, ref: np.abs(x - ref).max() / np.abs(ref).max()
    mats, fresh_mats = el.matrices(), fresh.elements.matrices()
    for t in range(second.ntriangles):
        assert rel(mats[t], fresh_mats[t]) <= bound, t
        assert rel(el.rhs[t], fresh.elements.rhs[t]) <= bound, t
    assert rel(np.einsum("ei,ei->e", el.y, el.y),
               np.einsum("ei,ei->e", fresh.elements.y, fresh.elements.y)) <= bound
    assert abs(neq.A - fresh.A).max() <= bound * abs(fresh.A).max()
    assert rel(neq.rhs, fresh.rhs) <= bound
    x, _ = solve(fresh)
    assert rel(neq.fields(x), fresh.fields(x)) <= bound


def test_previous_of_another_problem_or_degree_raises():
    prob, first, second = nvb_sequence("cyl_clamped", 1e-2)
    prev = asm.assemble_normal_equations(first, prob, 0)
    with pytest.raises(ValueError, match="another problem"):
        asm.assemble_normal_equations(second, make_benchmark("cyl_clamped"), 0,
                                      previous=prev)
    with pytest.raises(ValueError, match="polynomial degree"):
        asm.assemble_normal_equations(second, prob, 1, previous=prev)
