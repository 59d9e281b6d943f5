"""Trace dof maps, boundary conditions, and edge pairing matrices."""

import numpy as np
import pytest
from helpers import (FRAMES_SYM, loop_apply_bc, loop_element_columns, project_scalar,
                     project_sym_tensor, project_vector)

from shelldpg.assembly import S_V, SIGMA_F, element_b_batch, jacobian_classes
from shelldpg.mesh import Mesh, initial_rectangle_mesh, refine
from shelldpg.model import BENCHMARKS, ShellProblem, make_benchmark
from shelldpg.polyquad import triangle_basis, triangle_geometry, triangle_rule, map_gradients, map_hessians, map_points
from shelldpg.traces import TraceDofMap, apply_bc, edge_pairings, reflection_signs

UNIT_TRI = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))


def local_slices(k):
    """Local u_hat, w_hat, N_hat and M_hat columns; the M_hat block holds
    (m_n, q) per edge followed by the (start, end) twists per edge."""
    n_u = 6 + 6 * k
    return (
        slice(0, n_u),
        slice(n_u, n_u + 9),
        slice(n_u + 9, n_u + 15),
        slice(n_u + 15, n_u + 27),
    )


def test_dofmap_counts():
    mesh = initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0))
    dm0 = TraceDofMap(mesh, 0)
    # N_hat (2), m_n and q (2), twists at both endpoints (2) per edge
    assert dm0.ntrace == 5 * mesh.nvertices + 6 * mesh.nedges
    assert dm0.element_columns.shape == (4, 33)
    dm1 = TraceDofMap(mesh, 1)
    assert dm1.ntrace == 5 * mesh.nvertices + 8 * mesh.nedges
    assert dm1.element_columns.shape == (4, 39)
    # one gauge twist per vertex, sitting at that vertex
    for dm in (dm0, dm1):
        slot = dm.gauge - dm.off_twist
        assert np.all((slot >= 0) & (slot < 2 * mesh.nedges))
        at = mesh.edges.ravel()[slot]
        assert np.array_equal(np.sort(at), np.arange(mesh.nvertices))
        # every local column belongs to the entity that owns its dof: 5
        # dofs per vertex, 6 + 2k per edge
        assert np.array_equal(dm.dof_entity[dm.element_columns],
                              dm.element_entities[:, dm.column_entity])
        per = np.bincount(dm.dof_entity, minlength=dm.nentities)
        assert np.all(per[:mesh.nvertices] == 5)
        assert np.all(per[mesh.nvertices:] == 6 + 2 * dm.k)
    with pytest.raises(ValueError):
        TraceDofMap(mesh, 2)


@pytest.mark.parametrize("k", [0, 1])
def test_element_columns_match_loop_version(k):
    mesh = refine_some(initial_rectangle_mesh((0.0, 2.0, 0.0, 1.0)), seed=4, rounds=3)
    dm = TraceDofMap(mesh, k)
    cols = loop_element_columns(dm)
    assert dm.element_columns.dtype == cols.dtype
    assert np.array_equal(dm.element_columns, cols)


def test_dofmap_shared_edge_dofs():
    mesh = refine(initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0)), np.array([0, 2]))
    for k in (0, 1):
        dm = TraceDofMap(mesh, k)
        su, sw, sn, sm = local_slices(k)
        cols = dm.element_columns
        # collect (element, local edge) pairs per global edge
        incident = {}
        for t in range(mesh.ntriangles):
            for j in range(3):
                incident.setdefault(mesh.tri_edges[t, j], []).append((t, j))
        for e, pairs in incident.items():
            if len(pairs) != 2:
                continue
            (t1, j1), (t2, j2) = pairs
            for s, first in ((sn, 0), (sm, 0)):
                c1 = cols[t1, s][first + 2 * j1 : first + 2 * j1 + 2]
                c2 = cols[t2, s][first + 2 * j2 : first + 2 * j2 + 2]
                assert np.array_equal(c1, c2)
            # the two neighbours run along the edge in opposite
            # directions: one's start twist is the other's end twist
            c1 = cols[t1, sm][6 + 2 * j1 : 8 + 2 * j1]
            c2 = cols[t2, sm][6 + 2 * j2 : 8 + 2 * j2]
            assert np.array_equal(c1, c2[::-1])
            # opposite element-edge signs across interior edges, on the
            # N_hat and q columns only
            s1, s2 = mesh.tri_edge_sign[t1, j1], mesh.tri_edge_sign[t2, j2]
            assert s1 == -s2
            for t, j, s in ((t1, j1, s1), (t2, j2, s2)):
                sg = dm.element_signs[t]
                assert np.array_equal(sg[sn][2 * j : 2 * j + 2], [s, s])
                assert np.array_equal(sg[sm][[2 * j, 2 * j + 1, 6 + 2 * j, 7 + 2 * j]],
                                      [1, s, 1, 1])
        signed = np.zeros(dm.ncols, dtype=bool)
        signed[sn] = True
        signed[sm.start + 1 : sm.start + 6 : 2] = True
        assert np.all(dm.element_signs[:, ~signed] == 1)
        assert np.all(np.abs(dm.element_signs[:, signed]) == 1)


def make_plate(bc):
    return ShellProblem(rect=(0.0, 1.0, 0.0, 1.0), B=np.zeros((2, 2)), d=0.5, bc=bc)


def test_bc_clamped_square():
    mesh = initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0))
    dm = TraceDofMap(mesh, 0)
    allvars = {"u1", "u2", "w", "dnw"}
    prob = make_plate({s: allvars for s in ("xmin", "xmax", "ymin", "ymax")})
    con = apply_bc(dm, prob)
    # all u_hat and w_hat dofs of the four corner vertices, nothing else
    assert con.sum() == 4 * 5
    for v in range(4):
        assert con[2 * v] and con[2 * v + 1]
        assert all(con[dm.off_what + 3 * v + c] for c in range(3))
    assert not con[dm.off_Nhat :].any()
    # center vertex is interior
    assert not con[8:10].any()
    assert not con[dm.off_what + 12 : dm.off_what + 15].any()


def test_bc_simply_supported_square():
    mesh = initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0))
    dm = TraceDofMap(mesh, 0)
    prob = make_plate({s: {"u1", "u2", "w"} for s in ("xmin", "xmax", "ymin", "ymax")})
    con = apply_bc(dm, prob)
    for v in range(4):
        # corners take the union of both tangential directions
        assert all(con[dm.off_what + 3 * v + c] for c in range(3))
    for be in mesh.boundary_edges:
        assert con[dm.off_Mhat + 2 * be]  # m_hat zeroed, dnw free
        assert not con[dm.off_Mhat + 2 * be + 1]  # q_hat kept, w constrained
        assert not con[dm.off_Nhat + 2 * be : dm.off_Nhat + 2 * be + 2].any()
    # w held everywhere: no corner force vanishes
    assert not con[dm.off_twist :].any()


def side_of_edge(mesh, be, rect):
    x0, x1, y0, y1 = rect
    pts = mesh.vertices[mesh.edges[be]]
    if np.allclose(pts[:, 0], x0):
        return "xmin"
    if np.allclose(pts[:, 0], x1):
        return "xmax"
    if np.allclose(pts[:, 1], y0):
        return "ymin"
    return "ymax"


def test_bc_scordelis_lo():
    prob = make_benchmark("scordelis_lo")
    mesh = initial_rectangle_mesh(prob.rect)
    for k in (0, 1):
        dm = TraceDofMap(mesh, k)
        con = apply_bc(dm, prob)
        # corner (0, 0): u1 (xmin), u2 (ymin), wx+wy (dnw on both), w free
        assert con[0] and con[1]
        assert not con[dm.off_what + 0]
        assert con[dm.off_what + 1] and con[dm.off_what + 2]
        # corner (25, 0) is vertex 1: u2, w, wy constrained; u1, wx free
        assert not con[2] and con[3]
        assert con[dm.off_what + 3] and not con[dm.off_what + 4]
        assert con[dm.off_what + 5]
        for be in mesh.boundary_edges:
            side = side_of_edge(mesh, be, prob.rect)
            sig = con[dm.off_Nhat + 2 * be : dm.off_Nhat + 2 * be + 2]
            mq = con[dm.off_Mhat + 2 * be : dm.off_Mhat + 2 * be + 2]
            if side == "ymax":  # free edge: all duals zeroed
                assert sig.all() and mq.all()
            elif side == "xmin":  # u1, dnw constrained
                assert not sig[0] and sig[1]
                assert not mq[0] and mq[1]
            elif side == "ymin":  # u2, dnw constrained
                assert sig[0] and not sig[1]
                assert not mq[0] and mq[1]
            else:  # xmax: u2, w constrained
                assert sig[0] and not sig[1]
                assert mq[0] and not mq[1]
            if k == 1:
                bub = con[dm.off_ubub + 2 * be : dm.off_ubub + 2 * be + 2]
                assert bub[0] == (side == "xmin")
                assert bub[1] == (side in ("ymin", "xmax"))
            # no corner force where w is free: w is held on xmax only
            for slot, v in enumerate(mesh.edges[be]):
                held = np.isclose(mesh.vertices[v, 0], prob.rect[1])
                assert con[dm.off_twist + 2 * be + slot] == (not held)


@pytest.mark.parametrize("kind", [b for b in BENCHMARKS if b != "custom"])
def test_bc_matches_loop_over_boundary_edges(kind):
    prob = make_benchmark(kind)
    mesh = initial_rectangle_mesh(prob.rect)
    rng = np.random.default_rng(11)
    for _ in range(4):
        mesh = refine(mesh, rng.choice(mesh.ntriangles, 3, replace=False))
    for k in (0, 1):
        dm = TraceDofMap(mesh, k)
        con = apply_bc(dm, prob)
        assert np.array_equal(con, loop_apply_bc(dm, prob))
        assert con.any() and not con.all()


# ---------------------------------------------------------------------------
# pairing matrices


def test_pair_u_hat_closed_contour():
    # constant T, u_hat a constant vector: contour integral of T n vanishes
    mesh = refine(initial_rectangle_mesh((0.0, 2.0, 0.0, 1.0)), np.array([1, 3]))
    pair = edge_pairings(mesh, 0)
    Tconst = np.array([[2.0, 1.0], [1.0, 3.0]])
    for t in range(mesh.ntriangles):
        coords = mesh.triangle_coords([t])[0]
        cT = project_sym_tensor(coords, lambda x, y: np.broadcast_to(Tconst, x.shape + (2, 2)), 3)
        ucoef = np.tile([0.7, -1.3], 3)
        assert abs(cT @ pair.u_hat[t] @ ucoef) < 1e-13


def test_pair_u_hat_single_edge_hand_value():
    # bubble column of one edge isolates a single-edge integral
    pair = edge_pairings(UNIT_TRI, 1)
    Tconst = np.array([[2.0, 1.0], [1.0, 3.0]])
    coords = UNIT_TRI.triangle_coords([0])[0]
    cT = project_sym_tensor(coords, lambda x, y: np.broadcast_to(Tconst, x.shape + (2, 2)), 3)
    # edge 2 joins (0,0)-(1,0), outward normal (0,-1), length 1
    Tn = Tconst @ np.array([0.0, -1.0])
    for c in range(2):
        # bubble integrates to 2/3 of the length
        val = cT @ pair.u_hat[0][:, 6 + 2 * 2 + c]
        assert val == pytest.approx(Tn[c] * (2.0 / 3.0), abs=1e-13)
    # vertex columns of vertex 0 collect both incident edges (lengths 1, 1)
    Tn_left = Tconst @ np.array([-1.0, 0.0])
    for c in range(2):
        val = cT @ pair.u_hat[0][:, c]
        assert val == pytest.approx((Tn[c] + Tn_left[c]) / 2.0, abs=1e-13)


def ref_hats():
    return [
        lambda x, y: 1.0 - x - y,
        lambda x, y: x,
        lambda x, y: y,
    ]


def eval_sym_test(coords, cT, pts, basis):
    """T(x) and div T(x) for a coefficient vector over (dim, frames)."""
    _, _, Jinv = triangle_geometry(coords)
    vals = basis.eval(pts)
    grads = map_gradients(basis.grad(pts), Jinv)
    c = cT.reshape(basis.dim, 3)
    T = np.einsum("qi,if,fab->qab", vals, c, FRAMES_SYM)
    gx, gy = grads[..., 0], grads[..., 1]
    divT = np.stack(
        [
            gx @ c[:, 0] + gy @ c[:, 1] / np.sqrt(2.0),
            gx @ c[:, 1] / np.sqrt(2.0) + gy @ c[:, 2],
        ],
        axis=-1,
    )
    return T, divT


@pytest.mark.parametrize("k", [0, 1])
def test_pair_u_hat_volume_form_oracle(k):
    # edge pairing equals (phi, div T) + (eps phi, T) for a conforming lift
    rng = np.random.default_rng(21)
    mesh = Mesh(
        np.array([[0.1, -0.2], [1.9, 0.3], [0.6, 1.4]]),
        np.array([[0, 1, 2]]),
    )
    coords = mesh.triangle_coords([0])[0]
    J, detJ, Jinv = triangle_geometry(coords)
    pair = edge_pairings(mesh, k)
    basis3 = triangle_basis(3)
    rule = triangle_rule(7)
    cT = rng.standard_normal(30)
    T, divT = eval_sym_test(coords, cT, rule.points, basis3)

    lam = ref_hats()
    lam_grad_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    x, y = rule.points[:, 0], rule.points[:, 1]
    w = rule.weights * detJ
    for m in range(3):
        phi = lam[m](x, y)
        gphi = Jinv.T @ lam_grad_ref[m]
        for c in range(2):
            eps = np.zeros((2, 2))
            eps[c] = gphi / 2.0
            eps = eps + eps.T
            vol = np.sum(w * (divT[:, c] * phi + np.einsum("qab,ab->q", T, eps)))
            assert cT @ pair.u_hat[0][:, 2 * m + c] == pytest.approx(vol, abs=1e-12)
    if k == 1:
        # quadratic bubble lift 4 lam_a lam_b for each edge
        for j in range(3):
            a, b = (j + 1) % 3, (j + 2) % 3
            phi = 4.0 * lam[a](x, y) * lam[b](x, y)
            gref = 4.0 * (
                lam[a](x, y)[:, None] * lam_grad_ref[b]
                + lam[b](x, y)[:, None] * lam_grad_ref[a]
            )
            gphi = gref @ Jinv
            for c in range(2):
                eps_qab = np.zeros((len(x), 2, 2))
                eps_qab[:, c, :] = gphi / 2.0
                eps_qab = eps_qab + eps_qab.transpose(0, 2, 1)
                vol = np.sum(
                    w * (divT[:, c] * phi + np.einsum("qab,qab->q", T, eps_qab))
                )
                assert cT @ pair.u_hat[0][:, 6 + 2 * j + c] == pytest.approx(
                    vol, abs=1e-12
                )


def test_pair_w_hat_constant_one():
    # w == 1 with zero gradients pairs to the volume integral of divdiv S,
    # which vanishes when div S is constant
    mesh = UNIT_TRI
    pair = edge_pairings(mesh, 0)
    coords = mesh.triangle_coords([0])[0]

    def S_linear(x, y):
        out = np.zeros(x.shape + (2, 2))
        out[..., 0, 0] = x  # div S = (1, 0), divdiv S = 0
        return out

    cS = project_sym_tensor(coords, S_linear, 4)
    wdofs = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert abs(cS @ pair.w_hat[0] @ wdofs) < 5e-12


def test_pair_w_hat_affine_telescopes():
    # global affine w against a constant S sums to zero over the mesh
    mesh = refine(initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0)), np.array([0]))
    pair = edge_pairings(mesh, 0)
    Sconst = np.array([[1.5, -0.4], [-0.4, 0.8]])
    a, b, c = 0.3, -1.1, 0.7
    total = 0.0
    for t in range(mesh.ntriangles):
        coords = mesh.triangle_coords([t])[0]
        cS = project_sym_tensor(
            coords, lambda x, y: np.broadcast_to(Sconst, x.shape + (2, 2)), 4
        )
        wd = np.empty(9)
        for m in range(3):
            vx, vy = coords[m]
            wd[3 * m : 3 * m + 3] = (a + b * vx + c * vy, b, c)
        total += cS @ pair.w_hat[t] @ wd
    assert abs(total) < 5e-12


def test_pair_w_hat_volume_form_oracle():
    # matches (z, divdiv S) - (eps grad z, S) for a global quadratic z
    rng = np.random.default_rng(33)
    mesh = Mesh(
        np.array([[0.0, 0.1], [1.4, -0.3], [0.5, 1.2]]),
        np.array([[0, 1, 2]]),
    )
    coords = mesh.triangle_coords([0])[0]
    J, detJ, Jinv = triangle_geometry(coords)
    pair = edge_pairings(mesh, 0)
    basis4 = triangle_basis(4)
    rule = triangle_rule(8)
    cS = rng.standard_normal(45)

    vals = basis4.eval(rule.points)
    hess = map_hessians(basis4.hess(rule.points), Jinv)
    c = cS.reshape(15, 3)
    S = np.einsum("qi,if,fab->qab", vals, c, FRAMES_SYM)
    ddS = (
        hess[:, :, 0, 0] @ c[:, 0]
        + np.sqrt(2.0) * hess[:, :, 0, 1] @ c[:, 1]
        + hess[:, :, 1, 1] @ c[:, 2]
    )

    def z(x, y):
        return 0.4 + 1.2 * x - 0.5 * y + 0.8 * x * x - 0.6 * x * y + 0.3 * y * y

    def gz(x, y):
        return np.stack([1.2 + 1.6 * x - 0.6 * y, -0.5 - 0.6 * x + 0.6 * y], axis=-1)

    hz = np.array([[1.6, -0.6], [-0.6, 0.6]])

    phys = map_points(coords, J, rule.points)
    x, y = phys[..., 0], phys[..., 1]
    w = rule.weights * detJ
    vol = np.sum(w * z(x, y) * ddS) - np.sum(w * np.einsum("ab,qab->q", hz, S))

    wd = np.empty(9)
    for m in range(3):
        vx, vy = coords[m]
        wd[3 * m] = z(vx, vy)
        wd[3 * m + 1 : 3 * m + 3] = gz(vx, vy)
    assert cS @ pair.w_hat[0] @ wd == pytest.approx(vol, abs=1e-12)


def test_pair_N_hat_constant_test():
    pair = edge_pairings(UNIT_TRI, 0)
    coords = UNIT_TRI.triangle_coords([0])[0]
    cv = project_vector(coords, lambda x, y: np.stack([np.full_like(x, 0.6), np.full_like(x, -0.9)], axis=-1), 3)
    lengths = [np.sqrt(2.0), 1.0, 1.0]
    for j in range(3):
        for c, vc in enumerate((0.6, -0.9)):
            val = cv @ pair.N_hat[0][:, 2 * j + c]
            assert val == pytest.approx(lengths[j] * vc, abs=1e-13)


def test_pair_M_hat_hand_values():
    pair = edge_pairings(UNIT_TRI, 0)
    coords = UNIT_TRI.triangle_coords([0])[0]
    # z == 1: q_hat column gives |E|, m_hat column 0
    c1 = project_scalar(coords, lambda x, y: np.ones_like(x), 3)
    lengths = [np.sqrt(2.0), 1.0, 1.0]
    for j in range(3):
        assert c1 @ pair.M_hat[0][:, 2 * j + 1] == pytest.approx(lengths[j], abs=1e-13)
        # c1 carries quadrature roundoff in its zero modes; the m_n column
        # has entries up to ~60, so zero is resolved to 1e-13 per unit
        col = pair.M_hat[0][:, 2 * j]
        assert abs(c1 @ col) < 1e-13 * max(1.0, np.abs(col).max())
    # z = x has zero normal derivative on the bottom edge (normal (0,-1))
    cx = project_scalar(coords, lambda x, y: x, 3)
    assert abs(cx @ pair.M_hat[0][:, 2 * 2]) < 1e-13
    # z = y: m_hat column on the bottom edge is -(dz/dn)|E| = +1
    cy = project_scalar(coords, lambda x, y: y, 3)
    assert cy @ pair.M_hat[0][:, 2 * 2] == pytest.approx(1.0, abs=1e-13)
    # twist columns are the endpoint terms -[t z]_a^b, a -> b counterclockwise:
    # z(a) at the start, -z(b) at the end
    for j in range(3):
        assert c1 @ pair.M_hat[0][:, 6 + 2 * j] == pytest.approx(1.0, abs=1e-13)
        assert c1 @ pair.M_hat[0][:, 7 + 2 * j] == pytest.approx(-1.0, abs=1e-13)
    # bottom edge (0,0) -> (1,0): z = x gives 0 and -1
    assert abs(cx @ pair.M_hat[0][:, 6 + 2 * 2]) < 1e-13
    assert cx @ pair.M_hat[0][:, 7 + 2 * 2] == pytest.approx(-1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# conformity orthogonality (master property)


def assemble_functional(mesh, k, test_v=None, test_z=None):
    """Global trace functional for a conforming test function: each
    element's pairings, signed into the global edge frames."""
    dm = TraceDofMap(mesh, k)
    pair = edge_pairings(mesh, k)
    su, sw, sn, sm = local_slices(k)
    F = np.zeros(dm.ntrace)
    scale = np.zeros(dm.ntrace)
    for t in range(mesh.ntriangles):
        coords = mesh.triangle_coords([t])[0]
        cols, sign = dm.element_columns[t], dm.element_signs[t]
        if test_v is not None:
            cv = project_vector(coords, test_v, 3)
            contrib = sign[sn] * (cv @ pair.N_hat[t])
            np.add.at(F, cols[sn], contrib)
            np.add.at(scale, cols[sn], np.abs(contrib))
        if test_z is not None:
            cz = project_scalar(coords, test_z, 3)
            contrib = sign[sm] * (cz @ pair.M_hat[t])
            np.add.at(F, cols[sm], contrib)
            np.add.at(scale, cols[sm], np.abs(contrib))
    return dm, F, scale


def refine_some(mesh, seed=1, rounds=2):
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        marked = rng.choice(mesh.ntriangles, size=max(1, mesh.ntriangles // 2), replace=False)
        mesh = refine(mesh, marked)
    return mesh


@pytest.mark.parametrize("k", [0, 1])
def test_N_hat_conformity_scordelis_lo(k):
    prob = make_benchmark("scordelis_lo")
    mesh = refine_some(initial_rectangle_mesh(prob.rect))

    def v(x, y):
        v1 = x * (1.0 + 0.03 * x + 0.02 * y + 0.001 * x * y)
        v2 = y * (25.0 - x) * (0.7 + 0.01 * x + 0.02 * y)
        return np.stack([v1, v2], axis=-1)

    dm, F, scale = assemble_functional(mesh, k, test_v=v)
    con = apply_bc(dm, prob)
    free = ~con
    tol = 1e-12 * max(scale.max(), 1.0)
    assert np.abs(F[free]).max() < tol


def test_N_hat_conformity_clamped_cylinder():
    prob = make_benchmark("cyl_clamped")
    mesh = refine_some(initial_rectangle_mesh(prob.rect))

    def v(x, y):
        v1 = 2.0 * (np.pi / 4.0 - y) * (1.0 - x * x)
        v2 = 1.3 * y * (1.0 - x * x)
        return np.stack([v1, v2], axis=-1)

    dm, F, scale = assemble_functional(mesh, 0, test_v=v)
    con = apply_bc(dm, prob)
    assert np.abs(F[~con]).max() < 1e-12 * max(scale.max(), 1.0)


def test_N_hat_conformity_hyperbolic():
    prob = make_benchmark("point_hyperbolic")
    mesh = refine_some(initial_rectangle_mesh(prob.rect))

    def v(x, y):
        v1 = (1.0 - x * x) * (0.5 + 0.3 * y)
        v2 = (1.0 - y * y) * (-0.2 + 0.4 * x)
        return np.stack([v1, v2], axis=-1)

    dm, F, scale = assemble_functional(mesh, 0, test_v=v)
    con = apply_bc(dm, prob)
    assert np.abs(F[~con]).max() < 1e-12 * max(scale.max(), 1.0)


def test_M_hat_conformity_free_cylinder():
    prob = make_benchmark("cyl_free")
    mesh = refine_some(initial_rectangle_mesh(prob.rect))

    def z(x, y):
        return (y * y - np.pi**2 / 16.0) * (0.8 + 0.5 * x)

    dm, F, scale = assemble_functional(mesh, 0, test_z=z)
    con = apply_bc(dm, prob)
    assert np.abs(F[~con]).max() < 1e-12 * max(scale.max(), 1.0)


def test_interior_conformity_any_cubic():
    # interior N_hat and M_hat dofs vanish for arbitrary global cubics
    mesh = refine_some(initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0)), seed=7)

    def v(x, y):
        return np.stack(
            [x**3 - 2 * x * y + 0.5 * y, 1.0 + x * y * y - 0.3 * x * x], axis=-1
        )

    def z(x, y):
        return 0.2 * x**3 - x * x * y + 2.0 * y - 1.0

    dm, F, scale = assemble_functional(mesh, 0, test_v=v, test_z=z)
    interior = np.ones(dm.ntrace, dtype=bool)
    for be in mesh.boundary_edges:
        interior[dm.off_Nhat + 2 * be : dm.off_Nhat + 2 * be + 2] = False
        interior[dm.off_Mhat + 2 * be : dm.off_Mhat + 2 * be + 2] = False
        interior[dm.off_twist + 2 * be : dm.off_twist + 2 * be + 2] = False
    interior[: dm.off_Nhat] = False
    assert np.abs(F[interior]).max() < 1e-12 * max(scale.max(), 1.0)


def test_twist_shift_at_a_vertex_pairs_to_zero():
    # twists pair only through their jumps around each corner (the corner
    # forces): one constant added to every twist at a vertex is invisible
    # to any broken test function, which is why each vertex has a gauge
    mesh = refine_some(initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0)), seed=3)
    dm = TraceDofMap(mesh, 0)
    pair = edge_pairings(mesh, 0)
    sm = local_slices(0)[3]
    rng = np.random.default_rng(4)
    ends = mesh.edges.ravel()
    for v in range(mesh.nvertices):
        shift = np.zeros(dm.ntrace)
        shift[dm.off_twist + np.nonzero(ends == v)[0]] = 1.0
        for t in range(mesh.ntriangles):
            cz = rng.standard_normal(10)
            cols = dm.element_columns[t, sm]
            assert abs(cz @ pair.M_hat[t] @ shift[cols]) < 1e-13
        # a single twist is not invisible
        slot = np.nonzero(ends == v)[0][0]
        single = np.zeros(dm.ntrace)
        single[dm.off_twist + slot] = 1.0
        t = np.nonzero((mesh.tri_edges == slot // 2).any(axis=1))[0][0]
        assert np.abs(pair.M_hat[t] @ single[dm.element_columns[t, sm]]).max() > 0.1


def test_pairings_depend_on_the_jacobian_only():
    # members of one Jacobian class whose edges run the other way along
    # the skeleton have the same trial-to-test matrix: the orientation
    # lives in TraceDofMap.element_signs alone
    prob = make_benchmark("scordelis_lo")
    mesh = refine_some(initial_rectangle_mesh(prob.rect), seed=5, rounds=3)
    cls, reps, _, parity = jacobian_classes(mesh)
    sign = mesh.tri_edge_sign
    flipped = np.any(sign != sign[reps[cls]], axis=1)
    assert flipped.sum() > 10
    assert np.any(flipped & (parity != parity[reps[cls]]))
    for k in (0, 1):
        Bm = element_b_batch(mesh, prob, k, np.arange(mesh.ntriangles))
        # a member of the other parity has -J: B(-J) = S_v B(J) diag(sigma_f, sigma_t)
        reflect = S_V[:, None] * np.r_[SIGMA_F, reflection_signs(k)]
        for c in np.unique(cls[flipped]):
            ref = Bm[reps[c]]
            members = np.nonzero(cls == c)[0]
            other = parity[members] != parity[reps[c]]
            expect = np.where(other[:, None, None], reflect * ref, ref)
            rel = np.abs(Bm[members] - expect).max() / np.abs(ref).max()
            assert rel <= 1e-13, (k, c, rel)


@pytest.mark.parametrize("k", [0, 1])
def test_stacked_batch_matches_element_by_element(k):
    # the batch builders carry the elements and the three local edges on
    # leading axes: each element's B and pairings must not depend on the
    # batch it is built in, to the last bit
    prob = make_benchmark("scordelis_lo")
    mesh = refine_some(initial_rectangle_mesh(prob.rect), seed=5, rounds=3)
    _, _, _, parity = jacobian_classes(mesh)
    sign = mesh.tri_edge_sign
    assert set(parity) == {-1, 1} and set(sign.ravel()) == {-1, 1}
    els = np.arange(mesh.ntriangles)
    Bm = element_b_batch(mesh, prob, k, els)
    pair = edge_pairings(mesh, k, els)
    for t in els:
        one = edge_pairings(mesh, k, [t])
        for got, want in [(Bm[t], element_b_batch(mesh, prob, k, [t])[0])] + [
                (getattr(pair, f)[t], getattr(one, f)[0])
                for f in ("u_hat", "w_hat", "N_hat", "M_hat")]:
            assert np.array_equal(got, want), t
