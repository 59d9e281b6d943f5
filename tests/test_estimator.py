"""Residual estimator algebra and the adaptive loop."""

import numpy as np
import pytest
import scipy.linalg

from helpers import element_b, element_gram, element_load
from shelldpg import assembly as asm
from shelldpg import estimator
from shelldpg.estimator import AdaptiveConfig, adaptive_loop
from shelldpg.mesh import Mesh, initial_rectangle_mesh, refine
from shelldpg.model import ShellProblem, make_benchmark
from shelldpg.solver import solve

CLAMP_ALL = {s: ("u1", "u2", "w", "dnw") for s in ("xmin", "xmax", "ymin", "ymax")}


def two_element_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Mesh(verts, np.array([[0, 1, 2], [0, 2, 3]]), rect=(0.0, 1.0, 0.0, 1.0))


def loaded_problem():
    return ShellProblem(
        rect=(0.0, 1.0, 0.0, 1.0), B=[[0.0, 0.1], [0.1, 0.8]], d=0.05,
        f=lambda x, y: np.cos(2.0 * y) + x,
        p=lambda x, y: np.stack([np.sin(x + y), 0.2 * np.ones_like(x)], axis=-1),
        bc=CLAMP_ALL,
    )


def zero_data_problem():
    return ShellProblem(rect=(0.0, 1.0, 0.0, 1.0), B=[[0.0, 0.0], [0.0, 1.0]],
                        d=1e-2, f=None, p=None, bc=CLAMP_ALL)


def test_zero_data_zero_eta():
    mesh = refine(initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0)), np.arange(4))
    neq = asm.assemble_normal_equations(mesh, zero_data_problem(), 0)
    x, etas = solve(neq)
    assert np.abs(x).max() == 0.0
    assert np.abs(etas).max() == 0.0


def test_zero_estimator_stops_the_loop():
    # nothing is marked, so refining would solve the same mesh again
    mesh = refine(initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0)), np.arange(4))
    run = adaptive_loop(zero_data_problem(), AdaptiveConfig(k=0, max_levels=5),
                        initial_mesh=mesh)
    assert len(run.levels) == 1
    assert run.levels[0].eta == 0.0 and run.levels[0].marked is None


def test_refinement_without_new_dofs_names_the_level(monkeypatch):
    monkeypatch.setattr(estimator, "refine", lambda mesh, marked: mesh)
    with pytest.raises(RuntimeError, match=r"^level 1: refinement left \d+ dofs"):
        adaptive_loop(loaded_problem(), AdaptiveConfig(k=0, max_levels=3),
                      initial_mesh=two_element_mesh())


def test_rayleigh_quotient_oracle():
    # eta(T)^2 equals the sup of |r(v)|^2 / |v|_G^2 over the discrete
    # test space, i.e. the top generalized eigenvalue of (r r', G)
    mesh = two_element_mesh()
    prob = loaded_problem()
    neq = asm.assemble_normal_equations(mesh, prob, 0)
    x, etas = solve(neq)
    full = neq.expand(x)
    fields = neq.fields(x)
    for t in range(2):
        G = element_gram(mesh, prob, t)
        Bm = element_b(mesh, prob, 0, t)
        l = element_load(mesh, prob, t)
        # the trial vector holds the recovered fields and the traces in
        # the element's own frame
        sign = neq.dofmap.element_signs[t]
        r = l - Bm @ np.r_[fields[t], sign * full[neq.elements.cols[t]]]
        lam = scipy.linalg.eigh(np.outer(r, r), G, eigvals_only=True)
        assert lam.max() >= 0.0
        assert np.isclose(etas[t] ** 2, lam.max(), rtol=1e-8, atol=1e-16)


def test_perturbation_parabola():
    # Schur-complement property: with the fields re-optimized locally,
    # eta^2 is a parabola in any single trace dof with curvature
    # A_T[j, j] > 0 of the condensed element matrix
    mesh = two_element_mesh()
    prob = loaded_problem()
    neq = asm.assemble_normal_equations(mesh, prob, 0)
    x, _ = solve(neq)
    u0 = neq.expand(x)[neq.elements.cols]
    t = 1
    free = np.nonzero(neq.index_map[neq.elements.cols[t]] >= 0)[0]
    j = free[len(free) // 2]
    A_t = neq.elements.matrices([t])[0]
    assert A_t[j, j] > 0.0
    eps = np.linspace(-0.5, 0.5, 7)
    vals = []
    for e in eps:
        u = u0.copy()
        u[t, j] += e
        vals.append(np.sum(neq.elements.residuals(u)[t] ** 2))
    coef = np.polyfit(eps, vals, 2)
    assert coef[0] > 0.0
    assert np.isclose(coef[0], A_t[j, j], rtol=1e-6)


def test_galerkin_orthogonality():
    # B' G^-1 (l - B u_h) vanishes on the free dofs; via the condensed
    # records this is P_T' W^c' r_T scattered over the mesh
    mesh = refine(initial_rectangle_mesh((-1.0, 1.0, 0.0, np.pi / 4)),
                  np.arange(4))
    prob = make_benchmark("cyl_clamped")
    neq = asm.assemble_normal_equations(mesh, prob, 0)
    x, _ = solve(neq, tol=1e-12)
    g, _ = neq.residual(x)
    assert np.abs(g).max() <= 1e-10 * max(np.abs(neq.rhs).max(), 1.0)


def test_adaptive_levels_match_fresh_assembly():
    # every level assembled from the previous level's class kernels
    # against a fresh assembly and solve of the same mesh; measured: eta
    # within 3e-16, element estimators and fields within 3e-14.  Both
    # solve the least-squares problem of their element data, which agree
    # up to the rounding between the members of a class
    prob = make_benchmark("cyl_free", d=1e-3)
    cfg = AdaptiveConfig(max_levels=4)
    run = adaptive_loop(prob, cfg)
    assert len(run.levels) == 5
    for rec in run.levels:
        neq = asm.assemble_normal_equations(rec.mesh, prob, cfg.k)
        x, etas = solve(neq, cfg.tol)
        eta = np.sqrt(np.sum(etas**2))
        fields = neq.fields(x)
        assert rec.ndof == neq.ndof
        assert abs(rec.eta - eta) <= 1e-12 * eta, rec.level
        assert np.abs(rec.etas - etas).max() <= 1e-12 * etas.max(), rec.level
        assert np.abs(rec.fields - fields).max() <= 1e-12 * np.abs(fields).max()


def test_budget_zero_single_solve():
    prob = make_benchmark("cyl_clamped")
    run = adaptive_loop(prob, AdaptiveConfig(max_levels=0))
    assert len(run.levels) == 1
    assert run.levels[0].marked is None
    assert run.levels[0].fields.shape == (4, 10)


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(k=2)
    with pytest.raises(ValueError):
        AdaptiveConfig(theta=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(mode="bisect")
    with pytest.raises(ValueError, match="tol"):
        AdaptiveConfig(tol=0.0)


def test_uniform_eta_decreases_clamped_cylinder():
    prob = make_benchmark("cyl_clamped")
    run = adaptive_loop(prob, AdaptiveConfig(mode="uniform", max_levels=4))
    etas = np.array([rec.eta for rec in run.levels])
    ndofs = np.array([rec.ndof for rec in run.levels])
    assert len(run.levels) == 5
    assert np.all(np.diff(etas) < 0.0)
    assert np.all(np.diff(ndofs) > 0)
    # pre-asymptotic slope sanity; the pinned rate check runs on the
    # larger acceptance meshes
    slope = np.polyfit(np.log(ndofs[-3:]), np.log(etas[-3:]), 1)[0]
    assert -0.9 < slope < -0.2, slope


def test_adaptive_marks_follow_estimator():
    prob = make_benchmark("cyl_sliding", d=1e-3)
    run = adaptive_loop(prob, AdaptiveConfig(theta=0.25, max_levels=3))
    for rec in run.levels[:-1]:
        assert rec.marked is not None
        # every marked element carries at least the largest unmarked eta
        unmarked = np.setdiff1d(np.arange(rec.nelems), rec.marked)
        if len(unmarked) and len(rec.marked):
            assert rec.etas[rec.marked].min() >= rec.etas[unmarked].max() - 1e-12


def test_sliding_support_marks_boundary_layers():
    # thin sliding cylinder develops layers at x = +-1; late marking
    # rounds concentrate there
    prob = make_benchmark("cyl_sliding", d=1e-3)
    run = adaptive_loop(prob, AdaptiveConfig(theta=0.25, max_levels=8))
    for rec in run.levels[:-1]:
        if rec.level <= 4:
            continue
        tris = rec.mesh.triangles[rec.marked]
        touch = np.abs(rec.mesh.vertices[tris, 0]).max(axis=1) > 0.8
        assert touch.mean() > 0.5, (rec.level, touch.mean())


def test_dof_budget_stops():
    prob = make_benchmark("cyl_clamped")
    run = adaptive_loop(prob, AdaptiveConfig(mode="uniform", max_dofs=2000,
                                             max_levels=25))
    assert run.levels[-1].ndof >= 2000
    assert run.levels[-2].ndof < 2000
