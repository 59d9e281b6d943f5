"""Least-squares solve of the normal equations."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from shelldpg import solver
from shelldpg.assembly import assemble_normal_equations
from shelldpg.mesh import initial_rectangle_mesh, refine
from shelldpg.model import make_benchmark
from shelldpg.solver import SolverError, solve


def small_system(kind="cyl_clamped", **overrides):
    mesh = refine(initial_rectangle_mesh((-1.0, 1.0, 0.0, np.pi / 4.0)),
                  np.arange(4))
    return assemble_normal_equations(mesh, make_benchmark(kind, **overrides), 0)


def test_zero_rhs(monkeypatch):
    # zero data: the solution is zero, found without a factorization
    neq = small_system(f=None)
    monkeypatch.setattr(solver, "_splu", None)
    x, etas = solve(neq)
    assert np.array_equal(x, np.zeros(neq.A.shape[0]))
    assert np.array_equal(etas, np.zeros(len(neq.elements.cls)))


def test_residual_tolerance_enforced():
    neq = small_system()
    solve(neq, tol=1e-12)
    # the measure reads 6e-18 here and 7e-19 to 1.3e-18 on uniform meshes
    # of 1,024 elements: no solve reaches 1e-30
    with pytest.raises(SolverError, match=rf"exceeds tol.*\(n={neq.A.shape[0]}\)"):
        solve(neq, tol=1e-30)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_spd_detected():
    neq = small_system()
    n = len(neq.s)
    # s = diag(A)^-1/2 of a negative and of a zero diagonal entry
    for diag, shown in ((-1.0, "nan"), (0.0, "0.000e\\+00")):
        not_spd = dataclasses.replace(
            neq, As=scipy.sparse.identity(n, format="csr"),
            s=1.0 / np.sqrt(np.r_[1.0, diag, np.ones(n - 2)]))
        with pytest.raises(SolverError,
                           match=rf"entry {shown} at dof 1: not SPD \(n={n}\)"):
            solve(not_spd)
    # positive diagonal but singular: a 2 x 2 block of ones
    sing = scipy.sparse.identity(n, format="lil")
    sing[0, 1] = sing[1, 0] = 1.0
    singular = dataclasses.replace(neq, As=sing.tocsr(), s=np.ones(n))
    with pytest.raises(SolverError, match=rf"factorization broke down.*\(n={n}\)"):
        solve(singular)


def test_diverging_refinement_refused(monkeypatch):
    # factors of 0.4 S A S: the first solve overshoots by 1.5 times the
    # solution and the correction step multiplies the error by -1.5, so
    # the step raises |r|.  The loose tol lets the backward error pass:
    # only the residual guard stands between the worse iterate and the
    # caller
    neq = small_system()
    splu = solver._splu
    monkeypatch.setattr(solver, "_splu", lambda M: splu(0.4 * M))
    with pytest.raises(SolverError,
                       match=rf"raised the residual norm.*\(n={neq.A.shape[0]}\)"):
        solve(neq, tol=1.0)


def test_deterministic():
    neq = small_system("cyl_free", d=1e-3)
    (x, etas), (x2, etas2) = solve(neq), solve(neq)
    assert np.array_equal(x, x2) and np.array_equal(etas, etas2)


def permuted_solve(neq, seed):
    """`solve` on the system with its dofs renumbered at random.

    The factorization keeps the order it is given, so the renumbered
    system is factored in that random elimination order.  Returns the
    solution in the original numbering.
    """
    n = len(neq.s)
    perm = np.random.default_rng(seed).permutation(n)
    P = scipy.sparse.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    new = np.empty(n, dtype=int)
    new[perm] = np.arange(n)
    index_map = np.where(neq.index_map >= 0, new[neq.index_map], -1)
    renumbered = dataclasses.replace(neq, As=(P @ neq.As @ P.T).tocsr(), s=P @ neq.s,
                                     rhs=P @ neq.rhs, index_map=index_map)
    return P.T @ solve(renumbered)[0]


def test_dof_reorder_invariance():
    neq = small_system()
    x, _ = solve(neq)
    x_back = permuted_solve(neq, 5)

    fields = neq.fields(x)
    fields_back = neq.fields(x_back)
    rel = np.abs(fields - fields_back).max() / np.abs(fields).max()
    assert rel < 1e-8


def least_squares_backward_error(neq, x):
    """|S g| / (|W S| (|W S| |y| + |r|)) of `solve`, with |W S|^2 bounded
    by |S A S|_F."""
    s = neq.s
    norm_w = np.sqrt(scipy.sparse.linalg.norm(neq.As))
    g, r = neq.residual(x)
    return np.linalg.norm(s * g) / (
        norm_w * (norm_w * np.linalg.norm(x / s) + np.linalg.norm(r)))


def test_orderings_agree_on_thin_free_cylinder():
    # the conditioning of the thin free cylinder (d = 1e-3) on an
    # NVB-adapted mesh, as in the benchmark: two elimination orders of
    # the diagonally pivoted factorization give the same fields and
    # meet tol
    prob = make_benchmark("cyl_free", d=1e-3)
    mesh = initial_rectangle_mesh(prob.rect)
    rng = np.random.default_rng(17)
    for _ in range(2):
        mesh = refine(mesh, rng.choice(mesh.ntriangles, 4, replace=False))
    neq = assemble_normal_equations(mesh, prob, 0)
    tol = 1e-10
    x, _ = solve(neq, tol)
    x_p = permuted_solve(neq, 18)
    got, want = neq.fields(x_p), neq.fields(x)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    for xi in (x_p, x):
        assert least_squares_backward_error(neq, xi) <= tol


def least_squares_oracle(neq, steps=4):
    """Least-squares solution for the stored W^c and y^c, refined with
    long-double residuals of the stacked element operator.

    The normal matrix S A S only preconditions the steps, so its rounding
    does not reach the limit (x86-64: 64-bit mantissa).  It arrives in a
    fill-reducing elimination order, and its LU keeps that order: a
    minimum degree ordering started from it takes longer than the
    factorization.
    """
    el = neq.elements
    nel = len(el.y)
    m = el.y.shape[1]
    WP = el.W[el.cls] * el.sign[:, None, :]
    gcols = np.broadcast_to(neq.index_map[el.cols][:, None, :], WP.shape)
    keep = gcols >= 0
    s = neq.s
    n = len(s)
    indptr = np.r_[0, np.cumsum(keep.sum(axis=2).ravel())]
    W = scipy.sparse.csr_matrix(
        (WP[keep].astype(np.longdouble), gcols[keep], indptr), shape=(nel * m, n))
    y = el.y.ravel().astype(np.longdouble)
    lu = scipy.sparse.linalg.splu(neq.As.tocsc(), permc_spec="NATURAL",
                                  diag_pivot_thresh=0.0,
                                  options={"SymmetricMode": True})
    x = s * lu.solve(s * neq.rhs)
    for _ in range(steps):
        g = W.T @ (y - W @ x.astype(np.longdouble))
        x = x + s * lu.solve(s * g.astype(float))
    return x


@pytest.mark.parametrize("kind, k", [("cyl_clamped", 0), ("scordelis_lo", 1)])
def test_solve_matches_least_squares_oracle(kind, k):
    # refined against long-double residuals of A itself, the solve of
    # the rounded normal equations measured 1.8e-9 (cyl_clamped) and
    # 1.5e-8 (scordelis_lo) here; with one correction step against the
    # element residuals 4.1e-15 and 1.9e-14 (2.6e-15 and 2.0e-15 after a
    # second step)
    prob = make_benchmark(kind, d=1e-2)
    mesh = initial_rectangle_mesh(prob.rect)
    while mesh.ntriangles < 1024:
        mesh = refine(mesh, np.arange(mesh.ntriangles))
    neq = assemble_normal_equations(mesh, prob, k)
    x, etas = solve(neq)
    got, want = neq.fields(x), neq.fields(least_squares_oracle(neq))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(etas, np.linalg.norm(neq.residual(x)[1], axis=1))
