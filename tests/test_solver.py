"""Sparse SPD solver."""

import numpy as np
import pytest
import scipy.sparse

from shelldpg.assembly import assemble_normal_equations
from shelldpg.mesh import initial_rectangle_mesh, refine
from shelldpg.model import make_benchmark
from shelldpg.solver import SolverError, backward_error, solve_spd


def test_identity():
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(40)
    x = solve_spd(scipy.sparse.identity(40, format="csr"), rhs)
    assert np.allclose(x, rhs, atol=1e-14)


def test_dense_oracle_random_spd():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((50, 50))
    A = M.T @ M + np.eye(50)
    rhs = rng.standard_normal(50)
    x = solve_spd(scipy.sparse.csr_matrix(A), rhs)
    xd = np.linalg.solve(A, rhs)
    assert np.linalg.norm(x - xd) / np.linalg.norm(xd) < 1e-9


def test_zero_rhs():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((20, 20))
    A = scipy.sparse.csr_matrix(M.T @ M + np.eye(20))
    assert np.array_equal(solve_spd(A, np.zeros(20)), np.zeros(20))


def test_residual_tolerance_enforced():
    rng = np.random.default_rng(3)
    # ill-conditioned but solvable: graded diagonal
    d = 10.0 ** np.linspace(-8, 8, 200)
    A = scipy.sparse.diags(d).tocsr()
    rhs = rng.standard_normal(200)
    x = solve_spd(A, rhs, tol=1e-12)
    assert np.linalg.norm(A @ x - rhs) / np.linalg.norm(rhs) <= 1e-12


def test_backward_error_is_taken_on_the_equilibrated_system():
    # A = D C D with C well conditioned and D from 1e-8 to 1e8; the
    # candidate solution is 10% wrong in every unknown of small scale
    rng = np.random.default_rng(6)
    n = 40
    M = rng.standard_normal((n, n))
    C = M @ M.T / n + np.eye(n)
    dscale = 10.0 ** np.linspace(-8.0, 8.0, n)
    A = scipy.sparse.csr_matrix(C * dscale[:, None] * dscale[None, :])
    x_true = rng.standard_normal(n) / dscale
    rhs = A @ x_true
    x_bad = x_true.copy()
    x_bad[: n // 2] *= 1.1

    # the raw normwise test, with ||A||_F of the unscaled A, accepts it
    raw = np.linalg.norm(A @ x_bad - rhs) / (
        np.linalg.norm(rhs) + scipy.sparse.linalg.norm(A) * np.linalg.norm(x_bad))
    assert raw <= 1e-10
    s = 1.0 / np.sqrt(A.diagonal())
    As = scipy.sparse.diags(s) @ A @ scipy.sparse.diags(s)
    assert backward_error(As, s * rhs, x_bad / s) > 1e-3
    x = solve_spd(A, rhs)
    assert backward_error(As, s * rhs, x / s) <= 1e-10
    assert np.abs(x * dscale - x_true * dscale).max() < 1e-8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_spd_detected():
    A = scipy.sparse.diags([1.0, -1.0, 2.0]).tocsr()
    with pytest.raises(SolverError):
        solve_spd(A, np.ones(3))
    # positive diagonal but singular: rank-1 matrix
    sing = scipy.sparse.csr_matrix(np.outer([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]))
    with pytest.raises(SolverError, match=r"factorization broke down.*\(n=3\)"):
        solve_spd(sing, np.array([1.0, -1.0, 0.5]))


def test_deterministic():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((60, 60))
    A = scipy.sparse.csr_matrix(M.T @ M + np.eye(60))
    rhs = rng.standard_normal(60)
    assert np.array_equal(solve_spd(A, rhs), solve_spd(A, rhs))


def permuted_solve(A, rhs, seed):
    """solve_spd on the system with its dofs renumbered at random.

    Minimum degree breaks ties by dof number, so the renumbered system
    is factored in another elimination order.  Returns the solution in
    the original numbering.
    """
    n = A.shape[0]
    perm = np.random.default_rng(seed).permutation(n)
    P = scipy.sparse.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    return P.T @ solve_spd(P @ A @ P.T, P @ rhs)


def test_dof_reorder_invariance():
    mesh = refine(initial_rectangle_mesh((-1.0, 1.0, 0.0, np.pi / 4.0)),
                  np.arange(4))
    prob = make_benchmark("cyl_clamped")
    neq = assemble_normal_equations(mesh, prob, 0)
    x = solve_spd(neq.A, neq.rhs)
    x_back = permuted_solve(neq.A, neq.rhs, 5)

    fields = neq.fields(x)
    fields_back = neq.fields(x_back)
    rel = np.abs(fields - fields_back).max() / np.abs(fields).max()
    assert rel < 1e-8


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
    x = solve_spd(neq.A, neq.rhs, tol)
    x_p = permuted_solve(neq.A, neq.rhs, 18)
    got, want = neq.fields(x_p), neq.fields(x)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    s = 1.0 / np.sqrt(neq.A.diagonal())
    As = scipy.sparse.diags(s) @ neq.A @ scipy.sparse.diags(s)
    for xi in (x_p, x):
        assert backward_error(As, s * neq.rhs, xi / s) <= tol
