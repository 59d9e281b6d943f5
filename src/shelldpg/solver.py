"""Sparse SPD solve for the assembled normal equations.

One symmetric, diagonally pivoted SuperLU factorization of the
symmetrically equilibrated matrix, with iterative refinement that
reuses the factorization and forms residuals in extended precision.
Moments and forces live on very different scales, so the equilibration
is not optional at small thickness.

The fill-reducing ordering is SuperLU's multiple minimum degree on the
pattern of A + A' (Liu, ACM TOMS 1985), run inside the factorization.
It is the only ordering.  On the adaptive levels of 21k-53k unknowns
it factors faster than a geometric nested dissection; on uniform meshes
of 45k-57k unknowns it is slower (`BENCH_orderings.json`).
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


class SolverError(Exception):
    pass


def backward_error(As, b, y):
    """Normwise backward error of y as a solution of As y = b.

    ||As y - b|| / (||b|| + ||As||_F ||y||).  Evaluated on the
    equilibrated system, where every diagonal entry is 1; on the raw
    normal equations ||A||_F is set by the few largest entries and the
    ratio stays tiny however wrong the small-scale unknowns are.
    """
    scale = float(np.linalg.norm(b)) + scipy.sparse.linalg.norm(As) * float(
        np.linalg.norm(y))
    return float(np.linalg.norm(b - As @ y)) / scale if scale > 0.0 else 0.0


def _splu(M):
    """Symmetric-mode SuperLU of an SPD matrix: diagonal pivots only.

    Ordered by minimum degree on the pattern of M + M'.
    """
    return scipy.sparse.linalg.splu(
        M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True})


def _as_csc(M):
    """The CSR arrays of a symmetric matrix read as CSC: M' = M, no copy.

    The equilibrated matrix is symmetric up to the rounding of its
    scaling, which the refinement against the CSR matrix removes.
    """
    return scipy.sparse.csc_matrix((M.data, M.indices, M.indptr), shape=M.shape)


def _refined_solve(As, b, lu_solve):
    """LU solve of As y = b, refined with extended-precision residuals.

    The equilibrated normal equations have condition numbers that grow
    like h^-4 (1.5e8 at 256 elements of `cyl_clamped`, 2,816 trace dofs,
    about 17x per uniform refinement; condensing the fields out left it
    unchanged), so one LU solve in double precision is accurate to
    kappa * eps only, and refinement with double-precision residuals
    cannot improve on that.  Residuals in long
    double (64-bit mantissa on x86-64) gain a factor of about
    kappa * eps per step, down to the rounding of y; where long double is
    plain double this is ordinary refinement.
    """
    y = lu_solve(b)
    if not np.all(np.isfinite(y)):
        return y
    Al = scipy.sparse.csr_matrix(
        (As.data.astype(np.longdouble), As.indices, As.indptr), shape=As.shape)
    bl = b.astype(np.longdouble)
    eps = np.finfo(float).eps
    last = np.inf
    for _ in range(3):
        dy = lu_solve((bl - Al @ y).astype(float))
        y = y + dy
        change = float(np.abs(dy).max())
        if change <= 4.0 * eps * float(np.abs(y).max()) or change > 0.5 * last:
            break
        last = change
    return y


def solve_spd(A, rhs, tol=1e-10):
    """Solve A x = rhs for sparse SPD A.

    With s = diag(A)^-1/2, As = S A S and x = S y, accepts y once its
    `backward_error` on As y = S rhs is at most tol.  For well-scaled
    systems this is the familiar relative-residual test; when the
    solution is much larger than the data it remains attainable in
    double precision.
    """
    A = scipy.sparse.csr_matrix(A)
    rhs = np.asarray(rhs, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or rhs.shape != (n,):
        raise SolverError(f"shape mismatch: A {A.shape}, rhs {rhs.shape}")
    if n == 0:
        return np.zeros(0)
    if float(np.linalg.norm(rhs)) == 0.0:
        return np.zeros(n)

    diag = A.diagonal()
    if np.any(diag <= 0.0):
        bad = int(np.argmin(diag))
        raise SolverError(f"diagonal entry {diag[bad]:.3e} at dof {bad}: not SPD")
    s = 1.0 / np.sqrt(diag)
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    As = scipy.sparse.csr_matrix(
        (A.data * s[rows] * s[A.indices], A.indices, A.indptr), shape=A.shape)
    b = s * rhs

    try:
        lu_solve = _splu(_as_csc(As)).solve
    except RuntimeError as exc:
        raise SolverError(f"LU factorization broke down: {exc} (n={n})") from None
    y = _refined_solve(As, b, lu_solve)
    err = backward_error(As, b, y) if np.all(np.isfinite(y)) else np.inf
    if err > tol:
        raise SolverError(
            f"equilibrated backward error {err:.3e} exceeds tol {tol:.1e} (n={n})"
        )
    return s * y
