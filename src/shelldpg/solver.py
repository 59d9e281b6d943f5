"""Sparse SPD solve for the assembled normal equations.

Direct sparse LU on the symmetrically equilibrated matrix, with
iterative refinement that reuses the factorization and forms residuals
in extended precision, and a CG fallback on the equilibrated matrix
(Jacobi-preconditioned CG on the raw one).  Moments and
forces live on very different scales, so the equilibration is not
optional at small thickness.

When dof coordinates are available the matrix is pre-ordered by
geometric nested dissection; on the skeleton trace graphs produced by
the assembly this cuts the LU fill (and factorization time) by an
order of magnitude compared to SuperLU's built-in orderings.
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


def nested_dissection(A, xy, leaf=200):
    """Fill-reducing permutation from recursive coordinate bisection.

    Splits the dofs at the median of their widest coordinate, orders the
    vertex separator (left-side dofs with a right-side neighbor in the
    graph of A) last, and recurses.  Returns an index array `perm` such
    that A[perm][:, perm] is factored with little fill.
    """
    A = scipy.sparse.csr_matrix(A)
    n = A.shape[0]
    xy = np.asarray(xy, dtype=float)
    if xy.shape != (n, 2):
        raise SolverError(f"coords shape {xy.shape} does not match n={n}")
    pattern = scipy.sparse.csr_matrix(
        (np.ones(A.nnz, dtype=np.int32), A.indices, A.indptr), shape=A.shape)
    side = np.zeros(n, dtype=np.int32)

    order = []
    stack = [("split", np.arange(n))]
    while stack:
        action, idx = stack.pop()
        if action == "emit":
            order.append(idx)
            continue
        if idx.size <= leaf:
            order.append(idx)
            continue
        pts = xy[idx]
        axis = int(np.argmax(np.ptp(pts, axis=0)))
        mask = pts[:, axis] <= np.median(pts[:, axis])
        if mask.all() or not mask.any():
            order.append(idx)
            continue
        left, right = idx[mask], idx[~mask]
        side[right] = 1
        touches = pattern[left] @ side
        side[right] = 0
        sep = left[touches > 0]
        interior = left[touches == 0]
        if interior.size == 0 or sep.size > 0.4 * idx.size:
            order.append(idx)
            continue
        stack.append(("emit", sep))
        stack.append(("split", right))
        stack.append(("split", interior))
    return np.concatenate(order)


def _factor(As, xy):
    """LU of the equilibrated matrix; returns a solve(r) -> dx closure."""
    # ordering only pays off once the matrix clears a few leaf blocks
    if xy is not None and As.shape[0] > 800:
        perm = nested_dissection(As, xy)
        lu = scipy.sparse.linalg.splu(
            As[perm][:, perm].tocsc(), permc_spec="NATURAL",
            diag_pivot_thresh=0.0, options={"SymmetricMode": True})

        def solve(r):
            out = np.empty_like(r)
            out[perm] = lu.solve(r[perm])
            return out

        return solve
    lu = scipy.sparse.linalg.splu(As.tocsc(), permc_spec="COLAMD")
    return lu.solve


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
    Al = As.astype(np.longdouble)
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


def solve_spd(A, rhs, tol=1e-10, coords=None):
    """Solve A x = rhs for sparse SPD A.

    With s = diag(A)^-1/2, As = S A S and x = S y, accepts y once its
    `backward_error` on As y = S rhs is at most tol.  For well-scaled
    systems this is the familiar relative-residual test; when the
    solution is much larger than the data it remains attainable in
    double precision.

    `coords` are optional dof locations, shape (n, 2), used for the
    nested-dissection ordering.
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
    S = scipy.sparse.diags(s)
    As = (S @ A @ S).tocsr()
    b = s * rhs

    try:
        y = _refined_solve(As, b, _factor(As, coords))
    except RuntimeError:
        y = None

    if y is None or not np.all(np.isfinite(y)) or backward_error(As, b, y) > tol:
        y_cg, info = scipy.sparse.linalg.cg(
            As, b, x0=None, rtol=0.1 * tol, atol=0.0,
            maxiter=min(50 * n, 10000),
        )
        if info == 0 and np.all(np.isfinite(y_cg)):
            y = y_cg

    if y is None or not np.all(np.isfinite(y)):
        raise SolverError("factorization and CG fallback both broke down")
    err = backward_error(As, b, y)
    if err > tol:
        raise SolverError(
            f"equilibrated backward error {err:.3e} exceeds tol {tol:.1e} (n={n})"
        )
    return s * y
