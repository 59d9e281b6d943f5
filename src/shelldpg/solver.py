"""Least-squares solve of the assembled DPG normal equations.

The trace system A x = rhs (`NormalEquations`) holds the normal
equations of min sum_T |y^c_T - W^c_J P_T u_T|^2 over the free traces
(`ElementSystems`).  Forming A in double precision perturbs its solution
by about kappa(A) eps, and kappa(A) grows like h^-4.  So A is factored
once, and the solution is corrected once against the element residuals,
never against A: the corrected seminormal equations (CSNE), one
correction step as in the analysis of Bjorck ("Stability analysis of
the method of seminormal equations for linear least squares problems",
Linear Algebra Appl. 88/89, 1987).  With S = diag(A)^-1/2, the step is,
in double precision (`NormalEquations.residual`),

    x <- x + S (S A S)^-1 S g,  g = sum_T P_T' W^c' r_T,
    r_T = y^c_T - W^c_J P_T u_T,

and the |r_T| of the returned x are the element estimators.  Moments
and forces live on very different scales, so the equilibration is not
optional at small thickness.  The Jacobi scaling S is near-optimal among
diagonal scalings of an SPD matrix (van der Sluis, Numer. Math. 1969),
and it is known before A is: the assembly fills S A S directly
(`NormalEquations.As`), and `solve` factors it as it is handed over.  A
second step changes no benchmark level's marks and its total estimator
by less than 1e-15 relative, and where the factors are too inexact for
the step to contract, more steps diverge: `solve` refuses a step that
raises the residual norm.

The fill-reducing order lives in the numbering of the free traces
(`assembly._trace_pattern`): SuperLU's multiple minimum degree (Liu, ACM
TOMS 1985) on the mesh's vertex graph, each edge eliminated together with
its first-eliminated end, a compressed graph of A in the sense of
Ashcraft (SIAM J. Sci. Comput. 1995).  The factorization keeps that
order.  It is the only ordering.  Against minimum degree on the pattern
of A itself it leaves 0.87-1.02 times the LU fill, and with the ordering
call it factors in 0.18-0.82 of the time (`BENCH_orderings.json`).
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


class SolverError(Exception):
    pass


def _splu(M):
    """Symmetric-mode SuperLU of an SPD matrix: diagonal pivots only.

    Eliminates in the order M is given (up to SuperLU's postorder of the
    elimination tree), which for A is the fill-reducing order of the
    free-trace numbering.
    """
    return scipy.sparse.linalg.splu(
        M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True})


def solve(neq, tol=1e-10):
    """(x, etas): the least-squares solution of `neq` and etas[T] = |r_T|.

    One correction step follows the solve with the factors of S A S,
    unless y = S^-1 x is not finite.  x is refused if its residual norm
    |r| exceeds that of the first solve by more than 1e-8 relative: the
    step diverged.  Otherwise it is accepted once the least-squares
    backward error of the equilibrated problem,

        |S g| / (|W S| (|W S| |y| + |r|)),  |W S|^2 <= |S A S|_F,

    is at most tol, W being the stacked W^c_J P_T and r all the r_T.
    A scale s that is not finite and positive, from a diagonal entry of
    A <= 0, is refused before the factorization.
    """
    As, s, rhs = neq.As, neq.s, neq.rhs
    n = len(s)
    if float(np.linalg.norm(rhs)) == 0.0:
        x = np.zeros(n)
        return x, np.linalg.norm(neq.residual(x)[1], axis=1)

    ok = np.isfinite(s) & (s > 0.0)
    if not ok.all():
        bad = int(np.argmin(ok))
        with np.errstate(divide="ignore"):
            diag = s[bad] ** -2.0
        raise SolverError(
            f"diagonal entry {diag:.3e} at dof {bad}: not SPD (n={n})")
    # As read as CSC is As', equal to As up to the rounding of the scaling,
    # which the step against the element residuals does not see
    try:
        lu_solve = _splu(scipy.sparse.csc_matrix(
            (As.data, As.indices, As.indptr), shape=As.shape)).solve
    except RuntimeError as exc:
        raise SolverError(f"LU factorization broke down: {exc} (n={n})") from None

    y = lu_solve(s * rhs)
    g, r = neq.residual(s * y)
    r_first = float(np.linalg.norm(r))
    if np.all(np.isfinite(y)):
        y = y + lu_solve(s * g)
        g, r = neq.residual(s * y)

    etas = np.linalg.norm(r, axis=1)
    r_last = float(np.linalg.norm(etas))
    if r_last > (1.0 + 1e-8) * r_first:
        raise SolverError(f"refinement raised the residual norm from {r_first:.6e} "
                          f"to {r_last:.6e} (n={n})")
    norm_w = np.sqrt(np.linalg.norm(As.data))
    err = float(np.linalg.norm(s * g)) / (
        norm_w * (norm_w * float(np.linalg.norm(y)) + r_last))
    if not err <= tol:
        raise SolverError(
            f"least-squares backward error {err:.3e} exceeds tol {tol:.1e} (n={n})")
    return s * y, etas
