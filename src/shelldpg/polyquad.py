"""Polynomial bases and quadrature on the reference triangle.

The reference triangle is {(x, y): x, y >= 0, x + y <= 1}; physical
elements are affine images of it.  Bases are L2-orthonormalized on the
reference triangle, which keeps the element Gram matrices of the scaled
test inner product reasonably conditioned.  Quadrature rules are built as
conical products of Gauss-Jacobi and Gauss-Legendre rules, so they are
exact (to rounding) for the polynomial degree they declare.

The element kernels evaluate the bases only at the points of fixed
rules: the triangle rules and the edge rules on the three local edges.
`triangle_table` and `edge_table` tabulate values, gradients and
Hessians there once per basis degree and rule, as read-only arrays
shared by every caller; the three edges of one degree and rule share
one table.  `TriangleBasis.eval`, `grad` and `hess` evaluate at any
other points.  Every monomial of one derivative order comes from one
table of the powers of the point coordinates, so a table costs a few
array operations whatever its degree.  The tables are built on first
use, in the first run of a process.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_TRIANGLE_DEGREE = 12
MAX_BASIS_DEGREE = 4

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
REF_VERTICES.flags.writeable = False

SQ2 = np.sqrt(2.0)
# orthonormal frames of the symmetric 2x2 tensors (E11, E12s, E22), with
# E12s = offdiag / sqrt(2); tensor-valued test functions are psi * frame
FRAMES_SYM = np.array(
    [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 1.0 / SQ2], [1.0 / SQ2, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
    ]
)


def monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TriangleBasis:
    """L2-orthonormal basis of P^degree on the reference triangle.

    Monomials ordered by total degree are orthonormalized against the
    exact (factorial-formula) mass matrix via a Cholesky factor.  The
    basis supports value, gradient and Hessian evaluation at reference
    points; mapping to physical triangles is done by the caller through
    `map_gradients` / `map_hessians`.

    Parameters
    ----------
    degree : int
        Polynomial degree, 0 <= degree <= 4.
    """

    def __init__(self, degree):
        if not 0 <= degree <= MAX_BASIS_DEGREE:
            raise ValueError(f"unsupported basis degree {degree}")
        self.degree = degree
        self.exponents = [
            (a, tot - a) for tot in range(degree + 1) for a in range(tot, -1, -1)
        ]
        self.dim = len(self.exponents)
        self._exponents = np.array(self.exponents).T
        mass = np.array(
            [
                [monomial_integral(ai + aj, bi + bj) for (aj, bj) in self.exponents]
                for (ai, bi) in self.exponents
            ]
        )
        chol = np.linalg.cholesky(mass)
        # rows of coeff express each basis function in monomials; one
        # correction pass fixes the rounding the monomial conditioning
        # introduces at degree 4
        coeff = np.linalg.solve(chol, np.eye(self.dim))
        gram = coeff @ mass @ coeff.T
        self.coeff = np.linalg.solve(np.linalg.cholesky(gram), coeff)

    def _monomials(self, points, dx, dy):
        """d^dx/dx d^dy/dy of every monomial (npoints, dim): for exponents
        (a, b), c x^(a - dx) y^(b - dy) with c = a!/(a - dx)! b!/(b - dy)!,
        or zero where dx > a or dy > b; from one table of the powers of x
        and of y."""
        points = np.asarray(points, dtype=float)
        (a, b), n = self._exponents, self.degree + 1
        c = np.array([math.perm(i, dx) * math.perm(j, dy) for i, j in self.exponents],
                     dtype=float)
        px, py = np.empty((2, len(points), n))
        for p in range(n):
            px[:, p] = points[:, 0] ** p
            py[:, p] = points[:, 1] ** p
        mono = c * px[:, np.maximum(a - dx, 0)] * py[:, np.maximum(b - dy, 0)]
        mono[:, c == 0] = 0.0
        return mono

    def eval(self, points):
        """Values at reference points; shape (npoints, dim)."""
        return self._monomials(points, 0, 0) @ self.coeff.T

    def grad(self, points):
        """Reference gradients; shape (npoints, dim, 2)."""
        gx = self._monomials(points, 1, 0) @ self.coeff.T
        gy = self._monomials(points, 0, 1) @ self.coeff.T
        return np.stack([gx, gy], axis=-1)

    def hess(self, points):
        """Reference Hessians; shape (npoints, dim, 2, 2)."""
        hxx = self._monomials(points, 2, 0) @ self.coeff.T
        hxy = self._monomials(points, 1, 1) @ self.coeff.T
        hyy = self._monomials(points, 0, 2) @ self.coeff.T
        h = np.empty(hxx.shape + (2, 2))
        h[..., 0, 0] = hxx
        h[..., 0, 1] = hxy
        h[..., 1, 0] = hxy
        h[..., 1, 1] = hyy
        return h


@lru_cache(maxsize=None)
def triangle_basis(degree):
    """Cached TriangleBasis instance."""
    return TriangleBasis(degree)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights, exact up to `degree`."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


def gauss_jacobi_10(n):
    """n-point Gauss-Jacobi rule for the weight 1 - x on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the recurrence of the Jacobi polynomials P_k^(1,0), the
    weights 2 v_0^2 from the first components of its eigenvectors
    (2 = the integral of the weight).
    """
    k = np.arange(n, dtype=float)
    diag = -1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0))
    k = k[1:]
    off = np.sqrt(k * (k + 1.0)) / (2.0 * k + 1.0)
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 * v[0] ** 2


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Quadrature on the reference triangle, exact for total degree <= degree.

    Conical product of an n-point Gauss-Jacobi rule (weight 1-x) in the
    first coordinate with an n-point Gauss-Legendre rule in the second,
    n = ceil((degree+1)/2).  Weights sum to the reference area 1/2.
    """
    if not 0 <= degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(f"unsupported quadrature degree {degree}")
    n = max(1, (degree + 2) // 2)
    xj, wj = gauss_jacobi_10(n)
    xl, wl = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (xj + 1.0)
    wx = 0.25 * wj
    u = 0.5 * (xl + 1.0)
    wu = 0.5 * wl
    pts = np.empty((n * n, 2))
    wts = np.empty(n * n)
    for i in range(n):
        for j in range(n):
            pts[i * n + j, 0] = x[i]
            pts[i * n + j, 1] = u[j] * (1.0 - x[i])
            wts[i * n + j] = wx[i] * wu[j]
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(pts, wts, degree)


@lru_cache(maxsize=None)
def edge_rule(degree):
    """Gauss-Legendre rule on [0, 1], exact for degree <= degree."""
    if degree < 0:
        raise ValueError(f"unsupported edge rule degree {degree}")
    n = max(1, (degree + 2) // 2)
    xl, wl = np.polynomial.legendre.leggauss(n)
    pts = 0.5 * (xl + 1.0)
    wts = 0.5 * wl
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(pts, wts, degree)


@dataclass(frozen=True)
class BasisTable:
    """One basis tabulated at the points of one rule; read-only arrays.

    val (npoints, dim), grad (npoints, dim, 2), hess (npoints, dim, 2, 2)
    on the reference triangle, as `TriangleBasis.eval`, `grad`, `hess`.
    """

    val: np.ndarray
    grad: np.ndarray
    hess: np.ndarray


def _tabulate(basis, points):
    table = BasisTable(basis.eval(points), basis.grad(points), basis.hess(points))
    for arr in (table.val, table.grad, table.hess):
        arr.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def triangle_table(degree, rule_degree):
    """`triangle_basis(degree)` at the points of `triangle_rule(rule_degree)`."""
    return _tabulate(triangle_basis(degree), triangle_rule(rule_degree).points)


@lru_cache(maxsize=None)
def edge_table(degree, rule_degree, edge):
    """`triangle_basis(degree)` at the points of `edge_rule(rule_degree)`
    on local edge `edge` of the reference triangle, which runs from
    vertex (edge + 1) % 3 to vertex (edge + 2) % 3: rows of one table of
    the three edges' points (`_edges_table`)."""
    if edge not in (0, 1, 2):
        raise ValueError(f"local edge must be 0, 1 or 2, got {edge}")
    table, n = _edges_table(degree, rule_degree), len(edge_rule(rule_degree).points)
    rows = slice(edge * n, (edge + 1) * n)
    return BasisTable(table.val[rows], table.grad[rows], table.hess[rows])


@lru_cache(maxsize=None)
def _edges_table(degree, rule_degree):
    """`triangle_basis(degree)` at the points of `edge_rule(rule_degree)`
    on local edges 0, 1 and 2 in turn."""
    s = edge_rule(rule_degree).points[:, None]
    a, b = REF_VERTICES[[1, 2, 0], None], REF_VERTICES[[2, 0, 1], None]
    return _tabulate(triangle_basis(degree), ((1.0 - s) * a + s * b).reshape(-1, 2))


def triangle_geometry(coords):
    """Affine-map data for one or more triangles.

    Parameters
    ----------
    coords : array (..., 3, 2)
        Vertex coordinates.

    Returns
    -------
    J, detJ, Jinv : arrays (..., 2, 2), (...), (..., 2, 2)
        Jacobian of the map from the reference triangle, its determinant
        (twice the signed area) and its inverse.

    Raises
    ------
    ValueError
        For (numerically) degenerate triangles.
    """
    coords = np.asarray(coords, dtype=float)
    J = np.stack(
        [coords[..., 1, :] - coords[..., 0, :], coords[..., 2, :] - coords[..., 0, :]],
        axis=-1,
    )
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    scale = np.max(np.abs(J), axis=(-2, -1)) ** 2
    if np.any(np.abs(detJ) <= 1e-13 * scale):
        raise ValueError("degenerate triangle")
    Jinv = np.empty_like(J)
    Jinv[..., 0, 0] = J[..., 1, 1]
    Jinv[..., 0, 1] = -J[..., 0, 1]
    Jinv[..., 1, 0] = -J[..., 1, 0]
    Jinv[..., 1, 1] = J[..., 0, 0]
    Jinv = Jinv / detJ[..., None, None]
    return J, detJ, Jinv


def map_points(coords, ref_points):
    """Map reference points to physical coordinates; (..., npts, 2)."""
    coords = np.asarray(coords, dtype=float)
    J, _, _ = triangle_geometry(coords)
    ref_points = np.asarray(ref_points, dtype=float)
    return coords[..., None, 0, :] + ref_points @ np.swapaxes(J, -1, -2)


def map_gradients(grad_ref, Jinv):
    """Physical gradients from reference ones: d/dx_a = Jinv[b,a] d/dxi_b.

    grad_ref (npts, dim, 2) and Jinv (..., 2, 2) give (..., npts, dim, 2),
    one matrix product per element with the reference gradients as rows.
    """
    grad_ref, Jinv = np.asarray(grad_ref), np.asarray(Jinv)
    return (grad_ref.reshape(-1, 2) @ Jinv).reshape(Jinv.shape[:-2] + grad_ref.shape)


def map_hessians(hess_ref, Jinv):
    """Physical Hessians: Jinv^T H Jinv per point and function.

    With K[(c, d), (a, b)] = Jinv[c, a] Jinv[d, b], the entries xx, xy
    and yy are one matrix product per element of the reference Hessians
    (rows) with three columns of K; xy fills both off-diagonal places,
    so each result is exactly symmetric, and no element's result depends
    on how many elements are mapped together.
    """
    hess_ref, Jinv = np.asarray(hess_ref), np.asarray(Jinv)
    K = Jinv[..., :, None, :, None] * Jinv[..., None, :, None, :]
    K = K.reshape(Jinv.shape[:-2] + (4, 4))[..., [0, 1, 3]]
    out = hess_ref.reshape(-1, 4) @ K
    return out[..., [0, 1, 1, 2]].reshape(Jinv.shape[:-2] + hess_ref.shape)
