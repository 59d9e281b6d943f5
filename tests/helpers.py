"""Shared oracle helpers: projections onto element test blocks and the
element kernels of a single element."""

import numpy as np

from shelldpg.assembly import element_b_batch, element_gram_batch, element_load_batch
from shelldpg.polyquad import map_points, triangle_basis, triangle_rule

SQ2 = np.sqrt(2.0)
# orthonormal symmetric frames and the skew frame
FRAMES_SYM = np.array(
    [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 1.0 / SQ2], [1.0 / SQ2, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
    ]
)
FRAME_SKEW = np.array([[0.0, 1.0 / SQ2], [-1.0 / SQ2, 0.0]])


def project_scalar(coords, fn, degree, fn_degree=4):
    """Coefficients of fn (restricted to the element) in the orthonormal
    reference basis of the given degree; exact for polynomial fn."""
    basis = triangle_basis(degree)
    rule = triangle_rule(degree + fn_degree)
    vals = basis.eval(rule.points)
    phys = map_points(coords, rule.points)
    f = np.asarray(fn(phys[..., 0], phys[..., 1]), dtype=float)
    return (vals * rule.weights[:, None]).T @ f


def project_vector(coords, fn, degree, fn_degree=4):
    """Coefficients (2*dim,) with index 2*i + c."""
    basis = triangle_basis(degree)
    rule = triangle_rule(degree + fn_degree)
    vals = basis.eval(rule.points)
    phys = map_points(coords, rule.points)
    f = np.asarray(fn(phys[..., 0], phys[..., 1]), dtype=float)  # (Q, 2)
    coef = (vals * rule.weights[:, None]).T @ f  # (dim, 2)
    return coef.reshape(-1)


def project_sym_tensor(coords, fn, degree, fn_degree=4):
    """Coefficients (3*dim,) with index 3*i + frame."""
    basis = triangle_basis(degree)
    rule = triangle_rule(degree + fn_degree)
    vals = basis.eval(rule.points)
    phys = map_points(coords, rule.points)
    f = np.asarray(fn(phys[..., 0], phys[..., 1]), dtype=float)  # (Q, 2, 2)
    fr = np.einsum("qab,fab->qf", f, FRAMES_SYM)
    coef = (vals * rule.weights[:, None]).T @ fr  # (dim, 3)
    return coef.reshape(-1)


def element_gram(mesh, problem, element=0):
    """Gram matrix (111, 111) of one element."""
    return element_gram_batch(mesh, problem, np.array([element]))[0]


def element_b(mesh, problem, k, element=0):
    """Trial-to-test matrix of one element."""
    return element_b_batch(mesh, problem, k, np.array([element]))[0]


def element_load(mesh, problem, element=0):
    """Load vector (111,) of one element."""
    return element_load_batch(mesh, problem, np.array([element]))[0]
