"""Quadrature and polynomial basis checks on the reference triangle."""

import math

import numpy as np
import pytest
from helpers import loop_monomials

from shelldpg.polyquad import (
    MAX_TRIANGLE_DEGREE,
    REF_VERTICES,
    TriangleBasis,
    edge_rule,
    edge_table,
    gauss_jacobi_10,
    map_gradients,
    map_hessians,
    monomial_integral,
    triangle_basis,
    triangle_geometry,
    triangle_rule,
    triangle_table,
)


def exact_integral(a, b):
    # independent of the closed form used in the module
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_monomial_integral_against_factorials():
    for a in range(0, 9):
        for b in range(0, 9):
            assert monomial_integral(a, b) == pytest.approx(exact_integral(a, b), rel=1e-14)


def test_rule_integrates_xy():
    rule = triangle_rule(2)
    val = np.sum(rule.weights * rule.points[:, 0] * rule.points[:, 1])
    assert val == pytest.approx(1.0 / 24.0, abs=1e-15)


def test_rule_degree_eight_monomial():
    rule = triangle_rule(8)
    x, y = rule.points[:, 0], rule.points[:, 1]
    val = np.sum(rule.weights * x**4 * y**4)
    assert abs(val - exact_integral(4, 4)) < 1e-13


@pytest.mark.parametrize("degree", range(0, MAX_TRIANGLE_DEGREE + 1))
def test_rule_exact_for_all_monomials(degree):
    rule = triangle_rule(degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(rule.weights * x**a * y**b)
            assert val == pytest.approx(exact_integral(a, b), abs=1e-14)


def test_rule_weights_positive_and_sum_half():
    for degree in range(MAX_TRIANGLE_DEGREE + 1):
        rule = triangle_rule(degree)
        assert np.all(rule.weights > 0.0)
        assert np.sum(rule.weights) == pytest.approx(0.5, abs=1e-15)
        inside = (
            (rule.points[:, 0] >= 0.0)
            & (rule.points[:, 1] >= 0.0)
            & (rule.points.sum(axis=1) <= 1.0 + 1e-14)
        )
        assert np.all(inside)


def test_rule_rejects_bad_degree():
    with pytest.raises(ValueError):
        triangle_rule(-1)
    with pytest.raises(ValueError):
        triangle_rule(MAX_TRIANGLE_DEGREE + 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_gauss_rules_match_scipy_special(n):
    # the rules of `triangle_rule` and `edge_rule`, computed with numpy,
    # against scipy's Gauss-Jacobi(1, 0) and Gauss-Legendre rules
    from scipy.special import roots_jacobi, roots_legendre

    for (x, w), (xs, ws) in (
        (gauss_jacobi_10(n), roots_jacobi(n, 1.0, 0.0)),
        (np.polynomial.legendre.leggauss(n), roots_legendre(n)),
    ):
        assert np.abs(x - xs).max() <= 4e-15
        assert np.abs(w - ws).max() <= 4e-15


def test_edge_rule_one_point_is_midpoint():
    rule = edge_rule(1)
    assert rule.points.shape == (1,)
    assert rule.points[0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_edge_rule_degree_seven():
    rule = edge_rule(7)
    assert rule.points.shape == (4,)
    val = np.sum(rule.weights * rule.points**7)
    assert abs(val - 1.0 / 8.0) < 1e-14


def test_edge_rule_rejects_negative_degree():
    with pytest.raises(ValueError):
        edge_rule(-2)


def test_basis_orthonormal():
    for degree in range(5):
        basis = triangle_basis(degree)
        rule = triangle_rule(2 * degree)
        vals = basis.eval(rule.points)
        gram = (vals * rule.weights[:, None]).T @ vals
        # degree 4 loses a couple of digits to monomial-coefficient
        # cancellation; plenty for Gram conditioning
        assert np.allclose(gram, np.eye(basis.dim), atol=2e-11)


def test_basis_dimension_and_degree_guard():
    assert triangle_basis(0).dim == 1
    assert triangle_basis(3).dim == 10
    assert triangle_basis(4).dim == 15
    with pytest.raises(ValueError):
        TriangleBasis(5)
    with pytest.raises(ValueError):
        TriangleBasis(-1)


def test_basis_spans_monomials():
    # every monomial of matching degree must be reproducible
    basis = triangle_basis(3)
    rule = triangle_rule(6)
    vals = basis.eval(rule.points)
    for a, b in basis.exponents:
        target = rule.points[:, 0] ** a * rule.points[:, 1] ** b
        coef = (vals * rule.weights[:, None]).T @ target
        assert np.allclose(vals @ coef, target, atol=1e-12)


def test_gradient_matches_finite_differences():
    basis = triangle_basis(3)
    rng = np.random.default_rng(7)
    pts = rng.random((20, 2)) * 0.4 + 0.1
    h = 1e-5
    grads = basis.grad(pts)
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        fd = (basis.eval(pts + shift) - basis.eval(pts - shift)) / (2 * h)
        assert np.max(np.abs(grads[:, :, axis] - fd)) < 1e-6


def test_hessian_matches_finite_differences():
    basis = triangle_basis(3)
    rng = np.random.default_rng(11)
    pts = rng.random((15, 2)) * 0.4 + 0.1
    h = 1e-5
    hess = basis.hess(pts)
    for ax in range(2):
        shift = np.zeros(2)
        shift[ax] = h
        fd = (basis.grad(pts + shift) - basis.grad(pts - shift)) / (2 * h)
        assert np.max(np.abs(hess[:, :, :, ax] - fd)) < 1e-6


def test_hessian_symmetric():
    basis = triangle_basis(4)
    pts = np.array([[0.2, 0.3], [0.1, 0.05], [0.6, 0.3]])
    hess = basis.hess(pts)
    assert np.allclose(hess[:, :, 0, 1], hess[:, :, 1, 0], atol=1e-13)


def test_geometry_identity_and_scaling():
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    J, detJ, Jinv = triangle_geometry(ref)
    assert detJ == pytest.approx(1.0)
    assert np.allclose(J, np.eye(2))

    scaled = 2.0 * ref
    J, detJ, Jinv = triangle_geometry(scaled)
    assert detJ == pytest.approx(4.0)
    # gradients of linear functions halve under a scaling by two
    basis = triangle_basis(1)
    pts = np.array([[0.25, 0.25]])
    grad_ref = basis.grad(pts)
    grad_phys = map_gradients(grad_ref, Jinv)
    assert np.allclose(grad_phys, grad_ref / 2.0, atol=1e-14)


def test_geometry_batched_and_degenerate():
    coords = np.array(
        [
            [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [3.0, 1.5], [1.5, 3.0]],
        ]
    )
    J, detJ, Jinv = triangle_geometry(coords)
    assert J.shape == (2, 2, 2)
    assert np.allclose(np.einsum("tab,tbc->tac", J, Jinv), np.eye(2)[None], atol=1e-13)

    flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="degenerate"):
        triangle_geometry(flat)


def eval_basis(basis, coords, ref_points):
    """Values, gradients and Hessians of `basis` on a physical triangle.

    Returns (values, gradients, hessians) with shapes (npts, dim),
    (npts, dim, 2) and (npts, dim, 2, 2).  Values are unchanged by the
    affine map; derivatives are pulled back through the inverse Jacobian.
    """
    _, _, Jinv = triangle_geometry(coords)
    vals = basis.eval(ref_points)
    grads = map_gradients(basis.grad(ref_points), Jinv)
    hess = map_hessians(basis.hess(ref_points), Jinv)
    return vals, grads, hess


def test_eval_basis_physical_hessian():
    # quadratic x^2 has constant physical Hessian diag(2, 0)
    coords = np.array([[0.2, -0.1], [1.7, 0.3], [0.4, 1.9]])
    basis = triangle_basis(2)
    ref_pts = np.array([[0.2, 0.2], [0.5, 0.1]])
    vals, grads, hess = eval_basis(basis, coords, ref_pts)

    from shelldpg.polyquad import map_points

    phys = map_points(coords, ref_pts)
    x = phys[..., 0]
    # fit coefficients of x^2 in the mapped basis via least squares on many points
    rule = triangle_rule(4)
    vals_q, _, _ = eval_basis(basis, coords, rule.points)
    phys_q = map_points(coords, rule.points)
    target = phys_q[..., 0] ** 2
    coef, *_ = np.linalg.lstsq(vals_q, target, rcond=None)
    assert np.allclose(vals @ coef, x**2, atol=1e-12)
    hess_fn = np.einsum("i,qiab->qab", coef, hess)
    assert np.allclose(hess_fn, [[[2.0, 0.0], [0.0, 0.0]]] * 2, atol=1e-10)


def test_map_hessians_matches_einsum_reference():
    # the entrywise form against the plain contraction Jinv^T H Jinv,
    # for a batch of elements and for a single element
    rng = np.random.default_rng(8)
    hess_ref = triangle_basis(4).hess(triangle_rule(8).points)
    Jinv = rng.standard_normal((7, 2, 2))
    expect = np.einsum("...ca,qicd,...db->...qiab", Jinv, hess_ref, Jinv)
    got = map_hessians(hess_ref, Jinv)
    assert got.shape == expect.shape
    tol = 8 * np.finfo(float).eps * np.abs(expect).max()
    assert np.abs(got - expect).max() < tol
    assert np.abs(map_hessians(hess_ref, Jinv[3]) - expect[3]).max() < tol


def fresh_tables(basis, points):
    """Values, gradients and Hessians straight from the monomials, built
    by the loop over the exponents."""
    mono = lambda dx, dy: loop_monomials(basis, points, dx, dy) @ basis.coeff.T
    grad = np.stack([mono(1, 0), mono(0, 1)], axis=-1)
    hess = np.stack([np.stack([mono(2, 0), mono(1, 1)], -1),
                     np.stack([mono(1, 1), mono(0, 2)], -1)], -2)
    return mono(0, 0), grad, hess


@pytest.mark.parametrize("degree", range(5))
def test_monomials_match_loop_over_exponents(degree):
    # the monomials of each derivative order from one power table, bit
    # for bit those of the loop, at the triangle and edge rule points and
    # at points of either sign
    basis = triangle_basis(degree)
    s = edge_rule(7).points[:, None]
    points = [triangle_rule(8).points, np.random.default_rng(2).uniform(-2, 2, (9, 2))]
    for j in range(3):
        points.append((1.0 - s) * REF_VERTICES[(j + 1) % 3] + s * REF_VERTICES[(j + 2) % 3])
    for p in points:
        for dx in range(4):
            for dy in range(4 - dx):
                got, want = basis._monomials(p, dx, dy), loop_monomials(basis, p, dx, dy)
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("degree", range(5))
def test_tables_are_fresh_evaluations_and_read_only(degree):
    basis = triangle_basis(degree)
    s = edge_rule(7).points[:, None]
    cases = [(triangle_table(degree, 8), triangle_rule(8).points)]
    for j in range(3):
        a, b = REF_VERTICES[(j + 1) % 3], REF_VERTICES[(j + 2) % 3]
        cases.append((edge_table(degree, 7, j), (1.0 - s) * a + s * b))
    for table, points in cases:
        for got, want in zip((table.val, table.grad, table.hess),
                             fresh_tables(basis, points)):
            assert np.array_equal(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1.0
    # tabulated once per degree and rule
    assert triangle_table(degree, 8) is cases[0][0]
    assert edge_table(degree, 7, 2) is cases[3][0]
    with pytest.raises(ValueError):
        edge_table(degree, 7, 3)


def test_eval_at_other_points_is_a_fresh_evaluation():
    rng = np.random.default_rng(4)
    for degree in (2, 3, 4):
        triangle_table(degree, 8)
        for j in range(3):
            edge_table(degree, 7, j)
        basis = triangle_basis(degree)
        for points in (REF_VERTICES, rng.random((9, 2)) * 0.5,
                       triangle_rule(8).points.copy()):
            want = fresh_tables(basis, points)
            got = (basis.eval(points), basis.grad(points), basis.hess(points))
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
                assert g.flags.writeable
