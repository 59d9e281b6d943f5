"""Convergence of the discrete solution to exact solutions of the model."""

import functools

import numpy as np
import pytest

from shelldpg.assembly import assemble_normal_equations
from shelldpg.mesh import initial_rectangle_mesh, refine
from shelldpg.model import ShellProblem, make_benchmark
from shelldpg.polyquad import map_points, triangle_geometry, triangle_rule
from shelldpg.reference import (
    FourierReference,
    InextensionalReference,
    error_norms,
    scordelis_lo_functional,
)
from shelldpg.solver import solve


def free_strip():
    """Flat plate, d = 1, f = cos 2y, simply supported at y = +-pi/4 and
    free at x = +-1.  The exact solution is w = 3/4 cos 2y with M22 =
    cos(2y)/4 and no twist: it meets M11 = 0, zero effective shear and
    zero corner forces on the free edges."""
    held = {"u1", "u2", "w"}
    return ShellProblem(
        rect=(-1.0, 1.0, -np.pi / 4.0, np.pi / 4.0), B=np.zeros((2, 2)), d=1.0,
        f=lambda x, y: np.cos(2.0 * y) * np.ones_like(x),
        bc={"ymin": held, "ymax": held},
    )


def w_ratio(mesh, fields):
    """L2 factor (w_h, w) / (w, w) of the discrete deflection."""
    rule = triangle_rule(8)
    coords = mesh.triangle_coords()
    J, detJ, _ = triangle_geometry(coords)
    wd = rule.weights[None, :] * detJ[:, None]
    w = 0.75 * np.cos(2.0 * map_points(coords, J, rule.points)[..., 1])
    return np.sum(wd * fields[:, 2, None] * w) / np.sum(wd * w * w)


def test_free_strip_deflection_rate():
    # a free edge that is in effect pinned keeps w_h/w near 0.4 at any
    # mesh size; the Kirchhoff trace converges at second order in h
    prob = free_strip()
    mesh = initial_rectangle_mesh(prob.rect)
    defects = {}
    for _ in range(3):
        mesh = refine(mesh, np.arange(mesh.ntriangles))
        if mesh.ntriangles < 64:
            continue
        neq = assemble_normal_equations(mesh, prob, 0)
        x, _ = solve(neq)
        defects[mesh.ntriangles] = 1.0 - w_ratio(mesh, neq.fields(x))
    assert sorted(defects) == [64, 256]
    rate = np.log2(defects[64] / defects[256])  # per halving of h
    assert rate > 1.5, defects
    assert 0.0 < defects[256] < 0.1, defects


def first_mode(x, y):
    return np.cos(0.5 * np.pi * x) * np.cos(0.5 * np.pi * y)


# eta/err at 1024 elements, measured over the three kinds and d = 1,
# 1e-2, 1e-3 with k = 1: 0.92-1.06.  k = 0 (measured 0.99-1.71, rates
# 0.50-0.66) is left out of tier-1 for its run time
EFFECTIVITY_BAND = (0.88, 1.1)
# below d = 1e-3 eta/err grows as d falls: at 1024 elements, k = 1,
# measured 1.20-1.46 at d = 1e-4 and 1.49-1.76 at d = 1e-5 over the
# three kinds (1.50-1.79 at 256 elements), so it gets a band of its own
EFFECTIVITY_BAND_THIN = (1.1, 1.9)


@functools.lru_cache(maxsize=None)
def first_mode_errors(kind, d):
    """ndof, total error and eta of the first-mode problem, k = 1, on
    the uniform meshes of 256 and 1024 elements."""
    prob = make_benchmark("point_" + kind, d, f=first_mode)
    exact = FourierReference(kind, d, bound=1)
    mesh = initial_rectangle_mesh(prob.rect)
    ndof, err, eta = {}, {}, {}
    while mesh.ntriangles < 1024:
        mesh = refine(mesh, np.arange(mesh.ntriangles))
        if mesh.ntriangles not in (256, 1024):
            continue
        neq = assemble_normal_equations(mesh, prob, 1)
        x, etas = solve(neq)
        errs = error_norms(mesh, prob, neq.fields(x), exact)
        n = mesh.ntriangles
        ndof[n] = neq.ndof
        err[n] = np.sqrt(sum(v**2 for v in errs.values()))
        eta[n] = np.linalg.norm(etas)
    return ndof, err, eta


def ndof_rate(ndof, err):
    return np.log(err[256] / err[1024]) / np.log(ndof[1024] / ndof[256])


@pytest.mark.parametrize("d", [1.0, 1e-2, 1e-3])
@pytest.mark.parametrize("kind", ["elliptic", "parabolic", "hyperbolic"])
def test_first_mode_rate_and_effectivity(kind, d):
    # the load cos(pi x/2) cos(pi y/2) is the first mode of the point-load
    # series with coefficient 1, so the one-mode series solves the model
    # exactly, for every d.  The fields are piecewise constant: order 1/2
    # in ndof on uniform meshes (measured 0.50-0.61 from 256 to 1024
    # elements); eta/err in one band for every d is the robustness in d
    ndof, err, eta = first_mode_errors(kind, d)
    rate = ndof_rate(ndof, err)
    assert rate >= 0.45, (rate, err)
    lo, hi = EFFECTIVITY_BAND
    assert lo <= eta[1024] / err[1024] <= hi, (eta, err)


@pytest.mark.parametrize("d", [1e-4, 1e-5])
@pytest.mark.parametrize("kind", ["elliptic", "parabolic", "hyperbolic"])
def test_first_mode_robust_in_thickness(kind, d):
    # robustness in d below the d >= 1e-3 gate: the same rate (measured
    # 0.50-0.56), and an error at 1024 elements within 1.3 times that of
    # d = 1e-3 (measured 1.01-1.03 at d = 1e-4, 1.15-1.17 at d = 1e-5);
    # eta/err in `EFFECTIVITY_BAND_THIN`
    ndof, err, eta = first_mode_errors(kind, d)
    _, err_thick, _ = first_mode_errors(kind, 1e-3)
    rate = ndof_rate(ndof, err)
    assert rate >= 0.45, (rate, err)
    assert 1.0 / 1.3 <= err[1024] / err_thick[1024] <= 1.3, (err, err_thick)
    lo, hi = EFFECTIVITY_BAND_THIN
    assert lo <= eta[1024] / err[1024] <= hi, (eta, err)


def free_cylinder_errors(d, k, sizes):
    """ndof and total error against `InextensionalReference` of uniform
    `cyl_free` meshes with the given element counts."""
    prob = make_benchmark("cyl_free", d=d)
    exact = InextensionalReference(d)
    mesh = initial_rectangle_mesh(prob.rect)
    ndof, err = {}, {}
    while mesh.ntriangles < max(sizes):
        mesh = refine(mesh, np.arange(mesh.ntriangles))
        if mesh.ntriangles in sizes:
            neq = assemble_normal_equations(mesh, prob, k)
            x, _ = solve(neq)
            errs = error_norms(mesh, prob, neq.fields(x), exact)
            ndof[mesh.ntriangles] = neq.ndof
            err[mesh.ntriangles] = np.sqrt(sum(v**2 for v in errs.values()))
    return ndof, err


def test_tangential_trace_degree_removes_membrane_locking():
    # the free cylinder bends without membrane strain.  With k = 0 the
    # tangential displacement trace cannot follow that mode on a thin
    # shell: at d = 1e-2 the error stalls at 71.4 (1,024 elements, rate
    # 0.04 in ndof from 256).  With k = 1 it is 1.41, and the rate in
    # ndof is 0.55 at d = 1 and 0.62 at d = 1e-2 (measured)
    _, locked = free_cylinder_errors(1e-2, 0, (1024,))
    for d in (1.0, 1e-2):
        ndof, err = free_cylinder_errors(d, 1, (256, 1024))
        rate = np.log(err[256] / err[1024]) / np.log(ndof[1024] / ndof[256])
        assert rate >= 0.45, (d, rate, err)
    assert locked[1024] >= 20.0 * err[1024], (locked, err)


# Scordelis-Lo roof: the vertical midside displacement of the free edge,
# 0.3024 in the deep-shell reference (MacNeal and Harder, "A proposed
# standard set of problems to test finite element accuracy", Finite
# Elem. Anal. Des. 1985)
SCORDELIS_LO_REFERENCE = 0.3024


def test_scordelis_lo_functional_approaches_reference():
    """Uniform k = 1 at the default d = 0.25, 4 to 1,024 elements: the
    functional reads 0.0045 / 0.021 / 0.124 / 0.233 / 0.282 (measured).

    It must rise and end within 10% of 0.3024.  A gap is allowed because
    0.3024 is the value of the deep-shell model, while this model is
    shallow, and because 1,024 elements do not resolve the roof yet: the
    runs at 4,096 and 16,384 elements, kept out of this suite for time,
    read 0.299 and 0.305.
    """
    prob = make_benchmark("scordelis_lo")
    mesh = initial_rectangle_mesh(prob.rect)
    values = []
    while True:
        neq = assemble_normal_equations(mesh, prob, 1)
        x, _ = solve(neq)
        values.append(scordelis_lo_functional(mesh, prob, neq.fields(x)))
        if mesh.ntriangles >= 1024:
            break
        mesh = refine(mesh, np.arange(mesh.ntriangles))
    assert mesh.ntriangles == 1024 and len(values) == 5
    assert np.all(np.diff(values) > 0.0), values
    assert abs(values[-1] - SCORDELIS_LO_REFERENCE) <= 0.1 * SCORDELIS_LO_REFERENCE, values
