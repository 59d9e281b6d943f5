"""Reference solutions, error norms, and functionals."""

import numpy as np
import pytest

from shelldpg.estimator import AdaptiveConfig, adaptive_loop
from shelldpg.mesh import Mesh, initial_rectangle_mesh, refine
from shelldpg.model import ShellProblem, make_benchmark
from shelldpg.polyquad import triangle_rule
from shelldpg.reference import (
    _CHUNK,
    ERROR_RULE_DEGREE,
    FourierReference,
    InextensionalReference,
    error_norms,
    locate_points,
    make_evaluator,
    make_reference,
    sample_fields_on_line,
    scordelis_lo_functional,
)

KINDS = ("elliptic", "parabolic", "hyperbolic")


def test_elliptic_first_coefficient():
    ref = FourierReference("elliptic", 1e-2)
    expect = 12.0 / (1e-4 * (np.pi**2 / 2.0) ** 2 + 12.0)
    assert np.isclose(ref.W[0, 0], expect, rtol=1e-15)


def test_series_against_brute_force():
    # independent double-loop summation, small truncation
    d, bound = 5e-2, 25
    pts = np.array([[0.0, 0.0], [0.3, -0.2], [0.51, 0.43]])
    m = np.arange(1, bound + 1)
    M = (m - 0.5) * np.pi
    for kind in KINDS:
        ref = FourierReference(kind, d, bound)
        got = ref.evaluate(pts[:, 0], pts[:, 1])
        for px, py in pts:
            w = u1 = u2 = 0.0
            for mm in range(bound):
                for nn in range(bound):
                    Mm, Nn = M[mm], M[nn]
                    W = ref.W[mm, nn]
                    a, b = ref.alpha[mm, nn], ref.beta[mm, nn]
                    w += W * np.cos(Mm * px) * np.cos(Nn * py)
                    if kind == "hyperbolic":
                        u1 += a * np.cos(Mm * px) * np.sin(Nn * py)
                        u2 += b * np.sin(Mm * px) * np.cos(Nn * py)
                    else:
                        u1 += a * np.sin(Mm * px) * np.cos(Nn * py)
                        u2 += b * np.cos(Mm * px) * np.sin(Nn * py)
            i = np.nonzero((pts == [px, py]).all(axis=1))[0][0]
            assert np.isclose(got["w"][i], w, rtol=1e-10, atol=1e-12)
            assert np.isclose(got["u"][i, 0], u1, rtol=1e-10, atol=1e-12)
            assert np.isclose(got["u"][i, 1], u2, rtol=1e-10, atol=1e-12)


def plain_series(ref, x, y):
    """The nine scalar series of `ref` at points, one GEMM each on the
    cos/sin tables of np.cos(np.outer(...)) and np.sin(np.outer(...))."""
    Mc, Nr = ref.M[:, None], ref.N[None, :]
    W, a, b = ref.W, ref.alpha, ref.beta
    fac = ref.d**2 / 12.0
    coef = {"w": ("CC", W), "M11": ("CC", fac * W * Mc**2),
            "M12": ("SS", -fac * W * Mc * Nr), "M22": ("CC", fac * W * Nr**2)}
    if ref.kind == "hyperbolic":
        coef.update(u1=("CS", a), u2=("SC", b), N11=("SS", -a * Mc),
                    N22=("SS", -b * Nr), N12=("CC", 0.5 * (a * Nr + b * Mc) + W))
    else:
        coef.update(u1=("SC", a), u2=("CS", b),
                    N12=("SS", -0.5 * (a * Nr + b * Mc)),
                    N11=("CC", a * Mc + (W if ref.kind == "elliptic" else 0.0)),
                    N22=("CC", b * Nr + W))
    fx = {"C": np.cos(np.outer(x, ref.M)), "S": np.sin(np.outer(x, ref.M))}
    gy = {"C": np.cos(np.outer(y, ref.N)), "S": np.sin(np.outer(y, ref.N))}
    return {name: ((fx[sig[0]] @ A) * gy[sig[1]]).sum(axis=1)
            for name, (sig, A) in coef.items()}


@pytest.mark.parametrize("bound", [1, 4, 37, 150])
@pytest.mark.parametrize("kind", KINDS)
def test_series_kernel_against_plain_trig_tables(kind, bound):
    # angle-addition tables, stacked GEMMs and point blocks against one
    # plain GEMM per series; 37 is no multiple of the table split, and
    # the point count is above the block size and no multiple of it
    rng = np.random.default_rng(5)
    grid = np.array([-1.0, 0.0, 1.0])
    x = np.concatenate([np.repeat(grid, 3), rng.uniform(-1.0, 1.0, 1000)])
    y = np.concatenate([np.tile(grid, 3), rng.uniform(-1.0, 1.0, 1000)])
    assert x.size > _CHUNK and x.size % _CHUNK
    ref = FourierReference(kind, 1e-2, bound)
    got = ref.evaluate(x, y)
    want = plain_series(ref, x, y)
    pairs = [(got["w"], want["w"])]
    pairs += [(got["u"][:, i], want[f"u{i + 1}"]) for i in range(2)]
    for t in "MN":
        pairs += [(got[t][:, i, j], want[f"{t}{i + 1}{j + 1}"])
                  for i, j in ((0, 0), (0, 1), (1, 1))]
        assert np.array_equal(got[t][:, 0, 1], got[t][:, 1, 0])
    for g, w in pairs:
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


def trig_derivative(fn, axis, freq):
    """d/dx (axis 0) or d/dy (axis 1) of {signature: amplitude}.

    A signature names the x and y factors of cos/sin(freq * coordinate),
    C or S, so the derivative changes one letter and scales by -freq
    (cos) or +freq (sin).
    """
    out = {}
    for sig, amp in fn.items():
        cos = sig[axis] == "C"
        new = sig[:axis] + ("S" if cos else "C") + sig[axis + 1:]
        out[new] = out.get(new, 0.0) + (-freq if cos else freq) * amp
    return out


def trig_sum(*terms):
    """Sum of c * fn over (c, fn) terms, and the sum of |c * fn| per signature."""
    val, scale = {}, {}
    for c, fn in terms:
        for sig, amp in fn.items():
            val[sig] = val.get(sig, 0.0) + c * amp
            scale[sig] = scale.get(sig, 0.0) + abs(c * amp)
    return val, scale


@pytest.mark.parametrize("d", [1.0, 1e-2, 1e-3])
@pytest.mark.parametrize("kind", KINDS)
def test_modes_solve_the_shell_equations(kind, d):
    # closed form, mode by mode, in the convention of the element
    # matrices: N = e(u) + w B (nu = 0), M = -(d^2/12) grad grad w,
    # div N = 0 and -div div M + B:N = f, where the unit point load at
    # the origin has coefficient 1 on each mode cos(M x) cos(N y).  The
    # displacement signatures follow from the boundary conditions: u1
    # and u2 vanish on the sides x = +-1 and y = +-1 where the benchmark
    # constrains them
    B = {"elliptic": np.eye(2), "parabolic": np.diag([0.0, 1.0]),
         "hyperbolic": np.array([[0.0, 1.0], [1.0, 0.0]])}[kind]
    sig_u = ("CS", "SC") if kind == "hyperbolic" else ("SC", "CS")
    ref = FourierReference(kind, d, bound=4)
    fac = d * d / 12.0
    for i in range(4):
        for j in range(4):
            M, N = ref.M[i], ref.N[j]
            dx = lambda fn: trig_derivative(fn, 0, M)
            dy = lambda fn: trig_derivative(fn, 1, N)
            u1 = {sig_u[0]: ref.alpha[i, j]}
            u2 = {sig_u[1]: ref.beta[i, j]}
            w = {"CC": ref.W[i, j]}
            N11, _ = trig_sum((1.0, dx(u1)), (B[0, 0], w))
            N12, _ = trig_sum((0.5, dy(u1)), (0.5, dx(u2)), (B[0, 1], w))
            N22, _ = trig_sum((1.0, dy(u2)), (B[1, 1], w))
            divdivM, _ = trig_sum((-fac, dx(dx(dx(dx(w))))),
                                  (-2.0 * fac, dx(dx(dy(dy(w))))),
                                  (-fac, dy(dy(dy(dy(w))))))
            residuals = [
                trig_sum((1.0, dx(N11)), (1.0, dy(N12))),
                trig_sum((1.0, dx(N12)), (1.0, dy(N22))),
                trig_sum((-1.0, divdivM), (B[0, 0], N11), (2.0 * B[0, 1], N12),
                         (B[1, 1], N22), (-1.0, {"CC": 1.0})),
            ]
            for eq, (val, scale) in enumerate(residuals):
                for sig, r in val.items():
                    assert abs(r) <= 1e-12 * scale[sig], (i, j, eq, sig, r)


def test_derived_fields_match_finite_differences():
    # M and N series come from termwise differentiation; check against
    # finite differences of the base series away from the load point
    d, bound, h = 1e-1, 40, 1e-5
    pts = np.array([[0.42, -0.31], [-0.63, 0.55]])
    B_of = {
        "elliptic": np.eye(2),
        "parabolic": np.diag([0.0, 1.0]),
        "hyperbolic": np.array([[0.0, 1.0], [1.0, 0.0]]),
    }
    for kind in KINDS:
        ref = FourierReference(kind, d, bound)
        B = B_of[kind]
        got = ref.evaluate(pts[:, 0], pts[:, 1])
        for i, (x, y) in enumerate(pts):
            def w_at(xx, yy):
                return ref.evaluate(np.array([xx]), np.array([yy]))["w"][0]

            def u_at(xx, yy):
                return ref.evaluate(np.array([xx]), np.array([yy]))["u"][0]

            wxx = (w_at(x + h, y) - 2 * w_at(x, y) + w_at(x - h, y)) / h**2
            wyy = (w_at(x, y + h) - 2 * w_at(x, y) + w_at(x, y - h)) / h**2
            wxy = (
                w_at(x + h, y + h) - w_at(x + h, y - h)
                - w_at(x - h, y + h) + w_at(x - h, y - h)
            ) / (4 * h**2)
            Mfd = -(d * d / 12.0) * np.array([[wxx, wxy], [wxy, wyy]])
            scale = np.abs(got["M"][i]).max() + 1e-12
            assert np.abs(got["M"][i] - Mfd).max() < 2e-5 * scale + 1e-8

            du = np.zeros((2, 2))
            du[:, 0] = (u_at(x + h, y) - u_at(x - h, y)) / (2 * h)
            du[:, 1] = (u_at(x, y + h) - u_at(x, y - h)) / (2 * h)
            Nfd = 0.5 * (du + du.T) + B * w_at(x, y)
            scale = np.abs(got["N"][i]).max() + 1e-12
            assert np.abs(got["N"][i] - Nfd).max() < 2e-5 * scale + 1e-8


def test_boundary_conditions_of_modes():
    rng = np.random.default_rng(1)
    t = rng.uniform(-1.0, 1.0, 7)
    ones = np.ones_like(t)
    for kind in KINDS:
        ref = FourierReference(kind, 1e-2)
        peak = ref.evaluate(np.zeros(1), np.zeros(1))["w"][0]
        for sx in (-1.0, 1.0):
            vals = ref.evaluate(sx * ones, t)
            assert np.abs(vals["w"]).max() < 1e-10 * abs(peak)
            comp = 0 if kind == "hyperbolic" else 1
            assert np.abs(vals["u"][:, comp]).max() < 1e-10 * np.abs(
                ref.evaluate(t, t)["u"]).max()
            valsy = ref.evaluate(t, sx * ones)
            assert np.abs(valsy["w"]).max() < 1e-10 * abs(peak)


def test_even_symmetry_of_w():
    rng = np.random.default_rng(2)
    x, y = rng.uniform(-1.0, 1.0, (2, 9))
    for kind in KINDS:
        ref = FourierReference(kind, 1e-2)
        w = ref.evaluate(x, y)["w"]
        assert np.allclose(ref.evaluate(-x, y)["w"], w, rtol=1e-12)
        assert np.allclose(ref.evaluate(x, -y)["w"], w, rtol=1e-12)


def test_truncation_change_small_at_random_points():
    # measured adequacy bound, normalized by the peak deflection; the
    # series tail at the load point itself is one-signed and larger
    rng = np.random.default_rng(42)
    pts = rng.uniform(-0.95, 0.95, (10, 2))
    for kind in KINDS:
        a = FourierReference(kind, 1e-2, 100)
        b = FourierReference(kind, 1e-2, 150)
        wa = a.evaluate(pts[:, 0], pts[:, 1])["w"]
        wb = b.evaluate(pts[:, 0], pts[:, 1])["w"]
        peak = b.evaluate(np.zeros(1), np.zeros(1))["w"][0]
        assert np.abs(wa - wb).max() / abs(peak) < 1e-6


def test_inextensional_solution():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, 11)
    y = rng.uniform(0.0, np.pi / 4.0, 11)
    for d in (1e-2, 1e-3):
        ref = InextensionalReference(d)
        vals = ref.evaluate(x, y)
        scale = 3.0 / (4.0 * d * d)
        # membrane strain eps(u) + B w vanishes identically
        eps22 = -(3.0 / (4.0 * d * d)) * np.cos(2.0 * y)
        assert np.abs(eps22 + vals["w"]).max() <= 1e-13 * scale
        assert np.abs(vals["N"]).max() == 0.0
        # M22 = cos(2y)/4 independent of thickness
        assert np.allclose(vals["M"][:, 1, 1], 0.25 * np.cos(2.0 * y),
                           rtol=1e-14)
        assert np.abs(vals["M"][:, 0, 0]).max() == 0.0
        w_rim = ref.evaluate(x, np.full_like(x, np.pi / 4.0))["w"]
        assert np.abs(w_rim).max() < 1e-10 * scale


class _ZeroReference:
    def evaluate(self, x, y):
        shape = np.broadcast(x, y).shape
        return {"w": np.zeros(shape), "u": np.zeros(shape + (2,)),
                "M": np.zeros(shape + (2, 2)), "N": np.zeros(shape + (2, 2))}


def test_error_norms_zero():
    mesh = initial_rectangle_mesh((0.0, 1.0, 0.0, 1.0))
    prob = ShellProblem(rect=(0.0, 1.0, 0.0, 1.0), B=np.zeros((2, 2)), d=0.5,
                        f=None, p=None, bc={})
    errs = error_norms(mesh, prob, np.zeros((4, 10)), _ZeroReference())
    assert all(v == 0.0 for v in errs.values())


def test_error_norm_closed_form_moment():
    # zero discrete solution against the inextensional reference:
    # err(M) = (1/d) || cos(2y)/4 || over (-1,1) x (0, pi/4)
    prob = make_benchmark("cyl_free", d=1e-2)
    mesh = initial_rectangle_mesh(prob.rect)
    for _ in range(2):
        mesh = refine(mesh, np.arange(mesh.ntriangles))
    errs = error_norms(mesh, prob, np.zeros((mesh.ntriangles, 10)),
                       make_reference(prob))
    expect = np.sqrt(np.pi) / 8.0 / prob.d
    assert np.isclose(errs["err_M"], expect, rtol=1e-9)


def test_error_norm_scaling_weights():
    # difference constant 1 in each slot: err_w = d |Omega|^1/2 etc.
    rect = (0.0, 2.0, 0.0, 1.0)
    mesh = initial_rectangle_mesh(rect)
    Cd = np.diag([2.0, 0.5])
    prob = ShellProblem(rect=rect, B=np.zeros((2, 2)), d=0.25, f=None, p=None,
                        bc={}, C_disp=Cd)
    area = 2.0

    class _Const:
        def evaluate(self, x, y):
            shape = np.broadcast(x, y).shape
            out = _ZeroReference().evaluate(x, y)
            out["w"] = np.ones(shape)
            out["u"][..., 0] = 1.0
            out["M"][..., 0, 1] = out["M"][..., 1, 0] = 1.0
            out["N"][..., 1, 1] = 1.0
            return out

    errs = error_norms(mesh, prob, np.zeros((4, 10)), _Const())
    assert np.isclose(errs["err_w"], 0.25 * np.sqrt(area), rtol=1e-12)
    assert np.isclose(errs["err_u"], 2.0 * np.sqrt(area), rtol=1e-12)
    assert np.isclose(errs["err_M"], np.sqrt(2.0 * area) / 0.25, rtol=1e-12)
    assert np.isclose(errs["err_N"], np.sqrt(area), rtol=1e-12)


def test_scordelis_lo_functional_hand_values():
    prob = make_benchmark("scordelis_lo")
    mesh = initial_rectangle_mesh(prob.rect)
    alpha = 2.0 * np.pi / 9.0
    fields = np.zeros((4, 10))
    assert scordelis_lo_functional(mesh, prob, fields) == 0.0
    # corner (0, alpha R) is vertex 3, shared by elements 2 and 3
    fields[2, 1], fields[2, 2] = 1.0, 2.0
    fields[3, 1], fields[3, 2] = 3.0, -1.0
    expect = np.mean([1.0 * np.sin(alpha) - 2.0 * np.cos(alpha),
                      3.0 * np.sin(alpha) + 1.0 * np.cos(alpha)])
    assert np.isclose(scordelis_lo_functional(mesh, prob, fields), expect,
                      rtol=1e-14)


def test_scordelis_lo_functional_errors():
    prob = make_benchmark("scordelis_lo")
    tri = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.7]]),
               np.array([[0, 1, 2]]))
    with pytest.raises(ValueError):
        scordelis_lo_functional(tri, prob, np.zeros((1, 10)))
    # corner lands on an interior vertex -> rejected
    inner = ShellProblem(rect=(0.0, 1.0, -1.0, 0.0),
                         B=[[0.0, 0.0], [0.0, 1.0 / 25.0]], d=0.25,
                         f=None, p=None, bc={})
    square = initial_rectangle_mesh((-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        scordelis_lo_functional(square, inner, np.zeros((4, 10)))


def test_locate_points_and_line_sampling():
    mesh = initial_rectangle_mesh((-1.0, 1.0, -1.0, 1.0))
    mesh = refine(mesh, np.arange(4))
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.99, 0.99, (40, 2))
    els = locate_points(mesh, pts)
    coords = mesh.triangle_coords()
    for p, t in zip(pts, els):
        a, b, c = coords[t]
        J = np.column_stack([b - a, c - a])
        xi = np.linalg.solve(J, p - a)
        assert xi.min() >= -1e-12 and xi.sum() <= 1.0 + 1e-12
    assert np.array_equal(els, locate_points(mesh, pts))
    fields = np.arange(mesh.ntriangles * 10, dtype=float).reshape(-1, 10)
    sampled = sample_fields_on_line(mesh, fields, pts)
    assert np.array_equal(sampled, fields[els])
    with pytest.raises(ValueError):
        locate_points(mesh, np.array([[2.0, 0.0]]))


def test_make_reference_mapping():
    assert make_reference(make_benchmark("cyl_free")) .__class__ is InextensionalReference
    ref = make_reference(make_benchmark("point_parabolic"))
    assert isinstance(ref, FourierReference) and ref.kind == "parabolic"
    assert make_reference(make_benchmark("scordelis_lo")) is None
    assert make_reference(make_benchmark("cyl_sliding")) is None


def test_evaluator_hook():
    prob = make_benchmark("cyl_free")
    ev = make_evaluator(prob)
    mesh = initial_rectangle_mesh(prob.rect)
    extras = ev(prob, mesh, np.zeros((4, 10)))
    assert set(extras) == {"err_w", "err_u", "err_M", "err_N"}
    sl = make_benchmark("scordelis_lo")
    extras = make_evaluator(sl)(sl, initial_rectangle_mesh(sl.rect),
                                np.zeros((4, 10)))
    assert set(extras) == {"functional"}
    sliding = make_benchmark("cyl_sliding")
    assert make_evaluator(sliding)(sliding, mesh, np.zeros((4, 10))) == {}


def test_free_cylinder_errors_decrease():
    prob = make_benchmark("cyl_free")
    run = adaptive_loop(prob, AdaptiveConfig(k=1, mode="uniform", max_levels=2),
                        evaluator=make_evaluator(prob))
    errw = [rec.extras["err_w"] for rec in run.levels]
    errM = [rec.extras["err_M"] for rec in run.levels]
    assert errw[-1] < errw[0]
    assert errM[-1] < errM[0]


def test_evaluator_carries_values_of_unchanged_elements(monkeypatch):
    # the hook evaluates the series only on the elements whose vertex
    # coordinates are new to the level, and its errors equal fresh ones
    calls = []
    evaluate = FourierReference.evaluate

    def counting(self, x, y):
        calls.append(np.size(x))
        return evaluate(self, x, y)

    monkeypatch.setattr(FourierReference, "evaluate", counting)
    prob = make_benchmark("point_parabolic", d=1e-2)
    ev = make_evaluator(prob)
    run = adaptive_loop(prob, AdaptiveConfig(k=1, max_levels=4), evaluator=ev)
    assert len(run.levels) == 5
    npts = list(calls)
    nq = len(triangle_rule(ERROR_RULE_DEGREE).weights)
    fresh = FourierReference("parabolic", prob.d)
    before, new = set(), []
    for rec in run.levels:
        keys = [c.tobytes() for c in rec.mesh.triangle_coords()]
        new.append(sum(key not in before for key in keys))
        before = set(keys)
        want = error_norms(rec.mesh, prob, rec.fields, fresh)
        for name, v in want.items():
            assert abs(rec.extras[name] - v) <= 1e-13 * v
    assert npts == [nq * n for n in new]
    assert sum(new) < sum(rec.nelems for rec in run.levels)

    # afterwards, on an unrelated mesh: the fresh answer
    mesh = refine(initial_rectangle_mesh((-0.5, 1.0, -1.0, 0.7)), np.arange(4))
    fields = np.random.default_rng(6).normal(size=(mesh.ntriangles, 10))
    got = ev(prob, mesh, fields)
    want = error_norms(mesh, prob, fields, fresh)
    for name, v in want.items():
        assert abs(got[name] - v) <= 1e-13 * v
