"""Material law, problem validation, scaling selection, benchmark table."""

import numpy as np
import pytest

from shelldpg.model import (
    PointLoad,
    ShellProblem,
    apply_C,
    apply_Cinv,
    eval_loads,
    make_benchmark,
    select_scalings,
)


def random_sym(rng, n):
    a = rng.standard_normal((n, 2, 2))
    return a + a.transpose(0, 2, 1)


def test_apply_C_identity_at_nu_zero():
    rng = np.random.default_rng(0)
    eps = random_sym(rng, 10)
    assert np.allclose(apply_C(eps, 0.0), eps)
    assert np.allclose(apply_Cinv(eps, 0.0), eps)


def test_apply_C_on_identity():
    out = apply_C(np.eye(2), 0.3)
    assert np.allclose(out, (1.3 / 0.91) * np.eye(2), atol=1e-14)


def test_apply_Cinv_on_identity():
    out = apply_Cinv(np.eye(2), 0.3)
    assert np.allclose(out, 0.7 * np.eye(2), atol=1e-15)
    assert np.allclose(apply_C(out, 0.3), np.eye(2), atol=1e-14)


def test_apply_Cinv_tracefree():
    sigma = np.array([[1.0, 2.0], [2.0, -1.0]])
    assert np.allclose(apply_Cinv(sigma, 0.3), 1.3 * sigma)


def test_apply_C_round_trip():
    rng = np.random.default_rng(4)
    sigma = random_sym(rng, 100)
    for nu in (0.0, 0.3, -0.2, 0.5):
        assert np.max(np.abs(apply_C(apply_Cinv(sigma, nu), nu) - sigma)) < 1e-13


def test_apply_C_singular_material():
    with pytest.raises(ValueError):
        apply_C(np.eye(2), 1.0)
    with pytest.raises(ValueError):
        apply_Cinv(np.eye(2), -1.0)


def test_apply_C_self_adjoint_positive():
    rng = np.random.default_rng(9)
    eps = random_sym(rng, 50)
    tau = random_sym(rng, 50)
    for nu in (0.0, 0.3):
        Ceps = apply_C(eps, nu)
        Ctau = apply_C(tau, nu)
        lhs = np.einsum("nij,nij->n", Ceps, tau)
        rhs = np.einsum("nij,nij->n", eps, Ctau)
        assert np.allclose(lhs, rhs, atol=1e-12)
        quad = np.einsum("nij,nij->n", Ceps, eps)
        assert np.all(quad > 0.0)


def test_scalings_cylinder_cQ():
    prob = make_benchmark("cyl_clamped")
    assert prob.D == 1.0
    assert np.allclose(prob.C_disp, np.diag([1.0, 1e-2]))
    assert prob.c_Q == pytest.approx(1e-4)


def test_scalings_flat_plate():
    D, C_disp, c_Q = select_scalings(np.zeros((2, 2)), 0.3, (0.0, 1.0, 0.0, 1.0))
    assert np.allclose(C_disp, np.eye(2))
    assert c_Q == 1.0


def test_scalings_scordelis_lo():
    prob = make_benchmark("scordelis_lo")
    assert prob.D == 25.0
    assert np.allclose(prob.C_disp, np.diag([1.0, 0.01]))


# (d, D, diagonal of C_disp, c_Q) of every built-in benchmark at its
# default thickness and at d = 1e-3, from the published per-case table
SCALINGS = {
    "scordelis_lo": [(None, 25.0, (1.0, 1e-2), 1e-4), (1e-3, 25.0, (1.0, 4e-5), 1.6e-9)],
    "cyl_clamped": [(None, 1.0, (1.0, 1e-2), 1e-4), (1e-3, 1.0, (1.0, 1e-3), 1e-6)],
    "cyl_free": [(None, 1.0, (1e-2, 1e-2), 1e-4), (1e-3, 1.0, (1e-3, 1e-3), 1e-6)],
    "cyl_sliding": [(None, 1.0, (1e-2, 1e-2), 1e-4), (1e-3, 1.0, (1e-3, 1e-3), 1e-6)],
    "point_elliptic": [(None, 1.0, (1e-2, 1e-2), 1e-4), (1e-3, 1.0, (1e-3, 1e-3), 1e-6)],
    "point_parabolic": [(None, 1.0, (1e-2, 1e-2), 1e-4), (1e-3, 1.0, (1e-3, 1e-3), 1e-6)],
    "point_hyperbolic": [(None, 1.0, (1.0, 1.0), 1e-4), (1e-3, 1.0, (1.0, 1.0), 1e-6)],
}


@pytest.mark.parametrize("kind", [*SCALINGS, "custom"])
def test_scalings_of_every_benchmark(kind):
    if kind == "custom":
        # the generic rule: D = diam, c = min{1, d / (D^2 |B|_inf)}
        B = np.array([[0.0, 0.5], [0.5, 2.0]])
        got = [select_scalings(B, 1e-2, (0.0, 3.0, -1.0, 3.0))]
        want = [(5.0, (2e-4, 2e-4), 4e-8)]
    else:
        got = [(p.D, p.C_disp, p.c_Q) for p in
               (make_benchmark(kind, d=d) for d, *_ in SCALINGS[kind])]
        want = [case[1:] for case in SCALINGS[kind]]
    for (D, C_disp, c_Q), (D0, diag0, c_Q0) in zip(got, want, strict=True):
        assert D == D0
        assert C_disp == pytest.approx(np.diag(diag0), rel=1e-15, abs=0.0)
        assert c_Q == pytest.approx(c_Q0, rel=1e-15)


def test_scalings_scale_consistency():
    # doubling B halves c while the min is unsaturated
    rect = (0.0, 1.0, 0.0, 1.0)
    B1 = np.array([[0.0, 0.0], [0.0, 4.0]])
    _, C1, _ = select_scalings(B1, 1e-3, rect)
    _, C2, _ = select_scalings(2.0 * B1, 1e-3, rect)
    assert C1[0, 0] == pytest.approx(2.0 * C2[0, 0])


def test_problem_validation():
    good = dict(rect=(0.0, 1.0, 0.0, 1.0), B=np.eye(2), d=0.1)
    with pytest.raises(ValueError, match="symmetric"):
        ShellProblem(**{**good, "B": np.array([[0.0, 1.0], [0.0, 0.0]])})
    with pytest.raises(ValueError, match="positive"):
        ShellProblem(**{**good, "d": 0.0})
    with pytest.raises(ValueError, match="BC"):
        ShellProblem(**good, bc={"xmin": {"u3"}})
    with pytest.raises(ValueError, match="sides"):
        ShellProblem(**good, bc={"left": {"u1"}})
    with pytest.raises(ValueError, match="definite"):
        ShellProblem(**{**good, "C_disp": np.diag([1.0, -1.0])})
    with pytest.raises(ValueError, match="c_Q"):
        ShellProblem(**good, c_Q=0.0)


@pytest.mark.parametrize("name", ["d", "D"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_problem_refuses_non_finite_lengths(name, value):
    good = dict(rect=(0.0, 1.0, 0.0, 1.0), B=np.eye(2), d=0.1)
    with pytest.raises(ValueError, match="thickness and scaling length"):
        ShellProblem(**{**good, name: value})


def test_scordelis_lo_benchmark():
    prob = make_benchmark("scordelis_lo")
    assert prob.d == 0.25
    assert np.allclose(prob.rect, (0.0, 25.0, 0.0, 25.0 * 2.0 * np.pi / 9.0))
    assert np.allclose(prob.B, [[0.0, 0.0], [0.0, 0.04]])
    assert prob.D == 25.0
    assert np.allclose(prob.C_disp, np.diag([1.0, 0.01]))
    assert prob.bc["xmin"] == {"u1", "dnw"}
    assert prob.bc["ymin"] == {"u2", "dnw"}
    assert prob.bc["xmax"] == {"u2", "w"}
    assert prob.bc["ymax"] == frozenset()
    f, p = eval_loads(prob, np.array([3.0]), np.array([0.0]))
    assert f[0] == pytest.approx(-90.0 / (0.25 * 4.32e8))
    assert p[0, 1] == pytest.approx(0.0)
    f, p = eval_loads(prob, np.array([3.0]), np.array([12.5]))
    assert p[0, 1] == pytest.approx(90.0 / (0.25 * 4.32e8) * np.sin(0.5))


def test_cylinder_benchmarks():
    for kind, ends in (
        ("cyl_clamped", {"u1", "u2", "w", "dnw"}),
        ("cyl_sliding", {"w"}),
        ("cyl_free", set()),
    ):
        prob = make_benchmark(kind)
        assert prob.d == 1e-2
        assert prob.rect == (-1.0, 1.0, 0.0, np.pi / 4.0)
        assert np.allclose(prob.B, [[0.0, 0.0], [0.0, 1.0]])
        assert prob.bc["ymax"] == {"w", "u1"}
        assert prob.bc["ymin"] == {"dnw", "u2"}
        assert prob.bc["xmin"] == ends
        assert prob.bc["xmax"] == ends
        f, _ = eval_loads(prob, np.array([0.3]), np.array([np.pi / 4.0]))
        assert f[0] == pytest.approx(0.0, abs=1e-15)
        f, _ = eval_loads(prob, np.array([0.3]), np.array([0.0]))
        assert f[0] == pytest.approx(1.0)
    clamped = make_benchmark("cyl_clamped", d=1e-3)
    assert np.allclose(clamped.C_disp, np.diag([1.0, 1e-3]))
    free = make_benchmark("cyl_free")
    assert np.allclose(free.C_disp, np.diag([1e-2, 1e-2]))


def test_point_load_benchmarks():
    for kind, Bref in (
        ("point_elliptic", np.eye(2)),
        ("point_parabolic", np.diag([0.0, 1.0])),
        ("point_hyperbolic", np.array([[0.0, 1.0], [1.0, 0.0]])),
    ):
        prob = make_benchmark(kind)
        assert prob.rect == (-1.0, 1.0, -1.0, 1.0)
        assert np.allclose(prob.B, Bref)
        load = prob.point_load
        assert isinstance(load, PointLoad)
        assert load.point == (0.0, 0.0)
        assert load.weight == 1.0
        with pytest.raises(ValueError):
            eval_loads(prob, np.array([0.0]), np.array([0.0]))
    ell = make_benchmark("point_elliptic")
    assert ell.bc["xmin"] == {"u2", "w"}
    assert ell.bc["ymin"] == {"u1", "w"}
    hyp = make_benchmark("point_hyperbolic")
    assert hyp.bc["xmin"] == {"u1", "w"}
    assert hyp.bc["ymin"] == {"u2", "w"}
    assert np.allclose(hyp.C_disp, np.eye(2))
    assert np.allclose(ell.C_disp, np.diag([1e-2, 1e-2]))


def test_unknown_benchmark():
    with pytest.raises(ValueError):
        make_benchmark("plate_with_hole")
