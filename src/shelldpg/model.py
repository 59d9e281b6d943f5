"""Shell problem definitions: curvature, material law, loads, scalings.

The solver works entirely in rescaled variables (displacements absorb the
factor d*E), so the Young modulus is not a problem parameter: it enters
only through the load data of the Scordelis-Lo benchmark.  All built-in
benchmarks use nu = 0.

The test norm carries the scalings D, C_disp and c_Q.  Each built-in
benchmark sets the published values in its branch of `make_benchmark`;
`select_scalings` holds the generic rule for any other problem.

Boundary conditions are recorded per rectangle side as the set of
kinematic variables constrained to zero, drawn from {"u1", "u2", "w",
"dnw"}.  All essential data are homogeneous; the complementary trace
constraints (dual conditions on the force/moment traces) are derived in
the trace module.
"""

from dataclasses import dataclass, field

import numpy as np

SIDES = ("xmin", "xmax", "ymin", "ymax")
BC_VARS = ("u1", "u2", "w", "dnw")

BENCHMARKS = (
    "scordelis_lo",
    "cyl_clamped",
    "cyl_free",
    "cyl_sliding",
    "point_elliptic",
    "point_parabolic",
    "point_hyperbolic",
    "custom",
)


def apply_C(eps, nu):
    """Plane-stress material action C eps = ((1-nu) eps + nu tr(eps) I)/(1-nu^2).

    Acts on the last two axes; nu = 0 is the identity.
    """
    if abs(nu) >= 1.0:
        raise ValueError("material singular for |nu| >= 1")
    eps = np.asarray(eps, dtype=float)
    out = (1.0 - nu) * eps.copy()
    tr = eps[..., 0, 0] + eps[..., 1, 1]
    out[..., 0, 0] += nu * tr
    out[..., 1, 1] += nu * tr
    return out / (1.0 - nu * nu)


def apply_Cinv(sigma, nu):
    """Inverse material action: C^-1 sigma = (1+nu) sigma - nu tr(sigma) I."""
    if abs(nu) >= 1.0:
        raise ValueError("material singular for |nu| >= 1")
    sigma = np.asarray(sigma, dtype=float)
    out = (1.0 + nu) * sigma.copy()
    tr = sigma[..., 0, 0] + sigma[..., 1, 1]
    out[..., 0, 0] -= nu * tr
    out[..., 1, 1] -= nu * tr
    return out


@dataclass(frozen=True)
class PointLoad:
    """Vertical point load marker: f = weight * delta at `point`."""

    point: tuple = (0.0, 0.0)
    weight: float = 1.0


@dataclass(frozen=True)
class ShellProblem:
    """Scaled shallow-shell problem on an axis-aligned rectangle.

    `f` is the vertical load: either a vectorized callable f(x, y) or a
    PointLoad.  `p` is the tangential load, a callable returning shape
    (..., 2), or None for zero.  `bc` maps each side to the frozenset of
    constrained kinematic variables.  D, C_disp and c_Q are the scaling
    parameters of the test norm.
    """

    rect: tuple
    B: np.ndarray
    d: float
    nu: float = 0.0
    f: object = None
    p: object = None
    bc: dict = field(default_factory=dict)
    D: float = 1.0
    C_disp: np.ndarray = None
    c_Q: float = 1.0
    kind: str = "custom"

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.shape != (2, 2) or not np.allclose(B, B.T, atol=1e-14):
            raise ValueError("curvature tensor must be symmetric 2x2")
        object.__setattr__(self, "B", B)
        if not (0.0 < self.d < np.inf and 0.0 < self.D < np.inf):
            raise ValueError("thickness and scaling length must be finite "
                             "and positive")
        C = np.eye(2) if self.C_disp is None else np.asarray(self.C_disp, float)
        if C.shape != (2, 2) or not np.allclose(C, C.T, atol=1e-14):
            raise ValueError("C_disp must be symmetric 2x2")
        if np.any(np.linalg.eigvalsh(C) <= 0.0):
            raise ValueError("C_disp must be positive definite")
        object.__setattr__(self, "C_disp", C)
        if not 0.0 < self.c_Q <= 1.0:
            raise ValueError("c_Q must lie in (0, 1]")
        bc = {}
        for side in SIDES:
            vars_ = frozenset(self.bc.get(side, ()))
            unknown = vars_ - set(BC_VARS)
            if unknown:
                raise ValueError(f"unknown BC variables {sorted(unknown)} on {side}")
            bc[side] = vars_
        unknown_sides = set(self.bc) - set(SIDES)
        if unknown_sides:
            raise ValueError(f"unknown BC sides {sorted(unknown_sides)}")
        object.__setattr__(self, "bc", bc)

    @property
    def point_load(self):
        return self.f if isinstance(self.f, PointLoad) else None


def select_scalings(B, d, rect):
    """Scaling parameters (D, C_disp, c_Q) of the test norm of a problem
    that is not a built-in benchmark: D = diam(Omega), C_disp = c*I with
    c = min{1, d / (D^2 |B|_inf)} and the convention min{1, 1/0} := 1,
    and c_Q as for every problem (`_shear_scaling`).
    """
    Bmax = float(np.abs(np.asarray(B, dtype=float)).max())
    x0, x1, y0, y1 = rect
    D = float(np.hypot(x1 - x0, y1 - y0))
    c = 1.0 if Bmax == 0.0 else min(1.0, d / (Bmax * D * D))
    return D, np.diag([c, c]), _shear_scaling(B, d, D)


def _shear_scaling(B, d, D):
    """c_Q = min{1, d^2 / (|B|_inf^2 D^4)}, with min{1, 1/0} := 1."""
    Bmax = float(np.abs(np.asarray(B, dtype=float)).max())
    return 1.0 if Bmax == 0.0 else min(1.0, d * d / (Bmax * Bmax * D**4))


def eval_loads(problem, x, y):
    """Loads at points: (f values, p values (..., 2)).

    Point loads are flagged on the problem, not evaluated pointwise;
    calling this for one raises.
    """
    if problem.point_load is not None:
        raise ValueError("point load is a descriptor, not a pointwise function")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f = np.zeros(np.broadcast(x, y).shape) if problem.f is None else problem.f(x, y)
    if problem.p is None:
        p = np.zeros(np.broadcast(x, y).shape + (2,))
    else:
        p = problem.p(x, y)
    return np.asarray(f, dtype=float), np.asarray(p, dtype=float)


def make_benchmark(kind, d=None, **overrides):
    """Construct a built-in benchmark problem.

    Each kind sets the scaling parameters D and C_disp of the published
    per-case table, and c_Q follows from them (`_shear_scaling`), unless
    keyword arguments D, C_disp, c_Q override them.
    """
    if kind == "scordelis_lo":
        R = 25.0
        alpha = 2.0 * np.pi / 9.0
        d = 0.25 if d is None else float(d)
        E = 4.32e8
        g = 90.0
        rect = (0.0, R, 0.0, alpha * R)
        B = np.array([[0.0, 0.0], [0.0, 1.0 / R]])

        # g / (d E) is formed per call, so that d = 0 reaches ShellProblem's check
        def f(x, y):
            return -g / (d * E) * np.cos(y / R)

        def p(x, y):
            out = np.zeros(np.broadcast(x, y).shape + (2,))
            out[..., 1] = g / (d * E) * np.sin(y / R)
            return out

        bc = {
            "xmin": {"u1", "dnw"},
            "ymin": {"u2", "dnw"},
            "xmax": {"u2", "w"},
            "ymax": set(),
        }
        prob = dict(rect=rect, B=B, d=d, f=f, p=p, bc=bc, D=R,
                    C_disp=np.diag([1.0, d / R]))
    elif kind in ("cyl_clamped", "cyl_free", "cyl_sliding"):
        d = 1e-2 if d is None else float(d)
        rect = (-1.0, 1.0, 0.0, np.pi / 4.0)
        B = np.array([[0.0, 0.0], [0.0, 1.0]])

        def f(x, y):
            return np.cos(2.0 * y) * np.ones_like(np.asarray(x, dtype=float))

        bc = {"ymax": {"w", "u1"}, "ymin": {"dnw", "u2"}}
        if kind == "cyl_clamped":
            ends, C_disp = {"u1", "u2", "w", "dnw"}, np.diag([1.0, d])
        elif kind == "cyl_sliding":
            ends, C_disp = {"w"}, np.diag([d, d])
        else:
            ends, C_disp = set(), np.diag([d, d])
        bc["xmin"] = set(ends)
        bc["xmax"] = set(ends)
        prob = dict(rect=rect, B=B, d=d, f=f, bc=bc, D=1.0, C_disp=C_disp)
    elif kind in ("point_elliptic", "point_parabolic", "point_hyperbolic"):
        d = 1e-2 if d is None else float(d)
        rect = (-1.0, 1.0, -1.0, 1.0)
        B = {
            "point_elliptic": np.eye(2),
            "point_parabolic": np.array([[0.0, 0.0], [0.0, 1.0]]),
            "point_hyperbolic": np.array([[0.0, 1.0], [1.0, 0.0]]),
        }[kind]
        if kind == "point_hyperbolic":
            bc = {
                "xmin": {"u1", "w"},
                "xmax": {"u1", "w"},
                "ymin": {"u2", "w"},
                "ymax": {"u2", "w"},
            }
            C_disp = np.eye(2)
        else:
            bc = {
                "xmin": {"u2", "w"},
                "xmax": {"u2", "w"},
                "ymin": {"u1", "w"},
                "ymax": {"u1", "w"},
            }
            C_disp = np.diag([d, d])
        prob = dict(rect=rect, B=B, d=d, f=PointLoad((0.0, 0.0), 1.0), bc=bc,
                    D=1.0, C_disp=C_disp)
    else:
        raise ValueError(f"unknown benchmark kind {kind!r}")

    prob.update(c_Q=_shear_scaling(B, d, prob["D"]), kind=kind)
    prob.update(overrides)
    return ShellProblem(**prob)
