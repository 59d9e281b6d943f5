"""Reference solutions, error norms, and benchmark functionals.

Point-load shells: Fourier series with modes cos/sin((m-1/2) pi x) and
half-integer frequencies chosen so the kinematic boundary conditions
hold mode by mode; bending moments and membrane forces follow from
termwise differentiation and the constitutive relations (nu = 0, so the
material operator drops out).  Free cylinder: the closed-form
inextensional solution.  Series evaluation is separable, one small GEMM
per trig signature and point chunk.
"""

import numpy as np

from .polyquad import triangle_geometry, triangle_rule, map_points

_CHUNK = 8192


class FourierReference:
    """Truncated double Fourier series reference for the point loads."""

    KINDS = ("elliptic", "parabolic", "hyperbolic")

    def __init__(self, kind, d, bound=100):
        if kind not in self.KINDS:
            raise ValueError(f"unknown Fourier geometry {kind!r}")
        if d <= 0.0:
            raise ValueError("thickness must be positive")
        self.kind = kind
        self.d = float(d)
        self.bound = int(bound)
        m = np.arange(1, self.bound + 1)
        M = (m - 0.5) * np.pi
        N = M.copy()
        Mc, Nr = M[:, None], N[None, :]
        K = Mc**2 + Nr**2
        d2 = self.d * self.d
        if kind == "elliptic":
            W = 12.0 / (d2 * K**2 + 12.0)
            den = d2 * K**3 + 12.0 * K
            alpha = -12.0 * Mc / den
            beta = -12.0 * Nr / den
        elif kind == "parabolic":
            den = d2 * K**4 + 12.0 * Mc**4
            W = 12.0 * K**2 / den
            alpha = 12.0 * Mc * Nr**2 / den
            beta = (-24.0 * Mc**2 * Nr + 12.0 * Nr**3) / den
        else:
            den = d2 * K**4 + 48.0 * Mc**2 * Nr**2
            W = 12.0 * K**2 / den
            alpha = -24.0 * Nr**3 / den
            beta = -24.0 * Mc**3 / den
        self.M, self.N = M, N
        self.W, self.alpha, self.beta = W, alpha, beta

        # coefficient matrix and trig signature per scalar series;
        # signature letters: x-factor, y-factor (C = cos, S = sin)
        fac = d2 / 12.0
        coef = {
            "w": ("CC", W),
            "M11": ("CC", fac * W * Mc**2),
            "M12": ("SS", -fac * W * Mc * Nr),
            "M22": ("CC", fac * W * Nr**2),
        }
        if kind == "hyperbolic":
            coef["u1"] = ("CS", alpha)
            coef["u2"] = ("SC", beta)
            coef["N11"] = ("SS", -alpha * Mc)
            coef["N22"] = ("SS", -beta * Nr)
            coef["N12"] = ("CC", 0.5 * (alpha * Nr + beta * Mc) + W)
        else:
            coef["u1"] = ("SC", alpha)
            coef["u2"] = ("CS", beta)
            coef["N12"] = ("SS", -0.5 * (alpha * Nr + beta * Mc))
            if kind == "elliptic":
                coef["N11"] = ("CC", alpha * Mc + W)
            else:
                coef["N11"] = ("CC", alpha * Mc)
            coef["N22"] = ("CC", beta * Nr + W)
        self._coef = coef

    def evaluate(self, x, y):
        """Series values at points: dict with w, u, M, N arrays."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
        xf = np.broadcast_to(x, shape).ravel()
        yf = np.broadcast_to(y, shape).ravel()
        out = {name: np.empty(xf.size) for name in self._coef}
        for lo in range(0, xf.size, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, xf.size))
            xs, ys = xf[sl], yf[sl]
            fx = {"C": np.cos(np.outer(xs, self.M)),
                  "S": np.sin(np.outer(xs, self.M))}
            gy = {"C": np.cos(np.outer(ys, self.N)),
                  "S": np.sin(np.outer(ys, self.N))}
            for name, (sig, A) in self._coef.items():
                out[name][sl] = ((fx[sig[0]] @ A) * gy[sig[1]]).sum(axis=1)
        w = out["w"].reshape(shape)
        u = np.stack([out["u1"], out["u2"]], axis=-1).reshape(shape + (2,))
        Mt = np.empty(shape + (2, 2))
        Mt[..., 0, 0] = out["M11"].reshape(shape)
        Mt[..., 0, 1] = Mt[..., 1, 0] = out["M12"].reshape(shape)
        Mt[..., 1, 1] = out["M22"].reshape(shape)
        Nt = np.empty(shape + (2, 2))
        Nt[..., 0, 0] = out["N11"].reshape(shape)
        Nt[..., 0, 1] = Nt[..., 1, 0] = out["N12"].reshape(shape)
        Nt[..., 1, 1] = out["N22"].reshape(shape)
        return {"w": w, "u": u, "M": Mt, "N": Nt}


class InextensionalReference:
    """Closed-form free-cylinder solution with vanishing membrane strain."""

    def __init__(self, d):
        if d <= 0.0:
            raise ValueError("thickness must be positive")
        self.d = float(d)

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
        yb = np.broadcast_to(y, shape)
        c = np.cos(2.0 * yb)
        d2 = self.d * self.d
        w = (3.0 / (4.0 * d2)) * c
        u = np.zeros(shape + (2,))
        u[..., 1] = -(3.0 / (8.0 * d2)) * np.sin(2.0 * yb)
        Mt = np.zeros(shape + (2, 2))
        Mt[..., 1, 1] = 0.25 * c
        Nt = np.zeros(shape + (2, 2))
        return {"w": w, "u": u, "M": Mt, "N": Nt}


def make_reference(problem):
    """Reference evaluator for a benchmark problem, or None."""
    kind = problem.kind
    if kind == "cyl_free":
        return InextensionalReference(problem.d)
    if kind.startswith("point_"):
        return FourierReference(kind.split("_", 1)[1], problem.d)
    return None


def error_norms(mesh, problem, fields, reference, quad_degree=8):
    """Scaled L2 errors of the piecewise constant fields.

    err(w) = d ||w - w_h||, err(u) = ||C_disp (u - u_h)||,
    err(M) = (1/d) ||M - M_h||_F, err(N) = ||N - N_h||_F.
    """
    rule = triangle_rule(quad_degree)
    coords = mesh.triangle_coords()
    _, detJ, _ = triangle_geometry(coords)
    wd = rule.weights[None, :] * detJ[:, None]
    phys = map_points(coords, rule.points)
    ref = reference.evaluate(phys[..., 0], phys[..., 1])

    dw = ref["w"] - fields[:, None, 2]
    du = ref["u"] - fields[:, None, 0:2]
    Nh = fields[:, 3:7].reshape(-1, 2, 2)
    dN = ref["N"] - Nh[:, None]
    Mh = np.empty((len(fields), 2, 2))
    Mh[:, 0, 0] = fields[:, 7]
    Mh[:, 0, 1] = Mh[:, 1, 0] = fields[:, 8]
    Mh[:, 1, 1] = fields[:, 9]
    dM = ref["M"] - Mh[:, None]

    Cdu = np.einsum("ab,eqb->eqa", problem.C_disp, du)
    d = problem.d
    return {
        "err_w": d * np.sqrt(np.sum(wd * dw**2)),
        "err_u": np.sqrt(np.sum(wd * np.sum(Cdu**2, axis=-1))),
        "err_M": np.sqrt(np.sum(wd * np.sum(dM**2, axis=(-2, -1)))) / d,
        "err_N": np.sqrt(np.sum(wd * np.sum(dN**2, axis=(-2, -1)))),
    }


def scordelis_lo_functional(mesh, problem, fields):
    """Engineering displacement u2 sin(a) - w cos(a) at the rim corner.

    Averaged over the piecewise constant values of all elements whose
    closure contains the corner point (0, a R) of the computational
    rectangle.
    """
    rect = problem.rect
    R = 1.0 / problem.B[1, 1]
    alpha = rect[3] / R
    corner = np.array([rect[0], rect[3]])
    scale = max(abs(v) for v in rect)
    dist = np.abs(mesh.vertices - corner).max(axis=1)
    v = int(np.argmin(dist))
    if dist[v] > 1e-12 * scale:
        raise ValueError("corner point is not a mesh vertex")
    if not mesh.vertex_is_boundary[v]:
        raise ValueError("corner point is not on the mesh boundary")
    els = np.nonzero(np.any(mesh.triangles == v, axis=1))[0]
    vals = fields[els, 1] * np.sin(alpha) - fields[els, 2] * np.cos(alpha)
    return float(vals.mean())


def locate_points(mesh, points):
    """Lowest-index element containing each point (tol 1e-12)."""
    points = np.asarray(points, dtype=float)
    coords = mesh.triangle_coords()
    _, _, Jinv = triangle_geometry(coords)
    rel = points[None, :, :] - coords[:, None, 0, :]
    xi = np.einsum("tba,tpa->tpb", Jinv, rel)
    tol = 1e-12
    inside = (xi[..., 0] >= -tol) & (xi[..., 1] >= -tol) & (
        xi.sum(axis=-1) <= 1.0 + tol
    )
    found = inside.argmax(axis=0)
    missing = ~inside[found, np.arange(len(points))]
    if np.any(missing):
        p = points[np.nonzero(missing)[0][0]]
        raise ValueError(f"point {tuple(p)} lies outside the mesh")
    return found


def sample_fields_on_line(mesh, fields, points):
    """Piecewise constant field rows at the given physical points."""
    return fields[locate_points(mesh, points)]


def make_evaluator(problem):
    """Per-level extras hook: reference errors and benchmark functional."""
    reference = make_reference(problem)

    def evaluator(prob, mesh, fields):
        extras = {}
        if reference is not None:
            extras.update(error_norms(mesh, prob, fields, reference))
        if prob.kind == "scordelis_lo":
            extras["functional"] = scordelis_lo_functional(mesh, prob, fields)
        return extras

    return evaluator
