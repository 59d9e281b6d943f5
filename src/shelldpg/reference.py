"""Reference solutions, error norms, and benchmark functionals.

Point-load shells: Fourier series with modes cos/sin((m-1/2) pi x) and
half-integer frequencies chosen so the kinematic boundary conditions
hold mode by mode; bending moments and membrane forces follow from
termwise differentiation and the constitutive relations (nu = 0, so the
material operator drops out).  Per mode, N = e(u) + w B,
M = -(d^2/12) grad grad w, div N = 0 and -div div M + B:N = 1, the mode
coefficient of the unit point load.  Free cylinder: the closed-form
inextensional solution.

Series evaluation is separable: each of the nine scalar series is
fx(x)' A gy(y), with fx and gy the cos or sin tables of the modes.  Per
block of a few hundred points, the tables come from about 2 sqrt(bound)
complex exponentials per point by angle addition, and the coefficient
matrices of all series that share an x factor are stacked into one
matrix, so each block takes one GEMM per x factor (cos, sin); the block
keeps the tables and products in cache.
"""

import numpy as np

from .mesh import match_rows
from .polyquad import map_points, triangle_rule

# points per series block: its trig tables and GEMM products stay in
# cache (256-512 measured best, 8192 worst)
_CHUNK = 384
# degree of the triangle rule of the error norms (25 points)
ERROR_RULE_DEGREE = 8


class FourierReference:
    """Truncated double Fourier series reference for the point loads."""

    KINDS = ("elliptic", "parabolic", "hyperbolic")

    def __init__(self, kind, d, bound=100):
        if kind not in self.KINDS:
            raise ValueError(f"unknown Fourier geometry {kind!r}")
        if not 0.0 < d < np.inf:
            raise ValueError("thickness must be finite and positive")
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
            beta = (-24.0 * Mc**2 * Nr - 12.0 * Nr**3) / den
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
        # per x factor: the names of its series, cos y factors first, the
        # number of those, and their coefficient matrices side by side
        self._stacks = []
        for fx in "CS":
            names = [n for fy in "CS" for n, (sig, _) in coef.items()
                     if sig == fx + fy]
            ncos = sum(coef[n][0][1] == "C" for n in names)
            self._stacks.append(
                (fx, names, ncos, np.hstack([coef[n][1] for n in names])))
        # angle addition: m - 1 = a b + j with j < b, so that
        # (m - 1/2) pi = (j + 1/2) pi + a b pi
        b = int(np.ceil(np.sqrt(self.bound)))
        self._fine = (np.arange(b) + 0.5) * np.pi
        self._coarse = np.arange(-(-self.bound // b)) * (b * np.pi)

    def _trig(self, t):
        """cos and sin of (m - 1/2) pi t, m = 1..bound: (len(t), bound) each."""
        e = (np.exp(1j * np.outer(t, self._coarse))[:, :, None]
             * np.exp(1j * np.outer(t, self._fine))[:, None, :])
        e = e.reshape(len(t), -1)[:, :self.bound]
        return {"C": np.ascontiguousarray(e.real),
                "S": np.ascontiguousarray(e.imag)}

    def evaluate(self, x, y):
        """Series values at points: dict with w, u, M, N arrays."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
        xf = np.broadcast_to(x, shape).ravel()
        yf = np.broadcast_to(y, shape).ravel()
        vals = [np.empty((xf.size, len(names))) for _, names, _, _ in self._stacks]
        for lo in range(0, xf.size, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, xf.size))
            c = sl.stop - lo
            tab = self._trig(np.concatenate([xf[sl], yf[sl]]))
            gc, gs = tab["C"][c:], tab["S"][c:]
            for (fx, names, ncos, A), out in zip(self._stacks, vals):
                P = (tab[fx][:c] @ A).reshape(c, len(names), self.bound)
                out[sl, :ncos] = np.einsum("pkn,pn->pk", P[:, :ncos], gc)
                out[sl, ncos:] = np.einsum("pkn,pn->pk", P[:, ncos:], gs)
        out = {name: v[:, i].reshape(shape)
               for (_, names, _, _), v in zip(self._stacks, vals)
               for i, name in enumerate(names)}
        u = np.stack([out["u1"], out["u2"]], axis=-1)
        Mt = np.empty(shape + (2, 2))
        Mt[..., 0, 0] = out["M11"]
        Mt[..., 0, 1] = Mt[..., 1, 0] = out["M12"]
        Mt[..., 1, 1] = out["M22"]
        Nt = np.empty(shape + (2, 2))
        Nt[..., 0, 0] = out["N11"]
        Nt[..., 0, 1] = Nt[..., 1, 0] = out["N12"]
        Nt[..., 1, 1] = out["N22"]
        return {"w": out["w"], "u": u, "M": Mt, "N": Nt}


class InextensionalReference:
    """Closed-form free-cylinder solution with vanishing membrane strain."""

    def __init__(self, d):
        if not 0.0 < d < np.inf:
            raise ValueError("thickness must be finite and positive")
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


def _rule_values(reference, mesh, previous=None):
    """Reference values at the error rule's points of each element.

    Returns `(triangles, coords, values)`: the vertex indices and
    coordinates of the elements, and `values`, which maps w, u, M, N to
    arrays with one leading row per element.  `previous`, such a triple
    for another mesh, lends its rows to every element with the same
    vertex indices in the same order and, exactly, the same vertex
    coordinates; refinement keeps the indices of the old vertices, so
    this finds the elements it left alone.  The series is evaluated only
    at the points of the other elements.
    """
    triangles, coords = mesh.triangles, mesh.triangle_coords()
    src = np.full(len(coords), -1)
    if previous is not None:
        known_tri, known_coords, values = previous
        src = match_rows(triangles, known_tri)
        hit = np.nonzero(src >= 0)[0]
        moved = np.any(coords[hit] != known_coords[src[hit]], axis=(1, 2))
        src[hit[moved]] = -1
    old = np.nonzero(src >= 0)[0]
    new = np.nonzero(src < 0)[0]
    rule = triangle_rule(ERROR_RULE_DEGREE)
    phys = map_points(coords[new], mesh.J[new], rule.points)
    fresh = reference.evaluate(phys[..., 0], phys[..., 1])
    out = {}
    for name, v in fresh.items():
        out[name] = np.empty((len(coords),) + v.shape[1:])
        out[name][new] = v
        if len(old):
            out[name][old] = values[name][src[old]]
    return triangles, coords, out


def _field_errors(mesh, problem, fields, ref):
    """`error_norms` from the reference values `ref` of `_rule_values`
    on the elements of `mesh`."""
    wd = triangle_rule(ERROR_RULE_DEGREE).weights[None, :] * mesh.detJ[:, None]
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


def error_norms(mesh, problem, fields, reference):
    """Scaled L2 errors of the piecewise constant fields.

    err(w) = d ||w - w_h||, err(u) = ||C_disp (u - u_h)||,
    err(M) = (1/d) ||M - M_h||_F, err(N) = ||N - N_h||_F, by the
    `ERROR_RULE_DEGREE` rule on each element.
    """
    _, _, ref = _rule_values(reference, mesh)
    return _field_errors(mesh, problem, fields, ref)


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
    v, els = mesh.vertex_at(corner, max(abs(x) for x in rect))
    if v is None:
        raise ValueError("corner point is not a mesh vertex")
    if v not in mesh.edges[mesh.boundary_edges]:
        raise ValueError("corner point is not on the mesh boundary")
    vals = fields[els, 1] * np.sin(alpha) - fields[els, 2] * np.cos(alpha)
    return float(vals.mean())


def locate_points(mesh, points):
    """Lowest-index element containing each point (tol 1e-12)."""
    points = np.asarray(points, dtype=float)
    rel = points[None, :, :] - mesh.triangle_coords()[:, None, 0, :]
    xi = np.einsum("tba,tpa->tpb", mesh.Jinv, rel)
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
    """Per-level extras hook: reference errors and benchmark functional.

    The hook keeps the reference values of the last mesh it was called
    on (`_rule_values`), and only those: on the next call, an element
    with the same vertex indices and coordinates, exact and in the same
    order, takes its values from there, and the series is evaluated only
    on the elements new to the mesh.  In an adaptive run these are the
    elements the last refinement created.  The first call has nothing to
    carry.
    """
    reference = make_reference(problem)
    last = None

    def evaluator(prob, mesh, fields):
        nonlocal last
        extras = {}
        if reference is not None:
            last = _rule_values(reference, mesh, last)
            extras.update(_field_errors(mesh, prob, fields, last[2]))
        if prob.kind == "scordelis_lo":
            extras["functional"] = scordelis_lo_functional(mesh, prob, fields)
        return extras

    return evaluator
