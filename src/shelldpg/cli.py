"""Command-line driver.

Reads a small key=value configuration (or the mirroring command-line
flags), runs the refinement loop for the chosen benchmark, and writes
plot-ready whitespace-separated text files: a convergence table, the
mesh of every level, per-element fields on the finest mesh, and 1D
line extractions for the point-load shells.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .assembly import AssemblyError
from .estimator import AdaptiveConfig, adaptive_loop
from .mesh import write_mesh
from .model import BC_VARS, BENCHMARKS, ShellProblem, make_benchmark, select_scalings
from .reference import make_evaluator, make_reference, sample_fields_on_line
from .solver import SolverError


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class RunConfig:
    benchmark: str = ""
    d: float = None
    k: int = AdaptiveConfig.k
    mode: str = AdaptiveConfig.mode
    theta: float = AdaptiveConfig.theta
    tol: float = AdaptiveConfig.tol
    max_dofs: int = AdaptiveConfig.max_dofs
    max_levels: int = AdaptiveConfig.max_levels
    outdir: str = "out"
    D: float = None
    C_disp: tuple = None
    c_Q: float = None
    rect: tuple = None
    B: tuple = None
    f: float = None
    bc_xmin: frozenset = frozenset()
    bc_xmax: frozenset = frozenset()
    bc_ymin: frozenset = frozenset()
    bc_ymax: frozenset = frozenset()


def _floats(n):
    def parse(val):
        parts = [float(p) for p in val.split(",")]
        if len(parts) != n:
            raise ValueError(f"expected {n} comma-separated numbers")
        return tuple(parts)

    return parse


def _bc_set(val):
    names = frozenset(p.strip() for p in val.split(",") if p.strip())
    bad = names - set(BC_VARS)
    if bad:
        raise ValueError(f"unknown boundary variables {sorted(bad)}")
    return names


_SCHEMA = {
    "benchmark": str,
    "d": float,
    "k": int,
    "mode": str,
    "theta": float,
    "tol": float,
    "max_dofs": int,
    "max_levels": int,
    "outdir": str,
    "D": float,
    "C_disp": _floats(2),
    "c_Q": float,
    "rect": _floats(4),
    "B": _floats(3),
    "f": float,
    "bc_xmin": _bc_set,
    "bc_xmax": _bc_set,
    "bc_ymin": _bc_set,
    "bc_ymax": _bc_set,
}


def parse_config(text):
    """Parse key=value lines (# starts a comment) into a RunConfig."""
    cfg = RunConfig()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep:
            raise ConfigError(f"line {ln}: expected key=value, got {raw!r}")
        if key not in _SCHEMA:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        try:
            setattr(cfg, key, _SCHEMA[key](val))
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for {key}: {exc}") from None
    return cfg


def adaptive_config(cfg):
    """The refinement settings of a run, checked by `AdaptiveConfig`."""
    try:
        return AdaptiveConfig(**{f.name: getattr(cfg, f.name)
                                 for f in dataclasses.fields(AdaptiveConfig)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def validate_config(cfg):
    if cfg.benchmark not in BENCHMARKS:
        raise ConfigError(
            f"benchmark must be one of {', '.join(BENCHMARKS)}; got {cfg.benchmark!r}")
    adaptive_config(cfg)
    if cfg.benchmark == "custom":
        missing = [key for key in ("rect", "B", "d") if getattr(cfg, key) is None]
        if missing:
            raise ConfigError(
                "custom benchmark requires keys: " + ", ".join(missing))
        x0, x1, y0, y1 = cfg.rect
        if x1 <= x0 or y1 <= y0:
            raise ConfigError("rect must satisfy x0 < x1 and y0 < y1")
        if cfg.d <= 0.0:
            raise ConfigError("d must be positive")


def build_problem(cfg):
    overrides = {}
    if cfg.D is not None:
        overrides["D"] = cfg.D
    if cfg.C_disp is not None:
        overrides["C_disp"] = np.diag(cfg.C_disp)
    if cfg.c_Q is not None:
        overrides["c_Q"] = cfg.c_Q
    if cfg.benchmark != "custom":
        return make_benchmark(cfg.benchmark, d=cfg.d, **overrides)

    b11, b12, b22 = cfg.B
    B = np.array([[b11, b12], [b12, b22]])
    load = None
    if cfg.f is not None:
        fval = cfg.f

        def load(x, y):
            return np.full(np.broadcast(x, y).shape, fval)

    bc = {side: set(getattr(cfg, "bc_" + side)) for side in
          ("xmin", "xmax", "ymin", "ymax")}
    D, C_disp, c_Q = select_scalings(B, cfg.d, cfg.rect)
    prob = dict(rect=cfg.rect, B=B, d=cfg.d, f=load, bc=bc,
                D=D, C_disp=C_disp, c_Q=c_Q)
    prob.update(overrides)
    return ShellProblem(**prob)


TABLE_COLUMNS = ("level", "nelems", "ndof", "eta",
                 "err_w", "err_u", "err_M", "err_N", "functional")

# line extractions for the point-load shells: membrane force component,
# its column in the per-element field table, and the sampling line
_LINES = {
    "point_elliptic": ("N11", 3, "y=0"),
    "point_parabolic": ("N22", 6, "x=0"),
}


def _fmt(value):
    return f"{float(value):.12e}"


def write_convergence_table(path, run):
    with open(path, "w") as fh:
        fh.write("# " + " ".join(TABLE_COLUMNS) + "\n")
        for rec in run.levels:
            row = [str(rec.level), str(rec.nelems), str(rec.ndof), _fmt(rec.eta)]
            for key in TABLE_COLUMNS[4:]:
                row.append(_fmt(rec.extras.get(key, float("nan"))))
            fh.write(" ".join(row) + "\n")


def write_field_dump(path, mesh, fields):
    centers = mesh.triangle_coords().mean(axis=1)
    with open(path, "w") as fh:
        fh.write("# element cx cy w N11 N12 N21 N22\n")
        for t in range(mesh.ntriangles):
            row = [str(t), _fmt(centers[t, 0]), _fmt(centers[t, 1]),
                   _fmt(fields[t, 2])]
            row += [_fmt(fields[t, 3 + j]) for j in range(4)]
            fh.write(" ".join(row) + "\n")


def write_line_extraction(path, problem, mesh, fields, npoints=401):
    name, col, _ = _LINES[problem.kind]
    s = np.linspace(-1.0, 1.0, npoints)
    zero = np.zeros(npoints)
    if problem.kind == "point_elliptic":
        pts = np.column_stack([s, zero])
        pick = (0, 0)
    else:
        pts = np.column_stack([zero, s])
        pick = (1, 1)
    approx = sample_fields_on_line(mesh, fields, pts)[:, col]
    ref = make_reference(problem)
    exact = ref.evaluate(pts[:, 0], pts[:, 1])["N"][:, pick[0], pick[1]]
    with open(path, "w") as fh:
        fh.write(f"# s exact_{name} approx_{name}\n")
        for i in range(npoints):
            fh.write(f"{_fmt(s[i])} {_fmt(exact[i])} {_fmt(approx[i])}\n")


def run(cfg):
    """Run one configured benchmark and write its artifacts.

    Returns the AdaptiveRun for programmatic use.
    """
    problem = build_problem(cfg)
    result = adaptive_loop(problem, adaptive_config(cfg),
                           evaluator=make_evaluator(problem))

    outdir = cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    write_convergence_table(os.path.join(outdir, "convergence.dat"), result)
    for rec in result.levels:
        write_mesh(rec.mesh, os.path.join(outdir, f"mesh_{rec.level:03d}"))
    final = result.levels[-1]
    write_field_dump(os.path.join(outdir, "fields.dat"), final.mesh,
                     final.fields)
    if problem.kind in _LINES:
        name = _LINES[problem.kind][0]
        write_line_extraction(os.path.join(outdir, f"line_{name}.dat"),
                              problem, final.mesh, final.fields)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="shelldpg",
        description="Adaptive DPG solver for shallow shell benchmarks.")
    ap.add_argument("--config", help="key=value configuration file")
    for key in _SCHEMA:
        ap.add_argument(f"--{key}", help=f"override config key {key}")
    args = ap.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = RunConfig()
        for key in _SCHEMA:
            val = getattr(args, key)
            if val is not None:
                try:
                    setattr(cfg, key, _SCHEMA[key](val))
                except ValueError as exc:
                    raise ConfigError(f"bad value for --{key}: {exc}") from None
        validate_config(cfg)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run(cfg)
    except (AssemblyError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in result.levels:
        print(f"level {rec.level:3d}  elements {rec.nelems:7d}  "
              f"dof {rec.ndof:8d}  eta {rec.eta:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
