"""Command-line driver.

Reads a small key=value configuration (or the mirroring command-line
flags), runs the refinement loop for the chosen benchmark, and writes
plot-ready whitespace-separated text files: a convergence table, the
mesh of every level, per-element fields on the finest mesh, and 1D
line extractions for the point-load shells.  Each `RunConfig` field is
one config key and one flag, `--key`.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .assembly import AssemblyError
from .estimator import AdaptiveConfig, adaptive_loop
from .mesh import write_mesh
from .model import (BC_VARS, BENCHMARKS, SIDES, ShellProblem, make_benchmark,
                    select_scalings)
from .reference import make_evaluator, make_reference, sample_fields_on_line
from .solver import SolverError


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class RunConfig:
    """The settings of one run.  A key is parsed by its field's type
    unless `_PARSERS` names it."""

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


_PARSERS = {"C_disp": _floats(2), "rect": _floats(4), "B": _floats(3),
            **{"bc_" + side: _bc_set for side in SIDES}}
_SCHEMA = {f.name: _PARSERS.get(f.name, f.type)
           for f in dataclasses.fields(RunConfig)}


def _set(cfg, key, val, source):
    """Parse `val` into `cfg.key`; `source` says where it came from."""
    try:
        setattr(cfg, key, _SCHEMA[key](val))
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


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
        _set(cfg, key, val, f"line {ln}: bad value for {key}")
    return cfg


def validate_config(cfg):
    """The run's (ShellProblem, AdaptiveConfig).

    `AdaptiveConfig` checks k, mode, theta, tol, max_dofs and
    max_levels; `ShellProblem` checks d, D, C_disp and c_Q.  Checked
    here is only what neither sees: the benchmark name, the keys
    `custom` requires and the order of the `rect` bounds.  A refused
    value raises ConfigError, which `main` reports with exit status 2.
    """
    if cfg.benchmark not in BENCHMARKS:
        raise ConfigError(
            f"benchmark must be one of {', '.join(BENCHMARKS)}; got {cfg.benchmark!r}")
    if cfg.benchmark == "custom":
        missing = [key for key in ("rect", "B", "d") if getattr(cfg, key) is None]
        if missing:
            raise ConfigError(
                "custom benchmark requires keys: " + ", ".join(missing))
        x0, x1, y0, y1 = cfg.rect
        if x1 <= x0 or y1 <= y0:
            raise ConfigError("rect must satisfy x0 < x1 and y0 < y1")
    try:
        settings = AdaptiveConfig(**{f.name: getattr(cfg, f.name)
                                     for f in dataclasses.fields(AdaptiveConfig)})
        return build_problem(cfg), settings
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_problem(cfg):
    overrides = {key: getattr(cfg, key) for key in ("D", "C_disp", "c_Q")
                 if getattr(cfg, key) is not None}
    if "C_disp" in overrides:
        overrides["C_disp"] = np.diag(cfg.C_disp)
    if cfg.benchmark != "custom":
        return make_benchmark(cfg.benchmark, d=cfg.d, **overrides)

    b11, b12, b22 = cfg.B
    B = np.array([[b11, b12], [b12, b22]])
    load = None
    if cfg.f is not None:
        fval = cfg.f

        def load(x, y):
            return np.full(np.broadcast(x, y).shape, fval)

    bc = {side: set(getattr(cfg, "bc_" + side)) for side in SIDES}
    D, C_disp, c_Q = select_scalings(B, cfg.d, cfg.rect)
    prob = dict(rect=cfg.rect, B=B, d=cfg.d, f=load, bc=bc,
                D=D, C_disp=C_disp, c_Q=c_Q)
    prob.update(overrides)
    return ShellProblem(**prob)


TABLE_COLUMNS = ("level", "nelems", "ndof", "eta",
                 "err_w", "err_u", "err_M", "err_N", "functional")

# line extractions for the point-load shells: membrane force component,
# its column in the per-element field table, and the axis the sampling
# line runs along (the other coordinate is 0)
_LINES = {
    "point_elliptic": ("N11", 3, 0),
    "point_parabolic": ("N22", 6, 1),
}
_FLOAT = "%.12e"


def write_convergence_table(path, run):
    rows = [[rec.level, rec.nelems, rec.ndof, rec.eta]
            + [rec.extras.get(key, np.nan) for key in TABLE_COLUMNS[4:]]
            for rec in run.levels]
    np.savetxt(path, np.array(rows, dtype=float),
               fmt=["%d"] * 3 + [_FLOAT] * (len(TABLE_COLUMNS) - 3),
               header=" ".join(TABLE_COLUMNS))


def write_field_dump(path, mesh, fields):
    centers = mesh.triangle_coords().mean(axis=1)
    np.savetxt(path, np.column_stack([np.arange(mesh.ntriangles), centers,
                                      fields[:, 2:7]]),
               fmt=["%d"] + [_FLOAT] * 7, header="element cx cy w N11 N12 N21 N22")


def write_line_extraction(path, problem, mesh, fields, npoints=401):
    name, col, axis = _LINES[problem.kind]
    s = np.linspace(-1.0, 1.0, npoints)
    pts = np.zeros((npoints, 2))
    pts[:, axis] = s
    approx = sample_fields_on_line(mesh, fields, pts)[:, col]
    ref = make_reference(problem)
    exact = ref.evaluate(pts[:, 0], pts[:, 1])["N"][:, axis, axis]
    np.savetxt(path, np.column_stack([s, exact, approx]), fmt=_FLOAT,
               header=f"s exact_{name} approx_{name}")


def run(cfg):
    """Run one configured benchmark and write its artifacts.

    Returns the AdaptiveRun for programmatic use.
    """
    problem, settings = validate_config(cfg)
    result = adaptive_loop(problem, settings, evaluator=make_evaluator(problem))

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
        cfg = RunConfig()
        if args.config:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        for key in _SCHEMA:
            val = getattr(args, key)
            if val is not None:
                _set(cfg, key, val, f"bad value for --{key}")
        result = run(cfg)
    except (OSError, ConfigError, AssemblyError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (AssemblyError, SolverError)) else 2
    for rec in result.levels:
        print(f"level {rec.level:3d}  elements {rec.nelems:7d}  "
              f"dof {rec.ndof:8d}  eta {rec.eta:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
