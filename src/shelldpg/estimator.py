"""Built-in residual estimator and the adaptive refinement loop.

The element estimator is the discrete dual norm of the element
residual, eta(T)^2 = r' G^-1 r with r = l - B u_T, where u_T holds the
element's trace values and its fields recovered from them.  In the
condensed frame of the assembly this is eta(T) = |y^c_T - W^c_J P_T u_T|
(`ElementSystems.residuals`); at the recovered fields the field part of
the residual vanishes.  The solver refines against exactly these
residuals, so the norms of its last ones are the estimators
(`solver.solve`), and no element matrix is built again.

`adaptive_loop` hands each level's normal equations to the next
assembly, which builds class kernels only for the shapes the
refinement created (`assemble_normal_equations(previous=...)`).  The
previous level is alive during that call anyway, so nothing is kept
longer than one level.
"""

from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble_normal_equations
from .mesh import dorfler_mark, initial_rectangle_mesh, refine
from .solver import solve


@dataclass
class AdaptiveConfig:
    k: int = 0
    theta: float = 0.25
    mode: str = "adaptive"
    max_dofs: int = 30000
    max_levels: int = 25
    tol: float = 1e-10  # least-squares backward error bound of `solver.solve`

    def __post_init__(self):
        if self.k not in (0, 1):
            raise ValueError(f"polynomial degree k must be 0 or 1, got {self.k}")
        if self.mode not in ("adaptive", "uniform"):
            raise ValueError(f"unknown refinement mode {self.mode!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("marking fraction theta must lie in (0, 1]")
        if self.max_levels < 0 or self.max_dofs <= 0:
            raise ValueError("budgets must be nonnegative / positive")
        if not self.tol > 0.0:
            raise ValueError(f"solver tolerance tol must be positive, got {self.tol}")


@dataclass
class LevelRecord:
    level: int
    mesh: object
    nelems: int
    ndof: int
    eta: float
    etas: np.ndarray
    x: np.ndarray
    fields: np.ndarray
    extras: dict = field(default_factory=dict)
    marked: np.ndarray = None


@dataclass
class AdaptiveRun:
    config: AdaptiveConfig
    levels: list


def adaptive_loop(problem, config=None, evaluator=None, initial_mesh=None):
    """Solve-estimate-mark-refine until the dof or level budget is hit.

    `evaluator(problem, mesh, fields)`, if given, returns a dict of
    extra per-level columns (reference errors, benchmark functionals).
    `max_levels = 0` does a single solve without refinement, and so
    does an estimator that is zero on every element, which marks
    nothing.  A refinement that does not add dofs raises, naming the
    level.
    """
    cfg = config if config is not None else AdaptiveConfig()
    mesh = initial_mesh
    if mesh is None:
        if problem.rect is None:
            raise ValueError("problem has no rectangle; pass initial_mesh")
        mesh = initial_rectangle_mesh(problem.rect)

    levels = []
    level = 0
    neq = None
    while True:
        neq = assemble_normal_equations(mesh, problem, cfg.k, previous=neq)
        if levels and not neq.ndof > levels[-1].ndof:
            raise RuntimeError(f"level {level}: refinement left {neq.ndof} dofs, "
                               f"level {level - 1} had {levels[-1].ndof}")
        x, etas = solve(neq, cfg.tol)
        rec = LevelRecord(
            level=level,
            mesh=mesh,
            nelems=mesh.ntriangles,
            ndof=neq.ndof,
            eta=float(np.sqrt(np.sum(etas**2))),
            etas=etas,
            x=x,
            fields=neq.fields(x),
        )
        if evaluator is not None:
            rec.extras = dict(evaluator(problem, mesh, rec.fields))
        levels.append(rec)
        if level >= cfg.max_levels or neq.ndof >= cfg.max_dofs:
            break
        if cfg.mode == "uniform":
            marked = np.arange(mesh.ntriangles)
        else:
            marked = dorfler_mark(etas, cfg.theta)
        if len(marked) == 0:  # a zero estimator: refinement would repeat the mesh
            break
        rec.marked = marked
        mesh = refine(mesh, marked)
        level += 1
    return AdaptiveRun(config=cfg, levels=levels)
