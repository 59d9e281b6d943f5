"""Built-in residual estimator and the adaptive refinement loop.

The element estimator is the discrete dual norm of the element
residual, eta(T)^2 = r' G^-1 r with r = l - B u_T, where u_T holds the
element's trace values and its fields recovered from them.  The
assembly keeps the Gram factor and the field elimination of each
Jacobian class, so the estimator forms the residual explicitly in the
condensed frame, eta(T) = |y^c_T - W^c_J P_T u_T|
(`ElementSystems.residual_norms`), without building any element matrix
again; at the recovered fields the field part of the residual vanishes.
"""

from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble_normal_equations
from .mesh import dorfler_mark, initial_rectangle_mesh, refine
from .solver import solve_spd


def element_estimators(neq, x):
    """All element estimators for a free-dof solution vector."""
    return neq.elements.residual_norms(neq.expand(x)[neq.elements.cols])


@dataclass
class AdaptiveConfig:
    k: int = 0
    theta: float = 0.25
    mode: str = "adaptive"
    max_dofs: int = 30000
    max_levels: int = 25
    tol: float = 1e-10

    def __post_init__(self):
        if self.k not in (0, 1):
            raise ValueError(f"polynomial degree k must be 0 or 1, got {self.k}")
        if self.mode not in ("adaptive", "uniform"):
            raise ValueError(f"unknown refinement mode {self.mode!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("marking fraction theta must lie in (0, 1]")
        if self.max_levels < 0 or self.max_dofs <= 0:
            raise ValueError("budgets must be nonnegative / positive")


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
    `max_levels = 0` does a single solve without refinement.
    """
    cfg = config if config is not None else AdaptiveConfig()
    mesh = initial_mesh
    if mesh is None:
        if problem.rect is None:
            raise ValueError("problem has no rectangle; pass initial_mesh")
        mesh = initial_rectangle_mesh(problem.rect)

    levels = []
    level = 0
    while True:
        neq = assemble_normal_equations(mesh, problem, cfg.k)
        x = solve_spd(neq.A, neq.rhs, cfg.tol, coords=neq.dof_xy)
        etas = element_estimators(neq, x)
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
        rec.marked = marked
        mesh = refine(mesh, marked)
        level += 1

    for prev, cur in zip(levels, levels[1:]):
        assert cur.ndof > prev.ndof, "dof count must grow across levels"
    return AdaptiveRun(config=cfg, levels=levels)
