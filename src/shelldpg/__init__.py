"""DPG solver with optimal test functions for shallow shell problems."""

from .assembly import AssemblyError, NormalEquations, assemble_normal_equations
from .cli import ConfigError, RunConfig, parse_config, run
from .estimator import (
    AdaptiveConfig,
    AdaptiveRun,
    LevelRecord,
    adaptive_loop,
)
from .mesh import Mesh, dorfler_mark, initial_rectangle_mesh, refine, write_mesh
from .model import (
    PointLoad,
    ShellProblem,
    apply_C,
    apply_Cinv,
    make_benchmark,
    select_scalings,
)
from .polyquad import TriangleBasis, edge_rule, triangle_basis, triangle_rule
from .reference import (
    FourierReference,
    InextensionalReference,
    error_norms,
    locate_points,
    make_evaluator,
    make_reference,
    sample_fields_on_line,
    scordelis_lo_functional,
)
from .solver import SolverError, solve
from .traces import TraceDofMap, apply_bc, edge_pairings

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "AdaptiveRun",
    "AssemblyError",
    "ConfigError",
    "FourierReference",
    "InextensionalReference",
    "LevelRecord",
    "Mesh",
    "NormalEquations",
    "PointLoad",
    "RunConfig",
    "ShellProblem",
    "SolverError",
    "TraceDofMap",
    "TriangleBasis",
    "adaptive_loop",
    "apply_C",
    "apply_Cinv",
    "apply_bc",
    "assemble_normal_equations",
    "dorfler_mark",
    "edge_pairings",
    "edge_rule",
    "error_norms",
    "initial_rectangle_mesh",
    "locate_points",
    "make_benchmark",
    "make_evaluator",
    "make_reference",
    "parse_config",
    "refine",
    "run",
    "sample_fields_on_line",
    "scordelis_lo_functional",
    "select_scalings",
    "solve",
    "triangle_basis",
    "triangle_rule",
    "write_mesh",
]
