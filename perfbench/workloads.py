"""Workload definitions and their seeded start meshes.

Every workload is one `adaptive_loop` run from a seeded start mesh to a
dof budget, driven through the same library path as `cli.run`:
`make_benchmark` -> `make_evaluator` -> `adaptive_loop`.

A run solves several instances of its workload, one per repetition.
An instance marks one element of the once uniformly refined 4-element
rectangle mesh and refines it with its NVB closure (24 or 25 elements,
16 possible start meshes).  The seed fixes the order in which a run
visits the 16 start meshes; the program receives only the mesh, as
`initial_mesh=`.  Adaptive runs differ from start mesh to start mesh;
visiting distinct ones, and taking the median over them, keeps a run's
figures close to those of the whole population.  The dof budgets sit
where the 16 adaptive trajectories need about the same total work.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    d: float
    k: int
    mode: str
    max_dofs: int
    why: str
    theta: float = 0.25
    max_levels: int = 25
    tol: float = 1e-10


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uniform-clamped-k0",
            benchmark="cyl_clamped", d=1e-2, k=0, mode="uniform",
            max_dofs=8000,
            why=("uniform NVB mesh with few Jacobian classes; assembly and "
                 "estimator dominate, the solver is a small share"),
        ),
        Workload(
            name="adaptive-parabolic-k1",
            benchmark="point_parabolic", d=1e-2, k=1, mode="adaptive",
            max_dofs=3000,
            why=("graded point-load mesh, many small levels and a Fourier "
                 "reference; fixed per-level cost, solver and reference show"),
        ),
        Workload(
            name="adaptive-freecyl-thin-k0",
            benchmark="cyl_free", d=1e-3, k=0, mode="adaptive",
            max_dofs=3000,
            why=("thin free-edge cylinder: free-edge trace constraints and a "
                 "badly conditioned system with high LU fill"),
        ),
    )
}


def start_mesh(problem, seed, instance):
    """Start mesh of a run's instance: a seeded NVB pre-refinement."""
    from shelldpg import initial_rectangle_mesh, refine

    mesh = initial_rectangle_mesh(problem.rect)
    mesh = refine(mesh, np.arange(mesh.ntriangles))
    order = np.random.default_rng(seed).permutation(mesh.ntriangles)
    return refine(mesh, [int(order[instance % mesh.ntriangles])])
