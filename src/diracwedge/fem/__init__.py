from .mesh import Mesh, MeshError, build_mesh, build_strip_mesh, uniform_refine
from .assembly import SymmetricPencil, assemble
from .solve import (FemSolveError, SpectralReport, count_bound_states,
                    export_matrix_market, solve_lowest)

__all__ = [
    "Mesh", "MeshError", "build_mesh", "build_strip_mesh", "uniform_refine",
    "SymmetricPencil", "assemble", "FemSolveError",
    "SpectralReport", "solve_lowest", "count_bound_states",
    "export_matrix_market",
]
