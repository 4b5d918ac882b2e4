"""P1 finite elements for second-order elliptic eigenvalue problems.

The package assembles stiffness and mass matrices for
-div(D grad u) + b . grad u + c u = lambda u with Dirichlet boundary
conditions on simplicial meshes, evaluates mesh conditions under which
the stiffness matrix is an irreducible M-matrix (so the discrete
principal eigenpair is real, simple and sign-preserving), solves for the
smallest eigenpairs, and verifies the predicted spectral structure
numerically.
"""

from .assembly import AssembledSystem, assemble, rayleigh
from .coefficients import (CATALOG_NAMES, REFERENCE_VALUES, ElementTable,
                           ProblemCoefficients, catalog, coefficients_from_json,
                           element_table)
from .eigensolver import (ConvergenceStudy, EigenSolution, PropertyReport,
                          convergence_study, property_suite, solve_smallest)
from .element_geometry import (ElementGeometry, metric_altitudes,
                               metric_angle_cosines, quadrature_barycentric)
from .errors import CoefficientError, EigenSolveError, MeshError, SingularMatrixError
from .matrix_analysis import MatrixCertificate, m_matrix_certificate
from .mesh import (InteriorConnectivity, SimplicialMesh, export_triangle,
                   generate_structured, import_mesh, interior_connectivity,
                   load_triangle, mesh_spacing)
from .mesh_conditions import (ConditionReport, DelaunayReport, EntryBoundReport,
                              NonobtuseReport, entry_bound_report,
                              evaluate_conditions)
from .sparse_linalg import build_csr, lu_factor, solve

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem", "assemble", "rayleigh",
    "CATALOG_NAMES", "REFERENCE_VALUES", "ProblemCoefficients", "catalog",
    "coefficients_from_json", "ElementTable", "element_table",
    "ConvergenceStudy", "EigenSolution", "PropertyReport",
    "convergence_study", "property_suite", "solve_smallest",
    "ElementGeometry", "metric_altitudes", "metric_angle_cosines",
    "quadrature_barycentric",
    "CoefficientError", "EigenSolveError", "MeshError", "SingularMatrixError",
    "MatrixCertificate", "m_matrix_certificate",
    "InteriorConnectivity", "SimplicialMesh", "export_triangle",
    "generate_structured", "import_mesh", "interior_connectivity",
    "load_triangle", "mesh_spacing",
    "ConditionReport", "DelaunayReport", "EntryBoundReport", "NonobtuseReport",
    "entry_bound_report", "evaluate_conditions",
    "build_csr", "lu_factor", "solve",
    "__version__",
]
