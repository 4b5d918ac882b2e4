"""P1 finite elements for second-order elliptic eigenvalue problems.

The package assembles stiffness and mass matrices for
-div(D grad u) + b . grad u + c u = lambda u with Dirichlet boundary
conditions on simplicial meshes, evaluates mesh conditions under which
the stiffness matrix is an irreducible M-matrix (so the discrete
principal eigenpair is real, simple and sign-preserving), solves for the
smallest eigenpairs, and verifies the predicted spectral structure
numerically.
"""

from .assembly import AssembledSystem, assemble, export_system, rayleigh
from .coefficients import (CATALOG_NAMES, REFERENCE_VALUES, ElementTable,
                           ProblemCoefficients, catalog,
                           check_assumptions, coefficients_from_json,
                           element_stats, element_table)
from .eigensolver import (ConvergenceStudy, EigenSolution, PropertyReport,
                          convergence_study, property_suite, solve_smallest)
from .element_geometry import (ElementGeometry, element_geometry,
                               max_metric_angle, metric_altitudes,
                               metric_angle_cosines, metric_dihedral_angle,
                               quadrature_barycentric, stiffness_kernel)
from .errors import (CoefficientError, EigenSolveError, MeshError,
                     NumericalFailureError, SingularMatrixError)
from .matrix_analysis import (IrreducibilityReport, MatrixCertificate,
                              ZMatrixReport, irreducibility,
                              m_matrix_certificate, z_matrix_check)
from .mesh import (InteriorConnectivity, SimplicialMesh, edge_patches,
                   export_triangle, generate_structured, import_mesh,
                   interior_connectivity, load_triangle, mesh_from_json,
                   mesh_spacing, mesh_to_json)
from .mesh_conditions import (ConditionReport, DelaunayReport,
                              EntryBoundReport, MUniformity, NonobtuseReport,
                              check_delaunay_type, check_nonobtuse,
                              entry_bound_report, evaluate_conditions,
                              m_uniformity)
from .sparse_linalg import (LUFactors, build_csr, load_matrix_market,
                            lu_factor, save_matrix_market, solve,
                            validate_csr)

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem", "assemble", "export_system", "rayleigh",
    "CATALOG_NAMES", "REFERENCE_VALUES", "ProblemCoefficients", "catalog",
    "check_assumptions", "coefficients_from_json", "element_stats",
    "ElementTable", "element_table",
    "ConvergenceStudy", "EigenSolution", "PropertyReport",
    "convergence_study", "property_suite", "solve_smallest",
    "ElementGeometry", "element_geometry", "max_metric_angle",
    "metric_altitudes", "metric_angle_cosines", "metric_dihedral_angle",
    "quadrature_barycentric", "stiffness_kernel",
    "CoefficientError", "EigenSolveError", "MeshError",
    "NumericalFailureError", "SingularMatrixError",
    "IrreducibilityReport", "MatrixCertificate", "ZMatrixReport",
    "irreducibility", "m_matrix_certificate", "z_matrix_check",
    "InteriorConnectivity", "SimplicialMesh", "edge_patches",
    "export_triangle", "generate_structured", "import_mesh",
    "interior_connectivity", "load_triangle", "mesh_from_json",
    "mesh_spacing", "mesh_to_json",
    "ConditionReport", "DelaunayReport", "EntryBoundReport", "MUniformity",
    "NonobtuseReport", "check_delaunay_type", "check_nonobtuse",
    "entry_bound_report", "evaluate_conditions", "m_uniformity",
    "LUFactors", "build_csr", "load_matrix_market", "lu_factor",
    "save_matrix_market", "solve", "validate_csr",
    "__version__",
]
