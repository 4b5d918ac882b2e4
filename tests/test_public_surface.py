"""The package exports exactly the names the pipeline and its users run."""

import types

import eigenfem

PUBLIC = [
    "AssembledSystem", "CATALOG_NAMES", "CoefficientError", "ConditionReport",
    "ConvergenceStudy", "DelaunayReport", "EigenSolution", "EigenSolveError",
    "ElementGeometry", "ElementTable", "EntryBoundReport", "InteriorConnectivity",
    "MatrixCertificate", "MeshError", "NonobtuseReport",
    "ProblemCoefficients", "PropertyReport", "REFERENCE_VALUES", "SimplicialMesh",
    "SingularMatrixError", "__version__", "assemble", "build_csr", "catalog",
    "coefficients_from_json", "convergence_study", "element_table",
    "entry_bound_report", "evaluate_conditions", "export_triangle",
    "generate_structured", "import_mesh", "interior_connectivity", "load_triangle",
    "lu_factor", "m_matrix_certificate", "mesh_spacing", "metric_altitudes",
    "metric_angle_cosines", "property_suite", "quadrature_barycentric", "rayleigh",
    "solve", "solve_smallest",
]


def test_all_is_pinned():
    assert sorted(eigenfem.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in eigenfem.__all__:
        assert hasattr(eigenfem, name), name


def test_namespace_holds_only_exports_and_submodules():
    # a name imported into the package but left out of __all__ is surface
    # nobody declared
    extra = {name for name, value in vars(eigenfem).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert extra == set(eigenfem.__all__) - {"__version__"}


def test_submodule_names_are_not_shadowed():
    # no function bound in the package namespace hides the submodule of the
    # same name
    assert isinstance(eigenfem.element_geometry, types.ModuleType)
    assert eigenfem.element_geometry.__name__ == "eigenfem.element_geometry"
