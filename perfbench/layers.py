"""Per-layer tracing of one ``eigenfem`` command, installed from outside the package.

``install()`` replaces module-level names in the package's modules with
wrappers.  Calls between layers (the names ``eigenfem.cli`` and
``eigenfem.eigensolver`` call through) become timed spans; each span's self
time is its duration minus the time of the spans nested inside it.  The hot
per-element names get plain call counters, and the coefficient callables of
every problem the CLI or the convergence study builds are counted too.

Modules are looked up in ``sys.modules`` because the package ``__init__``
rebinds some submodule names (``eigenfem.element_geometry`` is the function
of that name there).  A name that is missing from its module is skipped, so
its metric reads 0.  The span stack is not thread-safe; the benchmark runs
``converge`` with one worker.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter

# (span, module, attribute): calls between layers, timed.
SPANS = (
    ("main", "eigenfem.cli", "main"),
    ("mesh.build", "eigenfem.cli", "generate_structured"),
    ("mesh.build", "eigenfem.cli", "load_triangle"),
    ("mesh.build", "eigenfem.eigensolver", "generate_structured"),
    ("mesh.spacing", "eigenfem.eigensolver", "mesh_spacing"),
    ("mesh_conditions", "eigenfem.cli", "evaluate_conditions"),
    ("assembly", "eigenfem.cli", "assemble"),
    ("assembly", "eigenfem.eigensolver", "assemble"),
    ("matrix_analysis", "eigenfem.cli", "m_matrix_certificate"),
    ("solve_smallest", "eigenfem.cli", "solve_smallest"),
    ("solve_smallest", "eigenfem.eigensolver", "solve_smallest"),
    ("lu_factor", "eigenfem.eigensolver", "lu_factor"),
    ("solve", "eigenfem.eigensolver", "solve"),
    ("hessenberg_eigen", "eigenfem.eigensolver", "hessenberg_eigen"),
    ("property_suite", "eigenfem.cli", "property_suite"),
    ("convergence_study", "eigenfem.cli", "convergence_study"),
)

# (counter, modules, attribute): hot inner names, counted only.
COUNTERS = (
    ("element_geometry", ("eigenfem.element_geometry", "eigenfem.assembly",
                          "eigenfem.mesh_conditions"), "element_geometry"),
    ("check_spd", ("eigenfem.element_geometry", "eigenfem.coefficients",
                   "eigenfem.mesh_conditions"), "check_spd"),
    ("element_stats", ("eigenfem.assembly", "eigenfem.mesh_conditions"), "element_stats"),
    ("rayleigh", ("eigenfem.eigensolver",), "rayleigh"),
)

# Functions that return a ProblemCoefficients whose callables are counted.
PROBLEM_FACTORIES = (
    ("eigenfem.cli", "catalog"),
    ("eigenfem.cli", "coefficients_from_json"),
    ("eigenfem.eigensolver", "catalog"),
)


class Tracer:
    """Span totals, self times and counters of one traced command."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.stack: list[list[float]] = []
        self.n_elements = 0
        self.nnz_A = 0
        self.nnz_LU = 0
        self.restarts = 0
        self.pairs = 0
        self.pairs_converged = 0
        self.krylov_dim = 0.0

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            entry = dict(self.calls) if hook is not None else None
            child = [0.0]
            self.stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child[0]
            if hook is not None:
                hook(self, result, args, entry)
            return result
        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_problem(self, fn):
        def wrapper(*args, **kwargs):
            problem = fn(*args, **kwargs)
            if not dataclasses.is_dataclass(problem):
                return problem
            callables = {f.name: self.counter("coefficient_callable", getattr(problem, f.name))
                         for f in dataclasses.fields(problem)
                         if callable(getattr(problem, f.name))}
            return dataclasses.replace(problem, **callables)
        return wrapper

    # -- hooks on span results ---------------------------------------------

    def _on_mesh(self, mesh, args, entry):
        self.n_elements += int(mesh.n_elements)

    def _on_lu(self, factors, args, entry):
        L, U = getattr(factors, "L", None), getattr(factors, "U", None)
        if L is not None and U is not None:
            self.nnz_A += int(args[0].nnz)
            self.nnz_LU += int(L.nnz + U.nnz)

    def _on_solution(self, sol, args, entry):
        cycles = int(getattr(sol, "restarts", 0)) + 1
        self.restarts += cycles - 1
        self.pairs += len(sol.eigenvalues)
        self.pairs_converged += int(sol.k_converged)
        solves = self.calls["solve"] - entry.get("solve", 0)
        self.krylov_dim = max(self.krylov_dim, solves / cycles)

    HOOKS = {"mesh.build": _on_mesh, "lu_factor": _on_lu, "solve_smallest": _on_solution}

    # -- report ------------------------------------------------------------

    def report(self) -> dict:
        """Every per-layer metric except the two the caller measures."""
        per_el = 1.0 / max(self.n_elements, 1)
        return {
            "mesh.build_s": self.total["mesh.build"],
            "mesh.spacing_s": self.total["mesh.spacing"],
            "element_geometry.calls_per_element": self.counts["element_geometry"] * per_el,
            "element_geometry.check_spd_calls_per_element": self.counts["check_spd"] * per_el,
            "coefficients.element_stats_calls_per_element": self.counts["element_stats"] * per_el,
            "coefficients.callable_calls_per_element":
                self.counts["coefficient_callable"] * per_el,
            "mesh_conditions.s": self.total["mesh_conditions"],
            "assembly.s": self.total["assembly"],
            "assembly.rayleigh_calls": self.counts["rayleigh"],
            "matrix_analysis.s": self.total["matrix_analysis"],
            "sparse_linalg.lu_factor_s": self.total["lu_factor"],
            "sparse_linalg.lu_fill_ratio": self.nnz_LU / self.nnz_A if self.nnz_A else 0.0,
            "sparse_linalg.solve_calls": self.calls["solve"],
            "sparse_linalg.solve_s": self.total["solve"],
            "sparse_linalg.hessenberg_eigen_s": self.total["hessenberg_eigen"],
            "eigensolver.solve_smallest_s": self.total["solve_smallest"],
            "eigensolver.self_s": self.self_time["solve_smallest"],
            "eigensolver.krylov_dim": self.krylov_dim,
            "eigensolver.restarts": self.restarts,
            "eigensolver.converged_frac":
                self.pairs_converged / self.pairs if self.pairs else 0.0,
            "eigensolver.property_suite_s": self.total["property_suite"],
            "eigensolver.convergence_study_self_s": self.self_time["convergence_study"],
            "cli.output_s": self.self_time["main"],
        }


def _replace(module_name: str, attr: str, make) -> None:
    module = sys.modules.get(module_name)
    fn = getattr(module, attr, None)
    if callable(fn):
        setattr(module, attr, make(fn))


def install() -> Tracer:
    """Wrap the traced names of the already imported package; return the tracer."""
    import eigenfem.cli  # noqa: F401  (loads every module the CLI reaches)

    tracer = Tracer()
    for name, module, attr in SPANS:
        hook = Tracer.HOOKS.get(name)
        _replace(module, attr, lambda fn, name=name, hook=hook: tracer.span(name, fn, hook))
    for name, modules, attr in COUNTERS:
        for module in modules:
            _replace(module, attr, lambda fn, name=name: tracer.counter(name, fn))
    for module, attr in PROBLEM_FACTORIES:
        _replace(module, attr, tracer.counted_problem)
    return tracer
