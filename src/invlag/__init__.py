"""Exact symbolic tools for the inverse problem of Lagrangian mechanics
with dissipative and gyroscopic force terms.

The exports load on first use (PEP 562): ``import invlag`` loads no
submodule, and ``invlag.X``, ``from invlag import X`` or
``from invlag import *`` imports the submodule that defines ``X`` and
returns that submodule's own object, looked up afresh on every access.
"""

import importlib

_EXPORTS = {
    "exprcore": ("Expr", "ExprContext", "VarId", "convert", "diff",
                 "eval_num", "integrate_poly", "is_zero", "parse", "subst",
                 "to_text"),
    "geometry": ("Sode", "TensorField", "connection", "curvature",
                 "gamma_apply", "horizontal_apply", "identity_matrix",
                 "jacobi", "matrix_det", "matrix_solve", "nabla_tensor02",
                 "theta_tensor"),
    "conditions": ("Cell", "ConditionReport", "ImplicitSystem",
                   "NonsingularityRecord", "check_classical",
                   "check_dissipative", "check_gyroscopic", "check_implicit",
                   "check_multiplier_dissipative",
                   "check_multiplier_gyroscopic", "check_prop2a",
                   "check_rayleigh", "implicit_context", "total_derivative"),
    "reconstruct": ("Certificate", "GaugeRecord", "forward_sode", "hessian",
                    "reconstruct_dissipative", "reconstruct_gyroscopic",
                    "verify_dissipative", "verify_gyroscopic",
                    "vertical_homotopy2"),
    "solver": ("AnsatzProblem", "LinearSystem", "Representative",
               "SolutionSpace", "SolverError", "assemble", "constant_ansatz",
               "diagonal_ansatz", "find_nonsingular", "instantiate",
               "polynomial_ansatz", "q_monomials", "solve"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        module = importlib.import_module(f"{__name__}.{_HOME[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
