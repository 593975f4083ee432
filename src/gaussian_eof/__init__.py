"""Entanglement of formation of two-mode Gaussian states.

Covariance matrices are vacuum-normalized: the vacuum CM is the 4x4
identity, quadrature ordering (x_A, p_A, x_B, p_B).  The exact EOF is
computed through the EPR-like-uncertainty pipeline; the Gaussian EOF,
published lower and upper bounds and a Monte-Carlo decomposition check
provide independent verification routes; the tests keep their own
Fock-space oracle and local-symplectic generators.

The standard-form pipeline (errors, standard_form, standard_form_solver,
epr_uncertainty, eof_core) needs only the standard library and is imported
with the package, so eof(), eof_from_cm() and validate_cm() run without
numpy.  The other modules and their names are imported on first access,
through the module __getattr__ below: bounds, which needs only the
standard library too, and the numpy-backed decomposition and its CM
constructors in symplectic_core.
A resolved name is not stored here, so every lookup reaches the
submodule's current binding.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .eof_core import (EofReport, eof, eof_from_cm, f_aux, g_kappa,
                       giovannetti_family, squeezed_thermal_eof, symmetric_eof)
from .epr_uncertainty import (EprQuantities, delta0, delta_general,
                              delta_prime, delta_pure_squeezed,
                              r_from_delta_prime, uncertainty_floor)
from .errors import (Degenerate, DomainError, GaussianEofError, Infeasible,
                     InvalidState, NonFiniteEntry, NoRoot, NotPsd,
                     SandwichViolation)
from .standard_form import (StandardFormParams, ValidityReport,
                            reduce_to_standard_params, standard_form_nu,
                            validate_cm, validate_standard_form)
from .standard_form_solver import (CriticalParams, SqueezingSolution,
                                   critical_params, solve_squeezings)

__version__ = "0.1.0"

# submodule -> the public names it provides on first access
_LAZY_MODULES = {
    "bounds": ("BoundsReport", "GammaCandidate", "bounds_report",
               "gaussian_eof", "minimize_reduced_determinant",
               "oliveira_upper", "rigolin_lower"),
    "decomposition": ("DecompositionSpec", "decomposition_spec",
                      "reconstruct_cm", "sample_displacements",
                      "verify_reconstruction"),
    "symplectic_core": ("squeezed_vacuum_cm", "standard_form_cm"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items()
         for name in names}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        if name not in _LAZY_MODULES:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        return _import_module(f"{__name__}.{name}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_MODULES))


# every public name: those imported above and those _LAZY resolves
__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_")
                  and not isinstance(value, _ModuleType)} | set(_LAZY))
