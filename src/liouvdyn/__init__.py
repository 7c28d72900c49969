"""Operator-algebra propagation for externally driven quantum systems.

The package propagates systems whose Heisenberg dynamics closes on a
finite operator basis: exact, frozen-frame (adiabatic), and
inertial-frame solutions of the factorized generator; validity
diagnostics; geometric phases of parameter circuits; and a thermal-bath
master equation whose jump operators are the generator eigenoperators.

``import liouvdyn`` loads no submodule: each exported name is imported
from its module on first use (PEP 562), so a run pays only for the
modules it touches.
"""

import importlib

_EXPORTS = {
    name: module
    for module, names in (
        ("config", ("RunConfig", "load_config_file", "resolve_config")),
        ("diagnostics", (
            "SweepResult", "adiabatic_parameter", "fidelity", "fidelity_sweep",
            "ho_inertial_parameter_closed", "inertial_parameter_at", "inertial_parameters",
            "log_time_grid", "max_mu_along", "max_parameters_along", "one_minus_fidelity",
            "upsilon_maxima",
        )),
        ("engine", (
            "GeneratorFactorization", "GeneratorFamily", "InertialSolution", "LiouvilleVector",
            "coefficients", "inverse_scaled_time", "propagate_adiabatic",
            "propagate_adiabatic_batch", "propagate_constant_chi", "propagate_exact",
            "propagate_inertial", "propagate_inertial_batch",
        )),
        ("errors", (
            "AmbiguousMatching", "ConfigInvalid", "DegenerateSpectrum", "DomainExceeded",
            "IntegratorFailure", "LiouvdynError", "NotConverged", "NotDiagonalizable",
            "PositivityViolation", "SingularDenominator", "UnphysicalState",
            "UnsupportedDimension",
        )),
        ("geometric", (
            "ParameterCircuit", "geometric_phase_line", "geometric_phase_surface", "ho_family",
            "line_phases", "liouville_curvature", "surface_phases", "tls_family",
            "two_spin_local_family", "two_spin_nonlocal_family",
        )),
        ("linalg", ("Alignment", "EigenFrame", "bi_eigendecompose", "track_continuity")),
        ("models", (
            "BlochState", "GaussianState", "HOModel", "HOProtocol", "TLSModel", "TLSProtocol",
            "ho_generator", "initial_vector", "reconstruct_state", "tls_generator",
            "tls_generator_embedded", "two_spin_generators",
        )),
        ("open_quantum", (
            "BathSpec", "MasterEquationSpec", "bose_occupation", "build_master_equation",
            "decay_rate", "lamb_shift", "mesolve", "trajectory_rows",
        )),
    )
    for name in names
}
_MODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # a submodule is bound here by its own import, as an eager package would
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _MODULES)
