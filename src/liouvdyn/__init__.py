"""Operator-algebra propagation for externally driven quantum systems.

The package propagates systems whose Heisenberg dynamics closes on a
finite operator basis: exact, frozen-frame (adiabatic), and
inertial-frame solutions of the factorized generator; validity
diagnostics; geometric phases of parameter circuits; and a thermal-bath
master equation whose jump operators are the generator eigenoperators.
"""

from .config import RunConfig, load_config_file, resolve_config
from .diagnostics import (
    SweepResult,
    adiabatic_parameter,
    fidelity,
    fidelity_sweep,
    ho_inertial_parameter_closed,
    inertial_parameter_at,
    inertial_parameters,
    log_time_grid,
    max_mu_along,
    max_parameters_along,
    one_minus_fidelity,
    upsilon_maxima,
)
from .engine import (
    GeneratorFactorization,
    GeneratorFamily,
    InertialSolution,
    LiouvilleVector,
    coefficients,
    inverse_scaled_time,
    propagate_adiabatic,
    propagate_adiabatic_batch,
    propagate_constant_chi,
    propagate_exact,
    propagate_inertial,
    propagate_inertial_batch,
)
from .errors import (
    AmbiguousMatching,
    ConfigInvalid,
    DegenerateSpectrum,
    DomainExceeded,
    IntegratorFailure,
    LiouvdynError,
    NotConverged,
    NotDiagonalizable,
    PositivityViolation,
    SingularDenominator,
    UnphysicalState,
    UnsupportedDimension,
)
from .geometric import (
    ParameterCircuit,
    geometric_phase_line,
    geometric_phase_surface,
    ho_family,
    line_phases,
    liouville_curvature,
    surface_phases,
    tls_family,
    two_spin_local_family,
    two_spin_nonlocal_family,
)
from .linalg import Alignment, EigenFrame, bi_eigendecompose, track_continuity
from .models import (
    BlochState,
    GaussianState,
    HOModel,
    HOProtocol,
    TLSModel,
    TLSProtocol,
    ho_generator,
    initial_vector,
    reconstruct_state,
    tls_generator,
    tls_generator_embedded,
    two_spin_generators,
)
from .open_quantum import (
    BathSpec,
    MasterEquationSpec,
    bose_occupation,
    build_master_equation,
    decay_rate,
    lamb_shift,
    mesolve,
    trajectory_rows,
)

__version__ = "0.1.0"
