"""Validity diagnostics and state-overlap measures.

Two small-parameter diagnostics rate the approximate propagators: the
drive-rate parameter mu (how fast the frequency moves) and the
drive-acceleration parameter Upsilon (how fast the closure coefficients
move per unit scaled time).  The sweep harness reruns a boundary-value
protocol family over a grid of durations and scores the approximate
solutions against the exact one with state fidelities.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    GeneratorFactorization,
    apply_identity_rescaling,
    propagate_adiabatic,
    propagate_inertial,
)
from .errors import (
    DegenerateSpectrum,
    DomainExceeded,
    LiouvdynError,
    SingularDenominator,
    UnphysicalState,
)
from .linalg import DEGENERACY_GAP, STACK_NODES, eigenframes
from .models import (
    BlochState,
    GaussianState,
    HOProtocol,
    initial_vector,
    reconstruct_state,
)


def adiabatic_parameter(model, t: float) -> float:
    """Instantaneous drive-rate parameter of the model's protocol.

    Oscillator: d(omega)/dt / omega^2.  Spin: the same ratio built from
    the dressed gap, (d(omega)/dt * epsilon) / Omega^3.  The linear ramp
    protocols are built so that both equal mu(t) = chi0 + a*t.
    """
    try:
        mu = model.protocol.mu
    except AttributeError:
        raise ValueError("drive-rate parameter needs a model with a ramp protocol") from None
    return mu(t)


def _pair_sums(lam, rights, lefts, directional, paired) -> np.ndarray:
    """Drive-acceleration parameter of every frame of an (N, m, m) stack.

    Sums |G_k^H D F_n| / |lambda_n - lambda_k|^2 over the ordered pairs
    n != k of the (m, m) mask `paired`, where D is the node's directional
    gradient.  The mask keeps only pairs of one closed block
    (``GeneratorFactorization.mode_pairs``): a cross-block element is a
    structural zero whose modes may share an eigenvalue, so it is no pair.
    """
    gaps = np.abs(lam[:, None, :] - lam[:, :, None])
    gaps[:, ~paired] = np.inf
    scale = np.maximum(np.abs(lam).max(axis=1), 1.0)
    close = gaps < DEGENERACY_GAP * scale[:, None, None]
    if close.any():
        _, k, n = np.argwhere(close)[0]
        raise DegenerateSpectrum(
            f"modes {k} and {n} are too close to evaluate the "
            "drive-acceleration parameter"
        )
    elements = np.abs(lefts.conj().transpose(0, 2, 1) @ directional @ rights)
    # elements and gaps scaled by powers of two near the largest |lambda|:
    # exact, so no value changes, but no squared gap overflows past 1e154
    e = np.frexp(scale)[1][:, None, None]
    return (np.ldexp(elements, -2 * e) / np.ldexp(gaps, -e) ** 2).sum(axis=(1, 2))


def inertial_parameters(fact: GeneratorFactorization, ts) -> np.ndarray:
    """Drive-acceleration parameter at every time in `ts`.

    The frames are one ``eigenframes`` stack per slice of at most
    ``linalg.STACK_NODES`` times, which bounds the frame memory however
    many times are asked for.  Every guard acts node by node, so each
    entry equals the one-point value ``inertial_parameter_at(fact, t)``.
    """
    if fact.grad_B is None or fact.dchi_dtheta is None:
        raise ValueError("factorization lacks grad_B or dchi_dtheta")
    ts = np.asarray(ts, dtype=float)
    total = np.empty(len(ts))
    for lo in range(0, len(ts), STACK_NODES):
        total[lo : lo + STACK_NODES] = _block_sums(fact, ts[lo : lo + STACK_NODES])
    return total


def _block_sums(fact: GeneratorFactorization, ts) -> np.ndarray:
    """Drive-acceleration parameter at the times ts from one frame stack,
    for a one-parameter chi, with every pair inside one closed block."""
    chis = fact.chi_of_t(ts)
    frames = eigenframes(fact.B_of_chi(chis), blocks=fact.blocks)
    directional = fact.dchi_dtheta(ts)[:, None, None] * fact.grad_B(chis)
    return _pair_sums(*frames, directional, paired=fact.mode_pairs(frames[0].shape[1]))


def inertial_parameter_at(fact: GeneratorFactorization, t: float) -> float:
    """Drive-acceleration parameter of a factorized generator at time t.

    The one-point view of ``inertial_parameters``: diagonalizes every
    closed block at the instantaneous parameter value and sums over the
    mode pairs of each block.
    """
    return float(inertial_parameters(fact, [t])[0])


def ho_inertial_parameter_closed(t: float, protocol: HOProtocol) -> float:
    """Closed-form oscillator drive-acceleration parameter; see
    ``HOProtocol.inertial_parameter_closed``."""
    return protocol.inertial_parameter_closed(t)


def _clip_rounding(x: float) -> float:
    # physical validation already bounds the violation; only rounding
    # noise can leak through here
    return x if x > 0.0 else 0.0


def _gaussian_log_fidelity(s1: GaussianState, s2: GaussianState) -> float:
    V1 = s1.covariance()
    V2 = s2.covariance()
    Vs = V1 + V2
    delta_u = np.array([s2.q - s1.q, s2.p - s1.p])
    det_sum = Vs[0, 0] * Vs[1, 1] - Vs[0, 1] * Vs[1, 0]
    if det_sum <= 0.0:
        raise UnphysicalState("sum of covariance matrices is not positive")
    excess = 4.0 * _clip_rounding(s1.uncertainty_product() - 0.25) * _clip_rounding(
        s2.uncertainty_product() - 0.25
    )
    quad = 0.5 * float(delta_u @ np.linalg.solve(Vs, delta_u))
    log_prefactor = math.log(math.sqrt(det_sum + excess) + math.sqrt(excess)) - (
        math.log(det_sum)
    )
    return log_prefactor - quad


def _bloch_one_minus(s1: BlochState, s2: BlochState) -> float:
    r1 = s1.r
    r2 = s2.r
    p1 = _clip_rounding(1.0 - float(r1 @ r1))
    p2 = _clip_rounding(1.0 - float(r2 @ r2))
    dot = float(r1 @ r2)
    diff = r1 - r2
    cross = np.cross(r1, r2)
    denom = 2.0 * ((1.0 - dot) + math.sqrt(p1 * p2))
    if denom == 0.0:
        return 0.0
    return _clip_rounding(
        (float(diff @ diff) - float(cross @ cross)) / denom
    )


def one_minus_fidelity(s1, s2) -> float:
    """Fidelity deficit 1 - F, kept accurate as F -> 1.

    The direct difference 1 - F underflows once F agrees with 1 to
    machine precision; each variant therefore computes the deficit from
    a cancellation-free rearrangement.
    """
    if isinstance(s1, GaussianState) and isinstance(s2, GaussianState):
        s1.validate()
        s2.validate()
        return -math.expm1(_gaussian_log_fidelity(s1, s2))
    if isinstance(s1, BlochState) and isinstance(s2, BlochState):
        s1.validate()
        s2.validate()
        return _bloch_one_minus(s1, s2)
    raise ValueError("state variants do not match or are unsupported")


def fidelity(s1, s2) -> float:
    """Squared Bures overlap of two states of the same variant.

    Gaussian pairs use the closed single-mode covariance form, qubit
    pairs the closed Bloch form.
    """
    return 1.0 - one_minus_fidelity(s1, s2)


def log_time_grid(t_min: float, t_max: float, n: int) -> np.ndarray:
    """Logarithmically spaced protocol durations."""
    if not (0.0 < t_min < t_max) or n < 2:
        raise ValueError("need 0 < t_min < t_max and n >= 2")
    return np.geomspace(t_min, t_max, n)


@dataclass(frozen=True)
class SweepResult:
    """Columns of a duration sweep; rows align with `t_f`.

    Failed points carry the failure text in `errors` and NaN in every
    numeric column.
    """

    t_f: np.ndarray
    fidelity_inertial: np.ndarray
    fidelity_adiabatic: np.ndarray
    max_abs_mu: np.ndarray
    max_upsilon: np.ndarray
    neg_log10_one_minus_fidelity: np.ndarray
    errors: tuple

    COLUMNS = (
        "t_f",
        "fidelity_inertial",
        "fidelity_adiabatic",
        "max_abs_mu",
        "max_upsilon",
        "neg_log10_one_minus_fidelity",
    )

    def __post_init__(self):
        n = len(self.t_f)
        for name in self.COLUMNS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"column {name} has wrong length")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if len(self.errors) != n:
            raise ValueError("errors tuple has wrong length")
        for col in (self.fidelity_inertial, self.fidelity_adiabatic):
            ok = np.isfinite(col)
            if np.any(col[ok] < -1e-12) or np.any(col[ok] > 1.0 + 1e-9):
                raise ValueError("fidelity column leaves [0, 1]")

    def rows(self):
        for i in range(len(self.t_f)):
            yield tuple(float(getattr(self, name)[i]) for name in self.COLUMNS)

    def to_dict(self) -> dict:
        out = {name: [float(x) for x in getattr(self, name)] for name in self.COLUMNS}
        out["errors"] = list(self.errors)
        return out


def max_parameters_along(model, t_f: float, samples: int = 65):
    """Largest |mu| and largest Upsilon over an even time sample of the run.

    A protocol with a closed-form Upsilon (the oscillator's) uses it,
    skipping flagged singular samples; otherwise the generic pairwise sum.
    """
    ts = np.linspace(0.0, t_f, samples)
    mu_max = float(np.abs(adiabatic_parameter(model, ts)).max())
    closed = model.protocol.inertial_parameter_closed
    if closed is None:
        return mu_max, float(inertial_parameters(model.factorization(), ts).max())
    ups = []
    for t in ts:
        try:
            ups.append(closed(t))
        except SingularDenominator:
            continue
    return mu_max, (max(ups) if ups else math.nan)


def _sweep_point(model, t_f: float, omega_target: float, samples: int, tols):
    m = model.for_duration(t_f, omega_target)
    fact = m.factorization()
    v0 = initial_vector(m)
    v_exact = m.exact_vector(t_f, rtol=tols[0], atol=tols[1])
    v_inertial, _ = propagate_inertial(fact, v0, t_f, phase_tol=tols[2])
    v_adiabatic = propagate_adiabatic(fact, v0, t_f)
    exact, inertial, adiabatic = (
        reconstruct_state(m, apply_identity_rescaling(m, v, t_f), t_f)
        for v in (v_exact, v_inertial, v_adiabatic)
    )
    deficit = one_minus_fidelity(exact, inertial)
    mu_max, ups_max = max_parameters_along(m, t_f, samples)
    row = (
        1.0 - deficit,
        fidelity(exact, adiabatic),
        mu_max,
        ups_max,
        -math.log10(deficit) if deficit > 0.0 else math.inf,
    )
    # the scores mean nothing outside the model's diagonalizable domain
    if mu_max >= m.mu_limit:
        raise DomainExceeded(
            f"max |mu| = {mu_max:.6g} reaches the exceptional point |mu| = {m.mu_limit:g}"
        )
    nan = [name for name, x in zip(SweepResult.COLUMNS[1:], row) if math.isnan(x)]
    if nan:
        raise FloatingPointError(f"{', '.join(nan)} evaluated to NaN")
    return row


def fidelity_sweep(
    model,
    t_f_grid,
    *,
    omega_target: float = None,
    samples: int = 65,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    phase_tol: float = 1e-10,
) -> SweepResult:
    """Score the approximate propagators over a grid of protocol durations.

    Each grid point re-drives the model (``model.for_duration``) to reach
    `omega_target` (default: half its starting frequency) in t_f,
    propagates the exact (``model.exact_vector``), inertial-frame and
    frozen-frame solutions, and scores the approximations against the
    exact state.  A failed point is recorded and the sweep continues.

    `rtol`/`atol` control the two-level exact reference, whose Magnus
    steps double until two levels agree within atol + rtol |v| (the
    oscillator's exact state is closed form), and `phase_tol` the
    inertial phase refinement; tighten them when the infidelity floor
    being measured approaches the defaults.
    """
    grid = np.asarray(t_f_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_f grid must be a non-empty 1-d array")
    if not hasattr(type(model), "for_duration"):
        raise ValueError(f"{type(model).__name__} cannot be re-driven for a sweep")
    if omega_target is None:
        omega_target = 0.5 * model.omega_start

    tols = (rtol, atol, phase_tol)
    values, errors = [], []
    for t_f in grid:
        try:
            values.append(_sweep_point(model, float(t_f), omega_target, samples, tols))
            errors.append(None)
        except (LiouvdynError, ArithmeticError, ValueError) as exc:
            values.append((math.nan,) * 5)
            errors.append(f"{type(exc).__name__}: {exc}")

    cols = list(zip(*values))
    return SweepResult(
        t_f=grid,
        fidelity_inertial=np.array(cols[0]),
        fidelity_adiabatic=np.array(cols[1]),
        max_abs_mu=np.array(cols[2]),
        max_upsilon=np.array(cols[3]),
        neg_log10_one_minus_fidelity=np.array(cols[4]),
        errors=tuple(errors),
    )
