"""Propagation of operator-basis expectation vectors.

The central object is a factorized generator: the equation of motion
dv/dtheta = -i B(chi(theta)) v, where theta is the scaled time accumulated
at the instantaneous pace Omega(t) and B depends on time only through the
dimensionless parameter chi.  Four propagators are provided: exact ODE
integration, the analytic constant-chi solution, an adiabatic baseline
frozen at chi = 0, and the slow-parameter-drift (inertial) approximation
that follows the instantaneous eigenframe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# scipy is imported inside the functions that call it: it is most of the
# package's import time, and `geo` and `diagnose` runs never need it.

from .errors import DomainExceeded, IntegratorFailure, NotConverged
from .linalg import EigenFrame, eigenframes, transport

_PHASE_TOL = 1e-10
_N_START = 64
_N_MAX = 16384


@dataclass(frozen=True)
class LiouvilleVector:
    """Expectation values over a model's operator basis at one instant."""

    coeffs: np.ndarray
    t: float | None
    theta: float

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class GeneratorFactorization:
    """Time-dependent generator split as Omega(t) * B(chi(t)).

    ``omega_of_t``, ``chi_of_t``, ``B_of_chi``, ``grad_B`` and
    ``dchi_dtheta`` are evaluated on a whole 1-D array of nodes at once, a
    float being the one-node case: an array of times gives arrays of paces,
    parameters and rates, an array of parameters gives the (N, n, n) stack
    of generators, and ``grad_B`` gives dB/dchi per node or one matrix that
    holds at every node.  ``theta_of_t`` takes a float.

    ``blocks`` lists the index ranges (lo, hi) of closed blocks on which B
    is block-diagonal for every chi.  They are passed to
    ``linalg.eigenframes``, which diagonalizes each block on its own and
    returns block-diagonal frames at full dimension, so repeated
    eigenvalues of unrelated blocks are not mistaken for degeneracies; the
    Upsilon evaluator pairs modes only within a block.  ``block_ranges``
    gives one block over the whole basis when none are declared.
    """

    omega_of_t: Callable[[float], float]
    B_of_chi: Callable
    chi_of_t: Callable[[float], float]
    theta_of_t: Callable[[float], float] | None = None
    grad_B: Callable | None = None
    dchi_dtheta: Callable[[float], float] | None = None
    blocks: tuple | None = None
    t_max: float = math.inf

    def block_ranges(self, dim: int) -> tuple:
        return self.blocks if self.blocks is not None else ((0, dim),)

    def theta(self, t: float) -> float:
        if self.theta_of_t is not None:
            return self.theta_of_t(t)
        import scipy.integrate

        value, _ = scipy.integrate.quad(
            self.omega_of_t, 0.0, t, epsabs=1e-13, epsrel=1e-12, limit=200
        )
        return value

    def chi_zero(self):
        """A zero parameter of the same shape chi_of_t produces."""
        chi = self.chi_of_t(0.0)
        if np.isscalar(chi):
            return 0.0
        return tuple(0.0 for _ in chi)


@dataclass(frozen=True)
class InertialSolution:
    """Per-mode bookkeeping of an eigenframe-following propagation.

    ``Lambda`` is the total accumulated phase per mode, the dynamical
    integral minus the transport (geometric) part.
    """

    c: np.ndarray
    dyn_phase: np.ndarray
    geo_phase: np.ndarray
    Lambda: np.ndarray
    t: float = None


def inverse_scaled_time(protocol, theta: float) -> float:
    """The physical time at which the protocol reaches scaled time theta."""
    import scipy.optimize

    if theta < 0.0:
        raise ValueError("scaled time runs forward from 0")
    if theta == 0.0:
        return 0.0
    t_max = getattr(protocol, "t_max", math.inf)
    if math.isfinite(t_max):
        hi = t_max * (1.0 - 1e-13)
        if protocol.theta(hi) < theta:
            raise DomainExceeded(
                "requested scaled time lies beyond the protocol range"
            )
    else:
        hi = 1.0
        for _ in range(200):
            if protocol.theta(hi) >= theta:
                break
            hi *= 2.0
        else:
            raise DomainExceeded("scaled time not reached at any finite time")
    return float(
        scipy.optimize.brentq(
            lambda s: protocol.theta(s) - theta, 0.0, hi, xtol=1e-14
        )
    )


def coefficients(frame: EigenFrame, v0) -> np.ndarray:
    """Expansion coefficients c_k = (G_k | v0) in a bi-orthonormal frame."""
    vec = v0.coeffs if isinstance(v0, LiouvilleVector) else np.asarray(v0)
    return frame.lefts.conj().T @ vec.astype(complex)


def propagate_constant_chi(
    frame: EigenFrame, c: np.ndarray, theta: float
) -> LiouvilleVector:
    """Analytic solution sum_k c_k F_k exp(-i lambda_k theta)."""
    phases = np.exp(-1j * frame.lambdas * theta)
    coeffs = frame.rights @ (np.asarray(c, dtype=complex) * phases)
    return LiouvilleVector(coeffs=coeffs, t=None, theta=theta)


def propagate_exact(
    fact: GeneratorFactorization,
    v0: LiouvilleVector,
    t: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> LiouvilleVector:
    """Reference propagation by adaptive integration in scaled time.

    Integrates the augmented system (v, t) over theta, which keeps the
    right-hand side well scaled even when Omega(t) grows steeply.
    """
    import scipy.integrate

    if t < 0.0:
        raise ValueError("propagation runs forward from t = 0")
    if t >= fact.t_max:
        raise DomainExceeded(f"t={t} is at or beyond the protocol domain")
    theta_f = fact.theta(t)
    if theta_f == 0.0:
        return LiouvilleVector(coeffs=v0.coeffs.copy(), t=t, theta=0.0)

    n = v0.dim

    def rhs(_theta, y):
        tt = y[n].real
        B = fact.B_of_chi(fact.chi_of_t(tt))
        # a fresh array per call: solve_ivp keeps the last one it returned
        dy = np.empty(n + 1, dtype=complex)
        np.multiply(-1j, B @ y[:n], out=dy[:n])
        dy[n] = 1.0 / fact.omega_of_t(tt)
        return dy

    y0 = np.append(v0.coeffs.astype(complex), 0.0 + 0.0j)
    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, theta_f),
        y0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise IntegratorFailure(sol.message)
    t_end = sol.y[n, -1].real
    if abs(t_end - t) > 1e-8 * max(1.0, abs(t)):
        raise IntegratorFailure(
            f"time bookkeeping drifted: integrated t={t_end}, requested {t}"
        )
    return LiouvilleVector(coeffs=sol.y[:n, -1], t=t, theta=theta_f)


def propagate_adiabatic(
    fact: GeneratorFactorization, v0: LiouvilleVector, t: float
) -> LiouvilleVector:
    """Frozen-parameter baseline: the chi = 0 frame with the true pace.

    Expands v0 in the eigenframe of B at chi = 0 and advances each mode by
    its zero-parameter eigenvalue over the actual scaled time theta(t).
    """
    theta_f = fact.theta(t) if t != 0.0 else 0.0
    B0 = fact.B_of_chi(fact.chi_zero())[None]
    lam, rights, lefts = eigenframes(B0, blocks=fact.blocks)
    c = lefts[0].conj().T @ v0.coeffs
    out = rights[0] @ (c * np.exp(-1j * lam[0] * theta_f))
    return LiouvilleVector(coeffs=out, t=t, theta=theta_f)


def _node_data(fact, ts):
    """Pace values and the eigenframe stacks of B(chi(t)) at the nodes ts."""
    B = fact.B_of_chi(fact.chi_of_t(ts))
    return fact.omega_of_t(ts), eigenframes(B, blocks=fact.blocks)


def _inertial_passes(fact, v0, t: float):
    """Fixed-grid sweeps at _N_START, 2 * _N_START, ... up to _N_MAX nodes.

    Each pass yields the expansion coefficients, the dynamical and
    transport phase integrals, and the transported final right frame.  The
    grids are nested: a doubling diagonalizes only the new midpoints and
    interleaves them with the previous frames, so no node is evaluated or
    diagonalized twice.
    """
    import scipy.integrate

    ts = np.linspace(0.0, t, _N_START + 1)
    omegas, frames = _node_data(fact, ts)
    while True:
        lam, rights, lefts = frames
        perms, logs = transport(rights, lefts)
        lam_path = np.take_along_axis(lam, perms, axis=1)
        dyn = scipy.integrate.simpson(lam_path * omegas[:, None], x=ts, axis=0)
        c = lefts[0].conj().T @ v0.coeffs
        yield c, dyn, 1j * logs, rights[-1][:, perms[-1]]
        if 2 * (ts.size - 1) > _N_MAX:
            return
        mids = np.arange(1, ts.size)
        ts = np.linspace(0.0, t, 2 * ts.size - 1)
        new_omegas, new_frames = _node_data(fact, ts[1::2])
        omegas = np.insert(omegas, mids, new_omegas)
        frames = tuple(
            np.insert(old, mids, new, axis=0) for old, new in zip(frames, new_frames)
        )


def propagate_inertial(
    fact: GeneratorFactorization,
    v0: LiouvilleVector,
    t: float,
    include_geo: bool = True,
    *,
    phase_tol: float = _PHASE_TOL,
) -> tuple[LiouvilleVector, InertialSolution]:
    """Eigenframe-following propagation for slowly drifting chi.

    Each mode keeps its t = 0 expansion coefficient and accumulates the
    dynamical integral of its eigenvalue plus a discrete parallel-transport
    (geometric) phase.  The time grid is doubled until both phase families
    are stable to phase_tol; the transport product telescopes, so the result
    is independent of the per-node gauge choices.
    """
    if t < 0.0:
        raise ValueError("propagation runs forward from t = 0")
    if t >= fact.t_max:
        raise DomainExceeded(f"t={t} is at or beyond the protocol domain")
    n = v0.dim
    if t == 0.0:
        _, (_, rights, lefts) = _node_data(fact, np.zeros(1))
        c = lefts[0].conj().T @ v0.coeffs
        zeros = np.zeros(n, dtype=complex)
        sol = InertialSolution(
            c=c, dyn_phase=zeros, geo_phase=zeros, Lambda=zeros, t=0.0
        )
        return LiouvilleVector(coeffs=rights[0] @ c, t=0.0, theta=0.0), sol

    # The transport sum converges at first order in the step and the
    # eigenvalue integral at fourth; Richardson extrapolation of the
    # doubling sequence removes the leading error terms of each, and the
    # loop exits once successive extrapolants agree.
    history = []
    prev_est = None
    for c, dyn, geo, final_rights in _inertial_passes(fact, v0, t):
        history.append((dyn, geo))
        if len(history) >= 3:
            g0, g1, g2 = (h[1] for h in history[-3:])
            geo_est = (4.0 * (2.0 * g2 - g1) - (2.0 * g1 - g0)) / 3.0
            d1, d2 = history[-2][0], history[-1][0]
            dyn_est = (16.0 * d2 - d1) / 15.0
            if prev_est is not None:
                dyn_err = np.max(np.abs(dyn_est - prev_est[0]))
                geo_err = np.max(np.abs(geo_est - prev_est[1]))
                if dyn_err < phase_tol and geo_err < phase_tol:
                    dyn, geo = dyn_est, geo_est
                    break
            prev_est = (dyn_est, geo_est)
    else:
        raise NotConverged(
            f"phase integrals not stable to {phase_tol} at {_N_MAX} nodes"
        )

    used_geo = geo if include_geo else np.zeros(n, dtype=complex)
    out = final_rights @ (c * np.exp(-1j * dyn + 1j * used_geo))
    sol = InertialSolution(
        c=c, dyn_phase=dyn, geo_phase=used_geo, Lambda=dyn - used_geo, t=t
    )
    theta_f = fact.theta(t)
    return LiouvilleVector(coeffs=out, t=t, theta=theta_f), sol


def apply_identity_rescaling(model, v: LiouvilleVector, t: float) -> LiouvilleVector:
    """Physical vector from the scaled one via per-component power weights.

    Each component is multiplied by (base(t))^w with the model's weight
    vector w; weight 0 leaves a component (notably the identity) untouched.
    """
    base = model.rescaling_base(t)
    weights = np.asarray(model.rescaling_weights, dtype=float)
    if weights.shape[0] != v.dim:
        raise ValueError("rescaling weight vector does not match the basis")
    coeffs = v.coeffs * np.power(base, weights)
    return LiouvilleVector(coeffs=coeffs, t=t, theta=v.theta)
