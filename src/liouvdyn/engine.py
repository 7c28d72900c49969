"""Propagation of operator-basis expectation vectors.

The central object is a factorized generator: the equation of motion
dv/dtheta = -i B(chi(theta)) v, where theta is the scaled time accumulated
at the instantaneous pace Omega(t) and B depends on time only through the
dimensionless parameter chi.  Four propagators are provided: exact ODE
integration, the analytic constant-chi solution, an adiabatic baseline
frozen at chi = 0, and the slow-parameter-drift (inertial) approximation
that follows the instantaneous eigenframe.  Its phases are Clenshaw-Curtis
integrals on nested Chebyshev levels of [0, t], the transport connection
taken from first-order perturbation theory in a reference gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainExceeded, IntegratorFailure, NotConverged, SingularDenominator
from .linalg import (
    EigenFrame,
    chebyshev_coefficients,
    chebyshev_derivative,
    chebyshev_levels,
    eigenframes,
    transport,
)

_PHASE_TOL = 1e-10
# Chebyshev levels of the inertial phases: 16, 32, ... up to 1024 intervals
_CHEB_N0, _CHEB_MAX_N = 16, 1024
# smallest node-to-node overlap product the reference gauge accepts
_REFERENCE_FLOOR = 1e-8


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
    holds at every node.  ``theta_of_t`` maps a float t to the scaled time
    theta(t), the integral of omega_of_t over [0, t].

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
    theta_of_t: Callable[[float], float]
    grad_B: Callable | None = None
    dchi_dtheta: Callable[[float], float] | None = None
    blocks: tuple | None = None
    t_max: float = math.inf

    def block_ranges(self, dim: int) -> tuple:
        return self.blocks if self.blocks is not None else ((0, dim),)

    def mode_pairs(self, dim: int) -> np.ndarray:
        """(dim, dim) mask of the pairs of distinct modes of one closed block."""
        mask = np.zeros((dim, dim), dtype=bool)
        for lo, hi in self.block_ranges(dim):
            mask[lo:hi, lo:hi] = True
        return mask & ~np.eye(dim, dtype=bool)

    def chi_zero(self):
        """A zero parameter of the same shape chi_of_t produces."""
        chi = self.chi_of_t(0.0)
        if np.isscalar(chi):
            return 0.0
        return tuple(0.0 for _ in chi)


@dataclass(frozen=True, eq=False)
class GeneratorFamily:
    """Affine generator family B(chi) = C0 + sum_k chi_k C_k with optional structure.

    ``coupling`` holds the constant matrices (C0, C1, ..., Cd): the family
    has d parameters, and its partial derivatives are the constants C_k.
    ``blocks`` declares closed sub-blocks diagonalized independently.
    ``factors`` declares a Kronecker-sum composition of one-parameter
    families, whose product modes stay smooth even where sums of factor
    eigenvalues collide accidentally.
    """

    coupling: tuple
    blocks: tuple = None
    factors: tuple = None

    def __post_init__(self):
        coupling = tuple(np.array(C, dtype=complex) for C in self.coupling)
        for C in coupling:
            if C.shape != (len(coupling[0]),) * 2:
                raise ValueError("coupling matrices must share one square shape")
            C.setflags(write=False)
        object.__setattr__(self, "coupling", coupling)

    @property
    def n_params(self) -> int:
        return len(self.coupling) - 1

    def __call__(self, *chis) -> np.ndarray:
        """B at one point of float parameters chi_1, ..., chi_d, or the
        (N, m, m) stack when each is a 1-D array of N values."""
        B = self.coupling[0]
        for chi, C in zip(chis, self.coupling[1:], strict=True):
            # a Python float scales an array faster than np.float64 does
            term = (float(chi) if isinstance(chi, float) else np.asarray(chi)[..., None, None]) * C
            term += B  # in place: a fresh sum costs a second stack
            B = term
        return B

    def matrices(self, chis) -> np.ndarray:
        """(N, m, m) stack of B at the (N, d) parameter points chis."""
        return self(*np.asarray(chis, dtype=float).T)

    @classmethod
    def kronecker_sum(cls, factors):
        """Compose one-parameter families f_j into sum_j I x B_j(chi_j) x I.

        Each factor's coupling is embedded into the full space once, here.
        """
        factors = tuple(factors)
        if any(f.n_params != 1 for f in factors):
            raise ValueError("factors must be one-parameter families")
        dims = [len(f.coupling[0]) for f in factors]

        def embed(mat, j):
            out = mat
            if j > 0:
                out = np.kron(np.eye(math.prod(dims[:j])), out)
            if j < len(dims) - 1:
                out = np.kron(out, np.eye(math.prod(dims[j + 1 :])))
            return out

        constant = sum(embed(f.coupling[0], j) for j, f in enumerate(factors))
        rates = (embed(f.coupling[1], j) for j, f in enumerate(factors))
        return cls(coupling=(constant, *rates), factors=factors)


@dataclass(frozen=True)
class InertialSolution:
    """Per-mode bookkeeping of an eigenframe-following propagation.

    ``Lambda`` is the total accumulated phase per mode, the dynamical
    integral minus the transport (geometric) part.  ``nodes`` counts the
    Chebyshev points of the final level and ``delta`` is the largest
    phase change between the last two levels.
    """

    c: np.ndarray
    dyn_phase: np.ndarray
    geo_phase: np.ndarray
    Lambda: np.ndarray
    t: float = None
    nodes: int = 1
    delta: float = 0.0


def inverse_scaled_time(protocol, theta: float) -> float:
    """The first double t at which the protocol's scaled time reaches theta.

    Bisects a bracket [lo, hi] with theta(lo) < theta <= theta(hi) in
    plain floats until lo and hi are adjacent doubles, and returns hi.
    """
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
    lo = 0.0
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        if protocol.theta(mid) < theta:
            lo = mid
        else:
            hi = mid


def require_propagation_time(t: float, t_max: float) -> None:
    """The guard of every propagation to time t: ValueError before t = 0,
    DomainExceeded at or past the protocol's end t_max."""
    if t < 0.0:
        raise ValueError("propagation runs forward from t = 0")
    if t >= t_max:
        raise DomainExceeded(f"t={t} is at or beyond the protocol domain")


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
    right-hand side well scaled even when Omega(t) grows steeply.  The
    integrator is scipy's DOP853, which the ``reference`` extra installs;
    this is the package's only use of scipy, and no CLI experiment calls it.
    """
    try:
        import scipy.integrate
    except ImportError as err:
        raise ImportError(
            "propagate_exact needs scipy: install the 'reference' extra"
        ) from err

    require_propagation_time(t, fact.t_max)
    theta_f = fact.theta_of_t(t)
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
    theta_f = fact.theta_of_t(t) if t != 0.0 else 0.0
    B0 = fact.B_of_chi(fact.chi_zero())[None]
    lam, rights, lefts = eigenframes(B0, blocks=fact.blocks)
    c = lefts[0].conj().T @ v0.coeffs
    out = rights[0] @ (c * np.exp(-1j * lam[0] * theta_f))
    return LiouvilleVector(coeffs=out, t=t, theta=theta_f)


def _level_phases(fact, x, paces, B, frames):
    """Dynamical and transport phases from one Chebyshev level of [0, t].

    The stacks run over the nodes ``x``, x_0 = 1 at the end time, and
    ``paces`` holds Omega dt/dx.  ``transport`` orders the modes along the
    path.  Each mode k is referred to its frame r_k at one node of the
    first level: once a unit factor on F_k and G_k makes r_k^H F_k(t) real
    and positive, that node gives the largest smallest overlap of
    neighbouring nodes' frames (SingularDenominator when every choice
    turns the frame by pi / 2 or more in one step).  In that reference
    gauge dF_k/dx = P_k + a_k F_k, with the first-order pair sum P_k =
    sum_j F_j (G_j^H dB F_k) / (lambda_k - lambda_j) over the other modes
    of k's block: unit norm fixes Re a_k = -Re(F_k^H P_k) and the real
    overlap Im a_k = -Im(r_k^H P_k) / |r_k^H F_k|.  Returns the final
    frame in its pivot gauge and mode order, int lambda_k Omega dt, and
    geo_k = i int a_k dx moved to the pivot gauges at both ends.
    """
    lam, rights, lefts = (a[::-1] for a in frames)  # time order from here
    perms, _ = transport(rights, lefts)
    lam = np.take_along_axis(lam, perms, axis=1)
    rights, lefts = (np.take_along_axis(a, perms[:, None, :], axis=2) for a in (rights, lefts))
    m, modes = lam.shape[1], np.arange(lam.shape[1])
    # candidate references: the first level's nodes, present at every level.
    # o[k, j, i] = F_k(t_j)^H F_k(t_i): referred to candidate j, the frame's
    # step from node i to i + 1 overlaps as o[k, j, i] s[k, i] conj(o[k, j, i + 1])
    stride = (len(x) - 1) // _CHEB_N0
    per_mode = rights.transpose(2, 0, 1)
    o = per_mode[:, ::stride].conj() @ per_mode.transpose(0, 2, 1)
    steps = (per_mode[:, :-1].conj() * per_mode[:, 1:]).sum(axis=2)
    turns = o[:, :, :-1] * steps[:, None, :] * o[:, :, 1:].conj()
    ref = turns.real.min(axis=2).argmax(axis=1)
    turns, overlap = turns[modes, ref], o[modes, ref].T
    if (bad := np.flatnonzero(~(turns.real.min(axis=1) >= _REFERENCE_FLOOR))).size:
        raise SingularDenominator(f"mode {bad[0]} turns by pi / 2 or more between two nodes "
                                  "against each of its candidate reference frames")
    size = np.abs(overlap)
    F, G = (a * (overlap.conj() / size)[:, None, :] for a in (rights, lefts))

    dB = (chebyshev_derivative(len(x) - 1) @ B.reshape(len(x), -1)).reshape(B.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        pairs = G.conj().transpose(0, 2, 1) @ dB[::-1] @ F / (lam[:, None, :] - lam[:, :, None])
    P = F @ np.where(fact.mode_pairs(m), pairs, 0.0)
    a = (-np.einsum("nak,nak->nk", F.conj(), P).real
         - 1j * np.einsum("ka,nak->nk", F[ref * stride, :, modes].conj(), P).imag / size)
    # Clenshaw-Curtis: int_{-1}^{1} T_k dx = 2 / (1 - k^2) for even k, 0 for odd k
    integrands = np.hstack([lam * paces[::-1, None], a])[::-1]
    even = np.arange(0, len(x), 2)
    sums = 2.0 / (1.0 - even**2) @ chebyshev_coefficients(integrands)[even]
    # the pivot gauges' phase steps less the reference gauge's, each within pi / 2
    winding = np.angle(steps).sum(axis=1) - np.angle(turns).sum(axis=1)
    return rights[-1], sums[:m], 1j * sums[m:] - winding


def propagate_inertial(
    fact: GeneratorFactorization,
    v0: LiouvilleVector,
    t: float,
    *,
    phase_tol: float = _PHASE_TOL,
) -> tuple[LiouvilleVector, InertialSolution]:
    """Eigenframe-following propagation for slowly drifting chi.

    Each mode keeps its t = 0 expansion coefficient and accumulates the
    dynamical integral of its eigenvalue plus a transport (geometric)
    phase.  The Chebyshev levels double until both phase families change
    by less than phase_tol, with NotConverged past _CHEB_MAX_N intervals.
    Each level keeps the ``eigenframes`` and ``transport`` guards, and a
    mode that turns orthogonal to each of its node frames along the path
    raises SingularDenominator.
    """
    require_propagation_time(t, fact.t_max)
    if t == 0.0:
        B0 = fact.B_of_chi(fact.chi_of_t(np.zeros(1)))
        _, rights, lefts = eigenframes(B0, blocks=fact.blocks)
        c = lefts[0].conj().T @ v0.coeffs
        zeros = np.zeros(v0.dim, dtype=complex)
        sol = InertialSolution(
            c=c, dyn_phase=zeros, geo_phase=zeros, Lambda=zeros, t=0.0
        )
        return LiouvilleVector(coeffs=rights[0] @ c, t=0.0, theta=0.0), sol

    def sample(x):
        ts = 0.5 * t * (1.0 + x)
        B = fact.B_of_chi(fact.chi_of_t(ts))
        return (0.5 * t * fact.omega_of_t(ts), B, *eigenframes(B, blocks=fact.blocks))

    previous = None
    for level, x, (paces, B, *frames) in chebyshev_levels(sample, _CHEB_N0, _CHEB_MAX_N):
        final, dyn, geo = _level_phases(fact, x, paces, B, frames)
        if previous is not None:
            delta = max(np.abs(dyn - previous[0]).max(), np.abs(geo - previous[1]).max())
            if delta < phase_tol:
                break
        previous = dyn, geo
    else:
        raise NotConverged(f"phase integrals not stable to {phase_tol} at {level + 1} points")

    c = frames[2][-1].conj().T @ v0.coeffs
    out = final @ (c * np.exp(-1j * dyn + 1j * geo))
    sol = InertialSolution(c=c, dyn_phase=dyn, geo_phase=geo, Lambda=dyn - geo,
                           t=t, nodes=level + 1, delta=float(delta))
    return LiouvilleVector(coeffs=out, t=t, theta=fact.theta_of_t(t)), sol
