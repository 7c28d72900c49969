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
from .errors import guard, nodes_at
from .linalg import (
    STACK_NODES,
    EigenFrame,
    chebyshev_coefficients,
    chebyshev_derivative,
    chebyshev_nodes,
    eigenframes,
    interleave,
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


def require_propagation_time(t, t_max) -> None:
    """The guard of every propagation to time t: ValueError before t = 0,
    DomainExceeded at or past the protocol's end t_max.  Given sequences of
    times and ends, one of each per point of a batch, an error names every
    point it flags, each with the message the point's own call gives."""
    if np.ndim(t) == 0 and 0.0 <= t < t_max:  # plain floats for the common case
        return
    times = [t] if np.ndim(t) == 0 else list(t)
    at = np.asarray(times, dtype=float)
    guard(ValueError, (at < 0.0, lambda i: "propagation runs forward from t = 0"))
    guard(DomainExceeded, (at >= t_max, lambda i: (
        f"t={times[i[0]]} is at or beyond the protocol domain")))


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


def propagate_adiabatic_batch(facts, v0s, ts) -> list:
    """Frozen-parameter baseline of many points of one generator family.

    Point i expands v0s[i] in the eigenframe of B at chi = 0 and advances
    each mode by its zero-parameter eigenvalue over the actual scaled time
    theta(ts[i]) of facts[i].  The factorizations share one generator and
    block layout (ValueError otherwise), so that frame is diagonalized
    once for the batch, and its guard error names every point.  The times
    pass ``require_propagation_time`` first, which names each failing point.
    """
    facts, v0s, ts = list(facts), list(v0s), list(ts)
    if not facts:
        return []
    require_propagation_time(ts, [f.t_max for f in facts])
    thetas = [f.theta_of_t(t) if t != 0.0 else 0.0 for f, t in zip(facts, ts, strict=True)]
    fact = facts[0]
    if any(f.B_of_chi is not fact.B_of_chi or f.blocks != fact.blocks for f in facts):
        raise ValueError("the points of a batch share one generator and block layout")
    with nodes_at([range(len(facts))]):
        lam, rights, lefts = eigenframes(fact.B_of_chi(fact.chi_zero())[None], blocks=fact.blocks)
    out = []
    for v0, t, theta_f in zip(v0s, ts, thetas, strict=True):
        c = lefts[0].conj().T @ v0.coeffs
        coeffs = rights[0] @ (c * np.exp(-1j * lam[0] * theta_f))
        out.append(LiouvilleVector(coeffs=coeffs, t=t, theta=theta_f))
    return out


def propagate_adiabatic(
    fact: GeneratorFactorization, v0: LiouvilleVector, t: float
) -> LiouvilleVector:
    """Frozen-parameter baseline: the chi = 0 frame with the true pace.

    The one-point view of ``propagate_adiabatic_batch``.
    """
    return propagate_adiabatic_batch([fact], [v0], [t])[0]


def _level_phases(fact, x, paces, B, lam, rights, lefts):
    """Dynamical and transport phases of P points from one Chebyshev level of [0, t].

    The (P, N, ...) stacks run over the points and the nodes ``x``, x_0 = 1
    at each point's end time, and ``paces`` holds Omega dt/dx.
    ``transport`` orders the modes along each path.  Each mode k is
    referred to its frame r_k at one node of the first level: once a unit
    factor on F_k and G_k makes r_k^H F_k(t) real and positive, that node
    gives the largest smallest overlap of neighbouring nodes' frames
    (SingularDenominator when every choice turns the frame by pi / 2 or
    more in one step).  In that reference gauge dF_k/dx = P_k + a_k F_k,
    with the first-order pair sum P_k = sum_j F_j (G_j^H dB F_k) /
    (lambda_k - lambda_j) over the other modes of k's block: unit norm
    fixes Re a_k = -Re(F_k^H P_k) and the real overlap Im a_k =
    -Im(r_k^H P_k) / |r_k^H F_k|.  Returns per point the final frame in
    its pivot gauge and mode order, int lambda_k Omega dt, and geo_k = i
    int a_k dx moved to the pivot gauges at both ends.  Every step acts
    on each point alone, so a point's phases do not depend on the others.
    """
    lam, rights, lefts = (a[:, ::-1] for a in (lam, rights, lefts))  # time order from here
    perms, _ = transport(rights, lefts)
    lam = np.take_along_axis(lam, perms, axis=2)
    rights, lefts = (np.take_along_axis(a, perms[:, :, None, :], axis=3) for a in (rights, lefts))
    points, m = np.arange(len(lam))[:, None], lam.shape[2]
    modes = np.arange(m)
    # candidate references: the first level's nodes, present at every level.
    # o[p, k, j, i] = F_k(t_j)^H F_k(t_i): referred to candidate j, the frame's
    # step from node i to i + 1 overlaps as o[p, k, j, i] s[p, k, i] conj(o[p, k, j, i + 1])
    stride = (len(x) - 1) // _CHEB_N0
    per_mode = rights.transpose(0, 3, 1, 2)
    o = per_mode[:, :, ::stride].conj() @ per_mode.transpose(0, 1, 3, 2)
    steps = (per_mode[:, :, :-1].conj() * per_mode[:, :, 1:]).sum(axis=3)
    turns = o[..., :-1] * steps[:, :, None, :] * o[..., 1:].conj()
    ref = turns.real.min(axis=3).argmax(axis=2)
    turns, overlap = turns[points, modes, ref], o[points, modes, ref].transpose(0, 2, 1)
    guard(SingularDenominator, (~(turns.real.min(axis=2) >= _REFERENCE_FLOOR), lambda i: (
        f"mode {i[1]} turns by pi / 2 or more between two nodes "
        "against each of its candidate reference frames")))
    size = np.abs(overlap)
    F, G = (a * (overlap.conj() / size)[:, :, None, :] for a in (rights, lefts))

    n = len(x) - 1
    dB = (chebyshev_derivative(n) @ B.reshape(len(B), n + 1, -1)).reshape(B.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        pairs = (G.conj().swapaxes(-1, -2) @ dB[:, ::-1] @ F
                 / (lam[:, :, None, :] - lam[:, :, :, None]))
    P = F @ np.where(fact.mode_pairs(m), pairs, 0.0)
    a = (-np.einsum("pnak,pnak->pnk", F.conj(), P).real
         - 1j * np.einsum("pka,pnak->pnk", F[points, ref * stride, :, modes].conj(), P).imag
         / size)
    # Clenshaw-Curtis: int_{-1}^{1} T_k dx = 2 / (1 - k^2) for even k, 0 for
    # odd k; the coefficients run over the nodes' axis, so it leads here
    integrands = np.concatenate([lam * paces[:, ::-1, None], a], axis=2)[:, ::-1]
    even = np.arange(0, n + 1, 2)
    coeffs = chebyshev_coefficients(integrands.transpose(1, 0, 2))[even]
    sums = 2.0 / (1.0 - even**2) @ coeffs.transpose(1, 0, 2)
    # the pivot gauges' phase steps less the reference gauge's, each within pi / 2
    winding = np.angle(steps).sum(axis=2) - np.angle(turns).sum(axis=2)
    return rights[:, -1], sums[:, :m], 1j * sums[:, m:] - winding


def _at_start(fact, v0):
    """The inertial solution at t = 0: v0 itself, expanded in the t = 0 frame."""
    B0 = fact.B_of_chi(fact.chi_of_t(np.zeros(1)))
    _, rights, lefts = eigenframes(B0, blocks=fact.blocks)
    c = lefts[0].conj().T @ v0.coeffs
    zeros = np.zeros(v0.dim, dtype=complex)
    sol = InertialSolution(c=c, dyn_phase=zeros, geo_phase=zeros, Lambda=zeros, t=0.0)
    return LiouvilleVector(coeffs=rights[0] @ c, t=0.0, theta=0.0), sol


def _sample(points, x):
    """(paces, B, lam, rights, lefts) stacks of the points at the nodes x,
    the frames of every point from one ``eigenframes`` stack.  A guard
    error names the positions of the points in ``points``."""
    paces, B = [], []
    for p, (_, fact, _, t) in enumerate(points):
        ts = 0.5 * t * (1.0 + x)
        with nodes_at(np.full(len(x), p)):
            B.append(fact.B_of_chi(fact.chi_of_t(ts)))
            paces.append(0.5 * t * fact.omega_of_t(ts))
    B = np.stack(B)
    with nodes_at(np.repeat(np.arange(len(points)), len(x))):
        frames = eigenframes(B.reshape(-1, *B.shape[2:]), blocks=points[0][1].blocks)
    return (np.stack(paces), B, *(a.reshape(len(points), len(x), *a.shape[1:]) for a in frames))


def _refine(points, phase_tol, results, n=_CHEB_N0, samples=None, previous=None):
    """Refine the points, (index, fact, v0, t) each, from level n.

    ``samples`` holds the ``_sample`` stacks of level n over the points,
    and ``previous`` the phases of the level before, or None at the first
    level.  A point whose two levels agree within phase_tol retires, its
    result going to results[index].  A guard error names points by index,
    NotConverged those unsettled past _CHEB_MAX_N intervals.  When the next
    level's new nodes would pass STACK_NODES, the points split into parts.
    """
    while True:
        new = n + 1 if samples is None else n // 2
        size = max(1, STACK_NODES // new)
        if len(points) > size:
            for lo in range(0, len(points), size):
                part = slice(lo, lo + size)
                _refine(points[part], phase_tol, results, n,
                        *(None if s is None else tuple(a[part] for a in s)
                          for s in (samples, previous)))
            return
        x = chebyshev_nodes(n)
        with nodes_at([i for i, *_ in points]):
            if samples is None:
                samples = _sample(points, x)
            else:
                samples = tuple(interleave(old, odd, axis=1)
                                for old, odd in zip(samples, _sample(points, x[1::2])))
            final, dyn, geo = _level_phases(points[0][1], x, *samples)
            if previous is None:  # the first level, below _CHEB_MAX_N
                previous, n = (dyn, geo), 2 * n
                continue
            delta = np.maximum(np.abs(dyn - previous[0]).max(axis=1),
                               np.abs(geo - previous[1]).max(axis=1))
            done = delta < phase_tol
            if 2 * n > _CHEB_MAX_N:
                guard(NotConverged, (~done, lambda _: (
                    f"phase integrals not stable to {phase_tol} at {n + 1} points")))
        for j in np.flatnonzero(done):
            i, fact, v0, t = points[j]
            c = samples[4][j, -1].conj().T @ v0.coeffs
            out = final[j] @ (c * np.exp(-1j * dyn[j] + 1j * geo[j]))
            sol = InertialSolution(c=c, dyn_phase=dyn[j], geo_phase=geo[j],
                                   Lambda=dyn[j] - geo[j], t=t, nodes=n + 1,
                                   delta=float(delta[j]))
            results[i] = LiouvilleVector(coeffs=out, t=t, theta=fact.theta_of_t(t)), sol
        keep = np.flatnonzero(~done)
        if not keep.size:
            return
        points = [points[j] for j in keep]
        samples = tuple(s[keep] for s in samples)
        previous, n = (dyn[keep], geo[keep]), 2 * n


def propagate_inertial_batch(facts, v0s, ts, *, phase_tol: float = _PHASE_TOL) -> list:
    """Eigenframe-following propagation of many points at once.

    Point i propagates v0s[i] under facts[i] to ts[i] as
    ``propagate_inertial`` does, and the list holds each point's
    ``(LiouvilleVector, InertialSolution)``.  The factorizations share one
    block layout (ValueError otherwise).  The Chebyshev levels run over
    every active point together: one ``eigenframes`` stack holds the new
    nodes of all of them, and ``transport`` and the level phases run over
    (points, nodes, m, m) stacks.  A point retires at the level where its
    own two levels agree, so its nodes, delta and result are the ones it
    gets alone.  A batch whose next stack would hold more than
    ``linalg.STACK_NODES`` nodes splits, and its parts are refined one
    after the other, which bounds the frame memory however many points
    are asked for.  A guard error, NotConverged and the
    ``require_propagation_time`` errors included, names every point that
    fails there, each with the message it gets alone.
    """
    facts, v0s, ts = list(facts), list(v0s), list(ts)
    if any(f.blocks != facts[0].blocks for f in facts):
        raise ValueError("the points of a batch share one block layout")
    require_propagation_time(ts, [f.t_max for f in facts])
    results = [None] * len(ts)
    moving = []
    for i, (fact, v0, t) in enumerate(zip(facts, v0s, ts, strict=True)):
        if t == 0.0:
            with nodes_at([i]):
                results[i] = _at_start(fact, v0)
        else:
            moving.append((i, fact, v0, t))
    if moving:
        _refine(moving, phase_tol, results)
    return results


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
    raises SingularDenominator.  The one-point view of
    ``propagate_inertial_batch``.
    """
    return propagate_inertial_batch([fact], [v0], [t], phase_tol=phase_tol)[0]
