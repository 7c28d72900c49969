"""Concrete driven models: parametric oscillator and two-level system.

Each model supplies a finite operator basis over which the Heisenberg
dynamics closes, the factorized generator acting on that basis, driving
protocols with closed-form scaled time where available, the inversion
from basis expectation values back to physical states, and its exact
propagation (``exact_vector``: closed form for the oscillator, a product
of sixth-order Magnus rotations for the two-level system).  The
two-spin couplings serve the geometric phases alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# scipy is imported inside the functions that call it: it is most of the
# package's import time, and `geo` and `diagnose` runs never need it.

from .engine import GeneratorFactorization, LiouvilleVector
from .errors import (
    DomainExceeded,
    IntegratorFailure,
    NotConverged,
    SingularDenominator,
    UnphysicalState,
)
from .linalg import MAGNUS_MAX_STEPS, MAGNUS_STEPS_PER_RAD, magnus_axes, ordered_product

# basis block layout: (energy-like triple)(linear pair)(identity)
HO_BLOCKS = ((0, 3), (3, 5), (5, 6))
# (energy-like triple)(identity)
TLS_BLOCKS = ((0, 3), (3, 4))

_DEN_TOL = 1e-12
# fewest steps of the two-level exact flow's first Magnus level: on the
# duration sweeps' shortest ramps Omega halves within t_f, and 32 steps
# are where two levels first agree to 1e-10
_MAGNUS_MIN_STEPS = 32


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _coupling(n: int, constant: dict, rate: dict) -> tuple:
    """Read-only real pair (A0, A1) from {(row, col): value} entries."""
    pair = (np.zeros((n, n)), np.zeros((n, n)))
    for A, entries in zip(pair, (constant, rate)):
        for (i, j), value in entries.items():
            A[i, j] = value
        A.setflags(write=False)
    return pair


# Every bundled generator is affine in its drive parameter, B(chi) =
# 1j (A0 + chi A1) for the real coupling pair, so its gradient is 1j A1.
HO_COUPLING = _coupling(
    6,
    {(1, 2): 2.0, (2, 1): -2.0, (3, 4): -1.0, (4, 3): 1.0},
    {(0, 1): -1.0, (1, 0): -1.0, (3, 3): 0.5, (4, 4): -0.5},
)
_TLS_ENTRIES = ({(1, 2): -1.0, (2, 1): 1.0}, {(0, 1): -1.0, (1, 0): 1.0})
TLS_COUPLING = _coupling(3, *_TLS_ENTRIES)
# the spin triple with a zero identity row and column appended
TLS_EMBEDDED_COUPLING = _coupling(4, *_TLS_ENTRIES)


def _two_spin_couplings():
    A0, A1 = TLS_COUPLING
    eye, zero = np.eye(3), np.zeros((3, 3))
    local = (
        np.block([[A0, zero], [zero, A0]]),
        np.block([[A1, zero], [zero, zero]]),
        np.block([[zero, zero], [zero, A1]]),
    )
    cross = (np.kron(A0, eye) + np.kron(eye, A0), np.kron(A1, eye), np.kron(eye, A1))
    for A in local + cross:
        A.setflags(write=False)
    return local, cross


# (A0, A1, A2) of the two-spin couplings A0 + chi1 A1 + chi2 A2
TWO_SPIN_LOCAL_COUPLING, TWO_SPIN_CROSS_COUPLING = _two_spin_couplings()


def _scale(chi):
    """A float chi as a float; a 1-D array of chi shaped (N, 1, 1), so that
    scaling an (n, n) matrix gives the (N, n, n) stack."""
    # a Python float scales an array faster than np.float64 does
    return float(chi) if isinstance(chi, float) else np.asarray(chi)[..., None, None]


def _affine(coupling, chi) -> np.ndarray:
    return 1j * (coupling[0] + _scale(chi) * coupling[1])


def ho_generator(chi) -> np.ndarray:
    """6x6 oscillator generator over {H, L, C, K, J, identity}.

    Block-diagonal: a 3x3 energy-like block, a 2x2 block for the linear
    observables, and a zero row for the identity.  Real spectrum for
    |chi| < 2; the blocks collapse onto a non-diagonalizable point at
    |chi| = 2.  A 1-D array of chi gives the stack.
    """
    return _affine(HO_COUPLING, chi)


def tls_generator(chi) -> np.ndarray:
    """3x3 two-level generator over the scaled {H, L, C} triple.

    i times a real antisymmetric-plus-rotation coupling; Hermitian, so the
    spectrum {0, +/-sqrt(1+chi^2)} is real for every chi.  A 1-D array of
    chi gives the stack.
    """
    return _affine(TLS_COUPLING, chi)


def tls_generator_embedded(chi) -> np.ndarray:
    """4x4 extension with a zero identity row/column appended."""
    return _affine(TLS_EMBEDDED_COUPLING, chi)


def two_spin_generators(chi1, chi2):
    """Generators for the local (6x6) and cross-correlator (9x9) vectors.

    The local vector stacks both single-spin triples, so its generator is
    block-diagonal.  The cross-correlator vector holds the nine products
    A_a(1) A_b(2) ordered with the first-spin index slow (entry 3a+b), and
    its generator is the Kronecker sum of the single-spin couplings: it
    does not decompose into independent sub-blocks.  1-D arrays give stacks.
    """
    chi1, chi2 = _scale(chi1), _scale(chi2)
    return tuple(
        1j * (A0 + chi1 * A1 + chi2 * A2)
        for A0, A1, A2 in (TWO_SPIN_LOCAL_COUPLING, TWO_SPIN_CROSS_COUPLING)
    )


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


def _require_inside(t, outside, t_max: float):
    """Raise DomainExceeded at the first time in t that `outside` flags."""
    if np.any(outside):
        first = np.asarray(t)[outside][0]
        raise DomainExceeded(f"t={first} is outside the protocol domain [0, {t_max})")


def _sqrt(x):
    # math.sqrt on the float path: np.sqrt costs more per scalar call
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _first_positive_root(A: float, B: float, C: float) -> float:
    """Earliest positive real root of A x^2 + B x + C = 0 for nonzero C, or inf.

    The roots are q/A and C/q with q = -(B + sign(B) sqrt(B^2 - 4AC))/2,
    so none cancels when 4AC is small against B^2, and C/q is the root of
    the linear equation when A is 0.  q vanishes only at B = 0 where 4AC
    is 0 or underflows, with no root or roots beyond 1e150.
    """
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return math.inf
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    roots = () if q == 0.0 else (C / q,) if A == 0.0 else (q / A, C / q)
    return min((x for x in roots if x > 0.0), default=math.inf)


@dataclass(frozen=True)
class HOProtocol:
    """Frequency ramp omega(t) = omega0 / (1 - omega0 (chi0 t + a t^2/2)).

    Built so the rate parameter chi(t) = omega_dot / omega^2 is exactly
    chi0 + a t: chi0 is the initial rate, `a` its constant acceleration.
    Every method but ``theta`` takes a float t or a 1-D array of times.
    """

    omega0: float
    chi0: float
    a: float = 0.0

    def __post_init__(self):
        if self.omega0 <= 0.0:
            raise ValueError("omega0 must be positive")

    def _q(self, t: float) -> float:
        # inverse frequency 1/omega(t); the protocol ends where it hits 0
        return 1.0 / self.omega0 - self.chi0 * t - 0.5 * self.a * t * t

    @cached_property
    def t_max(self) -> float:
        """Earliest positive time at which the frequency diverges."""
        return _first_positive_root(-0.5 * self.a, -self.chi0, 1.0 / self.omega0)

    def _require_valid(self, t):
        """1/omega(t), once every time in t is checked to lie in the domain."""
        q = self._q(t)
        # a plain-float test first: the ODE right-hand side calls this per step
        if not (isinstance(t, float) and t < self.t_max and q > 0.0):
            _require_inside(t, (t >= self.t_max) | (q <= 0.0), self.t_max)
        return q

    def omega(self, t):
        return 1.0 / self._require_valid(t)

    def mu(self, t):
        """Rate parameter omega_dot/omega^2, linear by construction."""
        self._require_valid(t)
        return self.chi0 + self.a * t

    def omega_dot(self, t):
        w = self.omega(t)
        return (self.chi0 + self.a * t) * w * w

    def omega_ddot(self, t):
        w = self.omega(t)
        mu = self.chi0 + self.a * t
        return self.a * w * w + 2.0 * mu * mu * w**3

    def inertial_parameter_closed(self, t: float) -> float:
        """Closed-form drive-acceleration parameter Upsilon at time t.

        Evaluates the frequency-profile expression
            mu^2 (w''/w - 2 (w'/w)^2)
            / [ (2 kappa)^2 ( (w''/w) log(w/w0) - (w'/w)^2 (2 log(w/w0) + 1) ) ]
        with kappa = sqrt(4 - mu^2), returned as a magnitude.  Points where
        the bracketed denominator vanishes (for example t -> 0 on a ramp
        that starts from rest) are flagged instead of evaluated.
        """
        w0 = self.omega(0.0)
        w = self.omega(t)
        wd = self.omega_dot(t)
        wdd = self.omega_ddot(t)
        if wd == 0.0 and wdd == 0.0:
            return 0.0
        mu = wd / (w * w)
        ksq = 4.0 - mu * mu
        if ksq <= 0.0:
            raise SingularDenominator(
                "mode splitting kappa vanishes at |mu| >= 2; the expression is undefined"
            )
        log_ratio = math.log(w / w0)
        curv = wdd / w
        rate_sq = (wd / w) ** 2
        num = mu * mu * (curv - 2.0 * rate_sq)
        bracket = curv * log_ratio - rate_sq * (2.0 * log_ratio + 1.0)
        scale = abs(curv) * max(abs(log_ratio), 1.0) + rate_sq * (
            2.0 * abs(log_ratio) + 1.0
        )
        if abs(bracket) <= _DEN_TOL * scale:
            raise SingularDenominator(
                f"denominator vanishes at t = {t:g}; point skipped"
            )
        return abs(num / (4.0 * ksq * bracket))

    def theta(self, t: float) -> float:
        """Scaled time, the closed-form antiderivative of omega.

        With 1/omega = C + B t + A t^2, D = B^2 - 4AC, r = sqrt(|D|) and
        s = 2C + B t, theta = (2/r) atanh(r t / s) for D >= 0 and
        (2/r) atan2(r t, s) for D < 0.  Inside the domain s > 0 unless
        D < 0; for s > 0 they are taken as (2t/s) atanh(w)/w and
        (2t/s) atan(w)/w with w = r t / s, so no root is formed and neither
        a small acceleration nor a small time cancels or underflows.
        """
        self._require_valid(t)
        A, B, C = -0.5 * self.a, -self.chi0, 1.0 / self.omega0
        disc = B * B - 4.0 * A * C
        r = math.sqrt(abs(disc))
        s = 2.0 * C + B * t
        if s <= 0.0:
            if disc >= 0.0:  # t lies past the first root of 1/omega
                raise DomainExceeded(f"t={t} is outside the protocol domain [0, {self.t_max})")
            return 2.0 * math.atan2(r * t, s) / r
        w = r * t / s
        ratio = 1.0 if w == 0.0 else (math.atanh(w) if disc >= 0.0 else math.atan(w)) / w
        return 2.0 * t / s * ratio

    @classmethod
    def solve_boundary(
        cls, omega0: float, omega_target: float, t_f: float, a: float = 0.0
    ) -> "HOProtocol":
        """Protocol hitting omega(t_f) = omega_target for the given a.

        The frequency condition is linear in chi0, so the solve is exact;
        the residual is asserted below 1e-12 relative.
        """
        if t_f <= 0.0 or omega_target <= 0.0:
            raise ValueError("need t_f > 0 and a positive target frequency")
        chi0 = (1.0 / omega0 - 1.0 / omega_target - 0.5 * a * t_f * t_f) / t_f
        protocol = cls(omega0=omega0, chi0=chi0, a=a)
        if protocol.t_max <= t_f:
            raise DomainExceeded(
                "protocol diverges before reaching the requested endpoint"
            )
        residual = abs(protocol.omega(t_f) - omega_target)
        # not <=: a ramp past the float range gives chi0 = inf and a NaN residual
        if not residual <= 1e-12 * omega_target:
            raise ArithmeticError(
                f"boundary solve residual {residual:.3e} too large"
            )
        return protocol


@dataclass(frozen=True)
class TLSProtocol:
    """Level-splitting ramp at constant transverse coupling epsilon.

    Parameterized through z(t) = omega/Omega, driven so that the rate
    parameter (omega_dot epsilon)/Omega^3 is exactly chi0 + abar t.
    Every method but ``theta`` takes a float t or a 1-D array of times.
    """

    epsilon: float
    omega0: float
    chi0: float
    abar: float = 0.0

    # no closed-form Upsilon: diagnostics use the generic pairwise sum
    inertial_parameter_closed = None

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.omega0 < 0.0:
            raise ValueError("omega0 must be non-negative")

    @property
    def Omega0(self) -> float:
        return math.hypot(self.omega0, self.epsilon)

    @property
    def z0(self) -> float:
        return self.omega0 / self.Omega0

    def z(self, t):
        return self.z0 + self.epsilon * (self.chi0 * t + 0.5 * self.abar * t * t)

    @property
    def static(self) -> bool:
        """True for chi0 = abar = 0, where z, omega and Omega keep their t = 0 values."""
        return self.chi0 == 0.0 and self.abar == 0.0

    @cached_property
    def t_max(self) -> float:
        """Earliest positive time at which |z| reaches 1."""
        # 0.5 abar t^2 + chi0 t + (z0 - target)/epsilon = 0
        return min(
            _first_positive_root(0.5 * self.abar, self.chi0, (self.z0 - target) / self.epsilon)
            for target in (1.0, -1.0)
        )

    def _require_valid(self, t):
        """z(t), once every time in t is checked to lie in the domain."""
        z = self.z(t)
        if not (isinstance(t, float) and t < self.t_max and abs(z) < 1.0):
            _require_inside(t, (t >= self.t_max) | (abs(z) >= 1.0), self.t_max)
        return z

    def Omega(self, t):
        z = self._require_valid(t)
        return self.epsilon / _sqrt(1.0 - z * z)

    def omega(self, t):
        z = self._require_valid(t)
        return self.epsilon * z / _sqrt(1.0 - z * z)

    def mu(self, t):
        self._require_valid(t)
        return self.chi0 + self.abar * t

    def omega_dot(self, t):
        return self.mu(t) * self.Omega(t) ** 3 / self.epsilon

    def theta(self, t: float) -> float:
        self._require_valid(t)
        if t == 0.0:
            return 0.0
        if self.abar == 0.0:
            if self.chi0 == 0.0:
                return self.Omega0 * t
            return self._constant_rate_theta(t)
        import scipy.integrate

        value, _ = scipy.integrate.quad(
            self.Omega, 0.0, t, epsabs=1e-13, epsrel=1e-12, limit=200
        )
        return value

    def _constant_rate_theta(self, t: float) -> float:
        """theta = (asin(z1) - asin(z0)) / chi0 for abar = 0, z1 = z(t).

        The difference cancels when chi0 is small.  While z0 and z1 lie on
        one side of 0 it equals asin(w) with w = (z1^2 - z0^2) / (z1 c0 +
        z0 c1), c = sqrt(1 - z^2), so w = chi0 t g with g = epsilon (z0 +
        z1) / (z1 c0 + z0 c1), and theta = t g asin(w)/w, in which nothing
        cancels.  On opposite sides the difference adds two magnitudes.
        """
        z0, z1 = self.z0, self.z(t)
        if (z0 < 0.0) != (z1 < 0.0):
            return (math.asin(z1) - math.asin(z0)) / self.chi0
        c0, c1 = self.epsilon / self.Omega0, math.sqrt((1.0 - z1) * (1.0 + z1))
        den = z1 * c0 + z0 * c1
        # den is 0 only where z0 = z1 = 0, and there Omega = epsilon = Omega0
        g = self.epsilon * ((z0 + z1) / den) if den else self.Omega0
        # rounding can carry |w| past 1 within an ulp of the domain edge
        w = max(-1.0, min(1.0, self.chi0 * t * g))
        return t * g * (math.asin(w) / w if w else 1.0)

    @classmethod
    def solve_boundary(
        cls,
        Omega_initial: float,
        Omega_target: float,
        epsilon: float,
        t_f: float,
        abar: float = 0.0,
    ) -> "TLSProtocol":
        """Protocol with Omega(0), Omega(t_f) pinned at the given values."""
        if not (0.0 < epsilon < min(Omega_initial, Omega_target)):
            raise ValueError("need 0 < epsilon < both endpoint frequencies")
        if t_f <= 0.0:
            raise ValueError("need t_f > 0")
        omega0 = math.sqrt(Omega_initial**2 - epsilon**2)
        z0 = omega0 / Omega_initial
        z_f = math.sqrt(1.0 - (epsilon / Omega_target) ** 2)
        chi0 = (z_f - z0 - 0.5 * epsilon * abar * t_f * t_f) / (epsilon * t_f)
        protocol = cls(epsilon=epsilon, omega0=omega0, chi0=chi0, abar=abar)
        if protocol.t_max <= t_f:
            raise DomainExceeded(
                "protocol leaves its domain before the requested endpoint"
            )
        residual = abs(protocol.Omega(t_f) - Omega_target)
        # not <=: a ramp past the float range gives chi0 = inf and a NaN residual
        if not residual <= 1e-12 * Omega_target:
            raise ArithmeticError(
                f"boundary solve residual {residual:.3e} too large"
            )
        return protocol


# ---------------------------------------------------------------------------
# physical states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a single oscillator mode (hbar = 1)."""

    q: float
    p: float
    sigma_qq: float
    sigma_pp: float
    sigma_qp: float

    def covariance(self) -> np.ndarray:
        return np.array(
            [[self.sigma_qq, self.sigma_qp], [self.sigma_qp, self.sigma_pp]]
        )

    def uncertainty_product(self) -> float:
        return self.sigma_qq * self.sigma_pp - self.sigma_qp**2

    def validate(self, tol: float = 1e-6) -> "GaussianState":
        if self.sigma_qq <= 0.0 or self.sigma_pp <= 0.0:
            raise UnphysicalState("covariances must be positive")
        if self.uncertainty_product() < 0.25 - tol:
            raise UnphysicalState(
                f"uncertainty product {self.uncertainty_product():.6f} "
                "below the quantum bound 1/4"
            )
        return self


@dataclass(frozen=True)
class BlochState:
    """Spin-1/2 state as a Bloch vector (r_x, r_y, r_z)."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != (3,):
            raise ValueError("Bloch vector must have three components")
        r.setflags(write=False)
        object.__setattr__(self, "r", r)

    def norm(self) -> float:
        return float(np.linalg.norm(self.r))

    def validate(self, tol: float = 1e-6) -> "BlochState":
        if self.norm() > 1.0 + tol:
            raise UnphysicalState(f"Bloch vector norm {self.norm():.6f} > 1")
        return self


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def _ho_coefficients(state: GaussianState, w: float, w0: float, m: float) -> np.ndarray:
    """Oscillator basis vector {H, L, C, K, J, 1} of a Gaussian state in a
    trap of frequency w, with the quadratic block scaled by w0/w; the
    inverse of ``_ho_state``."""
    pp = state.sigma_pp + state.p * state.p
    qq = state.sigma_qq + state.q * state.q
    qp = state.sigma_qp + state.q * state.p  # symmetrized <qp + pq>/2
    kinetic, potential = pp / m, m * w * w * qq
    scale, root = w0 / w, math.sqrt(w)
    return np.array(
        [
            0.5 * scale * (kinetic + potential),
            0.5 * scale * (kinetic - potential),
            -w0 * qp,
            root * state.q,
            -state.p / (m * root),
            1.0,
        ],
        dtype=complex,
    )


def _ho_state(c: np.ndarray, w: float, w0: float, m: float) -> GaussianState:
    """Moments of the real oscillator basis vector c at frequency w,
    unvalidated; the inverse of ``_ho_coefficients``."""
    # undo the frequency scaling of the quadratic block
    H, L, C = (w / w0) * c[:3]
    K, J = c[3], c[4]
    pp = m * (H + L)
    qq = (H - L) / (m * w * w)
    qp_sym = -2.0 * C / w
    q = K / math.sqrt(w)
    p = -m * math.sqrt(w) * J
    return GaussianState(
        q=q,
        p=p,
        sigma_qq=qq - q * q,
        sigma_pp=pp - p * p,
        sigma_qp=0.5 * qp_sym - q * p,
    )


def _ermakov_frame(q: float, dq: float, m: float) -> np.ndarray:
    """Phase-space map (u, du/dtheta) -> (x, p) of x = sqrt(q) u, where
    q = 1/omega, dq = dq/dt and p = m dx/dt."""
    r = math.sqrt(q)
    return np.array([[r, 0.0], [0.5 * m * dq / r, m / r]])


def _harmonic_flow(k2: float, theta: float) -> np.ndarray:
    """Flow of u'' = -k2 u over theta acting on (u, du/dtheta).

    Rotation for k2 > 0, boost (cosh, sinh) for k2 < 0 and a shear at
    k2 = 0; sin(k theta)/k is taken as theta sin(x)/x with x = k theta, so
    a small |k2| loses no digits.
    """
    x = math.sqrt(abs(k2)) * theta
    if k2 >= 0.0:
        c, ratio = math.cos(x), (math.sin(x) / x if x else 1.0)
    else:
        c, ratio = math.cosh(x), (math.sinh(x) / x if x else 1.0)
    s = theta * ratio
    return np.array([[c, s], [-k2 * s, c]])


def _rotations(w: np.ndarray) -> np.ndarray:
    """Rotations exp(w x) of an (N, 3) stack of axis vectors (Rodrigues):
    cos|w| I + sin|w|/|w| [w]x + (1 - cos|w|)/|w|^2 w w^T, the last ratio
    taken as (sin(|w|/2)/|w|)^2 / 2 so that a short axis loses no digits."""
    angle = np.linalg.norm(w, axis=1)[:, None, None]
    safe = np.where(angle > 0.0, angle, 1.0)
    sin_ratio = np.where(angle > 0.0, np.sin(angle) / safe, 1.0)
    half_ratio = np.where(angle > 0.0, np.sin(0.5 * angle) / safe, 0.5)
    cross = np.zeros((len(w), 3, 3))
    cross[:, [2, 0, 1], [1, 2, 0]] = w
    cross -= cross.transpose(0, 2, 1)
    return (np.cos(angle) * np.eye(3) + sin_ratio * cross
            + 2.0 * half_ratio * half_ratio * (w[:, :, None] * w[:, None, :]))


@dataclass(frozen=True)
class HOModel:
    """Particle in a harmonic trap with time-dependent frequency.

    Basis order: frequency-scaled energy H, asymmetry L, squeeze generator
    C, then position-like K, momentum-like J, then the identity.  The
    scaling absorbs the explicit time dependence, so no identity rescaling
    is needed (all weights zero).
    """

    protocol: HOProtocol
    mass: float = 1.0
    q0: float = 0.0
    p0: float = 0.0
    # |mu| at which both generator blocks turn non-diagonalizable
    mu_limit = 2.0

    @property
    def omega_start(self) -> float:
        return self.protocol.omega0

    @property
    def rescaling_weights(self) -> np.ndarray:
        return np.zeros(6)

    def rescaling_base(self, t: float) -> float:
        return self.protocol.omega(t) / self.protocol.omega0

    def for_duration(self, t_f: float, omega_target: float) -> "HOModel":
        """This model re-driven from omega0 to omega(t_f) = omega_target at
        the same acceleration; errors as HOProtocol.solve_boundary."""
        p = self.protocol
        proto = HOProtocol.solve_boundary(p.omega0, omega_target, t_f, p.a)
        return dataclasses.replace(self, protocol=proto)

    def initial_state(self) -> GaussianState:
        """The (optionally displaced) ground state of the initial trap."""
        w0, m = self.protocol.omega0, self.mass
        return GaussianState(
            q=self.q0, p=self.p0, sigma_qq=0.5 / (m * w0), sigma_pp=0.5 * m * w0, sigma_qp=0.0
        )

    def initial_vector(self) -> LiouvilleVector:
        """Moments of ``initial_state`` over the basis."""
        w0 = self.protocol.omega0
        coeffs = _ho_coefficients(self.initial_state(), w0, w0, self.mass)
        return LiouvilleVector(coeffs=coeffs, t=0.0, theta=0.0)

    def reconstruct_state(self, coeffs: np.ndarray, t: float) -> GaussianState:
        c = _real_coeffs(coeffs, 6)
        w = self.protocol.omega(t)
        return _ho_state(c, w, self.protocol.omega0, self.mass).validate()

    def exact_vector(
        self, t: float, *, rtol: float = 1e-10, atol: float = 1e-12
    ) -> LiouvilleVector:
        """The initial vector propagated exactly to time t, in closed form.

        q = 1/omega is quadratic in t, so C = mu^2 + 2a/omega is constant
        along the ramp, and x = sqrt(q) u(theta) turns x'' + omega^2 x = 0
        into u'' + (1 - C/4) u = 0 in the scaled time theta (the Ermakov /
        Lewis-Riesenfeld reduction).  The phase-space propagator built from
        its solution moves the means and the covariance of the initial
        state.  Guards and result as ``engine.propagate_exact``; the
        tolerances are accepted for that signature and ignored.
        """
        p, m = self.protocol, self.mass
        if t < 0.0:
            raise ValueError("propagation runs forward from t = 0")
        if t >= p.t_max:
            raise DomainExceeded(f"t={t} is at or beyond the protocol domain")
        theta = p.theta(t)
        if theta == 0.0:
            return dataclasses.replace(self.initial_vector(), t=t)
        # (u, du/dtheta) -> (x, p) at time t, and its inverse at t = 0
        q = p._q(t)
        to_lab = _ermakov_frame(q, -p.mu(t), m)
        from_lab = np.linalg.inv(_ermakov_frame(1.0 / p.omega0, -p.chi0, m))
        C = p.chi0 * p.chi0 + 2.0 * p.a / p.omega0
        M = to_lab @ _harmonic_flow(1.0 - 0.25 * C, theta) @ from_lab
        s = self.initial_state()
        mean = M @ np.array([s.q, s.p])
        cov = M @ s.covariance() @ M.T
        moved = GaussianState(mean[0], mean[1], cov[0, 0], cov[1, 1], cov[0, 1])
        coeffs = _ho_coefficients(moved, 1.0 / q, p.omega0, m)
        return LiouvilleVector(coeffs=coeffs, t=t, theta=theta)

    def factorization(self) -> GeneratorFactorization:
        p = self.protocol
        return GeneratorFactorization(
            omega_of_t=p.omega,
            B_of_chi=ho_generator,
            chi_of_t=p.mu,
            theta_of_t=p.theta,
            grad_B=lambda chi: 1j * HO_COUPLING[1],
            dchi_dtheta=lambda t: p.a / p.omega(t),
            blocks=HO_BLOCKS,
            t_max=p.t_max,
        )


@dataclass(frozen=True)
class TLSModel:
    """Two-level system with ramped splitting and fixed transverse drive.

    Basis order: scaled energy H, transverse partner L, coherence C, then
    the identity.  The scaled triple carries weight 1 under identity
    rescaling (physical values grow with the instantaneous gap).
    """

    protocol: TLSProtocol
    initial_values: tuple = (4.0, 1.0, 1.0)
    # the spin generator is Hermitian, so diagonalizable at every mu
    mu_limit = math.inf

    @property
    def omega_start(self) -> float:
        return self.protocol.Omega0

    @property
    def rescaling_weights(self) -> np.ndarray:
        return np.array([1.0, 1.0, 1.0, 0.0])

    def rescaling_base(self, t: float) -> float:
        return self.protocol.Omega(t) / self.protocol.Omega0

    def for_duration(self, t_f: float, omega_target: float) -> "TLSModel":
        """This model re-driven from Omega0 to Omega(t_f) = omega_target at
        the same epsilon and acceleration; errors as TLSProtocol.solve_boundary."""
        p = self.protocol
        proto = TLSProtocol.solve_boundary(p.Omega0, omega_target, p.epsilon, t_f, p.abar)
        return dataclasses.replace(self, protocol=proto)

    def initial_vector(self) -> LiouvilleVector:
        """The configured triple plus the identity."""
        coeffs = np.array([*self.initial_values, 1.0], dtype=complex)
        return LiouvilleVector(coeffs=coeffs, t=0.0, theta=0.0)

    def exact_vector(
        self, t: float, *, rtol: float = 1e-10, atol: float = 1e-12
    ) -> LiouvilleVector:
        """The initial vector propagated exactly to time t, as a product of rotations.

        -i B = A0 + mu A1 acts on the spin triple as the cross product with
        (1, 0, mu), so v' = k x v with k(t) = Omega(t) (1, 0, mu(t)), and
        the identity entry stays put.  Sixth-order Magnus steps
        (``linalg.magnus_axes``) on an even grid of [0, t], each a rotation
        by Rodrigues' formula, are multiplied by pairwise reduction.  The
        step count starts near where that converges for the rotation angle
        and doubles until two levels agree within atol + rtol |v| in every
        entry; NotConverged past ``linalg.MAGNUS_MAX_STEPS`` steps, and
        IntegratorFailure when a product is not orthogonal to 1e-9.
        Guards and result otherwise as ``engine.propagate_exact``.
        """
        p = self.protocol
        if t < 0.0:
            raise ValueError("propagation runs forward from t = 0")
        if t >= p.t_max:
            raise DomainExceeded(f"t={t} is at or beyond the protocol domain")
        theta = p.theta(t)
        v0 = self.initial_vector()
        if theta == 0.0:
            return dataclasses.replace(v0, t=t)

        def field(ts):
            mu = p.mu(ts)
            ones = np.ones_like(mu)
            return p.Omega(ts)[:, None] * np.stack([ones, 0.0 * ones, mu], axis=1)

        # the rotation angle is at most theta sqrt(1 + mu^2), mu linear in t
        angle = theta * math.hypot(1.0, max(abs(p.mu(0.0)), abs(p.mu(t))))
        n = max(_MAGNUS_MIN_STEPS, 2 ** round(math.log2(MAGNUS_STEPS_PER_RAD * angle)))
        spin, previous = v0.coeffs[:3].real, None
        while n <= MAGNUS_MAX_STEPS:
            R = ordered_product(_rotations(magnus_axes(field, np.linspace(0.0, t, n + 1))))
            drift = np.max(np.abs(R.T @ R - np.eye(3)))
            if drift > 1e-9:
                raise IntegratorFailure(f"rotation product lost orthogonality: {drift:.3e}")
            v = R @ spin
            if previous is not None and np.all(np.abs(v - previous) <= atol + rtol * np.abs(v)):
                return LiouvilleVector(coeffs=np.append(v, v0.coeffs[3]), t=t, theta=theta)
            previous, n = v, 2 * n
        raise NotConverged(f"Magnus levels did not agree within {MAGNUS_MAX_STEPS} steps")

    def reconstruct_state(self, coeffs: np.ndarray, t: float) -> BlochState:
        c = _real_coeffs(coeffs, 4)
        p = self.protocol
        w, Om, eps = p.omega(t), p.Omega(t), p.epsilon
        H, L, C = c[:3]
        sz = (w * H - eps * L) / (Om * Om)
        sx = (eps * H + w * L) / (Om * Om)
        sy = C / Om
        return BlochState(r=2.0 * np.array([sx, sy, sz])).validate()

    def factorization(self) -> GeneratorFactorization:
        p = self.protocol
        return GeneratorFactorization(
            omega_of_t=p.Omega,
            B_of_chi=tls_generator_embedded,
            chi_of_t=p.mu,
            theta_of_t=p.theta,
            grad_B=lambda chi: 1j * TLS_EMBEDDED_COUPLING[1],
            dchi_dtheta=lambda t: p.abar / p.Omega(t),
            blocks=TLS_BLOCKS,
            t_max=p.t_max,
        )


# ---------------------------------------------------------------------------
# initial vectors and state reconstruction
# ---------------------------------------------------------------------------


def initial_vector(model) -> LiouvilleVector:
    """Default starting vector of a model at t = 0 (``model.initial_vector``)."""
    if not hasattr(type(model), "initial_vector"):
        raise TypeError(f"no initial vector defined for {type(model).__name__}")
    return model.initial_vector()


def _real_coeffs(v: np.ndarray, n: int, tol: float = 1e-6) -> np.ndarray:
    if v.shape != (n,):
        raise ValueError(f"expected a length-{n} coefficient vector")
    scale = max(1.0, float(np.max(np.abs(v))))
    if np.max(np.abs(v.imag)) > tol * scale:
        raise UnphysicalState("expectation values have non-real parts")
    return v.real.copy()


def reconstruct_state(model, v, t: float):
    """Physical state from a (rescaled, physical) basis vector at time t.

    Dispatches to ``model.reconstruct_state``.  Raises UnphysicalState
    when the recovered moments violate positivity or uncertainty
    constraints beyond 1e-6, which signals a propagation or rescaling
    error upstream.
    """
    if not hasattr(type(model), "reconstruct_state"):
        raise TypeError(f"no reconstruction defined for {type(model).__name__}")
    coeffs = v.coeffs if isinstance(v, LiouvilleVector) else v
    return model.reconstruct_state(np.asarray(coeffs), t)
