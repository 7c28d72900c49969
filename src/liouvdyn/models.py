"""Concrete driven models: parametric oscillator and two-level system.

Each model supplies a finite operator basis over which the Heisenberg
dynamics closes, the factorized generator acting on that basis, driving
protocols with closed-form scaled time where available, the inversion
from basis expectation values back to physical states, and its exact
propagation (``exact_vector``: closed form for the oscillator, the
adjoint of the SU(2) Magnus flow ``linalg.su2_flow`` for the two-level
system).  The two-spin families serve the geometric phases alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import (
    GeneratorFactorization,
    GeneratorFamily,
    LiouvilleVector,
    require_propagation_time,
)
from .errors import DomainExceeded, IntegratorFailure, SingularDenominator, UnphysicalState
from .errors import guard
from .linalg import magnus_ladder, su2_flow

_DEN_TOL = 1e-12
# slack of the positivity, uncertainty and realness checks on physical states
_STATE_TOL = 1e-6
# fewest steps of the two-level exact flow's first Magnus level: on the
# duration sweeps' shortest ramps Omega halves within t_f, and 32 steps
# are where two levels first agree to 1e-10
_MAGNUS_MIN_STEPS = 32
# (sigma_x, sigma_y, sigma_z)
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _family(n: int, *entries: dict, blocks: tuple = None) -> GeneratorFamily:
    """The generator family B(chi) = 1j (A0 + sum_k chi_k A_k) of real n x n
    couplings, each A_k read from {(row, col): value} entries, so its
    gradients are the constants 1j A_k."""
    coupling = np.zeros((len(entries), n, n))
    for A, values in zip(coupling, entries):
        for (i, j), value in values.items():
            A[i, j] = value
    return GeneratorFamily(tuple(1j * coupling), blocks=blocks)


def _shifted(entries: dict, by: int) -> dict:
    return {(i + by, j + by): value for (i, j), value in entries.items()}


# basis blocks: (energy-like triple)(linear pair)(identity)
HO_FAMILY = _family(
    6,
    {(1, 2): 2.0, (2, 1): -2.0, (3, 4): -1.0, (4, 3): 1.0},
    {(0, 1): -1.0, (1, 0): -1.0, (3, 3): 0.5, (4, 4): -0.5},
    blocks=((0, 3), (3, 5), (5, 6)),
)
_TLS_ENTRIES = ({(1, 2): -1.0, (2, 1): 1.0}, {(0, 1): -1.0, (1, 0): 1.0})
TLS_FAMILY = _family(3, *_TLS_ENTRIES)
# the spin triple with a zero identity row and column appended
TLS_EMBEDDED_FAMILY = _family(4, *_TLS_ENTRIES, blocks=((0, 3), (3, 4)))
# both single-spin triples stacked, spin j driven by chi_j
TWO_SPIN_LOCAL_FAMILY = _family(
    6,
    {**_TLS_ENTRIES[0], **_shifted(_TLS_ENTRIES[0], 3)},
    _TLS_ENTRIES[1],
    _shifted(_TLS_ENTRIES[1], 3),
    blocks=((0, 3), (3, 6)),
)
TWO_SPIN_NONLOCAL_FAMILY = GeneratorFamily.kronecker_sum((TLS_FAMILY, TLS_FAMILY))


def ho_generator(chi) -> np.ndarray:
    """6x6 oscillator generator over {H, L, C, K, J, identity}.

    Block-diagonal: a 3x3 energy-like block, a 2x2 block for the linear
    observables, and a zero row for the identity.  Real spectrum for
    |chi| < 2; the blocks collapse onto a non-diagonalizable point at
    |chi| = 2.  A 1-D array of chi gives the stack.
    """
    return HO_FAMILY(chi)


def tls_generator(chi) -> np.ndarray:
    """3x3 two-level generator over the scaled {H, L, C} triple.

    i times a real antisymmetric-plus-rotation coupling; Hermitian, so the
    spectrum {0, +/-sqrt(1+chi^2)} is real for every chi.  A 1-D array of
    chi gives the stack.
    """
    return TLS_FAMILY(chi)


def tls_generator_embedded(chi) -> np.ndarray:
    """4x4 extension with a zero identity row/column appended."""
    return TLS_EMBEDDED_FAMILY(chi)


def two_spin_generators(chi1, chi2):
    """Generators for the local (6x6) and cross-correlator (9x9) vectors.

    The local vector stacks both single-spin triples, so its generator is
    block-diagonal.  The cross-correlator vector holds the nine products
    A_a(1) A_b(2) ordered with the first-spin index slow (entry 3a+b), and
    its generator is the Kronecker sum of the single-spin couplings: it
    does not decompose into independent sub-blocks.  1-D arrays give stacks.
    """
    return TWO_SPIN_LOCAL_FAMILY(chi1, chi2), TWO_SPIN_NONLOCAL_FAMILY(chi1, chi2)


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


def _require_inside(t, outside, t_max: float):
    """Raise DomainExceeded naming every time in t that `outside` flags."""
    t = np.atleast_1d(t)
    guard(DomainExceeded, (np.atleast_1d(outside),
                           lambda i: f"t={t[i]} is outside the protocol domain [0, {t_max})"))


def _sqrt(x):
    # math.sqrt on the float path: np.sqrt costs more per scalar call
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _first_positive_root(A: float, B: float, C: float) -> float:
    """Earliest positive real root of A x^2 + B x + C = 0 for nonzero C, or inf.

    The coefficients are first scaled by the power of two of the largest
    where all of them lie below 1, or where B^2 - 4AC overflows (|B| past
    1e154, or |AC| past 1e307).  The scaling is exact, so the roots stay
    where they are, and B^2 and 4AC stay in range.  Only an overflow
    scales down, because that flushes a coefficient 2^1074 times smaller
    than the largest to 0.  The roots are q/A and C/q with
    q = -(B + sign(B) sqrt(B^2 - 4AC))/2, so none cancels when 4AC is
    small against B^2, and q = -B gives C/q, the root of the linear
    equation, when A is 0.  q vanishes only at B = 0 where 4AC is 0 or
    underflows, with no root or roots beyond 1e150.
    """
    e = math.frexp(max(abs(A), abs(B), abs(C)))[1]
    disc = B * B - 4.0 * A * C
    if e < 0 or not math.isfinite(disc):
        A, B, C = math.ldexp(A, -e), math.ldexp(B, -e), math.ldexp(C, -e)
        disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return math.inf
    q = -B if A == 0.0 else -0.5 * (B + math.copysign(math.sqrt(disc), B))
    roots = () if q == 0.0 else (C / q,) if A == 0.0 else (q / A, C / q)
    return min((x for x in roots if x > 0.0), default=math.inf)


# Veltkamp's splitter 2^27 + 1: it cuts a double into two 26-bit halves
_SPLIT = 134217729.0
# Carlson's (3 r)^(-1/6) at r = 2^-53: the duplication stops once the
# arguments lie this close to their mean, for a relative error below r
_RF_SPREAD = (3.0 * 2.0**-53) ** (-1.0 / 6.0)


def _two_sum(a: float, b: float) -> tuple:
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a: float, b: float) -> tuple:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker) while a b
    is clear of the subnormal range.  Past 2^996 the split overflows, and
    e is then 0: the product is only rounded."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    c = _SPLIT * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e if math.isfinite(e) else 0.0


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F(x, y, z) for x, y, z >= 0, at most
    one of them 0: the duplication theorem draws the three arguments
    together, and a fifth-order series in their spread finishes (DLMF
    §19.36(i); Carlson, Numer. Algorithms 10, 1995)."""
    a0 = a = (x + y + z) / 3.0
    dx, dy = a0 - x, a0 - y
    spread = _RF_SPREAD * max(abs(dx), abs(dy), abs(a0 - z))
    while spread >= a:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        dx, dy, spread = 0.25 * dx, 0.25 * dy, 0.25 * spread
    X, Y = dx / a, dy / a
    Z = -X - Y
    e2, e3 = X * Y - Z * Z, X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)


def _checked_boundary(protocol, pace, t_f: float, target: float):
    """The solved protocol, once t_f lies inside its domain (else
    DomainExceeded) and pace(t_f) meets target within 1e-12 relative
    (else ArithmeticError)."""
    if protocol.t_max <= t_f:
        raise DomainExceeded("protocol leaves its domain before the requested endpoint")
    residual = abs(pace(t_f) - target)
    # not <=: a ramp past the float range gives chi0 = inf and a NaN residual
    if not residual <= 1e-12 * target:
        raise ArithmeticError(f"boundary solve residual {residual:.3e} too large")
    return protocol


@dataclass(frozen=True)
class HOProtocol:
    """Frequency ramp omega(t) = omega0 / (1 - omega0 (chi0 t + a t^2/2)).

    Built so the rate parameter chi(t) = omega_dot / omega^2 is exactly
    chi0 + a t: chi0 is the initial rate, `a` its constant acceleration.
    Every method but ``theta`` takes a float t or a 1-D array of times,
    the closed-form ``inertial_parameter_closed`` included.
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

    def inertial_parameter_closed(self, t):
        """Closed-form drive-acceleration parameter Upsilon at time t.

        Evaluates the frequency-profile expression
            mu^2 (w''/w - 2 (w'/w)^2)
            / [ (2 kappa)^2 ( (w''/w) log(w/w0) - (w'/w)^2 (2 log(w/w0) + 1) ) ]
        with kappa = sqrt(4 - mu^2), returned as a magnitude; 0 where the
        ramp is at rest.  SingularDenominator names every point where
        omega^2 is not a normal float or |mu| >= 2, else every point where
        a term overflows or the bracketed denominator vanishes (t -> 0 on
        a ramp from rest).  A float t gives a float, a 1-D array of times
        the array of values, each the value at its time alone.
        """
        # a float runs as a 1-element array, so it gets the array's bits
        times = np.asarray(t, dtype=float).reshape(-1)
        w0 = self.omega(0.0)
        w = self.omega(times)
        with np.errstate(all="ignore"):  # every value past the float range is flagged below
            w2, wd, wdd = w * w, self.omega_dot(times), self.omega_ddot(times)
            mu = wd / w2
            rest = (wd == 0.0) & (wdd == 0.0)
            ksq = 4.0 - mu * mu
            log_ratio = np.log(w / w0)
            curv = wdd / w
            rate_sq = (wd / w) ** 2
            num = mu * mu * (curv - 2.0 * rate_sq)
            bracket = curv * log_ratio - rate_sq * (2.0 * log_ratio + 1.0)
            scale = abs(curv) * np.maximum(abs(log_ratio), 1.0) + rate_sq * (2.0 * abs(log_ratio) + 1.0)
            ups = np.where(rest, 0.0, abs(num / (4.0 * ksq * np.where(rest, 1.0, bracket))))
        # mu is 0/0, inf/inf or short of digits where omega^2 is 0, inf or subnormal
        guard(SingularDenominator, (~((w2 >= np.finfo(float).tiny) & (w2 < np.inf)), lambda i: (
            f"omega^2 = {w2[i]:.3g} at t = {times[i]:g} is not a normal float")),
            (abs(mu) >= 2.0, lambda i: (
                "mode splitting kappa vanishes at |mu| >= 2; the expression is undefined")))
        guard(SingularDenominator, (~rest & ~(np.isfinite(bracket) & np.isfinite(ups)), lambda i: (
            f"a term overflows at t = {times[i]:g}; point skipped")),
            (~rest & (abs(bracket) <= _DEN_TOL * scale), lambda i: (
                f"denominator vanishes at t = {times[i]:g}; point skipped")))
        return float(ups[0]) if np.ndim(t) == 0 else ups

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
        return _checked_boundary(protocol, protocol.omega, t_f, omega_target)


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
        """Scaled time, the integral of Omega over [0, t], in closed form.

        As dz = epsilon mu ds and mu^2 = chi0^2 + (2 abar/epsilon)(z - z0)
        is linear in z, theta is a sum of integrals of dz / sqrt((1 - z)(1
        + z) mu^2) over the pieces on which z is monotone, split at the
        turning point s* = -chi0/abar when 0 < s* < t.  With abar = 0, s*
        is inf, so a constant-rate or static ramp is one piece.  A piece
        [s0, s1] is 2 R_F(U12^2, U13^2, U14^2), the four-linear-factor
        reduction of DLMF §19.29(i) with a4 = 1, b4 = 0:
            U12 = (X1 X2 Y3 + Y1 Y2 X3) / (z1 - z0),
            U13 = (X1 X3 Y2 + Y1 Y3 X2) / (z1 - z0),
            U14 = (X1 Y2 Y3 + Y1 X2 X3) / (z1 - z0),
        with X1, X2, X3 = sqrt(1 - z1), sqrt(1 + z1), |mu(s1)| and Y the
        same at s0.  On a piece mu keeps its sign, so z1 - z0 = epsilon
        (s1 - s0)(X3 + Y3)/2, and R_F's homogeneity leaves theta = epsilon
        (s1 - s0) R_F(W12^2, W13^2, W14^2) with W = U (z1 - z0)/(X3 + Y3).
        Each W sums positive terms, so nothing cancels, whether |chi0/abar|
        is large or small against t.  Near an edge of the domain 1 -+ z is
        a small difference of O(1) terms; ``_edge_roots`` forms it from a
        double-double z, so it keeps its digits there too.
        """
        self._require_valid(t)
        if t == 0.0:
            return 0.0
        turn = -self.chi0 / self.abar if self.abar else math.inf
        cuts = (0.0, turn, t) if 0.0 < turn < t else (0.0, t)
        ends = [self._edge_roots(s, turn) for s in cuts]
        theta = 0.0
        for s0, s1, (r0, a0, b0), (r1, a1, b1) in zip(cuts, cuts[1:], ends, ends[1:]):
            # 0 on a static ramp, or where abar s underflows on a chi0 = 0
            # one: z stays put, and any p + q = 1 gives W = sqrt(1 - z^2)
            total = r0 + r1
            p, q = (r1 / total, r0 / total) if total else (0.5, 0.5)
            w12 = a1 * b1 * q + a0 * b0 * p
            w13 = a1 * b0 * p + a0 * b1 * q
            w14 = a1 * b0 * q + a0 * b1 * p
            # s1 - s0 last: a subnormal t then rounds once
            theta += self.epsilon * _carlson_rf(w12 * w12, w13 * w13, w14 * w14) * (s1 - s0)
        return theta

    @cached_property
    def _z0_pair(self) -> tuple:
        """z0 = omega0 / hypot(omega0, epsilon) as hi + lo, good to about 2^-104."""
        # z0 depends on the ratio alone: in the unit binade no square overflows
        scale = -math.frexp(max(self.omega0, self.epsilon))[1]
        w, e = math.ldexp(self.omega0, scale), math.ldexp(self.epsilon, scale)
        (hw, lw), (he, le) = _two_prod(w, w), _two_prod(e, e)
        sq, sq_lo = _two_sum(hw, he)
        r = math.sqrt(sq)
        rr, rr_lo = _two_prod(r, r)
        r_lo = ((sq - rr) - rr_lo + (sq_lo + lw + le)) / (2.0 * r)
        q = w / r
        qr, qr_lo = _two_prod(q, r)
        return q, ((w - qr) - qr_lo - q * r_lo) / r

    def _edge_roots(self, s: float, turn: float) -> tuple:
        """|mu(s)|, sqrt(1 - z(s)) and sqrt(1 + z(s)), each within an ulp or two.

        z(s) - z0 = epsilon s (chi0 + abar s / 2) is carried as hi + lo
        through error-free products, and math.fsum adds it to the pair of
        z0 exactly, so 1 -+ z keeps its digits however close z is to -+1.
        |mu| is 0 at the turning point, where the pieces meet.
        """
        zh, zl = self._z0_pair
        h, l = _two_prod(self.abar, s)
        rate = 0.0 if s == turn else abs(math.fsum((self.chi0, h, l)))
        mh, ml = _two_sum(self.chi0, 0.5 * h)
        ph, pl = _two_prod(mh, s)
        gh, gl = _two_prod(ph, self.epsilon)
        gl += (pl + (ml + 0.5 * l) * s) * self.epsilon
        below = math.fsum((1.0, -zh, -zl, -gh, -gl))
        above = math.fsum((1.0, zh, zl, gh, gl))
        # the rounded z passed the domain check within an ulp of its edge
        if not (below > 0.0 and above > 0.0):
            raise DomainExceeded(f"|z| reaches 1 by t={s}, the edge of the protocol domain")
        return rate, math.sqrt(below), math.sqrt(above)

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
        return _checked_boundary(protocol, protocol.Omega, t_f, Omega_target)


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

    def validate(self) -> "GaussianState":
        if self.sigma_qq <= 0.0 or self.sigma_pp <= 0.0:
            raise UnphysicalState("covariances must be positive")
        if self.uncertainty_product() < 0.25 - _STATE_TOL:
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

    def validate(self) -> "BlochState":
        if self.norm() > 1.0 + _STATE_TOL:
            raise UnphysicalState(f"Bloch vector norm {self.norm():.6f} > 1")
        return self


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def _factorization(protocol, pace, generator, family, rate) -> GeneratorFactorization:
    """Omega(t) B(mu(t)) for a ramp whose rate mu = chi0 + rate t grows
    linearly: B = ``generator``, the view of the affine ``family``, so its
    gradient is the family's constant C1, and dmu/dtheta = rate / pace."""
    return GeneratorFactorization(
        omega_of_t=pace,
        B_of_chi=generator,
        chi_of_t=protocol.mu,
        theta_of_t=protocol.theta,
        grad_B=lambda chi: family.coupling[1],
        dchi_dtheta=lambda t: rate / pace(t),
        blocks=family.blocks,
        t_max=protocol.t_max,
    )


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


@dataclass(frozen=True)
class HOModel:
    """Particle in a harmonic trap with time-dependent frequency.

    Basis order: frequency-scaled energy H, asymmetry L, squeeze generator
    C, then position-like K, momentum-like J, then the identity.  The
    frequency scaling of the quadratic block absorbs the explicit time
    dependence, and ``reconstruct_state`` undoes it at omega(t).
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
        if not np.finfo(float).tiny <= self.mass * w * w < math.inf:  # the divisor of <q^2>
            raise SingularDenominator(f"m omega^2 = {self.mass * w * w:.3g} is not a normal float")
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
        require_propagation_time(t, p.t_max)
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
        return _factorization(p, p.omega, ho_generator, HO_FAMILY, p.a)


@dataclass(frozen=True)
class TLSModel:
    """Two-level system with ramped splitting and fixed transverse drive.

    Basis order: scaled energy H, transverse partner L, coherence C, then
    the identity.  The propagated triple is scaled by Omega0 / Omega(t);
    ``reconstruct_state`` grows it back with the instantaneous gap.
    """

    protocol: TLSProtocol
    initial_values: tuple = (4.0, 1.0, 1.0)
    # the spin generator is Hermitian, so diagonalizable at every mu
    mu_limit = math.inf

    @property
    def omega_start(self) -> float:
        return self.protocol.Omega0

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
        """The initial vector propagated exactly to time t, by the SU(2) flow.

        -i B = A0 + mu A1 acts on the spin triple as the cross product with
        (1, 0, mu), so v' = k x v with k(t) = Omega(t) (1, 0, mu(t)), and
        the identity entry stays put.  That is the Bloch vector of a spin
        with U' = -i (k . sigma / 2) U, so ``linalg.su2_flow`` on the grid
        [0, t] gives U, and v turns by its adjoint R_ab = Re tr(sigma_a U
        sigma_b U^dagger) / 2.  The flow runs the ``linalg.magnus_ladder``
        levels, from at least _MAGNUS_MIN_STEPS steps, until two agree
        within atol + rtol |U| in every entry; NotConverged past its cap,
        and IntegratorFailure when R is not orthogonal to 1e-9.  Guards
        and result otherwise as ``engine.propagate_exact``.
        """
        p = self.protocol
        require_propagation_time(t, p.t_max)
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
        steps = magnus_ladder(angle, 1, _MAGNUS_MIN_STEPS)[1]
        U = su2_flow(field, [0.0, t], steps, rtol=rtol, atol=atol)[-1]
        turned = U @ PAULI @ U.conj().T
        R = 0.5 * np.einsum("aij,bji->ab", PAULI, turned).real
        drift = np.max(np.abs(R.T @ R - np.eye(3)))
        if drift > 1e-9:
            raise IntegratorFailure(f"rotation product lost orthogonality: {drift:.3e}")
        v = R @ v0.coeffs[:3].real
        return LiouvilleVector(coeffs=np.append(v, v0.coeffs[3]), t=t, theta=theta)

    def reconstruct_state(self, coeffs: np.ndarray, t: float) -> BlochState:
        """Bloch vector of the propagated vector at time t: the scaled
        triple is first grown with the gap, by Omega(t) / Omega0."""
        c = _real_coeffs(coeffs, 4)
        p = self.protocol
        w, Om, eps = p.omega(t), p.Omega(t), p.epsilon
        H, L, C = c[:3] * (Om / p.Omega0)
        sz = (w * H - eps * L) / (Om * Om)
        sx = (eps * H + w * L) / (Om * Om)
        sy = C / Om
        return BlochState(r=2.0 * np.array([sx, sy, sz])).validate()

    def factorization(self) -> GeneratorFactorization:
        p = self.protocol
        return _factorization(p, p.Omega, tls_generator_embedded, TLS_EMBEDDED_FAMILY, p.abar)


# ---------------------------------------------------------------------------
# initial vectors and state reconstruction
# ---------------------------------------------------------------------------


def initial_vector(model) -> LiouvilleVector:
    """Default starting vector of a model at t = 0 (``model.initial_vector``)."""
    if not hasattr(type(model), "initial_vector"):
        raise TypeError(f"no initial vector defined for {type(model).__name__}")
    return model.initial_vector()


def _real_coeffs(v: np.ndarray, n: int) -> np.ndarray:
    if v.shape != (n,):
        raise ValueError(f"expected a length-{n} coefficient vector")
    scale = max(1.0, float(np.max(np.abs(v))))
    if np.max(np.abs(v.imag)) > _STATE_TOL * scale:
        raise UnphysicalState("expectation values have non-real parts")
    return v.real.copy()


def reconstruct_state(model, v, t: float):
    """Physical state from a propagated basis vector at time t.

    Dispatches to ``model.reconstruct_state``, which undoes the model's
    scaling of the basis.  Raises UnphysicalState when the recovered
    moments violate positivity or uncertainty constraints beyond 1e-6,
    which signals a propagation error upstream.
    """
    if not hasattr(type(model), "reconstruct_state"):
        raise TypeError(f"no reconstruction defined for {type(model).__name__}")
    coeffs = v.coeffs if isinstance(v, LiouvilleVector) else v
    return model.reconstruct_state(np.asarray(coeffs), t)
