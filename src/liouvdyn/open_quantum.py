"""Markovian master equation for the driven two-level model.

Because the isolated dynamics closes on a finite operator algebra, the
dipole coupling to a thermal bosonic bath decomposes onto the t = 0
eigenoperators of the drive generator, each carrying an accumulated
phase.  When the bath correlations decay fast compared with the drive,
those phases enter the dissipator only through their instantaneous
derivatives: channel j relaxes at gamma(alpha_j(t)) with the effective
frequency alpha_j(t) = dLambda_j/dt.  The equation keeps GKLS form at
every instant, so trace, Hermiticity, and positivity are preserved, and
the rates obey detailed balance, making the thermal state the fixed
point whenever the drive is static.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainExceeded,
    IntegratorFailure,
    LiouvdynError,
    NotConverged,
    PositivityViolation,
    UnphysicalState,
    UnsupportedDimension,
)
from .linalg import (
    MAGNUS_MAX_STEPS,
    MAGNUS_STEPS_PER_RAD,
    bi_eigendecompose,
    chebyshev_coefficients,
    chebyshev_levels,
    magnus_axes,
    ordered_product,
)
from .models import BlochState, TLSModel, tls_generator

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]]) / 2.0
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex) / 2.0

# overflow guard for the Bose-Einstein exponent
_MAX_EXPONENT = 700.0
# nested Chebyshev levels of the cumulative phase quadrature: n = 8, 16,
# ... intervals (9, 17, ... points), at most _CHEB_MAX_N
_CHEB_N0 = 8
_CHEB_MAX_N = 4096
# panels of one level beyond which _dissipator raises NotConverged
_MAX_PANELS = 2**16
# largest free-evolution phase t_final * ||H|| (rad) of a static run: a
# double resolves such a phase to about 1e-4 rad
MAX_STATIC_PHASE = 1e12


@dataclass(frozen=True)
class BathSpec:
    """Thermal bosonic bath: temperature, coupling scale, and cutoff.

    ``coupling`` absorbs every electromagnetic prefactor of the golden-rule
    rate into one scalar, so gamma(alpha) = coupling * alpha^3 * (1 + N)
    on the emission side.  ``cutoff`` ends the level-shift frequency
    integral, whose closed-form vacuum part diverges as |alpha| reaches
    it, so it must exceed every effective frequency of the run.
    """

    temperature: float
    coupling: float
    cutoff: float

    def __post_init__(self):
        if self.temperature < 0.0:
            raise ValueError("temperature must be non-negative")
        if self.coupling < 0.0:
            raise ValueError("coupling must be non-negative")
        if self.cutoff <= 0.0:
            raise ValueError("cutoff must be positive")


@dataclass(frozen=True)
class MasterEquationSpec:
    """Frozen ingredients of the dissipative generator.

    ``jump_ops`` are the t = 0 eigenoperators as 2x2 matrices, ordered
    like the generator modes; ``dipole_coeffs`` a_j reproduce the dipole
    operator as sum_j a_j F_j; ``alpha_of_t`` maps a time to the
    per-channel effective frequencies.
    """

    jump_ops: tuple
    dipole_coeffs: tuple
    alpha_of_t: object


def bose_occupation(alpha, temperature: float):
    """Bose-Einstein occupation at a positive frequency, or at each of an
    array of them."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0.0):
        raise ValueError("occupation is defined for positive frequencies")
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    with np.errstate(divide="ignore", over="ignore"):  # x = inf gives N = 0
        x = alpha / temperature
    return np.where(x > _MAX_EXPONENT, 0.0, 1.0 / np.expm1(np.minimum(x, _MAX_EXPONENT)))[()]


def decay_rate(bath: BathSpec, alpha):
    """Golden-rule rate gamma(alpha) >= 0 per unit squared dipole weight.

    Positive frequencies emit at coupling * alpha^3 * (1 + N(alpha));
    negative frequencies absorb at coupling * |alpha|^3 * N(|alpha|), the
    detailed-balance completion gamma(-alpha) = e^(-alpha/T) gamma(alpha).
    An array of frequencies gives the array of rates.
    """
    alpha = np.asarray(alpha, dtype=float)
    mag, n = np.abs(alpha), np.zeros(alpha.shape)
    n[mag > 0.0] = bose_occupation(mag[mag > 0.0], bath.temperature)
    return (bath.coupling * mag**3 * np.where(alpha > 0.0, 1.0 + n, n))[()]


@functools.cache
def _gauss_legendre():
    """The 20-point Gauss-Legendre rule on [-1, 1], built on first use so that
    importing the package leaves numpy.polynomial unloaded."""
    return np.polynomial.legendre.leggauss(20)


def _planck(w, temperature: float):
    """w^3 N(w) for 0 < w <= 60 T as T w^2 x e^-x / (1 - e^-x), x = w / T held
    at or above the smallest normal double so a subnormal w is not 0 / 0."""
    x = np.maximum(w / temperature, np.finfo(float).tiny)
    return temperature * w**2 * (x * np.exp(-x) / -np.expm1(-x))


def _level_shifts(bath: BathSpec, alphas) -> np.ndarray:
    """lamb_shift at every effective frequency of an array, in one evaluation.

    The thermal part Th(a) = PV int_0^L f(w) [1/(a - w) + 1/(a + w)] dw, with
    f(w) = w^3 N(w) and L = min(cutoff, 60 T), is summed at a = |alpha| after
    c = f(min(a, L)) removes the pole at w = a and c + a^3 (f(-a) for a < L,
    as N(-w) = -1 - N(w)) the one at w = -a; both come back in closed form
    as c ln((a + L) / |a - L|) + a^3 ln((a + L) / a).
    """
    alphas = np.asarray(alphas, dtype=float)
    wc, T = bath.cutoff, bath.temperature
    if not np.all(np.abs(alphas) < wc):
        raise ValueError("cutoff must exceed every |alpha|, and alpha must be finite")
    # alpha = 0 takes a stand-in magnitude: alpha^3 and sign(alpha) zero its terms
    a = np.where(alphas != 0.0, np.abs(alphas), 0.5 * wc)
    shift = (-(wc**3 / 3.0 + alphas * wc**2 / 2.0 + alphas**2 * wc)
             + alphas**3 * (np.log(a) - np.log(wc - alphas)))
    reach = min(wc, 60.0 * T)
    if reach > 0.0:
        width = min(math.pi * T, wc / 8.0)
        panels = math.ceil(reach / width) + 1
        A = a[..., None, None]  # (..., panel, node)
        split = np.minimum(A, reach)
        # panels on [0, split], at least one, and the rest on [split, reach]
        below = np.maximum(np.ceil(split / width), 1.0)
        k = np.arange(panels)[:, None]
        h = np.where(k < below, split / below, (reach - split) / (panels - below))
        left = np.where(k < below, k * h, split + (k - below) * h)
        x, weights = _gauss_legendre()
        w = left + 0.5 * h * (x + 1.0)
        f, c = _planck(w, T), _planck(split, T)
        pole = A - w  # zero only where a = reach and the last panels are empty
        g = (f - c) / np.where(pole == 0.0, 1.0, pole) + (f - c - A**3) / (A + w)
        # at a = reach the truncation's ln(1 / |a - L|) is dropped: f(L) < 1e-20 T^3
        gap = np.where(a == reach, a, np.abs(a - reach))
        thermal = (np.sum(0.5 * h * g, axis=-2) @ weights
                   + c[..., 0, 0] * np.log((a + reach) / gap)
                   + a**3 * (np.log(a + reach) - np.log(a)))
        shift = shift + np.sign(alphas) * thermal
    return 2.0 * bath.coupling * shift


def lamb_shift(bath: BathSpec, alpha: float) -> float:
    """Second-order level shift S(alpha) = 2g PV int_0^cutoff w^3 [(1+N)/(alpha-w) + N/(alpha+w)] dw.

    The secular level shift (Breuer and Petruccione, The Theory of Open
    Quantum Systems, 2002, ch. 3) as S = 2g [V(alpha) + sign(alpha)
    Th(|alpha|)].  V = -(cutoff^3/3 + alpha cutoff^2/2 + alpha^2 cutoff) +
    alpha^3 ln(|alpha| / (cutoff - alpha)) is the vacuum part.  The thermal
    part Th (``_level_shifts``) stops at 60 T, where N < 1e-26, and sums
    a fixed 20-point Gauss-Legendre rule on panels no wider than pi T, so
    the poles of N at 2 pi i n T stay two widths off the axis and the rule
    converges geometrically (Trefethen, Approximation Theory and
    Approximation Practice, 2013).  Raises ValueError unless |alpha| < cutoff.
    """
    return float(_level_shifts(bath, alpha))


def _tls_alpha_closed(protocol, t) -> np.ndarray:
    # the two-level transport correction vanishes identically in the
    # fixed gauge (unit-norm frames of a Hermitian generator), leaving
    # alpha = lambda * pace; the tests cross-check it against a finite
    # difference of the frames (oracles.effective_frequencies).
    # A float t gives the 4 channels, an array of times a (times, 4) stack.
    gap = np.hypot(1.0, protocol.mu(t)) * protocol.Omega(t)
    zero = np.zeros_like(gap)
    return np.stack([zero, gap, -gap, zero], axis=-1)


# ---------------------------------------------------------------------------
# master-equation assembly
# ---------------------------------------------------------------------------


def _tls_basis_matrices(protocol):
    w0 = protocol.omega(0.0)
    eps = protocol.epsilon
    Om0 = protocol.Omega(0.0)
    return (
        w0 * _SZ + eps * _SX,
        w0 * _SX - eps * _SZ,
        Om0 * _SY,
        np.eye(2, dtype=complex),
    )


def build_master_equation(model, dipole=None) -> MasterEquationSpec:
    """Jump operators, dipole weights, and frequency map for a two-level model.

    The jump operator of mode k uses the conjugated eigenvector
    components: operator-valued combinations transport with the transpose
    of the generator, so conjugation is what makes the positive-frequency
    channel the lowering operator, as emission requires.
    """
    if not isinstance(model, TLSModel):
        raise UnsupportedDimension(
            "open dynamics are implemented for the two-level model only"
        )
    p = model.protocol
    basis = _tls_basis_matrices(p)
    frame = bi_eigendecompose(tls_generator(p.mu(0.0)))
    ops = []
    for k in range(3):
        f = np.conj(frame.rights[:, k])
        ops.append(f[0] * basis[0] + f[1] * basis[1] + f[2] * basis[2])
    ops.append(basis[3])

    D = _SX if dipole is None else np.asarray(dipole, dtype=complex)
    if D.shape != (2, 2):
        raise ValueError(f"dipole operator must be 2x2, got {D.shape}")
    if np.max(np.abs(D - D.conj().T)) > 1e-9:
        raise ValueError("dipole operator must be Hermitian")

    coeffs = []
    for F in ops:
        norm2 = np.trace(F.conj().T @ F).real
        coeffs.append(complex(np.trace(F.conj().T @ D)) / norm2)
    recon = sum(a * F for a, F in zip(coeffs, ops))
    if np.max(np.abs(recon - D)) > 1e-10:
        raise LiouvdynError("dipole operator left the span of the jump operators")

    return MasterEquationSpec(
        jump_ops=tuple(ops),
        dipole_coeffs=tuple(coeffs),
        alpha_of_t=lambda t: _tls_alpha_closed(p, t),
    )


def _as_density_matrix(state) -> np.ndarray:
    if isinstance(state, BlochState):
        r = np.asarray(state.r, dtype=float)
        return 0.5 * (np.eye(2) + 2.0 * (r[0] * _SX + r[1] * _SY + r[2] * _SZ))
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got {rho.shape}")
    return rho


def _check_states(rhos: np.ndarray, ts, label: str):
    """Hermiticity, trace and positivity of each state of an (n, 2, 2) stack.

    The first state that fails names the error: drift of its Hermiticity
    or trace raises IntegratorFailure, a negative eigenvalue
    PositivityViolation.
    """
    ts = np.asarray(ts, dtype=float)
    tol = 1e-9 * (1.0 + np.abs(ts))
    herm = np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1)), axis=(1, 2))
    trace = np.trace(rhos, axis1=1, axis2=2)
    trace_dev = np.abs(trace.real - 1.0) + np.abs(trace.imag)
    low = np.linalg.eigvalsh(0.5 * (rhos + rhos.conj().transpose(0, 2, 1))).min(axis=1)
    # written as not (x <= bound) so that a NaN state fails
    drifted = ~((herm <= tol) & (trace_dev <= tol))
    bad = drifted | ~(low >= -1e-7)
    if not np.any(bad):
        return
    i = int(np.argmax(bad))
    t = float(ts[i])
    if drifted[i]:
        raise IntegratorFailure(
            f"{label} state at t={t} drifted: hermiticity {herm[i]:.3e}, "
            f"trace {trace_dev[i]:.3e}"
        )
    raise PositivityViolation(f"{label} state at t={t} has eigenvalue {low[i]:.3e}")


def _cumulative_integral(f, t_end: float, ts, *, rtol: float, atol: float) -> np.ndarray:
    """Integrals int_0^t f(s) ds at every t of ``ts``, one per column of f.

    ``f`` maps a 1-D array of m times in [0, t_end] to an (m, k) array.
    It is sampled on ``linalg.chebyshev_levels`` of [0, t_end], doubling
    the n intervals from _CHEB_N0; the interpolant is integrated term by
    term (Clenshaw-Curtis) and summed at ``ts``.  Stops when the
    integrals of two successive levels agree within atol + rtol |I| on
    the finer level's points, so the samples do not depend on ``ts``,
    and raises NotConverged once n would pass _CHEB_MAX_N.
    """
    from numpy.polynomial import chebyshev

    levels = chebyshev_levels(lambda x: (f(0.5 * t_end * (1.0 + x)),), _CHEB_N0, _CHEB_MAX_N)
    previous = None
    for n, nodes, (values,) in levels:
        anti = chebyshev.chebint(chebyshev_coefficients(values), lbnd=-1.0, scl=0.5 * t_end)
        if previous is not None:
            # the two levels' integrals compared on this level's points,
            # so the stopping point does not depend on ts either
            new = chebyshev.chebval(nodes, anti)
            if np.all(np.abs(new - chebyshev.chebval(nodes, previous))
                      <= atol + rtol * np.abs(new)):
                x = 2.0 * np.asarray(ts, dtype=float) / t_end - 1.0
                return chebyshev.chebval(x, anti).T
        previous = anti
    raise NotConverged(
        f"cumulative phase quadrature did not settle within {n + 1} "
        "Chebyshev points"
    )


def _secular_phase_check(alphas: np.ndarray, Lam: np.ndarray):
    """Warn when non-conjugate channels accumulate too little phase.

    ``alphas`` are the channel frequencies at the end of the run and
    ``Lam`` their accumulated phases Lambda_j there.
    """
    scale = max(np.max(np.abs(alphas)), 1.0)
    n = alphas.size
    worst = math.inf
    for i in range(n):
        for j in range(i, n):
            if abs(alphas[i] + alphas[j]) <= 1e-9 * scale:
                continue  # conjugate pair, survives the secular average
            worst = min(worst, abs(Lam[i] + Lam[j]))
    if worst < 10.0:
        warnings.warn(
            "accumulated phases of non-conjugate channels stay below 10 "
            f"(min {worst:.3g}); the secular truncation may not be justified "
            "on this horizon",
            UserWarning,
            stacklevel=3,
        )


def _zero_mode_frame(F, weights):
    """Eigenbasis V of the zero mode F_0 and each channel's weights in it.

    Every weighted F_j must be, in V, diagonal or a single transition;
    any other shape (sigma_x, say) raises LiouvdynError.  Then, per unit
    rate of channel j, rho_00' = k_in rho_11 - k_out rho_00 with k_in =
    |F_01|^2, k_out = |F_10|^2, and rho_01' = -Gamma_c rho_01 with Gamma_c =
    tr(F^dagger F) / 2 - F_00 F_11*.  F_j^dagger F_j is diagonal too, and a
    V-diagonal unitary only multiplies F_j by a phase, so the level shift
    sum_j |a_j|^2 lamb_shift F_j^dagger F_j commutes with the dissipator
    and rotates the coherence alone.  Returns V, the (channels, 2)
    diagonals of F_j^dagger F_j, and the (channels, 4) weights of k_in,
    k_in + k_out, Re Gamma_c and Im Gamma_c.
    """
    # mode 0 is the Hermitian zero mode, sigma_z of the t = 0 eigenoperator frame
    _, V = np.linalg.eigh(0.5 * (F[0] + F[0].conj().T))
    Fv = V.conj().T @ np.asarray(F) @ V
    for j in np.flatnonzero(weights):
        support = np.abs(Fv[j]) > 1e-10 * np.max(np.abs(Fv[j]))
        if np.any(support & ~np.eye(2, dtype=bool)) and np.count_nonzero(support) > 1:
            raise LiouvdynError(
                f"jump operator {j} is neither diagonal nor a single transition "
                "in the zero-mode basis, so the dissipator does not split into "
                "a population and a coherence"
            )
    levels = np.sum(np.abs(Fv) ** 2, axis=1)
    up, down = np.abs(Fv[:, 0, 1]) ** 2, np.abs(Fv[:, 1, 0]) ** 2
    coherence = 0.5 * levels.sum(axis=1) - Fv[:, 0, 0] * Fv[:, 1, 1].conj()
    return V, levels, np.stack([up, up + down, coherence.real, coherence.imag], axis=1)


def _su2(w: np.ndarray) -> np.ndarray:
    """exp(-i w . sigma / 2) = cos(|w|/2) I - i sin(|w|/2)/|w| w . sigma for
    an (N, 3) stack of axis vectors."""
    angle = np.linalg.norm(w, axis=1)
    ratio = np.where(angle > 0.0, np.sin(0.5 * angle) / np.where(angle > 0.0, angle, 1.0), 0.5)
    x, y, z = (ratio * w[:, i] for i in range(3))
    c = np.cos(0.5 * angle)
    return np.stack([c - 1j * z, -1j * x - y, -1j * x + y, c + 1j * z], axis=1).reshape(-1, 2, 2)


def magnus_levels(protocol, ts):
    """The step cap and the Magnus steps per grid interval of each level
    the driven free propagator may take on ``ts``: from about
    MAGNUS_STEPS_PER_RAD per radian of the widest interval's rotation,
    doubling while a level stays within the cap of MAGNUS_MAX_STEPS steps
    (or two steps per interval)."""
    n, Om = len(ts) - 1, protocol.Omega(ts)
    angle = float(np.max(np.diff(ts) * np.maximum(Om[1:], Om[:-1])))
    s = 2 ** max(0, round(math.log2(MAGNUS_STEPS_PER_RAD * angle)))
    cap = max(MAGNUS_MAX_STEPS, 2 * n)
    return cap, [s << i for i in range(cap.bit_length()) if (s << i) * n <= cap]


def _driven_propagators(protocol, ts, *, rtol: float, atol: float) -> np.ndarray:
    """Time-ordered U(t) of H(t) = omega(t) S_z + epsilon S_x at every t of ``ts``.

    H = (epsilon, 0, omega(t)) . sigma / 2, so each grid interval takes s
    sixth-order Magnus steps (``linalg.magnus_axes``), exponentiated in
    SU(2) and multiplied by pairwise reduction; prefix products over the
    intervals give U on the grid.  s runs over ``magnus_levels`` until two
    levels agree within atol + rtol |U| in every entry, and NotConverged
    is raised when none do.
    """
    eps, dt = protocol.epsilon, np.diff(ts)

    def field(t):
        omega = protocol.omega(t)
        return np.stack([np.full_like(omega, eps), np.zeros_like(omega), omega], axis=1)

    cap, levels = magnus_levels(protocol, ts)
    previous = None
    for s in levels:
        edges = np.append((ts[:-1, None] + dt[:, None] * (np.arange(s) / s)).ravel(), ts[-1])
        U = ordered_product(_su2(magnus_axes(field, edges)).reshape(len(dt), s, 2, 2))
        offset = 1
        while offset < len(U):  # prefix products, later intervals on the left
            U[offset:] = U[offset:] @ U[:-offset]
            offset *= 2
        if previous is not None and np.all(np.abs(U - previous) <= atol + rtol * np.abs(U)):
            return np.concatenate([np.eye(2)[None], U])
        previous = U
    raise NotConverged(f"free propagator: no two Magnus levels agreed within {cap} steps")


def _phases(spec: MasterEquationSpec, bath: BathSpec, ts, weights, levels, rtol, atol):
    """Accumulated channel phases Lambda_j and level phases theta_k on ``ts``.

    Both are cumulative integrals from 0 over one Chebyshev node set:
    Lambda_j' = alpha_j(t), and, when ``levels`` (per-channel diagonals
    of F_j^dagger F_j in the zero-mode basis) are given, theta_k' =
    sum_j weights[j] lamb_shift(bath, alpha_j(t)) levels[j, k], with
    weights[j] = |a_j|^2.  Returns (Lambda, theta), theta None without
    levels.
    """
    def rates(t):
        alphas = spec.alpha_of_t(t)
        if levels is None:
            return alphas
        return np.hstack([alphas, (_level_shifts(bath, alphas) * weights) @ levels])

    integrals = _cumulative_integral(rates, ts[-1], ts, rtol=rtol, atol=atol)
    n = len(spec.jump_ops)
    return integrals[:, :n], (integrals[:, n:] if levels is not None else None)


def _dissipator(rho_v: np.ndarray, ts, rates, *, rtol: float, atol: float):
    """Population p = rho_00 and coherence c = rho_01 on ``ts`` from ``rho_v``.

    p' = k_in - k p and c' = -Gamma_c c, ``rates`` mapping times to the
    columns k_in, k, Re Gamma_c, Im Gamma_c.  Over each of m panels of a
    grid interval u = int k rises by du and int Gamma_c by dg (trapezoid
    rule): c = c_0 e^(-sum dg), and with q = k_in / k linear in u, p_1 =
    e^-du p_0 + (1 - e^-du) q_1 - ((1 - e^-du) / du - e^-du) (q_1 - q_0).
    Only decaying exponentials are formed, so constant rates are exact at
    any horizon.  m doubles, each level Richardson-corrected with the one
    before, until two corrected levels agree within atol + rtol |.|.
    Rates that are not finite raise IntegratorFailure; NotConverged once a
    level would pass _MAX_PANELS panels (or four per interval).
    """
    n, m, coarse, previous = len(ts) - 1, 1, None, None
    while m * n <= max(_MAX_PANELS, 4 * n):
        s = ts[:-1, None] + np.diff(ts)[:, None] * (np.arange(m + 1) / m)
        r = rates(s.ravel())
        if not np.all(np.isfinite(r)):
            raise IntegratorFailure("master-equation rates are not finite")
        k_in, k, g_re, g_im = np.moveaxis(r.reshape(n, m + 1, 4), -1, 0)
        du, dg = (0.5 * np.diff(s, axis=1) * (v[:, 1:] + v[:, :-1]) for v in (k, g_re + 1j * g_im))
        q = np.divide(k_in, k, out=np.zeros_like(k), where=k > 0.0)
        decay, gain = np.exp(-du), -np.expm1(-du)
        lag = np.divide(gain, du, out=np.ones_like(du), where=du > 0.0) - decay
        inflow = gain * q[:, 1:] - lag * np.diff(q, axis=1)
        # a panel's inflow decays over the later panels of its interval
        later = np.cumsum(du[:, ::-1], axis=1)[:, ::-1] - du
        steps = zip(np.exp(-du.sum(axis=1)).tolist(),
                    (inflow * np.exp(-later)).sum(axis=1).tolist())
        p = [rho_v[0, 0].real]
        for a, b in steps:
            p.append(a * p[-1] + b)
        y = np.append(p, rho_v[0, 1] * np.exp(-np.cumsum(np.append(0.0, dg.sum(axis=1)))))
        fine = y + (y - coarse) / 3.0 if m > 1 else None
        if m > 2 and np.all(np.abs(fine - previous) <= atol + rtol * np.abs(fine)):
            return fine[: n + 1].real, fine[n + 1:]
        coarse, previous, m = y, fine, 2 * m
    raise NotConverged(f"master equation: panel levels did not agree within {m // 2} "
                       "panels per grid interval")


def mesolve(
    model,
    bath: BathSpec,
    rho0,
    t_grid,
    *,
    dipole=None,
    lamb_shift_enabled: bool = False,
    picture: str = "schrodinger",
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> np.ndarray:
    """Evolve a two-level state under the driven-system master equation.

    Solves the interaction-picture GKLS equation with channel rates
    gamma_j = |a_j|^2 decay_rate(bath, alpha_j(t)) without an ODE and, on
    request, maps back to the lab frame with the exact free propagator:
    one SU(2) exponential (``_su2``) of t (epsilon, 0, omega) for a static
    drive, of each of the stacked sixth-order Magnus steps aligned to
    ``t_grid`` otherwise (``_driven_propagators``).  Returns the
    stack of density matrices on ``t_grid`` (which must start at 0).

    In the zero-mode basis V the equation splits into a population p and
    a coherence c (``_zero_mode_frame``, ``_dissipator``), so rho_D =
    V [[p, c], [c*, 1 - p]] V^dagger.  The level shift only turns c, by
    the level phases theta of ``_phases``.
    """
    if picture not in ("schrodinger", "interaction"):
        raise ValueError("picture must be 'schrodinger' or 'interaction'")
    spec = build_master_equation(model, dipole)
    p = model.protocol
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if ts[0] != 0.0:
        raise ValueError("t_grid must start at 0, where the pictures coincide")
    if ts.size > 1 and np.any(np.diff(ts) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    if ts[-1] >= p.t_max:
        raise DomainExceeded(
            f"t={ts[-1]} is at or beyond the protocol domain [0, {p.t_max})"
        )

    rho_init = _as_density_matrix(rho0)
    _check_states(rho_init[None], [0.0], "initial")
    if ts[-1] == 0.0:
        return rho_init[None, :, :].copy()

    weights = np.array([abs(a) ** 2 for a in spec.dipole_coeffs])
    V, levels, rate_weights = _zero_mode_frame(spec.jump_ops, weights)
    Lam, theta = _phases(spec, bath, ts, weights, levels if lamb_shift_enabled else None,
                         rtol, atol)
    _secular_phase_check(spec.alpha_of_t(ts[-1]), Lam[-1])

    def rates(t):  # k_in, k_in + k_out, Re and Im Gamma_c; inf or nan past the float range
        with np.errstate(over="ignore", invalid="ignore"):
            return (weights * decay_rate(bath, spec.alpha_of_t(t))) @ rate_weights

    pop, coh = _dissipator(V.conj().T @ rho_init @ V, ts, rates, rtol=rtol, atol=atol)
    if lamb_shift_enabled:  # U rho_D U^dagger turns the coherence in V
        coh = coh * np.exp(-1j * (theta[:, 0] - theta[:, 1]))
    states = V @ np.stack([pop, coh, coh.conj(), 1.0 - pop], axis=1).reshape(-1, 2, 2) @ V.conj().T
    _check_states(states, ts, "interaction-picture")
    if picture == "interaction":
        return states

    if p.static:
        U = _su2(np.outer(ts, (p.epsilon, 0.0, p.omega(0.0))))
    else:
        U = _driven_propagators(p, ts, rtol=min(rtol, 1e-10), atol=min(atol, 1e-12))
    Ud = U.conj().transpose(0, 2, 1)
    drift = np.max(np.abs(Ud @ U - np.eye(2)), axis=(1, 2))
    lost = ~(drift <= 1e-9 * (1.0 + np.abs(ts)))
    if np.any(lost):
        i = int(np.argmax(lost))
        raise IntegratorFailure(
            f"free propagator lost unitarity at t={float(ts[i])}: {drift[i]:.3e}"
        )
    return U @ states @ Ud


def trajectory_rows(model, t_grid, states) -> list:
    """Per-time summary tuples for trajectory export.

    Columns: t, Bloch x/y/z, ground and excited populations of the
    instantaneous Hamiltonian, trace deviation, minimum eigenvalue.
    """
    p = model.protocol
    ts = np.asarray(t_grid, dtype=float)
    rho = np.asarray(states)
    # tr(rho (2 S)) for S = S_x, S_y, S_z
    bloch = 2.0 * np.einsum("nij,kji->nk", rho, np.stack([_SX, _SY, _SZ])).real
    H = p.omega(ts)[:, None, None] * _SZ + p.epsilon * _SX
    _, vecs = np.linalg.eigh(H)
    pops = np.einsum("nik,nij,njk->nk", vecs.conj(), rho, vecs).real
    trace_dev = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    low = np.linalg.eigvalsh(0.5 * (rho + rho.conj().transpose(0, 2, 1))).min(axis=1)
    table = np.column_stack([ts, bloch, pops, trace_dev, low])
    return [tuple(row) for row in table.tolist()]
