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

import math
import warnings
from dataclasses import dataclass

import numpy as np

# scipy is imported inside the functions that call it: it is most of the
# package's import time, and `geo` and `diagnose` runs never need it.

from .errors import (
    DomainExceeded,
    IntegratorFailure,
    LiouvdynError,
    NotConverged,
    PositivityViolation,
    UnphysicalState,
    UnsupportedDimension,
)
from .linalg import bi_eigendecompose, eigenframes
from .models import BlochState, TLSModel, tls_generator

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]]) / 2.0
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex) / 2.0

# overflow guard for the Bose-Einstein exponent
_MAX_EXPONENT = 700.0
_QUAD_KW = dict(epsrel=1e-11, limit=400)
# absolute level-shift quadrature tolerance, per unit of cutoff^3 / 3: the
# size of the sum both integrals enter, so a term that crosses zero on its
# own (the thermal principal value near |alpha| = 31.63 at the default
# bath) is not held to an absolute accuracy the sum cannot resolve
_SHIFT_EPSABS = 1e-11


@dataclass(frozen=True)
class BathSpec:
    """Thermal bosonic bath: temperature, coupling scale, and cutoff.

    ``coupling`` absorbs every electromagnetic prefactor of the golden-rule
    rate into one scalar, so gamma(alpha) = coupling * alpha^3 * (1 + N)
    on the emission side.  ``cutoff`` bounds the principal-value
    frequency integral of the level-shift term and must exceed every
    effective frequency probed.
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
    lamb_shift_enabled: bool = False


def bose_occupation(alpha: float, temperature: float) -> float:
    """Bose-Einstein occupation at a positive frequency."""
    if alpha <= 0.0:
        raise ValueError("occupation is defined for positive frequencies")
    if temperature < 0.0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0.0:
        return 0.0
    x = alpha / temperature
    if x > _MAX_EXPONENT:
        return 0.0
    return 1.0 / math.expm1(x)


def decay_rate(bath: BathSpec, alpha: float) -> float:
    """Golden-rule rate gamma(alpha) >= 0 per unit squared dipole weight.

    Positive frequencies emit at coupling * alpha^3 * (1 + N(alpha));
    negative frequencies absorb at coupling * |alpha|^3 * N(|alpha|), the
    detailed-balance completion gamma(-alpha) = e^(-alpha/T) gamma(alpha).
    """
    if alpha == 0.0:
        return 0.0
    mag = abs(alpha)
    n = bose_occupation(mag, bath.temperature)
    if alpha > 0.0:
        return bath.coupling * mag**3 * (1.0 + n)
    return bath.coupling * mag**3 * n


def _quad(f, a, b, epsabs, **kw):
    import scipy.integrate

    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        try:
            value, err = scipy.integrate.quad(f, a, b, epsabs=epsabs, **_QUAD_KW, **kw)
        except scipy.integrate.IntegrationWarning as exc:
            raise NotConverged(f"level-shift quadrature failed: {exc}") from exc
    return value


def lamb_shift(bath: BathSpec, alpha: float) -> float:
    """Second-order level shift 2g . PV int_0^cutoff w^3 [(1+N)/(alpha-w) + N/(alpha+w)] dw.

    The pole is handled by Cauchy-weight quadrature; at alpha = 0 the two
    occupation terms collapse and the integral is exactly -cutoff^3 / 3
    regardless of temperature.
    """
    if bath.coupling == 0.0:
        return 0.0
    wc = bath.cutoff
    if abs(alpha) >= wc:
        raise ValueError("cutoff must exceed |alpha|")
    if alpha == 0.0:
        return -2.0 * bath.coupling * wc**3 / 3.0
    T = bath.temperature
    tol = _SHIFT_EPSABS * wc**3 / 3.0

    def emission(w):
        if w <= 0.0:
            return 0.0
        return w**3 * (1.0 + (bose_occupation(w, T) if T > 0.0 else 0.0))

    def absorption(w):
        if w <= 0.0 or T == 0.0:
            return 0.0
        return w**3 * bose_occupation(w, T)

    if alpha > 0.0:
        # (1+N)/(alpha-w) carries the pole; N/(alpha+w) is regular
        principal = -_quad(emission, 0.0, wc, tol, weight="cauchy", wvar=alpha)
        regular = _quad(lambda w: absorption(w) / (alpha + w), 0.0, wc, tol)
    else:
        principal = (
            _quad(absorption, 0.0, wc, tol, weight="cauchy", wvar=-alpha)
            if T > 0.0
            else 0.0
        )
        regular = _quad(lambda w: emission(w) / (alpha - w), 0.0, wc, tol)
    return 2.0 * bath.coupling * (principal + regular)


# ---------------------------------------------------------------------------
# effective frequencies
# ---------------------------------------------------------------------------


def effective_frequencies(model, t: float) -> np.ndarray:
    """Per-mode phase velocities dLambda_j/dt of the inertial bookkeeping.

    Assembled from the instantaneous eigenvalues plus the gauge-fixed
    frame-transport correction, mode by mode, each mode taken in its
    closed block of the generator.
    """
    fact = model.factorization()
    if t >= fact.t_max:
        raise DomainExceeded(f"t={t} is at or beyond the protocol domain")
    chi = fact.chi_of_t(t)
    pace = fact.omega_of_t(t)
    drift = fact.dchi_dtheta(t) if fact.dchi_dtheta is not None else 0.0
    h = 1e-6 * max(1.0, abs(chi))
    B = fact.B_of_chi(np.array([chi, chi + h, chi - h]))
    lam, rights, lefts = eigenframes(B, blocks=fact.blocks)
    dF = (rights[1] - rights[2]) / (2.0 * h)
    conn = np.einsum("ik,ik->k", lefts[0].conj(), dF)
    return ((lam[0] - 1j * conn * drift) * pace).real


def effective_frequency(model, t: float, mode: int) -> float:
    """Effective frequency alpha_mode(t) of one generator mode."""
    alphas = effective_frequencies(model, t)
    if not 0 <= mode < alphas.size:
        raise ValueError(f"mode index {mode} outside 0..{alphas.size - 1}")
    return float(alphas[mode])


def _tls_alpha_closed(protocol, t: float) -> np.ndarray:
    # the two-level transport correction vanishes identically in the
    # fixed gauge (unit-norm frames of a Hermitian generator), leaving
    # alpha = lambda * pace; cross-checked against effective_frequencies
    mu = protocol.mu(t)
    gap = math.hypot(1.0, mu) * protocol.Omega(t)
    return np.array([0.0, gap, -gap, 0.0])


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


def build_master_equation(
    model, dipole=None, *, lamb_shift_enabled: bool = False
) -> MasterEquationSpec:
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
        lamb_shift_enabled=lamb_shift_enabled,
    )


def _as_density_matrix(state) -> np.ndarray:
    if isinstance(state, BlochState):
        r = np.asarray(state.r, dtype=float)
        return 0.5 * (np.eye(2) + 2.0 * (r[0] * _SX + r[1] * _SY + r[2] * _SZ))
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got {rho.shape}")
    return rho


def _check_state(rho: np.ndarray, t: float, label: str):
    tol = 1e-9 * (1.0 + abs(t))
    herm = np.max(np.abs(rho - rho.conj().T))
    trace_dev = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
    if herm > tol or trace_dev > tol:
        raise IntegratorFailure(
            f"{label} state at t={t} drifted: hermiticity {herm:.3e}, "
            f"trace {trace_dev:.3e}"
        )
    low = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if low < -1e-7:
        raise PositivityViolation(
            f"{label} state at t={t} has eigenvalue {low:.3e}"
        )


def _secular_phase_check(spec: MasterEquationSpec, t_end: float):
    import scipy.integrate

    alphas = spec.alpha_of_t(t_end)
    scale = max(np.max(np.abs(alphas)), 1.0)
    n = alphas.size
    Lam = np.array(
        [
            scipy.integrate.quad(
                lambda s, jj=j: spec.alpha_of_t(s)[jj],
                0.0,
                t_end,
                epsabs=1e-10,
                epsrel=1e-9,
                limit=200,
            )[0]
            for j in range(n)
        ]
    )
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


def _level_shift_frame(F, weights):
    """Eigenbasis V of the zero mode F_0 and the diagonal of F_j^dagger F_j in it.

    The level-shift Hamiltonian sum_j w_j S(alpha_j) F_j^dagger F_j then
    acts as a phase on each basis vector, and it commutes with the
    dissipator when every weighted F_j is, in V, either diagonal or a
    single transition |a><b|: conjugating by any V-diagonal unitary only
    multiplies such an F_j by a phase.  That also makes each F_j^dagger
    F_j diagonal in V.  A matrix with one entry per row is not enough
    (sigma_x' picks up opposite phases on its two entries), so any other
    shape raises LiouvdynError.
    """
    # mode 0 is the Hermitian zero mode, sigma_z of the t = 0 eigenoperator frame
    _, V = np.linalg.eigh(0.5 * (F[0] + F[0].conj().T))
    levels = np.zeros((len(F), 2))
    for j, op in enumerate(F):
        if weights[j] == 0.0:
            continue
        Fv = V.conj().T @ op @ V
        support = np.abs(Fv) > 1e-10 * np.max(np.abs(Fv))
        if np.any(support & ~np.eye(2, dtype=bool)) and np.count_nonzero(support) > 1:
            raise LiouvdynError(
                f"jump operator {j} is neither diagonal nor a single transition "
                "in the zero-mode basis, so the level shift does not commute "
                "with the dissipator"
            )
        levels[j] = np.sum(np.abs(Fv) ** 2, axis=0)
    return V, levels


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

    Integrates the interaction-picture GKLS equation with channel rates
    gamma_j = |a_j|^2 decay_rate(bath, alpha_j(t)) and, on request, maps
    back to the lab frame with the exact free propagator.  Returns the
    stack of density matrices on ``t_grid`` (which must start at 0).

    The level shift H_LS(t) = sum_j |a_j|^2 lamb_shift(bath, alpha_j(t))
    F_j^dagger F_j is diagonal in the eigenbasis V of the zero mode and
    commutes with the dissipator, so it only rotates the state:
    rho = U rho_D U^dagger, with rho_D the solution without H_LS and
    U = V diag(e^(-i theta)) V^dagger.  The two level phases theta, with
    theta_k' = sum_j |a_j|^2 lamb_shift(bath, alpha_j(t)) (V^dagger
    F_j^dagger F_j V)_kk, are integrated under the same tolerances in a
    solve of their own, so rho_D is bit for bit the run without the shift.
    """
    import scipy.integrate

    if picture not in ("schrodinger", "interaction"):
        raise ValueError("picture must be 'schrodinger' or 'interaction'")
    spec = build_master_equation(
        model, dipole, lamb_shift_enabled=lamb_shift_enabled
    )
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
    _check_state(rho_init, 0.0, "initial")
    if ts[-1] == 0.0:
        return rho_init[None, :, :].copy()

    if lamb_shift_enabled and bath.cutoff <= np.max(
        [np.max(np.abs(spec.alpha_of_t(t))) for t in (0.0, ts[-1] / 2.0, ts[-1])]
    ):
        raise ValueError("bath cutoff must exceed every effective frequency")

    _secular_phase_check(spec, ts[-1])

    F = [np.asarray(op) for op in spec.jump_ops]
    Fd = [op.conj().T for op in F]
    FdF = [d @ op for d, op in zip(Fd, F)]
    weights = np.array([abs(a) ** 2 for a in spec.dipole_coeffs])
    if lamb_shift_enabled:
        V, levels = _level_shift_frame(F, weights)

    def rhs(t, y):
        rho = y.reshape(2, 2)
        alphas = spec.alpha_of_t(t)
        out = np.zeros((2, 2), dtype=complex)
        for j in range(len(F)):
            g = weights[j] * decay_rate(bath, float(alphas[j]))
            if g == 0.0:
                continue
            out += g * (F[j] @ rho @ Fd[j] - 0.5 * (FdF[j] @ rho + rho @ FdF[j]))
        return out.ravel()

    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, ts[-1]),
        rho_init.ravel(),
        method="DOP853",
        t_eval=ts,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise IntegratorFailure(f"master-equation integration failed: {sol.message}")
    states = sol.y.T.reshape(-1, 2, 2)
    if lamb_shift_enabled:
        shifts = {}  # lamb_shift by alpha; a static drive repeats one per channel

        def level_phase_rates(t, theta):
            alphas = spec.alpha_of_t(t)
            out = np.zeros(2)
            for j in range(len(F)):
                if weights[j] == 0.0:
                    continue
                a = float(alphas[j])
                if a not in shifts:
                    shifts[a] = lamb_shift(bath, a)
                out += weights[j] * shifts[a] * levels[j]
            return out

        phases = scipy.integrate.solve_ivp(
            level_phase_rates,
            (0.0, ts[-1]),
            np.zeros(2),
            method="DOP853",
            t_eval=ts,
            rtol=rtol,
            atol=atol,
        )
        if not phases.success:
            raise IntegratorFailure(
                f"level-shift phase integration failed: {phases.message}"
            )
        # rho = U rho_D U^dagger with U = V diag(e^(-i theta)) V^dagger
        U = (V * np.exp(-1j * phases.y.T)[:, None, :]) @ V.conj().T
        states = U @ states @ U.conj().transpose(0, 2, 1)
    for t, rho in zip(ts, states):
        _check_state(rho, t, "interaction-picture")
    if picture == "interaction":
        return states

    eps = p.epsilon

    def schrodinger_rhs(t, y):
        U = y.reshape(2, 2)
        H = p.omega(t) * _SZ + eps * _SX
        return (-1j * H @ U).ravel()

    usol = scipy.integrate.solve_ivp(
        schrodinger_rhs,
        (0.0, ts[-1]),
        np.eye(2, dtype=complex).ravel(),
        method="DOP853",
        t_eval=ts,
        rtol=min(rtol, 1e-10),
        atol=min(atol, 1e-12),
    )
    if not usol.success:
        raise IntegratorFailure(f"free-propagator integration failed: {usol.message}")
    out = np.empty_like(states)
    for i, (t, rho) in enumerate(zip(ts, states)):
        U = usol.y[:, i].reshape(2, 2)
        drift = np.max(np.abs(U.conj().T @ U - np.eye(2)))
        if drift > 1e-9 * (1.0 + abs(t)):
            raise IntegratorFailure(
                f"free propagator lost unitarity at t={t}: {drift:.3e}"
            )
        out[i] = U @ rho @ U.conj().T
    return out


def trajectory_rows(model, t_grid, states) -> list:
    """Per-time summary tuples for trajectory export.

    Columns: t, Bloch x/y/z, ground and excited populations of the
    instantaneous Hamiltonian, trace deviation, minimum eigenvalue.
    """
    p = model.protocol
    rows = []
    for t, rho in zip(np.asarray(t_grid, dtype=float), states):
        r = [float(np.trace(rho @ (2.0 * s)).real) for s in (_SX, _SY, _SZ)]
        H = p.omega(t) * _SZ + p.epsilon * _SX
        _, vecs = np.linalg.eigh(H)
        pops = [float((vecs[:, k].conj() @ rho @ vecs[:, k]).real) for k in (0, 1)]
        trace_dev = float(abs(np.trace(rho) - 1.0))
        low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        rows.append((float(t), r[0], r[1], r[2], pops[0], pops[1], trace_dev, low))
    return rows
