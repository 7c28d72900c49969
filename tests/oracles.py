"""Independent reference computations used as test oracles.

Everything in this module is derived from first principles (operator
algebra, textbook closed forms) without importing the package under test,
so agreement between the two is meaningful.  Six exceptions replay an
older route through the package's own frame layer: ``per_row_diagnose``
runs the ``diagnose`` row loop through the one-point functions, so the
stacked column can be held to it, ``per_point_sweep`` runs a duration
sweep one point at a time through the one-point propagators, so the
batched sweep can be held to it, ``grid_inertial`` runs the uniform
grid inertial propagation, so the spectral route can be held to it,
``segment_surface_phases`` runs the surface form one curvature stack per
boundary segment, so the stacked levels can be held to it,
``level_line_phases`` samples and diagonalizes every level of the line
form whole, so the nested levels can be held to it, and
``effective_frequencies`` takes the frame connection by a finite
difference of the package's frames, so the closed-form two-level
channel frequencies can be held to it.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# closed-form eigensystems of the model generators
# ---------------------------------------------------------------------------


def ho_upper_eigensystem(mu: float):
    """Direction vectors and eigenvalues for the energy-like 3x3 block."""
    kappa = np.sqrt(4.0 - mu**2)
    lambdas = np.array([0.0, kappa, -kappa])
    directions = [
        np.array([2.0, 0.0, mu], dtype=complex),
        np.array([mu, 1j * kappa, 2.0]),
        np.array([mu, -1j * kappa, 2.0]),
    ]
    return lambdas, directions


def ho_lower_eigensystem(mu: float):
    """Direction vectors and eigenvalues for the linear 2x2 block."""
    kappa = np.sqrt(4.0 - mu**2)
    lambdas = np.array([kappa / 2.0, -kappa / 2.0])
    directions = [
        np.array([0.5 * (mu - 1j * kappa), 1.0]),
        np.array([0.5 * (mu + 1j * kappa), 1.0]),
    ]
    return lambdas, directions


def tls_eigensystem(mu: float):
    kbar = np.sqrt(1.0 + mu**2)
    lambdas = np.array([0.0, kbar, -kbar])
    directions = [
        np.array([1.0, 0.0, mu], dtype=complex),
        np.array([-mu, -1j * kbar, 1.0]),
        np.array([-mu, 1j * kbar, 1.0]),
    ]
    return lambdas, directions


def gauge_align(direction: np.ndarray) -> np.ndarray:
    """Apply the package gauge: largest component real positive, unit norm.

    Exact magnitude ties resolve to the smallest index, matching the
    library convention.
    """
    d = np.asarray(direction, dtype=complex)
    mags = np.abs(d)
    j = int(np.argmax(mags >= (1.0 - 1e-9) * mags.max()))
    d = d / (d[j] / abs(d[j]))
    return d / np.linalg.norm(d)


# ---------------------------------------------------------------------------
# harmonic oscillator: exact Heisenberg generator over the monomial algebra
# ---------------------------------------------------------------------------
# monomial order: (pp, qq, qps, q, p, one) with qps = qp + pq

_MONO = {"pp": 0, "qq": 1, "qps": 2, "q": 3, "p": 4, "one": 5}


def _mono_table():
    """Commutators [a, b] of the monomials as coefficient vectors."""
    table = np.zeros((6, 6, 6), dtype=complex)

    def put(a, b, coeffs):
        va = np.zeros(6, dtype=complex)
        for name, c in coeffs.items():
            va[_MONO[name]] = c
        table[_MONO[a], _MONO[b]] = va
        table[_MONO[b], _MONO[a]] = -va

    put("qq", "pp", {"qps": 2j})
    put("qps", "qq", {"qq": -4j})
    put("qps", "pp", {"pp": 4j})
    put("qq", "p", {"q": 2j})
    put("pp", "q", {"p": -2j})
    put("qps", "q", {"q": -2j})
    put("qps", "p", {"p": 2j})
    put("q", "p", {"one": 1j})
    return table


_TABLE = _mono_table()


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros(6, dtype=complex)
    for a in range(6):
        if x[a] == 0:
            continue
        for b in range(6):
            if y[b] == 0:
                continue
            out += x[a] * y[b] * _TABLE[a, b]
    return out


def ho_direct_generator(t, omega, omega_dot, m, omega0):
    """Heisenberg generator of the frequency-scaled oscillator basis.

    Assembles d/dt of each basis operator from i[H, .] plus the explicit
    time derivative of its monomial coefficients, then re-expresses the
    result over the basis.  Returns M with d v / dt = -i M v.
    """
    w, wd = omega(t), omega_dot(t)
    s = omega0 / w

    def vec(**coeffs):
        v = np.zeros(6, dtype=complex)
        for name, c in coeffs.items():
            v[_MONO[name]] = c
        return v

    basis = [
        vec(pp=s / (2 * m), qq=s * m * w**2 / 2),
        vec(pp=s / (2 * m), qq=-s * m * w**2 / 2),
        vec(qps=-omega0 / 2),
        vec(q=np.sqrt(w)),
        vec(p=-1.0 / (m * np.sqrt(w))),
        vec(one=1.0),
    ]
    sdot = -omega0 * wd / w**2
    partials = [
        vec(pp=sdot / (2 * m), qq=(sdot * w**2 + 2 * s * w * wd) * m / 2),
        vec(pp=sdot / (2 * m), qq=-(sdot * w**2 + 2 * s * w * wd) * m / 2),
        vec(),
        vec(q=wd / (2 * np.sqrt(w))),
        vec(p=wd / (2 * m * w**1.5)),
        vec(),
    ]

    ham = vec(pp=1 / (2 * m), qq=m * w**2 / 2)
    T = np.column_stack(basis)
    M = np.zeros((6, 6), dtype=complex)
    for i in range(6):
        total = 1j * _commutator(ham, basis[i]) + partials[i]
        M[i] = 1j * np.linalg.solve(T, total)
    return M


# ---------------------------------------------------------------------------
# spin systems: exact Heisenberg generators from 2x2 / 4x4 matrices
# ---------------------------------------------------------------------------

SX = np.array([[0, 1], [1, 0]], dtype=complex) / 2
SY = np.array([[0, -1j], [1j, 0]]) / 2
SZ = np.array([[1, 0], [0, -1]], dtype=complex) / 2
ID2 = np.eye(2, dtype=complex)


def _project(op, basis):
    """Coefficients of op over a mutually orthogonal operator basis."""
    return np.array(
        [np.trace(b.conj().T @ op) / np.trace(b.conj().T @ b) for b in basis]
    )


def tls_direct_generator(t, omega, omega_dot, epsilon):
    """Heisenberg generator of the scaled two-level basis (4x4)."""
    w, wd = omega(t), omega_dot(t)
    Om = np.sqrt(w**2 + epsilon**2)
    Om_dot = w * wd / Om
    s = 1.0 / Om  # scale relative to Om(0); the ratio drops out of M
    sdot = -Om_dot / Om**2

    H = w * SZ + epsilon * SX
    basis = [s * H, s * (w * SX - epsilon * SZ), Om * s * SY, ID2]
    partials = [
        sdot * H + s * wd * SZ,
        sdot * (w * SX - epsilon * SZ) + s * wd * SX,
        (Om_dot * s + Om * sdot) * SY,
        np.zeros((2, 2), dtype=complex),
    ]

    M = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        total = 1j * (H @ basis[i] - basis[i] @ H) + partials[i]
        M[i] = 1j * _project(total, basis)
    return M


def two_spin_direct_generators(t, Omega, chi1, chi2, alpha0=(0.0, 0.0)):
    """Heisenberg generators of both spin-pair vectors, constant Rabi rate.

    Returns (M_local 6x6, M_nonlocal 9x9) for the basis built from the
    two single-spin triples at mixing angles alpha_i(t) = alpha0_i -
    chi_i * Omega * t.
    """
    singles = []
    for chi, a0 in ((chi1, alpha0[0]), (chi2, alpha0[1])):
        alpha = a0 - chi * Omega * t
        alpha_dot = -chi * Omega
        w, eps = Omega * np.cos(alpha), Omega * np.sin(alpha)
        wd = -Omega * np.sin(alpha) * alpha_dot
        epsd = Omega * np.cos(alpha) * alpha_dot
        H = w * SZ + eps * SX
        ops = [H, w * SX - eps * SZ, Omega * SY]
        dots = [
            wd * SZ + epsd * SX,
            wd * SX - epsd * SZ,
            np.zeros((2, 2), dtype=complex),
        ]
        singles.append((H, ops, dots))

    H_tot = np.kron(singles[0][0], ID2) + np.kron(ID2, singles[1][0])

    local_basis, local_dots = [], []
    for a in range(3):
        local_basis.append(np.kron(singles[0][1][a], ID2))
        local_dots.append(np.kron(singles[0][2][a], ID2))
    for b in range(3):
        local_basis.append(np.kron(ID2, singles[1][1][b]))
        local_dots.append(np.kron(ID2, singles[1][2][b]))

    nl_basis, nl_dots = [], []
    for a in range(3):
        for b in range(3):
            nl_basis.append(np.kron(singles[0][1][a], singles[1][1][b]))
            nl_dots.append(
                np.kron(singles[0][2][a], singles[1][1][b])
                + np.kron(singles[0][1][a], singles[1][2][b])
            )

    def assemble(basis, dots):
        n = len(basis)
        M = np.zeros((n, n), dtype=complex)
        for i in range(n):
            total = 1j * (H_tot @ basis[i] - basis[i] @ H_tot) + dots[i]
            M[i] = 1j * _project(total, basis)
        return M

    return assemble(local_basis, local_dots), assemble(nl_basis, nl_dots)


# ---------------------------------------------------------------------------
# Brute-force number-basis density matrices for single-mode Gaussian states.
# Construction: thermal diagonal -> squeeze -> rotate -> displace, with every
# operator built by explicit matrix exponentials.  The builder re-measures its
# own moments and refuses to return a state that misses the request.

FOCK_LEVELS = 120


def _fock_ladder(n_levels):
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), 1)


def fock_gaussian_density(mean, cov, n_levels=FOCK_LEVELS):
    """Density matrix with the given dimensionless quadrature moments.

    `mean` is (<Q>, <P>) and `cov` the symmetrized covariance in units
    where the vacuum covariance is I/2.
    """
    from scipy.linalg import expm

    a = _fock_ladder(n_levels)
    ad = a.conj().T
    V = np.asarray(cov, dtype=float)
    nu = np.sqrt(np.linalg.det(V))
    nbar = nu - 0.5
    w, R = np.linalg.eigh(V / nu)
    if np.linalg.det(R) < 0:
        R[:, 0] *= -1.0
    phi = np.arctan2(R[1, 0], R[0, 0])
    r = 0.5 * np.log(w[1])
    ks = np.arange(n_levels)
    if nbar < 1e-14:
        diag = np.zeros(n_levels)
        diag[0] = 1.0
    else:
        diag = (nbar / (nbar + 1.0)) ** ks / (nbar + 1.0)
    rho = np.diag(diag / diag.sum()).astype(complex)
    squeeze = expm(0.5 * r * (a @ a - ad @ ad))
    rho = squeeze @ rho @ squeeze.conj().T
    rot = expm(1j * phi * (ad @ a))
    rho = rot @ rho @ rot.conj().T
    alpha = (mean[0] + 1j * mean[1]) / np.sqrt(2.0)
    disp = expm(alpha * ad - np.conj(alpha) * a)
    rho = disp @ rho @ disp.conj().T

    Q = (a + ad) / np.sqrt(2.0)
    P = 1j * (ad - a) / np.sqrt(2.0)
    q = np.trace(rho @ Q).real
    p = np.trace(rho @ P).real
    dQ = Q - q * np.eye(n_levels)
    dP = P - p * np.eye(n_levels)
    got = np.array(
        [
            [np.trace(rho @ dQ @ dQ).real, 0.5 * np.trace(rho @ (dQ @ dP + dP @ dQ)).real],
            [0.0, np.trace(rho @ dP @ dP).real],
        ]
    )
    got[1, 0] = got[0, 1]
    if np.max(np.abs(np.array([q, p]) - mean)) > 1e-8 or np.max(np.abs(got - V)) > 1e-8:
        raise AssertionError("number-basis construction missed the requested moments")
    return rho


def psd_sqrt(M):
    w, U = np.linalg.eigh(M)
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T


def uhlmann_fidelity(rho1, rho2):
    """Squared Bures overlap via the nuclear norm of sqrt(rho1) sqrt(rho2)."""
    sv = np.linalg.svd(psd_sqrt(rho1) @ psd_sqrt(rho2), compute_uv=False)
    return float(np.sum(sv)) ** 2


def fock_gaussian_fidelity(mean1, cov1, mean2, cov2, n_levels=FOCK_LEVELS):
    """Uhlmann fidelity of two physical-unit Gaussian states.

    Both states pass through one common symplectic scaling (which cannot
    change the fidelity) so that the truncated number basis represents
    them compactly.
    """
    V1 = np.asarray(cov1, dtype=float)
    V2 = np.asarray(cov2, dtype=float)
    s = (np.sqrt(V1[1, 1] * V2[1, 1]) / np.sqrt(V1[0, 0] * V2[0, 0])) ** 0.5
    T = np.diag([np.sqrt(s), 1.0 / np.sqrt(s)])
    return uhlmann_fidelity(
        fock_gaussian_density(T @ np.asarray(mean1, float), T @ V1 @ T, n_levels),
        fock_gaussian_density(T @ np.asarray(mean2, float), T @ V2 @ T, n_levels),
    )


def qubit_density(r):
    r = np.asarray(r, dtype=float)
    return 0.5 * (
        np.eye(2, dtype=complex) + r[0] * 2 * SX + r[1] * 2 * SY + r[2] * 2 * SZ
    )


# ---------------------------------------------------------------------------
# open-system references: level shift, thermal state, optical Bloch
# ---------------------------------------------------------------------------


def lamb_shift_zero_temperature(g, omega_c, alpha):
    """Closed form of 2g PV int_0^wc w^3/(alpha - w) dw.

    Polynomial division w^3/(alpha - w) = -(w^2 + alpha w + alpha^2)
    - alpha^3/(w - alpha) integrates term by term; the log absorbs the
    principal value.
    """
    if alpha == 0.0:
        return -2.0 * g * omega_c**3 / 3.0
    return -2.0 * g * (
        omega_c**3 / 3.0
        + alpha * omega_c**2 / 2.0
        + alpha**2 * omega_c
        + alpha**3 * np.log(abs(omega_c - alpha) / abs(alpha))
    )


def pv_lamb_shift(g, temperature, omega_c, alpha):
    """Level shift by pole subtraction instead of Cauchy-weight quadrature.

    Writes PV int f(w)/(w - s) dw = int [f(w) - f(s)]/(w - s) dw
    + f(s) ln((wc - s)/s); the subtracted integrand is continuous, so a
    plain adaptive rule applies.
    """
    from scipy.integrate import quad

    if g == 0.0:
        return 0.0

    def occupation(w):
        if temperature == 0.0:
            return 0.0
        x = w / temperature
        if x > 700.0:
            return 0.0
        return 1.0 / np.expm1(x)

    def emission(w):
        return w**3 * (1.0 + occupation(w)) if w > 0.0 else 0.0

    def absorption(w):
        return w**3 * occupation(w) if w > 0.0 else 0.0

    def pv(f, s):
        fs = f(s)

        def smooth(w):
            if abs(w - s) < 1e-13:
                h = 1e-7 * max(1.0, abs(s))
                return (f(s + h) - f(s - h)) / (2.0 * h)
            return (f(w) - fs) / (w - s)

        body, _ = quad(smooth, 0.0, omega_c, points=[s], limit=400,
                       epsabs=1e-12, epsrel=1e-11)
        return body + fs * np.log((omega_c - s) / s)

    if alpha > 0.0:
        singular = -pv(emission, alpha)
        regular, _ = quad(lambda w: absorption(w) / (alpha + w), 0.0, omega_c,
                          limit=200, epsabs=1e-12, epsrel=1e-11)
    else:
        singular = pv(absorption, -alpha) if temperature > 0.0 else 0.0
        regular, _ = quad(lambda w: emission(w) / (alpha - w), 0.0, omega_c,
                          limit=200, epsabs=1e-12, epsrel=1e-11)
    return 2.0 * g * (singular + regular)


def gibbs_two_level(omega, epsilon, temperature):
    """Thermal state of H = omega S_z + epsilon S_x via the matrix exponential."""
    from scipy.linalg import expm

    H = omega * SZ + epsilon * SX
    M = expm(-H / temperature)
    return M / np.trace(M)


def trace_distance(rho, sigma):
    w = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.sum(np.abs(w)))


def optical_bloch_trajectory(omega, epsilon, temperature, g, r0, ts):
    """Textbook damped two-level trajectory for a static Hamiltonian.

    In the energy eigenframe the populations relax at the total rate
    toward the thermal ratio while coherences decay at half that rate and
    precess at the gap; the dipole matrix element of S_x between the
    eigenstates supplies the omega^2/(4 gap^2) weight.
    """
    gap = float(np.hypot(omega, epsilon))
    if temperature > 0.0:
        n = 1.0 / np.expm1(gap / temperature)
    else:
        n = 0.0
    element2 = omega**2 / (4.0 * gap**2)
    down = g * gap**3 * (1.0 + n) * element2
    up = g * gap**3 * n * element2
    total = down + up

    # lab -> eigenframe axes: z' along (epsilon, 0, omega)/gap
    c, s = omega / gap, epsilon / gap
    M = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    rp0 = M.T @ np.asarray(r0, dtype=float)
    z_ss = -(down - up) / total if total > 0.0 else rp0[2]

    out = []
    for t in np.asarray(ts, dtype=float):
        decay = np.exp(-0.5 * total * t)
        minus = (rp0[0] - 1j * rp0[1]) * decay * np.exp(-1j * gap * t)
        z = z_ss + (rp0[2] - z_ss) * np.exp(-total * t)
        out.append(M @ np.array([minus.real, -minus.imag, z]))
    return np.array(out)


def mp_lamb_shift(g, temperature, omega_c, alpha, dps=30):
    """Level shift by pole subtraction in mpmath at ``dps`` digits.

    Same split as pv_lamb_shift, PV int f(w)/(w - s) dw =
    int [f(w) - f(s)]/(w - s) dw + f(s) ln((wc - s)/s), with tanh-sinh
    quadrature split at the pole; at 30 digits the sum of the two
    integrals keeps full double precision even where one of them
    crosses zero.
    """
    import mpmath

    with mpmath.workdps(dps):
        T, wc, a = (mpmath.mpf(x) for x in (temperature, omega_c, alpha))

        def occupation(w):
            return 1 / mpmath.expm1(w / T) if temperature > 0.0 else 0

        def emission(w):
            return w**3 * (1 + occupation(w))

        def absorption(w):
            return w**3 * occupation(w)

        def pv(f, s):
            fs = f(s)
            body = mpmath.quad(lambda w: (f(w) - fs) / (w - s), [0, s, wc])
            return body + fs * mpmath.log((wc - s) / s)

        if a > 0:
            singular = -pv(emission, a)
            regular = mpmath.quad(lambda w: absorption(w) / (a + w), [0, wc])
        else:
            singular = pv(absorption, -a) if temperature > 0.0 else 0
            regular = mpmath.quad(lambda w: emission(w) / (a - w), [0, wc])
        return float(2 * g * (singular + regular))


def shifted_master_equation(jump_ops, weights, alpha_of_t, rate, shift, rho0, ts,
                            rtol=1e-10, atol=1e-12):
    """Interaction-picture GKLS states with the level shift in the generator.

    d rho/dt = -i [H_LS(t), rho] + sum_j g_j(t) (F_j rho F_j^+ -
    {F_j^+ F_j, rho}/2), with H_LS(t) = sum_j w_j shift(alpha_j(t))
    F_j^+ F_j and g_j(t) = w_j rate(alpha_j(t)), integrated as it
    stands, so DOP853 resolves the shift's precession step by step.
    """
    from scipy.integrate import solve_ivp

    F = [np.asarray(op, dtype=complex) for op in jump_ops]
    Fd = [op.conj().T for op in F]
    FdF = [d @ op for d, op in zip(Fd, F)]

    def rhs(t, y):
        rho = y.reshape(2, 2)
        alphas = alpha_of_t(t)
        H = np.zeros((2, 2), dtype=complex)
        out = np.zeros((2, 2), dtype=complex)
        for j, w in enumerate(weights):
            if w == 0.0:
                continue
            a = float(alphas[j])
            H += w * shift(a) * FdF[j]
            out += w * rate(a) * (F[j] @ rho @ Fd[j] - 0.5 * (FdF[j] @ rho + rho @ FdF[j]))
        return (out - 1j * (H @ rho - rho @ H)).ravel()

    ts = np.asarray(ts, dtype=float)
    sol = solve_ivp(rhs, (0.0, ts[-1]), np.asarray(rho0, dtype=complex).ravel(),
                    method="DOP853", t_eval=ts, rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y.T.reshape(-1, 2, 2)


def level_phases_reference(jump_ops, weights, alpha_of_t, shift, ts):
    """Level phases theta_k(t) of the level shift, by adaptive quadrature.

    theta_k' = sum_j w_j shift(alpha_j(t)) (V^+ F_j^+ F_j V)_kk, with V the
    eigenbasis of the Hermitian part of F_0, integrated over each interval
    of ``ts`` at epsrel 1e-14 and summed from 0.
    """
    from scipy.integrate import quad_vec

    F = [np.asarray(op, dtype=complex) for op in jump_ops]
    _, V = np.linalg.eigh(0.5 * (F[0] + F[0].conj().T))
    levels = [np.diag(V.conj().T @ op.conj().T @ op @ V).real for op in F]

    def rate(t):
        alphas = alpha_of_t(t)
        return sum(w * shift(float(alphas[j])) * levels[j]
                   for j, w in enumerate(weights) if w != 0.0)

    ts = np.asarray(ts, dtype=float)
    steps = [quad_vec(rate, a, b, epsabs=1e-15, epsrel=1e-14)[0]
             for a, b in zip(ts[:-1], ts[1:])]
    return np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])


def secular_min_phase(alphas, Lam):
    """Smallest |Lambda_i + Lambda_j| over the channel pairs i <= j that are
    not conjugate, |alpha_i + alpha_j| > 1e-9 max(max |alpha|, 1), one
    pair at a time; inf when every pair is conjugate."""
    scale = max(max(abs(a) for a in alphas), 1.0)
    worst = math.inf
    for i in range(len(alphas)):
        for j in range(i, len(alphas)):
            if abs(alphas[i] + alphas[j]) > 1e-9 * scale:
                worst = min(worst, abs(Lam[i] + Lam[j]))
    return worst


def per_row_trajectory(omega, epsilon, ts, states):
    """Trajectory summary rows, one state at a time.

    t, Bloch x/y/z, ground and excited populations of H(t) = omega(t) S_z
    + epsilon S_x, |tr rho - 1|, and the least eigenvalue of the
    Hermitian part.
    """
    rows = []
    for t, rho in zip(np.asarray(ts, dtype=float), states):
        r = [np.trace(rho @ (2.0 * s)).real for s in (SX, SY, SZ)]
        _, vecs = np.linalg.eigh(omega(t) * SZ + epsilon * SX)
        pops = [(vecs[:, k].conj() @ rho @ vecs[:, k]).real for k in (0, 1)]
        low = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
        rows.append((t, *r, *pops, abs(np.trace(rho) - 1.0), low))
    return np.array(rows)


def free_two_level_propagators(omega, epsilon, ts, *, rtol=1e-12, atol=1e-14):
    """Propagators U(t) of H(t) = omega(t) S_z + epsilon S_x on a time grid."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return (-1j * (omega(t) * SZ + epsilon * SX) @ y.reshape(2, 2)).ravel()

    ts = np.asarray(ts, dtype=float)
    sol = solve_ivp(rhs, (0.0, ts[-1]), ID2.ravel(), method="DOP853", t_eval=ts,
                    rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y.T.reshape(-1, 2, 2)


def field_propagators(field, ts, *, rtol=1e-13, atol=1e-15):
    """Propagators U(t) of U' = -i (k(t) . sigma / 2) U, U(0) = I, on a time
    grid, ``field`` giving the 3-vector k at a float time."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        kx, ky, kz = field(t)
        return (-1j * (kx * SX + ky * SY + kz * SZ) @ y.reshape(2, 2)).ravel()

    ts = np.asarray(ts, dtype=float)
    sol = solve_ivp(rhs, (0.0, ts[-1]), ID2.ravel(), method="DOP853", t_eval=ts,
                    rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y.T.reshape(-1, 2, 2)


def effective_frequencies(model, t: float) -> np.ndarray:
    """Per-mode phase velocities alpha_j = dLambda_j/dt of the inertial
    bookkeeping at time t.

    The instantaneous eigenvalues plus the gauge-fixed frame-transport
    correction, times the pace.  The connection G_k^H dF_k/dchi is a
    central difference of ``linalg.eigenframes`` frames at chi +- h, each
    mode taken in its closed block of the generator.
    """
    from liouvdyn.linalg import eigenframes

    fact = model.factorization()
    chi = fact.chi_of_t(t)
    pace = fact.omega_of_t(t)
    drift = fact.dchi_dtheta(t) if fact.dchi_dtheta is not None else 0.0
    h = 1e-6 * max(1.0, abs(chi))
    B = fact.B_of_chi(np.array([chi, chi + h, chi - h]))
    lam, rights, lefts = eigenframes(B, blocks=fact.blocks)
    dF = (rights[1] - rights[2]) / (2.0 * h)
    conn = np.einsum("ik,ik->k", lefts[0].conj(), dF)
    return ((lam[0] - 1j * conn * drift) * pace).real


def ho_theta_mp(omega0, chi0, a, t, dps=40):
    """Scaled time of the oscillator ramp, int_0^t ds / q(s) with q(s) =
    1/omega0 - chi0 s - a s^2 / 2, by mpmath quadrature at ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        omega0, chi0, a, t = (mpmath.mpf(x) for x in (omega0, chi0, a, t))
        value = mpmath.quad(lambda s: 1 / (1 / omega0 - chi0 * s - a * s * s / 2), [0, t])
    return float(value)


def ho_horizon_mp(omega0, chi0, a):
    """Earliest positive root of 1/omega0 - chi0 t - a t^2 / 2 (a != 0), from
    the textbook quadratic formula at 400 digits, enough to resolve the
    cancellation for any double |a|."""
    import mpmath

    with mpmath.workdps(400):
        A, B, C = -mpmath.mpf(a) / 2, -mpmath.mpf(chi0), 1 / mpmath.mpf(omega0)
        disc = B * B - 4 * A * C
        roots = [(-B + sign * mpmath.sqrt(disc)) / (2 * A) for sign in (-1, 1)] if disc >= 0 else []
        return float(min((x for x in roots if x > 0), default=mpmath.inf))


def first_positive_root_mp(A, B, C):
    """Earliest positive real root of A x^2 + B x + C = 0 (C != 0), or inf,
    from the textbook quadratic formula at 1,400 digits: the squares of
    doubles span fewer decades than that, so no cancellation survives."""
    import mpmath

    with mpmath.workdps(1400):
        A, B, C = mpmath.mpf(A), mpmath.mpf(B), mpmath.mpf(C)
        if A == 0:
            roots = [-C / B] if B != 0 else []
        else:
            disc = B * B - 4 * A * C
            roots = [(-B + sign * mpmath.sqrt(disc)) / (2 * A)
                     for sign in (-1, 1)] if disc >= 0 else []
        return min((x for x in roots if x > 0), default=mpmath.inf)


def ho_ramp_closed_form(omega0, chi0, a, t, mass=1.0):
    """Phase-space propagator M with (q, p)(t) = M (q, p)(0) on the ramp
    1/omega(s) = 1/omega0 - chi0 s - a s^2 / 2.

    Integrates q' = p / m, p' = -m omega^2 q in lab time from the two unit
    initial conditions with DOP853 at rtol 1e-13: the independent reference
    for the oscillator's closed-form exact route.
    """
    import scipy.integrate

    def rhs(s, y):
        w = 1.0 / (1.0 / omega0 - chi0 * s - 0.5 * a * s * s)
        q, p = y.reshape(2, 2)
        return np.concatenate([p / mass, -mass * w * w * q])

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, t), np.eye(2).ravel(), method="DOP853", rtol=1e-13, atol=1e-15
    )
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(2, 2)


def tls_theta_mp(epsilon, omega0, chi0, t, abar=0.0, dps=50):
    """Scaled time of the two-level ramp, the integral of Omega(s) = epsilon
    / sqrt(1 - z(s)^2) with z(s) = z0 + epsilon (chi0 s + abar s^2 / 2), by
    mpmath quadrature at ``dps`` digits.  The interval is split at the
    turning point -chi0/abar when it lies inside, so a near-tangent of z
    to +-1 sits at a panel end."""
    import mpmath

    with mpmath.workdps(dps):
        epsilon, omega0, chi0, t, abar = (
            mpmath.mpf(x) for x in (epsilon, omega0, chi0, t, abar)
        )
        z0 = omega0 / mpmath.sqrt(omega0 * omega0 + epsilon * epsilon)
        cuts = [0, t]
        if abar != 0 and 0 < -chi0 / abar < t:
            cuts.insert(1, -chi0 / abar)
        value = mpmath.quad(
            lambda s: epsilon / mpmath.sqrt(1 - (z0 + epsilon * (chi0 * s + abar * s * s / 2)) ** 2),
            cuts,
        )
    return float(value)


# ---------------------------------------------------------------------------
# geometric phases: the per-point curvature and the per-segment surface
# ---------------------------------------------------------------------------


def _plain_frame(B, gap_threshold=1e-8):
    """Eigenvalues, rights and lefts of one matrix without gauge fixing.

    Ordered by magnitude group, then descending real part, then
    descending imaginary part; the lefts are the inverse's rows.
    """
    lam, rights = np.linalg.eig(np.asarray(B, dtype=complex))
    order = np.lexsort((-lam.imag, -lam.real, np.round(np.abs(lam), 9)))
    lam, rights = lam[order], rights[:, order]
    if lam.size > 1:
        gaps = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(lam.size, k=1)]
        if gaps.min() < gap_threshold:
            raise ArithmeticError(f"eigenvalue gap {gaps.min():.3e}")
    return lam, rights, np.linalg.inv(rights).conj().T


def _affine_matrix(coupling, chi):
    """C0 + sum_k chi_k C_k at one parameter point."""
    return coupling[0] + sum(x * C for x, C in zip(chi, coupling[1:], strict=True))


def plain_frame_curvature(family, chi, *, gap_threshold=1e-8):
    """(m, 3) curvature rows of a generator family at one parameter point.

    Row n is sum_{m != n} (G_n|dB|F_m) x (G_m|dB|F_n) / (lambda_m -
    lambda_n)^2 over pairs whose coupling is not structurally zero.  The
    frame is built point by point: per Kronecker factor and combined with
    np.kron, or per closed block.  ``family`` needs ``coupling`` (C0, C1,
    ..., Cd), whose C_k are the partial derivatives, ``blocks`` and
    ``factors``.
    """
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    if family.factors is not None:
        frames = [
            _plain_frame(_affine_matrix(f.coupling, [x]), gap_threshold)
            for x, f in zip(chi, family.factors, strict=True)
        ]
        lam, rights, lefts = frames[0]
        for lam_j, rights_j, lefts_j in frames[1:]:
            lam = np.add.outer(lam, lam_j).ravel()
            rights, lefts = np.kron(rights, rights_j), np.kron(lefts, lefts_j)
    else:
        B = _affine_matrix(family.coupling, chi)
        m = B.shape[0]
        lam = np.zeros(m, dtype=complex)
        rights = np.zeros((m, m), dtype=complex)
        lefts = np.zeros((m, m), dtype=complex)
        for lo, hi in family.blocks or ((0, m),):
            lam[lo:hi], rights[lo:hi, lo:hi], lefts[lo:hi, lo:hi] = _plain_frame(
                B[lo:hi, lo:hi], gap_threshold
            )
    m = lam.size
    A = np.zeros((3, m, m), dtype=complex)
    for a, g in enumerate(family.coupling[1:]):
        A[a] = lefts.conj().T @ np.asarray(g) @ rights
    gscale = max(np.max(np.abs(A)), 1.0)
    lscale = max(np.max(np.abs(lam)), 1.0)
    mags = np.max(np.abs(A), axis=0)
    active = mags * mags.T > (1e-12 * gscale) ** 2
    np.fill_diagonal(active, False)
    gap = lam[None, :] - lam[:, None]
    if np.any(active & (np.abs(gap) < gap_threshold * lscale)):
        raise ArithmeticError(f"coupled near-degenerate modes at chi={chi}")
    weight = np.zeros((m, m), dtype=complex)
    weight[active] = 1.0 / gap[active] ** 2
    At = A.transpose(0, 2, 1)
    cross = np.array(
        [
            A[1] * At[2] - A[2] * At[1],
            A[2] * At[0] - A[0] * At[2],
            A[0] * At[1] - A[1] * At[0],
        ]
    )
    return np.einsum("cnm,nm->nc", cross, weight)


def polygon_solid_angle(points):
    """Signed solid angle at the origin of a planar convex polygon.

    ``points`` are the (N, 3) vertices in order, not repeating the first.
    The polygon is fanned from its first vertex into triangles, each
    summed by the formula of Van Oosterom and Strackee (IEEE Trans. Biomed.
    Eng. 30, 125, 1983), tan(Omega/2) = R1 . (R2 x R3) / (r1 r2 r3 +
    (R1 . R2) r3 + (R1 . R3) r2 + (R2 . R3) r1).  Positive when the
    vertices turn counterclockwise about the direction from the origin to
    the polygon.
    """
    P = np.asarray(points, dtype=float)
    R1, R2, R3 = P[0], P[1:-1], P[2:]
    r1, r2, r3 = np.linalg.norm(R1), np.linalg.norm(R2, axis=1), np.linalg.norm(R3, axis=1)
    triple = np.cross(R2, R3) @ R1
    den = r1 * r2 * r3 + (R2 @ R1) * r3 + (R3 @ R1) * r2 + np.sum(R2 * R3, axis=1) * r1
    return float(2.0 * np.sum(np.arctan2(triple, den)))


def segment_surface_phases(family, circuit):
    """Curvature flux of every mode, one curvature stack per boundary segment.

    The cone surface of ``geometric.surface_phases`` evaluated segment by
    segment: each segment's 8 Gauss-Legendre spoke nodes make one
    ``_curvatures`` stack, each midpoint is sampled on its own, and the
    flux is summed node by node from 0.0, under the package's doubling
    loop.  ``circuit`` is a closed ParameterCircuit of two or
    three parameters.
    """
    from liouvdyn.geometric import _curvatures, _refine

    def pad(v):
        out = np.zeros(3)
        out[: v.size] = v
        return out

    def evaluate(n):
        pts = circuit.points(n)
        center = pts[:-1].mean(axis=0)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        r, w = (nodes + 1.0) / 2.0, weights / 2.0
        flux = 0.0
        for i in range(n):
            mid = np.atleast_1d(np.asarray(circuit.path((i + 0.5) / n), dtype=float))
            spoke = mid - center
            patch = np.cross(pad(spoke), pad(pts[i + 1] - pts[i]))
            curv = _curvatures(family, center + r[:, None] * spoke)
            for term in (w * r)[:, None] * (curv @ patch):
                flux = flux + term
        return -flux.imag

    return _refine(evaluate, circuit.samples)


def level_line_phases(family, circuit):
    """``geometric.line_phases`` with every refinement level sampled and
    diagonalized whole, under the package's doubling loop."""
    from liouvdyn.geometric import _parts, _refine, _walk_logs

    def evaluate(n):
        pts = circuit.points(n)
        parts = _parts(family, pts[:-1] if circuit.closed else pts)
        return -_walk_logs(family, [(r, g) for _, r, g, *_ in parts], circuit.closed).imag

    return _refine(evaluate, circuit.samples)


# ---------------------------------------------------------------------------
# diagnose: the row-by-row evaluation of the validity columns
# ---------------------------------------------------------------------------


def per_row_diagnose(model, ts):
    """(rows, errors) of a ``diagnose`` run evaluated one sample at a time.

    Each row is (t, mu, upsilon) plus the closed-form upsilon for the
    oscillator.  A sample whose mu or upsilon evaluation raises gets NaN
    in every value column and the error text; a flagged closed-form
    point gets NaN in that column alone.
    """
    from liouvdyn.diagnostics import (
        adiabatic_parameter,
        ho_inertial_parameter_closed,
        inertial_parameter_at,
    )
    from liouvdyn.errors import LiouvdynError, SingularDenominator
    from liouvdyn.models import HOModel

    fact = model.factorization()
    is_ho = isinstance(model, HOModel)
    width = 4 if is_ho else 3
    rows, errors = [], []
    for t in ts:
        t = float(t)
        error = None
        try:
            row = [t, adiabatic_parameter(model, t), inertial_parameter_at(fact, t)]
            if is_ho:
                try:
                    row.append(ho_inertial_parameter_closed(t, model.protocol))
                except SingularDenominator as exc:
                    row.append(math.nan)
                    error = f"SingularDenominator: {exc}"
        except (LiouvdynError, ValueError, ArithmeticError) as exc:
            row = [t] + [math.nan] * (width - 1)
            error = f"{type(exc).__name__}: {exc}"
        rows.append(tuple(row))
        errors.append(error)
    return rows, errors


# ---------------------------------------------------------------------------
# sweep: the point-by-point evaluation of a duration sweep
# ---------------------------------------------------------------------------


def per_point_sweep(model, grid, *, omega_target=None, samples=65, rtol=1e-10,
                    atol=1e-12, phase_tol=1e-10):
    """(rows, errors) of ``fidelity_sweep`` evaluated one point at a time.

    Each point runs the whole chain alone: re-drive, parameter maxima,
    the mu domain check, the exact reference, ``propagate_inertial``,
    ``propagate_adiabatic``, reconstruction and fidelities.  Rows are
    ``SweepResult.rows()`` tuples; a point that raises gets NaN in every
    value column and the error text.
    """
    from liouvdyn.diagnostics import fidelity, max_parameters_along, one_minus_fidelity
    from liouvdyn.engine import propagate_adiabatic, propagate_inertial
    from liouvdyn.errors import DomainExceeded, LiouvdynError
    from liouvdyn.models import initial_vector, reconstruct_state

    if omega_target is None:
        omega_target = 0.5 * model.omega_start
    names = ("fidelity_inertial", "fidelity_adiabatic", "max_abs_mu", "max_upsilon",
             "neg_log10_one_minus_fidelity")
    rows, errors = [], []
    for t_f in grid:
        t_f = float(t_f)
        try:
            m = model.for_duration(t_f, omega_target)
            mu_max, ups_max = max_parameters_along(m, t_f, samples)
            if mu_max >= m.mu_limit:
                raise DomainExceeded(
                    f"max |mu| = {mu_max:.6g} reaches the exceptional point "
                    f"|mu| = {m.mu_limit:g}"
                )
            fact, v0 = m.factorization(), initial_vector(m)
            v_exact = m.exact_vector(t_f, rtol=rtol, atol=atol)
            v_inertial, _ = propagate_inertial(fact, v0, t_f, phase_tol=phase_tol)
            v_adiabatic = propagate_adiabatic(fact, v0, t_f)
            exact, inertial, adiabatic = (
                reconstruct_state(m, v, t_f) for v in (v_exact, v_inertial, v_adiabatic)
            )
            deficit = one_minus_fidelity(exact, inertial)
            values = (
                1.0 - deficit,
                fidelity(exact, adiabatic),
                mu_max,
                ups_max,
                -math.log10(deficit) if deficit > 0.0 else math.inf,
            )
            nan = [name for name, x in zip(names, values) if math.isnan(x)]
            if nan:
                raise FloatingPointError(f"{', '.join(nan)} evaluated to NaN")
            rows.append((t_f, *values))
            errors.append(None)
        except (LiouvdynError, ArithmeticError, ValueError) as exc:
            rows.append((t_f,) + (math.nan,) * 5)
            errors.append(f"{type(exc).__name__}: {exc}")
    return rows, errors


# ---------------------------------------------------------------------------
# inertial propagation: nested uniform grids, transport logs and Richardson
# ---------------------------------------------------------------------------


def grid_inertial(fact, v0, t, *, phase_tol=1e-10, n_start=64, n_max=16384):
    """(vector, dyn_phase, geo_phase) of the inertial solution at t > 0.

    Frames on nested uniform grids of [0, t] from n_start intervals are
    matched step by step with ``linalg.transport``, whose summed
    ln(G_k^H F_k) is the discrete transport phase, and the eigenvalue
    integral is Simpson's rule.  The transport sum converges at first
    order and Simpson at fourth, so Richardson extrapolation of the
    doubling sequence removes the leading terms of each; the loop stops
    once successive extrapolants agree within phase_tol.  The phases
    are in the pivot gauge of the final frame.
    """
    import scipy.integrate

    from liouvdyn.errors import NotConverged
    from liouvdyn.linalg import eigenframes, transport

    def node_data(ts):
        B = fact.B_of_chi(fact.chi_of_t(ts))
        return fact.omega_of_t(ts), eigenframes(B, blocks=fact.blocks)

    def passes():
        ts = np.linspace(0.0, t, n_start + 1)
        omegas, frames = node_data(ts)
        while True:
            lam, rights, lefts = frames
            perms, logs = transport(rights, lefts)
            lam_path = np.take_along_axis(lam, perms, axis=1)
            dyn = scipy.integrate.simpson(lam_path * omegas[:, None], x=ts, axis=0)
            c = lefts[0].conj().T @ v0.coeffs
            yield c, dyn, 1j * logs, rights[-1][:, perms[-1]]
            if 2 * (ts.size - 1) > n_max:
                return
            mids = np.arange(1, ts.size)
            ts = np.linspace(0.0, t, 2 * ts.size - 1)
            new_omegas, new_frames = node_data(ts[1::2])
            omegas = np.insert(omegas, mids, new_omegas)
            frames = tuple(
                np.insert(old, mids, new, axis=0) for old, new in zip(frames, new_frames)
            )

    history = []
    prev_est = None
    for c, dyn, geo, final_rights in passes():
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
                    out = final_rights @ (c * np.exp(-1j * dyn_est + 1j * geo_est))
                    return out, dyn_est, geo_est
            prev_est = (dyn_est, geo_est)
    raise NotConverged(f"phase integrals not stable to {phase_tol} at {n_max} nodes")
