"""Thermal-bath master equation: rates, level shift, and trajectories."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    effective_frequencies,
    free_two_level_propagators,
    gibbs_two_level,
    lamb_shift_zero_temperature,
    level_phases_reference,
    mp_lamb_shift,
    per_row_trajectory,
    optical_bloch_trajectory,
    pv_lamb_shift,
    qubit_density,
    shifted_master_equation,
    trace_distance,
)

from liouvdyn import open_quantum
from liouvdyn.engine import propagate_inertial
from liouvdyn.errors import (
    DomainExceeded,
    IntegratorFailure,
    LiouvdynError,
    NotConverged,
    PositivityViolation,
    UnphysicalState,
    UnsupportedDimension,
)
from liouvdyn.linalg import MAGNUS_MAX_STEPS
from liouvdyn.models import BlochState, HOModel, HOProtocol, TLSModel, TLSProtocol, initial_vector
from liouvdyn.open_quantum import (
    BathSpec,
    MasterEquationSpec,
    bose_occupation,
    build_master_equation,
    decay_rate,
    lamb_shift,
    mesolve,
    trajectory_rows,
    _check_states,
    _cumulative_integral,
    _dissipator,
    _level_shifts,
    _phases,
    _zero_mode_frame,
)

# gap-20 static point used throughout: epsilon = 8, omega = sqrt(400 - 64)
EPS = 8.0
W0 = math.sqrt(336.0)
GAP = 20.0


def static_model():
    return TLSModel(protocol=TLSProtocol(epsilon=EPS, omega0=W0, chi0=0.0, abar=0.0))


def energy_frame():
    H = np.array([[W0 / 2.0, EPS / 2.0], [EPS / 2.0, -W0 / 2.0]])
    _, vecs = np.linalg.eigh(H)
    return vecs  # columns: ground, excited


def quiet_evolve(*args, **kwargs):
    # short-horizon helpers would otherwise trip the secular warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return mesolve(*args, **kwargs)


class TestBathSpec:
    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            BathSpec(temperature=-1.0, coupling=1.0, cutoff=10.0)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            BathSpec(temperature=1.0, coupling=-1e-3, cutoff=10.0)

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            BathSpec(temperature=1.0, coupling=1e-3, cutoff=0.0)


class TestBoseOccupation:
    def test_zero_temperature(self):
        assert bose_occupation(3.0, 0.0) == 0.0

    def test_unit_ratio_value(self):
        assert bose_occupation(2.0, 2.0) == pytest.approx(1.0 / math.expm1(1.0), rel=1e-15)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            bose_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            bose_occupation(-1.0, 1.0)

    def test_huge_exponent_underflows_to_zero(self):
        assert bose_occupation(1e6, 1.0) == 0.0


class TestDecayRate:
    def test_zero_frequency_rate_vanishes(self):
        bath = BathSpec(temperature=5.0, coupling=1e-2, cutoff=50.0)
        assert decay_rate(bath, 0.0) == 0.0

    def test_zero_temperature_emission_is_cubic(self):
        bath = BathSpec(temperature=0.0, coupling=3e-3, cutoff=50.0)
        for a in (0.5, 2.0, 7.0):
            assert decay_rate(bath, a) == pytest.approx(3e-3 * a**3, rel=1e-15)

    def test_zero_temperature_absorption_vanishes(self):
        bath = BathSpec(temperature=0.0, coupling=3e-3, cutoff=50.0)
        for a in (0.5, 2.0, 7.0):
            assert decay_rate(bath, -a) == 0.0

    def test_detailed_balance_ratio(self):
        # (1 + N)/N = e^(alpha/T) is an algebraic identity of the
        # Bose-Einstein occupation, so the rate pair must satisfy it
        bath = BathSpec(temperature=3.0, coupling=1e-3, cutoff=50.0)
        for a in (0.25, 1.0, 4.0, 12.0):
            ratio = decay_rate(bath, a) / decay_rate(bath, -a)
            assert ratio == pytest.approx(math.exp(a / 3.0), rel=1e-10)

    def test_rates_are_nonnegative(self):
        bath = BathSpec(temperature=2.0, coupling=1e-3, cutoff=50.0)
        for a in np.linspace(-10.0, 10.0, 21):
            assert decay_rate(bath, float(a)) >= 0.0

    def test_zero_coupling(self):
        bath = BathSpec(temperature=2.0, coupling=0.0, cutoff=50.0)
        assert decay_rate(bath, 3.0) == 0.0


class TestArrayRates:
    """An array of frequencies gives each element's value."""

    # 40 / 0.05 = 800 passes the overflow guard _MAX_EXPONENT = 700
    ALPHAS = np.array([-40.0, -7.5, -1e-3, 0.0, 1e-3, 2.0, 7.5, 40.0])

    @staticmethod
    def reference_rate(temperature, a):
        # the golden-rule rate written out with math's expm1
        n = 0.0 if a == 0.0 or temperature == 0.0 or abs(a) / temperature > 700.0 \
            else 1.0 / math.expm1(abs(a) / temperature)
        return 3e-3 * abs(a) ** 3 * (1.0 + n if a > 0.0 else n)

    @pytest.mark.parametrize("temperature", [0.0, 0.05, 2.0, 30.0])
    def test_array_equals_the_per_element_values(self, temperature):
        # numpy's vectorized pow and expm1 may round the last bit
        # differently from math's, so equal to within 4 ulp; the zeros
        # (alpha = 0, absorption at T = 0, past the guard) are exact
        tol = dict(rtol=4 * np.finfo(float).eps, atol=0.0)
        bath = BathSpec(temperature=temperature, coupling=3e-3, cutoff=50.0)
        want = np.array([self.reference_rate(temperature, a) for a in self.ALPHAS.tolist()])
        got = decay_rate(bath, self.ALPHAS)
        np.testing.assert_allclose(got, want, **tol)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.array_equal(got, [decay_rate(bath, a) for a in self.ALPHAS.tolist()])
        assert np.array_equal(decay_rate(bath, self.ALPHAS.reshape(2, 4)), got.reshape(2, 4))
        positive = np.abs(self.ALPHAS[self.ALPHAS != 0.0])
        want = np.array([bose_occupation(a, temperature) for a in positive.tolist()])
        assert np.array_equal(bose_occupation(positive, temperature), want)

    def test_a_float_gives_a_float(self):
        bath = BathSpec(temperature=2.0, coupling=3e-3, cutoff=50.0)
        assert isinstance(decay_rate(bath, -1.5), float)
        assert isinstance(bose_occupation(1.5, 2.0), float)

    def test_array_rejects_what_a_float_rejects(self):
        with pytest.raises(ValueError):
            bose_occupation(np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            bose_occupation(np.array([1.0, 2.0]), -1.0)


class TestLambShift:
    def test_zero_coupling_shift_vanishes(self):
        bath = BathSpec(temperature=2.0, coupling=0.0, cutoff=50.0)
        assert lamb_shift(bath, 3.0) == 0.0

    def test_zero_frequency_closed_form(self):
        # the two occupation terms collapse to -1/w, leaving -cutoff^3/3
        # regardless of temperature
        for T in (0.0, 1.5):
            bath = BathSpec(temperature=T, coupling=1e-3, cutoff=12.0)
            assert lamb_shift(bath, 0.0) == pytest.approx(
                -2e-3 * 12.0**3 / 3.0, rel=1e-15
            )

    def test_zero_temperature_closed_form(self):
        # polynomial division of w^3/(alpha - w) integrates to the
        # logarithmic closed form of lamb_shift_zero_temperature
        bath = BathSpec(temperature=0.0, coupling=1e-3, cutoff=10.0)
        for a in (-3.0, -0.5, 0.5, 3.0, 7.5):
            want = lamb_shift_zero_temperature(1e-3, 10.0, a)
            assert lamb_shift(bath, a) == pytest.approx(want, rel=1e-12)

    def test_thermal_shift_against_pole_subtraction(self):
        # same principal value computed by subtracting the pole
        # instead of Cauchy-weight quadrature
        bath = BathSpec(temperature=1.5, coupling=1e-3, cutoff=12.0)
        for a in (-2.0, 0.7, 2.0):
            want = pv_lamb_shift(1e-3, 1.5, 12.0, a)
            assert lamb_shift(bath, a) == pytest.approx(want, rel=1e-10)

    def test_cutoff_doubling_isolates_cubic_growth(self):
        # doubling the cutoff at T = 0 changes the shift by the
        # closed-form difference, whose leading term is the cubic
        # -2g (wc2^3 - wc1^3)/3; the remainder is bounded by the lower
        # cutoff powers
        g, a, wc1, wc2 = 1e-3, 1.2, 10.0, 20.0
        diff = lamb_shift(BathSpec(0.0, g, wc2), a) - lamb_shift(
            BathSpec(0.0, g, wc1), a
        )
        closed = lamb_shift_zero_temperature(g, wc2, a) - lamb_shift_zero_temperature(
            g, wc1, a
        )
        assert diff == pytest.approx(closed, rel=1e-10)
        cubic = -2.0 * g * (wc2**3 - wc1**3) / 3.0
        subleading = 2.0 * g * (
            a * (wc2**2 - wc1**2) / 2.0
            + a**2 * (wc2 - wc1)
            + a**3 * math.log((wc2 - a) / (wc1 - a))
        )
        assert abs(diff - cubic) <= 1.0001 * subleading

    @pytest.mark.parametrize("temperature", [2.0, 10.0, 30.0])
    def test_thermal_principal_value_zero_crossing(self, temperature):
        # at T = 10 the thermal principal value int w^3 N/(w - |alpha|)
        # crosses zero near alpha = -31.63 while the sum it enters is
        # of order cutoff^3 / 3; a high-precision pole subtraction pins
        # the whole band
        bath = BathSpec(temperature=temperature, coupling=2e-3, cutoff=100.0)
        for a in np.linspace(-31.66, -31.60, 7):
            want = mp_lamb_shift(2e-3, temperature, 100.0, float(a))
            assert lamb_shift(bath, float(a)) == pytest.approx(want, rel=1e-10)

    @settings(max_examples=30)
    @given(
        temperature=st.floats(0.0, 100.0),
        alphas=st.lists(st.floats(-100.0, 100.0, exclude_min=True, exclude_max=True),
                        min_size=1, max_size=4),
    )
    # the band where adaptive Cauchy-weight quadrature gave up, alpha at the
    # thermal cut 60 T, a frequency next to the pole at 0, and no bath
    @example(temperature=0.0625, alphas=[17.0, -17.0])
    @example(temperature=1.5, alphas=[90.0, -90.0, 3.0])
    @example(temperature=10.0, alphas=[1e-9, -1e-9])
    @example(temperature=0.0, alphas=[-99.0, 0.5, 42.0])
    def test_array_evaluation_against_high_precision(self, temperature, alphas):
        # one array call over every frequency, each held to the 30-digit
        # pole subtraction
        assume(0.0 not in alphas)
        bath = BathSpec(temperature=temperature, coupling=2e-3, cutoff=100.0)
        got = _level_shifts(bath, np.array(alphas))
        want = [mp_lamb_shift(2e-3, temperature, 100.0, a) for a in alphas]
        assert got == pytest.approx(want, rel=1e-10)

    def test_frequency_beyond_cutoff_rejected(self):
        bath = BathSpec(temperature=0.0, coupling=1e-3, cutoff=10.0)
        with pytest.raises(ValueError):
            lamb_shift(bath, 10.0)
        with pytest.raises(ValueError):
            lamb_shift(bath, -11.0)
        for a in (math.nan, math.inf):
            with pytest.raises(ValueError):
                lamb_shift(bath, a)


class TestEffectiveFrequency:
    """The finite-difference oracle against the closed forms it must meet,
    before ``TestBuildMasterEquation`` holds the channel frequencies to it."""

    def test_static_frequencies_are_the_gap(self):
        got = effective_frequencies(static_model(), 0.0)
        assert got == pytest.approx([0.0, GAP, -GAP, 0.0], abs=1e-9)

    def test_constant_drive_rate_scales_the_gap(self):
        # at chi = 0.5 the mode eigenvalues are
        # +-sqrt(1 + 0.25) = +-sqrt(1.25) in units of the gap
        m = TLSModel(protocol=TLSProtocol(epsilon=EPS, omega0=W0, chi0=0.5, abar=0.0))
        got = effective_frequencies(m, 0.0)
        want = math.sqrt(1.25) * GAP
        assert got[1] == pytest.approx(want, rel=1e-12)
        assert got[2] == pytest.approx(-want, rel=1e-12)

    def test_driven_two_level_transport_term_vanishes(self):
        # the gauge-fixed frames of the Hermitian two-level generator keep
        # constant norm, so alpha reduces to eigenvalue times pace even
        # with a time-dependent rate parameter
        m = TLSModel(protocol=TLSProtocol(epsilon=2.0, omega0=2.0, chi0=0.2, abar=-0.3))
        t = 0.5
        p = m.protocol
        want = math.hypot(1.0, p.mu(t)) * p.Omega(t)
        got = effective_frequencies(m, t)
        assert got == pytest.approx([0.0, want, -want, 0.0], rel=1e-12, abs=1e-12)

    def test_matches_finite_difference_of_accumulated_phase(self):
        # alpha_j = dLambda_j/dt, checked against a central
        # difference of the propagator's own phase bookkeeping
        m = TLSModel(protocol=TLSProtocol(epsilon=2.0, omega0=2.0, chi0=0.2, abar=-0.3))
        t, h = 0.5, 1e-3
        fact = m.factorization()
        v0 = initial_vector(m)
        _, plus = propagate_inertial(fact, v0, t + h, phase_tol=1e-12)
        _, minus = propagate_inertial(fact, v0, t - h, phase_tol=1e-12)
        fd = (plus.Lambda - minus.Lambda).real / (2.0 * h)
        got = effective_frequencies(m, t)
        scale = np.max(np.abs(got))
        assert np.max(np.abs(fd - got)) / scale < 1e-6

    def test_oscillator_transport_correction(self):
        # the pivot-phase gauge contributes -i/kappa and the raw
        # frame overlap +i/(2 kappa), so the lower pair shifts by
        # -+ a/(2 kappa) while the upper block has no correction
        m = HOModel(protocol=HOProtocol(omega0=20.0, chi0=0.05, a=-5e-3))
        t = 0.4
        p = m.protocol
        mu, om = p.mu(t), p.omega(t)
        kap = math.sqrt(4.0 - mu * mu)
        want = np.array(
            [
                0.0,
                kap * om,
                -kap * om,
                kap * om / 2.0 - p.a / (2.0 * kap),
                -kap * om / 2.0 + p.a / (2.0 * kap),
                0.0,
            ]
        )
        got = effective_frequencies(m, t)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-10

    def test_domain_guard(self):
        m = TLSModel(protocol=TLSProtocol(epsilon=8.0, omega0=W0, chi0=0.5, abar=0.0))
        with pytest.raises(DomainExceeded):
            effective_frequencies(m, 1.0)


class TestBuildMasterEquation:
    def test_dipole_expansion_is_exact(self):
        spec = build_master_equation(static_model())
        sx = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        recon = sum(a * F for a, F in zip(spec.dipole_coeffs, spec.jump_ops))
        assert np.max(np.abs(recon - sx)) < 1e-12

    def test_general_dipole_expansion_is_exact(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        D = 0.5 * (raw + raw.conj().T)
        spec = build_master_equation(static_model(), dipole=D)
        recon = sum(a * F for a, F in zip(spec.dipole_coeffs, spec.jump_ops))
        assert np.max(np.abs(recon - D)) < 1e-12

    def test_static_dipole_weights(self):
        # projecting S_x on the gap-20 eigenoperators gives
        # a_0 = eps/gap^2 on the Hamiltonian mode and
        # |a_pm|^2 = omega^2/(2 gap^4) on the rotating pair
        spec = build_master_equation(static_model())
        assert spec.dipole_coeffs[0] == pytest.approx(EPS / GAP**2, rel=1e-12)
        w2 = W0**2 / (2.0 * GAP**4)
        assert abs(spec.dipole_coeffs[1]) ** 2 == pytest.approx(w2, rel=1e-12)
        assert abs(spec.dipole_coeffs[2]) ** 2 == pytest.approx(w2, rel=1e-12)
        assert spec.dipole_coeffs[3] == 0.0

    def test_positive_frequency_channel_lowers(self):
        # emission at alpha = +gap requires the jump operator to
        # be proportional to |ground><excited|, with magnitude gap/sqrt(2)
        # from the eigenvector normalization
        spec = build_master_equation(static_model())
        vecs = energy_frame()
        Fp = vecs.conj().T @ spec.jump_ops[1] @ vecs
        assert abs(Fp[0, 0]) < 1e-12 and abs(Fp[1, 1]) < 1e-12
        assert abs(Fp[1, 0]) < 1e-12
        assert abs(Fp[0, 1]) == pytest.approx(GAP / math.sqrt(2.0), rel=1e-12)

    def test_zero_mode_is_the_hamiltonian(self):
        spec = build_master_equation(static_model())
        H = W0 * np.diag([0.5, -0.5]).astype(complex)
        H[0, 1] = H[1, 0] = EPS / 2.0
        assert np.max(np.abs(spec.jump_ops[0] - H)) < 1e-12
        assert np.max(np.abs(spec.jump_ops[3] - np.eye(2))) < 1e-12

    def test_alpha_map_matches_frequencies(self):
        m = TLSModel(protocol=TLSProtocol(epsilon=2.0, omega0=2.0, chi0=0.2, abar=-0.3))
        spec = build_master_equation(m)
        got = spec.alpha_of_t(0.5)
        assert got == pytest.approx(effective_frequencies(m, 0.5), rel=1e-10, abs=1e-10)

    def test_rejects_bad_dipole(self):
        with pytest.raises(ValueError):
            build_master_equation(static_model(), dipole=np.eye(3))
        with pytest.raises(ValueError):
            build_master_equation(static_model(), dipole=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_oscillator_model(self):
        m = HOModel(protocol=HOProtocol(omega0=20.0, chi0=0.05, a=0.0))
        with pytest.raises(UnsupportedDimension):
            build_master_equation(m)

    def test_spec_is_frozen(self):
        spec = build_master_equation(static_model())
        assert isinstance(spec, MasterEquationSpec)
        with pytest.raises(AttributeError):
            spec.dipole_coeffs = ()


class TestMesolve:
    def test_zero_coupling_freezes_interaction_picture(self):
        bath = BathSpec(temperature=2.0, coupling=0.0, cutoff=100.0)
        rho0 = qubit_density([0.3, -0.2, 0.5])
        ts = np.linspace(0.0, 1.0, 5)
        states = quiet_evolve(static_model(), bath, rho0, ts, picture="interaction")
        assert np.max(np.abs(states - states[0])) < 1e-12

    def test_zero_coupling_lab_frame_is_unitary(self):
        bath = BathSpec(temperature=2.0, coupling=0.0, cutoff=100.0)
        rho0 = qubit_density([0.3, -0.2, 0.5])
        ts = np.linspace(0.0, 1.0, 5)
        states = quiet_evolve(static_model(), bath, rho0, ts)
        want = np.sort(np.linalg.eigvalsh(rho0))
        for rho in states:
            assert np.sort(np.linalg.eigvalsh(rho)) == pytest.approx(want, abs=1e-9)

    def test_matches_damped_precession_solution(self):
        # static drive reduces to the textbook damped two-level
        # trajectory of optical_bloch_trajectory
        bath = BathSpec(temperature=1.2, coupling=5e-4, cutoff=100.0)
        r0 = [0.3, -0.2, 0.5]
        ts = np.linspace(0.0, 2.0, 9)
        states = quiet_evolve(static_model(), bath, qubit_density(r0), ts)
        ref = optical_bloch_trajectory(W0, EPS, 1.2, 5e-4, r0, ts)
        pauli = [
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([[0.0, -1j], [1j, 0.0]]),
            np.array([[1.0, 0.0], [0.0, -1.0]]),
        ]
        for rho, want in zip(states, ref):
            got = [np.trace(rho @ s).real for s in pauli]
            assert got == pytest.approx(want, abs=1e-8)

    def test_relaxes_to_gibbs_state(self):
        # detailed-balance rates fix the thermal state; after 20
        # coherence times (the slowest channel, at half the total rate)
        # the distance is below 1e-6
        g, T = 2e-3, 10.0
        bath = BathSpec(temperature=T, coupling=g, cutoff=100.0)
        n = bose_occupation(GAP, T)
        total = g * GAP**3 * (1.0 + 2.0 * n) * W0**2 / (4.0 * GAP**2)
        ts = np.linspace(0.0, 40.0 / total, 41)
        states = mesolve(static_model(), bath, qubit_density([0.3, -0.2, 0.5]), ts)
        gibbs = gibbs_two_level(W0, EPS, T)
        assert trace_distance(states[-1], gibbs) < 1e-6
        for t, rho in zip(ts, states):
            assert abs(np.trace(rho) - 1.0) < 1e-9 * (1.0 + t)
            assert np.linalg.eigvalsh(rho).min() > -1e-7

    def test_zero_temperature_decay_is_monotone_exponential(self):
        # from the excited state, the population follows
        # e^(-Gamma t) with Gamma = g gap omega^2 (1 + 0)/4
        bath = BathSpec(temperature=0.0, coupling=1e-3, cutoff=100.0)
        vecs = energy_frame()
        excited = np.outer(vecs[:, 1], vecs[:, 1].conj())
        ts = np.linspace(0.0, 3.0, 31)
        states = quiet_evolve(static_model(), bath, excited, ts)
        pe = np.array([(vecs[:, 1].conj() @ rho @ vecs[:, 1]).real for rho in states])
        assert np.all(np.diff(pe) < 0.0)
        gamma = 1e-3 * GAP * W0**2 / 4.0
        assert pe == pytest.approx(np.exp(-gamma * ts), rel=1e-8)

    def test_slow_drive_converges_to_static_trajectory(self):
        # the trajectory deviation shrinks linearly in the drive
        # rate; measured slope 1.04 on this ladder
        bath = BathSpec(temperature=2.0, coupling=1e-4, cutoff=100.0)
        rho0 = qubit_density([0.3, -0.2, 0.5])
        ts = np.linspace(0.0, 0.4, 17)
        base = quiet_evolve(static_model(), bath, rho0, ts)
        chis = [4e-3, 2e-3, 1e-3, 5e-4]
        dists = []
        for chi0 in chis:
            m = TLSModel(protocol=TLSProtocol(epsilon=EPS, omega0=W0, chi0=chi0, abar=0.0))
            st = quiet_evolve(m, bath, rho0, ts)
            dists.append(max(trace_distance(a, b) for a, b in zip(st, base)))
        slope = np.polyfit(np.log(chis), np.log(dists), 1)[0]
        assert 1.0 <= slope <= 1.2

    def test_level_shift_toggle_shifts_the_precession(self):
        # the shift Hamiltonian moves the gap by
        # (gap^2/2) |a|^2 (S(+gap) - S(-gap)), advancing the energy-basis
        # coherence phase by that amount times t, without damping it
        bath = BathSpec(temperature=0.0, coupling=1e-5, cutoff=100.0)
        rho0 = qubit_density([0.3, -0.2, 0.5])
        ts = np.array([0.0, 0.1])
        off = quiet_evolve(static_model(), bath, rho0, ts, picture="interaction")
        on = quiet_evolve(
            static_model(), bath, rho0, ts, picture="interaction", lamb_shift_enabled=True
        )
        vecs = energy_frame()
        lower = np.outer(vecs[:, 0], vecs[:, 1].conj())
        c_off = np.trace(lower.conj().T @ off[-1])
        c_on = np.trace(lower.conj().T @ on[-1])
        w2 = W0**2 / (2.0 * GAP**4)
        delta = (GAP**2 / 2.0) * w2 * (lamb_shift(bath, GAP) - lamb_shift(bath, -GAP))
        assert np.angle(c_on / c_off) == pytest.approx(delta * 0.1, rel=1e-9)
        assert abs(c_on) / abs(c_off) == pytest.approx(1.0, abs=1e-9)

    def test_short_horizon_warns_about_secular_truncation(self):
        bath = BathSpec(temperature=2.0, coupling=1e-4, cutoff=100.0)
        rho0 = qubit_density([0.3, -0.2, 0.5])
        with pytest.warns(UserWarning, match="secular"):
            mesolve(static_model(), bath, rho0, np.linspace(0.0, 0.05, 3))

    def test_long_horizon_is_silent(self):
        bath = BathSpec(temperature=2.0, coupling=1e-4, cutoff=100.0)
        rho0 = qubit_density([0.3, -0.2, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            mesolve(static_model(), bath, rho0, np.linspace(0.0, 2.0, 5))

    def test_accepts_bloch_state_input(self):
        bath = BathSpec(temperature=2.0, coupling=1e-4, cutoff=100.0)
        ts = np.linspace(0.0, 0.5, 3)
        a = quiet_evolve(static_model(), bath, BlochState(np.array([0.3, -0.2, 0.5])), ts)
        b = quiet_evolve(static_model(), bath, qubit_density([0.3, -0.2, 0.5]), ts)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_single_time_grid_returns_initial_state(self):
        bath = BathSpec(temperature=2.0, coupling=1e-4, cutoff=100.0)
        rho0 = qubit_density([0.3, -0.2, 0.5])
        states = mesolve(static_model(), bath, rho0, [0.0])
        assert states.shape == (1, 2, 2)
        assert np.max(np.abs(states[0] - rho0)) < 1e-15

    def test_pictures_share_the_spectrum(self):
        bath = BathSpec(temperature=1.0, coupling=1e-3, cutoff=100.0)
        rho0 = qubit_density([0.3, -0.2, 0.5])
        ts = np.linspace(0.0, 1.0, 5)
        lab = quiet_evolve(static_model(), bath, rho0, ts)
        rot = quiet_evolve(static_model(), bath, rho0, ts, picture="interaction")
        # bounded by the unitarity drift allowance of the free propagator
        for a, b in zip(lab, rot):
            assert np.linalg.eigvalsh(a) == pytest.approx(np.linalg.eigvalsh(b), abs=1e-9)

    def test_grid_validation(self):
        bath = BathSpec(temperature=1.0, coupling=1e-3, cutoff=100.0)
        rho0 = qubit_density([0.0, 0.0, 0.5])
        m = static_model()
        with pytest.raises(ValueError):
            mesolve(m, bath, rho0, [0.5, 1.0])
        with pytest.raises(ValueError):
            mesolve(m, bath, rho0, [0.0, 0.4, 0.2])
        with pytest.raises(ValueError):
            mesolve(m, bath, rho0, [])
        with pytest.raises(ValueError):
            quiet_evolve(m, bath, rho0, [0.0, 0.1], picture="heisenberg")

    def test_domain_guard(self):
        m = TLSModel(protocol=TLSProtocol(epsilon=EPS, omega0=W0, chi0=0.5, abar=0.0))
        bath = BathSpec(temperature=1.0, coupling=1e-3, cutoff=100.0)
        with pytest.raises(DomainExceeded):
            quiet_evolve(m, bath, qubit_density([0.0, 0.0, 0.5]), [0.0, 1.0])

    def test_rejects_unphysical_initial_state(self):
        bath = BathSpec(temperature=1.0, coupling=1e-3, cutoff=100.0)
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(PositivityViolation):
            quiet_evolve(static_model(), bath, bad, [0.0, 0.1])
        with pytest.raises(IntegratorFailure):
            quiet_evolve(static_model(), bath, np.diag([0.6, 0.5]), [0.0, 0.1])

    def test_rejects_oscillator_model(self):
        m = HOModel(protocol=HOProtocol(omega0=20.0, chi0=0.05, a=0.0))
        bath = BathSpec(temperature=1.0, coupling=1e-3, cutoff=100.0)
        with pytest.raises(UnsupportedDimension):
            quiet_evolve(m, bath, qubit_density([0.0, 0.0, 0.5]), [0.0, 0.1])


class TestRateEquations:
    """The population and coherence equations against the GKLS equation."""

    @settings(max_examples=25)
    @given(
        chi0=st.just(0.0) | st.floats(-0.01, 0.01),
        abar=st.just(0.0) | st.floats(-3e-3, 3e-3),
        temperature=st.floats(0.0, 20.0),
        r=st.tuples(*[st.floats(-0.55, 0.55)] * 3),
        t_final=st.floats(0.05, 2.0),
        points=st.sampled_from([2, 11, 101]),
    )
    def test_matches_a_tight_solve_of_the_master_equation(
        self, chi0, abar, temperature, r, t_final, points
    ):
        m = open_default_model(chi0, abar)
        assume(m.protocol.t_max > t_final)
        bath = BathSpec(temperature=temperature, coupling=2e-3, cutoff=100.0)
        spec = build_master_equation(m)
        ts = np.linspace(0.0, t_final, points)
        want = shifted_master_equation(
            spec.jump_ops, [abs(a) ** 2 for a in spec.dipole_coeffs], spec.alpha_of_t,
            lambda a: decay_rate(bath, a), lambda a: 0.0, qubit_density(r), ts,
            rtol=1e-13, atol=1e-15,
        )
        got = quiet_evolve(m, bath, qubit_density(r), ts, picture="interaction")
        assert np.max(np.abs(got - want)) <= 1e-11

    @pytest.mark.parametrize("t_final", [1e4, 1e8])
    def test_static_long_horizon_is_the_closed_form(self, t_final):
        # at 1e8 the decay factor of every late grid interval underflows;
        # the excited population still follows p_eq + (p_0 - p_eq)
        # e^(-Gamma t), from the first relaxation times to the thermal state
        g, T = 2e-3, 10.0
        bath = BathSpec(temperature=T, coupling=g, cutoff=100.0)
        total = g * GAP**3 * (1.0 + 2.0 * bose_occupation(GAP, T)) * W0**2 / (4.0 * GAP**2)
        excited = energy_frame()[:, 1]
        gibbs = gibbs_two_level(W0, EPS, T)
        rho0 = qubit_density([0.3, -0.2, 0.5])
        p_eq, p0 = ((excited.conj() @ rho @ excited).real for rho in (gibbs, rho0))
        ts = np.concatenate([[0.0], np.geomspace(1e-3, t_final, 60)])
        start = time.perf_counter()
        states = mesolve(static_model(), bath, rho0, ts)
        assert time.perf_counter() - start < 1.0
        got = np.einsum("i,nij,j->n", excited.conj(), states, excited).real
        assert np.max(np.abs(got - (p_eq + (p0 - p_eq) * np.exp(-total * ts)))) < 1e-13
        assert trace_distance(states[-1], gibbs) < 1e-13
        assert np.linalg.eigvalsh(states[-1]).min() > 0.1  # mixed, not pure

    def test_panel_cap_raises_not_converged(self):
        # a rate that switches a thousand times cannot converge at 1e-10
        def rates(t):
            ones = np.ones_like(t)
            return np.column_stack([(np.sin(1e3 * t) > 0.0) * ones, 2.0 * ones, ones, 0.0 * t])

        with pytest.raises(NotConverged, match="panel levels"):
            _dissipator(qubit_density([0.3, -0.2, 0.5]), np.array([0.0, 1.0]), rates,
                        rtol=1e-10, atol=1e-12)


class TestStateChecks:
    def test_flags_negative_eigenvalue(self):
        with pytest.raises(PositivityViolation):
            _check_states(np.diag([1.05, -0.05])[None] + 0j, [0.0], "test")

    def test_flags_trace_drift(self):
        with pytest.raises(IntegratorFailure):
            _check_states(np.diag([0.6, 0.5])[None] + 0j, [0.0], "test")

    def test_flags_hermiticity_drift(self):
        rho = np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex)
        with pytest.raises(IntegratorFailure):
            _check_states(rho[None], [0.0], "test")

    def test_flags_nan_state(self):
        with pytest.raises(IntegratorFailure):
            _check_states(np.full((2, 2, 2), np.nan, dtype=complex), [0.0, 1.0], "test")

    def test_stack_reports_the_first_failing_state(self):
        good = np.diag([0.6, 0.4]).astype(complex)
        negative = np.diag([1.05, -0.05]).astype(complex)
        drifted = np.diag([0.6, 0.5]).astype(complex)
        _check_states(np.stack([good, good]), [0.0, 1.0], "test")
        with pytest.raises(PositivityViolation, match="at t=1.0 has eigenvalue"):
            _check_states(np.stack([good, negative, drifted]), [0.0, 1.0, 2.0], "test")
        with pytest.raises(IntegratorFailure, match="at t=1.0 drifted"):
            _check_states(np.stack([good, drifted, negative]), [0.0, 1.0, 2.0], "test")


class TestCumulativeIntegral:
    TOLS = dict(rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("degree", range(open_quantum._CHEB_N0 + 1))
    def test_exact_on_polynomials_below_the_node_count(self, degree):
        coeffs = np.random.default_rng(degree).normal(size=(degree + 1, 2))
        ts = np.linspace(0.0, 1.7, 23)
        got = _cumulative_integral(
            lambda t: np.polynomial.polynomial.polyval(t, coeffs).T, 1.7, ts, **self.TOLS
        )
        anti = np.polynomial.polynomial.polyint(coeffs)
        want = np.polynomial.polynomial.polyval(ts, anti).T
        assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "f, F, t_end",
        [
            (lambda t: np.cos(3.0 * t), lambda t: np.sin(3.0 * t) / 3.0, 2.0),
            (lambda t: np.exp(-t), lambda t: 1.0 - np.exp(-t), 4.0),
            (lambda t: 1.0 / (1.0 + t * t), np.arctan, 3.0),
            (lambda t: 20.0 / np.sqrt(1.0 - (0.9 * t / 1.1) ** 2),
             lambda t: 20.0 * 1.1 / 0.9 * np.arcsin(0.9 * t / 1.1), 1.0),
        ],
        ids=["cos", "exp", "lorentzian", "horizon"],
    )
    def test_smooth_integrals(self, f, F, t_end):
        ts = np.linspace(0.0, t_end, 101)
        got = _cumulative_integral(lambda t: f(t)[:, None], t_end, ts, **self.TOLS)[:, 0]
        assert np.max(np.abs(got - F(ts))) <= 1e-13 * max(1.0, np.max(np.abs(F(ts))))


class TestTrajectoryRows:
    def test_matches_the_per_row_summary(self):
        m = open_default_model(0.008, 0.002)
        ts = np.linspace(0.0, 0.5, 7)
        states = quiet_evolve(m, DEFAULT_BATH, DEFAULT_RHO0, ts, lamb_shift_enabled=True)
        want = per_row_trajectory(m.protocol.omega, m.protocol.epsilon, ts, states)
        assert np.max(np.abs(np.array(trajectory_rows(m, ts, states)) - want)) < 1e-14

    def test_columns_are_consistent(self):
        bath = BathSpec(temperature=1.2, coupling=5e-4, cutoff=100.0)
        m = static_model()
        ts = np.linspace(0.0, 1.0, 5)
        states = quiet_evolve(m, bath, qubit_density([0.3, -0.2, 0.5]), ts)
        rows = trajectory_rows(m, ts, states)
        assert len(rows) == 5 and all(len(r) == 8 for r in rows)
        for (t, rx, ry, rz, pg, pe, tdev, low), rho in zip(rows, states):
            assert pg + pe == pytest.approx(1.0, abs=1e-9)
            assert tdev < 1e-9
            assert low > -1e-7
            assert rz == pytest.approx(np.trace(rho @ np.diag([1.0, -1.0])).real, abs=1e-12)
        vec = np.array([rows[0][1], rows[0][2], rows[0][3]])
        assert vec == pytest.approx([0.3, -0.2, 0.5], abs=1e-12)


DEFAULT_BATH = BathSpec(temperature=10.0, coupling=2e-3, cutoff=100.0)
DEFAULT_RHO0 = qubit_density([0.3, -0.2, 0.5])


def open_default_model(chi0=0.0, abar=0.0):
    return TLSModel(protocol=TLSProtocol(epsilon=8.0, omega0=15.0, chi0=chi0, abar=abar))


def zero_mode_basis(model):
    # eigenbasis of the Hermitian zero-mode jump operator
    return np.linalg.eigh(build_master_equation(model).jump_ops[0])[1]


@pytest.fixture(
    scope="class", params=[(0.0, 0.0, 1.0), (0.008, 0.002, 0.5)], ids=["static", "driven"]
)
def shifted_reference(request):
    """Model, grid and states with the shift inside the generator, both pictures."""
    chi0, abar, t_final = request.param
    m = open_default_model(chi0, abar)
    spec = build_master_equation(m)
    ts = np.linspace(0.0, t_final, 11)
    rot = shifted_master_equation(
        spec.jump_ops,
        [abs(a) ** 2 for a in spec.dipole_coeffs],
        spec.alpha_of_t,
        lambda a: decay_rate(DEFAULT_BATH, a),
        lambda a: lamb_shift(DEFAULT_BATH, a),
        DEFAULT_RHO0,
        ts,
    )
    U = free_two_level_propagators(m.protocol.omega, m.protocol.epsilon, ts)
    lab = U @ rot @ U.conj().transpose(0, 2, 1)
    return m, ts, {"interaction": rot, "schrodinger": lab}


class TestLevelShiftRotation:
    @pytest.mark.parametrize("picture", ["interaction", "schrodinger"])
    def test_matches_shift_inside_the_generator(self, shifted_reference, picture):
        m, ts, want = shifted_reference
        got = quiet_evolve(
            m, DEFAULT_BATH, DEFAULT_RHO0, ts, lamb_shift_enabled=True, picture=picture
        )
        assert np.max(np.abs(got - want[picture])) < 1e-9

    @given(
        chi0=st.floats(-0.01, 0.01),
        abar=st.floats(-3e-3, 3e-3),
        temperature=st.floats(0.0, 20.0),
        r=st.tuples(*[st.floats(-0.55, 0.55)] * 3),
        t_final=st.floats(0.05, 0.5),
    )
    def test_shift_leaves_zero_mode_populations(self, chi0, abar, temperature, r, t_final):
        m = open_default_model(chi0, abar)
        bath = BathSpec(temperature=temperature, coupling=2e-3, cutoff=100.0)
        ts = np.linspace(0.0, t_final, 5)
        V = zero_mode_basis(m)
        pops = []
        for enabled in (False, True):
            states = quiet_evolve(
                m, bath, qubit_density(r), ts, lamb_shift_enabled=enabled,
                picture="interaction",
            )
            pops.append(np.einsum("ik,nij,jk->nk", V.conj(), states, V).real)
        assert np.max(np.abs(pops[1] - pops[0])) < 1e-10

    @pytest.mark.parametrize(
        "crafted",
        [
            # one entry per row and F^+F = 1, yet its two entries pick up
            # opposite phases under the level-shift rotation
            np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            # a transition with a diagonal admixture: F^+F is not diagonal
            np.array([[0.2, 1.0], [0.0, 0.0]], dtype=complex),
        ],
        ids=["flip", "admixture"],
    )
    def test_guard_rejects_non_covariant_jump_operator(self, monkeypatch, crafted):
        m = static_model()
        spec = build_master_equation(m)
        V = zero_mode_basis(m)
        ops = list(spec.jump_ops)
        ops[1] = V @ crafted @ V.conj().T

        def crafted_spec(model, dipole=None):
            return MasterEquationSpec(tuple(ops), spec.dipole_coeffs, spec.alpha_of_t)

        monkeypatch.setattr(open_quantum, "build_master_equation", crafted_spec)
        bath = BathSpec(temperature=2.0, coupling=1e-4, cutoff=100.0)
        # the split into a population and a coherence needs the same
        # structure, so the run fails with and without the shift
        for enabled in (False, True):
            with pytest.raises(LiouvdynError, match="jump operator 1"):
                quiet_evolve(m, bath, DEFAULT_RHO0, [0.0, 0.1], lamb_shift_enabled=enabled)

    def test_default_static_run_counts_level_shifts(self, monkeypatch):
        # one array evaluation per Chebyshev level, over its new nodes and
        # every channel; the scalar view lamb_shift is not on the path
        shapes = []
        real = open_quantum._level_shifts

        def counted(bath, alphas):
            shapes.append(np.shape(alphas))
            return real(bath, alphas)

        monkeypatch.setattr(open_quantum, "_level_shifts", counted)
        monkeypatch.setattr(open_quantum, "lamb_shift", None)
        mesolve(
            open_default_model(), DEFAULT_BATH, DEFAULT_RHO0, np.linspace(0.0, 2.0, 101),
            lamb_shift_enabled=True,
        )
        n0 = open_quantum._CHEB_N0
        assert shapes == [(n0 + 1, 4), (n0, 4)]

    @pytest.mark.parametrize(
        "solve, message",
        [
            ("rates", "master-equation rates are not finite"),
            ("magnus", "lost unitarity"),
        ],
        ids=["master-equation", "free-propagator"],
    )
    def test_integrator_guards_fire(self, monkeypatch, solve, message):
        # spoil one step of the run: one dissipative rate of the master
        # equation is NaN, or one Magnus step of the free propagator is no
        # longer unitary (both levels carry the same spoiled first step, so
        # they still agree).  The drive is not static, so the free
        # propagator is a Magnus product.
        if solve == "rates":
            real = open_quantum.decay_rate

            def spoiled(bath, alpha):
                rates = real(bath, alpha)
                rates[-1] = np.nan
                return rates

            monkeypatch.setattr(open_quantum, "decay_rate", spoiled)
        else:
            real = open_quantum._su2

            def spoiled(w):
                U = real(w)
                U[0] *= 1.01
                return U

            monkeypatch.setattr(open_quantum, "_su2", spoiled)
        # the short horizon also draws the secular-truncation warning
        with (
            pytest.warns(UserWarning, match="secular truncation"),
            pytest.raises(IntegratorFailure, match=message),
        ):
            mesolve(
                open_default_model(0.008, 0.002), DEFAULT_BATH, DEFAULT_RHO0,
                np.linspace(0.0, 0.5, 5), lamb_shift_enabled=True,
            )

    def test_static_propagator_guard_fires(self, monkeypatch):
        # a static drive takes its free propagator from one _su2 call
        real = open_quantum._su2
        monkeypatch.setattr(open_quantum, "_su2", lambda w: 1.01 * real(w))
        with pytest.raises(IntegratorFailure, match="lost unitarity"):
            mesolve(
                open_default_model(), DEFAULT_BATH, DEFAULT_RHO0, np.linspace(0.0, 2.0, 5),
                lamb_shift_enabled=True,
            )

    def test_static_propagator_guard_sees_nan(self, monkeypatch):
        real = open_quantum._su2
        monkeypatch.setattr(open_quantum, "_su2", lambda w: np.nan * real(w))
        with pytest.raises(IntegratorFailure, match="lost unitarity"):
            mesolve(
                open_default_model(), DEFAULT_BATH, DEFAULT_RHO0, np.linspace(0.0, 2.0, 5),
            )

    def test_node_cap_raises_not_converged(self, monkeypatch):
        # the cap stops the level phases before two node levels can agree
        monkeypatch.setattr(open_quantum, "_CHEB_MAX_N", open_quantum._CHEB_N0)
        with pytest.raises(NotConverged, match="Chebyshev points"):
            mesolve(
                open_default_model(0.008, 0.002), DEFAULT_BATH, DEFAULT_RHO0,
                np.linspace(0.0, 0.5, 5), lamb_shift_enabled=True,
            )

    @settings(max_examples=15)
    @given(
        chi0=st.floats(-0.01, 0.01),
        abar=st.floats(-3e-3, 3e-3),
        temperature=st.floats(0.0, 20.0),
        t_final=st.floats(0.05, 0.8),
    )
    def test_level_phases_match_quadrature_of_the_rate(self, chi0, abar, temperature, t_final):
        m = open_default_model(chi0, abar)
        bath = BathSpec(temperature=temperature, coupling=2e-3, cutoff=100.0)
        spec = build_master_equation(m)
        weights = np.array([abs(a) ** 2 for a in spec.dipole_coeffs])
        _, levels, _ = _zero_mode_frame(spec.jump_ops, weights)
        ts = np.linspace(0.0, t_final, 5)
        _, theta = _phases(spec, bath, ts, weights, levels, 1e-10, 1e-12)
        want = level_phases_reference(
            spec.jump_ops, weights, spec.alpha_of_t, lambda a: lamb_shift(bath, a), ts
        )
        assert np.max(np.abs(theta - want)) < 1e-11

    def test_driven_shift_calls_do_not_depend_on_points(self, monkeypatch):
        # the frequencies evaluated are the Chebyshev nodes' alone
        sizes = []
        real = open_quantum._level_shifts

        def counted(bath, alphas):
            sizes.append(np.size(alphas))
            return real(bath, alphas)

        monkeypatch.setattr(open_quantum, "_level_shifts", counted)
        counts = []
        for points in (11, 1001):
            sizes.clear()
            quiet_evolve(
                open_default_model(0.008, 0.002), DEFAULT_BATH, DEFAULT_RHO0,
                np.linspace(0.0, 0.5, points), lamb_shift_enabled=True,
            )
            counts.append(sum(sizes))
        assert counts[0] == counts[1] > 0


class TestDrivenFreePropagator:
    """The driven free propagator's Magnus product against tight DOP853 solves."""

    @settings(max_examples=25)
    @given(
        chi0=st.floats(-0.01, 0.01),
        abar=st.floats(-3e-3, 3e-3),
        t_final=st.floats(0.05, 2.0),
        points=st.sampled_from([2, 11, 101]),
    )
    def test_matches_a_tight_ode_solve(self, chi0, abar, t_final, points):
        p = open_default_model(chi0, abar).protocol
        assume(p.t_max > t_final and not p.static)
        ts = np.linspace(0.0, t_final, points)
        want = free_two_level_propagators(p.omega, p.epsilon, ts, rtol=1e-13, atol=1e-15)
        got = open_quantum._driven_propagators(p, ts, rtol=1e-10, atol=1e-12)
        assert got.shape == (points, 2, 2)
        assert np.array_equal(got[0], np.eye(2))
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_unreachable_tolerance_raises_not_converged(self):
        # no level can meet the tolerance, so the doubling stops at the step cap
        p = open_default_model(0.008, 0.002).protocol
        start = time.perf_counter()
        with pytest.raises(NotConverged, match=f"within {MAGNUS_MAX_STEPS} steps"):
            open_quantum._driven_propagators(p, np.linspace(0.0, 0.5, 101), rtol=1e-300,
                                             atol=1e-300)
        assert time.perf_counter() - start < 1.0

    def test_step_cap_keeps_two_steps_per_interval(self):
        # past MAGNUS_MAX_STEPS / 2 intervals the cap is two steps per interval
        p = open_default_model(0.008, 0.002).protocol
        n = MAGNUS_MAX_STEPS
        assert open_quantum.magnus_levels(p, np.linspace(0.0, 0.5, n + 1)) == (2 * n, [1, 2])
