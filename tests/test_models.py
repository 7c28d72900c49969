import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liouvdyn.engine import (
    LiouvilleVector,
    propagate_exact,
    propagate_inertial,
)
from liouvdyn import linalg, models
from liouvdyn.errors import DomainExceeded, IntegratorFailure, NotConverged, UnphysicalState
from liouvdyn.linalg import bi_eigendecompose
from liouvdyn.models import (
    HO_FAMILY,
    TWO_SPIN_LOCAL_FAMILY,
    TWO_SPIN_NONLOCAL_FAMILY,
    BlochState,
    GaussianState,
    HOModel,
    HOProtocol,
    TLSModel,
    TLSProtocol,
    ho_generator,
    initial_vector,
    reconstruct_state,
    tls_generator,
    tls_generator_embedded,
    two_spin_generators,
)

import oracles


def deriv4(f, x, h):
    """Fourth-order central finite difference."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


class TestGenerators:
    def test_ho_block_structure(self):
        B = ho_generator(0.7)
        assert B.shape == (6, 6)
        assert np.all(B[:3, 3:] == 0) and np.all(B[3:, :3] == 0)
        assert np.all(B[5, :] == 0) and np.all(B[:, 5] == 0)

    def test_ho_eigenvalues_chi0(self):
        B = ho_generator(0.0)
        upper = np.sort(np.linalg.eigvals(B[:3, :3]).real)
        lower = np.sort(np.linalg.eigvals(B[3:5, 3:5]).real)
        assert np.allclose(upper, [-2.0, 0.0, 2.0], atol=1e-12)
        assert np.allclose(lower, [-1.0, 1.0], atol=1e-12)

    def test_ho_eigenvalues_chi1(self):
        B = ho_generator(1.0)
        kappa = math.sqrt(3.0)
        upper = np.sort(np.linalg.eigvals(B[:3, :3]).real)
        lower = np.sort(np.linalg.eigvals(B[3:5, 3:5]).real)
        assert np.allclose(upper, [-kappa, 0.0, kappa], atol=1e-12)
        assert np.allclose(lower, [-kappa / 2, kappa / 2], atol=1e-12)

    def test_tls_eigenvalues(self):
        for chi, gap in ((0.0, 1.0), (1.0, math.sqrt(2.0))):
            lams = np.sort(np.linalg.eigvals(tls_generator(chi)).real)
            assert np.allclose(lams, [-gap, 0.0, gap], atol=1e-12)

    def test_tls_traceless(self):
        for chi in (-1.3, 0.0, 0.4, 2.7):
            assert abs(np.trace(tls_generator(chi))) == 0.0

    def test_tls_embedding(self):
        B = tls_generator_embedded(0.3)
        assert B.shape == (4, 4)
        assert np.all(B[3, :] == 0) and np.all(B[:, 3] == 0)
        assert np.array_equal(B[:3, :3], tls_generator(0.3))

    def test_two_spin_local_block_diagonal(self):
        B_l, _ = two_spin_generators(0.4, -0.9)
        assert np.all(B_l[:3, 3:] == 0) and np.all(B_l[3:, :3] == 0)
        assert np.array_equal(B_l[:3, :3], tls_generator(0.4))
        assert np.array_equal(B_l[3:, 3:], tls_generator(-0.9))

    def test_two_spin_local_eigenvalues_chi0(self):
        B_l, _ = two_spin_generators(0.0, 0.0)
        lams = np.sort(np.linalg.eigvals(B_l).real)
        assert np.allclose(lams, [-1, -1, 0, 0, 1, 1], atol=1e-12)

    def test_cross_generator_couples_both_spins(self):
        _, B_nl = two_spin_generators(0.3, 0.0)
        frame = bi_eigendecompose(B_nl)
        # entry 3a+b mixes first-spin index a and second-spin index b;
        # non-separability shows as an eigenvector weighing several a and b
        found = False
        for k in range(9):
            F = np.abs(frame.right(k).reshape(3, 3))
            if (F.sum(axis=1) > 1e-3).sum() > 1 and (F.sum(axis=0) > 1e-3).sum() > 1:
                found = True
        assert found


class TestFactorizationConsistency:
    def test_ho_matches_direct_heisenberg_generator(self):
        p = HOProtocol(omega0=20.0, chi0=-0.05, a=-5e-3)
        rng = np.random.default_rng(11)
        for t in rng.uniform(0.0, 2.0, 100):
            M = oracles.ho_direct_generator(t, p.omega, p.omega_dot, 1.0, p.omega0)
            assert np.max(np.abs(M - p.omega(t) * ho_generator(p.mu(t)))) < 1e-12

    def test_tls_matches_direct_heisenberg_generator(self):
        p = TLSProtocol(epsilon=8.0, omega0=math.sqrt(336.0), chi0=-0.03, abar=2e-3)
        rng = np.random.default_rng(12)
        for t in rng.uniform(0.0, 1.5, 100):
            M = oracles.tls_direct_generator(t, p.omega, p.omega_dot, p.epsilon)
            assert (
                np.max(np.abs(M - p.Omega(t) * tls_generator_embedded(p.mu(t))))
                < 1e-12
            )

    def test_two_spin_matches_direct_heisenberg_generators(self):
        Om, c1, c2, a0 = 20.0, 0.3, 0.12, (0.2, -0.4)
        B_l, B_nl = two_spin_generators(c1, c2)
        rng = np.random.default_rng(13)
        for t in rng.uniform(0.0, 1.0, 100):
            M_l, M_nl = oracles.two_spin_direct_generators(t, Om, c1, c2, a0)
            assert np.max(np.abs(M_l - Om * B_l)) < 1e-12
            assert np.max(np.abs(M_nl - Om * B_nl)) < 1e-12

    def test_two_spin_partials_match_direct_heisenberg_differences(self):
        # both families are affine in chi, so a unit step of chi_k in the
        # direct generators, over Omega, is the partial C_k
        Om, t = 20.0, 0.37
        base = oracles.two_spin_direct_generators(t, Om, 0.0, 0.0)
        for k, step in ((1, (1.0, 0.0)), (2, (0.0, 1.0))):
            moved = oracles.two_spin_direct_generators(t, Om, *step)
            for fam, M, M0 in zip((TWO_SPIN_LOCAL_FAMILY, TWO_SPIN_NONLOCAL_FAMILY), moved, base):
                assert np.max(np.abs((M - M0) / Om - fam.coupling[k])) < 1e-12


class TestHOProtocol:
    def test_initial_frequency(self):
        p = HOProtocol(omega0=20.0, chi0=-0.05, a=-5e-3)
        assert p.omega(0.0) == 20.0

    def test_known_hyperbolic_ramp(self):
        # a=0, chi0=-0.05, omega0=20 collapses to omega(t) = 20/(1+t)
        p = HOProtocol(omega0=20.0, chi0=-0.05, a=0.0)
        for t in (0.0, 0.5, 1.0, 3.0):
            assert abs(p.omega(t) - 20.0 / (1.0 + t)) < 1e-12
            assert abs(p.mu(t) + 0.05) < 1e-15

    def test_rate_parameter_is_linear_in_time(self):
        p = HOProtocol(omega0=20.0, chi0=-0.04, a=3e-3)
        for t in (0.0, 0.3, 1.1, 2.0):
            assert p.mu(t) == -0.04 + 3e-3 * t

    def test_rate_parameter_matches_frequency_derivative(self):
        p = HOProtocol(omega0=20.0, chi0=-0.04, a=3e-3)
        for t in (0.2, 0.8, 1.7):
            wd = deriv4(p.omega, t, 1e-4)
            assert abs(wd / p.omega(t) ** 2 - p.mu(t)) < 1e-9
            assert abs(wd - p.omega_dot(t)) < 1e-6 * abs(wd)

    def test_second_derivative(self):
        p = HOProtocol(omega0=20.0, chi0=-0.04, a=3e-3)
        for t in (0.2, 0.8, 1.7):
            wdd = deriv4(p.omega_dot, t, 1e-4)
            assert abs(wdd - p.omega_ddot(t)) < 1e-5 * max(1.0, abs(wdd))

    @pytest.mark.parametrize(
        "protocol,t_hi",
        [
            (HOProtocol(20.0, -0.05, 0.0), 3.0),
            (HOProtocol(20.0, 0.0, 0.0), 3.0),
            (HOProtocol(20.0, 0.0, -4e-3), 2.0),
            (HOProtocol(20.0, -0.05, 5e-3), 1.5),
            (HOProtocol(20.0, -0.05, -0.5 * 0.05**2 * 20.0), 1.5),
            (HOProtocol(20.0, 0.04, 1e-3), 0.9),
        ],
    )
    def test_scaled_time_matches_quadrature(self, protocol, t_hi):
        # the closed form branches on the sign of chi0^2 + 2a/omega0
        for t in np.linspace(0.1, t_hi, 7):
            ref, _ = scipy.integrate.quad(
                protocol.omega, 0.0, t, epsabs=1e-13, epsrel=1e-13
            )
            assert abs(protocol.theta(t) - ref) < 1e-10
        assert protocol.theta(0.0) == 0.0

    def test_logarithmic_ramp_value(self):
        # omega = 20/(1+t): theta(1) = 20 ln 2
        p = HOProtocol(omega0=20.0, chi0=-0.05, a=0.0)
        assert abs(p.theta(1.0) - 20.0 * math.log(2.0)) < 1e-12

    def test_domain_boundary(self):
        p = HOProtocol(omega0=20.0, chi0=0.05, a=0.0)
        assert p.t_max == 1.0
        p.omega(0.999)
        with pytest.raises(DomainExceeded):
            p.omega(1.0)
        with pytest.raises(DomainExceeded):
            p.theta(1.2)

    def test_unbounded_domain_for_decaying_ramp(self):
        assert HOProtocol(20.0, -0.05, 0.0).t_max == math.inf
        p = HOProtocol(20.0, 0.0, -4e-3)  # denominator has no real roots
        assert p.t_max == math.inf

    def test_boundary_solve_hits_target(self):
        p = HOProtocol.solve_boundary(20.0, 10.0, t_f=1.0, a=-5e-3)
        assert abs(p.omega(1.0) - 10.0) < 1e-12 * 10.0
        assert abs(p.mu(1.0) - (p.chi0 - 5e-3)) < 1e-15

    def test_boundary_solve_rejects_divergent(self):
        # strong deceleration forces a huge chi0, and the resulting ramp
        # blows up well before reaching t_f
        with pytest.raises(DomainExceeded):
            HOProtocol.solve_boundary(20.0, 10.0, t_f=1.0, a=-4.0)

    def test_boundary_solve_residual_guard(self):
        # a target 5e7 times the start is formally reachable but the
        # closed-form chi0 cancels catastrophically; the guard must notice
        with pytest.raises(ArithmeticError):
            HOProtocol.solve_boundary(20.0, 1e9, t_f=1.0, a=0.0)

    def test_boundary_solve_rejects_a_ramp_past_the_float_range(self):
        # a t_f^2 overflows, so chi0 = inf and omega(t_f) is NaN
        with pytest.raises(ArithmeticError):
            HOProtocol.solve_boundary(20.0, 10.0, t_f=1e300, a=-5e-3)


class TestTLSProtocol:
    def test_figure_setup_initial_splitting(self):
        # Rabi rate 20 at transverse coupling 8 fixes omega0 = sqrt(336)
        p = TLSProtocol.solve_boundary(20.0, 10.0, epsilon=8.0, t_f=1.0)
        assert abs(p.omega0 - math.sqrt(336.0)) < 1e-12
        assert abs(p.Omega(0.0) - 20.0) < 1e-12
        assert abs(p.Omega(1.0) - 10.0) < 1e-11
        assert abs(p.omega(0.0) - p.omega0) < 1e-12

    def test_rate_parameter_identity(self):
        p = TLSProtocol(epsilon=8.0, omega0=math.sqrt(336.0), chi0=-0.0375, abar=4e-3)
        for t in (0.1, 0.5, 0.9):
            wd = deriv4(p.omega, t, 1e-5)
            mu_num = wd * p.epsilon / p.Omega(t) ** 3
            assert abs(mu_num - p.mu(t)) < 1e-10

    def test_constant_rate_when_unaccelerated(self):
        p = TLSProtocol(epsilon=8.0, omega0=math.sqrt(336.0), chi0=-0.0375)
        for t in (0.0, 0.4, 1.0):
            assert p.mu(t) == -0.0375

    def test_scaled_time_closed_form(self):
        p = TLSProtocol(epsilon=8.0, omega0=math.sqrt(336.0), chi0=-0.0375)
        for t in np.linspace(0.1, 1.0, 5):
            ref, _ = scipy.integrate.quad(
                p.Omega, 0.0, t, epsabs=1e-13, epsrel=1e-13
            )
            assert abs(p.theta(t) - ref) < 1e-10

    def test_scaled_time_static(self):
        p = TLSProtocol(epsilon=8.0, omega0=6.0, chi0=0.0)
        assert abs(p.theta(0.7) - 10.0 * 0.7) < 1e-12

    def test_scaled_time_accelerated_random_check(self):
        p = TLSProtocol(epsilon=8.0, omega0=math.sqrt(336.0), chi0=-0.03, abar=5e-3)
        # derivative of theta must reproduce Omega
        for t in (0.2, 0.6, 1.1):
            d = deriv4(p.theta, t, 1e-4)
            assert abs(d - p.Omega(t)) < 1e-6 * p.Omega(t)

    def test_domain_boundary(self):
        p = TLSProtocol(epsilon=8.0, omega0=math.sqrt(336.0), chi0=0.01)
        t_edge = (1.0 - p.z0) / (8.0 * 0.01)
        assert abs(p.t_max - t_edge) < 1e-12
        with pytest.raises(DomainExceeded):
            p.Omega(p.t_max + 1e-6)

    def test_boundary_solve_validates_epsilon(self):
        with pytest.raises(ValueError):
            TLSProtocol.solve_boundary(20.0, 10.0, epsilon=12.0, t_f=1.0)

    def test_boundary_solve_rejects_a_ramp_past_the_float_range(self):
        # abar t_f^2 overflows, so chi0 = inf and Omega(t_f) is NaN
        with pytest.raises(ArithmeticError):
            TLSProtocol.solve_boundary(20.0, 10.0, epsilon=8.0, t_f=1e300, abar=-5e-3)


class TestInitialVectors:
    def test_ho_ground_state(self):
        model = HOModel(protocol=HOProtocol(20.0, -0.05))
        v = initial_vector(model)
        assert np.allclose(v.coeffs, [10.0, 0, 0, 0, 0, 1.0])
        assert v.t == 0.0 and v.theta == 0.0

    def test_ho_displaced(self):
        model = HOModel(protocol=HOProtocol(20.0, -0.05), q0=0.3, p0=-0.7)
        v = initial_vector(model).coeffs.real
        w0, m, q0, p0 = 20.0, 1.0, 0.3, -0.7
        assert abs(v[3] - math.sqrt(w0) * q0) < 1e-12
        assert abs(v[4] + p0 / (m * math.sqrt(w0))) < 1e-12
        assert abs(v[0] - (w0 / 2 + p0**2 / (2 * m) + m * w0**2 * q0**2 / 2)) < 1e-12
        assert abs(v[2] + w0 * q0 * p0) < 1e-12

    def test_tls_configured_triple(self):
        model = TLSModel(protocol=TLSProtocol(8.0, math.sqrt(336.0), -0.0375))
        assert np.allclose(initial_vector(model).coeffs, [4, 1, 1, 1])


    def test_other_objects_have_no_initial_vector(self):
        with pytest.raises(TypeError):
            initial_vector(object())


class TestForDuration:
    # a chi0 = 0 seed of each ramp, with every non-protocol field off its default
    HO_SEED = HOModel(protocol=HOProtocol(20.0, 0.0, -5e-3), mass=1.7, q0=0.3, p0=-0.2)
    TLS_SEED = TLSModel(
        protocol=TLSProtocol(8.0, math.sqrt(336.0), 0.0, -5e-3),
        initial_values=(1.0, 2.0, 0.5),
    )

    @pytest.mark.parametrize("t_f", [0.05, 1.0, 5.0])
    def test_ho_hits_target_and_keeps_fields(self, t_f):
        m = self.HO_SEED.for_duration(t_f, 10.0)
        assert abs(m.protocol.omega(t_f) - 10.0) <= 1e-12 * 10.0
        assert (m.protocol.omega0, m.protocol.a) == (20.0, -5e-3)
        assert (m.mass, m.q0, m.p0) == (1.7, 0.3, -0.2)

    @pytest.mark.parametrize("t_f", [0.05, 1.0, 5.0])
    def test_tls_hits_target_and_keeps_fields(self, t_f):
        m = self.TLS_SEED.for_duration(t_f, 10.0)
        assert abs(m.protocol.Omega(t_f) - 10.0) <= 1e-12 * 10.0
        assert abs(m.protocol.Omega0 - self.TLS_SEED.protocol.Omega0) <= 1e-12 * 20.0
        assert (m.protocol.epsilon, m.protocol.abar) == (8.0, -5e-3)
        assert m.initial_values == (1.0, 2.0, 0.5)

    @staticmethod
    def outcome(solve):
        try:
            solve()
        except (DomainExceeded, ArithmeticError, ValueError) as exc:
            return type(exc)
        return None

    @given(
        t_f=st.floats(1e-3, 50.0),
        target=st.floats(9.0, 60.0),
        accel=st.floats(-5.0, 5.0),
    )
    def test_fails_exactly_where_solve_boundary_does(self, t_f, target, accel):
        ho = dataclasses.replace(self.HO_SEED, protocol=HOProtocol(20.0, 0.0, accel))
        assert self.outcome(lambda: ho.for_duration(t_f, target)) is self.outcome(
            lambda: HOProtocol.solve_boundary(20.0, target, t_f, accel)
        )
        tls = TLSModel(protocol=TLSProtocol(8.0, math.sqrt(336.0), 0.0, accel))
        Omega0 = tls.protocol.Omega0
        assert self.outcome(lambda: tls.for_duration(t_f, target)) is self.outcome(
            lambda: TLSProtocol.solve_boundary(Omega0, target, 8.0, t_f, accel)
        )

    def test_domain_exceeded_propagates(self):
        # strong deceleration: the ramp diverges before t_f
        ho = HOModel(protocol=HOProtocol(20.0, 0.0, -4.0))
        with pytest.raises(DomainExceeded):
            ho.for_duration(1.0, 10.0)
        tls = TLSModel(protocol=TLSProtocol(8.0, math.sqrt(336.0), 0.0, 5.0))
        with pytest.raises(DomainExceeded):
            tls.for_duration(1.0, 10.0)


class TestReconstruction:
    def _ho_model(self):
        return HOModel(protocol=HOProtocol(20.0, -0.05))

    def test_ho_ground_state_moments(self):
        model = self._ho_model()
        state = reconstruct_state(model, initial_vector(model), 0.0)
        assert isinstance(state, GaussianState)
        assert abs(state.sigma_qq - 1.0 / 40.0) < 1e-14
        assert abs(state.sigma_pp - 10.0) < 1e-13
        assert abs(state.sigma_qp) < 1e-14
        assert abs(state.uncertainty_product() - 0.25) < 1e-13

    def test_ho_displaced_first_moments(self):
        model = HOModel(protocol=HOProtocol(20.0, -0.05), q0=0.3, p0=-0.7)
        state = reconstruct_state(model, initial_vector(model), 0.0)
        assert abs(state.q - 0.3) < 1e-12
        assert abs(state.p + 0.7) < 1e-12
        # displacement leaves the fluctuations at the ground-state values
        assert abs(state.sigma_qq - 1.0 / 40.0) < 1e-12
        assert abs(state.sigma_pp - 10.0) < 1e-12

    def test_ho_unphysical_raises(self):
        model = self._ho_model()
        bad = LiouvilleVector(
            coeffs=np.array([1.0, 3.0, 0, 0, 0, 1.0]), t=0.0, theta=0.0
        )
        with pytest.raises(UnphysicalState):
            reconstruct_state(model, bad, 0.0)

    def _tls_model(self):
        return TLSModel(protocol=TLSProtocol(8.0, math.sqrt(336.0), -0.0375))

    def test_tls_paper_initial_norm(self):
        model = self._tls_model()
        state = reconstruct_state(model, initial_vector(model), 0.0)
        assert isinstance(state, BlochState)
        assert abs(state.norm() - 0.4242640687119285) < 1e-12

    def test_tls_unphysical_raises(self):
        model = self._tls_model()
        bad = LiouvilleVector(
            coeffs=np.array([40.0, 10.0, 10.0, 1.0]), t=0.0, theta=0.0
        )
        with pytest.raises(UnphysicalState):
            reconstruct_state(model, bad, 0.0)

    def test_complex_residue_raises(self):
        model = self._tls_model()
        bad = LiouvilleVector(
            coeffs=np.array([4.0 + 1.0j, 1.0, 1.0, 1.0]), t=0.0, theta=0.0
        )
        with pytest.raises(UnphysicalState):
            reconstruct_state(model, bad, 0.0)

    def test_other_objects_have_no_reconstruction(self):
        with pytest.raises(TypeError):
            reconstruct_state(object(), np.zeros(4), 0.0)


class TestStates:
    def test_gaussian_validate(self):
        GaussianState(0, 0, 0.5, 0.5, 0.0).validate()
        with pytest.raises(UnphysicalState):
            GaussianState(0, 0, 0.1, 0.1, 0.0).validate()
        with pytest.raises(UnphysicalState):
            GaussianState(0, 0, -0.5, 0.5, 0.0).validate()

    def test_bloch_validate(self):
        BlochState(r=np.array([0.6, 0.0, 0.8])).validate()
        with pytest.raises(UnphysicalState):
            BlochState(r=np.array([1.2, 0.0, 0.0])).validate()


class TestRescalingDeclarations:
    def test_tls_halved_pace_halves_triple(self):
        # Omega halves from 20 to 10 by t = 1: a propagated triple twice the
        # physical one there reconstructs the Bloch vector of that physical one
        p = TLSProtocol.solve_boundary(20.0, 10.0, epsilon=8.0, t_f=1.0)
        w, eps, Om = p.omega(1.0), p.epsilon, p.Omega(1.0)
        r = np.array([0.3, -0.5, 0.6])
        # <w S_z + eps S_x>, <w S_x - eps S_z> and <Omega S_y> of r
        physical = 0.5 * np.array([w * r[2] + eps * r[0], w * r[0] - eps * r[2], Om * r[1]])
        state = reconstruct_state(TLSModel(protocol=p), np.append(2.0 * physical, 1.0), 1.0)
        assert np.max(np.abs(state.r - r)) < 1e-12


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# ramp accelerations, tiny and subnormal ones included
ACCELERATIONS = st.floats(-0.02, 0.02)


@st.composite
def protocol_and_grid(draw):
    """A ramp protocol with a finite horizon and a time grid inside it."""
    if draw(st.booleans()):
        p = HOProtocol(
            omega0=draw(st.floats(1.0, 50.0)),
            chi0=draw(st.floats(0.01, 0.3)),
            a=draw(ACCELERATIONS),
        )
    else:
        p = TLSProtocol(
            epsilon=draw(st.floats(1.0, 10.0)),
            omega0=draw(st.floats(0.0, 20.0)),
            chi0=draw(st.floats(-0.2, 0.2).filter(lambda c: abs(c) > 1e-3)),
            abar=draw(ACCELERATIONS),
        )
    assume(math.isfinite(p.t_max))
    fractions = draw(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=40))
    return p, np.array(fractions) * p.t_max


class TestArrayContract:
    """Protocols and generators evaluated on arrays equal their float calls."""

    METHODS = {
        HOProtocol: ("omega", "mu", "omega_dot", "omega_ddot"),
        TLSProtocol: ("z", "Omega", "omega", "mu", "omega_dot"),
    }
    # x**3 on an array may take numpy's vectorized pow, which can round an
    # ulp away from the C library pow a float takes (AVX-512 builds do)
    CUBED = {(HOProtocol, "omega_ddot"), (TLSProtocol, "omega_dot")}

    @given(protocol_and_grid())
    def test_protocol_arrays_equal_float_calls(self, case):
        p, ts = case
        for name in self.METHODS[type(p)]:
            method = getattr(p, name)
            stacked = method(ts)
            per_node = np.array([method(t) for t in ts.tolist()])
            assert stacked.shape == ts.shape
            if (type(p), name) in self.CUBED:
                eps = np.finfo(float).eps
                assert np.allclose(stacked, per_node, rtol=4 * eps, atol=0.0), name
            else:
                assert _bits(stacked) == _bits(per_node), name

    @given(protocol_and_grid(), st.floats(1.0, 10.0), st.integers(0, 40))
    def test_any_node_outside_the_domain_raises(self, case, beyond, where):
        p, ts = case
        ts = np.insert(ts, min(where, ts.size), beyond * p.t_max)
        for name in self.METHODS[type(p)]:
            if name == "z":
                continue  # z is the unguarded ramp itself
            with pytest.raises(DomainExceeded):
                getattr(p, name)(ts)

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30))
    def test_generators_on_arrays_equal_float_stacks(self, chis):
        arr = np.array(chis)
        for generator in (ho_generator, tls_generator, tls_generator_embedded):
            stack = np.stack([generator(c) for c in chis])
            assert generator(arr).tobytes() == stack.tobytes()
        pairs = [two_spin_generators(c, -0.5 * c) for c in chis]
        for got, want in zip(two_spin_generators(arr, -0.5 * arr), zip(*pairs)):
            assert got.tobytes() == np.stack(want).tobytes()


def _tiny_or_ramp(draw):
    """An acceleration of either sign with |a| from 1e-300 to 0.02, or 0."""
    if draw(st.booleans()):
        return 0.0
    return draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, math.log10(0.02)))


class TestQuadraticHorizons:
    """Horizons and scaled time of ramps with small nonzero accelerations."""

    @given(
        st.floats(0.5, 50.0),
        st.floats(-0.3, 0.3),
        st.data(),
        st.floats(0.0, 0.99),
    )
    def test_ho_theta_matches_mpmath(self, omega0, chi0, data, fraction):
        p = HOProtocol(omega0, chi0, _tiny_or_ramp(data.draw))
        t = fraction * min(p.t_max, 50.0 / omega0)
        want = oracles.ho_theta_mp(omega0, chi0, p.a, t)
        assert abs(p.theta(t) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("a", [1e-12, 1e-300, -1e-12, -1e-300, 5e-324])
    def test_ho_horizon_keeps_its_digits(self, a):
        # q(t) = 1 - t/8 - a t^2/2 vanishes near t = 8
        p = HOProtocol(1.0, 0.125, a)
        assert p.t_max == pytest.approx(oracles.ho_horizon_mp(1.0, 0.125, a), rel=1e-15)
        want = oracles.ho_theta_mp(1.0, 0.125, a, 4.0)
        assert p.theta(4.0) == pytest.approx(want, rel=1e-15)

    def test_tls_horizon_with_subnormal_acceleration(self):
        # z(t) = z0 - t/8 reaches -1 near t = 8 (1 + z0)
        p = TLSProtocol(epsilon=1.0, omega0=0.001, chi0=-0.125, abar=-2.2e-309)
        assert p.t_max == pytest.approx(8.0 * (1.0 + p.z0), rel=1e-15)


class TestTLSConstantRateTheta:
    """theta = (asin z(t) - asin z0) / chi0 of an unaccelerated spin ramp."""

    @given(
        st.floats(1.0, 10.0),
        st.floats(0.0, 20.0),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-300.0, 1.0),
        st.floats(0.0, 0.99),
    )
    @example(8.0, 15.0, 1.0, -300.0, 0.5)
    @example(8.0, 0.0, 1.0, -300.0, 0.5)  # z0 = 0
    @example(8.0, 1.0, -1.0, 0.0, 0.9)  # z(t) crosses 0: opposite-sign branch
    @example(8.0, 8.0, -1.0, 0.0, 0.95)  # asin z(t) - asin z0 < -pi/2
    @example(  # subnormal z0 and t
        5.802619566044384, 2.2250738585e-313, 1.0, -62.73946478896147, 2.2250738585e-313
    )
    def test_matches_mpmath(self, epsilon, omega0, sign, log_chi, fraction):
        p = TLSProtocol(epsilon, omega0, sign * 10.0**log_chi)
        t = fraction * min(p.t_max, 50.0 / p.Omega0)
        want = oracles.tls_theta_mp(epsilon, omega0, p.chi0, t)
        assert abs(p.theta(t) - want) <= 1e-12 * abs(want)

    def test_tiny_rate_keeps_every_digit(self):
        # Omega0 = hypot(15, 8) = 17; the cancelling difference read 0.0
        assert TLSProtocol(8.0, 15.0, 1e-300).theta(1.0) == pytest.approx(17.0, rel=1e-15)


def _signed(log_lo: float, log_hi: float):
    """A float of either sign with magnitude 10^u, u uniform in [log_lo, log_hi]."""
    return st.builds(
        lambda sign, u: sign * 10.0**u, st.sampled_from([-1.0, 1.0]), st.floats(log_lo, log_hi)
    )


class TestTLSAcceleratedTheta:
    """theta of a spin ramp, accelerated, constant-rate or static, as Carlson
    R_F pieces split at the turning point s* = -chi0/abar (inf for abar =
    0), against a 50-digit quadrature."""

    @staticmethod
    def turning(p):
        """s* and the extremum z_c = z(s*) of a ramp."""
        s_star = -p.chi0 / p.abar
        return s_star, p.z0 - p.epsilon * p.chi0**2 / (2.0 * p.abar)

    @given(
        st.floats(0.5, 10.0),
        st.floats(0.0, 20.0),
        _signed(-3.0, 0.5),
        _signed(-12.0, 1.0) | st.just(0.0),
        st.floats(0.0, 1.0 - 1e-9) | st.floats(-9.0, -0.01).map(lambda u: 1.0 - 10.0**u),
    )
    # s* inside [0, t] with |z_c| < 1: z turns and runs back to -1
    @example(8.0, 15.0, 0.01, -0.05, 0.9)
    # |z_c| > 1: the domain ends before s*, t a hair short of its edge
    @example(8.0, 15.0, 0.05, -0.01, 1.0 - 1e-9)
    # z_c = 1 / 1.000001: z nearly touches 1 at s* = 2, inside [0, t]
    @example(1.0, 0.0, 1.0, -0.5000005, 0.5)
    # |abar| = 1e-12 of both signs, s* far past t, at the edge of the domain
    @example(8.0, 15.0, -0.05, 1e-12, 1.0 - 1e-9)
    @example(8.0, 15.0, 0.05, -1e-12, 1.0 - 1e-9)
    # chi0 = 0: s* = 0, one piece from a standing start
    @example(4.0, 3.0, 0.0, 0.3, 0.7)
    # abar = 0: one piece, at the edge of the domain, static, and at a tiny rate
    @example(8.0, 15.0, 0.05, 0.0, 1.0 - 1e-9)
    @example(8.0, 15.0, 0.0, 0.0, 0.5)
    @example(8.0, 15.0, 1e-12, 0.0, 1.0 - 1e-9)
    def test_matches_mpmath(self, epsilon, omega0, chi0, abar, fraction):
        p = TLSProtocol(epsilon, omega0, chi0, abar)
        # a static ramp never leaves its domain: t is the fraction itself
        t = fraction * (1.0 if p.static else p.t_max)
        want = oracles.tls_theta_mp(epsilon, omega0, chi0, t, abar)
        # a subnormal theta (from a subnormal t) holds only its absolute spacing
        assert abs(p.theta(t) - want) <= 1e-13 * abs(want) + math.ulp(0.0)

    def test_examples_cover_both_sides_of_the_turn_and_the_edge(self):
        # the pinned examples above reach every case the closed form splits on
        inside = TLSProtocol(8.0, 15.0, 0.01, -0.05)
        s_star, z_c = self.turning(inside)
        assert 0.0 < s_star < 0.9 * inside.t_max and abs(z_c) < 1.0
        beyond = TLSProtocol(8.0, 15.0, 0.05, -0.01)
        s_star, z_c = self.turning(beyond)
        assert s_star > beyond.t_max and abs(z_c) > 1.0
        grazing = TLSProtocol(1.0, 0.0, 1.0, -0.5000005)
        s_star, z_c = self.turning(grazing)
        assert 0.0 < s_star < 0.5 * grazing.t_max and 1.0 - 1e-6 < z_c < 1.0

    def test_a_time_past_the_true_edge_raises(self):
        # the rounded z(t) = -0.9999999999999999 passes the domain check one
        # ulp below t_max, but the exact 1 + z(t) is -5.5e-18
        p = TLSProtocol(4.506134367529071, 19.240381668242193, -0.4742398359648804,
                        0.022934509101127036)
        t = math.nextafter(p.t_max, 0.0)
        assert p.z(t) > -1.0
        with pytest.raises(DomainExceeded, match="reaches 1"):
            p.theta(t)


def _ho_moments_to_vector(mean, cov, w, w0, m):
    """{H, L, C, K, J, 1} from the first and second moments at frequency w,
    the quadratic block scaled by w0/w."""
    q, p = mean
    qq, pp, qp = cov[0, 0] + q * q, cov[1, 1] + p * p, cov[0, 1] + q * p
    energy = pp / (2 * m) + m * w * w * qq / 2
    asymmetry = pp / (2 * m) - m * w * w * qq / 2
    return np.array(
        [
            w0 / w * energy,
            w0 / w * asymmetry,
            -w0 * qp,
            math.sqrt(w) * q,
            -p / (m * math.sqrt(w)),
            1.0,
        ]
    )


@st.composite
def ho_ramps(draw):
    """A displaced oscillator and a time inside its domain, on a ramp whose
    constant C = chi0^2 + 2a/omega0 is drawn from one of [-3, 0], [0, 4]
    and [4, 8]: oscillating (C < 4), critical and growing (C > 4)."""
    omega0 = draw(st.floats(0.5, 20.0))
    chi0 = draw(st.floats(-1.0, 1.0))
    C = draw(st.floats(*draw(st.sampled_from([(-3.0, 0.0), (0.0, 4.0), (4.0, 8.0)]))))
    protocol = HOProtocol(omega0, chi0, 0.5 * omega0 * (C - chi0 * chi0))
    t_f = draw(st.floats(0.01, 1.0)) * min(0.99 * protocol.t_max, 30.0 / omega0)
    # a near-double root of 1/omega packs many periods into a short time,
    # which the lab-time oracle resolves only step by step
    assume(protocol.theta(t_f) < 60.0)
    model = HOModel(
        protocol,
        mass=draw(st.floats(0.5, 2.0)),
        q0=draw(st.floats(-2.0, 2.0)),
        p0=draw(st.floats(-2.0, 2.0)),
    )
    return model, t_f


class TestHOExactVector:
    """The oscillator's closed-form exact route against a lab-time solve."""

    @given(ho_ramps())
    def test_matches_lab_time_propagator(self, ramp):
        model, t_f = ramp
        p, m = model.protocol, model.mass
        w0 = p.omega0
        M = oracles.ho_ramp_closed_form(w0, p.chi0, p.a, t_f, mass=m)
        cov0 = np.diag([0.5 / (m * w0), 0.5 * m * w0])
        want = _ho_moments_to_vector(
            M @ [model.q0, model.p0], M @ cov0 @ M.T, p.omega(t_f), w0, m
        )
        v = model.exact_vector(t_f)
        assert v.t == t_f and v.theta == p.theta(t_f)
        got = v.coeffs
        assert np.all(got.imag == 0.0)
        for lo, hi in HO_FAMILY.blocks:
            err = np.max(np.abs(got[lo:hi].real - want[lo:hi]))
            assert err <= 1e-10 * np.max(np.abs(want[lo:hi]))

    @pytest.mark.parametrize("C", [-2.0, 0.0, 4.0, 6.0])
    def test_each_regime_matches_lab_time_propagator(self, C):
        # C = 4 is the shear between the rotation and boost branches
        p = HOProtocol(2.0, 0.5, 0.5 * 2.0 * (C - 0.25))
        model = HOModel(p, q0=0.4, p0=-0.3)
        t_f = 0.8 * min(p.t_max, 5.0)
        M = oracles.ho_ramp_closed_form(2.0, 0.5, p.a, t_f)
        cov0 = np.diag([0.25, 1.0])
        want = _ho_moments_to_vector(M @ [0.4, -0.3], M @ cov0 @ M.T, p.omega(t_f), 2.0, 1.0)
        got = model.exact_vector(t_f).coeffs.real
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_criterion_six_errors_hold_against_the_closed_form(self):
        # the ODE reference of acceptance criterion 6 agrees with the closed
        # form far below the inertial terminal errors, which stay first order
        mags = (5e-3, 2.5e-3, 1.25e-3, 6.25e-4)
        errs = []
        for mag in mags:
            model = HOModel(HOProtocol.solve_boundary(20.0, 10.0, 1.0, -mag))
            fact, v0 = model.factorization(), model.initial_vector()
            closed = model.exact_vector(1.0)
            ode = propagate_exact(fact, v0, 1.0, rtol=1e-12, atol=1e-14)
            assert closed.theta == ode.theta
            assert np.max(np.abs(closed.coeffs - ode.coeffs)) < 1e-10 * np.max(np.abs(ode.coeffs))
            inertial, _ = propagate_inertial(fact, v0, 1.0)
            errs.append(np.max(np.abs(closed.coeffs - inertial.coeffs)))
        assert 0.8 <= np.polyfit(np.log(mags), np.log(errs), 1)[0] <= 1.2

    def test_state_stays_pure(self):
        model = HOModel(HOProtocol.solve_boundary(20.0, 10.0, 0.3, -5e-3), q0=0.3, p0=-0.2)
        state = reconstruct_state(model, model.exact_vector(0.3), 0.3)
        assert state.uncertainty_product() == pytest.approx(0.25, rel=1e-12)

    def test_guards_of_the_ode_route(self):
        model = HOModel(HOProtocol(20.0, 0.05), q0=0.3)  # diverges at t = 1
        v0 = model.initial_vector()
        at_zero = model.exact_vector(0.0)
        assert at_zero.coeffs.tobytes() == v0.coeffs.tobytes()
        assert at_zero.t == 0.0 and at_zero.theta == 0.0
        with pytest.raises(DomainExceeded):
            model.exact_vector(1.0)
        with pytest.raises(DomainExceeded):
            model.exact_vector(2.0)
        with pytest.raises(ValueError):
            model.exact_vector(-0.1)



@st.composite
def tls_sweep_ramps(draw):
    """TLS ramps from the duration sweeps' ranges, at a drawn duration."""
    eps = draw(st.floats(7.5, 8.5))
    omega_start = draw(st.floats(19.0, 21.0))
    seed = TLSModel(TLSProtocol(eps, math.sqrt(omega_start**2 - eps**2), 0.0,
                                draw(st.floats(-5.5e-3, -4.5e-3))))
    t_f = draw(st.floats(0.05, 5.0))
    return seed.for_duration(t_f, draw(st.floats(9.5, 10.5))), t_f


def tight_ode_vector(model, t):
    return propagate_exact(model.factorization(), model.initial_vector(), t,
                           rtol=1e-13, atol=1e-15)


class TestTLSExactVector:
    """The two-level Magnus product against tight DOP853 solves, and its guards."""

    def test_matches_a_tight_ode_solve(self):
        model = TLSModel(TLSProtocol(8.0, math.sqrt(336.0), -0.03, 2e-3))
        want = tight_ode_vector(model, 0.7)
        got = model.exact_vector(0.7)
        assert got.t == 0.7 and got.theta == want.theta
        assert got.coeffs[3] == 1.0
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-11 * np.max(np.abs(want.coeffs))

    @settings(max_examples=25, deadline=None)
    @given(tls_sweep_ramps())
    def test_sweep_ramps_match_a_tight_ode_solve(self, ramp):
        model, t_f = ramp
        want = tight_ode_vector(model, t_f)
        got = model.exact_vector(t_f)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-11 * np.max(np.abs(want.coeffs))

    @settings(max_examples=25, deadline=None)
    @given(tls_sweep_ramps(), st.sampled_from([2, 11]))
    def test_su2_flow_matches_a_tight_ode_solve(self, ramp, points):
        # the shared flow under the exact reference's field k = Omega (1, 0, mu)
        model, t_f = ramp
        p = model.protocol

        def field(ts):
            return p.Omega(ts)[:, None] * np.stack([np.ones_like(ts), 0.0 * ts, p.mu(ts)], axis=1)

        ts = np.linspace(0.0, t_f, points)
        steps = [32 << i for i in range(12) if (32 << i) * (points - 1) <= linalg.MAGNUS_MAX_STEPS]
        got = linalg.su2_flow(field, ts, steps, rtol=1e-10, atol=1e-12)
        want = oracles.field_propagators(lambda t: field(np.array([t]))[0], ts)
        assert got.shape == (points, 2, 2)
        assert np.array_equal(got[0], np.eye(2))
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_guards_of_the_ode_route(self):
        model = TLSModel(TLSProtocol(8.0, math.sqrt(336.0), -0.0375))
        v0 = model.initial_vector()
        at_zero = model.exact_vector(0.0)
        assert at_zero.coeffs.tobytes() == v0.coeffs.tobytes()
        assert at_zero.t == 0.0 and at_zero.theta == 0.0
        with pytest.raises(DomainExceeded):
            model.exact_vector(model.protocol.t_max)
        with pytest.raises(DomainExceeded):
            model.exact_vector(2.0 * model.protocol.t_max)
        with pytest.raises(ValueError):
            model.exact_vector(-0.1)

    def test_unreachable_tolerance_raises_not_converged(self):
        # DOP853 stopped here with IntegratorFailure ("Required step size ...")
        model = TLSModel(TLSProtocol(8.0, math.sqrt(336.0), -0.03, 2e-3))
        start = time.perf_counter()
        with pytest.raises(NotConverged):
            model.exact_vector(0.7, rtol=1e-300, atol=1e-300)
        assert time.perf_counter() - start < 1.0

    def test_corrupted_step_trips_the_orthogonality_guard(self, monkeypatch):
        # every level carries the same scaled first step, so the levels
        # agree and the adjoint of their product is no rotation
        real = linalg.su2

        def spoiled(w):
            U = real(w)
            U[0] *= 1.01
            return U

        monkeypatch.setattr(linalg, "su2", spoiled)
        with pytest.raises(IntegratorFailure, match="orthogonality"):
            TLSModel(TLSProtocol(8.0, math.sqrt(336.0), -0.03, 2e-3)).exact_vector(0.7)
