import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import grid_inertial

from liouvdyn.diagnostics import fidelity_sweep
from liouvdyn.engine import (
    GeneratorFactorization,
    LiouvilleVector,
    coefficients,
    inverse_scaled_time,
    propagate_adiabatic,
    propagate_adiabatic_batch,
    propagate_constant_chi,
    propagate_exact,
    propagate_inertial,
    propagate_inertial_batch,
)
from liouvdyn.errors import (
    AmbiguousMatching,
    DomainExceeded,
    NotConverged,
    SingularDenominator,
    settle,
)
from liouvdyn.linalg import bi_eigendecompose
from liouvdyn.models import (
    HOModel,
    HOProtocol,
    TLSModel,
    TLSProtocol,
    initial_vector,
    reconstruct_state,
)


def ho_setup(chi0=-0.05, a=0.0, omega0=20.0):
    model = HOModel(protocol=HOProtocol(omega0, chi0, a))
    return model, model.factorization(), initial_vector(model)


def tls_setup(chi0=-0.0375, abar=0.0, epsilon=8.0):
    model = TLSModel(protocol=TLSProtocol(epsilon, math.sqrt(336.0), chi0, abar))
    return model, model.factorization(), initial_vector(model)


def blockwise_constant_chi(fact, v0, theta):
    """Assemble the analytic constant-parameter solution block by block."""
    n = v0.dim
    B = fact.B_of_chi(fact.chi_of_t(0.0))
    out = np.empty(n, dtype=complex)
    for lo, hi in fact.block_ranges(n):
        frame = bi_eigendecompose(B[lo:hi, lo:hi])
        c = coefficients(frame, v0.coeffs[lo:hi])
        out[lo:hi] = propagate_constant_chi(frame, c, theta).coeffs
    return out


class TestScaledTime:
    def test_trivial_values(self):
        p = HOProtocol(20.0, 0.0, 0.0)
        assert p.theta(0.5) == 10.0
        assert p.theta(0.0) == 0.0

    @staticmethod
    def assert_first_double(p, t):
        # the inverse of theta(t) is the first double at which theta reaches it
        theta = p.theta(t)
        r = inverse_scaled_time(p, theta)
        assert p.theta(math.nextafter(r, 0.0)) < theta <= p.theta(r)

    def test_round_trip(self):
        for p in (
            HOProtocol(20.0, -0.05, 0.0),
            HOProtocol(20.0, -0.04, -5e-3),
            HOProtocol(20.0, 0.03, 1e-3),
            TLSProtocol(8.0, math.sqrt(336.0), -0.0375, 0.0),
            TLSProtocol(8.0, math.sqrt(336.0), -0.03, 5e-3),
        ):
            for t in (1e-6, 1e-3, 0.05, 0.2, 0.8, 1.4):
                self.assert_first_double(p, t)

    @given(st.sampled_from(["ho", "tls"]), st.floats(0.05, 5.0), st.floats(-6.0, 0.0))
    def test_round_trip_on_sweep_ramps(self, kind, t_f, log_fraction):
        self.assert_first_double(sweep_ramp(kind, t_f).protocol, 10.0**log_fraction * t_f)

    def test_inverse_rejects_unreachable(self):
        p = TLSProtocol(8.0, math.sqrt(336.0), -0.0375, 0.0)
        # theta is bounded because the ramp ends at |z| = 1
        with pytest.raises(DomainExceeded):
            inverse_scaled_time(p, 1e6)

    def test_monotone(self):
        p = HOProtocol(20.0, -0.04, -5e-3)
        thetas = [p.theta(t) for t in np.linspace(0.0, 2.0, 40)]
        assert np.all(np.diff(thetas) > 0)


class TestFactorizationType:
    def test_block_ranges_default(self):
        fact = GeneratorFactorization(
            omega_of_t=lambda t: 1.0,
            B_of_chi=lambda c: np.zeros((5, 5)),
            chi_of_t=lambda t: 0.0,
            theta_of_t=lambda t: t,
        )
        assert fact.block_ranges(5) == ((0, 5),)

    def test_chi_zero_shapes(self):
        _, fact, _ = ho_setup()
        assert fact.chi_zero() == 0.0
        fact2 = GeneratorFactorization(
            omega_of_t=lambda t: 1.0,
            B_of_chi=lambda c: np.zeros((2, 2)),
            chi_of_t=lambda t: (0.1, 0.2),
            theta_of_t=lambda t: t,
        )
        assert fact2.chi_zero() == (0.0, 0.0)


class TestCoefficients:
    def test_eigenmode_and_zero(self):
        frame = bi_eigendecompose(1j * np.array([[0, -1.0], [1.0, 0]]))
        c = coefficients(frame, frame.right(0))
        assert np.allclose(c, [1.0, 0.0], atol=1e-13)
        assert np.allclose(coefficients(frame, np.zeros(2)), 0.0)

    def test_round_trip(self):
        _, fact, v0 = ho_setup()
        rng = np.random.default_rng(2)
        B = fact.B_of_chi(-0.3)
        for _ in range(5):
            vec = rng.normal(size=6) + 1j * rng.normal(size=6)
            out = np.empty(6, dtype=complex)
            for lo, hi in fact.block_ranges(6):
                frame = bi_eigendecompose(B[lo:hi, lo:hi])
                out[lo:hi] = frame.rights @ coefficients(frame, vec[lo:hi])
            assert np.max(np.abs(out - vec)) < 1e-12


class TestExactPropagation:
    def test_static_ground_state_is_stationary(self):
        model, fact, v0 = ho_setup(chi0=0.0, a=0.0)
        for t in (0.3, 1.0, 2.5):
            v = propagate_exact(fact, v0, t)
            assert np.max(np.abs(v.coeffs - v0.coeffs)) < 1e-10

    def test_constant_chi_anchor_ho(self):
        # chi(t) frozen at -0.05: the analytic eigenmode solution is exact
        model, fact, v0 = ho_setup(chi0=-0.05, a=0.0)
        p = model.protocol
        worst = 0.0
        for theta in (1.0, 5.0, 17.0, 36.0, 50.0):
            t = inverse_scaled_time(p, theta)
            v = propagate_exact(fact, v0, t)
            ref = blockwise_constant_chi(fact, v0, theta)
            worst = max(worst, np.max(np.abs(v.coeffs - ref)))
        assert worst < 1e-8

    def test_constant_chi_anchor_tls(self):
        model, fact, v0 = tls_setup(chi0=-0.0375, abar=0.0)
        p = model.protocol
        for theta in (1.0, 10.0, 30.0, 50.0):
            t = inverse_scaled_time(p, theta)
            v = propagate_exact(fact, v0, t)
            ref = blockwise_constant_chi(fact, v0, theta)
            assert np.max(np.abs(v.coeffs - ref)) < 1e-8

    def test_identity_component_constant(self):
        _, fact, v0 = ho_setup(chi0=-0.04, a=-5e-3)
        v = propagate_exact(fact, v0, 1.5)
        assert abs(v.coeffs[5] - 1.0) < 1e-12
        _, fact, v0 = tls_setup(chi0=-0.03, abar=2e-3)
        v = propagate_exact(fact, v0, 1.0)
        assert abs(v.coeffs[3] - 1.0) < 1e-12

    def test_tolerance_self_consistency(self):
        _, fact, v0 = ho_setup(chi0=-0.04, a=-5e-3)
        v1 = propagate_exact(fact, v0, 1.5)
        v2 = propagate_exact(fact, v0, 1.5, rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(v1.coeffs - v2.coeffs)) < 1e-9

    def test_domain_guard(self):
        _, fact, v0 = ho_setup(chi0=0.05, a=0.0)  # diverges at t = 1
        with pytest.raises(DomainExceeded):
            propagate_exact(fact, v0, 1.0)

    def test_time_bookkeeping(self):
        model, fact, v0 = ho_setup(chi0=-0.04, a=-5e-3)
        v = propagate_exact(fact, v0, 1.25)
        assert v.t == 1.25
        assert abs(v.theta - model.protocol.theta(1.25)) < 1e-12


class TestAdiabaticPropagation:
    def test_static_protocol_is_exact(self):
        _, fact, v0 = ho_setup(chi0=0.0, a=0.0)
        rng = np.random.default_rng(8)
        vec = LiouvilleVector(
            coeffs=rng.normal(size=6) + 1j * rng.normal(size=6), t=0.0, theta=0.0
        )
        for t in (0.4, 1.1):
            va = propagate_adiabatic(fact, vec, t)
            ve = propagate_exact(fact, vec, t, rtol=1e-12, atol=1e-14)
            assert np.max(np.abs(va.coeffs - ve.coeffs)) < 1e-9

    def test_energy_tracks_frequency(self):
        # scaled energy component frozen; physical energy follows omega
        model, fact, v0 = ho_setup(chi0=-0.05, a=0.0)
        t = 1.0
        va = propagate_adiabatic(fact, v0, t)
        assert abs(va.coeffs[0] - 10.0) < 1e-12
        state = reconstruct_state(model, va, t)
        w = model.protocol.omega(t)
        energy = state.sigma_pp / 2.0 + 0.5 * w * w * state.sigma_qq
        assert abs(energy - (w / 20.0) * 10.0) < 1e-9

    def test_identity_component_constant(self):
        _, fact, v0 = ho_setup(chi0=-0.04, a=-5e-3)
        va = propagate_adiabatic(fact, v0, 1.5)
        assert abs(va.coeffs[5] - 1.0) < 1e-14


class TestInertialPropagation:
    def test_zero_time_reproduces_initial_vector(self):
        _, fact, v0 = ho_setup(chi0=-0.04, a=-5e-3)
        v, sol = propagate_inertial(fact, v0, 0.0)
        assert np.max(np.abs(v.coeffs - v0.coeffs)) < 1e-10
        assert np.all(sol.dyn_phase == 0) and np.all(sol.geo_phase == 0)

    def test_constant_chi_reduces_to_analytic(self):
        model, fact, v0 = ho_setup(chi0=-0.05, a=0.0)
        t = 1.0
        theta = model.protocol.theta(t)
        v, sol = propagate_inertial(fact, v0, t)
        ref = blockwise_constant_chi(fact, v0, theta)
        assert np.max(np.abs(v.coeffs - ref)) < 1e-7
        assert np.max(np.abs(sol.geo_phase)) < 1e-12

    def test_error_scales_linearly_with_acceleration(self):
        model0, fact0, v0 = ho_setup(chi0=-0.045, a=-4e-3)
        model1, fact1, _ = ho_setup(chi0=-0.045, a=-2e-3)
        t = 1.0
        err = []
        for fact in (fact0, fact1):
            vi, _ = propagate_inertial(fact, v0, t)
            ve = propagate_exact(fact, v0, t)
            err.append(np.max(np.abs(vi.coeffs - ve.coeffs)))
        ratio = err[0] / err[1]
        assert 2.0 / 1.5 < ratio < 2.0 * 1.5

    def test_identity_component_constant(self):
        _, fact, v0 = ho_setup(chi0=-0.04, a=-5e-3)
        v, _ = propagate_inertial(fact, v0, 1.5)
        assert abs(v.coeffs[5] - 1.0) < 1e-12

    def test_lambda_bookkeeping(self):
        _, fact, v0 = tls_setup(chi0=-0.03, abar=4e-3)
        _, sol = propagate_inertial(fact, v0, 1.0)
        assert np.allclose(sol.Lambda, sol.dyn_phase - sol.geo_phase)

    def test_outperforms_adiabatic_on_ramp(self):
        model, fact, v0 = ho_setup(chi0=-0.045, a=-4e-3)
        t = 1.0
        ve = propagate_exact(fact, v0, t)
        vi, _ = propagate_inertial(fact, v0, t)
        va = propagate_adiabatic(fact, v0, t)
        err_i = np.max(np.abs(vi.coeffs - ve.coeffs))
        err_a = np.max(np.abs(va.coeffs - ve.coeffs))
        assert err_i < err_a

    def test_refinement_evaluates_each_node_once(self):
        # nested Chebyshev levels share every node, so B is built once per
        # point of the final level over all its stacked calls
        model = HOModel(protocol=HOProtocol.solve_boundary(20.0, 10.0, 1.0, -5e-3))
        fact = model.factorization()
        chis = []

        def counted(chi):
            chis.extend(np.atleast_1d(chi).tolist())
            return fact.B_of_chi(chi)

        counting = dataclasses.replace(fact, B_of_chi=counted)
        _, sol = propagate_inertial(counting, initial_vector(model), 1.0)
        assert sol.nodes == 33  # levels of 16 and 32 intervals
        assert len(chis) == sol.nodes
        assert len(set(chis)) == sol.nodes

    def test_dynamic_phase_against_quadrature(self):
        import scipy.integrate

        model, fact, v0 = ho_setup(chi0=-0.045, a=-4e-3)
        p = model.protocol
        t = 1.0
        _, sol = propagate_inertial(fact, v0, t)
        kappa = lambda s: math.sqrt(4.0 - p.mu(s) ** 2)
        ref, _ = scipy.integrate.quad(
            lambda s: kappa(s) * p.omega(s), 0.0, t, epsabs=1e-12, epsrel=1e-12
        )
        # mode order within the energy block is {0, +kappa, -kappa}
        assert abs(sol.dyn_phase[0]) < 1e-9
        assert abs(sol.dyn_phase[1] - ref) < 1e-7
        assert abs(sol.dyn_phase[2] + ref) < 1e-7


def sweep_ramp(kind, t_f, omega_start=20.0, omega_target=10.0, a=-5e-3, epsilon=8.0):
    """The ``sweep`` experiment's ramp model for one duration."""
    if kind == "ho":
        seed = HOModel(protocol=HOProtocol(omega_start, 0.0, a))
    else:
        omega0 = math.sqrt(omega_start**2 - epsilon**2)
        seed = TLSModel(protocol=TLSProtocol(epsilon, omega0, 0.0, a))
    return seed.for_duration(t_f, omega_target)


def spin_factorization(chi_of_t):
    """Two-level generator cos(chi) sigma_z + sin(chi) sigma_x at unit pace;
    its eigenvectors turn by chi / 2."""
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return GeneratorFactorization(
        omega_of_t=np.ones_like,
        B_of_chi=lambda chi: np.multiply.outer(np.cos(chi), sz) + np.multiply.outer(np.sin(chi), sx),
        chi_of_t=chi_of_t,
        theta_of_t=lambda t: t,
    )


class TestSpectralRoute:
    V0 = LiouvilleVector(coeffs=np.array([1.0, 0.5], dtype=complex), t=0.0, theta=0.0)

    @given(
        st.sampled_from(["ho", "tls"]),
        st.floats(19.0, 21.0),
        st.floats(9.5, 10.5),
        st.floats(-5.5e-3, -4.5e-3),
        st.floats(7.5, 8.5),
        st.floats(0.05, 5.0),
    )
    def test_matches_the_grid_route(self, kind, start, target, a, epsilon, t_f):
        model = sweep_ramp(kind, t_f, start, target, a, epsilon)
        fact, v0 = model.factorization(), initial_vector(model)
        v, sol = propagate_inertial(fact, v0, t_f)
        want, dyn, geo = grid_inertial(fact, v0, t_f)
        assert np.max(np.abs(v.coeffs - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(sol.dyn_phase - dyn)) <= 1e-9
        assert np.max(np.abs(sol.geo_phase - geo)) <= 1e-9

    def test_curved_spin_circle_picks_up_half_the_solid_angle(self):
        # chi . sigma once around the cone of polar angle 0.6 in unit time:
        # the upper mode's transport phase is -pi (1 - cos 0.6), which the
        # grid route reaches only to about 3e-10
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        polar = 0.6

        def cone(ts):
            turn = 2.0 * math.pi * np.asarray(ts)
            return np.stack(
                [math.sin(polar) * np.cos(turn), math.sin(polar) * np.sin(turn),
                 np.full_like(turn, math.cos(polar))], axis=-1
            )

        fact = GeneratorFactorization(
            omega_of_t=np.ones_like,
            B_of_chi=lambda chi: np.tensordot(chi, paulis, axes=1),
            chi_of_t=cone,
            theta_of_t=lambda t: t,
        )
        v, sol = propagate_inertial(fact, self.V0, 1.0)
        want = math.pi * (1.0 - math.cos(polar))
        assert np.max(np.abs(sol.geo_phase - [-want, want])) < 1e-12
        assert np.max(np.abs(sol.dyn_phase - [1.0, -1.0])) < 1e-12
        grid, _, _ = grid_inertial(fact, self.V0, 1.0, phase_tol=1e-8)
        assert np.max(np.abs(v.coeffs - grid)) < 1e-8

    def test_modes_are_followed_past_the_exceptional_point(self):
        # mu_max is 2.5 at t_f = 0.02: transport reorders the modes and the
        # route applies that order, so the sweep row reads DomainExceeded
        model = sweep_ramp("ho", 0.02)
        fact, v0 = model.factorization(), initial_vector(model)
        v, _ = propagate_inertial(fact, v0, 0.02)
        want, _, _ = grid_inertial(fact, v0, 0.02)
        assert np.max(np.abs(v.coeffs - want)) <= 1e-12 * np.max(np.abs(want))
        seed = HOModel(protocol=HOProtocol(20.0, 0.0, -5e-3))
        result = fidelity_sweep(seed, [0.02], omega_target=10.0)
        assert result.errors[0].startswith("DomainExceeded")

    def test_ambiguous_match_on_the_node_stack(self):
        # the frames turn by exactly pi / 4 between two nodes, so both
        # columns overlap the next frame equally
        fact = spin_factorization(lambda ts: np.where(ts > 0.5, 0.5 * math.pi, 0.0))
        with pytest.raises(AmbiguousMatching):
            propagate_inertial(fact, self.V0, 1.0)

    @pytest.mark.parametrize("t", [1.0, 1.4, 1.8])
    def test_frames_turning_past_a_right_angle(self, t):
        # the frames turn by pi t / 2: past t = 1 they are orthogonal to
        # their start somewhere, and a real mode's overlap with it changes
        # sign between two nodes; the reference moves to a node frame that
        # no frame of the path is orthogonal to
        fact = spin_factorization(lambda ts: math.pi * ts)
        v, sol = propagate_inertial(fact, self.V0, t)
        want, dyn, geo = grid_inertial(fact, self.V0, t)
        assert np.max(np.abs(v.coeffs - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.max(np.abs(sol.dyn_phase - dyn)) <= 1e-9
        assert np.max(np.abs(sol.geo_phase - geo)) <= 1e-9

    def test_tls_axis_turning_past_a_right_angle(self):
        # chi runs from -1.25 to 1.25, so the zero mode's axis (1, 0, chi)
        # turns by 103 degrees over the ramp
        seed = TLSModel(protocol=TLSProtocol(8.0, math.sqrt(20.0**2 - 8.0**2), 0.0, 5.0))
        model = seed.for_duration(0.5, 19.9)
        fact, v0 = model.factorization(), initial_vector(model)
        v, _ = propagate_inertial(fact, v0, 0.5)
        want, _, _ = grid_inertial(fact, v0, 0.5)
        assert np.max(np.abs(v.coeffs - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("t", [2.0, 2.4])
    def test_vanishing_reference_overlap(self, t):
        # turning by pi / 2 or more against every node frame raises
        # SingularDenominator: from t = 2 the frames turn by pi or more,
        # so each node frame is orthogonal to the path somewhere
        fact = spin_factorization(lambda ts: math.pi * ts)
        with pytest.raises(SingularDenominator):
            propagate_inertial(fact, self.V0, t)

    def test_node_cap_raises_not_converged(self):
        model = sweep_ramp("ho", 1.0)
        with pytest.raises(NotConverged):
            propagate_inertial(model.factorization(), initial_vector(model), 1.0, phase_tol=0.0)

    @pytest.mark.parametrize("kind", ["ho", "tls"])
    @pytest.mark.parametrize("t", [1e-300, 1e-12])
    def test_tiny_durations(self, kind, t):
        # at 1e-12 the state has moved by about Omega t |v0|, 1e-11, so the
        # exact vector is the reference; at 1e-300 it is v0 itself
        model = sweep_ramp(kind, 1.0)
        fact, v0 = model.factorization(), initial_vector(model)
        v, _ = propagate_inertial(fact, v0, t)
        assert np.all(np.isfinite(v.coeffs))
        scale = np.max(np.abs(v0.coeffs))
        assert np.max(np.abs(v.coeffs - model.exact_vector(t).coeffs)) <= 1e-12 * scale
        if t < 1e-100:
            assert np.max(np.abs(v.coeffs - v0.coeffs)) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["ho", "tls"])
    def test_counts_are_deterministic(self, kind):
        model = sweep_ramp(kind, 5.0)
        fact, v0 = model.factorization(), initial_vector(model)
        _, first = propagate_inertial(fact, v0, 5.0)
        _, second = propagate_inertial(fact, v0, 5.0)
        assert (first.nodes, first.delta) == (second.nodes, second.delta)
        assert first.nodes >= 33 and 0.0 <= first.delta < 1e-10

    @pytest.mark.parametrize("kind", ["ho", "tls"])
    def test_batch_points_match_the_one_point_view(self, kind):
        # t = 0 takes the start frame, and on the two-level ramp t_f = 5
        # retires a level after the others; each point is the point alone
        cases = [(0.5, 0.5), (5.0, 5.0), (1.0, 0.0), (2.0, 1.3)]
        models = [sweep_ramp(kind, t_f) for t_f, _ in cases]
        facts = [m.factorization() for m in models]
        v0s = [initial_vector(m) for m in models]
        ts = [t for _, t in cases]
        batch = propagate_inertial_batch(facts, v0s, ts)
        for fact, v0, t, (v, sol) in zip(facts, v0s, ts, batch, strict=True):
            v_alone, alone = propagate_inertial(fact, v0, t)
            assert (sol.nodes, sol.delta) == (alone.nodes, alone.delta)
            assert np.array_equal(v.coeffs, v_alone.coeffs)
            assert np.array_equal(sol.Lambda, alone.Lambda)
        assert [sol.nodes for _, sol in batch] == [33, 65 if kind == "tls" else 33, 1, 33]

    def test_batch_needs_one_structure(self):
        ho, tls = sweep_ramp("ho", 1.0), sweep_ramp("tls", 1.0)
        facts = [ho.factorization(), tls.factorization()]
        v0s = [initial_vector(ho), initial_vector(tls)]
        with pytest.raises(ValueError, match="block layout"):
            propagate_inertial_batch(facts, v0s, [1.0, 1.0])
        with pytest.raises(ValueError, match="one generator"):
            propagate_adiabatic_batch(facts, v0s, [1.0, 1.0])
        assert propagate_inertial_batch([], [], []) == []
        assert propagate_adiabatic_batch([], [], []) == []

    @pytest.mark.parametrize(
        "batch, alone",
        [
            (lambda *a: [v for v, _ in propagate_inertial_batch(*a)],
             lambda *a: propagate_inertial(*a)[0]),
            (propagate_adiabatic_batch, propagate_adiabatic),
        ],
        ids=["inertial", "adiabatic"],
    )
    def test_batch_time_errors_name_their_points(self, batch, alone):
        # t_max = 5: each error names every point it flags by batch index,
        # with the text of the point alone, ValueError before DomainExceeded;
        # settling the batch flags t = 6 and keeps t = 1 as it is alone
        model = HOModel(protocol=HOProtocol(20.0, 0.01, 0.0))
        fact, v0 = model.factorization(), initial_vector(model)

        def run(ts):
            return batch([fact] * len(ts), [v0] * len(ts), ts)

        def error(call):
            with pytest.raises((ValueError, DomainExceeded)) as caught:
                call()
            return type(caught.value), str(caught.value), dict(caught.value.nodes)

        late, early = error(lambda: alone(fact, v0, 6.0)), error(lambda: alone(fact, v0, -1.0))
        assert error(lambda: run([6.0, -1.0, 1.0, -1.0])) == (
            ValueError, early[1], {1: early[1], 3: early[1]})
        assert error(lambda: run([1.0, 6.0, 7.0])) == (
            DomainExceeded, late[1], {1: late[1], 2: "t=7.0 is at or beyond the protocol domain"})
        ts = [1.0, 6.0]
        kept, values, failed = settle(lambda k: run([ts[j] for j in k]), len(ts))
        assert list(kept) == [0]
        assert failed == {1: f"DomainExceeded: {late[1]}"}
        assert values[0].coeffs.tobytes() == alone(fact, v0, 1.0).coeffs.tobytes()


class TestPurityPreservation:
    def test_pure_bloch_state_stays_pure(self):
        model, fact, _ = tls_setup(chi0=-0.03, abar=2e-3)
        p = model.protocol
        # Bloch vector (0, 0, 1) at t = 0 in the physical basis (H, L, C, I)
        v0 = LiouvilleVector(
            coeffs=np.array([p.omega(0.0) / 2, -p.epsilon / 2, 0.0, 1.0], dtype=complex),
            t=0.0,
            theta=p.theta(0.0),
        )
        for t in (0.3, 0.8, 1.2):
            v = propagate_exact(fact, v0, t)
            state = reconstruct_state(model, v, t)
            assert abs(state.norm() - 1.0) < 1e-9
