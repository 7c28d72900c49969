import math

import numpy as np
import pytest

from liouvdyn.diagnostics import (
    SweepResult,
    adiabatic_parameter,
    fidelity,
    fidelity_sweep,
    ho_inertial_parameter_closed,
    inertial_parameter_at,
    log_time_grid,
    max_parameters_along,
    one_minus_fidelity,
)
from liouvdyn.engine import GeneratorFactorization
from liouvdyn.errors import DegenerateSpectrum, SingularDenominator, UnphysicalState
from liouvdyn.linalg import bi_eigendecompose
from liouvdyn.models import (
    BlochState,
    GaussianState,
    HOModel,
    HOProtocol,
    TLSModel,
    TLSProtocol,
    ho_generator,
    tls_generator,
)

from oracles import (
    fock_gaussian_fidelity,
    gauge_align,
    ho_lower_eigensystem,
    ho_upper_eigensystem,
    tls_eigensystem,
)

# derivative matrices of the locked generator conventions, restated here
# so the tests do not lean on the package's own grad functions
GRAD_UPPER = 1j * np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
GRAD_LOWER = 1j * np.array([[0.5, 0.0], [0.0, -0.5]])
GRAD_TLS = 1j * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def fig1_ho_model(t_f=1.0):
    proto = HOProtocol.solve_boundary(20.0, 10.0, t_f, -5e-3)
    return HOModel(protocol=proto)


def fig1_tls_model(t_f=1.0):
    proto = TLSProtocol.solve_boundary(20.0, 10.0, 8.0, t_f, -5e-3)
    return TLSModel(protocol=proto)


def oracle_frame(eigensystem, mu):
    """Bi-orthonormal frame from the closed-form direction vectors."""
    lambdas, directions = eigensystem(mu)
    R = np.column_stack([gauge_align(d) for d in directions])
    G = np.linalg.inv(R).conj().T
    return lambdas, R, G


def pair_sum(lambdas, R, G, grad, rate):
    """Matrix-element route: sum |G_k^H dB F_n / gap^2 * rate| over pairs."""
    dim = len(lambdas)
    total = 0.0
    for k in range(dim):
        for n in range(dim):
            if n == k:
                continue
            gap = lambdas[n] - lambdas[k]
            total += abs(np.vdot(G[:, k], grad @ R[:, n]) / gap**2 * rate)
    return total


class TestAdiabaticParameter:
    def test_ho_linear_ramp_identity(self):
        model = HOModel(protocol=HOProtocol(20.0, -0.05, -5e-3))
        for t in (0.0, 0.3, 1.1, 2.7):
            assert abs(adiabatic_parameter(model, t) - (-0.05 - 5e-3 * t)) < 1e-10

    def test_ho_finite_difference(self):
        p = HOProtocol(20.0, -0.04, 2e-3)
        model = HOModel(protocol=p)
        t, h = 0.7, 1e-6
        wdot_fd = (p.omega(t + h) - p.omega(t - h)) / (2.0 * h)
        expected = wdot_fd / p.omega(t) ** 2
        got = adiabatic_parameter(model, t)
        assert abs(got - expected) < 1e-6 * abs(expected)

    def test_tls_linear_ramp_identity(self):
        model = TLSModel(protocol=TLSProtocol(8.0, math.sqrt(336.0), -0.0375, -4e-3))
        for t in (0.0, 0.5, 1.5):
            assert abs(adiabatic_parameter(model, t) - (-0.0375 - 4e-3 * t)) < 1e-10

    def test_rejects_other_objects(self):
        with pytest.raises(ValueError):
            adiabatic_parameter(object(), 0.0)


def frozen_fact(B_of_chi, mu, grad, rate):
    """Factorization held at chi = mu while moving at dchi/dtheta = rate."""
    return GeneratorFactorization(
        omega_of_t=lambda t: 1.0,
        B_of_chi=B_of_chi,
        chi_of_t=lambda t: np.full(np.shape(t), mu),
        grad_B=lambda chi: grad,
        dchi_dtheta=lambda t: np.full(np.shape(t), rate),
    )


def ho_upper(chi):
    return ho_generator(chi)[..., :3, :3]


def ho_lower(chi):
    return ho_generator(chi)[..., 3:5, 3:5]


class TestInertialParameterAt:
    def fd_route(self, eigensystem, mu, rate, h=1e-5):
        """Eigenvector-derivative route.

        Uses the identity G_k^H dF_n = G_k^H dB F_n / (lambda_n - lambda_k)
        with dF_n from central differences of the closed-form frame, so the
        summand is built without ever forming the matrix elements of dB.
        """
        lambdas, R, G = oracle_frame(eigensystem, mu)
        _, Rp, _ = oracle_frame(eigensystem, mu + h)
        _, Rm, _ = oracle_frame(eigensystem, mu - h)
        dR = (Rp - Rm) / (2.0 * h)
        dim = len(lambdas)
        total = 0.0
        for k in range(dim):
            for n in range(dim):
                if n == k:
                    continue
                gap = lambdas[n] - lambdas[k]
                total += abs(np.vdot(G[:, k], dR[:, n]) / gap * rate)
        return total

    @pytest.mark.parametrize("mu", [0.25, 0.7])
    def test_ho_upper_block_dual_route(self, mu):
        rate = -2.5e-4
        got = inertial_parameter_at(frozen_fact(ho_upper, mu, GRAD_UPPER, rate), 0.0)
        expected = self.fd_route(ho_upper_eigensystem, mu, rate)
        assert abs(got - expected) < 1e-7 * expected

    @pytest.mark.parametrize("mu", [0.25, 0.7])
    def test_ho_lower_block_dual_route(self, mu):
        rate = 3e-4
        got = inertial_parameter_at(frozen_fact(ho_lower, mu, GRAD_LOWER, rate), 0.0)
        expected = self.fd_route(ho_lower_eigensystem, mu, rate)
        assert abs(got - expected) < 1e-7 * expected

    def test_tls_block_dual_route(self):
        mu, rate = 0.4, 1e-3
        got = inertial_parameter_at(frozen_fact(tls_generator, mu, GRAD_TLS, rate), 0.0)
        expected = self.fd_route(tls_eigensystem, mu, rate)
        assert abs(got - expected) < 1e-7 * expected

    def test_zero_rate(self):
        fact = frozen_fact(ho_upper, 0.5, GRAD_UPPER, 0.0)
        assert inertial_parameter_at(fact, 0.0) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_generator_scale_past_the_squared_float_range(self):
        # scaling B and dB/dchi by s scales Upsilon by 1/s; at s = 2^520
        # the squared gaps and the frame residual bound pass 1e308
        s = 2.0**520
        ref = inertial_parameter_at(frozen_fact(tls_generator, 0.4, GRAD_TLS, 1e-3), 0.0)
        big = frozen_fact(lambda chi: s * tls_generator(chi), 0.4, s * GRAD_TLS, 1e-3)
        assert inertial_parameter_at(big, 0.0) * s == pytest.approx(ref, rel=1e-12)

    def test_degenerate_spectrum(self):
        # a gap of 1e-6 passes the frames' absolute 1e-8 gap, but not the
        # pair sum's 1e-8 relative to |lambda| = 1e3
        spectrum = np.diag([0.0, 1e3, 1e3 + 1e-6]).astype(complex)
        fact = frozen_fact(
            lambda chi: np.tile(spectrum, (len(chi), 1, 1)), 0.0, GRAD_UPPER, 1.0
        )
        with pytest.raises(DegenerateSpectrum):
            inertial_parameter_at(fact, 0.0)

    def test_ho_matches_manual_assembly(self):
        model = fig1_ho_model()
        p = model.protocol
        t = 0.5
        mu = p.chi0 + p.a * t
        rate = p.a / p.omega(t)
        expected = pair_sum(
            *oracle_frame(ho_upper_eigensystem, mu), GRAD_UPPER, rate
        ) + pair_sum(*oracle_frame(ho_lower_eigensystem, mu), GRAD_LOWER, rate)
        got = inertial_parameter_at(model.factorization(), t)
        assert abs(got - expected) < 1e-10 * expected

    def test_tls_matches_manual_assembly(self):
        model = fig1_tls_model()
        p = model.protocol
        t = 0.4
        mu = p.chi0 + p.abar * t
        rate = p.abar / p.Omega(t)
        expected = pair_sum(*oracle_frame(tls_eigensystem, mu), GRAD_TLS, rate)
        got = inertial_parameter_at(model.factorization(), t)
        assert abs(got - expected) < 1e-10 * expected

    def test_linear_in_ramp_acceleration(self):
        # at t = 0 the parameter point is a-independent, so Upsilon is
        # exactly proportional to the ramp acceleration
        vals = []
        for a in (-4e-3, -2e-3):
            fact = HOModel(protocol=HOProtocol(20.0, -0.05, a)).factorization()
            vals.append(inertial_parameter_at(fact, 0.0))
        assert abs(vals[0] / vals[1] - 2.0) < 1e-9

    def test_requires_gradient_data(self):
        fact = GeneratorFactorization(
            omega_of_t=lambda t: 20.0,
            B_of_chi=ho_generator,
            chi_of_t=lambda t: -0.05,
        )
        with pytest.raises(ValueError):
            inertial_parameter_at(fact, 0.0)


class TestClosedFormUpsilon:
    def test_matches_simplified_expression(self):
        # algebraic reduction of the frequency-profile formula for the
        # linear ramp family: |mu^2 a w| / (4 kappa^2 |a w L - mu^2 w^2|)
        p = fig1_ho_model().protocol
        for t in (0.2, 0.5, 0.9):
            w = p.omega(t)
            mu = p.chi0 + p.a * t
            L = math.log(w / p.omega0)
            kappa_sq = 4.0 - mu * mu
            expected = abs(
                mu * mu * p.a * w / (4.0 * kappa_sq * (p.a * w * L - mu * mu * w * w))
            )
            got = ho_inertial_parameter_closed(t, p)
            assert abs(got - expected) < 1e-12 * expected

    def test_steady_ramp_vanishes(self):
        p = HOProtocol(20.0, -0.05, 0.0)
        assert ho_inertial_parameter_closed(1.3, p) < 1e-12

    def test_static_protocol(self):
        assert ho_inertial_parameter_closed(0.7, HOProtocol(20.0, 0.0, 0.0)) == 0.0

    def test_start_from_rest_is_singular(self):
        with pytest.raises(SingularDenominator):
            ho_inertial_parameter_closed(0.0, HOProtocol(20.0, 0.0, -5e-3))

    def test_mode_collapse_is_singular(self):
        with pytest.raises(SingularDenominator):
            ho_inertial_parameter_closed(1e-3, HOProtocol(20.0, 2.5, 0.0))


def ground_gaussian(omega, q=0.0, p=0.0):
    return GaussianState(q, p, 0.5 / omega, 0.5 * omega, 0.0)


class TestFidelity:
    def test_identical_states(self):
        g = GaussianState(0.1, -0.2, 0.06, 6.0, 0.01)
        b = BlochState(np.array([0.2, -0.1, 0.4]))
        for s in (g, b):
            assert one_minus_fidelity(s, s) < 1e-14

    def test_orthogonal_pure_qubits(self):
        up = BlochState(np.array([0.0, 0.0, 1.0]))
        down = BlochState(np.array([0.0, 0.0, -1.0]))
        assert one_minus_fidelity(up, down) == 1.0

    def test_ground_state_pair_frozen_value(self):
        # 2 sqrt(w1 w2) / (w1 + w2) for two trap ground states; the number
        # is pinned after cross-checking against the number-basis oracle
        F = fidelity(ground_gaussian(20.0), ground_gaussian(10.0))
        assert abs(F - 0.9428090415820634) < 1e-12

    def test_displaced_pure_overlap(self):
        # coherent-state pair: 1 - F = 1 - exp(-(w dq^2 + dp^2/w)/2)
        w, dq, dp = 20.0, 0.3, -0.4
        got = one_minus_fidelity(ground_gaussian(w), ground_gaussian(w, dq, dp))
        expected = -math.expm1(-0.5 * (w * dq * dq + dp * dp / w))
        assert abs(got - expected) < 1e-12 * expected

    def test_symmetry(self):
        s1 = GaussianState(0.1, -0.2, 0.06, 6.0, 0.01)
        s2 = GaussianState(-0.3, 0.5, 0.04, 7.0, -0.02)
        assert abs(fidelity(s1, s2) - fidelity(s2, s1)) < 1e-13

    def test_bloch_rotation_invariance(self):
        c, s = math.cos(0.7), math.sin(0.7)
        Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        c, s = math.cos(0.4), math.sin(0.4)
        Rx = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        rot = Rz @ Rx
        r1 = np.array([0.3, 0.2, -0.4])
        r2 = np.array([-0.1, 0.5, 0.2])
        before = one_minus_fidelity(BlochState(r1), BlochState(r2))
        after = one_minus_fidelity(BlochState(rot @ r1), BlochState(rot @ r2))
        assert abs(before - after) < 1e-12

    def test_gaussian_against_number_basis_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            states = []
            for _ in range(2):
                q, p = rng.normal(0.0, 0.8, size=2)
                nbar = rng.uniform(0.0, 0.8)
                r = rng.uniform(0.0, 0.6)
                phi = rng.uniform(0.0, math.pi)
                nu = nbar + 0.5
                cw, sw = math.cos(phi), math.sin(phi)
                R = np.array([[cw, -sw], [sw, cw]])
                V = nu * R @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ R.T
                states.append(GaussianState(q, p, V[0, 0], V[1, 1], V[0, 1]))
            F_closed = fidelity(states[0], states[1])
            F_fock = fock_gaussian_fidelity(
                np.array([states[0].q, states[0].p]),
                states[0].covariance(),
                np.array([states[1].q, states[1].p]),
                states[1].covariance(),
            )
            assert abs(F_closed - F_fock) < 1e-8

    def test_variant_mismatch(self):
        with pytest.raises(ValueError):
            one_minus_fidelity(ground_gaussian(20.0), BlochState(np.zeros(3)))

    def test_unphysical_inputs_rejected(self):
        with pytest.raises(UnphysicalState):
            one_minus_fidelity(
                GaussianState(0.0, 0.0, 0.3, 0.3, 0.0), ground_gaussian(20.0)
            )
        with pytest.raises(UnphysicalState):
            one_minus_fidelity(
                BlochState(np.array([1.0, 1.0, 1.0])), BlochState(np.zeros(3))
            )


class TestLogTimeGrid:
    def test_endpoints_and_spacing(self):
        g = log_time_grid(0.05, 5.0, 20)
        assert g.shape == (20,)
        assert abs(g[0] - 0.05) < 1e-15 and abs(g[-1] - 5.0) < 1e-12
        ratios = g[1:] / g[:-1]
        assert np.all(np.abs(ratios - ratios[0]) < 1e-12)

    def test_validation(self):
        for args in ((0.0, 5.0, 20), (5.0, 0.05, 20), (0.05, 5.0, 1)):
            with pytest.raises(ValueError):
                log_time_grid(*args)


class TestSweepResult:
    def make(self):
        return SweepResult(
            t_f=np.array([0.5, 1.0]),
            fidelity_inertial=np.array([0.999, math.nan]),
            fidelity_adiabatic=np.array([0.99, math.nan]),
            max_abs_mu=np.array([0.05, math.nan]),
            max_upsilon=np.array([1e-5, math.nan]),
            neg_log10_one_minus_fidelity=np.array([3.0, math.nan]),
            errors=(None, "DomainExceeded: boom"),
        )

    def test_round_trip(self):
        res = self.make()
        rows = list(res.rows())
        assert len(rows) == 2 and rows[0][0] == 0.5
        d = res.to_dict()
        assert set(d) == set(SweepResult.COLUMNS) | {"errors"}
        assert d["errors"][1].startswith("DomainExceeded")

    def test_columns_frozen(self):
        res = self.make()
        with pytest.raises(ValueError):
            res.t_f[0] = 2.0

    def test_length_validation(self):
        with pytest.raises(ValueError):
            SweepResult(
                t_f=np.array([0.5, 1.0]),
                fidelity_inertial=np.array([0.999]),
                fidelity_adiabatic=np.array([0.99, 0.99]),
                max_abs_mu=np.array([0.05, 0.05]),
                max_upsilon=np.array([1e-5, 1e-5]),
                neg_log10_one_minus_fidelity=np.array([3.0, 3.0]),
                errors=(None, None),
            )

    def test_fidelity_bound_validation(self):
        with pytest.raises(ValueError):
            SweepResult(
                t_f=np.array([0.5]),
                fidelity_inertial=np.array([1.0 + 2e-9]),
                fidelity_adiabatic=np.array([0.99]),
                max_abs_mu=np.array([0.05]),
                max_upsilon=np.array([1e-5]),
                neg_log10_one_minus_fidelity=np.array([3.0]),
                errors=(None,),
            )


class TestMaxParametersAlong:
    def test_fig1_oscillator_point(self):
        model = fig1_ho_model()
        mu_max, ups_max = max_parameters_along(model, 1.0)
        assert abs(mu_max - 0.0525) < 1e-12
        assert 1e-6 < ups_max < 1e-4
        assert ups_max < mu_max

    def test_fig1_spin_point(self):
        model = fig1_tls_model()
        mu_max, ups_max = max_parameters_along(model, 1.0)
        # boundary kinematics of the mixing-coordinate ramp: z runs from
        # sqrt(1 - (eps/20)^2) to sqrt(1 - (eps/10)^2) in unit time
        z0 = math.sqrt(1.0 - (8.0 / 20.0) ** 2)
        zf = math.sqrt(1.0 - (8.0 / 10.0) ** 2)
        chi0 = (zf - z0) / 8.0 + 0.5 * 5e-3
        assert abs(mu_max - abs(chi0 - 5e-3)) < 1e-12
        assert 0.0 < ups_max < mu_max

    def test_spin_stack_matches_node_by_node_loop(self):
        # the stacked kernel sums the pairs in another order than this
        # per-node loop, so agreement is to rounding, not bit for bit
        model = fig1_tls_model(0.7)
        fact = model.factorization()
        ref = []
        for t in np.linspace(0.0, 0.7, 33):
            frame = bi_eigendecompose(fact.B_of_chi(fact.chi_of_t(t))[:3, :3])
            rate = fact.dchi_dtheta(t)
            ref.append(pair_sum(frame.lambdas, frame.rights, frame.lefts, GRAD_TLS, rate))
        _, ups_max = max_parameters_along(model, 0.7, samples=33)
        assert abs(ups_max - max(ref)) <= 1e-13 * max(ref)

    def test_start_from_rest_skips_singular_sample(self):
        model = HOModel(protocol=HOProtocol(20.0, 0.0, -5e-3))
        _, ups_max = max_parameters_along(model, 1.0)
        assert math.isfinite(ups_max) and ups_max > 0.0


class TestFidelitySweep:
    def test_oscillator_sweep(self):
        res = fidelity_sweep(fig1_ho_model(), [0.5, 1.0, 2.0, 4.0])
        assert all(e is None for e in res.errors)
        assert np.all(res.fidelity_inertial >= res.fidelity_adiabatic - 1e-9)
        assert np.all(res.fidelity_inertial > res.fidelity_adiabatic)
        assert np.all(res.max_upsilon < res.max_abs_mu)
        deficits = 10.0 ** (-res.neg_log10_one_minus_fidelity)
        assert np.allclose(deficits, 1.0 - res.fidelity_inertial, rtol=1e-3)

    def test_spin_sweep(self):
        res = fidelity_sweep(fig1_tls_model(), [0.3, 1.0, 3.0])
        assert all(e is None for e in res.errors)
        assert np.all(res.fidelity_inertial >= res.fidelity_adiabatic - 1e-9)
        assert np.all(res.max_upsilon < res.max_abs_mu)

    def test_explicit_target_matches_default(self):
        model = fig1_ho_model()
        a = fidelity_sweep(model, [1.0])
        b = fidelity_sweep(model, [1.0], omega_target=10.0)
        for name in SweepResult.COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_failed_point_is_recorded(self):
        # the steep ramp makes the t_f = 4 boundary problem leave the
        # protocol's domain while t_f = 0.5 stays solvable
        model = HOModel(protocol=HOProtocol(20.0, -0.05, -0.2))
        res = fidelity_sweep(model, [0.5, 4.0])
        assert res.errors[0] is None
        assert res.errors[1] is not None and "DomainExceeded" in res.errors[1]
        assert math.isnan(res.fidelity_inertial[1])
        assert math.isfinite(res.fidelity_inertial[0])

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            fidelity_sweep(fig1_ho_model(), [])
