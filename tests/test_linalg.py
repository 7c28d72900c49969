import numpy as np
import pytest

from liouvdyn.errors import AmbiguousMatching, DegenerateSpectrum, NotDiagonalizable
from liouvdyn import linalg, models
from liouvdyn.linalg import EigenFrame, bi_eigendecompose, eigenframes, track_continuity

import oracles


def ho_upper(mu):
    return 1j * np.array([[0, -mu, 0], [-mu, 0, 2], [0, -2, 0]], dtype=complex)


def ho_lower(mu):
    return 1j * np.array([[mu / 2, -1], [1, -mu / 2]], dtype=complex)


def tls(mu):
    return 1j * np.array([[0, -mu, 0], [mu, 0, -1], [0, 1, 0]], dtype=complex)


def turned(solve, nodes=slice(None)):
    """``solve`` with the first two eigenvectors of the ``nodes`` of a stack
    turned by 1e-6 into each other: an orthonormal frame that no longer
    diagonalizes."""
    c, s = np.cos(1e-6), np.sin(1e-6)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def spoiled(M):
        lam, vr = solve(M)
        vr[nodes] = vr[nodes] @ turn
        return lam, vr

    return spoiled


class TestClosedFormEigensystems:
    @pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, 1.0, 1.9])
    def test_ho_upper_block(self, mu):
        lambdas, directions = oracles.ho_upper_eigensystem(mu)
        frame = bi_eigendecompose(ho_upper(mu))
        assert np.allclose(frame.lambdas, lambdas, atol=1e-10)
        for k, d in enumerate(directions):
            assert np.allclose(frame.right(k), oracles.gauge_align(d), atol=1e-10)

    @pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, 1.0, 1.9])
    def test_ho_lower_block(self, mu):
        lambdas, directions = oracles.ho_lower_eigensystem(mu)
        frame = bi_eigendecompose(ho_lower(mu))
        assert np.allclose(frame.lambdas, lambdas, atol=1e-10)
        for k, d in enumerate(directions):
            assert np.allclose(frame.right(k), oracles.gauge_align(d), atol=1e-10)

    @pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, 1.0])
    def test_tls_block(self, mu):
        lambdas, directions = oracles.tls_eigensystem(mu)
        frame = bi_eigendecompose(tls(mu))
        assert np.allclose(frame.lambdas, lambdas, atol=1e-10)
        for k, d in enumerate(directions):
            assert np.allclose(frame.right(k), oracles.gauge_align(d), atol=1e-10)

    def test_real_spectra_inside_validity_range(self):
        for mu in np.linspace(-1.95, 1.95, 21):
            for B in (ho_upper(mu), ho_lower(mu), tls(mu)):
                frame = bi_eigendecompose(B)
                assert np.max(np.abs(frame.lambdas.imag)) < 1e-10

    def test_diagonal_matrix_is_its_own_frame(self):
        frame = bi_eigendecompose(np.diag([1j, 2j, 3j]))
        assert np.allclose(frame.lambdas, [1j, 2j, 3j])
        assert np.allclose(frame.rights, np.eye(3))
        assert np.allclose(frame.lefts, np.eye(3))


class TestFrameInvariants:
    def _random_frames(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            yield B, bi_eigendecompose(B)

    def test_biorthonormality(self):
        for _, frame in self._random_frames():
            cross = frame.lefts.conj().T @ frame.rights
            assert np.max(np.abs(cross - np.eye(frame.dim))) < 1e-12

    def test_eigenpair_residuals(self):
        for B, frame in self._random_frames():
            residual = B @ frame.rights - frame.rights * frame.lambdas
            assert np.max(np.abs(residual)) < 1e-10

    def test_reconstruction(self):
        for B, frame in self._random_frames():
            recon = (frame.rights * frame.lambdas) @ frame.lefts.conj().T
            assert np.linalg.norm(recon - B) < 1e-9

    def test_identity_resolution(self):
        for _, frame in self._random_frames():
            err = frame.rights @ frame.lefts.conj().T - np.eye(frame.dim)
            assert np.max(np.abs(err)) < 1e-10

    def test_left_vectors_solve_adjoint_problem(self):
        for B, frame in self._random_frames():
            residual = (
                B.conj().T @ frame.lefts - frame.lefts * frame.lambdas.conj()
            )
            assert np.max(np.abs(residual)) < 1e-8

    def test_frames_are_immutable(self):
        frame = bi_eigendecompose(tls(0.5))
        with pytest.raises(ValueError):
            frame.rights[0, 0] = 0.0


class TestFailureModes:
    def test_exceptional_point_raises(self):
        # at the spectral collapse the generator is a genuine Jordan block
        with pytest.raises(NotDiagonalizable):
            bi_eigendecompose(ho_upper(2.0))

    def test_repeated_eigenvalues_raise(self):
        with pytest.raises(DegenerateSpectrum):
            bi_eigendecompose(np.diag([1j, 1j, 2j]))

    def test_near_defective_raises(self):
        B = np.array([[1.0, 1e10], [0.0, 1.001]], dtype=complex)
        with pytest.raises(NotDiagonalizable):
            bi_eigendecompose(B)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_guard_holds_past_the_squared_float_range(self, monkeypatch):
        # entries of 1e160 square past 1e308, yet the residual bound stays
        # finite: exact frames pass, and eigenvectors each turned by 1e-6
        # into their neighbour, still orthonormal, fail.  The tls
        # generator is Hermitian, so it is eigh that is spoiled
        B = 1e160 * tls(0.3)
        bi_eigendecompose(B)
        monkeypatch.setattr(np.linalg, "eigh", turned(np.linalg.eigh))
        with pytest.raises(NotDiagonalizable, match="residual"):
            bi_eigendecompose(B)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_guard_of_the_general_route(self, monkeypatch):
        # the same spoil of the closed form and of eig, which diagonalizes
        # the non-Hermitian oscillator block again when its closed form fails
        B = 1e160 * ho_upper(0.3)
        bi_eigendecompose(B)
        monkeypatch.setattr(linalg, "_closed_eigensystem", turned(linalg._closed_eigensystem))
        monkeypatch.setattr(np.linalg, "eig", turned(np.linalg.eig))
        with pytest.raises(NotDiagonalizable, match="residual"):
            bi_eigendecompose(B)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_spoiled_closed_form_falls_back_to_eig(self, monkeypatch):
        # the residual guard rejects the spoiled closed-form frames of the
        # middle node alone; eig diagonalizes it again, and the frames of
        # every node are those of its own route bit for bit
        B = 1e160 * np.stack([ho_upper(0.3), ho_upper(-1.2), ho_upper(1.7)])
        closed = eigenframes(B)
        monkeypatch.setattr(linalg, "_closed_eigensystem", turned(linalg._closed_eigensystem, 1))
        frames = eigenframes(B)
        general = linalg._framed(B[1:2], *np.linalg.eig(B[1:2]), linalg._inverse)
        for got, want, eig in zip(frames, closed, general, strict=True):
            assert got[[0, 2]].tobytes() == want[[0, 2]].tobytes()
            assert got[1].tobytes() == eig[0].tobytes()
            assert got[1].tobytes() != want[1].tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "B, solver, closed",
        [
            (9.5e307 * tls(0.3), "eigh", False),
            (5e307 * ho_upper(0.3), "eig", True),
            (1.5e308 * tls(0.3), "eigh", False),
        ],
        ids=["eigh", "eig", "eigh-norm-past-the-largest-double"],
    )
    def test_residual_guard_holds_for_entries_past_2_to_the_1023(
        self, monkeypatch, B, solver, closed
    ):
        # the power of two of such an entry, 2^1024, is no double, and at
        # 1.5e308 the Frobenius norm is none either: residual and bound are
        # compared in units of that power of two
        assert np.abs(B).max() >= 2.0**1023
        bi_eigendecompose(B)
        monkeypatch.setattr(np.linalg, solver, turned(getattr(np.linalg, solver)))
        if closed:
            monkeypatch.setattr(linalg, "_closed_eigensystem", turned(linalg._closed_eigensystem))
        with pytest.raises(NotDiagonalizable, match="residual"):
            bi_eigendecompose(B)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("chi", [9e307, -9e307, 1.7e308, -1.7e308])
    @pytest.mark.parametrize("family", ["TLS_FAMILY", "TLS_EMBEDDED_FAMILY", "HO_FAMILY"])
    def test_families_at_the_top_of_the_double_range_warn_nothing(self, family, chi):
        # gaps and norms past the double range end at inf without a warning
        family = getattr(models, family)
        lam = eigenframes(family(np.array([chi])), blocks=family.blocks)[0]
        assert np.isfinite(lam).all()

    def test_hermitian_route_checks_orthonormality(self, monkeypatch):
        # eigenvectors each mixed with 1e-6 of their neighbour are no
        # longer orthonormal, so their adjoint is no inverse
        eigh = np.linalg.eigh

        def mixed(M):
            lam, vr = eigh(M)
            return lam, vr + 1e-6 * np.roll(vr, 1, axis=-1)

        monkeypatch.setattr(np.linalg, "eigh", mixed)
        with pytest.raises(NotDiagonalizable, match="bi-orthonormality"):
            bi_eigendecompose(tls(0.3))

    def test_hermitian_lefts_are_the_rights_in_their_own_array(self):
        frame = bi_eigendecompose(tls(0.3))
        assert np.array_equal(frame.lefts, frame.rights)
        assert not np.shares_memory(frame.lefts, frame.rights)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            bi_eigendecompose(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        B = np.eye(2) * np.nan
        with pytest.raises(ValueError):
            bi_eigendecompose(B)


class TestContinuityTracking:
    def test_identity(self):
        frame = bi_eigendecompose(tls(0.5))
        alignment = track_continuity(frame, frame)
        assert np.array_equal(alignment.permutation, [0, 1, 2])
        assert np.allclose(alignment.phases, 1.0)
        assert np.allclose(alignment.frame.rights, frame.rights)

    def test_swap_recovered(self):
        frame = bi_eigendecompose(tls(0.5))
        perm = [1, 0, 2]
        swapped = EigenFrame(
            lambdas=frame.lambdas[perm].copy(),
            rights=frame.rights[:, perm].copy(),
            lefts=frame.lefts[:, perm].copy(),
        )
        alignment = track_continuity(frame, swapped)
        assert np.array_equal(alignment.permutation, perm)
        assert np.allclose(alignment.frame.lambdas, frame.lambdas)

    def test_small_parameter_step_keeps_order(self):
        prev = bi_eigendecompose(ho_upper(0.5))
        nxt = bi_eigendecompose(ho_upper(0.51))
        alignment = track_continuity(prev, nxt)
        assert np.array_equal(alignment.permutation, [0, 1, 2])

    def test_transported_overlaps_are_real_positive(self):
        prev = bi_eigendecompose(ho_upper(0.3))
        nxt = bi_eigendecompose(ho_upper(0.32))
        aligned = track_continuity(prev, nxt).frame
        for k in range(3):
            s = np.vdot(prev.left(k), aligned.right(k))
            assert abs(s.imag) < 1e-14
            assert s.real > 0

    def test_transport_preserves_biorthonormality(self):
        prev = bi_eigendecompose(ho_upper(0.3))
        nxt = bi_eigendecompose(ho_upper(0.32))
        aligned = track_continuity(prev, nxt).frame
        cross = aligned.lefts.conj().T @ aligned.rights
        assert np.max(np.abs(cross - np.eye(3))) < 1e-12

    def test_ambiguous_crossing_raises(self):
        prev = bi_eigendecompose(np.diag([1.0, -1.0]).astype(complex))
        nxt = bi_eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        with pytest.raises(AmbiguousMatching):
            track_continuity(prev, nxt)

    def test_eigenvalue_curves_continuous_along_sweep(self):
        chis = np.linspace(0.0, 1.9, 96)
        frame = bi_eigendecompose(ho_upper(chis[0]))
        lams = [frame.lambdas]
        for chi in chis[1:]:
            frame = track_continuity(
                frame, bi_eigendecompose(ho_upper(chi))
            ).frame
            lams.append(frame.lambdas)
        lams = np.array(lams)
        slopes = np.abs(np.diff(lams, axis=0)) / np.diff(chis)[:, None]
        # d/dchi sqrt(4 - chi^2) = -chi/kappa, at most 3.05 on this sweep
        assert np.max(slopes) < 3.2
