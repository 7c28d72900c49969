import math

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liouvdyn.engine import (
    GeneratorFactorization,
    LiouvilleVector,
    propagate_inertial,
)
from liouvdyn.errors import (
    AmbiguousMatching,
    DegenerateSpectrum,
    NotConverged,
    UnsupportedDimension,
)
from liouvdyn import geometric
from liouvdyn.geometric import (
    GeneratorFamily,
    ParameterCircuit,
    _curvatures,
    _refine,
    geometric_phase_line,
    geometric_phase_surface,
    ho_family,
    liouville_curvature,
    surface_phases,
    tls_family,
    two_spin_local_family,
    two_spin_nonlocal_family,
)
from liouvdyn.linalg import eigenframes
from liouvdyn.models import (
    TLS_COUPLING,
    TWO_SPIN_CROSS_COUPLING,
    HOModel,
    HOProtocol,
    ho_generator,
    initial_vector,
    tls_generator_embedded,
    two_spin_generators,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# polar angle and radius of the anchor circuit; a two-state generator
# chi . sigma transported counterclockwise around this latitude circle
# picks up -pi (1 - cos theta) on its upper mode: the transport
# one-form of the upper eigenvector integrates to half the enclosed
# solid angle, independent of the radius
ANCHOR_THETA = 0.6
ANCHOR_RADIUS = 1.3
ANCHOR_PHASE = -math.pi * (1.0 - math.cos(ANCHOR_THETA))


ZERO = np.zeros((2, 2))


def spin_family():
    return GeneratorFamily(coupling=(ZERO, PAULI_X, PAULI_Y, PAULI_Z))


def curved_block_family():
    # chi . sigma on parameters 0-2 beside the flat three-level block of
    # the spin triple on parameter 0
    A0, A1 = TLS_COUPLING
    zero = np.zeros((3, 3))

    def stacked(spin, triple):
        return np.block([[spin, np.zeros((2, 3))], [np.zeros((3, 2)), triple]])

    return GeneratorFamily(
        coupling=(
            stacked(ZERO, 1j * A0),
            stacked(PAULI_X, 1j * A1),
            stacked(PAULI_Y, zero),
            stacked(PAULI_Z, zero),
        ),
        blocks=((0, 2), (2, 5)),
    )


def anchor_point(s):
    a = 2.0 * math.pi * s
    return np.array(
        [
            ANCHOR_RADIUS * math.sin(ANCHOR_THETA) * math.cos(a),
            ANCHOR_RADIUS * math.sin(ANCHOR_THETA) * math.sin(a),
            ANCHOR_RADIUS * math.cos(ANCHOR_THETA),
        ]
    )


def anchor_points(ts):
    """(N, 3) anchor-circle points at the times ts, each row anchor_point(t)."""
    return np.array([anchor_point(t) for t in ts])


def anchor_circuit(samples=64):
    return ParameterCircuit(path=anchor_point, closed=True, samples=samples)


def unstructured_nonlocal_family():
    # the nine cross-correlator generator without its Kronecker structure
    return GeneratorFamily(coupling=tuple(1j * A for A in TWO_SPIN_CROSS_COUPLING))


def unit_square_circuit():
    # 0.1-sided square centered at (0.3, 0.3); its corners and centroid
    # sit on the chi1 = chi2 line where the nine-dimensional spectrum
    # has accidental crossings between uncoupled product modes
    return ParameterCircuit.from_waypoints(
        [[0.25, 0.25], [0.35, 0.25], [0.35, 0.35], [0.25, 0.35]],
        closed=True,
    )


class TestParameterCircuit:
    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            ParameterCircuit(path=lambda s: np.array([s]), closed=False, samples=3)

    def test_rejects_open_endpoints_when_closed(self):
        with pytest.raises(ValueError):
            ParameterCircuit(path=lambda s: np.array([s]), closed=True)

    def test_rejects_inconsistent_path_shape(self):
        def path(s):
            return np.array([s]) if s < 0.5 else np.array([s, s])

        with pytest.raises(ValueError):
            ParameterCircuit(path=path, closed=False)

    def test_points_shape_and_endpoints(self):
        circ = anchor_circuit()
        pts = circ.points(10)
        assert pts.shape == (11, 3)
        assert np.allclose(pts[0], pts[-1], atol=1e-12)
        assert circ.dim == 3

    def test_scalar_path_is_wrapped(self):
        circ = ParameterCircuit(
            path=lambda s: 0.2 * math.sin(2.0 * math.pi * s), closed=True, samples=8
        )
        assert circ.dim == 1
        assert circ.points(4).shape == (5, 1)

    def test_waypoints_detect_closure(self):
        closed = ParameterCircuit.from_waypoints([[0, 0], [1, 0], [0, 1], [0, 0]])
        assert closed.closed
        open_ = ParameterCircuit.from_waypoints([[0, 0], [1, 0], [0, 1]])
        assert not open_.closed

    def test_waypoints_forced_closure_appends_start(self):
        circ = ParameterCircuit.from_waypoints(
            [[0, 0], [1, 0], [0, 1]], closed=True
        )
        assert circ.closed
        assert np.allclose(circ.path(1.0), [0, 0])

    def test_waypoints_default_samples_track_segments(self):
        assert unit_square_circuit().samples == 64

    def test_waypoints_need_two_points(self):
        with pytest.raises(ValueError):
            ParameterCircuit.from_waypoints([[0.0, 0.0]])

    def test_waypoint_interpolation_is_piecewise_linear(self):
        circ = ParameterCircuit.from_waypoints([[0, 0], [2, 0], [2, 2]])
        assert np.allclose(circ.path(0.25), [1.0, 0.0])
        assert np.allclose(circ.path(0.75), [2.0, 1.0])


class TestGeneratorFamily:
    def test_kronecker_sum_rejects_multiparameter_factors(self):
        with pytest.raises(ValueError):
            GeneratorFamily.kronecker_sum((spin_family(),))

    def test_kronecker_sum_matches_direct_cross_generator(self):
        fam = two_spin_nonlocal_family()
        chi = np.array([0.31, 0.17])
        direct = two_spin_generators(chi[0], chi[1])[1]
        assert np.max(np.abs(fam.matrices(chi[None])[0] - direct)) < 1e-14

    def test_kronecker_sum_gradients_match_direct(self):
        fam = two_spin_nonlocal_family()
        direct = [1j * A for A in TWO_SPIN_CROSS_COUPLING[1:]]
        for got, want in zip(fam.coupling[1:], direct, strict=True):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_kronecker_sum_coupling_is_the_cross_coupling(self):
        coupling = two_spin_nonlocal_family().coupling
        for got, want in zip(coupling, TWO_SPIN_CROSS_COUPLING, strict=True):
            assert np.array_equal(got, 1j * want)

    def test_derived_parameter_count(self):
        assert spin_family().n_params == 3
        assert two_spin_nonlocal_family().n_params == 2
        assert ho_family().n_params == 1

    def test_rejects_couplings_of_different_shapes(self):
        with pytest.raises(ValueError):
            GeneratorFamily(coupling=(ZERO, np.eye(3)))

    @given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8))
    def test_stack_equals_the_per_point_generators(self, points):
        # exact equality of every entry: the bundled generators compute
        # 1j (A0 + chi A1), the family 1j A0 + chi (1j A1), so only the
        # signs of zero real parts may differ
        chis = np.array(points)
        expected = [
            (ho_family(), [ho_generator(x) for x, _ in points]),
            (tls_family(), [tls_generator_embedded(x) for x, _ in points]),
            (two_spin_local_family(), [two_spin_generators(x, y)[0] for x, y in points]),
            (two_spin_nonlocal_family(), [two_spin_generators(x, y)[1] for x, y in points]),
        ]
        for fam, mats in expected:
            assert np.array_equal(fam.matrices(chis[:, : fam.n_params]), np.array(mats))


class TestRefine:
    def test_second_order_sequence_converges(self):
        calls = []

        def evaluate(n):
            calls.append(n)
            return 0.7 + 3.0 / n**2

        assert abs(_refine(evaluate, 64) - 0.7) < 1e-9
        assert len(calls) <= 5

    def test_flat_sequence_returns_immediately(self):
        calls = []

        def evaluate(n):
            calls.append(n)
            return 0.25

        assert _refine(evaluate, 64) == 0.25
        assert len(calls) == 2

    def test_ambiguous_levels_are_skipped(self):
        def evaluate(n):
            if n < 256:
                raise AmbiguousMatching("coarse")
            return 0.7 + 3.0 / n**2

        assert abs(_refine(evaluate, 64) - 0.7) < 1e-9

    def test_non_contracting_sequence_raises(self):
        def evaluate(n):
            return math.sin(float(n))

        with pytest.raises(NotConverged):
            _refine(evaluate, 64)


SEQUENCE_KINDS = ("flat", "second", "third", "fourth", "stall", "never")
# level increments of the "stall" kind: contraction by 4, a pause at 1.5,
# then by 4 again, so an extrapolant kept across the pause must be used
STALL_STEPS = np.cumsum([0.0, 1.0, 1 / 4, 1 / 6, 1 / 24, 1 / 96, 1 / 384, 1 / 1536])


def mode_sequence(kind, c, a):
    """Estimates of one mode at n samples: flat, power-law or oscillating."""
    if kind == "flat":
        return lambda n: c
    if kind == "stall":
        scale = (3.0 + abs(a) / 25.0) * 1e-8
        return lambda n: c + scale * STALL_STEPS[int(math.log2(n // 64))]
    if kind == "never":
        return lambda n: c + math.sin(float(n) + a)
    order = {"second": 2, "third": 3, "fourth": 4}[kind]
    return lambda n: c + a / n**order


class TestVectorRefine:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(SEQUENCE_KINDS),
                st.floats(-2.0, 2.0),
                st.floats(-50.0, 50.0),
            ),
            min_size=1,
            max_size=9,
        ),
        st.sampled_from([0, 128, 256, 512]),
    )
    @example([("flat", 0.25, 0.0), ("second", 0.7, 3.0), ("fourth", -1.0, 40.0)], 0)
    @example([("second", 0.7, 3.0), ("third", 0.1, -20.0)], 256)
    @example([("flat", 0.25, 0.0), ("never", 0.0, 0.0)], 0)
    @example([("stall", 0.3, 10.0), ("second", 0.7, 3.0)], 0)
    def test_each_mode_matches_the_scalar_loop(self, modes, coarse):
        # levels below ``coarse`` samples raise AmbiguousMatching for every
        # mode at once, as a walk that cannot track its modes does
        sequences = [mode_sequence(*m) for m in modes]

        def estimate(seq, n):
            if n < coarse:
                raise AmbiguousMatching("coarse")
            return seq(n)

        expected = []
        for seq in sequences:
            try:
                expected.append(
                    oracles.scalar_refine(
                        lambda n, seq=seq: estimate(seq, n), 64, skip=AmbiguousMatching
                    )
                )
            except oracles.RefineNotConverged:
                expected.append(None)

        def evaluate(n):
            return np.array([estimate(seq, n) for seq in sequences])

        if None in expected:
            with pytest.raises(NotConverged):
                _refine(evaluate, 64)
        else:
            assert _refine(evaluate, 64).tolist() == expected


CURVATURE_FAMILIES = {
    "spin": spin_family,
    "unstructured": unstructured_nonlocal_family,
    "local": two_spin_local_family,
    "nonlocal": two_spin_nonlocal_family,
}


def near_degenerate_family():
    # modes 0 and 1 sit 5e-7 apart at |lambda| ~ 100: above the absolute
    # frame gap, below the curvature's relative one, and coupled by dB
    mix = np.zeros((3, 3), dtype=complex)
    mix[0, 1] = mix[1, 0] = 1.0
    base = np.diag([100.0, 100.0 + 5e-7, -50.0]).astype(complex)
    return GeneratorFamily(coupling=(base, mix))


# modes 0 and 1 of this one-parameter coupling sit 5e-7 apart at chi = 0
# and about 1 apart at chi = 1, coupled by the rate at every chi
GAPPED_BASE = np.diag([100.0, 100.0 + 5e-7, -50.0])
GAPPED_RATE = np.array([[0.0, 1e-3, 0.0], [1e-3, 1.0, 0.0], [0.0, 0.0, 0.0]])


def gapped_block_family():
    # one gapped block per parameter
    zero = np.zeros((3, 3))
    return GeneratorFamily(
        coupling=(
            np.block([[GAPPED_BASE, zero], [zero, GAPPED_BASE]]),
            np.block([[GAPPED_RATE, zero], [zero, zero]]),
            np.block([[zero, zero], [zero, GAPPED_RATE]]),
        ),
        blocks=((0, 3), (3, 6)),
    )


def gapped_kronecker_family():
    single = GeneratorFamily(coupling=(GAPPED_BASE, GAPPED_RATE))
    return GeneratorFamily.kronecker_sum((single, single))


def rectangle(rng):
    # axis-aligned rectangle inside [0.19, 0.41]^2, where every part of
    # both two-spin families keeps its modes well separated
    cx, cy = rng.uniform(0.25, 0.35, 2)
    hx, hy = rng.uniform(0.04, 0.06, 2)
    return ParameterCircuit.from_waypoints(
        [[cx - hx, cy - hy], [cx + hx, cy - hy], [cx + hx, cy + hy], [cx - hx, cy + hy]],
        closed=True,
    )


def tilted_circle(rng):
    # circle of radius at most 0.5 about a center 1 to 2 from the origin,
    # so the cone spanning it keeps the spin family's gap above 1
    center = rng.normal(size=3)
    center *= rng.uniform(1.0, 2.0) / np.linalg.norm(center)
    normal = rng.normal(size=3)
    u = np.cross(normal, rng.normal(size=3))
    u /= np.linalg.norm(u)
    v = np.cross(normal, u) / np.linalg.norm(normal)
    radius = rng.uniform(0.1, 0.5)

    def path(s):
        a = 2.0 * math.pi * s
        return center + radius * (math.cos(a) * u + math.sin(a) * v)

    return ParameterCircuit(path=path, closed=True, samples=32)


class TestStackedCurvature:
    @pytest.mark.parametrize("name", CURVATURE_FAMILIES)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_matches_per_point_oracle(self, name, seed, count):
        rng = np.random.default_rng(seed)
        if name == "spin":
            pts = rng.normal(size=(count, 3))
            pts *= rng.uniform(0.5, 2.0, (count, 1)) / np.linalg.norm(pts, axis=1)[:, None]
        else:
            # interior of the unit square circuit
            pts = rng.uniform(0.25, 0.35, size=(count, 2))
        fam = CURVATURE_FAMILIES[name]()
        got = _curvatures(fam, pts)
        assert got.shape == (count, len(fam.coupling[0]), 3)
        for row, chi in zip(got, pts):
            assert np.max(np.abs(row - oracles.plain_frame_curvature(fam, chi))) < 1e-12

    def test_one_bad_node_fails_the_stack(self):
        with pytest.raises(DegenerateSpectrum):
            # exact nine-dimensional collisions on the chi1 = chi2 line
            _curvatures(unstructured_nonlocal_family(), np.array([[0.3, 0.32], [0.3, 0.3]]))
        with pytest.raises(DegenerateSpectrum):
            _curvatures(spin_family(), np.array([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]]))
        with pytest.raises(DegenerateSpectrum, match="coupled"):
            _curvatures(near_degenerate_family(), np.array([[0.0], [1e-9]]))

    def test_rejects_more_than_three_parameters(self):
        fam = GeneratorFamily(coupling=(ZERO, PAULI_X, ZERO, ZERO, PAULI_Z))
        with pytest.raises(UnsupportedDimension):
            _curvatures(fam, np.array([[0.1, 0.2, 0.3, 0.4], [0.2, 0.2, 0.3, 0.4]]))

    @pytest.mark.parametrize("family", [gapped_block_family, gapped_kronecker_family])
    def test_coupled_pair_inside_one_part_is_refused(self, family):
        # node 0 is clear, node 1 fails in the second part and node 2 in
        # the first: the message names node 1, the first across all parts
        chis = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateSpectrum, match="coupled") as info:
            _curvatures(family(), chis)
        assert str(info.value).endswith(f"chi={chis[1]}")
        # at node 0 the two parts share their spectra: modes of different
        # parts collide exactly, uncoupled, and every part is flat
        assert np.max(np.abs(_curvatures(family(), chis[:1]))) == 0.0


class TestStackedSurface:
    @settings(max_examples=10)
    @given(st.integers(0, 2**32 - 1))
    def test_tilted_circles_match_the_per_segment_oracle(self, seed):
        # a circuit whose refinement does not settle must fail on both routes
        fam, circ = spin_family(), tilted_circle(np.random.default_rng(seed))
        try:
            want = oracles.segment_surface_phases(fam, circ)
        except NotConverged:
            with pytest.raises(NotConverged):
                surface_phases(fam, circ)
            return
        assert surface_phases(fam, circ).tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", [two_spin_local_family, two_spin_nonlocal_family])
    @settings(max_examples=10)
    @given(st.integers(0, 2**32 - 1))
    def test_rectangles_match_the_per_segment_oracle(self, family, seed):
        # bitwise, so the flat phases keep their sign of zero too
        circ = rectangle(np.random.default_rng(seed))
        got = surface_phases(family(), circ)
        assert got.tobytes() == oracles.segment_surface_phases(family(), circ).tobytes()

    @pytest.mark.parametrize("family", [two_spin_local_family, two_spin_nonlocal_family])
    def test_each_level_is_one_stack_per_part(self, family, monkeypatch):
        # the flat square stops after 64 and 128 segments of 12 and 14
        # spoke nodes; the second level's 1,792 nodes split into slices of
        # whole segments, 73 (1,022 nodes) and 55; the two parts of either
        # family are both 3x3, so each slice makes one eigenframes call on
        # their stacks laid end to end
        sizes = []

        def counted(B, **kwargs):
            sizes.append(len(B))
            return eigenframes(B, **kwargs)

        monkeypatch.setattr(geometric, "eigenframes", counted)
        surface_phases(family(), unit_square_circuit())
        assert sizes == [1536, 2044, 1540]


class TestSpinAnchor:
    def test_line_phase_matches_solid_angle(self):
        fam = spin_family()
        circ = anchor_circuit()
        assert abs(geometric_phase_line(fam, circ, 0) - ANCHOR_PHASE) < 1e-8
        assert abs(geometric_phase_line(fam, circ, 1) + ANCHOR_PHASE) < 1e-8

    def test_surface_phase_matches_line(self):
        fam = spin_family()
        circ = anchor_circuit()
        line = geometric_phase_line(fam, circ, 0)
        surf = geometric_phase_surface(fam, circ, 0)
        assert abs(surf - line) < 1e-7

    def test_phase_ignores_parameterization_origin(self):
        fam = spin_family()
        base = geometric_phase_line(fam, anchor_circuit(), 0)
        shifted = ParameterCircuit(
            path=lambda s: anchor_point((s + 0.3) % 1.0), closed=True, samples=64
        )
        assert abs(geometric_phase_line(fam, shifted, 0) - base) < 1e-8

    def test_double_traversal_doubles_phase(self):
        fam = spin_family()
        base = geometric_phase_line(fam, anchor_circuit(), 0)
        twice = ParameterCircuit(
            path=lambda s: anchor_point((2.0 * s) % 1.0), closed=True, samples=128
        )
        assert abs(geometric_phase_line(fam, twice, 0) - 2.0 * base) < 1e-8

    def test_retraced_excursion_cancels_exactly(self):
        def lobe(s):
            u = 1.0 - abs(2.0 * s - 1.0)
            return np.array([0.2 + 0.3 * u, 0.1 + 0.2 * u, 1.0])

        circ = ParameterCircuit(path=lobe, closed=True, samples=64)
        assert abs(geometric_phase_line(spin_family(), circ, 1)) < 1e-10

    def test_curved_block_beside_a_flat_block(self):
        # each block is walked on its own frames: the spin block keeps its
        # solid-angle phases, and the three-level block, which only
        # retraces parameter 0, carries none
        fam, circ = curved_block_family(), anchor_circuit()
        line = geometric.line_phases(fam, circ)
        assert abs(line[0] - ANCHOR_PHASE) < 1e-8
        assert abs(line[1] + ANCHOR_PHASE) < 1e-8
        assert np.max(np.abs(line[2:])) < 1e-10
        assert np.max(np.abs(line - surface_phases(fam, circ))) < 1e-7

    def test_mode_index_validated(self):
        with pytest.raises(ValueError):
            geometric_phase_line(spin_family(), anchor_circuit(), 2)
        with pytest.raises(ValueError):
            geometric_phase_surface(spin_family(), anchor_circuit(), -1)


class TestCurvature:
    def test_axis_value_is_inverse_square(self):
        # chi . sigma on the symmetry axis: upper-mode curvature points
        # along the axis with magnitude 1 / (2 |chi|^2)
        rows = liouville_curvature(spin_family(), [0.0, 0.0, ANCHOR_RADIUS])
        expected = 1.0j / (2.0 * ANCHOR_RADIUS**2)
        assert np.allclose(rows[0], [0.0, 0.0, expected], atol=1e-12)
        assert np.allclose(rows[1], [0.0, 0.0, -expected], atol=1e-12)

    def test_single_parameter_family_is_flat(self):
        rows = liouville_curvature(ho_family(), [0.3])
        assert np.max(np.abs(rows)) == 0.0

    def test_kronecker_sum_family_is_flat(self):
        rows = liouville_curvature(two_spin_nonlocal_family(), [0.3, 0.45])
        assert np.max(np.abs(rows)) == 0.0

    def test_block_family_is_flat(self):
        rows = liouville_curvature(two_spin_local_family(), [0.3, 0.45])
        assert np.max(np.abs(rows)) == 0.0

    def test_rejects_more_than_three_parameters(self):
        fam = GeneratorFamily(coupling=(ZERO, PAULI_X, ZERO, ZERO, PAULI_Z))
        with pytest.raises(UnsupportedDimension):
            liouville_curvature(fam, [0.1, 0.2, 0.3, 0.4])
        circ = ParameterCircuit(
            path=lambda s: np.array([math.cos(2 * math.pi * s),
                                     math.sin(2 * math.pi * s), 0.0, 1.0]),
            closed=True,
        )
        with pytest.raises(UnsupportedDimension):
            geometric_phase_surface(fam, circ, 0)


class TestModelCircuits:
    def test_one_parameter_loops_carry_no_phase(self):
        circ = ParameterCircuit(
            path=lambda s: np.array([0.3 + 0.25 * math.sin(2.0 * math.pi * s)]),
            closed=True,
            samples=64,
        )
        for fam in (ho_family(), tls_family()):
            m = len(fam.coupling[0])
            for k in range(m):
                assert abs(geometric_phase_line(fam, circ, k)) < 1e-10
                assert geometric_phase_surface(fam, circ, k) == 0.0

    def test_local_modes_ignore_partner_excursions(self):
        # spin-1 block modes must not react to a closed chi2-only loop
        circ = ParameterCircuit(
            path=lambda s: np.array(
                [0.4, 0.2 + 0.15 * math.sin(2.0 * math.pi * s)]
            ),
            closed=True,
            samples=64,
        )
        fam = two_spin_local_family()
        for k in range(6):
            assert abs(geometric_phase_line(fam, circ, k)) < 1e-10

    def test_square_line_and_surface_agree(self):
        fam = two_spin_nonlocal_family()
        circ = unit_square_circuit()
        for k in (0, 4, 8):
            line = geometric_phase_line(fam, circ, k)
            surf = geometric_phase_surface(fam, circ, k)
            assert abs(line - surf) < 1e-6
            assert abs(line) < 1e-8

    def test_unstructured_route_handles_accidental_crossings(self):
        # same generator without the factor structure: the square's
        # corners sit on exact nine-dimensional eigenvalue collisions,
        # so the line walk refuses; the surface form only ever samples
        # interior points off the collision set and must agree with the
        # factor-structured result
        fam = unstructured_nonlocal_family()
        circ = unit_square_circuit()
        with pytest.raises(DegenerateSpectrum):
            geometric_phase_line(fam, circ, 0)
        assert abs(geometric_phase_surface(fam, circ, 0)) < 1e-10

    def test_monodromy_is_refused(self):
        # branches +-sqrt(c) swap when the loop winds around c = 0, with
        # c = chi1 + 1j chi2 entering through a complex coupling
        fam = GeneratorFamily(
            coupling=([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0j, 0.0]])
        )
        circ = ParameterCircuit(
            path=lambda s: 0.5 * np.array(
                [math.cos(2.0 * math.pi * s), math.sin(2.0 * math.pi * s)]
            ),
            closed=True,
            samples=64,
        )
        with pytest.raises(DegenerateSpectrum):
            geometric_phase_line(fam, circ, 0)

    def test_surface_needs_closed_circuit(self):
        arc = ParameterCircuit(
            path=lambda s: anchor_point(0.5 * s), closed=False, samples=64
        )
        with pytest.raises(ValueError):
            geometric_phase_surface(spin_family(), arc, 0)


class TestAccumulatedPhase:
    def test_constant_parameter_phases_are_eigenvalue_times_angle(self):
        # chi frozen at 0.05: Lambda_k = lambda_k(chi) * theta(t) exactly,
        # with theta(t) = -ln(1 - omega0 chi0 t) / chi0 for this protocol
        model = HOModel(protocol=HOProtocol(20.0, 0.05, 0.0))
        fact = model.factorization()
        t_f = 0.7
        _, sol = propagate_inertial(fact, initial_vector(model), t_f)
        theta = -math.log(1.0 - 20.0 * 0.05 * t_f) / 0.05
        assert abs(fact.theta_of_t(t_f) - theta) < 1e-12 * theta
        kappa = math.sqrt(4.0 - 0.05**2)
        expected = np.array([0.0, kappa, -kappa, kappa / 2.0, -kappa / 2.0, 0.0])
        assert np.max(np.abs(sol.Lambda - expected * theta)) < 1e-9

    def test_transport_part_matches_line_form_on_closed_circuit(self):
        # drive chi . sigma once around the anchor circle in unit time;
        # the engine's transport phases must land on the line-form values
        fact = GeneratorFactorization(
            omega_of_t=np.ones_like,
            B_of_chi=lambda chi: np.tensordot(chi, (PAULI_X, PAULI_Y, PAULI_Z), axes=1),
            chi_of_t=anchor_points,
            theta_of_t=lambda t: t,
        )
        v0 = LiouvilleVector(coeffs=np.array([1.0, 0.5], dtype=complex), t=0.0, theta=0.0)
        _, sol = propagate_inertial(fact, v0, 1.0, phase_tol=1e-8)
        fam = spin_family()
        circ = anchor_circuit()
        line = np.array(
            [geometric_phase_line(fam, circ, 0), geometric_phase_line(fam, circ, 1)]
        )
        assert np.max(np.abs(sol.geo_phase.real - line)) < 1e-7
        assert np.max(np.abs(sol.dyn_phase.real - np.array([1.3, -1.3]))) < 1e-9

    def test_ramped_oscillator_transport_is_subdominant(self):
        # frequency halving over unit time: transport phases stay below
        # 1e-3 of the dynamical ones on every oscillating mode
        model = HOModel(protocol=HOProtocol.solve_boundary(20.0, 10.0, 1.0, -5e-3))
        _, sol = propagate_inertial(model.factorization(), initial_vector(model), 1.0)
        dyn = np.abs(sol.dyn_phase)
        geo = np.abs(sol.geo_phase)
        oscillating = dyn > 1e-6
        assert oscillating.sum() == 4
        ratio = np.max(geo[oscillating] / dyn[oscillating])
        assert ratio < 1e-3
        assert 1e-5 < ratio < 5e-4
