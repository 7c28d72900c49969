"""Properties of the stacked eigenframe and transport layer.

Inputs are random diagonalizable non-Hermitian stacks V(s) diag(lam(s))
V(s)^-1 along a path s in [0, 1], with a well-conditioned V and a
spectrum spaced far above the degeneracy gap, and random Hermitian
rotation generators 1j (A0 + chi A1), which take the so(3) route, held
to the frames of ``eigh``.  Non-Hermitian 2 x 2 and 3 x 3 stacks, and
the oscillator's blocks, take the closed form, held here to the frames
and errors of ``eig``.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from liouvdyn import linalg, models
from liouvdyn.errors import DegenerateSpectrum, LiouvdynError, NotDiagonalizable
from liouvdyn.linalg import DEGENERACY_GAP, bi_eigendecompose, eigenframes, transport

import oracles

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 5)


def path_stack(seed, m, s, real=False):
    """Generators along the parameter values s.

    ``real`` builds 1j times a real non-normal matrix, the structure of
    the shipped model generators, whose modes are real up to the gauge.
    """
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.normal(size=shape)
        return x if real else x + 1j * rng.normal(size=shape)

    V0, V1 = np.eye(m) + 0.2 * draw(m, m), 0.2 * draw(m, m)
    lam0, dlam = 1.5 * np.arange(1, m + 1) + 0.2 * draw(m), 0.2 * draw(m)
    B = np.array(
        [
            (V0 + x * V1) @ np.diag(lam0 + x * dlam) @ np.linalg.inv(V0 + x * V1)
            for x in s
        ]
    )
    return 1j * B if real else B


@given(seeds, dims, st.integers(1, 6))
def test_frames_reconstruct_and_are_biorthonormal(seed, m, n):
    B = path_stack(seed, m, np.linspace(0.0, 1.0, n))
    lam, rights, lefts = eigenframes(B)
    recon = (rights * lam[:, None, :]) @ lefts.conj().transpose(0, 2, 1)
    assert np.max(np.abs(recon - B)) < 1e-9 * max(1.0, np.max(np.abs(B)))
    cross = lefts.conj().transpose(0, 2, 1) @ rights
    assert np.max(np.abs(cross - np.eye(m))) < 1e-12


@given(seeds, dims, st.integers(1, 6))
def test_stack_equals_node_by_node(seed, m, n):
    B = path_stack(seed, m, np.linspace(0.0, 1.0, n))
    lam, rights, lefts = eigenframes(B)
    for i in range(n):
        frame = bi_eigendecompose(B[i])
        np.testing.assert_allclose(frame.lambdas, lam[i], rtol=0, atol=1e-13)
        np.testing.assert_allclose(frame.rights, rights[i], rtol=0, atol=1e-13)
        np.testing.assert_allclose(frame.lefts, lefts[i], rtol=0, atol=1e-13)


@given(seeds, dims, st.data())
def test_matching_is_equivariant_under_column_permutation(seed, m, data):
    _, rights, lefts = eigenframes(path_stack(seed, m, np.linspace(0.0, 1.0, 12)))
    perms, logs = transport(rights, lefts)
    sigma = np.array(
        [data.draw(st.permutations(range(m))) for _ in range(rights.shape[0])]
    )
    shuffled = [np.take_along_axis(f, sigma[:, None, :], axis=2) for f in (rights, lefts)]
    got_perms, got_logs = transport(*shuffled)
    # column j of shuffled frame i is column sigma[i, j] of frame i
    inverse = np.argsort(sigma, axis=1)
    want = np.take_along_axis(inverse, perms[:, sigma[0]], axis=1)
    assert np.array_equal(got_perms, want)
    np.testing.assert_allclose(got_logs, logs[sigma[0]], rtol=0, atol=1e-12)


@given(seeds, dims)
def test_retraced_closed_loop_has_zero_transport_phase(seed, m):
    s = np.linspace(0.0, 1.0, 17)
    _, rights, lefts = eigenframes(path_stack(seed, m, np.r_[s, s[-2::-1]], real=True))
    perms, logs = transport(rights, lefts)
    assert np.array_equal(perms[-1], np.arange(m))
    # a phase is defined modulo 2 pi; a gauge pivot flip adds a full turn
    assert np.max(np.abs(np.exp(1j * logs.imag) - 1.0)) < 1e-12


@given(seeds, dims)
def test_closed_loop_product_is_gauge_invariant(seed, m):
    s = np.linspace(0.0, 1.0, 17)
    _, rights, lefts = eigenframes(path_stack(seed, m, np.r_[s, s[-2::-1]]))
    _, logs = transport(rights, lefts)
    # rephase every node but the shared endpoint; F and G turn together
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, rights.shape[::2]))
    phases[[0, -1]] = 1.0
    _, rephased = transport(rights * phases[:, None, :], lefts * phases[:, None, :])
    np.testing.assert_allclose(np.exp(rephased), np.exp(logs), rtol=0, atol=1e-12)


def antisymmetric(rng):
    """A random real antisymmetric 3x3 matrix, the generator of a rotation."""
    x, y, z = rng.normal(size=3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@given(seeds, st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
def test_hermitian_route_agrees_with_the_general_route(seed, chis):
    # B = 1j (A0 + chi A1) has eigenvalues 0 and +-|k|, k the axis of
    # A0 + chi A1, whose Frobenius norm is sqrt(2) |k|
    rng = np.random.default_rng(seed)
    A0, A1 = antisymmetric(rng), antisymmetric(rng)
    B = 1j * (A0 + np.asarray(chis)[:, None, None] * A1)
    norm = np.linalg.norm(B, axis=(1, 2))
    assume(norm.min() > 0.1)
    lam, rights, lefts = eigenframes(B)
    assert np.array_equal(lefts, rights)
    # one ulp off Hermitian in one entry sends the stack through eig
    general = B.copy()
    general.imag[:, 0, 1] = np.nextafter(B.imag[:, 0, 1], np.inf)
    want_lam, want_rights, _ = eigenframes(general)
    assert np.all(np.abs(lam - want_lam).max(axis=1) <= 1e-12 * norm)
    np.testing.assert_allclose(rights, want_rights, rtol=0, atol=1e-10)


@st.composite
def axis_vectors(draw):
    """Axis vectors a of i [a]x, the largest entry from 1e-300 to 1e300 in
    size, half of them within 1e-16 to 1e-3 of a coordinate axis or on one."""
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        a *= draw(st.sampled_from([0.0, 1e-16, 1e-9, 1e-3]))
        a[k] = draw(st.sampled_from([1.0, -1.0]))
    assume(np.abs(a).max() > 0.0)
    return a / np.abs(a).max() * 10.0 ** draw(st.floats(-300.0, 300.0))


def cross_matrices(a):
    """The (N, 3, 3) stack i [a]x of the (N, 3) axis vectors a."""
    return 1j * np.cross(np.eye(3)[None], a[:, None, :])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(axis_vectors(), min_size=1, max_size=4))
def test_so3_route_agrees_with_eigh(axes):
    # eigenvalues 0, +|a|, -|a| in mode order, with the gauged frames of
    # eigh; an axis shorter than the degeneracy gap raises for its node.
    # eigh's +-|a| pair may come in either order once 1e-9 rounding no
    # longer ties their magnitudes, so its columns are sorted by eigenvalue
    a = np.array(axes)
    size = np.hypot(np.hypot(a[:, 0], a[:, 1]), a[:, 2])
    assume(np.all(np.abs(size / DEGENERACY_GAP - 1.0) > 1e-9))
    B = cross_matrices(a)
    short = np.flatnonzero(size < DEGENERACY_GAP)
    if short.size:
        with pytest.raises(DegenerateSpectrum) as info:
            eigenframes(B)
        assert sorted(info.value.nodes) == short.tolist()
        return
    lam, rights, lefts = eigenframes(B)
    assert np.array_equal(linalg._mode_order(lam), np.tile(np.arange(3), (len(a), 1)))
    assert np.all(lam[:, 0] == 0.0) and np.array_equal(lam[:, 1], -lam[:, 2])
    np.testing.assert_allclose(lam[:, 1].real, size, rtol=1e-15)
    want_lam, want_rights, want_lefts = linalg._hermitian(B)
    order = np.argsort(-want_lam.real, axis=1)[:, [1, 0, 2]]
    want = [np.take_along_axis(want_lam, order, axis=1)] + [
        np.take_along_axis(f, order[:, None, :], axis=2) for f in (want_rights, want_lefts)
    ]
    assert np.all(np.abs(lam - want[0]).max(axis=1) <= 1e-14 * size)
    np.testing.assert_allclose(rights, want[1], rtol=0, atol=1e-14)
    np.testing.assert_allclose(lefts, want[2], rtol=0, atol=1e-14)


def _assemble(frames, sizes):
    """Per-block frame stacks placed block-diagonally at full dimension."""
    n, m = len(frames[0][0]), sum(sizes)
    lam = np.zeros((n, m), dtype=complex)
    rights = np.zeros((n, m, m), dtype=complex)
    lefts = np.zeros((n, m, m), dtype=complex)
    lo = 0
    for (l, r, g), size in zip(frames, sizes):
        hi = lo + size
        lam[:, lo:hi], rights[:, lo:hi, lo:hi], lefts[:, lo:hi, lo:hi] = l, r, g
        lo = hi
    return lam, rights, lefts


@st.composite
def block_stacks(draw):
    """A block-diagonal (N, m, m) stack, its block ranges and its blocks.

    Blocks of one to three modes; a repeated seed repeats a block, so
    equal eigenvalues across blocks are common, and every 1x1 block is
    zero, like the identity row of the model generators.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    seeds_ = draw(st.lists(st.integers(0, 3), min_size=len(sizes), max_size=len(sizes)))
    n = draw(st.integers(1, 5))
    s = np.linspace(0.0, 1.0, n)
    blocks = [
        np.zeros((n, 1, 1), dtype=complex) if size == 1 else path_stack(seed, size, s)
        for size, seed in zip(sizes, seeds_)
    ]
    bounds = np.cumsum([0, *sizes])
    ranges = tuple((int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]))
    B = np.zeros((n, bounds[-1], bounds[-1]), dtype=complex)
    for (lo, hi), block in zip(ranges, blocks):
        B[:, lo:hi, lo:hi] = block
    return B, ranges, blocks


def _bits(arrays):
    return [a.tobytes() for a in arrays]


@given(block_stacks())
def test_blocks_equal_the_per_block_calls_bit_for_bit(stack):
    B, ranges, blocks = stack
    want = _assemble([eigenframes(b) for b in blocks], [b.shape[1] for b in blocks])
    assert _bits(eigenframes(B, blocks=ranges)) == _bits(want)


# a node with a double eigenvalue, and one whose two leading modes sit
# 2e-7 apart, above the gap threshold, with nearly parallel eigenvectors
BAD_NODES = {
    "degenerate": np.diag([1.0, 1.0, 4.0]).astype(complex),
    "defective": np.array([[0.0, 100.0, 0.0], [1e-16, 0.0, 0.0], [0.0, 0.0, 4.0]], dtype=complex),
}


@given(block_stacks(), st.sampled_from(sorted(BAD_NODES)), st.data())
def test_a_bad_node_in_one_block_raises_as_the_per_block_call(stack, kind, data):
    B, ranges, blocks = stack
    wide = [i for i, b in enumerate(blocks) if b.shape[1] > 1]
    if not wide:
        return
    i = data.draw(st.sampled_from(wide))
    node = data.draw(st.integers(0, len(B) - 1))
    (lo, hi), size = ranges[i], blocks[i].shape[1]
    B[node, lo:hi, lo:hi] = BAD_NODES[kind][:size, :size]
    blocks[i] = B[:, lo:hi, lo:hi]
    errors = []
    for block in blocks:
        try:
            eigenframes(block)
        except (DegenerateSpectrum, NotDiagonalizable) as exc:
            errors.append(type(exc))
    assert errors
    with pytest.raises(errors[0]):
        eigenframes(B, blocks=ranges)


@given(seeds)
def test_a_mixed_stack_routes_each_matrix_alone(seed):
    # a Hermitian rotation generator between two non-Hermitian matrices
    # still takes the so(3) route, as it does alone
    rng = np.random.default_rng(seed)
    H = 1j * (antisymmetric(rng) + 0.7 * antisymmetric(rng))
    assume(np.linalg.norm(H) > 0.1)
    B = np.concatenate([path_stack(seed, 3, [0.2]), H[None], path_stack(seed, 3, [0.9])])
    frames = eigenframes(B)
    for i in range(len(B)):
        assert _bits(a[i] for a in frames) == _bits(a[0] for a in eigenframes(B[i : i + 1]))
    assert np.array_equal(frames[1][1], frames[2][1])


# --------------------------------------------------------------------------
# the closed form of non-Hermitian 2 x 2 and 3 x 3 stacks against eig
# --------------------------------------------------------------------------


def general_route(B):
    """The frames of a non-Hermitian stack from eig and an inverse, with
    the guards of eigenframes: the route the closed form stands in for."""
    return linalg._framed(B, *np.linalg.eig(B), linalg._inverse)


def closed_form(B):
    """The frames eigenframes gives a stack, after checking that they are
    the closed form's, every node certified."""
    with np.errstate(all="ignore"):
        *frames, certified = linalg._certified(B, *linalg._closed_eigensystem(B))
    assert certified.all()
    got = eigenframes(B)
    assert _bits(got) == _bits(frames)
    return got


def outcome(call):
    """The frames ``call()`` returns, or the type, text and nodes it raises."""
    try:
        return call()
    except (LiouvdynError, ValueError) as exc:
        return type(exc), str(exc), dict(exc.nodes)


def assert_frames_agree(got, want):
    """Eigenvalues and rights within 1e-12 of the largest eigenvalue and of
    1; each node's lefts within 1e-12 of its largest left squared, as an
    inverse moves by the square of its size."""
    (lam, rights, lefts), (want_lam, want_rights, want_lefts) = got, want
    scale = np.maximum(1.0, np.abs(want_lam).max(axis=1))
    assert np.all(np.abs(lam - want_lam).max(axis=1) <= 1e-12 * scale)
    np.testing.assert_allclose(rights, want_rights, rtol=0, atol=1e-12)
    size = np.abs(want_lefts).max(axis=(1, 2))
    assert np.all(np.abs(lefts - want_lefts).max(axis=(1, 2)) <= 1e-12 * np.maximum(1.0, size) ** 2)


HO_BLOCKS = [(lo, hi) for lo, hi in models.HO_FAMILY.blocks if hi - lo > 1]


def ho_block(mus, block):
    lo, hi = block
    return models.HO_FAMILY(np.asarray(mus, dtype=float))[:, lo:hi, lo:hi]


@given(seeds, st.sampled_from([2, 3]), st.integers(1, 6), st.booleans())
def test_closed_form_agrees_with_eig_on_interior_stacks(seed, m, n, real):
    B = path_stack(seed, m, np.linspace(0.0, 1.0, n), real=real)
    assert_frames_agree(closed_form(B), general_route(B))


@given(st.lists(st.floats(-1.99, 1.99), min_size=1, max_size=8), st.sampled_from(HO_BLOCKS))
def test_closed_form_agrees_with_eig_on_oscillator_blocks(mus, block):
    B = ho_block(mus, block)
    # mu = 0 takes a Hermitian route
    assume(not np.all(B == B.conj().transpose(0, 2, 1), axis=(1, 2)).any())
    assert_frames_agree(closed_form(B), general_route(B))


LADDER = np.concatenate([np.linspace(0.3, 1.9, 17), [1.95, 1.99, 1.995, 1.999]])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_oscillator_ladder_towards_the_exceptional_point(sign):
    mus = sign * LADDER
    oracle_of = (oracles.ho_upper_eigensystem, oracles.ho_lower_eigensystem)
    for block, oracle in zip(HO_BLOCKS, oracle_of, strict=True):
        B = ho_block(mus, block)
        frames = closed_form(B)
        assert_frames_agree(frames, general_route(B))
        want = np.array([oracle(mu)[0] for mu in mus])
        np.testing.assert_allclose(frames[0], want, rtol=0, atol=1e-12)


def test_past_the_ladder_the_oscillator_block_raises_as_eig_does():
    # the closed form cannot certify these nodes either, so eig decides
    # each with its own guard
    mus = np.array([1.9999, 1.99995, 1.99999, 2.0, -1.9999, -2.0])
    B = ho_block(mus, HO_BLOCKS[0])
    got = outcome(lambda: eigenframes(B))
    assert got == outcome(lambda: general_route(B))
    assert got[0] is NotDiagonalizable and sorted(got[2]) == list(range(len(mus)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(seeds, st.sampled_from([2, 3]), st.integers(1, 4), st.sampled_from([-1000, 1000]))
def test_stacks_scaled_past_the_float_range_warn_nothing(seed, m, n, power):
    # 2^-1000 puts every gap below DEGENERACY_GAP; 2^1000 squares past
    # the largest double, and the closed form still certifies every node
    B = path_stack(seed, m, np.linspace(0.0, 1.0, n)) * 2.0**power
    want = outcome(lambda: general_route(B))
    if power < 0:
        assert outcome(lambda: eigenframes(B)) == want and want[0] is DegenerateSpectrum
    else:
        assert_frames_agree(closed_form(B), want)
