"""Properties of the stacked eigenframe and transport layer.

Inputs are random diagonalizable non-Hermitian stacks V(s) diag(lam(s))
V(s)^-1 along a path s in [0, 1], with a well-conditioned V and a
spectrum spaced far above the degeneracy gap, and random Hermitian
rotation generators 1j (A0 + chi A1), which take the ``eigh`` route.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from liouvdyn.errors import DegenerateSpectrum, NotDiagonalizable
from liouvdyn.linalg import bi_eigendecompose, eigenframes, transport

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
    # still takes eigh, as it does alone
    rng = np.random.default_rng(seed)
    H = 1j * (antisymmetric(rng) + 0.7 * antisymmetric(rng))
    assume(np.linalg.norm(H) > 0.1)
    B = np.concatenate([path_stack(seed, 3, [0.2]), H[None], path_stack(seed, 3, [0.9])])
    frames = eigenframes(B)
    for i in range(len(B)):
        assert _bits(a[i] for a in frames) == _bits(a[0] for a in eigenframes(B[i : i + 1]))
    assert np.array_equal(frames[1][1], frames[2][1])
