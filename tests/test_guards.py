"""The guard contract of stacked calls.

A guard checked over a stack raises one error that names every node
failing at the first guard stage that fires, each with the type and
message its one-node call meets; the other nodes run again in one more
call.  Each test plants failing nodes in a stack, settles it round by
round, and holds every round to the one-node calls.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvdyn import models
from liouvdyn.errors import AmbiguousMatching, DomainExceeded, LiouvdynError, SingularDenominator
from liouvdyn.linalg import eigenframes, transport

FAMILIES = {
    "ho": models.HO_FAMILY,
    "tls": models.TLS_FAMILY,
    "tls-embedded": models.TLS_EMBEDDED_FAMILY,
    "two-spin-local": models.TWO_SPIN_LOCAL_FAMILY,
    "two-spin-nonlocal": models.TWO_SPIN_NONLOCAL_FAMILY,
}


def outcome(call):
    """(type, message) of the error ``call()`` raises, or None."""
    try:
        call()
    except (LiouvdynError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def rounds(call, n):
    """The (error, positions) of each round settling ``call`` over n nodes:
    ``call(kept)`` runs the stack of the index array kept, and the nodes
    an error names leave it.  Ends with the value of the last call."""
    kept, out = np.arange(n), []
    while True:
        try:
            return out, kept, call(kept)
        except (LiouvdynError, ValueError) as exc:
            assert exc.nodes, exc
            out.append((exc, kept))
            kept = np.delete(kept, list(exc.nodes))


def check_rounds(found, key, alone):
    """Every round names exactly the remaining nodes of least stage key,
    each with its one-node type and message, and str() of the first."""
    for exc, kept in found:
        keys = {int(j): key(int(j)) for j in kept if alone[int(j)] is not None}
        least = min(keys.values())
        named = {int(kept[p]): text for p, text in exc.nodes.items()}
        assert set(named) == {j for j, k in keys.items() if k == least}
        assert all(alone[j] == (type(exc), text) for j, text in named.items())
        assert str(exc) == named[min(named)]
    flagged = {int(kept[p]) for exc, kept in found for p in exc.nodes}
    assert flagged == {j for j, o in enumerate(alone) if o is not None}


# --------------------------------------------------------------------------
# eigenframes over stacks of the shipped families
# --------------------------------------------------------------------------


def _planted(kind, m, rng):
    if kind == "degenerate":
        return np.eye(m, dtype=complex)
    if kind == "defective":
        # two modes 2e-7 apart, above the gap threshold, nearly parallel
        B = np.diag(4.0 + 4.0 * np.arange(m)).astype(complex)
        B[:2, :2] = [[0.0, 100.0], [1e-16, 0.0]]
        return B
    B = np.eye(m, dtype=complex)
    B.flat[rng.integers(m * m)] = np.nan
    return B


@st.composite
def planted_stacks(draw):
    """(B, blocks) of a family's generators at random parameters, some
    nodes replaced by degenerate, defective or non-finite matrices."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = family.matrices(rng.uniform(-1.5, 1.5, size=(n, family.n_params)))
    m = B.shape[1]
    for j in range(n):
        kind = draw(st.sampled_from(["clean", "clean", "degenerate", "defective", "non-finite"]))
        if kind != "clean":
            B[j] = _planted(kind, m, rng)
    blocks = family.blocks if draw(st.booleans()) else None
    return B, blocks


def _eigen_stage(B, blocks, j):
    """Where node j's one-node call fails: (block, route, stage), ordered as
    the stack meets them (non-finite entries before any block, Hermitian
    route before the general one, then gap, inverse and defect guards)."""
    if not np.all(np.isfinite(B[j])):
        return (-1, 0, 0)
    for b, (lo, hi) in enumerate(blocks or ((0, B.shape[1]),)):
        block = B[j : j + 1, lo:hi, lo:hi]
        failed = outcome(lambda: eigenframes(block))
        if failed is not None:
            hermitian = np.array_equal(block, block.conj().transpose(0, 2, 1))
            kind, message = failed
            stage = 0 if kind.__name__ == "DegenerateSpectrum" else (
                1 if message.startswith("right eigenvectors") else 2)
            return (b, int(not hermitian), stage)
    raise AssertionError("the node passes every block alone")


@settings(max_examples=80, deadline=None)
@given(planted_stacks())
def test_eigenframes_names_every_node_of_the_first_stage(stack):
    B, blocks = stack
    alone = [outcome(lambda j=j: eigenframes(B[j : j + 1], blocks=blocks)) for j in range(len(B))]
    found, kept, frames = rounds(lambda k: eigenframes(B[k], blocks=blocks), len(B))
    check_rounds(found, lambda j: _eigen_stage(B, blocks, j), alone)
    for p, j in enumerate(kept):
        one = eigenframes(B[j : j + 1], blocks=blocks)
        assert all(np.array_equal(a[p], b[0]) for a, b in zip(frames, one))


# --------------------------------------------------------------------------
# transport over (P, N+1, m, m) paths
# --------------------------------------------------------------------------


@st.composite
def planted_paths(draw):
    """(rights, lefts) of P paths of two-level frames, some steps replaced
    by a frame whose first two modes mix at 45 degrees (a tie) or by a
    random frame (often two modes on one successor)."""
    P, N = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chis = np.cumsum(rng.uniform(0.0, 0.05, size=(P, N + 1)), axis=1) - 0.5
    _, rights, _ = eigenframes(models.TLS_FAMILY(chis.ravel()))
    rights = rights.reshape(P, N + 1, 3, 3)
    for p in range(P):
        kind = draw(st.sampled_from(["clean", "clean", "tie", "random"]))
        i = draw(st.integers(1, N))
        if kind == "tie":
            F = rights[p, i - 1].copy()
            F[:, :2] = (F[:, [0]] + np.array([1.0, -1.0]) * F[:, [1]]) / np.sqrt(2.0)
            rights[p, i] = F
        elif kind == "random":
            rights[p, i] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lefts = np.linalg.inv(rights).conj().swapaxes(-1, -2)
    return rights, lefts


@settings(max_examples=80, deadline=None)
@given(planted_paths())
def test_transport_names_every_path_of_the_first_stage(paths):
    rights, lefts = paths
    alone = [outcome(lambda p=p: transport(rights[p], lefts[p])) for p in range(len(rights))]
    found, kept, (perms, logs) = rounds(lambda k: transport(rights[k], lefts[k]), len(rights))
    # one guard: a path's message is its first top-two tie of a step and
    # mode, else two modes on one column
    check_rounds(found, lambda p: 0, alone)
    assert all(type(exc) is AmbiguousMatching for exc, _ in found)
    for q, p in enumerate(kept):
        one = transport(rights[p], lefts[p])
        assert np.array_equal(perms[q], one[0]) and np.array_equal(logs[q], one[1])


# --------------------------------------------------------------------------
# the oscillator's closed-form Upsilon over arrays of times
# --------------------------------------------------------------------------


@st.composite
def closed_form_samples(draw):
    """(protocol, times) of an oscillator ramp: a ramp from rest (chi0 = 0)
    puts a vanishing bracket at t = 0, a steep one samples |mu| >= 2, and
    some times may lie past the end of the protocol."""
    omega0 = draw(st.floats(1.0, 30.0))
    chi0 = draw(st.sampled_from([0.0, draw(st.floats(-1.0, 1.0))]))
    a = draw(st.floats(-300.0, 300.0))
    protocol = models.HOProtocol(omega0, chi0, a)
    horizon = min(protocol.t_max, 0.1)
    n = draw(st.integers(1, 40))
    fractions = draw(st.lists(st.floats(0.0, 1.2), min_size=n, max_size=n))
    times = np.array([0.0, *fractions[1:]]) * horizon
    return protocol, times


def _closed_stage(failed):
    kind, message = failed
    if kind is DomainExceeded:
        return 0
    return 1 if message.startswith(("omega^2", "mode splitting")) else 2


@settings(max_examples=100, deadline=None)
@given(closed_form_samples())
def test_closed_form_names_every_sample_of_the_first_stage(sample):
    protocol, times = sample
    closed = protocol.inertial_parameter_closed
    alone = [outcome(lambda t=t: closed(float(t))) for t in times]
    found, kept, values = rounds(lambda k: closed(times[k]), len(times))
    check_rounds(found, lambda j: _closed_stage(alone[j]), alone)
    assert all(type(exc) in (DomainExceeded, SingularDenominator) for exc, _ in found)
    assert [repr(float(v)) for v in values] == [repr(closed(float(times[j]))) for j in kept]
