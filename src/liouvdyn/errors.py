"""Exception types raised across the package, and the guards of stacks.

Every error carries enough context in its message to identify the offending
quantity (an eigenvalue gap, a parameter value, a config key path), so callers
can log it without re-deriving state.

A guard checked over a stack (of matrices, times, paths or sweep points)
raises once for every node it flags (``guard``): ``exc.nodes`` maps each
flagged leading index to the message its one-node call gives, and
``str(exc)`` is the first of them; an error that names no node has empty
``nodes``.  A caller that slices or reshapes a stack moves the indices to
its own (``nodes_at``), and ``settle`` flags them and runs the rest again.
These three helpers import numpy on first use, so the exceptions and
``POINT_ERRORS`` need only the standard library.
"""

from contextlib import contextmanager
from types import MappingProxyType


class LiouvdynError(Exception):
    """Base class for all package-specific errors."""

    nodes = MappingProxyType({})


class DegenerateSpectrum(LiouvdynError):
    """Two generator eigenvalues are closer than the resolvable gap."""


class NotDiagonalizable(LiouvdynError):
    """The generator has a defective (non-diagonalizable) eigenvalue."""


class AmbiguousMatching(LiouvdynError):
    """Eigenvector continuity tracking cannot pick a unique permutation."""


class DomainExceeded(LiouvdynError):
    """A protocol was evaluated outside its physical parameter domain."""


class IntegratorFailure(LiouvdynError):
    """The underlying ODE integrator did not converge."""


class UnphysicalState(LiouvdynError):
    """A state violates a physical constraint (uncertainty, Bloch norm)."""


class SingularDenominator(LiouvdynError):
    """A closed-form expression hit a vanishing denominator."""


class NotConverged(LiouvdynError):
    """Iterative refinement exhausted its budget without converging."""


class UnsupportedDimension(LiouvdynError):
    """An operation received an object of a dimension it cannot handle."""


class PositivityViolation(LiouvdynError):
    """A density matrix lost positivity beyond tolerance."""


class ConfigInvalid(LiouvdynError):
    """A run configuration is missing keys or holds out-of-range values."""


# the errors that fail one point of a batch and leave the others running
POINT_ERRORS = (LiouvdynError, ValueError, ArithmeticError)


def guard(cls, *checks) -> None:
    """Raise ``cls`` naming every node that one of the ``checks`` flags.

    A check is a pair (bad, message), in the order a one-node call meets
    them, and the leading axis of the mask ``bad`` runs over the nodes.  A
    node's message is ``message(index)`` of its first check, at the index
    tuple of its first True entry; none is built unless a mask fires.
    """
    import numpy as np

    nodes = {}
    for bad, message in checks:
        if bad.any():
            hits = np.argwhere(bad)
            for index in hits[np.unique(hits[:, 0], return_index=True)[1]].tolist():
                nodes.setdefault(index[0], message(tuple(index)))
    if nodes:
        exc = cls(nodes[min(nodes)])
        exc.nodes = dict(sorted(nodes.items()))
        raise exc


@contextmanager
def nodes_at(where):
    """Move the nodes that a guard error raised inside names to a caller's
    indices: node j to ``where[j]``, an index or an array of them.  Where
    several move to one index, the first one's message stays."""
    try:
        yield
    except (LiouvdynError, ValueError) as exc:
        if getattr(exc, "nodes", None):
            import numpy as np

            moved = {}
            for node, text in sorted(exc.nodes.items()):
                for index in np.atleast_1d(where[node]).tolist():
                    moved.setdefault(index, text)
            exc.nodes = moved
        raise


def settle(run, count: int, flags=POINT_ERRORS):
    """``(kept, values, failed)``: the stacked call ``run(kept)`` over the
    indices 0..count-1 that no guard flags, and "Type: message" per flagged one.

    When ``run`` raises one of ``flags`` naming nodes (positions in
    ``kept``), those indices are flagged and ``run`` goes again over the
    rest: each round clears a guard stage for good.  An error that names no
    node propagates.
    """
    import numpy as np

    kept, failed = np.arange(count), {}
    while True:
        try:
            return kept, run(kept), failed
        except flags as exc:
            if not getattr(exc, "nodes", None):
                raise
            name = type(exc).__name__
            failed.update((int(kept[j]), f"{name}: {text}") for j, text in exc.nodes.items())
            kept = np.delete(kept, list(exc.nodes))
