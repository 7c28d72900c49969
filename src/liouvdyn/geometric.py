"""Geometric phases of closed-algebra generator families.

A closed circuit in the drive-parameter space imprints a gauge-invariant
phase on every eigenoperator mode.  Two independent evaluations are
provided: a discrete parallel-transport product along the circuit (line
form, robust because it never differentiates eigenvectors) and a
curvature flux through a surface spanning the circuit (surface form).
Stokes' theorem ties the two on circuits that do not enclose spectral
degeneracies; degeneracy-enclosing circuits are refused.

Both discretizations converge at second order in the step; the
refinement loop doubles the sampling, Richardson-extrapolates each level
with the one before, and stops once two raw levels or two successive
extrapolants agree on every mode.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import models
from .engine import GeneratorFamily
from .errors import (
    AmbiguousMatching,
    DegenerateSpectrum,
    NotConverged,
    UnsupportedDimension,
)
from .linalg import DEGENERACY_GAP, STACK_NODES, eigenframes, interleave, transport

_REFINE_TOL = 1e-8
_MAX_DOUBLINGS = 6
_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class ParameterCircuit:
    """Piecewise-smooth parameter curve chi(s), s in [0, 1].

    ``samples`` is the number of segments of the refinement loop's first
    level, doubled each level until the second-order extrapolation
    settles; closed circuits must return to their starting point.
    """

    path: object
    closed: bool
    samples: int = 128

    def __post_init__(self):
        if self.samples < 4:
            raise ValueError("need at least 4 samples")
        p0 = np.atleast_1d(np.asarray(self.path(0.0), dtype=float))
        p1 = np.atleast_1d(np.asarray(self.path(1.0), dtype=float))
        if p0.shape != p1.shape or p0.ndim != 1:
            raise ValueError("path must map s to a fixed-length parameter vector")
        if self.closed and np.max(np.abs(p0 - p1)) > _ENDPOINT_TOL:
            raise ValueError("closed circuit does not return to its start")

    @property
    def dim(self) -> int:
        return np.atleast_1d(np.asarray(self.path(0.0))).size

    def points(self, n: int = None, *, odd: bool = False) -> np.ndarray:
        """(n+1, d) array of path samples at s = i/n, or with ``odd`` the
        n/2 samples at odd i alone: the nodes that level n adds to level
        n/2, whose points i are its points 2i bit for bit."""
        n = self.samples if n is None else int(n)
        return np.array(
            [
                np.atleast_1d(np.asarray(self.path(i / n), dtype=float))
                for i in range(1 if odd else 0, n + 1, 2 if odd else 1)
            ]
        )

    @classmethod
    def from_waypoints(cls, waypoints, closed: bool = None, samples: int = None):
        """Piecewise-linear circuit through the given parameter points.

        ``closed`` defaults to whether the endpoints coincide; forcing it
        appends the first waypoint.  The base sample count is a multiple
        of the segment count so refinement keeps corners on the grid.
        """
        pts = np.atleast_2d(np.asarray(waypoints, dtype=float))
        if pts.shape[0] < 2:
            raise ValueError("need at least two waypoints")
        matched = np.max(np.abs(pts[0] - pts[-1])) <= _ENDPOINT_TOL
        if closed is None:
            closed = matched
        if closed and not matched:
            pts = np.vstack([pts, pts[0]])
        nseg = pts.shape[0] - 1
        if samples is None:
            samples = max(16 * nseg, 64)

        def path(s):
            x = min(max(s, 0.0), 1.0) * nseg
            i = min(int(x), nseg - 1)
            f = x - i
            return (1.0 - f) * pts[i] + f * pts[i + 1]

        return cls(path=path, closed=closed, samples=samples)


def ho_family() -> GeneratorFamily:
    """One-parameter oscillator generator family (``models.HO_FAMILY``)."""
    return models.HO_FAMILY


def tls_family() -> GeneratorFamily:
    """One-parameter two-level generator family, identity row embedded
    (``models.TLS_EMBEDDED_FAMILY``)."""
    return models.TLS_EMBEDDED_FAMILY


def two_spin_local_family() -> GeneratorFamily:
    """Two-parameter family of the stacked single-spin triples
    (``models.TWO_SPIN_LOCAL_FAMILY``)."""
    return models.TWO_SPIN_LOCAL_FAMILY


def two_spin_nonlocal_family() -> GeneratorFamily:
    """Two-parameter family of the nine cross-correlator products
    (``models.TWO_SPIN_NONLOCAL_FAMILY``).

    A Kronecker sum of the two single-spin families, so modes are factor
    products and remain well defined on the chi1 = chi2 line where
    eigenvalues of the sum cross accidentally.
    """
    return models.TWO_SPIN_NONLOCAL_FAMILY


# ---------------------------------------------------------------------------
# frames and transport
# ---------------------------------------------------------------------------


def _parts(family: GeneratorFamily, chis: np.ndarray) -> list:
    """Structural parts of the family at the points chis (N, d).

    Returns ``(lam, rights, lefts, rates, params, modes)`` per Kronecker
    factor, per closed block, or once for a family without structure.
    Each part is diagonalized on its own, so declared structure keeps
    modes apart where their eigenvalues collide accidentally; parts of
    equal size share one ``eigenframes`` call on their stacks laid end to
    end, since a call's fixed cost dominates small stacks.  ``lam``
    (N, m), ``rights`` and ``lefts`` (N, m, m) are the part's own;
    ``rates`` are its constant partials over the parameters ``params`` it
    depends on; ``modes`` is the slice of full-dimension modes the part
    fills, None for a factor.  ``_combine`` joins per-part mode values
    into the family's.
    """
    if family.factors is not None:
        parts = [
            (f.matrices(chis[:, j : j + 1]), f.coupling[1:], (j,), None)
            for j, f in enumerate(family.factors)
        ]
    else:
        parts = []
        for lo, hi in family.blocks or ((0, len(family.coupling[0])),):
            coupling = [C[lo:hi, lo:hi] for C in family.coupling]
            params = tuple(k for k, C in enumerate(coupling[1:]) if C.any())
            rates = [coupling[1 + k] for k in params]
            parts.append((GeneratorFamily(coupling).matrices(chis), rates, params, slice(lo, hi)))
    n, frames = len(chis), [None] * len(parts)
    for size in dict.fromkeys(B.shape[1] for B, *_ in parts):
        same = [i for i, (B, *_) in enumerate(parts) if B.shape[1] == size]
        stacked = eigenframes(np.concatenate([parts[i][0] for i in same]))
        for k, i in enumerate(same):
            frames[i] = tuple(a[k * n : (k + 1) * n] for a in stacked)
    return [(*frame, *part[1:]) for frame, part in zip(frames, parts)]


def _combine(family: GeneratorFamily, values) -> np.ndarray:
    """Full-dimension mode values from per-part ones (..., m_j), in
    ``_parts`` order: a product mode of a Kronecker sum adds its factors'
    values, and block modes follow block by block."""
    if family.factors is None:
        return np.concatenate(values, axis=-1)
    return functools.reduce(
        lambda a, b: (a[..., :, None] + b[..., None, :]).reshape(*a.shape[:-1], -1), values
    )


def _walk_logs(family: GeneratorFamily, frames: list, closed: bool) -> np.ndarray:
    """Per-mode transport log sums along a path of sampled parameter points.

    ``frames`` holds each part's (``_parts``) rights and lefts at the
    points, the closing point of a closed path left out; each part is
    walked on its own frames: the log of a Kronecker product mode is the
    sum of its factors' logs, and modes of different blocks never
    overlap.  For closed paths the return to the start reuses the part's
    starting frame, so per-node gauge choices cancel exactly; a
    non-identity closing permutation means the circuit encloses a branch
    point.
    """
    logs = []
    for rights, lefts in frames:
        if closed:
            rights = np.concatenate([rights, rights[:1]])
            lefts = np.concatenate([lefts, lefts[:1]])
        perms, part_logs = transport(rights, lefts)
        if closed and np.any(perms[-1] != np.arange(perms.shape[1])):
            raise DegenerateSpectrum(
                "circuit monodromy permutes modes; a spectral degeneracy "
                "is enclosed"
            )
        logs.append(part_logs)
    return _combine(family, logs)


def _line_levels(family: GeneratorFamily, circuit: ParameterCircuit):
    """Part frames for ``_walk_logs`` of the levels n0, 2 n0, 4 n0, ... of
    ``circuit.samples`` = n0 segments, one per ``next``, in the order
    ``_refine`` evaluates them.

    Point i of level n is point 2i of level 2n bit for bit, and each node's
    frame is its matrix's alone, so one ``_parts`` stack on level 2 n0's
    nodes serves the first two levels, and each later level diagonalizes
    only its new odd nodes, woven between the frames of the level before.
    """

    def frames(pts):
        return [(rights, lefts) for _, rights, lefts, *_ in _parts(family, pts)]

    n = 2 * circuit.samples
    pts = circuit.points(n)
    level = frames(pts[:-1] if circuit.closed else pts)
    yield [(rights[::2], lefts[::2]) for rights, lefts in level]
    while True:
        yield level
        n *= 2
        new = frames(circuit.points(n, odd=True))
        level = [
            (interleave(rights, odd_rights), interleave(lefts, odd_lefts))
            for (rights, lefts), (odd_rights, odd_lefts) in zip(level, new)
        ]


def _refine(evaluate, n0: int) -> np.ndarray:
    """Doubling loop with second-order Richardson extrapolation.

    ``evaluate(n)`` returns the estimates of every mode at n samples.  Each
    level is extrapolated with the one before, E = R + (R - R_prev) / 3.
    The loop returns the raw level once two raw levels agree within
    _REFINE_TOL / 10 on every mode, or the extrapolant once two successive
    extrapolants agree within _REFINE_TOL on every mode.  A level raising
    AmbiguousMatching is skipped; NotConverged names the modes whose last
    two extrapolants disagree.
    """
    coarse = previous = pending = None
    n = int(n0)
    for _ in range(_MAX_DOUBLINGS + 1):
        try:
            raw = np.asarray(evaluate(n), dtype=float)
        except AmbiguousMatching:
            raw = None  # sampling too coarse to track modes; refine
        fine = None
        if raw is not None and coarse is not None:
            if np.all(np.abs(raw - coarse) <= 0.1 * _REFINE_TOL):
                return raw
            fine = raw + (raw - coarse) / 3.0
            if previous is not None:
                pending = ~(np.abs(fine - previous) <= _REFINE_TOL)
                if not pending.any():
                    return fine
        coarse, previous, n = raw, fine, 2 * n
    modes = "every mode" if pending is None else f"modes {np.flatnonzero(pending).tolist()}"
    raise NotConverged(
        f"phase estimate of {modes} not stable to {_REFINE_TOL} after "
        f"{_MAX_DOUBLINGS} doublings"
    )


def _curvatures(family: GeneratorFamily, chis: np.ndarray) -> np.ndarray:
    """(N, m, 3) stack of ``liouville_curvature`` at the points chis (N, d).

    Built part by part (``_parts``): pairs of modes in different parts
    never couple, and a part with fewer than two parameters, such as a
    Kronecker factor, or without a coupled pair contributes exact zeros.
    """
    if family.n_params > 3:
        raise UnsupportedDimension(
            "curvature cross product is defined for at most 3 parameters"
        )
    parts = []  # (lam, A, params, modes), A = G^H dB F (N, p, m, m) over params
    for lam, rights, lefts, rates, params, modes in _parts(family, chis):
        rates = np.reshape(rates, (-1,) + rights.shape[1:])
        A = lefts.conj().transpose(0, 2, 1)[:, None] @ rates @ rights[:, None]
        parts.append((lam, A, params, modes))
    spectrum = _combine(family, [lam for lam, _, _, _ in parts])
    gmax = [np.abs(A).max(axis=(1, 2, 3), initial=0.0) for _, A, _, _ in parts]
    gscale = np.maximum(np.max(gmax, axis=0), 1.0)
    lscale = np.maximum(np.abs(spectrum).max(axis=1), 1.0)

    # pair (n, mm) couples through v1[a] = A[a, n, mm], v2[a] = A[a, mm, n]
    coupled, near = [], np.zeros(len(chis), dtype=bool)
    for lam, A, _, _ in parts:
        mags = np.abs(A).max(axis=1, initial=0.0)
        active = mags * mags.transpose(0, 2, 1) > ((1e-12 * gscale) ** 2)[:, None, None]
        active &= ~np.eye(lam.shape[1], dtype=bool)
        gap = lam[:, None, :] - lam[:, :, None]
        close = np.abs(gap) < DEGENERACY_GAP * lscale[:, None, None]
        near |= (active & close).any(axis=(1, 2))
        coupled.append((active, gap))
    if near.any():
        raise DegenerateSpectrum(
            f"coupled near-degenerate modes at chi={chis[np.argmax(near)]}"
        )

    out = np.zeros(spectrum.shape + (3,), dtype=complex)
    for (_, A, params, modes), (active, gap) in zip(parts, coupled):
        if len(params) < 2 or not active.any():
            continue
        weight = np.zeros(active.shape, dtype=complex)
        weight[active] = 1.0 / gap[active] ** 2
        At = A.transpose(0, 1, 3, 2)
        cross = np.zeros((len(chis), 3) + active.shape[1:], dtype=complex)
        for c, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            if a in params and b in params:
                i, k = params.index(a), params.index(b)
                cross[:, c] = A[:, i] * At[:, k] - A[:, k] * At[:, i]
        out[:, modes] = np.einsum("ncij,nij->nic", cross, weight)
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def line_phases(family: GeneratorFamily, circuit: ParameterCircuit) -> np.ndarray:
    """Transport phases of every mode: -Im sum_i ln (G_k(chi_i) | F_k(chi_{i+1})).

    Gauge-invariant for closed circuits.  One walk per refinement level
    serves every mode; the discretization is doubled and
    Richardson-extrapolated at second order until every mode's raw levels
    agree within 1e-9 or its successive extrapolants within 1e-8.  The
    levels are nested (``_line_levels``): one eigenframes stack samples the
    first two, and each later one diagonalizes only the nodes it adds, so
    the phases are those of evaluating every level whole.
    """
    levels = _line_levels(family, circuit)
    return _refine(
        lambda n: -_walk_logs(family, next(levels), circuit.closed).imag, circuit.samples
    )


@functools.cache
def _spoke_rule():
    """Nodes and weights of the 8-node Gauss-Legendre rule on [0, 1] that
    ``surface_phases`` integrates along each spoke, built on first use and
    read-only.

    The boundary's midpoint rule carries the second-order error the
    extrapolation removes; a fixed 8-node spoke rule sits far below the
    tolerance, and its residual is a near-constant offset that cancels
    between levels, so the rule needs no more nodes as n grows.
    """
    nodes, weights = np.polynomial.legendre.leggauss(8)
    rule = (nodes + 1.0) / 2.0, weights / 2.0
    for a in rule:
        a.setflags(write=False)
    return rule


def surface_phases(family: GeneratorFamily, circuit: ParameterCircuit) -> np.ndarray:
    """Curvature flux -Im of every mode through a cone spanning the circuit.

    The surface is a cone swept from the boundary centroid, integrated
    with a fixed 8-node Gauss-Legendre rule along each spoke and a
    midpoint rule along the boundary, refined like the line form.  A
    level of n segments samples the path once, at 2n uniform steps whose
    even and odd points are the segment ends and midpoints.  Each level
    evaluates the curvature on every segment's spoke nodes at once, one
    stack per slice of whole segments of at most ``linalg.STACK_NODES``
    nodes.  One parameter dimension has no enclosed area, so every phase
    is zero.  A patch area past the float range raises FloatingPointError.
    """
    if family.n_params > 3:
        raise UnsupportedDimension(
            "surface form is defined for at most 3 parameters"
        )
    if not circuit.closed:
        raise ValueError("a spanning surface needs a closed circuit")
    if circuit.dim == 1:
        return np.zeros(len(family.coupling[0]))

    def padded(v):
        return np.pad(v, ((0, 0), (0, 3 - v.shape[1])))

    r, w = _spoke_rule()

    def evaluate(n):
        both = circuit.points(2 * n)
        pts, mids = both[::2], both[1::2]
        center = pts[:-1].mean(axis=0)
        spokes = mids - center
        with np.errstate(over="raise"):
            patches = np.cross(padded(spokes), padded(np.diff(pts, axis=0)))
        # per spoke node, segment-major
        chis = (center + r[:, None] * spokes[:, None, :]).reshape(-1, circuit.dim)
        node_patches = np.repeat(patches, r.size, axis=0)[:, :, None]
        node_weights = np.tile(w * r, n)[:, None]
        step = r.size * max(1, STACK_NODES // r.size)
        flux = 0.0
        for lo in range(0, len(chis), step):
            chunk = slice(lo, lo + step)
            curv = _curvatures(family, chis[chunk])
            terms = node_weights[chunk] * (curv @ node_patches[chunk])[..., 0]
            # node by node from 0.0: a dot product rounds differently, and
            # the extrapolation amplifies that to ~5e-14
            terms[0] = flux + terms[0]
            flux = np.add.accumulate(terms, axis=0)[-1]
        return -flux.imag

    return _refine(evaluate, circuit.samples)


def _check_mode(family: GeneratorFamily, k: int):
    n_modes = len(family.coupling[0])
    if not 0 <= k < n_modes:
        raise ValueError(f"mode index {k} outside 0..{n_modes - 1}")


def geometric_phase_line(
    family: GeneratorFamily, circuit: ParameterCircuit, k: int
) -> float:
    """Transport phase of mode k; the one-mode view of ``line_phases``."""
    _check_mode(family, k)
    return float(line_phases(family, circuit)[k])


def liouville_curvature(family: GeneratorFamily, chi) -> np.ndarray:
    """Curvature vectors of every mode at one parameter point, padded to 3-D.

    Row n holds sum_{m != n} (G_n|dB|F_m) x (G_m|dB|F_n) / (lambda_m -
    lambda_n)^2, where dB = (C_1, ..., C_d) are the family's constant
    partials.  Pairs in different closed blocks or different Kronecker
    factors are skipped by structure, without being formed, and inside
    one block pairs whose coupling numerator vanishes to rounding are
    skipped too, so accidental eigenvalue collisions between uncoupled
    modes are benign; a small gap between coupled modes raises
    DegenerateSpectrum.  The one-point view of the stacked evaluator
    behind ``surface_phases``.
    """
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    return _curvatures(family, chi[None])[0]


def geometric_phase_surface(
    family: GeneratorFamily, circuit: ParameterCircuit, k: int
) -> float:
    """Curvature flux of mode k; the one-mode view of ``surface_phases``."""
    _check_mode(family, k)
    return float(surface_phases(family, circuit)[k])
