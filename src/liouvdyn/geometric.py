"""Geometric phases of closed-algebra generator families.

A closed circuit in the drive-parameter space imprints a gauge-invariant
phase on every eigenoperator mode.  Two independent evaluations are
provided: a discrete parallel-transport product along the circuit (line
form, robust because it never differentiates eigenvectors) and a
curvature flux through a surface spanning the circuit (surface form).
Stokes' theorem ties the two on circuits that do not enclose spectral
degeneracies; degeneracy-enclosing circuits are refused.

Both discretizations converge at least at second order in the step; the
refinement loop doubles the sampling, extrapolates at the contraction
order it actually observes, and stops once successive extrapolants
agree.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousMatching,
    DegenerateSpectrum,
    NotConverged,
    UnsupportedDimension,
)
from .linalg import DEGENERACY_GAP, STACK_NODES, eigenframes, transport
from .models import (
    HO_BLOCKS,
    HO_COUPLING,
    TLS_BLOCKS,
    TLS_COUPLING,
    TLS_EMBEDDED_COUPLING,
    TWO_SPIN_LOCAL_COUPLING,
)

_REFINE_TOL = 1e-8
_MAX_DOUBLINGS = 6
_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class ParameterCircuit:
    """Piecewise-smooth parameter curve chi(s), s in [0, 1].

    ``samples`` sets the base discretization of the refinement loop;
    closed circuits must return to their starting point.
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

    def points(self, n: int = None) -> np.ndarray:
        """(n+1, d) array of path samples at uniform s."""
        n = self.samples if n is None else int(n)
        return np.array(
            [np.atleast_1d(np.asarray(self.path(i / n), dtype=float)) for i in range(n + 1)]
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


@dataclass(frozen=True, eq=False)
class GeneratorFamily:
    """Affine generator family B(chi) = C0 + sum_k chi_k C_k with optional structure.

    ``coupling`` holds the constant matrices (C0, C1, ..., Cd): the family
    has d parameters, and its partial derivatives are the constants C_k.
    ``blocks`` declares closed sub-blocks diagonalized independently.
    ``factors`` declares a Kronecker-sum composition of one-parameter
    families, whose product modes stay smooth even where sums of factor
    eigenvalues collide accidentally.
    """

    coupling: tuple
    blocks: tuple = None
    factors: tuple = None

    def __post_init__(self):
        coupling = tuple(np.array(C, dtype=complex) for C in self.coupling)
        for C in coupling:
            if C.shape != (len(coupling[0]),) * 2:
                raise ValueError("coupling matrices must share one square shape")
            C.setflags(write=False)
        object.__setattr__(self, "coupling", coupling)

    @property
    def n_params(self) -> int:
        return len(self.coupling) - 1

    def matrices(self, chis) -> np.ndarray:
        """(N, m, m) stack of B at the (N, d) parameter points chis."""
        B = self.coupling[0]
        for chi, C in zip(np.asarray(chis, dtype=float).T, self.coupling[1:], strict=True):
            B = B + chi[:, None, None] * C
        return B

    @classmethod
    def kronecker_sum(cls, factors):
        """Compose one-parameter families f_j into sum_j I x B_j(chi_j) x I.

        Each factor's coupling is embedded into the full space once, here.
        """
        factors = tuple(factors)
        if any(f.n_params != 1 for f in factors):
            raise ValueError("factors must be one-parameter families")
        dims = [len(f.coupling[0]) for f in factors]

        def embed(mat, j):
            out = mat
            if j > 0:
                out = np.kron(np.eye(math.prod(dims[:j])), out)
            if j < len(dims) - 1:
                out = np.kron(out, np.eye(math.prod(dims[j + 1 :])))
            return out

        constant = sum(embed(f.coupling[0], j) for j, f in enumerate(factors))
        rates = (embed(f.coupling[1], j) for j, f in enumerate(factors))
        return cls(coupling=(constant, *rates), factors=factors)


def _bundled(coupling, blocks=None) -> GeneratorFamily:
    """Family of a bundled generator 1j (A0 + sum_k chi_k A_k) from its
    real coupling."""
    return GeneratorFamily(coupling=tuple(1j * A for A in coupling), blocks=blocks)


def ho_family() -> GeneratorFamily:
    """One-parameter oscillator generator family."""
    return _bundled(HO_COUPLING, HO_BLOCKS)


def tls_family() -> GeneratorFamily:
    """One-parameter two-level generator family (identity row embedded)."""
    return _bundled(TLS_EMBEDDED_COUPLING, TLS_BLOCKS)


def two_spin_local_family() -> GeneratorFamily:
    """Two-parameter family of the stacked single-spin triples."""
    return _bundled(TWO_SPIN_LOCAL_COUPLING, ((0, 3), (3, 6)))


def two_spin_nonlocal_family() -> GeneratorFamily:
    """Two-parameter family of the nine cross-correlator products.

    Built as a Kronecker sum of the two single-spin families, so modes
    are factor products and remain well defined on the chi1 = chi2 line
    where eigenvalues of the sum cross accidentally.
    """
    single = _bundled(TLS_COUPLING)
    return GeneratorFamily.kronecker_sum((single, single))


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


def _walk_logs(family: GeneratorFamily, pts: np.ndarray, closed: bool) -> np.ndarray:
    """Per-mode transport log sums along a path of sampled parameter points.

    Each part (``_parts``) is walked on its own frames: the log of a
    Kronecker product mode is the sum of its factors' logs, and modes of
    different blocks never overlap.  For closed paths the return to the
    start reuses the part's starting frame, so per-node gauge choices
    cancel exactly; a non-identity closing permutation means the circuit
    encloses a branch point.
    """
    logs = []
    for _, rights, lefts, _, _, _ in _parts(family, pts[:-1] if closed else pts):
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


def _refine(evaluate, n0: int) -> np.ndarray:
    """Doubling loop with Richardson extrapolation at the observed order.

    ``evaluate(n)`` returns the estimates of every mode at n samples.
    The contraction ratio of each mode's doubling sequence fixes its
    extrapolation weight (Aitken form), so second-order estimators and
    faster-converging special cases are handled alike.  A mode stops as
    soon as its raw sequence goes flat or two successive extrapolants
    agree, and keeps that value; the loop returns once every mode has
    stopped and raises NotConverged if any has not.
    """
    raws = []
    result = prev_ext = done = None
    n = int(n0)
    for _ in range(_MAX_DOUBLINGS + 1):
        try:
            raws.append(np.asarray(evaluate(n), dtype=float))
        except AmbiguousMatching:
            raws.append(None)  # sampling too coarse to track modes; refine
        if len(raws) >= 2 and raws[-1] is not None and raws[-2] is not None:
            if result is None:
                result = prev_ext = np.full(raws[-1].shape, np.nan)
                done = np.zeros(raws[-1].shape, dtype=bool)
            d_new = raws[-1] - raws[-2]
            stop = ~done & (np.abs(d_new) <= 0.1 * _REFINE_TOL)
            result = np.where(stop, raws[-1], result)
            if len(raws) >= 3 and raws[-3] is not None:
                d_old = raws[-2] - raws[-3]
                moving = ~done & ~stop & (np.abs(d_old) > 2.0 * np.abs(d_new))
                with np.errstate(divide="ignore", invalid="ignore"):
                    ext = raws[-1] + d_new * d_new / (d_old - d_new)
                    agree = moving & (np.abs(ext - prev_ext) <= _REFINE_TOL)
                result = np.where(agree, ext, result)
                prev_ext = np.where(moving, ext, prev_ext)
                stop |= agree
            done = done | stop
            if done.all():
                return result
        n *= 2
    pending = "every mode" if done is None else f"modes {np.flatnonzero(~done).tolist()}"
    raise NotConverged(
        f"phase estimate of {pending} not stable to {_REFINE_TOL} after "
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
    serves every mode; the discretization is doubled,
    Richardson-extrapolated, and each mode declared converged when its
    successive extrapolants move by no more than 1e-8.
    """
    return _refine(
        lambda n: -_walk_logs(family, circuit.points(n), circuit.closed).imag,
        circuit.samples,
    )


def surface_phases(family: GeneratorFamily, circuit: ParameterCircuit) -> np.ndarray:
    """Curvature flux -Im of every mode through a cone spanning the circuit.

    The surface is a cone swept from the boundary centroid, integrated
    with Gauss-Legendre nodes along each spoke and a midpoint rule along
    the boundary, refined like the line form.  Each refinement level
    evaluates the curvature on every segment's spoke nodes at once, one
    stack per slice of whole segments of at most ``linalg.STACK_NODES``
    nodes.  One parameter dimension has no enclosed area, so every phase
    is zero.
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

    def evaluate(n):
        pts = circuit.points(n)
        center = pts[:-1].mean(axis=0)
        # boundary error dominates, so the spoke rule only needs enough
        # nodes that its residual keeps shrinking under refinement
        nodes, weights = np.polynomial.legendre.leggauss(
            max(8, round(2.0 * math.log2(n)))
        )
        r, w = (nodes + 1.0) / 2.0, weights / 2.0
        mids = np.array(
            [np.atleast_1d(np.asarray(circuit.path((i + 0.5) / n), dtype=float)) for i in range(n)]
        )
        spokes = mids - center
        patches = np.cross(padded(spokes), padded(np.diff(pts, axis=0)))
        # per spoke node, segment-major
        chis = (center + r[:, None] * spokes[:, None, :]).reshape(-1, circuit.dim)
        node_patches = np.repeat(patches, r.size, axis=0)[:, :, None]
        node_weights = np.tile(w * r, n)[:, None]
        step = r.size * max(1, STACK_NODES // r.size)
        flux = 0.0
        for lo in range(0, len(chis), step):
            nodes = slice(lo, lo + step)
            curv = _curvatures(family, chis[nodes])
            terms = node_weights[nodes] * (curv @ node_patches[nodes])[..., 0]
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
