"""Bi-orthogonal eigendecomposition of small dense complex matrices.

The propagators in this package diagonalize generators whose right and left
eigenvectors differ in general.  This module produces gauge-fixed
bi-orthonormal frames and tracks eigenpair identity along parameter sweeps,
on whole stacks of generators at once (``eigenframes``, ``transport``).
Each matrix takes one of three routes, all sharing the gauge and every
guard:
- exactly Hermitian, as every two-level and spin generator 1j (A0 + chi A1)
  with real antisymmetric A0, A1 is: ``eigh``, whose orthonormal rights are
  their own lefts;
- non-Hermitian of size 2 or 3, as the oscillator's blocks are: closed
  form, the roots of the characteristic quadratic or cubic (Smith, Commun.
  ACM 4, 168, 1961) with adjugate eigenvectors, certified by the guards
  because closed roots lose accuracy near a multiple eigenvalue (Kopp,
  Int. J. Mod. Phys. C 19, 523, 2008); a matrix whose frame fails one
  takes the next route, whose guards decide;
- any other: the general ``eig`` and an inverse.
``chebyshev_nodes`` and ``interleave`` hold the nested node set of the
spectral quadratures: a level is sampled whole once, and each doubling
only at its new odd nodes, interleaved with the samples before.
``su2_flow`` is the one propagator of a spin-1/2 in a time-dependent field:
stacked sixth-order Magnus steps (``magnus_axes``), exponentiated by ``su2``
and multiplied by ``ordered_product``.  The two-level exact reference
(``models.TLSModel.exact_vector``) and the driven free propagator of
``open_quantum.mesolve`` both run it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMatching, DegenerateSpectrum, NotConverged, NotDiagonalizable
from .errors import guard, nodes_at

DEGENERACY_GAP = 1e-8
MATCH_AMBIGUITY = 1e-6

# Bi-orthonormality bound every returned frame satisfies.
_BIORTHO_TOL = 1e-12
# Residual bound (relative to the generator norm) a frame must satisfy.
_RESIDUAL_TOL = 1e-10
# Normalized |G^H F| below this marks the pair as numerically defective.
_QUALITY_FLOOR = 1e-8
# Relative window treating near-equal component magnitudes as a gauge tie.
_GAUGE_TIE = 1e-9
# Most nodes of one structural part (a block or a factor) that a caller
# slicing a long node set (diagnostics.inertial_parameters, geometric.
# surface_phases, the levels of engine.propagate_inertial_batch) puts in one
# eigenframes stack: it bounds the frame memory however many nodes are
# asked for.  geometric._parts lays the stacks of
# equal-size parts end to end, so one call there holds a multiple of it.
STACK_NODES = 1024
# rows i + 1 and i + 2 (mod 3) of a 3 x 3 matrix are rows i and i + 1 of
# its rows taken in this order; the signs of the cofactors of a 2 x 2 one
_CYCLIC = np.array([1, 2, 0, 1])
_CHECKERBOARD = np.array([[1.0, -1.0], [-1.0, 1.0]])
# the three cube roots of unity
_CUBE_UNITY = np.exp(2j * np.pi / 3.0) ** np.arange(3)


@dataclass(frozen=True)
class EigenFrame:
    """Eigenvalues with paired right/left eigenvectors of one generator.

    Columns of ``rights`` are the right eigenvectors F_k, columns of
    ``lefts`` the left eigenvectors G_k, scaled so that G_k^H F_n = delta_kn.
    """

    lambdas: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray

    def __post_init__(self):
        for arr in (self.lambdas, self.rights, self.lefts):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.lambdas.shape[0]

    def right(self, k: int) -> np.ndarray:
        return self.rights[:, k]

    def left(self, k: int) -> np.ndarray:
        return self.lefts[:, k]


@dataclass(frozen=True)
class Alignment:
    """Result of continuity tracking: re-gauged frame plus bookkeeping.

    ``permutation[k]`` is the column of the raw successor frame that
    continues mode k of the predecessor; ``phases[k]`` the unit-modulus
    factor applied to that column.
    """

    frame: EigenFrame
    permutation: np.ndarray
    phases: np.ndarray


def _mode_order(lam: np.ndarray) -> np.ndarray:
    # per row of an (N, m) eigenvalue stack: magnitude groups first (rounded
    # so +k/-k pairs tie, as inf past |lambda| ~ 1.8e299), then descending
    # real part, resolving the tie as {0, +k, -k} for the model generators
    with np.errstate(over="ignore"):
        return np.lexsort((-lam.imag, -lam.real, np.round(np.abs(lam), 9)), axis=-1)


@functools.cache
def _upper_pairs(m: int) -> tuple:
    """Read-only row and column indices of the strict upper triangle of an
    m x m matrix."""
    pairs = np.triu_indices(m, k=1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def eigenframes(B, *, blocks=None):
    """Gauge-fixed bi-orthonormal frames of an (N, m, m) stack of generators.

    Returns ``(lambdas, rights, lefts)`` stacks, each frame ordered by
    ``_mode_order``.  The gauge makes the largest-magnitude component of
    each right eigenvector real and positive with unit 2-norm; the lefts
    come from the inverse right-eigenvector matrix, so G_k^H F_n =
    delta_kn.  Each matrix takes its own route, so every frame of a stack
    is the frame of its matrix alone: an exactly Hermitian one ``eigh``,
    its lefts equal to its orthonormal rights (in an array of their own);
    a non-Hermitian 2 x 2 or 3 x 3 one the closed form of
    ``_closed_eigensystem`` (Smith 1961), kept where its frame passes
    every guard below and else diagonalized again by ``eig`` (closed roots
    lose accuracy near multiple eigenvalues; Kopp 2008); any other ``eig``.
    Raises ValueError for non-finite entries, DegenerateSpectrum when a
    minimal eigenvalue gap falls below ``DEGENERACY_GAP`` and
    NotDiagonalizable when a right/left pair is numerically orthogonal
    (defective generator) or the bi-orthonormality or residual bound
    fails, naming every node that fails at the first guard that fires.

    ``blocks`` lists index ranges (lo, hi) of closed blocks on which every
    generator of the stack is block-diagonal.  Each block is diagonalized
    on its own, with the guards above, and the frames are assembled
    block-diagonally at full dimension, modes ordered block by block, so
    equal eigenvalues of different blocks are no degeneracy.
    """
    B = np.asarray(B, dtype=complex)
    if B.ndim != 3 or B.shape[1] != B.shape[2]:
        raise ValueError(f"expected square matrices, got shape {B.shape[1:]}")
    guard(ValueError, (~np.isfinite(B), lambda i: "generator contains non-finite entries"))
    if blocks is None:
        return _diagonalize(B)
    lam, rights, lefts = np.zeros(B.shape[:2], dtype=complex), np.zeros_like(B), np.zeros_like(B)
    for lo, hi in blocks:
        lam[:, lo:hi], rights[:, lo:hi, lo:hi], lefts[:, lo:hi, lo:hi] = _diagonalize(
            B[:, lo:hi, lo:hi]
        )
    return lam, rights, lefts


def _diagonalize(B: np.ndarray):
    """``eigenframes`` of one checked (N, m, m) stack without block structure."""
    m = B.shape[1]
    if m == 1:
        return B[:, 0, :].copy(), np.ones_like(B), np.ones_like(B)

    # B = 1j (A0 + chi A1) with A0, A1 real antisymmetric is Hermitian bit
    # for bit: eigh gives orthonormal rights, whose inverse is their adjoint.
    # Each matrix takes its own route, so no frame depends on its stack
    exact = np.all(B == B.conj().transpose(0, 2, 1), axis=(1, 2))
    if exact.any() and not exact.all():
        lam, rights, lefts = np.empty(B.shape[:2], dtype=complex), np.empty_like(B), np.empty_like(B)
        for part in (exact, ~exact):
            with nodes_at(np.flatnonzero(part)):
                lam[part], rights[part], lefts[part] = _diagonalize(B[part])
        return lam, rights, lefts
    if exact.all():
        lam, vr = np.linalg.eigh(B)
        return _framed(B, lam.astype(complex), vr, _adjoint)
    if m > 3:
        return _framed(B, *np.linalg.eig(B), _inverse)
    # a node whose closed-form frame misses a bound is diagonalized again
    # by eig, whose guards then decide as if no closed form had been tried
    with np.errstate(all="ignore"):
        lam, rights, lefts, certified = _certified(B, *_closed_eigensystem(B))
    if not certified.all():
        redo = np.flatnonzero(~certified)
        with nodes_at(redo):
            frames = _framed(B[redo], *np.linalg.eig(B[redo]), _inverse)
        lam[redo], rights[redo], lefts[redo] = frames
    return lam, rights, lefts


def _framed(B, lam, vr, invert):
    """Ordered, gauge-fixed frames of the eigenpairs (lam, vr) of a stack,
    the lefts from ``invert(rights)``, with every guard raising."""
    lam, vr, gap = _ordered(lam, vr)
    guard(DegenerateSpectrum, _gap_check(gap))
    rights = _gauged(vr)
    inverse = invert(rights)
    # a fresh array on every route, so no caller writes through it into rights
    lefts = inverse.conj().transpose(0, 2, 1)
    guard(NotDiagonalizable, *_pair_checks(B, lam, rights, inverse, lefts)[0])
    return lam, rights, lefts


def _adjoint(rights):
    # orthonormal rights: on the Hermitian route the pair checks test that
    return rights.conj().transpose(0, 2, 1)


def _inverse(rights):
    try:
        return np.linalg.inv(rights)
    except np.linalg.LinAlgError as exc:
        # slogdet's sign is 0 where the LU factorization of inv hit a zero pivot
        message = "right eigenvectors are linearly dependent"
        guard(NotDiagonalizable, (np.linalg.slogdet(rights)[0] == 0, lambda i: message))
        raise NotDiagonalizable(message) from exc


def _ordered(lam, vr):
    """Eigenvalues and eigenvector columns in ``_mode_order``, and the
    minimal eigenvalue gap of every node."""
    rows, cols = np.arange(len(lam))[:, None], np.arange(lam.shape[1])
    order = _mode_order(lam)
    lam = lam[rows, order]
    vr = vr[rows[:, None], cols[:, None], order[:, None, :]]
    upper = _upper_pairs(lam.shape[1])
    return lam, vr, np.abs(lam[:, upper[0]] - lam[:, upper[1]]).min(axis=1)


def _gap_check(gap):
    return gap < DEGENERACY_GAP, lambda i: (
        f"minimal eigenvalue gap {gap[i]:.3e} below threshold {DEGENERACY_GAP:.1e}")


def _gauged(vr):
    """Eigenvector columns scaled to unit norm, each largest component real
    and positive."""
    rows, cols = np.arange(len(vr))[:, None], np.arange(vr.shape[2])
    # smallest index whose magnitude ties the maximum, so exact ties
    # resolve identically regardless of rounding noise
    comp = np.abs(vr)
    pivot = np.argmax(comp >= (1.0 - _GAUGE_TIE) * comp.max(axis=1, keepdims=True), axis=1)
    top = vr[rows, pivot, cols][:, None, :]
    rights = vr / (top / np.abs(top))
    return rights / np.linalg.norm(rights, axis=1, keepdims=True)


def _pair_checks(B, lam, rights, inverse, lefts):
    """The NotDiagonalizable checks of a frame stack: pair quality,
    bi-orthonormality and residual, and a mask of the nodes whose
    bi-orthonormality and residual are finite."""
    cross = inverse @ rights
    quality = np.abs(np.diagonal(cross, axis1=1, axis2=2)) / (
        np.linalg.norm(lefts, axis=1) * np.linalg.norm(rights, axis=1)
    )
    biortho = np.abs(cross - np.eye(rights.shape[2])).max(axis=(1, 2))
    residual = np.abs(B @ rights - rights * lam[:, None, :]).max(axis=(1, 2))
    checks = (
        (quality < _QUALITY_FLOOR, lambda i: (
            f"right/left pair {i[1]} nearly orthogonal (normalized |G^H F| = {quality[i]:.3e})")),
        (biortho > _BIORTHO_TOL, lambda i: (
            "bi-orthonormality violated beyond tolerance; generator is too close to defective")),
        (residual > _RESIDUAL_TOL * np.maximum(1.0, _frobenius(B)),
         lambda i: f"eigenpair residual {residual[i]:.3e} too large"),
    )
    return checks, np.isfinite(biortho) & np.isfinite(residual)


def _cofactors(M):
    """Cofactor matrices of a (..., m, m) stack, m in {2, 3}: row i of the
    result is column i of the adjugate, so M @ it^T = det(M) I, and for
    m = 3 it is the cross product of rows i + 1 and i + 2 of M."""
    if M.shape[-1] == 2:
        return M[..., ::-1, ::-1] * _CHECKERBOARD
    # C_ij = M_{i+1,j+1} M_{i+2,j+2} - M_{i+1,j+2} M_{i+2,j+1}, indices mod 3
    D = M[..., _CYCLIC[:, None], _CYCLIC]
    return D[..., :3, :3] * D[..., 1:, 1:] - D[..., :3, 1:] * D[..., 1:, :3]


def _closed_eigensystem(B):
    """``np.linalg.eig`` of a stack of 2 x 2 or 3 x 3 matrices in closed form.

    The eigenvalues are the roots of the characteristic quadratic or cubic
    (Cardano, from the larger-magnitude root of the resolvent quadratic)
    of each matrix scaled by the power of two of its largest entry, which
    is exact and keeps the invariants in range.  Each eigenvector is the
    largest cofactor row of B - lambda I, i.e. its largest adjugate
    column.  Near a multiple eigenvalue closed roots lose accuracy before
    iterative ones do (Kopp, Int. J. Mod. Phys. C 19, 523, 2008): the
    caller certifies the result, with floating-point warnings off: a
    defective or degenerate matrix gives NaN or parallel columns.
    """
    m = B.shape[1]
    scale = np.ldexp(1.0, np.frexp(np.abs(B).max(axis=(1, 2)))[1])[:, None]
    A = B / scale[:, :, None]
    shift = np.trace(A, axis1=1, axis2=2)[:, None] / m
    C = A - shift[:, :, None] * np.eye(m)
    if m == 2:
        # C is traceless: x^2 = -det C
        root = np.sqrt(-(C[:, 0, 0] * C[:, 1, 1] - C[:, 0, 1] * C[:, 1, 0]))[:, None]
        x = np.concatenate([root, -root], axis=1)
    else:
        # x^3 + p x + q = 0, p the sum of C's principal minors and q = -det C:
        # w = -q/2 +- sqrt(q^2/4 + p^3/27), the sign giving the larger |w|,
        # and x = u - p / 3u over the three cube roots u of w
        cof = _cofactors(C)
        p = np.trace(cof, axis1=1, axis2=2)[:, None]
        half_q = -0.5 * (C[:, 0] * cof[:, 0]).sum(axis=1)[:, None]
        s = np.sqrt(half_q * half_q + (p / 3.0) ** 3)
        w = np.where((half_q.conj() * s).real <= 0.0, s - half_q, -s - half_q)
        u = w ** (1.0 / 3.0) * _CUBE_UNITY
        x = u - p / (3.0 * u)
    # cof[n, k, i]: cofactor row i of C - x_k I at node n
    cof = _cofactors(C[:, None] - x[:, :, None, None] * np.eye(m))
    best = np.argmax((cof * cof.conj()).real.sum(axis=3), axis=2)
    vr = cof[np.arange(len(B))[:, None], np.arange(m), best].transpose(0, 2, 1)
    return scale * (x + shift), vr


def _certified(B, lam, vr):
    """``_framed`` with the lefts from the cofactors of the rights over
    their determinant, and, instead of raising, a mask of the nodes whose
    frames pass every guard with finite bounds."""
    lam, vr, gap = _ordered(lam, vr)
    rights = _gauged(vr)
    cof = _cofactors(rights)
    inverse = cof.transpose(0, 2, 1) / (rights[:, 0] * cof[:, 0]).sum(axis=1)[:, None, None]
    lefts = inverse.conj().transpose(0, 2, 1)
    checks, ok = _pair_checks(B, lam, rights, inverse, lefts)
    for bad in (_gap_check(gap)[0], *(bad for bad, _ in checks)):
        ok &= ~bad.reshape(len(bad), -1).any(axis=1)
    return lam, rights, lefts, ok


def _frobenius(B: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of an (N, m, m) stack.  A matrix whose
    squares overflow (entries past 1e154) is scaled by the power of two of
    its largest entry first, so its norm stays finite."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(B, axis=(1, 2))
    big = np.isinf(norm)
    if big.any():
        unit = np.ldexp(1.0, np.frexp(np.abs(B[big]).max(axis=(1, 2)))[1])
        norm[big] = unit * np.linalg.norm(B[big] / unit[:, None, None], axis=(1, 2))
    return norm


def bi_eigendecompose(B: np.ndarray) -> EigenFrame:
    """Diagonalize B with bi-orthonormal right/left eigenvector pairs.

    The single-matrix view of ``eigenframes``, with the same gauge and
    guards: DegenerateSpectrum when the minimal eigenvalue gap falls below
    ``DEGENERACY_GAP`` and NotDiagonalizable when a right/left pair is
    numerically orthogonal (defective generator).
    """
    B = np.asarray(B, dtype=complex)[None]
    lam, rights, lefts = eigenframes(B)
    return EigenFrame(lambdas=lam[0], rights=rights[0], lefts=lefts[0])


def transport(rights, lefts):
    """Follow every mode along a path of frames, given as (N+1, m, m) stacks,
    or along each of P paths at once, given as (P, N+1, m, m) stacks.

    Mode k continues into the column of the next frame with the largest
    normalized overlap |G_k . F_n|.  Returns ``(perms, logs)``:
    ``perms[..., i, k]`` is the column of frame i continuing column k of
    frame 0, and ``logs[..., k]`` sums ln(G_k . F_k) over the steps of
    mode k.  Raises AmbiguousMatching when the two best overlaps of any
    column are within ``MATCH_AMBIGUITY``, or two columns claim one
    successor; over P paths the error names every path that fails at the
    first guard that fires, each with its one-path message.
    """
    rights = np.asarray(rights)
    lefts = np.asarray(lefts)
    if rights.shape != lefts.shape or rights.ndim not in (3, 4):
        raise ValueError("frames of different dimension cannot be matched")
    if rights.ndim == 3:
        perms, logs = transport(rights[None], lefts[None])
        return perms[0], logs[0]
    steps, m = rights.shape[-3] - 1, rights.shape[-1]
    raw = lefts[..., :-1, :, :].conj().swapaxes(-1, -2) @ rights[..., 1:, :, :]
    norms = (
        np.linalg.norm(lefts[..., :-1, :, :], axis=-2)[..., :, None]
        * np.linalg.norm(rights[..., 1:, :, :], axis=-2)[..., None, :]
    )
    overlaps = np.abs(raw) / norms
    succ = np.argmax(overlaps, axis=-1)
    ident = np.arange(m)
    close = ()
    if m > 1:
        top = np.partition(overlaps, -2, axis=-1)
        close = ((top[..., -1] - top[..., -2] < MATCH_AMBIGUITY, lambda i: (
            f"mode {i[2]} at step {i[1] + 1}: top overlaps {top[i][-1]:.6f} and "
            f"{top[i][-2]:.6f} are too close to resolve")),)
    guard(AmbiguousMatching, *close, (np.sort(succ, axis=-1) != ident,
                                      lambda i: "two modes matched the same successor column"))

    perms = np.tile(ident, (len(succ), steps + 1, 1))
    for p, i in np.argwhere(np.any(succ != ident, axis=-1)):
        perms[p, i + 1 :] = succ[p, i][perms[p, i]]
    # raw[..., i, perms[i, k], perms[i + 1, k]]: the row, then the column
    rows = np.take_along_axis(raw, perms[..., :-1, :, None], axis=-2)
    chosen = np.take_along_axis(rows, perms[..., 1:, :, None], axis=-1)[..., 0]
    return perms, np.log(chosen).sum(axis=-2)


def track_continuity(prev: EigenFrame, nxt: EigenFrame) -> Alignment:
    """Reorder and re-gauge ``nxt`` so each mode continues ``prev``.

    The one-step view of ``transport``: mode k of the result is the column
    of ``nxt`` with the largest normalized overlap |G_k^prev . F_n^next|,
    phase-rotated so the overlap is real and positive (discrete parallel
    transport).  Raises AmbiguousMatching as ``transport`` does.
    """
    perms, logs = transport(
        np.stack([prev.rights, nxt.rights]),
        np.stack([prev.lefts, nxt.lefts]),
    )
    permutation = perms[1]
    # same factor on F and G keeps G^H F = 1
    phases = np.exp(-1j * logs.imag)
    frame = EigenFrame(
        lambdas=nxt.lambdas[permutation],
        rights=nxt.rights[:, permutation] * phases,
        lefts=nxt.lefts[:, permutation] * phases,
    )
    return Alignment(frame=frame, permutation=permutation, phases=phases)


def chebyshev_nodes(n: int) -> np.ndarray:
    """The n + 1 Chebyshev extreme points x_j = cos(pi j / n) of [-1, 1], x_0 = 1."""
    return np.cos(np.pi * np.arange(n + 1) / n)


def interleave(old, odd, axis: int = 0) -> np.ndarray:
    """Samples of the next level along ``axis``: those of the level before
    (``old``) with the new odd nodes' samples (``odd``) between them."""
    return np.insert(old, np.arange(1, old.shape[axis]), odd, axis=axis)


def chebyshev_coefficients(values) -> np.ndarray:
    """Coefficients of T_0 ... T_n (axis 0) of the interpolant through the
    samples on one level's ``chebyshev_nodes(n)``: a DCT-I, as the FFT of
    their even extension (Trefethen, SIAM Review 50, 2008), one per
    complex part."""
    from numpy.fft import rfft

    if np.iscomplexobj(values):
        return chebyshev_coefficients(values.real) + 1j * chebyshev_coefficients(values.imag)
    n = len(values) - 1
    c = rfft(np.concatenate([values, values[-2:0:-1]]), axis=0).real / n
    c[[0, n]] /= 2.0
    return c


@functools.cache
def chebyshev_derivative(n: int) -> np.ndarray:
    """(n + 1, n + 1) matrix taking samples on the Chebyshev extreme points
    x_j = cos(pi j / n) of [-1, 1] to the derivative of their interpolant
    there (Trefethen, Spectral Methods in MATLAB, 2000, ch. 6).  The node
    differences come from a product of sines, which loses no digits near
    x = +-1, and each diagonal entry is minus its row's other entries, so
    the matrix differentiates constants to exactly zero.  Built once per n
    and returned read-only."""
    j = np.arange(n + 1)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    # x_i - x_j = 2 sin(pi (i + j) / 2n) sin(pi (j - i) / 2n)
    half = np.pi / (2 * n)
    diff = 2.0 * np.sin(half * (j[:, None] + j)) * np.sin(half * (j - j[:, None]))
    np.fill_diagonal(diff, 1.0)
    D = np.outer(c, 1.0 / c) / diff
    np.fill_diagonal(D, 0.0)
    D[j, j] = -D.sum(axis=1)
    D.setflags(write=False)
    return D


# Gauss-Legendre points of one Magnus step, as fractions of its length
_GAUSS_3 = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
# steps of one Magnus level beyond which its users raise NotConverged
MAGNUS_MAX_STEPS = 2**16
# steps per radian of rotation at which the users' first Magnus level
# starts: about where two levels agree to 1e-10 on the two-level drives
MAGNUS_STEPS_PER_RAD = 6.0
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]


def magnus_axes(field, edges) -> np.ndarray:
    """Sixth-order Magnus axis vector of every step of a rotation field.

    ``edges`` are the N + 1 ends of N steps and ``field`` maps a 1-D array
    of times to the (len, 3) field k there, sampled at the three
    Gauss-Legendre points of each step.  k generates v' = k x v in so(3)
    and U' = -i (k . sigma / 2) U in su(2); both brackets are the cross
    product, so the sixth-order method of Blanes, Casas, Oteo & Ros
    (Phys. Rep. 470, 2009) with three commutators takes three cross
    products per step.  Returns the (N, 3) axes w: step n moves v by the
    rotation exp(w_n x) and U by exp(-i w_n . sigma / 2), up to O(h^7).
    """
    edges = np.asarray(edges, dtype=float)
    h = np.diff(edges)[:, None]
    k = field((edges[:-1, None] + h * _GAUSS_3).ravel()).reshape(len(h), 3, 3)
    a1 = h * k[:, 1]
    a2 = (math.sqrt(15.0) / 3.0) * h * (k[:, 2] - k[:, 0])
    a3 = (10.0 / 3.0) * h * (k[:, 2] - 2.0 * k[:, 1] + k[:, 0])
    c1 = _cross(a1, a2)
    c2 = _cross(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + _cross(c1 - 20.0 * a1 - a3, a2 + c2) / 240.0


def _cross(a, b):
    # row-wise a x b of two (N, 3) stacks, without np.cross's axis handling
    return a[:, _NEXT] * b[:, _LAST] - a[:, _LAST] * b[:, _NEXT]


def ordered_product(mats) -> np.ndarray:
    """M_{N-1} ... M_1 M_0 of a stack running over axis -3, N a power of two,
    later factors on the left, by pairwise reduction: log2 N batched
    products, no loop over N."""
    while mats.shape[-3] > 1:
        mats = mats[..., 1::2, :, :] @ mats[..., 0::2, :, :]
    return mats[..., 0, :, :]


def su2(w: np.ndarray) -> np.ndarray:
    """exp(-i w . sigma / 2) = cos(|w|/2) I - i sin(|w|/2)/|w| w . sigma for
    an (N, 3) stack of axis vectors."""
    angle = np.linalg.norm(w, axis=1)
    ratio = np.where(angle > 0.0, np.sin(0.5 * angle) / np.where(angle > 0.0, angle, 1.0), 0.5)
    x, y, z = (ratio * w[:, i] for i in range(3))
    c = np.cos(0.5 * angle)
    return np.stack([c - 1j * z, -1j * x - y, -1j * x + y, c + 1j * z], axis=1).reshape(-1, 2, 2)


def magnus_ladder(angle: float, intervals: int, least: int = 1) -> tuple:
    """(cap, levels) of a Magnus flow over ``intervals`` grid intervals, the
    widest turning by ``angle`` rad: the levels, in steps per interval,
    double from about MAGNUS_STEPS_PER_RAD per radian (at least ``least``)
    while within the cap of max(MAGNUS_MAX_STEPS, 2 intervals) steps."""
    cap = max(MAGNUS_MAX_STEPS, 2 * intervals)
    s = max(least, 2 ** round(math.log2(MAGNUS_STEPS_PER_RAD * angle)))
    return cap, [s << i for i in range(cap.bit_length()) if (s << i) * intervals <= cap]


def su2_flow(field, ts, steps, *, rtol: float, atol: float) -> np.ndarray:
    """Time-ordered U(t) of U' = -i (k(t) . sigma / 2) U, U(ts[0]) = I, at
    every time of the grid ``ts``.

    ``field`` is a ``magnus_axes`` field.  Each of the N grid intervals
    takes s sixth-order Magnus steps, exponentiated by ``su2`` and
    multiplied by ``ordered_product``; prefix products over the intervals
    give U on the grid.  s runs over ``steps`` (powers of two, each level's
    steps per interval) until two levels agree within atol + rtol |U| in
    every entry.  Raises NotConverged when none do, naming the cap of the
    callers' ``magnus_ladder``, max(MAGNUS_MAX_STEPS, 2 N) steps.
    """
    ts = np.asarray(ts, dtype=float)
    dt = np.diff(ts)
    previous = None
    for s in steps:
        edges = np.append((ts[:-1, None] + dt[:, None] * (np.arange(s) / s)).ravel(), ts[-1])
        U = ordered_product(su2(magnus_axes(field, edges)).reshape(len(dt), s, 2, 2))
        offset = 1
        while offset < len(U):  # prefix products, later intervals on the left
            U[offset:] = U[offset:] @ U[:-offset]
            offset *= 2
        if previous is not None and np.all(np.abs(U - previous) <= atol + rtol * np.abs(U)):
            return np.concatenate([np.eye(2)[None], U])
        previous = U
    raise NotConverged(
        f"no two Magnus levels agreed within {max(MAGNUS_MAX_STEPS, 2 * len(dt))} steps"
    )
