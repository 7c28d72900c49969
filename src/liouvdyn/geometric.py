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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousMatching,
    DegenerateSpectrum,
    NotConverged,
    UnsupportedDimension,
)
from .linalg import (
    DEGENERACY_GAP,
    EigenFrame,
    _mode_order,
    eigenframes,
    transport,
)
from .models import (
    HO_BLOCKS,
    TLS_BLOCKS,
    ho_generator,
    ho_generator_grad,
    tls_generator,
    tls_generator_grad,
    two_spin_generator_grads,
    two_spin_generators,
)

_REFINE_TOL = 1e-8
_FD_STEP = 1e-5
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


@dataclass(frozen=True)
class GeneratorFamily:
    """Parameter-dependent generator chi -> B(chi) with optional structure.

    ``grad_B`` returns the tuple of partial-derivative matrices; when
    absent, central differences with step 1e-5 are used.  ``blocks``
    declares closed sub-blocks diagonalized independently.  ``factors``
    declares a Kronecker-sum composition of one-parameter families, whose
    product modes stay smooth even where sums of factor eigenvalues
    collide accidentally.
    """

    B_of_chi: object
    n_params: int
    grad_B: object = None
    blocks: tuple = None
    factors: tuple = None

    def matrix(self, chi) -> np.ndarray:
        return np.asarray(self.B_of_chi(np.atleast_1d(np.asarray(chi, dtype=float))))

    @classmethod
    def kronecker_sum(cls, factors):
        """Compose one-parameter families f_j into sum_j I x B_j(chi_j) x I."""
        factors = tuple(factors)
        if any(f.n_params != 1 for f in factors):
            raise ValueError("factors must be one-parameter families")
        dims = [f.matrix(0.0).shape[0] for f in factors]

        def embed(mat, j):
            out = mat
            if j > 0:
                out = np.kron(np.eye(int(np.prod(dims[:j]))), out)
            if j < len(dims) - 1:
                out = np.kron(out, np.eye(int(np.prod(dims[j + 1 :]))))
            return out

        def B(chi):
            return sum(embed(f.matrix(chi[j]), j) for j, f in enumerate(factors))

        def grad(chi):
            return tuple(
                embed(_grad_list(f, np.atleast_1d(chi[j]))[0], j)
                for j, f in enumerate(factors)
            )

        return cls(
            B_of_chi=B, n_params=len(factors), grad_B=grad, factors=factors
        )


def ho_family() -> GeneratorFamily:
    """One-parameter oscillator generator family."""
    return GeneratorFamily(
        B_of_chi=lambda chi: ho_generator(chi[0]),
        n_params=1,
        grad_B=lambda chi: (ho_generator_grad(chi[0]),),
        blocks=HO_BLOCKS,
    )


def tls_family() -> GeneratorFamily:
    """One-parameter two-level generator family (identity row embedded)."""

    def grad(chi):
        g = np.zeros((4, 4), dtype=complex)
        g[:3, :3] = tls_generator_grad(chi[0])
        return (g,)

    def B(chi):
        out = np.zeros((4, 4), dtype=complex)
        out[:3, :3] = tls_generator(chi[0])
        return out

    return GeneratorFamily(B_of_chi=B, n_params=1, grad_B=grad, blocks=TLS_BLOCKS)


def two_spin_local_family() -> GeneratorFamily:
    """Two-parameter family of the stacked single-spin triples."""
    return GeneratorFamily(
        B_of_chi=lambda chi: two_spin_generators(chi[0], chi[1])[0],
        n_params=2,
        grad_B=lambda chi: two_spin_generator_grads(chi[0], chi[1])[0],
        blocks=((0, 3), (3, 6)),
    )


def two_spin_nonlocal_family() -> GeneratorFamily:
    """Two-parameter family of the nine cross-correlator products.

    Built as a Kronecker sum of the two single-spin families, so modes
    are factor products and remain well defined on the chi1 = chi2 line
    where eigenvalues of the sum cross accidentally.
    """
    single = GeneratorFamily(
        B_of_chi=lambda chi: tls_generator(chi[0]),
        n_params=1,
        grad_B=lambda chi: (tls_generator_grad(chi[0]),),
    )
    return GeneratorFamily.kronecker_sum((single, single))


# ---------------------------------------------------------------------------
# frames and transport
# ---------------------------------------------------------------------------


def _grad_list(family: GeneratorFamily, chi: np.ndarray):
    if family.grad_B is not None:
        grads = family.grad_B(chi)
        if isinstance(grads, np.ndarray) and grads.ndim == 2:
            grads = (grads,)
        return tuple(np.asarray(g) for g in grads)
    out = []
    for a in range(family.n_params):
        step = np.zeros_like(chi)
        step[a] = _FD_STEP
        out.append(
            (family.matrix(chi + step) - family.matrix(chi - step)) / (2.0 * _FD_STEP)
        )
    return tuple(out)


def _kron_frames(frames):
    rights = frames[0].rights
    lefts = frames[0].lefts
    lambdas = frames[0].lambdas
    for f in frames[1:]:
        rights = np.kron(rights, f.rights)
        lefts = np.kron(lefts, f.lefts)
        lambdas = np.add.outer(lambdas, f.lambdas).ravel()
    return EigenFrame(lambdas=lambdas, rights=rights, lefts=lefts)


def _plain_frame(B: np.ndarray) -> EigenFrame:
    """Bi-orthonormal frame without gauge fixing, for curvature sampling.

    Curvature is invariant under per-mode rescaling, so the lefts come
    straight from the inverse of the right-eigenvector matrix.  The
    eigenvalue ordering matches bi_eigendecompose so mode labels agree
    between the line and surface forms, and the same absolute gap
    threshold guards against degeneracy.
    """
    lam, rights = np.linalg.eig(np.asarray(B, dtype=complex))
    order = _mode_order(lam[None])[0]
    lam = lam[order]
    rights = rights[:, order]
    if lam.size > 1:
        gaps = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(lam.size, k=1)]
        if gaps.min() < DEGENERACY_GAP:
            raise DegenerateSpectrum(
                f"minimal eigenvalue gap {gaps.min():.3e} below threshold "
                f"{DEGENERACY_GAP:.1e}"
            )
    lefts = np.linalg.inv(rights).conj().T
    return EigenFrame(lambdas=lam, rights=rights, lefts=lefts)


def _frame_at(family: GeneratorFamily, chi: np.ndarray) -> EigenFrame:
    """Full-dimension eigenframe, using declared structure when present."""
    if family.factors is not None:
        return _kron_frames(
            [_plain_frame(f.matrix(chi[j])) for j, f in enumerate(family.factors)]
        )
    B = family.matrix(chi)
    if family.blocks is None:
        return _plain_frame(B)
    n = B.shape[0]
    rights = np.zeros((n, n), dtype=complex)
    lefts = np.zeros((n, n), dtype=complex)
    lambdas = np.zeros(n, dtype=complex)
    for lo, hi in family.blocks:
        sub = _plain_frame(B[lo:hi, lo:hi])
        rights[lo:hi, lo:hi] = sub.rights
        lefts[lo:hi, lo:hi] = sub.lefts
        lambdas[lo:hi] = sub.lambdas
    return EigenFrame(lambdas=lambdas, rights=rights, lefts=lefts)


def _walk_matrix(mats: np.ndarray, closed: bool) -> np.ndarray:
    """Per-mode transport log sums along a path of sampled generators.

    For closed paths ``mats`` stops short of the return to the start,
    whose node reuses the starting frame so per-node gauge choices cancel
    exactly; a non-identity closing permutation means the circuit
    encloses a branch point.
    """
    _, rights, lefts = eigenframes(mats)
    if closed:
        rights = np.concatenate([rights, rights[:1]])
        lefts = np.concatenate([lefts, lefts[:1]])
    perms, logs = transport(rights, lefts)
    if closed and np.any(perms[-1] != np.arange(perms.shape[1])):
        raise DegenerateSpectrum(
            "circuit monodromy permutes modes; a spectral degeneracy "
            "is enclosed"
        )
    return logs


def _walk_logs(family: GeneratorFamily, pts: np.ndarray, closed: bool) -> np.ndarray:
    nodes = pts[:-1] if closed else pts
    if family.factors is not None:
        total = np.zeros(1, dtype=complex)
        for j, f in enumerate(family.factors):
            mats = np.array([f.matrix(x) for x in nodes[:, j]])
            total = np.add.outer(total, _walk_matrix(mats, closed)).ravel()
        return total
    mats = np.array([family.matrix(p) for p in nodes])
    if family.blocks is not None:
        out = np.zeros(mats.shape[1], dtype=complex)
        for lo, hi in family.blocks:
            out[lo:hi] = _walk_matrix(mats[:, lo:hi, lo:hi], closed)
        return out
    return _walk_matrix(mats, closed)


def _mode_count(family: GeneratorFamily, circuit: ParameterCircuit) -> int:
    return family.matrix(np.atleast_1d(circuit.path(0.0))).shape[0]


def _refine(evaluate, n0: int) -> float:
    """Doubling loop with Richardson extrapolation at the observed order.

    The contraction ratio of the doubling sequence fixes the
    extrapolation weight (Aitken form), so second-order estimators and
    faster-converging special cases are handled alike.  Returns as soon
    as the raw sequence goes flat or two successive extrapolants agree.
    """
    raws = []
    prev_ext = None
    n = int(n0)
    for _ in range(_MAX_DOUBLINGS + 1):
        try:
            raws.append(evaluate(n))
        except AmbiguousMatching:
            raws.append(None)  # sampling too coarse to track modes; refine
        if len(raws) >= 2 and raws[-1] is not None and raws[-2] is not None:
            d_new = raws[-1] - raws[-2]
            if abs(d_new) <= 0.1 * _REFINE_TOL:
                return raws[-1]
            if len(raws) >= 3 and raws[-3] is not None:
                d_old = raws[-2] - raws[-3]
                if abs(d_old) > 2.0 * abs(d_new):
                    ext = raws[-1] + d_new * d_new / (d_old - d_new)
                    if prev_ext is not None and abs(ext - prev_ext) <= _REFINE_TOL:
                        return ext
                    prev_ext = ext
        n *= 2
    raise NotConverged(
        f"phase estimate not stable to {_REFINE_TOL} after {_MAX_DOUBLINGS} doublings"
    )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def geometric_phase_line(
    family: GeneratorFamily, circuit: ParameterCircuit, k: int
) -> float:
    """Transport phase of mode k: -Im sum_i ln (G_k(chi_i) | F_k(chi_{i+1})).

    Gauge-invariant for closed circuits.  The discretization is doubled,
    Richardson-extrapolated, and declared converged when successive
    extrapolants move by no more than 1e-8.
    """
    n_modes = _mode_count(family, circuit)
    if not 0 <= k < n_modes:
        raise ValueError(f"mode index {k} outside 0..{n_modes - 1}")

    def evaluate(n):
        logs = _walk_logs(family, circuit.points(n), circuit.closed)
        return -float(logs[k].imag)

    return _refine(evaluate, circuit.samples)


def liouville_curvature(family: GeneratorFamily, chi) -> np.ndarray:
    """Curvature vectors of every mode at one parameter point, padded to 3-D.

    Row n holds sum_{m != n} (G_n|dB|F_m) x (G_m|dB|F_n) / (lambda_m -
    lambda_n)^2.  Pairs whose coupling numerator vanishes structurally
    (different closed blocks, different Kronecker factors) are skipped, so
    accidental eigenvalue collisions between uncoupled modes are benign;
    a small gap between coupled modes raises DegenerateSpectrum.
    """
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    if family.n_params > 3:
        raise UnsupportedDimension(
            "curvature cross product is defined for at most 3 parameters"
        )
    frame = _frame_at(family, chi)
    grads = _grad_list(family, chi)
    m = frame.dim
    A = np.zeros((3, m, m), dtype=complex)
    for a, g in enumerate(grads):
        A[a] = frame.lefts.conj().T @ g @ frame.rights
    gscale = max(np.max(np.abs(A)), 1.0)
    lscale = max(np.max(np.abs(frame.lambdas)), 1.0)

    # pair (n, mm) couples through v1[a] = A[a, n, mm], v2[a] = A[a, mm, n]
    mags = np.max(np.abs(A), axis=0)
    active = mags * mags.T > (1e-12 * gscale) ** 2
    np.fill_diagonal(active, False)
    gap = frame.lambdas[None, :] - frame.lambdas[:, None]
    if np.any(active & (np.abs(gap) < DEGENERACY_GAP * lscale)):
        raise DegenerateSpectrum(
            f"coupled near-degenerate modes at chi={chi}"
        )
    weight = np.zeros((m, m), dtype=complex)
    weight[active] = 1.0 / gap[active] ** 2

    At = A.transpose(0, 2, 1)
    cross = np.empty((3, m, m), dtype=complex)
    cross[0] = A[1] * At[2] - A[2] * At[1]
    cross[1] = A[2] * At[0] - A[0] * At[2]
    cross[2] = A[0] * At[1] - A[1] * At[0]
    return np.einsum("cnm,nm->nc", cross, weight)


def geometric_phase_surface(
    family: GeneratorFamily, circuit: ParameterCircuit, k: int
) -> float:
    """Curvature flux -Im of mode k through a cone surface spanning the circuit.

    The surface is a cone swept from the boundary centroid, integrated
    with Gauss-Legendre nodes along each spoke and a midpoint rule along
    the boundary, refined like the line form.  One parameter dimension
    has no enclosed area, so the phase is zero.
    """
    if family.n_params > 3:
        raise UnsupportedDimension(
            "surface form is defined for at most 3 parameters"
        )
    if not circuit.closed:
        raise ValueError("a spanning surface needs a closed circuit")
    n_modes = _mode_count(family, circuit)
    if not 0 <= k < n_modes:
        raise ValueError(f"mode index {k} outside 0..{n_modes - 1}")
    if circuit.dim == 1:
        return 0.0

    def pad(v):
        out = np.zeros(3)
        out[: v.size] = v
        return out

    def evaluate(n):
        pts = circuit.points(n)
        center = pts[:-1].mean(axis=0)
        # boundary error dominates, so the spoke rule only needs enough
        # nodes that its residual keeps shrinking under refinement
        nodes, weights = np.polynomial.legendre.leggauss(
            max(8, round(2.0 * math.log2(n)))
        )
        radial = [((x + 1.0) / 2.0, w / 2.0) for x, w in zip(nodes, weights)]
        flux = 0.0 + 0.0j
        for i in range(n):
            mid = np.atleast_1d(np.asarray(circuit.path((i + 0.5) / n), dtype=float))
            spoke = mid - center
            patch = np.cross(pad(spoke), pad(pts[i + 1] - pts[i]))
            for r, w in radial:
                curv = liouville_curvature(family, center + r * spoke)[k]
                flux += (w * r) * (curv @ patch)
        return -float(flux.imag)

    return _refine(evaluate, circuit.samples)


def accumulated_phase(solution, t: float = None) -> np.ndarray:
    """Total per-mode phases Lambda_k = dyn_k - geo_k of an inertial run.

    The parts stay available on the solution itself; the real part of its
    geo entries matches geometric_phase_line when the parameter path is a
    closed circuit.  Passing t asserts the solution was propagated to that
    time.
    """
    if t is not None and solution.t is not None:
        if abs(solution.t - t) > 1e-12 * max(1.0, abs(t)):
            raise ValueError(
                f"solution was propagated to t={solution.t}, not t={t}"
            )
    return solution.Lambda
