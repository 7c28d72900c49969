"""Validity diagnostics and state-overlap measures.

Two small-parameter diagnostics rate the approximate propagators: the
drive-rate parameter mu (how fast the frequency moves) and the
drive-acceleration parameter Upsilon (how fast the closure coefficients
move per unit scaled time).  The sweep harness reruns a boundary-value
protocol family over a grid of durations and scores the approximate
solutions against the exact one with state fidelities.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import GeneratorFactorization, propagate_adiabatic_batch, propagate_inertial_batch
from .errors import POINT_ERRORS, DegenerateSpectrum, DomainExceeded, SingularDenominator
from .errors import UnphysicalState, guard, nodes_at, settle
from .linalg import DEGENERACY_GAP, STACK_NODES, eigenframes
from .models import (
    BlochState,
    GaussianState,
    HOProtocol,
    initial_vector,
    reconstruct_state,
)


def adiabatic_parameter(model, t):
    """Instantaneous drive-rate parameter of the model's protocol.

    Oscillator: d(omega)/dt / omega^2.  Spin: the same ratio built from
    the dressed gap, (d(omega)/dt * epsilon) / Omega^3.  The linear ramp
    protocols are built so that both equal mu(t) = chi0 + a*t.  A float t
    gives a float, a 1-D array of times the array of values.
    """
    try:
        mu = model.protocol.mu
    except AttributeError:
        raise ValueError("drive-rate parameter needs a model with a ramp protocol") from None
    return mu(t)


def _pair_sums(lam, rights, lefts, directional, paired) -> np.ndarray:
    """Drive-acceleration parameter of every frame of an (N, m, m) stack.

    Sums |G_k^H D F_n| / |lambda_n - lambda_k|^2 over the ordered pairs
    n != k of the (m, m) mask `paired`, where D is the node's directional
    gradient.  The mask keeps only pairs of one closed block
    (``GeneratorFactorization.mode_pairs``): a cross-block element is a
    structural zero whose modes may share an eigenvalue, so it is no pair.
    """
    gaps = np.abs(lam[:, None, :] - lam[:, :, None])
    gaps[:, ~paired] = np.inf
    scale = np.maximum(np.abs(lam).max(axis=1), 1.0)
    guard(DegenerateSpectrum, (gaps < DEGENERACY_GAP * scale[:, None, None], lambda i: (
        f"modes {i[1]} and {i[2]} are too close to evaluate the drive-acceleration parameter")))
    elements = np.abs(lefts.conj().transpose(0, 2, 1) @ directional @ rights)
    # elements and gaps scaled by powers of two near the largest |lambda|:
    # exact, so no value changes, but no squared gap overflows past 1e154
    e = np.frexp(scale)[1][:, None, None]
    return (np.ldexp(elements, -2 * e) / np.ldexp(gaps, -e) ** 2).sum(axis=(1, 2))


def inertial_parameters(fact: GeneratorFactorization, ts) -> np.ndarray:
    """Drive-acceleration parameter at every time in `ts`.

    The frames are one ``eigenframes`` stack per slice of at most
    ``linalg.STACK_NODES`` times, which bounds the frame memory however
    many times are asked for.  Every guard acts node by node, so each
    entry equals the one-point value ``inertial_parameter_at(fact, t)``.
    """
    if fact.grad_B is None or fact.dchi_dtheta is None:
        raise ValueError("factorization lacks grad_B or dchi_dtheta")
    ts = np.asarray(ts, dtype=float)
    total = np.empty(len(ts))
    for lo in range(0, len(ts), STACK_NODES):
        with nodes_at(range(lo, len(ts))):
            total[lo : lo + STACK_NODES] = _block_sums(fact, ts[lo : lo + STACK_NODES])
    return total


def _block_sums(fact: GeneratorFactorization, ts) -> np.ndarray:
    """Drive-acceleration parameter at the times ts from one frame stack,
    for a one-parameter chi, with every pair inside one closed block."""
    chis = fact.chi_of_t(ts)
    frames = eigenframes(fact.B_of_chi(chis), blocks=fact.blocks)
    directional = fact.dchi_dtheta(ts)[:, None, None] * fact.grad_B(chis)
    return _pair_sums(*frames, directional, paired=fact.mode_pairs(frames[0].shape[1]))


def _stacked_sums(facts, ts) -> np.ndarray:
    """``_block_sums`` of several runs, factorization facts[p] at its times
    ts[p], end to end from one frame stack of one block layout.  Each run
    meets its guards in the order it meets them alone, and an error names
    positions in the concatenated times.  A single run takes
    ``inertial_parameters`` instead, which does without this bookkeeping."""
    if any(fact.grad_B is None or fact.dchi_dtheta is None for fact in facts):
        raise ValueError("factorization lacks grad_B or dchi_dtheta")
    offsets = np.cumsum([0, *map(len, ts)]).tolist()
    spans = [range(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    chis, B, directional = [], [], []
    for fact, t, span in zip(facts, ts, spans, strict=True):
        with nodes_at(span):
            chis.append(fact.chi_of_t(t))
            B.append(fact.B_of_chi(chis[-1]))
    frames = eigenframes(np.concatenate(B), blocks=facts[0].blocks)
    for fact, t, chi, span in zip(facts, ts, chis, spans):
        with nodes_at(span):
            directional.append(fact.dchi_dtheta(t)[:, None, None] * fact.grad_B(chi))
    return _pair_sums(*frames, np.concatenate(directional),
                      paired=facts[0].mode_pairs(frames[0].shape[1]))


def inertial_parameter_at(fact: GeneratorFactorization, t: float) -> float:
    """Drive-acceleration parameter of a factorized generator at time t.

    The one-point view of ``inertial_parameters``: diagonalizes every
    closed block at the instantaneous parameter value and sums over the
    mode pairs of each block.
    """
    return float(inertial_parameters(fact, [t])[0])


def ho_inertial_parameter_closed(t: float, protocol: HOProtocol) -> float:
    """Closed-form oscillator drive-acceleration parameter; see
    ``HOProtocol.inertial_parameter_closed``."""
    return protocol.inertial_parameter_closed(t)


def _clip_rounding(x: float) -> float:
    # physical validation already bounds the violation; only rounding
    # noise can leak through here
    return x if x > 0.0 else 0.0


def _gaussian_log_fidelity(s1: GaussianState, s2: GaussianState) -> float:
    V1 = s1.covariance()
    V2 = s2.covariance()
    Vs = V1 + V2
    delta_u = np.array([s2.q - s1.q, s2.p - s1.p])
    det_sum = Vs[0, 0] * Vs[1, 1] - Vs[0, 1] * Vs[1, 0]
    if det_sum <= 0.0:
        raise UnphysicalState("sum of covariance matrices is not positive")
    excess = 4.0 * _clip_rounding(s1.uncertainty_product() - 0.25) * _clip_rounding(
        s2.uncertainty_product() - 0.25
    )
    quad = 0.5 * float(delta_u @ np.linalg.solve(Vs, delta_u))
    log_prefactor = math.log(math.sqrt(det_sum + excess) + math.sqrt(excess)) - (
        math.log(det_sum)
    )
    return log_prefactor - quad


def _bloch_one_minus(s1: BlochState, s2: BlochState) -> float:
    r1 = s1.r
    r2 = s2.r
    p1 = _clip_rounding(1.0 - float(r1 @ r1))
    p2 = _clip_rounding(1.0 - float(r2 @ r2))
    dot = float(r1 @ r2)
    diff = r1 - r2
    cross = np.cross(r1, r2)
    denom = 2.0 * ((1.0 - dot) + math.sqrt(p1 * p2))
    if denom == 0.0:
        return 0.0
    return _clip_rounding(
        (float(diff @ diff) - float(cross @ cross)) / denom
    )


def one_minus_fidelity(s1, s2) -> float:
    """Fidelity deficit 1 - F, kept accurate as F -> 1.

    The direct difference 1 - F underflows once F agrees with 1 to
    machine precision; each variant therefore computes the deficit from
    a cancellation-free rearrangement.
    """
    if isinstance(s1, GaussianState) and isinstance(s2, GaussianState):
        s1.validate()
        s2.validate()
        return -math.expm1(_gaussian_log_fidelity(s1, s2))
    if isinstance(s1, BlochState) and isinstance(s2, BlochState):
        s1.validate()
        s2.validate()
        return _bloch_one_minus(s1, s2)
    raise ValueError("state variants do not match or are unsupported")


def fidelity(s1, s2) -> float:
    """Squared Bures overlap of two states of the same variant.

    Gaussian pairs use the closed single-mode covariance form, qubit
    pairs the closed Bloch form.
    """
    return 1.0 - one_minus_fidelity(s1, s2)


def log_time_grid(t_min: float, t_max: float, n: int) -> np.ndarray:
    """Logarithmically spaced protocol durations."""
    if not (0.0 < t_min < t_max) or n < 2:
        raise ValueError("need 0 < t_min < t_max and n >= 2")
    return np.geomspace(t_min, t_max, n)


@dataclass(frozen=True)
class SweepResult:
    """Columns of a duration sweep; rows align with `t_f`.

    Failed points carry the failure text in `errors` and NaN in every
    numeric column.
    """

    t_f: np.ndarray
    fidelity_inertial: np.ndarray
    fidelity_adiabatic: np.ndarray
    max_abs_mu: np.ndarray
    max_upsilon: np.ndarray
    neg_log10_one_minus_fidelity: np.ndarray
    errors: tuple

    COLUMNS = (
        "t_f",
        "fidelity_inertial",
        "fidelity_adiabatic",
        "max_abs_mu",
        "max_upsilon",
        "neg_log10_one_minus_fidelity",
    )

    def __post_init__(self):
        n = len(self.t_f)
        for name in self.COLUMNS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"column {name} has wrong length")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if len(self.errors) != n:
            raise ValueError("errors tuple has wrong length")
        for col in (self.fidelity_inertial, self.fidelity_adiabatic):
            ok = np.isfinite(col)
            if np.any(col[ok] < -1e-12) or np.any(col[ok] > 1.0 + 1e-9):
                raise ValueError("fidelity column leaves [0, 1]")

    def rows(self):
        for i in range(len(self.t_f)):
            yield tuple(float(getattr(self, name)[i]) for name in self.COLUMNS)

    def to_dict(self) -> dict:
        out = {name: [float(x) for x in getattr(self, name)] for name in self.COLUMNS}
        out["errors"] = list(self.errors)
        return out


def max_mu_along(model, t_f: float, samples: int = 65) -> float:
    """Largest |mu| over an even time sample of the run to t_f."""
    return float(np.abs(adiabatic_parameter(model, np.linspace(0.0, t_f, samples))).max())


def upsilon_maxima(models, t_fs, samples: int = 65) -> np.ndarray:
    """Largest Upsilon over an even time sample of each run (models[p], t_fs[p]).

    A protocol with a closed-form Upsilon (the oscillator's) evaluates it
    per run on the whole sample at once, skipping the samples it flags
    singular (NaN when it flags all).  The other runs share one
    ``eigenframes`` stack and pair sum per part of at most
    ``linalg.STACK_NODES`` nodes, a part holding whole runs, so each run's
    guards fire in the order they fire alone; a run of more samples than
    that is sliced as ``inertial_parameters`` slices it.  A guard error
    names the runs by position, each with its one-run message.
    """
    out = np.empty(len(models))
    stacked = []
    for p, (model, t_f) in enumerate(zip(models, t_fs, strict=True)):
        ts = np.linspace(0.0, t_f, samples)
        closed = model.protocol.inertial_parameter_closed
        if closed is None:
            stacked.append((p, model.factorization(), ts))
            continue
        with nodes_at(np.full(samples, p)):
            _, ups, _ = settle(lambda kept: closed(ts[kept]), samples, SingularDenominator)
        out[p] = float(ups.max()) if ups.size else math.nan
    size = max(1, STACK_NODES // samples)
    for lo in range(0, len(stacked), size):
        runs, facts, ts = zip(*stacked[lo : lo + size])
        with nodes_at(np.repeat(runs, samples)):
            sums = inertial_parameters(facts[0], ts[0]) if len(runs) == 1 else _stacked_sums(facts, ts)
        out[list(runs)] = sums.reshape(len(runs), samples).max(axis=1)
    return out


def max_parameters_along(model, t_f: float, samples: int = 65):
    """Largest |mu| and largest Upsilon over an even time sample of the run:
    ``max_mu_along`` and the one-run view of ``upsilon_maxima``."""
    mu_max = max_mu_along(model, t_f, samples)
    return mu_max, float(upsilon_maxima([model], [t_f], samples)[0])


class _Point(NamedTuple):
    """One sweep point after its per-point phase: the re-driven model, its
    factorization, initial and exact vectors, and its parameter maxima."""

    t_f: float
    model: object
    fact: GeneratorFactorization
    v0: object
    exact: object
    mu_max: float
    ups_max: float


def _prepared_point(m, t_f: float, mu_max: float, ups_max: float, tols) -> _Point:
    # the scores mean nothing outside the model's diagonalizable domain
    if mu_max >= m.mu_limit:
        raise DomainExceeded(
            f"max |mu| = {mu_max:.6g} reaches the exceptional point |mu| = {m.mu_limit:g}"
        )
    fact = m.factorization()
    v0 = initial_vector(m)
    exact = m.exact_vector(t_f, rtol=tols[0], atol=tols[1])
    return _Point(t_f, m, fact, v0, exact, mu_max, ups_max)


def _batched(entries) -> tuple:
    """The facts, initial vectors and durations of the (index, point)
    entries: the arguments of a propagator batch."""
    points = [p for _, p in entries]
    return [p.fact for p in points], [p.v0 for p in points], [p.t_f for p in points]


def _scores(point: _Point, v_inertial, v_adiabatic) -> tuple:
    m, t_f = point.model, point.t_f
    exact, inertial, adiabatic = (
        reconstruct_state(m, v, t_f) for v in (point.exact, v_inertial, v_adiabatic)
    )
    deficit = one_minus_fidelity(exact, inertial)
    row = (
        1.0 - deficit,
        fidelity(exact, adiabatic),
        point.mu_max,
        point.ups_max,
        -math.log10(deficit) if deficit > 0.0 else math.inf,
    )
    nan = [name for name, x in zip(SweepResult.COLUMNS[1:], row) if math.isnan(x)]
    if nan:
        raise FloatingPointError(f"{', '.join(nan)} evaluated to NaN")
    return row


def fidelity_sweep(
    model,
    t_f_grid,
    *,
    omega_target: float = None,
    samples: int = 65,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    phase_tol: float = 1e-10,
) -> SweepResult:
    """Score the approximate propagators over a grid of protocol durations.

    Each grid point re-drives the model (``model.for_duration``) to reach
    `omega_target` (default: half its starting frequency) in t_f,
    propagates the exact (``model.exact_vector``), inertial-frame and
    frozen-frame solutions, and scores the approximations against the
    exact state.  A failed point is recorded and the sweep continues.

    The points run in stages.  Per point: the re-drive and the mu
    maximum (``max_mu_along``).  All points together: the Upsilon maxima
    (``upsilon_maxima``), whose frames are one ``eigenframes`` stack per
    part of whole points (the oscillator's closed form stays per point).
    Per point: the mu domain check and the exact reference.  Then the
    points that survive, together: ``engine.propagate_inertial_batch``
    refines all of them level by level, each retiring where its own two
    levels agree, and ``engine.propagate_adiabatic_batch`` diagonalizes
    the chi = 0 frame once for all.  A stacked stage's error names the
    points that fail, with the text each gets alone; they are flagged and
    the rest run again in one more call (``errors.settle``).  Last, per
    point: reconstruction and fidelities.  So every row, and every error
    text, is the one the point gets alone.

    `rtol`/`atol` control the two-level exact reference, whose SU(2)
    Magnus flow (``linalg.su2_flow``) doubles its steps until two levels
    agree within atol + rtol |U| (the oscillator's exact state is closed
    form), and `phase_tol` the inertial phase refinement; tighten them
    when the infidelity floor being measured approaches the defaults.
    """
    grid = np.asarray(t_f_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_f grid must be a non-empty 1-d array")
    if not hasattr(type(model), "for_duration"):
        raise ValueError(f"{type(model).__name__} cannot be re-driven for a sweep")
    if omega_target is None:
        omega_target = 0.5 * model.omega_start

    tols = (rtol, atol, phase_tol)
    errors = [None] * len(grid)

    def settled(run, entries):
        # settle run over the (index, ...) entries: flag the failing ones
        kept, out, failed = settle(lambda k: run([entries[j] for j in k]), len(entries))
        for j, text in failed.items():
            errors[entries[j][0]] = text
        return [entries[j] for j in kept], out

    driven = []
    for i, t_f in enumerate(grid.tolist()):
        try:
            m = model.for_duration(t_f, omega_target)
            driven.append((i, t_f, m, max_mu_along(m, t_f, samples)))
        except POINT_ERRORS as exc:
            errors[i] = f"{type(exc).__name__}: {exc}"
    driven, ups = settled(
        lambda d: upsilon_maxima([m for _, _, m, _ in d], [t_f for _, t_f, _, _ in d], samples),
        driven,
    )
    live = []
    for (i, t_f, m, mu_max), ups_max in zip(driven, ups, strict=True):
        try:
            live.append((i, _prepared_point(m, t_f, mu_max, float(ups_max), tols)))
        except POINT_ERRORS as exc:
            errors[i] = f"{type(exc).__name__}: {exc}"
    propagated = {i: [] for i, _ in live}
    for batch in (
        lambda *args: [v for v, _ in propagate_inertial_batch(*args, phase_tol=phase_tol)],
        propagate_adiabatic_batch,
    ):
        live, out = settled(lambda entries: batch(*_batched(entries)), live)
        for (i, _), v in zip(live, out, strict=True):
            propagated[i].append(v)
    values = [(math.nan,) * 5] * len(grid)
    for i, point in live:
        try:
            values[i] = _scores(point, *propagated[i])
        except POINT_ERRORS as exc:
            errors[i] = f"{type(exc).__name__}: {exc}"

    cols = list(zip(*values))
    return SweepResult(
        t_f=grid,
        fidelity_inertial=np.array(cols[0]),
        fidelity_adiabatic=np.array(cols[1]),
        max_abs_mu=np.array(cols[2]),
        max_upsilon=np.array(cols[3]),
        neg_log10_one_minus_fidelity=np.array(cols[4]),
        errors=tuple(errors),
    )
