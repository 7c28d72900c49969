"""The liouvdyn functions the traced run wraps, and the per-layer metrics.

Each target is (module, qualname, report, group, input key).  ``report``
is "full" for calls, self_s and errors, "calls" for the call count
alone, or None; a target with an input key also reports its distinct
input ratio.  Metric names are ``<module>.<qualname>.<stat>``.
``models.generator.calls`` counts outermost calls of the four generator
builders, so ``tls_generator_embedded`` calling ``tls_generator`` counts
once.
"""

from tracer import Tracer, digest

GENERATOR = "models.generator"


def _matrix_key(B, *args, **kwargs):
    return digest(B)


def _curvature_key(family, chi):
    return getattr(family.B_of_chi, "__qualname__", ""), digest(chi)


def _lamb_key(bath, alpha):
    return repr(bath), float(alpha)


TARGETS = [
    ("linalg", "bi_eigendecompose", "full", None, _matrix_key),
    ("linalg", "track_continuity", "full", None, None),
    ("engine", "propagate_inertial", "full", None, None),
    ("engine", "propagate_exact", "full", None, None),
    ("engine", "propagate_adiabatic", "full", None, None),
    ("models", "ho_generator", None, GENERATOR, None),
    ("models", "tls_generator", None, GENERATOR, None),
    ("models", "tls_generator_embedded", None, GENERATOR, None),
    ("models", "two_spin_generators", None, GENERATOR, None),
    ("models", "reconstruct_state", "full", None, None),
    ("diagnostics", "max_parameters_along", "full", None, None),
    ("diagnostics", "inertial_parameter_at", "full", None, None),
    ("diagnostics", "one_minus_fidelity", "full", None, None),
    ("geometric", "geometric_phase_line", "full", None, None),
    ("geometric", "geometric_phase_surface", "full", None, None),
    ("geometric", "liouville_curvature", "full", None, _curvature_key),
    ("geometric", "ParameterCircuit.points", "calls", None, None),
    ("open_quantum", "lamb_shift", "full", None, _lamb_key),
    ("open_quantum", "mesolve", "full", None, None),
    ("open_quantum", "decay_rate", "full", None, None),
    ("open_quantum", "trajectory_rows", "full", None, None),
    ("config", "resolve_config", "full", None, None),
    ("cli", "write_outputs", "full", None, None),
]


def install(tracer: Tracer):
    for module, qualname, _, group, key in TARGETS:
        tracer.install(module, qualname, group=group, key=key)


def metrics(tracer: Tracer, output_bytes: int, overhead_ratio: float) -> dict:
    """Per-layer metric name -> (value, unit) for one traced pass."""
    out = {}
    for module, qualname, report, _, key in TARGETS:
        name = f"{module}.{qualname}"
        s = tracer.stats[name]
        if report is not None:
            out[f"{name}.calls"] = (s.calls, "count")
        if report == "full":
            out[f"{name}.self_s"] = (s.self_s, "s")
            out[f"{name}.errors"] = (s.errors, "count")
        if key is not None:
            out[f"{name}.distinct_ratio"] = (tracer.distinct_ratio(name), "ratio")
    inertial = tracer.stats["engine.propagate_inertial"].calls
    nested_eigs = tracer.within["engine.propagate_inertial", "linalg.bi_eigendecompose"]
    out["engine.propagate_inertial.eig_per_call"] = (
        nested_eigs / inertial if inertial else 0.0, "count",
    )
    out["engine.propagate_exact.rhs_evals"] = (
        tracer.within["engine.propagate_exact", GENERATOR], "count",
    )
    out[f"{GENERATOR}.calls"] = (tracer.group_calls[GENERATOR], "count")
    out["cli.write_outputs.bytes"] = (output_bytes, "B")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
