"""Batch command-line front end with deterministic CSV/JSON emission.

Five subcommands cover the desk-scale experiments: ``sweep`` scores the
approximate propagators over a grid of protocol durations, ``diagnose``
samples the validity parameters along one protocol, ``open`` integrates
the thermal-bath master equation, ``geo`` evaluates geometric phases on
a parameter circuit, and ``single`` scores one protocol end to end.
Outputs are a data file plus a manifest recording the resolved config
hash, tool version, column provenance, and per-point error flags; a
fixed config yields byte-identical files on every run.
"""

import argparse
import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .config import EXPERIMENTS, RunConfig, load_config_file, resolve_config
from .diagnostics import adiabatic_parameter, fidelity_sweep, inertial_parameters, log_time_grid
from .errors import POINT_ERRORS, ConfigInvalid, settle
from .geometric import (
    ParameterCircuit,
    ho_family,
    line_phases,
    surface_phases,
    tls_family,
    two_spin_local_family,
    two_spin_nonlocal_family,
)
from .models import BlochState, HOModel, HOProtocol, TLSModel, TLSProtocol
from .open_quantum import MAX_STATIC_PHASE, BathSpec, magnus_levels, mesolve, trajectory_rows

_SWEEP_COLUMNS = (
    "t_f",
    "F_inertial",
    "F_adiabatic",
    "neglog1mF_inertial",
    "mu_max",
    "upsilon_max",
)
_EXACT = "model.exact_vector: closed form for ho, Magnus rotation product for tls"
_SWEEP_SOURCES = {
    "t_f": "diagnostics.log_time_grid",
    "F_inertial": f"diagnostics.fidelity_sweep (engine.propagate_inertial_batch vs {_EXACT})",
    "F_adiabatic": f"diagnostics.fidelity_sweep (engine.propagate_adiabatic_batch vs {_EXACT})",
    "neglog1mF_inertial": "diagnostics.fidelity_sweep",
    "mu_max": "diagnostics.max_mu_along (adiabatic_parameter)",
    "upsilon_max": "diagnostics.upsilon_maxima (inertial parameter)",
}

_GEO_FAMILIES = {
    "ho": ho_family,
    "tls": tls_family,
    "two-spin-local": two_spin_local_family,
    "two-spin-nonlocal": two_spin_nonlocal_family,
}


def _seed_model(cfg: RunConfig):
    """The configured model on a chi0 = 0 ramp from protocol.omega_start."""
    proto, model = cfg.protocol, cfg.model
    if model["kind"] == "ho":
        p = HOProtocol(proto["omega_start"], 0.0, proto["acceleration"])
        return HOModel(protocol=p, mass=model["mass"], q0=model["q0"], p0=model["p0"])
    eps = proto["epsilon"]
    omega0 = math.sqrt(proto["omega_start"] ** 2 - eps**2)
    p = TLSProtocol(eps, omega0, 0.0, proto["acceleration"])
    return TLSModel(protocol=p, initial_values=tuple(model["initial_values"]))


def _ramp_model(cfg: RunConfig, t_f: float):
    """The configured ramp reaching protocol.omega_target at t_f."""
    return _seed_model(cfg).for_duration(t_f, cfg.protocol["omega_target"])


def _sweep_outputs(cfg: RunConfig, grid):
    num = cfg.numerics
    result = fidelity_sweep(
        _seed_model(cfg),
        grid,
        omega_target=cfg.protocol["omega_target"],
        samples=num["samples"],
        rtol=num["rtol"],
        atol=num["atol"],
        phase_tol=num["phase_tol"],
    )
    rows = [
        (tf, fi, fa, nl, mu, ups)
        for tf, fi, fa, mu, ups, nl in result.rows()
    ]
    return _SWEEP_COLUMNS, rows, dict(_SWEEP_SOURCES), list(result.errors)


def _run_sweep(cfg: RunConfig):
    num = cfg.numerics
    grid = log_time_grid(num["t_min"], num["t_max"], num["points"])
    return _sweep_outputs(cfg, grid)


def _run_single(cfg: RunConfig):
    columns, rows, sources, errors = _sweep_outputs(
        cfg, np.array([cfg.protocol["t_f"]])
    )
    sources["t_f"] = "config.protocol.t_f"
    return columns, rows, sources, errors


def _run_diagnose(cfg: RunConfig):
    model = _ramp_model(cfg, cfg.protocol["t_f"])
    fact = model.factorization()
    closed = model.protocol.inertial_parameter_closed
    ts = np.linspace(0.0, cfg.protocol["t_f"], cfg.numerics["samples"])
    columns = ("t", "mu", "upsilon") + (("upsilon_closed",) if closed else ())
    sources = {
        "t": "numpy.linspace over [0, protocol.t_f]",
        "mu": "diagnostics.adiabatic_parameter",
        "upsilon": "diagnostics.inertial_parameters",
    }
    if closed:
        sources["upsilon_closed"] = "models.HOProtocol.inertial_parameter_closed"
    # one stacked call per column over the rows no earlier column flagged,
    # run again without the rows a guard names.  A flag of mu or upsilon
    # clears its row; one of the closed form, which only ever meets rows
    # past the domain check of mu, is a vanishing denominator of its own
    table = np.full((len(ts), len(columns)), math.nan)
    table[:, 0] = ts
    errors = [None] * len(ts)
    live = np.arange(len(ts))
    evaluate = (lambda t: adiabatic_parameter(model, t), lambda t: inertial_parameters(fact, t))
    for col, column in enumerate(evaluate + ((closed,) if closed else ()), start=1):
        kept, values, failed = settle(lambda k: column(ts[live[k]]), len(live))
        table[live[kept], col] = values
        for j, text in failed.items():
            errors[live[j]] = text
        if col < 3:
            table[live[list(failed)], 1:] = math.nan
            live = live[kept]
    return columns, [tuple(row) for row in table.tolist()], sources, errors


def _run_open(cfg: RunConfig):
    num = cfg.numerics
    # the open protocol and bath sections hold exactly the dataclass fields
    model = TLSModel(protocol=TLSProtocol(**cfg.protocol))
    if num["t_final"] >= model.protocol.t_max:
        raise ConfigInvalid(
            f"numerics.t_final: must be below the protocol's horizon "
            f"t_max = {model.protocol.t_max:.6g}, where |omega/Omega| reaches 1"
        )
    # a static H has norm Omega0 / 2
    phase = num["t_final"] * model.protocol.Omega0 / 2.0
    if model.protocol.static and phase > MAX_STATIC_PHASE:
        raise ConfigInvalid(
            f"numerics.t_final: a static drive accumulates t_final * ||H|| = "
            f"{phase:.3g} rad, beyond the {MAX_STATIC_PHASE:.0e} rad a double resolves"
        )
    bath = BathSpec(**cfg.model["bath"])
    ts = np.linspace(0.0, num["t_final"], num["points"])
    # the lab frame of a driven run needs two Magnus levels to compare
    cap, levels = magnus_levels(model.protocol, ts)
    if num["picture"] == "schrodinger" and not model.protocol.static and len(levels) < 2:
        raise ConfigInvalid(
            f"numerics.t_final: the driven free propagator cannot compare two "
            f"Magnus levels within {cap} steps on this horizon"
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        states = mesolve(
            model,
            bath,
            BlochState(np.array(cfg.model["initial_bloch"], dtype=float)),
            ts,
            lamb_shift_enabled=num["lamb_shift"],
            picture=num["picture"],
            rtol=num["rtol"],
            atol=num["atol"],
        )
    notes = [str(w.message) for w in caught]
    rows = trajectory_rows(model, ts, states)
    columns = (
        "t",
        "bloch_x",
        "bloch_y",
        "bloch_z",
        "pop_ground",
        "pop_excited",
        "trace_dev",
        "min_eig",
    )
    sources = {name: "open_quantum.mesolve + open_quantum.trajectory_rows"
               for name in columns}
    sources["t"] = "numpy.linspace over [0, numerics.t_final]"
    return columns, rows, sources, [None] * len(rows), notes


def _run_geo(cfg: RunConfig):
    family = _GEO_FAMILIES[cfg.model["kind"]]()
    circuit = ParameterCircuit.from_waypoints(
        cfg.protocol["waypoints"],
        closed=cfg.protocol["closed"],
        samples=cfg.protocol["samples"],
    )
    n_modes = len(family.coupling[0])
    modes = cfg.numerics["modes"]
    if modes == "all":
        modes = list(range(n_modes))
    else:
        bad = [m for m in modes if m >= n_modes]
        if bad:
            raise ConfigInvalid(
                f"numerics.modes: index {bad[0]} outside 0..{n_modes - 1}"
            )
    method = cfg.numerics["method"]
    columns = ("mode",)
    sources = {"mode": "config.numerics.modes"}
    values, errors = [], [None] * len(modes)
    for fn, name in ((line_phases, "line"), (surface_phases, "surface")):
        if method not in (name, "both"):
            continue
        columns += (f"phase_{name}",)
        sources[f"phase_{name}"] = f"geometric.{fn.__name__}"
        try:
            values.append(fn(family, circuit)[modes])
        except POINT_ERRORS as exc:
            values.append([math.nan] * len(modes))
            errors = [f"{type(exc).__name__}: {exc}"] * len(modes)
    rows = [tuple(row) for row in zip(modes, *values)]
    return columns, rows, sources, errors


_RUNNERS = {
    "sweep": _run_sweep,
    "diagnose": _run_diagnose,
    "open": _run_open,
    "geo": _run_geo,
    "single": _run_single,
}


def _json_cell(x):
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    x = float(x)
    return x if math.isfinite(x) else None


def write_outputs(cfg: RunConfig, columns, rows, sources, errors, notes=()):
    """Write the data file and its manifest; returns their paths."""
    out_dir = Path(cfg.output["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg.output["stem"]
    fmt = cfg.output["format"]
    data_path = out_dir / f"{stem}.{fmt}"
    if fmt == "csv":
        # %.17g round-trips every double and prints ints and bools as digits
        row_format = ",".join(["%.17g"] * len(columns))
        lines = [",".join(columns)]
        lines.extend(row_format % tuple(row) for row in rows)
        data_path.write_text("\n".join(lines) + "\n")
    else:
        payload = {
            "columns": list(columns),
            "rows": [[_json_cell(x) for x in row] for row in rows],
        }
        data_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    failed = sum(1 for e in errors if e is not None)
    status = "ok" if failed == 0 else ("failed" if failed == len(errors) else "partial")
    manifest = {
        "config": cfg.to_dict(),
        "config_sha256": cfg.sha256(),
        "tool_version": __version__,
        "data_file": data_path.name,
        "columns": sources,
        "point_errors": list(errors),
        "warnings": list(notes),
        "status": status,
    }
    manifest_path = out_dir / f"{stem}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return data_path, manifest_path, status


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouvdyn",
        description="Deterministic batch experiments on driven operator-algebra models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, blurb in (
        ("sweep", "score approximate propagators over a duration grid"),
        ("diagnose", "sample validity parameters along one protocol"),
        ("open", "integrate the thermal-bath master equation"),
        ("geo", "geometric phases of a parameter circuit"),
        ("single", "score one protocol end to end"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="JSON config file; defaults fill gaps")
        p.add_argument("--model", help="model kind selecting the embedded defaults")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--format", choices=("csv", "json"), help="data file format")
        p.add_argument("--tol", type=float, help="relative tolerance override")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        file_config = load_config_file(args.config) if args.config else None
        cfg = resolve_config(
            args.experiment,
            file_config,
            model_kind=args.model,
            out_dir=args.out,
            out_format=args.format,
            rtol=args.tol,
        )
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        outputs = _RUNNERS[cfg.experiment](cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except POINT_ERRORS as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    columns, rows, sources, errors = outputs[:4]
    notes = outputs[4] if len(outputs) > 4 else ()
    try:
        data_path, manifest_path, status = write_outputs(
            cfg, columns, rows, sources, errors, notes
        )
    except OSError as exc:
        print(f"run failed: OSError: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {data_path} and {manifest_path} ({status})")
    if status == "failed":
        return 4
    return 3 if status == "partial" else 0


if __name__ == "__main__":
    sys.exit(main())
