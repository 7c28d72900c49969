"""Run configuration: one schema of defaults and checks, file loading.

A run is described by one JSON tree with five parts: the experiment
kind plus ``model``, ``protocol``, ``numerics``, and ``output``
sections.  One schema per experiment and model kind declares every key
once, as a leaf ``(default, check, ...)``: the default fills what a
config file (or the command line) leaves out, and each check is a test
of the value with the message the key fails with, tried in turn.  The
rules that tie several keys together follow the leaves, each a test of
the whole config with the key it names.  Unknown or ill-typed keys fail
with the offending key path spelled out.  Only the model kind and the
output's directory and format come from the command line, never a
tolerance.  The schemas are built once, at import.
"""

import copy
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigInvalid

EXPERIMENTS = ("sweep", "diagnose", "open", "geo", "single")

_MODEL_KINDS = {
    "sweep": ("ho", "tls"),
    "diagnose": ("ho", "tls"),
    "single": ("ho", "tls"),
    "open": ("tls",),
    "geo": ("ho", "tls", "two-spin-local", "two-spin-nonlocal"),
}

# the level shifts take cutoff^3 in plain floats, which overflows past this
_CUTOFF_MAX = sys.float_info.max ** (1.0 / 3.0)
_SEPARATORS = tuple(sep for sep in (os.sep, os.altsep) if sep)
# circuits are tested up to here; past about 9e307 a segment's difference
# of two waypoints overflows
_WAYPOINT_MAX = 1e300


def _is_number(v) -> bool:
    # json parses NaN, Infinity and integers past the double range, none of
    # which a numeric setting accepts
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_int(v, minimum: int) -> bool:
    return isinstance(v, int) and _is_number(v) and v >= minimum


def _is_vector(v, n: int) -> bool:
    return isinstance(v, list) and len(v) == n and all(_is_number(x) for x in v)


# a check is a test of one value and the message its key fails with
_FINITE = (_is_number, "must be a finite number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "must be a positive number")
_FLAG = (lambda v: isinstance(v, bool), "must be true or false")
_NO_NUL = (lambda v: "\0" not in v, "must not contain a NUL character")
_TRIPLE = (lambda v: _is_vector(v, 3), "must be a list of three numbers")
_COUNT = (lambda v: _is_int(v, 2), "must be an integer >= 2")


def _one_of(choices, message):
    return (lambda v: v in choices), message


def _text(what):
    return (lambda v: isinstance(v, str) and v != ""), f"must be a non-empty {what}"


def _leaf_defaults(tree: dict) -> dict:
    return {key: _leaf_defaults(leaf) if isinstance(leaf, dict) else leaf[0]
            for key, leaf in tree.items()}


def _schema(experiment: str, kind: str):
    """The leaf tree, the multi-key rules and the default config (as JSON
    text, whose loading is a deep copy four times cheaper than
    ``copy.deepcopy``) of one experiment and model kind."""
    kinds = _MODEL_KINDS[experiment]
    model = {"kind": (kind, _one_of(kinds, f"must be one of {', '.join(kinds)} for {experiment}"))}
    rules = [(lambda c: not any(sep in c["output"]["stem"] for sep in _SEPARATORS),
              "output.stem", "must be a file name without a path separator")]
    if experiment == "open":
        model["initial_bloch"] = ([0.3, -0.2, 0.5], _TRIPLE)
        model["bath"] = {
            "temperature": (10.0, _FINITE, (lambda v: v >= 0, "must be >= 0")),
            "coupling": (2e-3, _FINITE, (lambda v: v >= 0, "must be >= 0")),
            "cutoff": (100.0, _FINITE, (lambda v: v > 0, "must be positive")),
        }
        protocol = {"epsilon": (8.0, _POSITIVE), "omega0": (15.0, _POSITIVE),
                    "chi0": (0.0, _FINITE), "abar": (0.0, _FINITE)}
        numerics = {
            "t_final": (2.0, _POSITIVE),
            "points": (101, _COUNT),
            "rtol": (1e-10, _POSITIVE),
            "atol": (1e-12, _POSITIVE),
            "lamb_shift": (False, _FLAG),
            "picture": ("schrodinger", _one_of(("schrodinger", "interaction"),
                                               "must be schrodinger or interaction")),
        }
        rules += [
            # the dipole weights |a_j|^2 grow as 1 / gap^2 and overflow near gap 1e-154
            (lambda c: math.hypot(c["protocol"]["epsilon"], c["protocol"]["omega0"]) >= 1e-150,
             "protocol.epsilon/protocol.omega0",
             "the gap hypot(epsilon, omega0) must be at least 1e-150, or the dipole "
             "weights, which grow as 1 / gap^2, leave the double range"),
            (lambda c: c["protocol"]["omega0"]
             / math.hypot(c["protocol"]["omega0"], c["protocol"]["epsilon"]) < 1.0,
             "protocol.epsilon",
             "must not vanish against protocol.omega0: z(0) = omega0 / hypot(omega0, "
             "epsilon) rounds to 1, the edge of the drive's domain"),
            (lambda c: sum(v * v for v in c["model"]["initial_bloch"]) <= 1.0 + 1e-9,
             "model.initial_bloch", "must lie inside the Bloch ball"),
            (lambda c: not c["numerics"]["lamb_shift"]
             or c["model"]["bath"]["cutoff"] <= _CUTOFF_MAX,
             "model.bath.cutoff",
             f"must be at most {_CUTOFF_MAX:.4g} with numerics.lamb_shift, or the level "
             "shifts, which grow as cutoff^3, leave the double range"),
        ]
    elif experiment == "geo":
        width = 1 if kind in ("ho", "tls") else 2
        corners = [[0.1], [0.4], [0.25]] if width == 1 else [
            [0.25, 0.25], [0.35, 0.25], [0.35, 0.35], [0.25, 0.35]]
        protocol = {
            "waypoints": (corners, (
                lambda v: isinstance(v, list) and len(v) >= 2
                and all(_is_vector(p, width) for p in v),
                f"must be a list of >= 2 points with {width} coordinate(s) each"), (
                lambda v: all(abs(x) <= _WAYPOINT_MAX for p in v for x in p),
                f"must have coordinates of magnitude at most {_WAYPOINT_MAX:.0e}")),
            "closed": (True, _FLAG),
            "samples": (None, (lambda v: v is None or _is_int(v, 4),
                               "must be null or an integer >= 4")),
        }
        numerics = {
            "modes": ("all", (
                lambda v: v == "all" or (
                    isinstance(v, list) and len(v) > 0 and all(_is_int(m, 0) for m in v)),
                'must be "all" or a list of mode indices')),
            "method": ("line", _one_of(("line", "surface", "both"),
                                       "must be line, surface, or both")),
        }
        rules.append((lambda c: c["protocol"]["closed"] or c["numerics"]["method"] == "line",
                      "numerics.method",
                      "must be line when protocol.closed is false: a spanning surface needs "
                      "a closed circuit"))
    else:
        # the boundary-value ramp shared by sweep, diagnose and single
        protocol = {"omega_start": (20.0, _POSITIVE), "omega_target": (10.0, _POSITIVE),
                    "acceleration": (-5e-3, _FINITE)}
        # the oscillator's exact state is closed form, the two-level one an
        # SU(2) flow refined to rtol/atol
        tolerances = {"phase_tol": (1e-10, _POSITIVE)}
        if kind == "ho":
            model.update(mass=(1.0, _POSITIVE), q0=(0.0, _FINITE), p0=(0.0, _FINITE))
        else:
            tolerances = {"rtol": (1e-10, _POSITIVE), "atol": (1e-12, _POSITIVE), **tolerances}
            model["initial_values"] = ([4.0, 1.0, 1.0], _TRIPLE)
            protocol["epsilon"] = (8.0, _POSITIVE)
            rules += [(lambda c, key=key: c["protocol"][key] > c["protocol"]["epsilon"],
                       f"protocol.{key}", "must exceed protocol.epsilon (the gap never closes)")
                      for key in ("omega_start", "omega_target")]
        if experiment == "sweep":
            numerics = {"t_min": (0.05, _POSITIVE), "t_max": (5.0, _POSITIVE),
                        "points": (20, _COUNT), "samples": (65, _COUNT), **tolerances}
            rules.append((lambda c: c["numerics"]["t_min"] < c["numerics"]["t_max"],
                          "numerics.t_min", "must be below numerics.t_max"))
        else:
            protocol["t_f"] = (1.0, _POSITIVE)
            numerics = ({"samples": (129, _COUNT)} if experiment == "diagnose"
                        else {"samples": (65, _COUNT), **tolerances})
    output = {
        "dir": (".", _text("path"), _NO_NUL),
        "format": ("csv", _one_of(("csv", "json"), "must be csv or json")),
        "stem": (experiment, _text("file stem"), _NO_NUL),
    }
    tree = {"model": model, "protocol": protocol, "numerics": numerics, "output": output}
    return tree, rules, json.dumps({"experiment": experiment, **_leaf_defaults(tree)})


_SCHEMAS = {(experiment, kind): _schema(experiment, kind)
            for experiment, kinds in _MODEL_KINDS.items() for kind in kinds}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully resolved run description."""

    experiment: str
    model: dict
    protocol: dict
    numerics: dict
    output: dict

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "model": copy.deepcopy(self.model),
            "protocol": copy.deepcopy(self.protocol),
            "numerics": copy.deepcopy(self.numerics),
            "output": copy.deepcopy(self.output),
        }

    def sha256(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def load_config_file(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigInvalid(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config root must be a JSON object")
    return raw


def _merge(base: dict, override: dict, path: str):
    for key, value in override.items():
        if key not in base:
            raise ConfigInvalid(
                f"unknown key {path}{key} (known: {', '.join(sorted(base))})"
            )
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigInvalid(f"{path}{key}: must be an object")
            _merge(base[key], value, f"{path}{key}.")
        else:
            base[key] = value


def _check(tree: dict, cfg: dict, path: str = ""):
    """Every check of every leaf, in schema order; a leaf's later checks
    run only on a value that passed its earlier ones."""
    for key, leaf in tree.items():
        if isinstance(leaf, dict):
            _check(leaf, cfg[key], f"{path}{key}.")
        else:
            for test, message in leaf[1:]:
                if not test(cfg[key]):
                    raise ConfigInvalid(f"{path}{key}: {message}")


def resolve_config(
    experiment: str,
    file_config: dict = None,
    *,
    model_kind: str = None,
    out_dir: str = None,
    out_format: str = None,
) -> RunConfig:
    """Merge defaults, an optional config file, and command-line overrides.

    The file, when given, must name the experiment (an empty or
    sectionless file is rejected with the list of required keys); partial
    sections are completed from the embedded defaults.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigInvalid(
            f"experiment must be one of {', '.join(EXPERIMENTS)}, got {experiment!r}"
        )
    kind = model_kind
    if file_config is not None:
        required = ("experiment", "model", "protocol", "numerics", "output")
        if "experiment" not in file_config:
            raise ConfigInvalid(
                "missing required key: experiment "
                f"(a config file provides: {', '.join(required)})"
            )
        if file_config["experiment"] != experiment:
            raise ConfigInvalid(
                f"experiment: config file says {file_config['experiment']!r} "
                f"but the command line asked for {experiment!r}"
            )
        model = file_config.get("model")
        file_kind = model.get("kind") if isinstance(model, dict) else None
        if file_kind is not None:
            if kind is not None and file_kind != kind:
                raise ConfigInvalid(
                    f"model.kind: config file says {file_kind!r} "
                    f"but the command line asked for {kind!r}"
                )
            kind = file_kind
    if kind is None:
        kind = "two-spin-nonlocal" if experiment == "geo" else (
            "tls" if experiment == "open" else "ho"
        )
    if kind not in _MODEL_KINDS[experiment]:
        raise ConfigInvalid(
            f"model.kind: must be one of {', '.join(_MODEL_KINDS[experiment])} "
            f"for {experiment}, got {kind!r}"
        )

    tree, rules, defaults = _SCHEMAS[experiment, kind]
    cfg = json.loads(defaults)
    if file_config is not None:
        _merge(cfg, file_config, "")
    if out_dir is not None:
        cfg["output"]["dir"] = out_dir
    if out_format is not None:
        cfg["output"]["format"] = out_format
    _check(tree, cfg)
    for test, path, message in rules:
        if not test(cfg):
            raise ConfigInvalid(f"{path}: {message}")
    return RunConfig(
        experiment=experiment,
        model=cfg["model"],
        protocol=cfg["protocol"],
        numerics=cfg["numerics"],
        output=cfg["output"],
    )
