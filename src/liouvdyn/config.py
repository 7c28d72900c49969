"""Run configuration: embedded defaults, file loading, validation.

A run is described by one JSON tree with five parts: the experiment
kind plus ``model``, ``protocol``, ``numerics``, and ``output``
sections.  Every key has an embedded default, so a config file (or the
command line) only needs to name what it changes; unknown or ill-typed
keys fail with the offending key path spelled out.
"""

import copy
import hashlib
import json
import math
import os
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

# boundary-value ramp shared by sweep/diagnose/single
_RAMP_HO = {"omega_start": 20.0, "omega_target": 10.0, "acceleration": -5e-3}
_RAMP_TLS = {
    "omega_start": 20.0,
    "omega_target": 10.0,
    "acceleration": -5e-3,
    "epsilon": 8.0,
}

_MODEL_HO = {"kind": "ho", "mass": 1.0, "q0": 0.0, "p0": 0.0}
_MODEL_TLS = {"kind": "tls", "initial_values": [4.0, 1.0, 1.0]}

_EXACT_TOLS = {"rtol": 1e-10, "atol": 1e-12, "phase_tol": 1e-10}


def _defaults(experiment: str, kind: str) -> dict:
    if experiment in ("sweep", "diagnose", "single"):
        model = copy.deepcopy(_MODEL_HO if kind == "ho" else _MODEL_TLS)
        protocol = dict(_RAMP_HO if kind == "ho" else _RAMP_TLS)
        if experiment == "sweep":
            numerics = {
                "t_min": 0.05,
                "t_max": 5.0,
                "points": 20,
                "samples": 65,
                **_EXACT_TOLS,
            }
        elif experiment == "single":
            protocol["t_f"] = 1.0
            numerics = {"samples": 65, **_EXACT_TOLS}
        else:
            protocol["t_f"] = 1.0
            numerics = {"samples": 129}
    elif experiment == "open":
        model = {
            "kind": "tls",
            "initial_bloch": [0.3, -0.2, 0.5],
            "bath": {"temperature": 10.0, "coupling": 2e-3, "cutoff": 100.0},
        }
        protocol = {"epsilon": 8.0, "omega0": 15.0, "chi0": 0.0, "abar": 0.0}
        numerics = {
            "t_final": 2.0,
            "points": 101,
            "rtol": 1e-10,
            "atol": 1e-12,
            "lamb_shift": False,
            "picture": "schrodinger",
        }
    elif experiment == "geo":
        model = {"kind": kind}
        if kind in ("ho", "tls"):
            protocol = {
                "waypoints": [[0.1], [0.4], [0.25]],
                "closed": True,
                "samples": None,
            }
        else:
            protocol = {
                "waypoints": [[0.25, 0.25], [0.35, 0.25], [0.35, 0.35], [0.25, 0.35]],
                "closed": True,
                "samples": None,
            }
        numerics = {"modes": "all", "method": "line"}
    else:
        raise ConfigInvalid(
            f"experiment must be one of {', '.join(EXPERIMENTS)}, got {experiment!r}"
        )
    return {
        "experiment": experiment,
        "model": model,
        "protocol": protocol,
        "numerics": numerics,
        "output": {"dir": ".", "format": "csv", "stem": experiment},
    }


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


def _is_number(v) -> bool:
    # json parses NaN and Infinity, which no numeric setting accepts
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return isinstance(v, int) or math.isfinite(v)


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigInvalid(f"{path}: {message}")


def _check_positive(cfg: dict, section: str, *keys):
    for key in keys:
        v = cfg[section][key]
        _require(_is_number(v) and v > 0, f"{section}.{key}", "must be a positive number")


def _check_number(cfg: dict, section: str, *keys):
    for key in keys:
        v = cfg[section][key]
        _require(_is_number(v), f"{section}.{key}", "must be a finite number")


def _check_count(cfg: dict, section: str, key: str, minimum: int):
    v = cfg[section][key]
    _require(
        isinstance(v, int) and not isinstance(v, bool) and v >= minimum,
        f"{section}.{key}",
        f"must be an integer >= {minimum}",
    )


def _validate(cfg: dict) -> RunConfig:
    experiment = cfg["experiment"]
    kind = cfg["model"]["kind"]
    allowed = _MODEL_KINDS[experiment]
    _require(kind in allowed, "model.kind",
             f"must be one of {', '.join(allowed)} for {experiment}")

    fmt = cfg["output"]["format"]
    _require(fmt in ("csv", "json"), "output.format", "must be csv or json")
    for key, what in (("dir", "path"), ("stem", "file stem")):
        v = cfg["output"][key]
        _require(isinstance(v, str) and v != "", f"output.{key}", f"must be a non-empty {what}")
        _require("\0" not in v, f"output.{key}", "must not contain a NUL character")
    _require(
        not any(sep in cfg["output"]["stem"] for sep in (os.sep, os.altsep) if sep),
        "output.stem", "must be a file name without a path separator",
    )
    if experiment in ("sweep", "diagnose", "single"):
        _check_positive(cfg, "protocol", "omega_start", "omega_target")
        _check_number(cfg, "protocol", "acceleration")
        if kind == "tls":
            _check_positive(cfg, "protocol", "epsilon")
            for key in ("omega_start", "omega_target"):
                _require(
                    cfg["protocol"][key] > cfg["protocol"]["epsilon"],
                    f"protocol.{key}",
                    "must exceed protocol.epsilon (the gap never closes)",
                )
            vals = cfg["model"]["initial_values"]
            _require(
                isinstance(vals, list) and len(vals) == 3 and all(_is_number(v) for v in vals),
                "model.initial_values", "must be a list of three numbers",
            )
        else:
            _check_positive(cfg, "model", "mass")
            _check_number(cfg, "model", "q0", "p0")
        if experiment == "sweep":
            _check_positive(cfg, "numerics", "t_min", "t_max")
            _require(
                cfg["numerics"]["t_min"] < cfg["numerics"]["t_max"],
                "numerics.t_min", "must be below numerics.t_max",
            )
            _check_count(cfg, "numerics", "points", 2)
        else:
            _check_positive(cfg, "protocol", "t_f")
        _check_count(cfg, "numerics", "samples", 2)
        if experiment != "diagnose":
            _check_positive(cfg, "numerics", "rtol", "atol", "phase_tol")
    elif experiment == "open":
        _check_positive(cfg, "protocol", "epsilon", "omega0")
        # the dipole weights |a_j|^2 grow as 1 / gap^2 and overflow near gap 1e-154
        _require(
            math.hypot(cfg["protocol"]["epsilon"], cfg["protocol"]["omega0"]) >= 1e-150,
            "protocol.epsilon/protocol.omega0",
            "the gap hypot(epsilon, omega0) must be at least 1e-150, or the dipole "
            "weights, which grow as 1 / gap^2, leave the double range",
        )
        omega0 = cfg["protocol"]["omega0"]
        _require(
            omega0 / math.hypot(omega0, cfg["protocol"]["epsilon"]) < 1.0,
            "protocol.epsilon",
            "must not vanish against protocol.omega0: z(0) = omega0 / hypot(omega0, "
            "epsilon) rounds to 1, the edge of the drive's domain",
        )
        _check_number(cfg, "protocol", "chi0", "abar")
        bath = cfg["model"]["bath"]
        for key in ("temperature", "coupling", "cutoff"):
            _require(_is_number(bath.get(key)), f"model.bath.{key}", "must be a finite number")
        _require(bath["temperature"] >= 0, "model.bath.temperature", "must be >= 0")
        _require(bath["coupling"] >= 0, "model.bath.coupling", "must be >= 0")
        _require(bath["cutoff"] > 0, "model.bath.cutoff", "must be positive")
        bloch = cfg["model"]["initial_bloch"]
        _require(
            isinstance(bloch, list) and len(bloch) == 3 and all(_is_number(v) for v in bloch),
            "model.initial_bloch", "must be a list of three numbers",
        )
        _require(
            sum(v * v for v in bloch) <= 1.0 + 1e-9,
            "model.initial_bloch", "must lie inside the Bloch ball",
        )
        _check_positive(cfg, "numerics", "t_final", "rtol", "atol")
        _check_count(cfg, "numerics", "points", 2)
        _require(
            isinstance(cfg["numerics"]["lamb_shift"], bool),
            "numerics.lamb_shift", "must be true or false",
        )
        _require(
            cfg["numerics"]["picture"] in ("schrodinger", "interaction"),
            "numerics.picture", "must be schrodinger or interaction",
        )
    elif experiment == "geo":
        pts = cfg["protocol"]["waypoints"]
        n_params = 1 if kind in ("ho", "tls") else 2
        ok = (
            isinstance(pts, list)
            and len(pts) >= 2
            and all(
                isinstance(p, list) and len(p) == n_params and all(_is_number(v) for v in p)
                for p in pts
            )
        )
        _require(ok, "protocol.waypoints",
                 f"must be a list of >= 2 points with {n_params} coordinate(s) each")
        _require(
            isinstance(cfg["protocol"]["closed"], bool),
            "protocol.closed", "must be true or false",
        )
        samples = cfg["protocol"]["samples"]
        _require(
            samples is None or (isinstance(samples, int) and samples >= 4),
            "protocol.samples", "must be null or an integer >= 4",
        )
        modes = cfg["numerics"]["modes"]
        _require(
            modes == "all"
            or (
                isinstance(modes, list)
                and len(modes) > 0
                and all(isinstance(m, int) and not isinstance(m, bool) and m >= 0 for m in modes)
            ),
            "numerics.modes", 'must be "all" or a list of mode indices',
        )
        _require(
            cfg["numerics"]["method"] in ("line", "surface", "both"),
            "numerics.method", "must be line, surface, or both",
        )

    return RunConfig(
        experiment=experiment,
        model=cfg["model"],
        protocol=cfg["protocol"],
        numerics=cfg["numerics"],
        output=cfg["output"],
    )


def resolve_config(
    experiment: str,
    file_config: dict = None,
    *,
    model_kind: str = None,
    out_dir: str = None,
    out_format: str = None,
    rtol: float = None,
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

    cfg = _defaults(experiment, kind)
    if file_config is not None:
        _merge(cfg, file_config, "")
    if out_dir is not None:
        cfg["output"]["dir"] = out_dir
    if out_format is not None:
        cfg["output"]["format"] = out_format
    if rtol is not None:
        if "rtol" not in cfg["numerics"]:
            raise ConfigInvalid(f"numerics.rtol: {experiment} takes no tolerance flag")
        cfg["numerics"]["rtol"] = rtol
    return _validate(cfg)
