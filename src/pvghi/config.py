"""Run configuration: one INI file carries every tunable of a run.

Unknown sections or keys are rejected so typos cannot silently fall
back to defaults, and a value that does not parse or is out of the
range it needs is an input error naming its section and key. Paths are
resolved relative to the config file. ``[run] threads`` is accepted for
compatibility and ignored: runs are single-threaded.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import InputError, SettingError, Site, check_settings
from .proxy import ProxyParams
from .solver import SolverConfig


@dataclass(frozen=True)
class OrientationConfig:
    """Identification settings; a value out of range is a SettingError."""

    subdivision: int = 2
    split_candidates: tuple[int, ...] = (365, 182, 121, 91, 73)
    clear_bin_deg: float = 5.0

    def __post_init__(self):
        check_settings(self, (
            ("subdivision", 1 <= self.subdivision <= 4, "in [1, 4]"),
            ("split_candidates", len(self.split_candidates) > 0
             and all(d >= 1 for d in self.split_candidates), "one or more positive day counts"),
            ("clear_bin_deg", 0.0 < self.clear_bin_deg < np.inf, "finite and positive"),
        ))


@dataclass(frozen=True)
class RunConfig:
    site: Site
    sampling_seconds: int | None  # None when [site] does not set it
    plant_paths: tuple[Path, ...]
    output_dir: Path
    clearsky_override: Path | None
    proxy: ProxyParams
    orientation: OrientationConfig
    solver: SolverConfig
    seed: int = 0


def _convert(section, key, default, kind):
    try:
        return kind(section.get(key, default))
    except ValueError:
        raise InputError(
            f"[{section.name}] {key}: expected {kind.__name__}, got {section[key]!r}"
        ) from None


def _getfloat(section, key, default):
    return _convert(section, key, default, float)


def _getint(section, key, default):
    return _convert(section, key, default, int)


def _getbool(section, key, default):
    raw = section.get(key, None)
    if raw is None:
        return default
    raw = raw.strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise InputError(f"[{section.name}] {key}: expected a boolean, got {raw!r}")


def _getsplits(section, key, default):
    raw = section.get(key, "")
    if not raw.strip():
        return default
    try:
        return tuple(int(x.strip()) for x in raw.split(",") if x.strip())
    except ValueError:
        raise InputError(
            f"[{section.name}] {key}: expected integers, got {raw!r}"
        ) from None


# settings field -> (INI section, key, reader)
_SITE_KEYS = {
    name: ("site", name, _getfloat)
    for name in ("latitude", "longitude", "altitude", "albedo")
}
_PROXY_KEYS = {
    name: ("proxy", name, _getfloat)
    for name in ("k1", "phi", "gamma", "t_ref", "i_stc", "k2", "k3", "k4")
}
_ORIENTATION_KEYS = {
    "subdivision": ("orientation", "subdivision", _getint),
    "split_candidates": ("orientation", "split_candidates", _getsplits),
    "clear_bin_deg": ("orientation", "clear_bin_deg", _getfloat),
}
_SOLVER_KEYS = {
    "n_grid": ("solver", "n_grid", _getint),
    "k_safety": ("solver", "k_safety", _getfloat),
    "delta_ghi": ("solver", "delta_ghi", _getfloat),
    "lambda0": ("solver", "lambda0", _getfloat),
    "k_decay": ("solver", "k_decay", _getfloat),
    "max_iterations": ("solver", "max_iterations", _getint),
    "use_trust": ("solver", "use_trust", _getbool),
    "use_gate": ("solver", "use_gate", _getbool),
    "linke_turbidity": ("solver", "linke_turbidity", _getfloat),
    "trust_bin_deg": ("reconciliation", "bin_deg", _getfloat),
    "trust_bandwidth_deg": ("reconciliation", "bandwidth_deg", _getfloat),
    "trust_floor": ("reconciliation", "floor", _getfloat),
    "k_q": ("reconciliation", "k_q", _getfloat),
}
_KNOWN_KEYS = {
    "site": {"sampling_seconds"},
    "paths": {"plants", "clearsky_override", "output_dir"},
    "run": {"seed", "threads"},
}
for _section, _key, _ in (
    *_SITE_KEYS.values(), *_PROXY_KEYS.values(),
    *_ORIENTATION_KEYS.values(), *_SOLVER_KEYS.values(),
):
    _KNOWN_KEYS.setdefault(_section, set()).add(_key)


def _settings(cls, parser, keys):
    """``cls`` from the INI values present, its defaults for the rest.

    A value that does not parse or is out of range is an InputError
    naming its section and key.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    values = {
        name: read(parser[section], key, defaults[name])
        for name, (section, key, read) in keys.items()
        if parser.has_option(section, key)
    }
    try:
        return cls(**values)
    except SettingError as err:
        section, key, _ = keys[err.field]
        raise InputError(f"[{section}] {key}: {err.reason}") from None


def load_run_config(path, require_plants: bool = True) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path)

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise InputError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise InputError(f"unknown key {key!r} in section [{section}]")

    if "site" not in parser:
        raise InputError("config is missing the [site] section")
    s = parser["site"]
    for required in ("latitude", "longitude"):
        if required not in s:
            raise InputError(f"[site] is missing {required!r}")
    site = _settings(Site, parser, _SITE_KEYS)
    sampling_seconds = _getint(s, "sampling_seconds", None) if "sampling_seconds" in s else None
    if sampling_seconds is not None and sampling_seconds < 1:
        raise InputError(f"[site] sampling_seconds: must be >= 1, got {sampling_seconds}")

    base = path.parent
    paths = parser["paths"] if "paths" in parser else {}
    plant_paths: tuple[Path, ...] = ()
    if paths.get("plants"):
        plant_paths = tuple(
            (base / p.strip()).resolve()
            for p in paths["plants"].split(",")
            if p.strip()
        )
    if require_plants:
        if not plant_paths:
            raise InputError("[paths] plants must list at least one CSV")
        for p in plant_paths:
            if not p.exists():
                raise InputError(f"plant file not found: {p}")
    override = None
    if paths.get("clearsky_override"):
        override = (base / paths["clearsky_override"].strip()).resolve()
        if not override.exists():
            raise InputError(f"clear-sky override not found: {override}")
    output_dir = (base / paths.get("output_dir", "out")).resolve()

    proxy = _settings(ProxyParams, parser, _PROXY_KEYS)
    orientation = _settings(OrientationConfig, parser, _ORIENTATION_KEYS)
    solver = _settings(SolverConfig, parser, _SOLVER_KEYS)

    run_sec = parser["run"] if "run" in parser else {}
    return RunConfig(
        site=site,
        sampling_seconds=sampling_seconds,
        plant_paths=plant_paths,
        output_dir=output_dir,
        clearsky_override=override,
        proxy=proxy,
        orientation=orientation,
        solver=solver,
        seed=_getint(run_sec, "seed", 0),
    )
