"""Run configuration: one INI file carries every tunable of a run.

Each field of ``Site``, ``ProxyParams``, ``OrientationConfig`` and
``SolverConfig`` is a setting: its key is the field's name in the
section its class names in ``_SECTIONS``, its value is read by the
reader of the field's annotated type, and a key left out takes the
field's default (``[site]`` requires the ``Site`` fields that have
none). Only the fields in ``_OTHER_KEYS`` sit elsewhere: the trust and
gate settings in ``[reconciliation]``, ``linke_turbidity`` in ``[solver]``.

Unknown sections or keys are rejected so typos cannot silently fall
back to defaults, and a value that does not parse or is out of the
range it needs is an input error naming its section and key. Paths are
resolved relative to the config file. ``[run] threads`` is accepted for
compatibility and ignored: runs are single-threaded.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .data import InputError, SettingError, Site
from .orientation import OrientationConfig
from .proxy import ProxyParams
from .solver import SolverConfig


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


def _integers(raw: str) -> tuple[int, ...] | None:
    """Comma-separated integers; None, which keeps the default, for an empty value."""
    return tuple(int(x) for x in raw.split(",") if x.strip()) if raw.strip() else None


# annotated field type -> (reader of an INI value, what the value must be)
_READERS = {
    "float": (float, "float"),
    "int": (int, "int"),
    "bool": (configparser.ConfigParser.BOOLEAN_STATES.__getitem__, "a boolean"),
    "tuple[int, ...]": (_integers, "integers"),
}
_SECTIONS = {
    Site: "site",
    ProxyParams: "proxy",
    OrientationConfig: "orientation",
    SolverConfig: "solver",
}
_OTHER_KEYS = {
    "linke_turbidity": ("solver", "linke_turbidity"),
    "trust_bin_deg": ("reconciliation", "bin_deg"),
    "trust_bandwidth_deg": ("reconciliation", "bandwidth_deg"),
    "trust_floor": ("reconciliation", "floor"),
    "k_q": ("reconciliation", "k_q"),
}
# per settings class: field -> (INI section, key, field type)
_KEYS = {
    cls: {f.name: (*_OTHER_KEYS.get(f.name, (section, f.name)), f.type) for f in fields(cls)}
    for cls, section in _SECTIONS.items()
}
_KNOWN_KEYS = {
    "site": {"sampling_seconds"},
    "paths": {"plants", "clearsky_override", "output_dir"},
    "run": {"seed", "threads"},
}
for _section, _key, _kind in (k for keys in _KEYS.values() for k in keys.values()):
    if _kind not in _READERS:
        raise TypeError(f"[{_section}] {_key}: no reader for a {_kind!r} setting")
    _KNOWN_KEYS.setdefault(_section, set()).add(_key)


def _convert(section, key: str, kind: str):
    """``section[key]`` read as the field type ``kind``; an InputError if it does not parse."""
    raw = section[key].lower() if kind == "bool" else section[key]  # booleans ignore case
    read, expected = _READERS[kind]
    try:
        return read(raw)
    except (KeyError, ValueError):
        raise InputError(f"[{section.name}] {key}: expected {expected}, got {raw!r}") from None


def _settings(cls, parser):
    """``cls`` from the INI values present, its defaults for the rest.

    A value that does not parse or is out of range is an InputError
    naming its section and key.
    """
    keys = _KEYS[cls]
    values = {
        name: _convert(parser[section], key, kind)
        for name, (section, key, kind) in keys.items()
        if parser.has_option(section, key)
    }
    try:
        return cls(**{name: value for name, value in values.items() if value is not None})
    except SettingError as err:
        section, key, _ = keys[err.field]
        raise InputError(f"[{section}] {key}: {err.reason}") from None


def load_run_config(path, require_plants: bool = True) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path)

    if parser.defaults():  # configparser would copy its keys into every section
        keys = ", ".join(map(repr, parser.defaults()))
        raise InputError(f"config section [DEFAULT] is not supported (it sets {keys})")
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise InputError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise InputError(f"unknown key {key!r} in section [{section}]")

    if "site" not in parser:
        raise InputError("config is missing the [site] section")
    s = parser["site"]
    for f in fields(Site):
        if f.default is MISSING and f.name not in s:
            raise InputError(f"[site] is missing {f.name!r}")
    site = _settings(Site, parser)
    sampling_seconds = _convert(s, "sampling_seconds", "int") if "sampling_seconds" in s else None
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

    return RunConfig(
        site=site,
        sampling_seconds=sampling_seconds,
        plant_paths=plant_paths,
        output_dir=output_dir,
        clearsky_override=override,
        proxy=_settings(ProxyParams, parser),
        orientation=_settings(OrientationConfig, parser),
        solver=_settings(SolverConfig, parser),
        seed=_convert(parser["run"], "seed", "int") if parser.has_option("run", "seed") else 0,
    )
