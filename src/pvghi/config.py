"""Run configuration: one INI file carries every tunable of a run.

Unknown sections or keys are rejected so typos cannot silently fall
back to defaults, and a value that does not parse is an input error
naming its section and key. Paths are resolved relative to the config
file. ``[run] threads`` is accepted for compatibility and ignored: runs
are single-threaded.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .data import InputError, Site
from .proxy import ProxyParams
from .solver import SolverConfig

_KNOWN_KEYS = {
    "site": {"latitude", "longitude", "altitude", "albedo", "sampling_seconds"},
    "paths": {"plants", "clearsky_override", "output_dir"},
    "proxy": {"k1", "phi", "gamma", "t_ref", "i_stc", "k2", "k3", "k4"},
    "orientation": {"subdivision", "split_candidates", "gmm_bin_deg"},
    "reconciliation": {"bin_deg", "bandwidth_deg", "floor", "k_q"},
    "solver": {
        "n_grid", "k_safety", "delta_ghi", "lambda0", "k_decay",
        "max_iterations", "use_trust", "use_gate", "linke_turbidity",
    },
    "run": {"seed", "threads"},
}


@dataclass(frozen=True)
class OrientationConfig:
    subdivision: int = 2
    split_candidates: tuple[int, ...] = (365, 182, 121, 91, 73)
    gmm_bin_deg: float = 5.0


@dataclass(frozen=True)
class RunConfig:
    site: Site
    sampling_seconds: int
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
    site = Site(
        latitude=_getfloat(s, "latitude", None),
        longitude=_getfloat(s, "longitude", None),
        altitude=_getfloat(s, "altitude", 0.0),
        albedo=_getfloat(s, "albedo", 0.2),
    )
    sampling_seconds = _getint(s, "sampling_seconds", 600)

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

    prox = parser["proxy"] if "proxy" in parser else {}
    defaults = ProxyParams()
    proxy = ProxyParams(
        k1=_getfloat(prox, "k1", defaults.k1),
        phi=_getfloat(prox, "phi", defaults.phi),
        gamma=_getfloat(prox, "gamma", defaults.gamma),
        t_ref=_getfloat(prox, "t_ref", defaults.t_ref),
        i_stc=_getfloat(prox, "i_stc", defaults.i_stc),
        k2=_getfloat(prox, "k2", defaults.k2),
        k3=_getfloat(prox, "k3", defaults.k3),
        k4=_getfloat(prox, "k4", defaults.k4),
    )

    orient_sec = parser["orientation"] if "orientation" in parser else {}
    splits = orient_sec.get("split_candidates", "")
    try:
        split_candidates = (
            tuple(int(x.strip()) for x in splits.split(",") if x.strip())
            if splits
            else OrientationConfig().split_candidates
        )
    except ValueError:
        raise InputError(
            f"[orientation] split_candidates: expected integers, got {splits!r}"
        ) from None
    orientation = OrientationConfig(
        subdivision=_getint(orient_sec, "subdivision", 2),
        split_candidates=split_candidates,
        gmm_bin_deg=_getfloat(orient_sec, "gmm_bin_deg", 5.0),
    )

    solver_sec = parser["solver"] if "solver" in parser else {}
    recon_sec = parser["reconciliation"] if "reconciliation" in parser else {}
    sdef = SolverConfig()
    solver = SolverConfig(
        n_grid=_getint(solver_sec, "n_grid", sdef.n_grid),
        k_safety=_getfloat(solver_sec, "k_safety", sdef.k_safety),
        delta_ghi=_getfloat(solver_sec, "delta_ghi", sdef.delta_ghi),
        lambda0=_getfloat(solver_sec, "lambda0", sdef.lambda0),
        k_decay=_getfloat(solver_sec, "k_decay", sdef.k_decay),
        max_iterations=_getint(solver_sec, "max_iterations", sdef.max_iterations),
        use_trust=_getbool(solver_sec, "use_trust", sdef.use_trust),
        use_gate=_getbool(solver_sec, "use_gate", sdef.use_gate),
        linke_turbidity=_getfloat(solver_sec, "linke_turbidity", sdef.linke_turbidity),
        trust_bin_deg=_getfloat(recon_sec, "bin_deg", sdef.trust_bin_deg),
        trust_bandwidth_deg=_getfloat(recon_sec, "bandwidth_deg", sdef.trust_bandwidth_deg),
        trust_floor=_getfloat(recon_sec, "floor", sdef.trust_floor),
        k_q=_getfloat(recon_sec, "k_q", sdef.k_q),
    )

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
