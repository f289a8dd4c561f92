"""Run-configuration parsing and validation."""

from dataclasses import fields, replace

import pytest

from pvghi import InputError, OrientationConfig, ProxyParams, Site, SolverConfig
from pvghi import config
from pvghi.config import load_run_config
from pvghi.data import SettingError


def write_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    return path


MINIMAL = """\
[site]
latitude = 47.5
longitude = 7.5
"""


def test_minimal_config(tmp_path):
    cfg = load_run_config(write_config(tmp_path, MINIMAL), require_plants=False)
    assert cfg.site.latitude == 47.5
    assert cfg.sampling_seconds is None  # synth's own step, the files' period elsewhere
    assert cfg.proxy.k2 == 0.942
    assert cfg.solver.n_grid == 30
    assert cfg.orientation.split_candidates == (365, 182, 121, 91, 73)


def test_proxy_section_overrides(tmp_path):
    body = MINIMAL + "\n[proxy]\nk2 = 0.9\nphi = 0.03\n"
    cfg = load_run_config(write_config(tmp_path, body), require_plants=False)
    assert cfg.proxy.k2 == 0.9
    assert cfg.proxy.phi == 0.03
    assert cfg.proxy.k3 == -5.02e-2  # untouched default


def test_solver_and_reconciliation_sections(tmp_path):
    body = MINIMAL + (
        "\n[solver]\nn_grid = 40\nuse_gate = false\n"
        "\n[reconciliation]\nfloor = 0.05\nk_q = 2.0\n"
    )
    cfg = load_run_config(write_config(tmp_path, body), require_plants=False)
    assert cfg.solver.n_grid == 40
    assert cfg.solver.use_gate is False
    assert cfg.solver.trust_floor == 0.05
    assert cfg.solver.k_q == 2.0


def test_split_candidates_parsed(tmp_path):
    body = MINIMAL + "\n[orientation]\nsplit_candidates = 60, 30\nsubdivision = 1\n"
    cfg = load_run_config(write_config(tmp_path, body), require_plants=False)
    assert cfg.orientation.split_candidates == (60, 30)
    assert cfg.orientation.subdivision == 1


def test_empty_split_candidates_keep_the_default(tmp_path):
    body = MINIMAL + "\n[orientation]\nsplit_candidates =\n"
    cfg = load_run_config(write_config(tmp_path, body), require_plants=False)
    assert cfg.orientation == OrientationConfig()


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(InputError, match="unknown config section"):
        load_run_config(
            write_config(tmp_path, MINIMAL + "\n[typo]\na = 1\n"),
            require_plants=False,
        )


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(InputError, match="unknown key"):
        load_run_config(
            write_config(tmp_path, MINIMAL + "\n[solver]\nlamda0 = 5\n"),
            require_plants=False,
        )


def test_linke_turbidity_is_a_site_setting_under_its_solver_key(tmp_path):
    """The sky is the site's, and its INI key stays ``[solver] linke_turbidity``."""
    body = MINIMAL + "\n[solver]\nlinke_turbidity = 4\n"
    cfg = load_run_config(write_config(tmp_path, body), require_plants=False)
    assert cfg.site == Site(47.5, 7.5, linke_turbidity=4.0)
    assert cfg.solver == SolverConfig()
    with pytest.raises(InputError, match=r"unknown key 'linke_turbidity' in section \[site\]"):
        load_run_config(
            write_config(tmp_path, MINIMAL + "linke_turbidity = 4\n"), require_plants=False
        )


@pytest.mark.parametrize("key", ["k1", "seed"])
def test_default_section_rejected_by_name(tmp_path, key):
    """configparser copies [DEFAULT]'s keys into every section; the error names [DEFAULT]."""
    with pytest.raises(InputError, match=rf"section \[DEFAULT\] .*'{key}'") as err:
        load_run_config(
            write_config(tmp_path, f"[DEFAULT]\n{key} = 1\n\n" + MINIMAL),
            require_plants=False,
        )
    assert "[site]" not in str(err.value)


def test_missing_site_rejected(tmp_path):
    with pytest.raises(InputError, match="site"):
        load_run_config(write_config(tmp_path, "[paths]\n"), require_plants=False)


def test_missing_plant_file_rejected(tmp_path):
    body = MINIMAL + "\n[paths]\nplants = nope.csv\n"
    with pytest.raises(InputError, match="not found"):
        load_run_config(write_config(tmp_path, body))


def test_bad_split_candidates_rejected(tmp_path):
    body = MINIMAL + "\n[orientation]\nsplit_candidates = 91, ninety\n"
    with pytest.raises(InputError, match="split_candidates"):
        load_run_config(write_config(tmp_path, body), require_plants=False)


def test_bad_boolean_rejected(tmp_path):
    body = MINIMAL + "\n[solver]\nuse_trust = maybe\n"
    with pytest.raises(InputError, match="boolean"):
        load_run_config(write_config(tmp_path, body), require_plants=False)


@pytest.mark.parametrize("cls, name", [
    (cls, f.name)
    for cls in (Site, ProxyParams, OrientationConfig, SolverConfig)
    for f in fields(cls)
    if f.type == "float"
])
def test_nan_setting_rejected(cls, name):
    default = Site(47.5, 7.5) if cls is Site else cls()
    with pytest.raises(SettingError) as info:
        replace(default, **{name: float("nan")})
    assert info.value.field == name


@pytest.mark.parametrize("extra, where", [
    ("[orientation]\nsplit_candidates = 30, 0\n", r"\[orientation\] split_candidates"),
    ("[orientation]\nsplit_candidates = 10, 10, 5\n", r"\[orientation\] split_candidates"),
    ("sampling_seconds = 0\n", r"\[site\] sampling_seconds"),
    ("[orientation]\nclear_bin_deg = 0.4\n", r"\[orientation\] clear_bin_deg"),
    ("[orientation]\nclear_bin_deg = 91\n", r"\[orientation\] clear_bin_deg"),
    ("[reconciliation]\nbin_deg = 0.01\n", r"\[reconciliation\] bin_deg"),
    ("[reconciliation]\nbin_deg = 180\n", r"\[reconciliation\] bin_deg"),
    ("[reconciliation]\nbandwidth_deg = 91\n", r"\[reconciliation\] bandwidth_deg"),
])
def test_out_of_range_setting_names_section_and_key(tmp_path, extra, where):
    with pytest.raises(InputError, match=where + ": must be"):
        load_run_config(write_config(tmp_path, MINIMAL + extra), require_plants=False)


# The (section, key, reader) of every setting as config.py once listed them
# by hand, field by field, with each reader named by the field type it reads
# (_getfloat: "float", _getint: "int", _getbool: "bool",
# _getsplits: "tuple[int, ...]").
SITE_KEYS = {
    **{name: ("site", name, "float") for name in ("latitude", "longitude", "altitude", "albedo")},
    "linke_turbidity": ("solver", "linke_turbidity", "float"),
}
PROXY_KEYS = {
    name: ("proxy", name, "float")
    for name in ("k1", "phi", "gamma", "t_ref", "i_stc", "k2", "k3", "k4")
}
ORIENTATION_KEYS = {
    "subdivision": ("orientation", "subdivision", "int"),
    "split_candidates": ("orientation", "split_candidates", "tuple[int, ...]"),
    "clear_bin_deg": ("orientation", "clear_bin_deg", "float"),
}
SOLVER_KEYS = {
    "n_grid": ("solver", "n_grid", "int"),
    "k_safety": ("solver", "k_safety", "float"),
    "delta_ghi": ("solver", "delta_ghi", "float"),
    "lambda0": ("solver", "lambda0", "float"),
    "k_decay": ("solver", "k_decay", "float"),
    "max_iterations": ("solver", "max_iterations", "int"),
    "use_trust": ("solver", "use_trust", "bool"),
    "use_gate": ("solver", "use_gate", "bool"),
    "trust_bin_deg": ("reconciliation", "bin_deg", "float"),
    "trust_bandwidth_deg": ("reconciliation", "bandwidth_deg", "float"),
    "trust_floor": ("reconciliation", "floor", "float"),
    "k_q": ("reconciliation", "k_q", "float"),
}
KEYS = {Site: SITE_KEYS, ProxyParams: PROXY_KEYS, OrientationConfig: ORIENTATION_KEYS,
        SolverConfig: SOLVER_KEYS}
KNOWN_KEYS = {
    "site": {"sampling_seconds", "latitude", "longitude", "altitude", "albedo"},
    "paths": {"plants", "clearsky_override", "output_dir"},
    "run": {"seed", "threads"},
    "proxy": {"k1", "phi", "gamma", "t_ref", "i_stc", "k2", "k3", "k4"},
    "orientation": {"subdivision", "split_candidates", "clear_bin_deg"},
    "solver": {
        "n_grid", "k_safety", "delta_ghi", "lambda0", "k_decay", "max_iterations",
        "use_trust", "use_gate", "linke_turbidity",
    },
    "reconciliation": {"bin_deg", "bandwidth_deg", "floor", "k_q"},
}


def test_keys_derived_from_the_settings_classes():
    assert config._KEYS == KEYS
    assert config._KNOWN_KEYS == KNOWN_KEYS


# per setting: a valid value other than the default, as written and as read
NON_DEFAULT = {
    "latitude": ("-12.25", -12.25), "longitude": ("33.5", 33.5),
    "altitude": ("812", 812.0), "albedo": ("0.35", 0.35),
    "k1": ("0.07", 0.07), "phi": ("0.025", 0.025), "gamma": ("-0.004", -0.004),
    "t_ref": ("20", 20.0), "i_stc": ("900", 900.0), "k2": ("0.9", 0.9),
    "k3": ("-0.04", -0.04), "k4": ("-0.03", -0.03),
    "subdivision": ("3", 3), "split_candidates": ("60, 30", (60, 30)),
    "clear_bin_deg": ("4", 4.0),
    "n_grid": ("12", 12), "k_safety": ("1.5", 1.5), "delta_ghi": ("0.5", 0.5),
    "lambda0": ("10", 10.0), "k_decay": ("0.25", 0.25), "max_iterations": ("7", 7),
    "use_trust": ("off", False), "use_gate": ("no", False), "linke_turbidity": ("4", 4.0),
    "trust_bin_deg": ("3", 3.0), "trust_bandwidth_deg": ("4", 4.0),
    "trust_floor": ("0.05", 0.05), "k_q": ("2", 2.0),
}


@pytest.mark.parametrize("cls, name", [(cls, f.name) for cls in KEYS for f in fields(cls)])
def test_every_setting_is_read(tmp_path, cls, name):
    """A value written under a setting's section and key reaches that field, and only it."""
    section, key, _ = KEYS[cls][name]
    text, value = NON_DEFAULT[name]
    sections = {"site": {"latitude": "47.5", "longitude": "7.5"}}
    sections.setdefault(section, {})[key] = text
    body = "".join(
        f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
        for sec, entries in sections.items()
    )
    cfg = load_run_config(write_config(tmp_path, body), require_plants=False)
    loaded = {Site: cfg.site, ProxyParams: cfg.proxy, OrientationConfig: cfg.orientation,
              SolverConfig: cfg.solver}[cls]
    default = Site(47.5, 7.5) if cls is Site else cls()
    assert getattr(default, name) != value
    assert loaded == replace(default, **{name: value})
