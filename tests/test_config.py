"""Run-configuration parsing and validation."""

from dataclasses import fields

import pytest

from pvghi import InputError, ProxyParams, SolverConfig
from pvghi.config import OrientationConfig, load_run_config
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
    for cls in (ProxyParams, OrientationConfig, SolverConfig)
    for f in fields(cls)
    if f.type == "float"
])
def test_nan_setting_rejected(cls, name):
    with pytest.raises(SettingError) as info:
        cls(**{name: float("nan")})
    assert info.value.field == name


@pytest.mark.parametrize("extra, where", [
    ("[orientation]\nsplit_candidates = 30, 0\n", r"\[orientation\] split_candidates"),
    ("sampling_seconds = 0\n", r"\[site\] sampling_seconds"),
])
def test_out_of_range_setting_names_section_and_key(tmp_path, extra, where):
    with pytest.raises(InputError, match=where + ": must be"):
        load_run_config(write_config(tmp_path, MINIMAL + extra), require_plants=False)
