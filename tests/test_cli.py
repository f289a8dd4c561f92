"""End-to-end batch pipeline through the command line entry points."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pvghi
from pvghi import cli
from pvghi.cli import main
from pvghi.data import save_plant_csv, write_series_csv
from pvghi.orientation import IdentificationResult, SplitReport, save_omegas
from test_solver import build_scene

SMOKE = Path(__file__).parent / "smoke"

CONFIG_TEMPLATE = """\
[site]
latitude = 47.5
longitude = 7.5
altitude = 300
albedo = 0.2
sampling_seconds = 600

[paths]
{plants_line}
output_dir = out

[orientation]
subdivision = 2
split_candidates = 35

[run]
seed = 0
threads = 1
"""

SYNTH_SPEC = {
    "start": "2015-05-01T00:00:00",
    "days": 35,
    "plants": [
        {
            "plant_id": "south",
            "fields": [{"tilt_deg": 26.57, "azimuth_deg": 180.0, "pnom_w": 8000.0}],
        },
        {
            "plant_id": "eastwest",
            "fields": [
                {"tilt_deg": 43.65, "azimuth_deg": 94.39, "pnom_w": 4000.0},
                {"tilt_deg": 43.65, "azimuth_deg": 265.61, "pnom_w": 4500.0},
            ],
        },
    ],
}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run synth -> identify -> estimate once; tests inspect the results."""
    root = tmp_path_factory.mktemp("pipeline")
    spec_path = root / "synth.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    config = root / "config.ini"
    config.write_text(CONFIG_TEMPLATE.format(plants_line="plants ="))
    assert main(["synth", "--config", str(config), "--spec", str(spec_path)]) == 0

    out = root / "out"
    plants = "plants = out/south.csv, out/eastwest.csv"
    config.write_text(CONFIG_TEMPLATE.format(plants_line=plants))
    assert main(["identify", "--config", str(config)]) == 0
    assert main(["estimate", "--config", str(config)]) == 0
    return root, config, out


def test_synth_outputs(pipeline_dir):
    root, config, out = pipeline_dir
    assert (out / "south.csv").exists()
    assert (out / "eastwest.csv").exists()
    assert (out / "ghi_truth.csv").exists()
    assert (out / "clear_truth.csv").exists()


def test_synth_seed_rerun_identical(pipeline_dir, tmp_path):
    root, config, out = pipeline_dir
    spec_path = root / "synth.json"
    other_cfg = tmp_path / "config.ini"
    other_cfg.write_text(
        CONFIG_TEMPLATE.format(plants_line="plants =").replace(
            "output_dir = out", "output_dir = rerun"
        )
    )
    assert main(["synth", "--config", str(other_cfg), "--spec", str(spec_path)]) == 0
    for name in ("south.csv", "eastwest.csv", "ghi_truth.csv"):
        assert (tmp_path / "rerun" / name).read_bytes() == (out / name).read_bytes()


def test_identify_outputs(pipeline_dir):
    _, _, out = pipeline_dir
    payload = json.loads((out / "omega.json").read_text())
    assert len(payload["plants"]) == 2
    assert payload["chosen_split_days"] == 35
    by_id = {p["plant_id"]: p for p in payload["plants"]}
    assert abs(by_id["south"]["estimated_pnom_w"] - 8000.0) / 8000.0 < 0.10
    assert abs(by_id["eastwest"]["estimated_pnom_w"] - 8500.0) / 8500.0 < 0.10

    table = (out / "split_table.csv").read_text().strip().splitlines()
    assert table[0] == "split_days,pv_rmse,chosen"
    assert len(table) == 2  # one candidate row

    rows = [line.split(",") for line in table[1:]]
    chosen = [r for r in rows if r[2] == "1"]
    assert len(chosen) == 1
    best = min(rows, key=lambda r: float(r[1]))
    # chosen row minimizes the tabulated reconstruction error (single candidate)
    assert chosen[0] == best


def test_estimate_outputs(pipeline_dir):
    _, _, out = pipeline_dir
    lines = (out / "ghi_estimate.csv").read_text().strip().splitlines()
    assert lines[0] == "timestamp,ghi_est_wm2,n_plants_used,iterations,converged"
    assert len(lines) - 1 == 35 * 144
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["max_bound_violation"] == 0.0
    assert set(diag["gated_timesteps_per_plant"]) == {"south", "eastwest"}


def test_estimate_deterministic_rerun(pipeline_dir):
    root, config, out = pipeline_dir
    before = (out / "ghi_estimate.csv").read_bytes()
    assert main(["estimate", "--config", str(config)]) == 0
    assert (out / "ghi_estimate.csv").read_bytes() == before


def test_evaluate_report(pipeline_dir, capsys):
    root, config, out = pipeline_dir
    report_path = out / "metrics.json"
    rc = main([
        "evaluate",
        "--est", str(out / "ghi_estimate.csv"),
        "--truth", str(out / "ghi_truth.csv"),
        "--output", str(report_path),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "bias^2+std^2=RMSE^2" in text
    report = json.loads(report_path.read_text())
    assert {"native", "agg_10min", "agg_30min", "agg_60min"} <= set(report)
    # fully unsupervised pipeline on clean synthetic data
    assert report["native"]["nrmse"] < 0.05
    assert report["native"]["identity_residual"] < 1e-9
    daily = report_path.with_name("metrics_daily.csv")
    assert daily.exists()
    assert len(daily.read_text().strip().splitlines()) == 35 + 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "config.ini"
    config.write_text(
        CONFIG_TEMPLATE.format(plants_line="plants =") + "\n[solver]\nbogus = 1\n"
    )
    rc = main(["identify", "--config", str(config)])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


SECTION_OF = {
    "clear_bin_deg": "orientation", "bin_deg": "reconciliation", "bandwidth_deg": "reconciliation",
    **dict.fromkeys(("latitude", "longitude", "altitude", "albedo"), "site"),
}


@pytest.mark.parametrize("key, value", [
    ("n_grid", "abc"), ("k_safety", "high"), ("linke_turbidity", "0.5"),
    # parse, but out of the range the setting needs
    ("k_safety", "0"), ("k_safety", "nan"), ("lambda0", "nan"), ("delta_ghi", "nan"),
    ("clear_bin_deg", "0"), ("clear_bin_deg", "nan"), ("clear_bin_deg", "-5"), ("bin_deg", "0"),
    # bins finer than half a degree fill arrays of gigabytes; no bin or bandwidth passes 90
    ("clear_bin_deg", "0.49"), ("clear_bin_deg", "90.5"), ("bin_deg", "0.01"),
    ("bin_deg", "91"), ("bandwidth_deg", "-1"), ("bandwidth_deg", "90.5"),
    ("latitude", "91"), ("longitude", "-180.5"), ("albedo", "1.5"), ("albedo", "nan"),
    # the standard atmosphere's pressure is negative above 44,330.8 m
    ("altitude", "50000"), ("altitude", "inf"),
])
def test_bad_config_value_is_input_error(tmp_path, capsys, key, value):
    section = SECTION_OF.get(key, "solver")
    body = CONFIG_TEMPLATE.format(plants_line="plants =")
    body = re.sub(rf"^{key} = .*\n", "", body, flags=re.M)  # the template's own value
    if f"[{section}]\n" in body:
        body = body.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    else:
        body += f"\n[{section}]\n{key} = {value}\n"
    config = tmp_path / "config.ini"
    config.write_text(body)
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    rc = main(["synth", "--config", str(config), "--spec", str(spec_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"[{section}] {key}" in err


def test_missing_config_errors(tmp_path):
    assert main(["identify", "--config", str(tmp_path / "nope.ini")]) == 1


def test_single_plant_estimate_path(pipeline_dir, tmp_path):
    """One plant exercises the unweighted, ungated reduction."""
    root, config, out = pipeline_dir
    cfg = tmp_path / "single.ini"
    body = CONFIG_TEMPLATE.format(plants_line=f"plants = {out / 'south.csv'}")
    cfg.write_text(body.replace("output_dir = out", f"output_dir = {tmp_path / 'single_out'}"))
    assert main(["identify", "--config", str(cfg)]) == 0
    assert main(["estimate", "--config", str(cfg)]) == 0
    lines = (tmp_path / "single_out" / "ghi_estimate.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 35 * 144


def test_evaluate_no_overlap(pipeline_dir, tmp_path):
    _, _, out = pipeline_dir
    other = tmp_path / "truth.csv"
    other.write_text("timestamp,ghi_wm2\n2030-01-01T00:00:00Z,0.0\n")
    rc = main([
        "evaluate", "--est", str(out / "ghi_estimate.csv"), "--truth", str(other),
    ])
    assert rc == 1


def test_clearsky_override_wiring(pipeline_dir, tmp_path):
    """An override file reproducing the built-in model changes nothing."""
    import numpy as np
    from pvghi import Site, clearsky_ghi, sun_positions
    from pvghi.data import load_plant_csv

    root, config, out = pipeline_dir
    site = Site(latitude=47.5, longitude=7.5, altitude=300.0)
    ts = load_plant_csv(out / "south.csv", "south").timestamps
    clear = clearsky_ghi(sun_positions(ts, site), ts, site)
    override = tmp_path / "clear.csv"
    lines = ["timestamp,ghi_clear_wm2"] + [
        f"{np.datetime_as_string(t, timezone='UTC')},{float(g)!r}"
        for t, g in zip(ts, clear)
    ]
    override.write_text("\n".join(lines) + "\n")

    cfg = tmp_path / "override.ini"
    body = CONFIG_TEMPLATE.format(
        plants_line=f"plants = {out / 'south.csv'}, {out / 'eastwest.csv'}"
    )
    body = body.replace("output_dir = out", f"output_dir = {tmp_path / 'ov'}")
    body = body.replace("[orientation]", f"clearsky_override = {override}\n\n[orientation]")
    cfg.write_text(body)
    assert main(["estimate", "--config", str(cfg), "--omega", str(out / "omega.json")]) == 0
    assert (tmp_path / "ov" / "ghi_estimate.csv").read_bytes() == (
        out / "ghi_estimate.csv"
    ).read_bytes()


def test_convergence_shortfall_exit_code(pipeline_dir, tmp_path):
    """Blanking most daytime power leaves timesteps with no usable data."""
    import numpy as np

    root, config, out = pipeline_dir
    rng = np.random.default_rng(0)
    lines = (out / "south.csv").read_text().splitlines()
    holed = [lines[0]]
    for line in lines[1:]:
        ts, power, temp = line.split(",")
        if power and float(power) >= 0 and rng.random() < 0.5:
            power = ""
        holed.append(f"{ts},{power},{temp}")
    plant = tmp_path / "holed.csv"
    plant.write_text("\n".join(holed) + "\n")

    cfg = tmp_path / "holed.ini"
    body = CONFIG_TEMPLATE.format(plants_line=f"plants = {plant}")
    cfg.write_text(body.replace("output_dir = out", f"output_dir = {tmp_path / 'ho'}"))
    # reuse coefficients identified on the intact plant
    omega = tmp_path / "omega.json"
    payload = json.loads((out / "omega.json").read_text())
    payload["plants"] = [
        dict(p, plant_id="holed") for p in payload["plants"] if p["plant_id"] == "south"
    ]
    omega.write_text(json.dumps(payload))
    rc = main(["estimate", "--config", str(cfg), "--omega", str(omega)])
    assert rc == 2


@pytest.mark.parametrize("text", ["inf", "-inf"])
def test_infinite_temperature_is_a_missing_sample(pipeline_dir, tmp_path, text):
    """An infinite temperature in a plant file reads as a missing one.

    Read as a number, ``inf`` made the mean temperature infinite at its
    step, the simulated power there zero at every GHI, and the estimate
    the smallest grid candidate, marked converged.
    """
    _, _, out = pipeline_dir
    intact = np.loadtxt(out / "ghi_estimate.csv", delimiter=",", skiprows=1, usecols=(1, 4))
    row = int(np.argmax(intact[:, 0]))
    lines = (out / "eastwest.csv").read_text().splitlines()
    stamp, power, _ = lines[row + 1].split(",")
    lines[row + 1] = f"{stamp},{power},{text}"
    plant = tmp_path / "eastwest.csv"
    plant.write_text("\n".join(lines) + "\n")

    cfg = tmp_path / "inf.ini"
    body = CONFIG_TEMPLATE.format(plants_line=f"plants = {out / 'south.csv'}, {plant}")
    cfg.write_text(body.replace("output_dir = out", f"output_dir = {tmp_path / 'inf'}"))
    assert main(["estimate", "--config", str(cfg), "--omega", str(out / "omega.json")]) == 0
    table = np.loadtxt(
        tmp_path / "inf" / "ghi_estimate.csv", delimiter=",", skiprows=1, usecols=(1, 4)
    )
    assert table[row, 1] == 1.0
    assert table[row, 0] == pytest.approx(intact[row, 0], rel=0.02)


def both_plants_config(tmp_path, out, name):
    """The pipeline's two plants read by absolute path, written to ``tmp_path / name``."""
    body = CONFIG_TEMPLATE.format(
        plants_line=f"plants = {out / 'south.csv'}, {out / 'eastwest.csv'}"
    )
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(body.replace("output_dir = out", f"output_dir = {tmp_path / name}"))
    return cfg


@pytest.mark.parametrize("command", ["identify", "estimate"])
def test_sampling_seconds_must_be_the_files_period(pipeline_dir, tmp_path, capsys, command):
    """``sampling_seconds = 60`` over 10-minute plant files is an input error.

    The setting used to be read by ``synth`` alone, so both commands ran
    on such a config and exited 0.
    """
    _, _, out = pipeline_dir
    cfg = both_plants_config(tmp_path, out, "fast")
    cfg.write_text(cfg.read_text().replace("sampling_seconds = 600", "sampling_seconds = 60"))
    rc = main([command, "--config", str(cfg), *(
        ["--omega", str(out / "omega.json")] if command == "estimate" else []
    )])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "[site] sampling_seconds: 60" in err and "600 s" in err
    assert not (tmp_path / "fast").exists()


def src_env():
    """This process's environment with the tested pvghi first on PYTHONPATH."""
    src = str(Path(pvghi.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def test_commands_import_no_scipy(pipeline_dir, tmp_path):
    """``estimate`` and ``evaluate`` in a fresh interpreter load no SciPy module."""
    _, _, out = pipeline_dir
    cfg = both_plants_config(tmp_path, out, "plain")
    code = (
        "import sys\n"
        "from pvghi.cli import main\n"
        f"rc = main(['estimate', '--config', {str(cfg)!r}, "
        f"'--omega', {str(out / 'omega.json')!r}])\n"
        f"rc += main(['evaluate', '--est', {str(tmp_path / 'plain' / 'ghi_estimate.csv')!r}, "
        f"'--truth', {str(out / 'ghi_truth.csv')!r}, "
        f"'--output', {str(tmp_path / 'metrics.json')!r}])\n"
        "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_estimate_csv_reads_as_the_benchmark_reads_it(pipeline_dir):
    _, _, out = pipeline_dir
    table = np.loadtxt(
        out / "ghi_estimate.csv", delimiter=",", skiprows=1, usecols=(1, 4)
    )
    assert table.shape == (35 * 144, 2)
    assert set(np.unique(table[:, 1])) <= {0.0, 1.0}


def _stamp(minute):
    return f"2015-05-01T{10 + minute // 60:02d}:{minute % 60:02d}:00Z"


TINY_PLANT = "timestamp,power_w,temp_c\n" + "".join(
    f"{_stamp(m)},1000.0,15.0\n" for m in (0, 10, 20)
)
TINY_ESTIMATE = "timestamp,ghi_est_wm2,n_plants_used,iterations,converged\n" + "".join(
    f"{_stamp(m)},500.0,2,3,1\n" for m in (0, 10, 20)
)


def _spec_text(edit):
    spec = json.loads(json.dumps(SYNTH_SPEC))
    edit(spec)
    return json.dumps(spec)


def _omega_text(*coefficients):
    """An ``omega.json`` on mesh level 2 with one plant ``p`` entry per coefficient list."""
    return json.dumps({"mesh_subdivision": 2, "plants": [
        {"plant_id": "p", "coefficients": c, "estimated_pnom_w": 942.0} for c in coefficients
    ]})


_ZENITH = {"tilt_deg": 0.0, "azimuth_deg": 0.0, "omega_m2": 1.0}

MALFORMED = {
    "truth-no-timestamp-column": (
        "evaluate", f"time,ghi_wm2\n{_stamp(0)},1.0\n"
    ),
    "truth-bad-timestamp": ("evaluate", "timestamp,ghi_wm2\nyesterday,1.0\n"),
    "truth-short-row": (
        "evaluate", f"timestamp,ghi_wm2\n{_stamp(0)},1.0\n{_stamp(10)}\n"
    ),
    "truth-repeated-stamp": (
        "evaluate", f"timestamp,ghi_wm2\n{_stamp(0)},500.0\n{_stamp(0)},900.0\n{_stamp(10)},1.0\n"
    ),
    "truth-out-of-order-stamp": (
        "evaluate", f"timestamp,ghi_wm2\n{_stamp(10)},520.0\n{_stamp(0)},500.0\n{_stamp(20)},1.0\n"
    ),
    "clearsky-short-row": (
        "override", f"timestamp,ghi_clear_wm2\n{_stamp(0)},1.0\n{_stamp(10)}\n"
    ),
    "clearsky-non-numeric": (
        "override",
        f"timestamp,ghi_clear_wm2\n{_stamp(0)},1.0\n{_stamp(10)},bright\n{_stamp(20)},1.0\n",
    ),
    "clearsky-negative": (
        "override",
        f"timestamp,ghi_clear_wm2\n{_stamp(0)},800.0\n{_stamp(10)},-5.0\n{_stamp(20)},800.0\n",
    ),
    "clearsky-bad-timestamp": (
        "override", "timestamp,ghi_clear_wm2\n2015-13-01T10:00:00Z,1.0\n"
    ),
    "spec-invalid-json": ("synth", '{"plants": [}'),
    "spec-unknown-cloud-key": (
        "synth", _spec_text(lambda s: s.update(cloud={"sigma": 0.3, "persistence": 0.9}))
    ),
    "spec-misspelled-noise": (
        "synth", _spec_text(lambda s: s["plants"][0].update(noise=0.01))
    ),
    "spec-missing-azimuth": (
        "synth", _spec_text(lambda s: s["plants"][0]["fields"][0].pop("azimuth_deg"))
    ),
    "spec-repeated-plant-id": (
        "synth", _spec_text(lambda s: s["plants"][1].update(plant_id="south"))
    ),
    "spec-non-numeric-tilt": (
        "synth", _spec_text(lambda s: s["plants"][0]["fields"][0].update(tilt_deg="flat"))
    ),
    "spec-nan-azimuth": (
        "synth",
        _spec_text(lambda s: s["plants"][0]["fields"][0].update(azimuth_deg=float("nan"))),
    ),
    "spec-infinite-rating": (
        "synth",
        _spec_text(lambda s: s["plants"][0]["fields"][0].update(pnom_w=float("inf"))),
    ),
    "omega-invalid-json": ("estimate", '{"mesh_subdivision": 2,'),
    "omega-no-plants": ("estimate", json.dumps({"mesh_subdivision": 2})),
    "omega-repeated-plant": ("estimate", _omega_text([_ZENITH], [_ZENITH])),
    "omega-repeated-orientation": ("estimate", _omega_text([_ZENITH, _ZENITH])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_error_line(tmp_path, capsys, case):
    command, content = MALFORMED[case]
    bad = tmp_path / "malformed_input"
    bad.write_text(content)
    plant = tmp_path / "p.csv"
    plant.write_text(TINY_PLANT)
    estimate_csv = tmp_path / "est.csv"
    estimate_csv.write_text(TINY_ESTIMATE)
    body = CONFIG_TEMPLATE.format(plants_line=f"plants = {plant}")
    if command == "override":
        body = body.replace("output_dir = out", f"output_dir = out\nclearsky_override = {bad}")
    config = tmp_path / "config.ini"
    config.write_text(body)
    argv = {
        "evaluate": [
            "evaluate", "--est", str(estimate_csv), "--truth", str(bad),
            "--output", str(tmp_path / "metrics.json"),
        ],
        "override": ["identify", "--config", str(config)],
        "synth": ["synth", "--config", str(config), "--spec", str(bad)],
        "estimate": ["estimate", "--config", str(config), "--omega", str(bad)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: ") and str(bad) in err[0], err[0]


NON_FINITE_SPEC = {
    "days": lambda s: s.update(days=float("inf")),
    "spec.cloud.sigma": lambda s: s.update(cloud={"sigma": float("nan")}),
    "spec.plants[1].curtailment_w": lambda s: s["plants"][1].update(curtailment_w=-float("inf")),
    "spec.plants[0].shadows[0].attenuation": lambda s: s["plants"][0].update(shadows=[
        {"azimuth_min_deg": 80, "azimuth_max_deg": 150, "attenuation": float("nan")},
    ]),
}


@pytest.mark.parametrize("where", sorted(NON_FINITE_SPEC))
def test_non_finite_spec_number_names_its_key(tmp_path, capsys, where):
    """``json`` reads ``NaN`` and ``Infinity`` as numbers; the spec reader refuses them."""
    spec = tmp_path / "synth.json"
    spec.write_text(_spec_text(NON_FINITE_SPEC[where]))
    config = tmp_path / "config.ini"
    config.write_text(CONFIG_TEMPLATE.format(plants_line="plants ="))
    assert main(["synth", "--config", str(config), "--spec", str(spec)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert f"{where}: expected a finite number" in err, err


OUT_OF_RANGE_SPEC = {
    "spec.plants[0].noise_rel": (
        lambda s: s["plants"][0].update(noise_rel=-0.5), "must be finite and >= 0, got -0.5",
    ),
    "spec.plants[1].shadows[0].azimuth_max_deg": (
        lambda s: s["plants"][1].update(shadows=[{"azimuth_min_deg": 150, "azimuth_max_deg": 80}]),
        "must be finite and >= azimuth_min_deg, got 80",
    ),
    "spec.cloud.sigma": (
        lambda s: s.update(cloud={"sigma": -0.3}), "must be >= 0, got -0.3",
    ),
}


@pytest.mark.parametrize("where", sorted(OUT_OF_RANGE_SPEC))
def test_out_of_range_spec_value_is_input_error(tmp_path, capsys, where):
    """A negative noise or a reversed shadow sector, which would synthesize a
    noiseless or unshaded plant, stops ``synth`` before it writes a file."""
    edit, reason = OUT_OF_RANGE_SPEC[where]
    spec = tmp_path / "synth.json"
    spec.write_text(_spec_text(edit))
    config = tmp_path / "config.ini"
    config.write_text(CONFIG_TEMPLATE.format(plants_line="plants ="))
    assert main(["synth", "--config", str(config), "--spec", str(spec)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err == f"error: {spec}: {where}: {reason}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("route", ["flag", "config"])
def test_negative_seed_is_input_error(tmp_path, capsys, route):
    spec = tmp_path / "synth.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    body = CONFIG_TEMPLATE.format(plants_line="plants =")
    flag = ["--seed", "-1"] if route == "flag" else []
    if route == "config":
        body = body.replace("seed = 0", "seed = -1")
    config = tmp_path / "config.ini"
    config.write_text(body)
    assert main(["synth", "--config", str(config), "--spec", str(spec), *flag]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed: must be >= 0, got -1"]
    assert not (tmp_path / "out").exists()


def _refuse(*args, **kwargs):
    raise AssertionError("the span was not checked before building it")


@pytest.mark.parametrize(
    "days", [1e23, 1e9, 10**400, 1e308], ids=["1e23", "1e9", "10^400", "1e308"]
)
def test_too_long_synth_span_names_days(tmp_path, capsys, monkeypatch, days):
    """A span past the last readable stamp is refused before any array is made.

    1e23 days once overflowed numpy's array size and was reported as a
    bad start; 1e9 days asked numpy for 1.05 TiB of stamps.
    """
    monkeypatch.setattr(cli, "make_timestamps", _refuse)
    monkeypatch.setattr(cli, "synthesize", _refuse)
    spec = tmp_path / "synth.json"
    spec.write_text(_spec_text(lambda s: s.update(days=days)))
    config = tmp_path / "config.ini"
    config.write_text(CONFIG_TEMPLATE.format(plants_line="plants ="))
    assert main(["synth", "--config", str(config), "--spec", str(spec)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert f"{spec}: days: " in err and "runs past 9999-12-31" in err, err


def test_bad_synth_start_is_named_before_days(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "make_timestamps", _refuse)
    spec = tmp_path / "synth.json"
    spec.write_text(_spec_text(lambda s: s.update(start="yesterday", days=1e23)))
    config = tmp_path / "config.ini"
    config.write_text(CONFIG_TEMPLATE.format(plants_line="plants ="))
    assert main(["synth", "--config", str(config), "--spec", str(spec)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert "start: bad timestamp 'yesterday'" in err, err


@pytest.mark.parametrize(
    "dead_omega", [[], [float("nan")], [float("inf")], [-5.0]],
    ids=["none", "nan", "inf", "negative"],
)
def test_zero_coefficient_plant_is_input_error(tmp_path, capsys, dead_omega):
    """No coefficient, or a non-finite or negative one, is an error naming the plant.

    ``json`` reads ``NaN`` and ``Infinity`` as numbers, so the estimate
    checks the values: they would give a wrong GHI marked converged.
    """
    for pid in ("good", "dead"):
        (tmp_path / f"{pid}.csv").write_text(TINY_PLANT)
    config = tmp_path / "config.ini"
    config.write_text(CONFIG_TEMPLATE.format(plants_line="plants = good.csv, dead.csv"))
    flat = {"tilt_deg": 0.0, "azimuth_deg": 0.0, "omega_m2": 8.0}
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps({
        "mesh_subdivision": 2,
        "plants": [
            {"plant_id": "good", "coefficients": [flat], "estimated_pnom_w": 7536.0},
            {"plant_id": "dead", "coefficients": [{**flat, "omega_m2": w} for w in dead_omega],
             "estimated_pnom_w": 7536.0},
        ],
    }))
    assert main(["estimate", "--config", str(config), "--omega", str(omega)]) == 1
    err = capsys.readouterr().err
    assert "dead" in err and "good" not in err


def test_evaluate_scores_only_shared_finite_samples(tmp_path):
    minutes = range(0, 120, 10)
    est = tmp_path / "est.csv"
    est.write_text(
        "timestamp,ghi_est_wm2,n_plants_used,iterations,converged\n"
        + "".join(f"{_stamp(m)},{500.0 + 3 * m},2,3,1\n" for m in minutes)
    )
    # a gap at 10:10, no row at 11:00, and a row past the estimate's end
    truth_rows = {m: f"{500.0 + m}" for m in minutes if m != 60}
    truth_rows[10] = ""
    truth_rows[120] = "700.0"
    truth = tmp_path / "truth.csv"
    truth.write_text(
        "timestamp,ghi_wm2\n" + "".join(f"{_stamp(m)},{v}\n" for m, v in truth_rows.items())
    )
    report_path = tmp_path / "metrics.json"
    rc = main([
        "evaluate", "--est", str(est), "--truth", str(truth), "--output", str(report_path),
    ])
    assert rc == 0
    shared = [m for m in minutes if m not in (10, 60)]
    err = np.array([2.0 * m for m in shared])
    report = json.loads(report_path.read_text())
    assert report["native"]["n_samples"] == len(shared)
    assert report["native"]["rmse_wm2"] == pytest.approx(float(np.sqrt(np.mean(err**2))))
    # only the 30-min blocks 10:30 and 11:30 are complete
    block_err = np.array([2.0 * (m + 10) for m in (30, 90)])
    assert report["agg_30min"]["n_samples"] == 2
    assert report["agg_30min"]["rmse_wm2"] == pytest.approx(
        float(np.sqrt(np.mean(block_err**2)))
    )


@pytest.mark.parametrize("step, aggregates", [
    (4, {"agg_60min"}),  # 15 samples an hour; 10 and 30 min are no whole count of steps
    (7, set()),
])
def test_evaluate_leaves_out_aggregates_the_step_does_not_divide(tmp_path, step, aggregates):
    minutes = range(0, 180, step)
    est = tmp_path / "est.csv"
    est.write_text(
        "timestamp,ghi_est_wm2,n_plants_used,iterations,converged\n"
        + "".join(f"{_stamp(m)},{500.0 + 3 * m},2,3,1\n" for m in minutes)
    )
    truth = tmp_path / "truth.csv"
    truth.write_text("timestamp,ghi_wm2\n" + "".join(f"{_stamp(m)},{500.0 + m}\n" for m in minutes))
    report_path = tmp_path / "metrics.json"
    rc = main([
        "evaluate", "--est", str(est), "--truth", str(truth), "--output", str(report_path),
    ])
    assert rc == 0
    assert set(json.loads(report_path.read_text())) == {"native"} | aggregates


def test_repeated_plant_id_is_input_error(tmp_path, capsys):
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "good.csv").write_text(TINY_PLANT)
    config = tmp_path / "config.ini"
    config.write_text(CONFIG_TEMPLATE.format(plants_line="plants = a/good.csv, b/good.csv"))
    for command in ("identify", "estimate"):
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "a" / "good.csv") in err
        assert str(tmp_path / "b" / "good.csv") in err
        assert "Traceback" not in err


def test_smoke_scene_from_crlf_files_with_quoted_numbers(tmp_path):
    """The checked-in smoke scene gives byte-identical coefficients and
    estimate when its plant files end lines in CRLF and quote every number.

    Such files take the reader's row-by-row path, and pvghi's own files
    its whole-column one.
    """
    for name in ("spec.json", "run.ini"):
        shutil.copy(SMOKE / name, tmp_path)
    config = str(tmp_path / "run.ini")
    out = tmp_path / "out"
    assert main(["synth", "--config", config, "--spec", str(tmp_path / "spec.json")]) == 0

    def identify_and_estimate():
        assert main(["identify", "--config", config]) == 0
        assert main(["estimate", "--config", config]) == 0
        return [(out / name).read_bytes() for name in ("omega.json", "ghi_estimate.csv")]

    written = identify_and_estimate()
    for plant in ("p1", "p2", "p3"):
        header, *rows = (out / f"{plant}.csv").read_text().splitlines()
        quoted = [
            ",".join([stamp, *(f'"{v}"' for v in values)])
            for stamp, *values in (row.split(",") for row in rows)
        ]
        (out / f"{plant}.csv").write_bytes("\r\n".join([header, *quoted, ""]).encode())
    assert identify_and_estimate() == written


def test_smoke_script(tmp_path):
    """``tests/smoke/run.sh`` runs synth, identify, estimate and evaluate, then
    reruns identify and estimate under another PYTHONHASHSEED byte for byte,
    diagnostics.json but for its timing."""
    proc = subprocess.run(
        ["bash", str(SMOKE / "run.sh"), str(tmp_path / "smoke"), sys.executable, "-m",
         "pvghi.cli"],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_identify_memory_probe():
    """``tests/smoke/identify_memory.py`` runs ``identify`` at mesh level 1,
    prints each plant's rating, then estimates with the ratings and prints
    the estimate's traced memory peak."""
    proc = subprocess.run(
        [sys.executable, str(SMOKE / "identify_memory.py"), "--level", "1"],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.findall(r"^rating (\S+) ", proc.stdout, flags=re.M) == ["p1", "p2", "p3", "p4"]
    assert re.search(r"^estimate_tracemalloc_peak_mb +\d+\.\d$", proc.stdout, flags=re.M), \
        proc.stdout


def test_each_command_computes_the_sun_positions_once(pipeline_dir, tmp_path, monkeypatch):
    """The CLI passes no clear sky of its own, so ``identify`` and ``estimate``
    compute the sun positions for the model and the chain alike."""
    _, _, out = pipeline_dir
    calls = []
    real = pvghi.solar.sun_positions

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pvghi" and getattr(module, "sun_positions", None) is real:
            monkeypatch.setattr(module, "sun_positions", counting)
    config = tmp_path / "run.ini"
    body = CONFIG_TEMPLATE.format(
        plants_line=f"plants = {out / 'south.csv'}, {out / 'eastwest.csv'}"
    )
    config.write_text(body.replace("output_dir = out", f"output_dir = {tmp_path / 'out'}"))
    for command in ("identify", "estimate"):
        calls.clear()
        assert main([command, "--config", str(config)]) == 0
        assert len(calls) == 1, command


def one_day_inputs(tmp_path, site, mesh, params):
    """The 1-day, 4-plant ``test_solver.build_scene`` as files: its plants,
    their true coefficients and a config that reads them."""
    synth, sp, omegas = build_scene(site, mesh, params, days=1)
    paths = [tmp_path / f"{plant.plant_id}.csv" for plant in synth.dataset.plants]
    for plant, path in zip(synth.dataset.plants, paths):
        save_plant_csv(plant, path)
    omega = tmp_path / "omega.json"
    save_omegas(IdentificationResult(omegas, mesh, SplitReport((1,), (0.0,), 1)), omega)
    config = tmp_path / "run.ini"
    body = CONFIG_TEMPLATE.format(plants_line="plants = " + ", ".join(map(str, paths)))
    config.write_text(body.replace("output_dir = out", f"output_dir = {tmp_path / 'out'}"))
    return synth, sp, ["estimate", "--config", str(config), "--omega", str(omega)]


@pytest.mark.parametrize("night", [-1.0, np.nan], ids=["negative", "nan"])
def test_a_free_night_clear_sky_reports_no_bound_violation(
    tmp_path, monkeypatch, site, mesh, params, night
):
    """diagnostics.json's bound violation reads only the rows the solver solves."""
    synth, sp, argv = one_day_inputs(tmp_path, site, mesh, params)
    clear = np.where(sp.daytime, synth.ghi_clear, night)
    monkeypatch.setattr(pvghi.solar, "clearsky_ghi", lambda *args, **kwargs: clear.copy())
    assert main(argv) == 0
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["max_bound_violation"] == 0.0


def test_daytime_convergence_counts_the_solved_rows(
    tmp_path, monkeypatch, capsys, site, mesh, params
):
    """A clear-sky override of 5 W/m^2 at night adds no row to the fraction.

    The day has 144 rows, 93 of them with the sun up. Six of those short
    of converging is a shortfall (87 of 93, 93.5 %); counted over every
    row with clear-sky > 0 it would pass (138 of 144, 95.8 %).
    """
    synth, sp, argv = one_day_inputs(tmp_path, site, mesh, params)
    override = tmp_path / "clear.csv"
    write_series_csv(
        override, "timestamp,ghi_clear_wm2", synth.dataset.timestamps,
        (np.where(sp.daytime, synth.ghi_clear, 5.0),),
    )
    config = Path(argv[2])
    config.write_text(config.read_text().replace(
        "[orientation]", f"clearsky_override = {override}\n\n[orientation]"
    ))
    results, solve = [], cli.estimate

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "estimate", recording)
    rc = main(argv)
    (result,) = results
    assert result.solved.sum() == 93 and (result.ghi_clear > 0).sum() == 144
    frac = result.converged[result.solved].mean()
    assert f"daytime convergence: {100 * frac:.1f}%" in capsys.readouterr().out
    assert rc == (0 if frac >= 0.95 else 2)

    def six_short(*args, **kwargs):
        result = solve(*args, **kwargs)
        result.state.converged[:] = True
        result.state.converged[np.flatnonzero(result.solved)[:6]] = False
        return result

    monkeypatch.setattr(cli, "estimate", six_short)
    assert main(argv) == 2
    assert "daytime convergence: 93.5%" in capsys.readouterr().out


def test_a_repeated_clear_sky_override_stamp_is_named(tmp_path, capsys, site, mesh, params):
    """An override that gives 12:00 twice, the second time 400 W/m^2 higher."""
    synth, _, argv = one_day_inputs(tmp_path, site, mesh, params)
    override = tmp_path / "clear.csv"
    write_series_csv(
        override, "timestamp,ghi_clear_wm2", synth.dataset.timestamps, (synth.ghi_clear,)
    )
    lines = override.read_text().splitlines(keepends=True)
    noon = 1 + 72  # the header, then one row per 10 min from midnight
    stamp, value = lines[noon].rstrip("\n").split(",")
    assert stamp.endswith("T12:00:00Z")
    lines.insert(noon + 1, f"{stamp},{float(value) + 400.0!r}\n")
    override.write_text("".join(lines))
    config = Path(argv[2])
    config.write_text(config.read_text().replace(
        "[orientation]", f"clearsky_override = {override}\n\n[orientation]"
    ))
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert f"error: {override}: data row {noon + 1}: non-monotonic timestamps" in err[0]


@pytest.mark.parametrize("route", ["evaluate-output", "output-dir"])
def test_a_failed_write_is_one_error_line(
    pipeline_dir, tmp_path, capsys, monkeypatch, site, mesh, params, route
):
    """An output path that cannot be written is an input error naming it.

    ``evaluate --output`` at an existing directory and an ``output_dir``
    that names an existing file used to end in an OSError traceback, the
    second after the solve; the output directory is now made before it.
    """
    if route == "evaluate-output":
        _, _, out = pipeline_dir
        target = tmp_path / "report"
        target.mkdir()
        argv = ["evaluate", "--est", str(out / "ghi_estimate.csv"),
                "--truth", str(out / "ghi_truth.csv"), "--output", str(target)]
    else:
        _, _, argv = one_day_inputs(tmp_path, site, mesh, params)
        target = tmp_path / "out"
        target.write_text("not a directory\n")

        def solve(*args, **kwargs):
            raise AssertionError("the solve ran before the output directory was made")

        monkeypatch.setattr(cli, "estimate", solve)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert str(target) in lines[0]
