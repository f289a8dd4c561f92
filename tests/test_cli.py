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
from pvghi.cli import main

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
    "clear_bin_deg": "orientation", "bin_deg": "reconciliation",
    **dict.fromkeys(("latitude", "longitude", "altitude", "albedo"), "site"),
}


@pytest.mark.parametrize("key, value", [
    ("n_grid", "abc"), ("k_safety", "high"),
    # parse, but out of the range the setting needs
    ("k_safety", "0"), ("k_safety", "nan"), ("lambda0", "nan"), ("delta_ghi", "nan"),
    ("clear_bin_deg", "0"), ("clear_bin_deg", "nan"), ("clear_bin_deg", "-5"), ("bin_deg", "0"),
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
    from pvghi import Site, clearsky_ghi
    from pvghi.data import load_plant_csv

    root, config, out = pipeline_dir
    site = Site(latitude=47.5, longitude=7.5, altitude=300.0)
    ts = load_plant_csv(out / "south.csv", "south").timestamps
    clear = clearsky_ghi(ts, site)
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
    src = str(Path(pvghi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300,
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


MALFORMED = {
    "truth-no-timestamp-column": (
        "evaluate", f"time,ghi_wm2\n{_stamp(0)},1.0\n"
    ),
    "truth-bad-timestamp": ("evaluate", "timestamp,ghi_wm2\nyesterday,1.0\n"),
    "truth-short-row": (
        "evaluate", f"timestamp,ghi_wm2\n{_stamp(0)},1.0\n{_stamp(10)}\n"
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
    "omega-invalid-json": ("estimate", '{"mesh_subdivision": 2,'),
    "omega-no-plants": ("estimate", json.dumps({"mesh_subdivision": 2})),
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
