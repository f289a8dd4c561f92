"""Batch command line: synth, identify, estimate, evaluate.

Exit codes: 0 success, 1 input error, 2 convergence shortfall.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_run_config
from .data import InputError, align, load_plant_csv, parse_timestamp, save_plant_csv
from .metrics import block_average, normalized_rmse
from .orientation import (
    InsufficientDataError,
    generate_mesh,
    identify_with_splits,
    load_omegas,
    save_omegas,
    select_clear,
)
from .solar import Orientation, clearsky_ghi, sun_positions
from .solver import estimate
from .synth import (
    CloudModel,
    PlantSpec,
    ShadowSector,
    SyntheticSpec,
    make_timestamps,
    synthesize,
)

TRUTH_HEADER = "timestamp,ghi_wm2"


def _load_dataset(cfg: RunConfig):
    plants = [
        load_plant_csv(p, plant_id=p.stem) for p in cfg.plant_paths
    ]
    return align(plants, cfg.site)


def cmd_identify(args) -> int:
    cfg = load_run_config(args.config)
    dataset = _load_dataset(cfg)
    sp = sun_positions(dataset.timestamps, dataset.site)
    ghi_clear = clearsky_ghi(
        dataset.timestamps, dataset.site, override_path=cfg.clearsky_override,
        linke_turbidity=cfg.solver.linke_turbidity,
    )
    mesh = generate_mesh(cfg.orientation.subdivision)
    masks = [
        select_clear(p, sp, bin_deg=cfg.orientation.gmm_bin_deg)
        for p in dataset.plants
    ]
    result = identify_with_splits(
        dataset, sp, ghi_clear, mesh, cfg.proxy, masks,
        split_days=cfg.orientation.split_candidates,
    )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    omega_path = cfg.output_dir / "omega.json"
    save_omegas(result, omega_path)

    table_path = cfg.output_dir / "split_table.csv"
    with open(table_path, "w") as fh:
        fh.write("split_days,pv_rmse,chosen\n")
        for d, r in zip(result.report.split_days, result.report.pv_rmse):
            fh.write(f"{d},{float(r)!r},{int(d == result.report.chosen_split)}\n")
    print(f"wrote {omega_path}")
    print(f"wrote {table_path}")
    for d, r in zip(result.report.split_days, result.report.pv_rmse):
        marker = " *" if d == result.report.chosen_split else ""
        print(f"  split {d:>4d} d  pv_rmse {r:.4e}{marker}")
    for oc in result.omegas:
        n_fields = int(np.count_nonzero(oc.omega))
        print(
            f"  {oc.plant_id}: {n_fields} orientation(s), "
            f"estimated rating {oc.estimated_pnom / 1e3:.2f} kW"
        )
    return 0


def cmd_estimate(args) -> int:
    cfg = load_run_config(args.config)
    dataset = _load_dataset(cfg)
    mesh = generate_mesh(cfg.orientation.subdivision)
    omega_path = Path(args.omega) if args.omega else cfg.output_dir / "omega.json"
    if not omega_path.exists():
        raise InputError(f"coefficient file not found: {omega_path}")
    omegas = load_omegas(omega_path, mesh)
    by_id = {oc.plant_id: oc for oc in omegas}
    try:
        ordered = tuple(by_id[p.plant_id] for p in dataset.plants)
    except KeyError as exc:
        raise InputError(f"no coefficients for plant {exc}") from None

    ghi_clear = clearsky_ghi(
        dataset.timestamps, dataset.site, override_path=cfg.clearsky_override,
        linke_turbidity=cfg.solver.linke_turbidity,
    )
    result = estimate(
        dataset, ordered, mesh.orientations, cfg.proxy, cfg.solver,
        ghi_clear=ghi_clear,
    )

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.output_dir / "ghi_estimate.csv"
    with open(out_path, "w") as fh:
        fh.write("timestamp,ghi_est_wm2,n_plants_used,iterations,converged\n")
        for k in range(len(result.timestamps)):
            fh.write(
                f"{np.datetime_as_string(result.timestamps[k], timezone='UTC')},"
                f"{float(result.ghi[k])!r},{int(result.n_plants_used[k])},"
                f"{int(result.state.iterations[k])},{int(result.converged[k])}\n"
            )
    diag_path = cfg.output_dir / "diagnostics.json"
    gate_counts = {
        p.plant_id: int((~result.gate[:, i]).sum())
        for i, p in enumerate(dataset.plants)
    }
    with open(diag_path, "w") as fh:
        json.dump(
            {
                "frobenius_error_history": result.state.err_history,
                "objective_history": result.state.objective_history,
                "gated_timesteps_per_plant": gate_counts,
                "seconds_per_sample": result.seconds_per_sample,
                "max_bound_violation": result.state.bound_violation,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    print(f"wrote {out_path}")
    print(f"wrote {diag_path}")

    day = result.ghi_clear > 0
    if day.any():
        frac = result.converged[day].mean()
        print(f"daytime convergence: {100 * frac:.1f}%")
        if frac < 0.95:
            return 2
    return 0


def cmd_synth(args) -> int:
    cfg = load_run_config(args.config, require_plants=False)
    seed = args.seed if args.seed is not None else cfg.seed
    with open(args.spec) as fh:
        raw = json.load(fh)

    plants = []
    for p in raw["plants"]:
        fields = tuple(
            (
                Orientation(
                    tilt=np.deg2rad(f["tilt_deg"]), azimuth=np.deg2rad(f["azimuth_deg"])
                ),
                float(f["pnom_w"]),
            )
            for f in p["fields"]
        )
        shadows = tuple(
            ShadowSector(
                azimuth_min_deg=s["azimuth_min_deg"],
                azimuth_max_deg=s["azimuth_max_deg"],
                zenith_min_deg=s.get("zenith_min_deg", 0.0),
                zenith_max_deg=s.get("zenith_max_deg", 90.0),
                attenuation=s["attenuation"],
                day_min=s.get("day_min", 1),
                day_max=s.get("day_max", 366),
            )
            for s in p.get("shadows", ())
        )
        plants.append(
            PlantSpec(
                plant_id=p["plant_id"],
                fields=fields,
                shadows=shadows,
                noise_rel=float(p.get("noise_rel", 0.0)),
                curtailment_w=p.get("curtailment_w"),
            )
        )
    cloud = CloudModel(**raw.get("cloud", {}))
    spec = SyntheticSpec(
        plants=tuple(plants),
        cloud=cloud,
        temperature_mean=float(raw.get("temperature_mean", 15.0)),
        temperature_amplitude=float(raw.get("temperature_amplitude", 8.0)),
    )
    timestamps = make_timestamps(
        raw.get("start", "2015-06-01T00:00:00"),
        float(raw.get("days", 7)),
        cfg.sampling_seconds,
    )
    synth = synthesize(
        spec, cfg.site, timestamps, seed=seed, params=cfg.proxy,
        linke_turbidity=cfg.solver.linke_turbidity,
    )

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for plant in synth.dataset.plants:
        save_plant_csv(plant, out / f"{plant.plant_id}.csv")
    with open(out / "ghi_truth.csv", "w") as fh:
        fh.write(TRUTH_HEADER + "\n")
        for ts, g in zip(timestamps, synth.ghi_true):
            fh.write(f"{np.datetime_as_string(ts, timezone='UTC')},{float(g)!r}\n")
    with open(out / "clear_truth.csv", "w") as fh:
        fh.write("timestamp,clear\n")
        for ts, c in zip(timestamps, synth.clear_true):
            fh.write(f"{np.datetime_as_string(ts, timezone='UTC')},{int(c)}\n")
    print(f"wrote {len(spec.plants)} plant file(s) and truth series to {out}")
    return 0


def _read_ghi_csv(path, value_column: str):
    stamps, values = [], []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if value_column not in header:
            raise InputError(f"{path}: no column {value_column!r}")
        t_idx = header.index("timestamp")
        v_idx = header.index(value_column)
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) <= max(t_idx, v_idx) or not parts[t_idx]:
                continue
            stamps.append(parse_timestamp(parts[t_idx]))
            values.append(float(parts[v_idx]))
    return np.array(stamps, dtype="datetime64[s]"), np.array(values)


def cmd_evaluate(args) -> int:
    est_ts, est = _read_ghi_csv(args.est, "ghi_est_wm2")
    ref_ts, ref = _read_ghi_csv(args.truth, "ghi_wm2")
    common, ei, ri = np.intersect1d(
        est_ts.astype("int64"), ref_ts.astype("int64"), return_indices=True
    )
    if common.size == 0:
        raise InputError("estimate and truth share no timestamps")
    timestamps = common.astype("datetime64[s]")
    est, ref = est[ei], ref[ri]

    report = {}
    base = normalized_rmse(est, ref, timestamps)
    report["native"] = _report_dict(base)
    for minutes in (10, 30, 60):
        est_b, ts_b = block_average(est, timestamps, minutes * 60)
        ref_b, _ = block_average(ref, timestamps, minutes * 60)
        if len(est_b) >= 2 and (ref_b > 0).any():
            report[f"agg_{minutes}min"] = _report_dict(normalized_rmse(est_b, ref_b))

    out_path = Path(args.output) if args.output else Path("metrics.json")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    if base.daily is not None:
        daily_path = out_path.with_name(out_path.stem + "_daily.csv")
        with open(daily_path, "w") as fh:
            fh.write("date,bias_wm2,std_wm2,rmse_wm2\n")
            for d, b, s, r in zip(
                base.daily.dates, base.daily.bias, base.daily.std, base.daily.rmse
            ):
                fh.write(f"{d},{float(b)!r},{float(s)!r},{float(r)!r}\n")
        print(f"wrote {daily_path}")
    print(f"wrote {out_path}")
    for name, rep in report.items():
        print(
            f"  {name}: nRMSE {rep['nrmse']:.4f}  RMSE {rep['rmse_wm2']:.2f} W/m^2  "
            f"bias {rep['bias_wm2']:.2f}"
        )
    print(
        "  decomposition check bias^2+std^2=RMSE^2: residual "
        f"{base.identity_residual:.2e}"
    )
    return 0


def _report_dict(report) -> dict:
    return {
        "k_n_wm2": report.k_n,
        "rmse_wm2": report.rmse,
        "nrmse": report.nrmse,
        "bias_wm2": report.bias,
        "std_wm2": report.std,
        "n_samples": report.n_samples,
        "abs_rel_error_quantiles": report.abs_rel_error_quantiles,
        "identity_residual": report.identity_residual,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvghi",
        description="Estimate global horizontal irradiance from PV power measurements",
    )
    parser.add_argument("--version", action="version", version=f"pvghi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ident = sub.add_parser("identify", help="recover plant orientations and ratings")
    p_ident.add_argument("--config", required=True)
    p_ident.set_defaults(func=cmd_identify)

    p_est = sub.add_parser("estimate", help="estimate GHI from plant power")
    p_est.add_argument("--config", required=True)
    p_est.add_argument("--omega", default=None, help="coefficient file from identify")
    p_est.set_defaults(func=cmd_estimate)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--spec", required=True, help="JSON synthetic description")
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("evaluate", help="score an estimate against truth")
    p_eval.add_argument("--est", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, InsufficientDataError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
