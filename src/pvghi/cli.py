"""Batch command line: synth, identify, estimate, evaluate.

Exit codes: 0 success, 1 input error, 2 convergence shortfall.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_run_config
from .data import (
    InputError,
    align,
    expect,
    load_plant_csv,
    read_json,
    read_series_csv,
    save_plant_csv,
    write_json,
    write_series_csv,
)
from .metrics import block_average, normalized_rmse
from .orientation import generate_mesh, identify, load_omegas, save_omegas
from .solar import Orientation, clearsky_ghi
from .solver import estimate
from .synth import (
    CloudModel,
    PlantSpec,
    ShadowSector,
    SyntheticSpec,
    make_timestamps,
    synthesize,
)

SYNTH_SAMPLING_SECONDS = 600  # synth's step when [site] sampling_seconds is not set
TRUTH_HEADER = "timestamp,ghi_wm2"
ESTIMATE_HEADER = "timestamp,ghi_est_wm2,n_plants_used,iterations,converged"


def _load_dataset(cfg: RunConfig):
    """The configured plants, each named by its file stem, aligned.

    A ``[site] sampling_seconds`` that is set must be the files' period.
    """
    seen = {}
    for path in cfg.plant_paths:
        if path.stem in seen:
            raise InputError(
                f"plants {seen[path.stem]} and {path} share the plant id {path.stem!r}"
            )
        seen[path.stem] = path
    plants = [load_plant_csv(p, plant_id=p.stem) for p in cfg.plant_paths]
    dataset = align(plants, cfg.site)
    period = plants[0].sampling_seconds  # align checked that the plants share it
    if cfg.sampling_seconds is not None and period and cfg.sampling_seconds != period:
        raise InputError(
            f"[site] sampling_seconds: {cfg.sampling_seconds}, but the plant files are "
            f"sampled every {period} s"
        )
    return dataset


def cmd_identify(args) -> int:
    cfg = load_run_config(args.config)
    dataset = _load_dataset(cfg)
    ghi_clear = clearsky_ghi(
        dataset.timestamps, dataset.site, override_path=cfg.clearsky_override,
        linke_turbidity=cfg.solver.linke_turbidity,
    )
    result = identify(
        dataset, ghi_clear, generate_mesh(cfg.orientation.subdivision), cfg.proxy,
        cfg.orientation.split_candidates, cfg.orientation.clear_bin_deg,
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
    write_series_csv(
        out_path, ESTIMATE_HEADER, result.timestamps,
        (result.ghi, result.n_plants_used, result.state.iterations, result.converged),
    )
    diag_path = cfg.output_dir / "diagnostics.json"
    gate_counts = {
        p.plant_id: int((~result.gate[:, i]).sum())
        for i, p in enumerate(dataset.plants)
    }
    write_json(diag_path, {
        "frobenius_error_history": result.state.err_history,
        "objective_history": result.state.objective_history,
        "gated_timesteps_per_plant": gate_counts,
        "seconds_per_sample": result.seconds_per_sample,
        "max_bound_violation": result.state.bound_violation,
    })
    print(f"wrote {out_path}")
    print(f"wrote {diag_path}")

    day = result.ghi_clear > 0
    if day.any():
        frac = result.converged[day].mean()
        print(f"daytime convergence: {100 * frac:.1f}%")
        if frac < 0.95:
            return 2
    return 0


def _spec_object(cls, raw, where: str, convert=None):
    """``cls`` built from a JSON object keyed by its field names.

    A value goes through ``convert[key]`` if given and must otherwise be
    a number. Unknown keys and missing required ones are InputErrors.
    """
    fields = dataclasses.fields(cls)
    keys = set(expect(raw, where, dict))
    unknown = keys - {f.name for f in fields}
    missing = {
        f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING
    } - keys
    for problem, names in (("unknown", unknown), ("missing", missing)):
        if names:
            raise InputError(f"{where}: {problem} key(s) {', '.join(sorted(names))}")
    convert = convert or {}
    return cls(**{k: convert.get(k, expect)(v, f"{where}.{k}") for k, v in raw.items()})


def _list_of(convert):
    """Converter of a JSON list whose items ``convert`` turns into objects."""
    return lambda raw, where: tuple(
        convert(item, f"{where}[{i}]") for i, item in enumerate(expect(raw, where, list))
    )


def _spec_field(raw, where: str):
    """One ``{tilt_deg, azimuth_deg, pnom_w}`` entry of a plant's fields."""
    keys = ("tilt_deg", "azimuth_deg", "pnom_w")
    if set(expect(raw, where, dict)) != set(keys):
        raise InputError(f"{where}: expected exactly the keys {', '.join(keys)}")
    tilt, azimuth, pnom = (expect(raw[k], f"{where}.{k}") for k in keys)
    return Orientation(tilt=np.deg2rad(tilt), azimuth=np.deg2rad(azimuth)), float(pnom)


def _spec_plant(raw, where: str) -> PlantSpec:
    return _spec_object(PlantSpec, raw, where, {
        "plant_id": lambda v, w: expect(v, w, str),
        "fields": _list_of(_spec_field),
        "shadows": _list_of(lambda v, w: _spec_object(ShadowSector, v, w)),
        "curtailment_w": lambda v, w: None if v is None else expect(v, w),
    })


def _read_synth_spec(path, step_seconds: int):
    """The SyntheticSpec and the timestamps of a ``pvghi synth`` JSON file.

    Besides the SyntheticSpec fields, the file may give ``start`` (an
    ISO-8601 instant) and ``days``.
    """
    raw = expect(read_json(path), str(path), dict)
    try:
        start = expect(raw.pop("start", "2015-06-01T00:00:00"), "start", str)
        days = expect(raw.pop("days", 7), "days")
        spec = _spec_object(SyntheticSpec, raw, "spec", {
            "plants": _list_of(_spec_plant),
            "cloud": lambda v, w: _spec_object(CloudModel, v, w),
        })
        ids = [p.plant_id for p in spec.plants]
        if len(set(ids)) < len(ids):
            raise InputError(f"spec.plants: plant_id repeated in {ids}")
        try:
            timestamps = make_timestamps(start, days, step_seconds)
        except (ValueError, OverflowError):
            raise InputError(f"start: bad timestamp {start!r}") from None
        if timestamps.size == 0:
            raise InputError(f"days: {days} holds no {step_seconds} s sample")
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return spec, timestamps


def cmd_synth(args) -> int:
    cfg = load_run_config(args.config, require_plants=False)
    seed = args.seed if args.seed is not None else cfg.seed
    spec, timestamps = _read_synth_spec(
        args.spec, cfg.sampling_seconds or SYNTH_SAMPLING_SECONDS
    )
    synth = synthesize(
        spec, cfg.site, timestamps, seed=seed, params=cfg.proxy,
        linke_turbidity=cfg.solver.linke_turbidity,
    )

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for plant in synth.dataset.plants:
        save_plant_csv(plant, out / f"{plant.plant_id}.csv")
    write_series_csv(out / "ghi_truth.csv", TRUTH_HEADER, timestamps, (synth.ghi_true,))
    write_series_csv(
        out / "clear_truth.csv", "timestamp,clear", timestamps, (synth.clear_true,)
    )
    print(f"wrote {len(spec.plants)} plant file(s) and truth series to {out}")
    return 0


def cmd_evaluate(args) -> int:
    est_ts, (est, *_) = read_series_csv(args.est, ESTIMATE_HEADER)
    ref_ts, (ref,) = read_series_csv(args.truth, TRUTH_HEADER)
    common, ei, ri = np.intersect1d(
        est_ts.astype("int64"), ref_ts.astype("int64"), return_indices=True
    )
    est, ref = est[ei], ref[ri]
    shared = np.isfinite(est) & np.isfinite(ref)
    if not shared.any():
        raise InputError(
            f"{args.est} and {args.truth} share no timestamp where both are finite"
        )
    timestamps = common[shared].astype("datetime64[s]")
    est, ref = est[shared], ref[shared]

    report = {}
    base = normalized_rmse(est, ref, timestamps)
    report["native"] = _report_dict(base)
    for minutes in (10, 30, 60):
        est_b, ts_b = block_average(est, timestamps, minutes * 60)
        ref_b, _ = block_average(ref, timestamps, minutes * 60)
        if len(est_b) >= 2 and (ref_b > 0).any():
            report[f"agg_{minutes}min"] = _report_dict(normalized_rmse(est_b, ref_b))

    out_path = Path(args.output) if args.output else Path("metrics.json")
    write_json(out_path, report)

    if base.daily is not None:
        daily_path = out_path.with_name(out_path.stem + "_daily.csv")
        daily = base.daily
        write_series_csv(
            daily_path, "date,bias_wm2,std_wm2,rmse_wm2", daily.dates,
            (daily.bias, daily.std, daily.rmse),
        )
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
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
