"""Command-line interface: one subcommand per library operation.

Exit codes: 0 success, 1 usage error, 2 data/domain error (the error name is
printed to stderr). All numeric output is capped at 4 decimals so repeated
runs and golden files stay byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from typing import NamedTuple

from .datasets import (
    PATH_LOSS_COLUMNS,
    PATTERN_COLUMNS,
    load_path_loss_csv,
    load_pattern_csv,
    load_reflection_csv,
    paper_dataset,
    same_freq,
    validate_dataset,
)
from .errors import MmwPropError, NonFiniteResultError
from .partition import (
    LinkPowerMeasurement,
    depolarization_margin,
    partition_loss,
    power_budget,
    xpd_from_path_losses,
)
from .pathloss import CiModel, ci_path_loss_db, fit_ci, fspl_db, reduce_directional
from .reflection import (
    estimate_permittivity_mmse,
    fit_linear_reflection,
    fresnel_gamma_perp,
    reflection_loss_db,
)
from .scattering import (
    DEFAULT_DIFFUSE_SOLID_ANGLE_SR,
    DEFAULT_SPECULAR_SPREAD_DEG,
    DsParameters,
    ScatterPatternPoint,
    backscatter_margin,
    classify_smooth,
    predict_pattern,
    sweep_angles,
    sweep_geometries,
)


class CommandResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


class _UsageError(Exception):
    pass


class _Help(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent: "-1e3" would read as an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
        # every type=float option converts through _finite_float; argparse still
        # names the type "float" in its messages, from action.type
        self.register("type", float, _finite_float)

    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")

    def print_help(self, file=None):  # argparse default prints, then exits
        raise _Help(self.format_help())


def _finite_float(text: str) -> float:
    value = float(text)  # a ValueError becomes "invalid float value: ..."
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise NonFiniteResultError(f"a result is not a finite number: {value}")
    return value


def _round4(value):
    if isinstance(value, bool) or not isinstance(value, float):
        if isinstance(value, dict):
            return {k: _round4(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [_round4(v) for v in value]
        return value
    return round(_finite(value), 4) + 0.0


def _csv_payload(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{_finite(v):.4f}".replace("-0.0000", "0.0000")
                         if isinstance(v, float) else v for v in row])
    return out.getvalue()


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns a dict for JSON, or (columns, rows) for CSV)
# ---------------------------------------------------------------------------

def _cmd_fresnel(args) -> dict:
    gamma = fresnel_gamma_perp(args.angle, args.eps)
    return {
        "incident_angle_deg": args.angle,
        "eps_r": args.eps,
        "gamma_perp": gamma,
        "magnitude": abs(gamma),
        "loss_db": reflection_loss_db(args.angle, args.eps),
    }


def _filter_freq(samples, freq_hz):
    if freq_hz is None:
        return samples
    return [s for s in samples if same_freq(s.freq_hz, freq_hz)]


def _cmd_estimate_eps(args) -> dict:
    samples = _filter_freq(load_reflection_csv(args.input), args.freq)
    return estimate_permittivity_mmse(samples)._asdict()


def _cmd_fit_linear(args) -> dict:
    samples = _filter_freq(load_reflection_csv(args.input), args.freq)
    fit, rmse = fit_linear_reflection(samples)
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "rmse": rmse,
        "samples_used": len(samples),
    }


def _cmd_scatter_pattern(args):
    params = DsParameters(s_coeff=args.s_coeff, lambda_mix=args.lambda_mix,
                          alpha_r=args.alpha_r, alpha_i=args.alpha_i)
    geometries = sweep_geometries(args.incident_angle,
                                  sweep_angles(args.incident_angle, args.step))
    pattern = predict_pattern(
        geometries, args.eps, params, args.hpbw,
        diffuse_solid_angle_sr=args.diffuse_sr,
        specular_spread_deg=args.spread_deg,
    )
    if args.format == "csv":
        return PATTERN_COLUMNS, pattern
    peak = max(pattern, key=lambda p: p.relative_power_db)
    return {
        "incident_angle_deg": args.incident_angle,
        "peak_angle": peak.observation_angle_deg,
        "backscatter_margin_db": backscatter_margin(pattern, args.incident_angle),
        "smooth": classify_smooth(pattern, args.incident_angle),
        "pattern": [p._asdict() for p in pattern],
    }


def _cmd_backscatter(args) -> dict:
    rows = load_pattern_csv(args.input)
    peak_angle, peak_db = max(rows, key=lambda row: row[1]) if rows else (None, 0.0)
    pattern = [ScatterPatternPoint(a, p - peak_db) for a, p in rows]
    return {
        "peak_angle": peak_angle,
        "backscatter_margin_db": backscatter_margin(pattern, args.incident_angle),
        "smooth": classify_smooth(pattern, args.incident_angle),
    }


def _cmd_partition(args) -> dict:
    rx_power = args.rx_power_dbm
    if args.gains_dbi:
        rx_power -= sum(args.gains_dbi)
    return partition_loss(LinkPowerMeasurement(
        tx_power_dbm=args.tx_power_dbm,
        rx_power_dbm=rx_power,
        distance_m=args.distance_m,
        freq_hz=args.freq,
    ))._asdict()


def _cmd_xpd(args) -> dict:
    return {"xpd_db": xpd_from_path_losses(args.cross_db, args.co_db)}


def _cmd_depol_margin(args) -> dict:
    if args.cross_mean_db is not None:
        mean = args.cross_mean_db
    elif args.vh_db is not None and args.hv_db is not None:
        mean = (args.vh_db + args.hv_db) / 2.0
    else:
        args.error("provide --cross-mean-db or both --vh-db and --hv-db")
    return {"margin_db": depolarization_margin(mean, args.xpd_db)}


def _cmd_budget(args) -> dict:
    budget = power_budget(args.refl_db, args.part_db)
    return {"budget": {
        "reflected": budget.reflected_fraction,
        "transmitted": budget.transmitted_fraction,
        "absorbed": budget.absorbed_fraction,
    }}


def _cmd_fspl(args) -> dict:
    return {"fspl_db": fspl_db(args.freq, args.distance_m)}


def _cmd_ci_eval(args) -> dict:
    model = CiModel(freq_hz=args.freq, ple=args.ple, sigma_db=args.sigma_db)
    return {"path_loss_db": ci_path_loss_db(model, args.distance_m)}


def _cmd_fit_ci(args) -> dict:
    samples = load_path_loss_csv(args.input)
    env = args.env
    if env == "NLOS_BEST":
        samples = list(reduce_directional(samples).nlos_best)
    elif env:
        samples = [s for s in samples if s.environment == env]
    model = fit_ci(samples, args.freq)
    return {
        "freq_hz": model.freq_hz,
        "env": env or "ALL",
        "ple": model.ple,
        "sigma_db": model.sigma_db,
        "n_samples": len(samples),
    }


def _cmd_reduce_directional(args):
    reduction = reduce_directional(load_path_loss_csv(args.input))
    if args.format == "csv":
        return PATH_LOSS_COLUMNS, reduction.nlos_best
    return {
        "los_count": len(reduction.los),
        "nlos_count": len(reduction.nlos_all),
        "nlos_best_count": len(reduction.nlos_best),
        "nlos_best": [s._asdict() for s in reduction.nlos_best],
    }


def _partition_table(data, material: str) -> list[dict]:
    return [{"freq_hz": r.freq_hz, "tx_pol": r.tx_pol.value, "rx_pol": r.rx_pol.value,
             "mean_db": r.mean_loss_db, "std_db": r.std_db}
            for r in data.partition_records(material)]


def _cmd_paper_tables(args) -> dict:
    data = paper_dataset()
    tables = {
        "I": [
            {
                "freq_hz": s.band.center_frequency_hz,
                "label": s.band.label,
                "rf_bandwidth_hz": s.rf_bandwidth_hz,
                "antennas": [{"hpbw_deg": a.hpbw_deg, "gain_dbi": a.gain_dbi}
                             for a in s.antennas],
                "xpd_db": s.xpd_db,
            }
            for s in data.sounders
        ],
        "II": [s._asdict() for s in data.reflection],
        "III": _partition_table(data, "clear_glass"),
        "IV": _partition_table(data, "drywall"),
        "V": [r._asdict() for r in data.ci_fits],
    }
    return {args.table: tables[args.table]} if args.table else tables


def _cmd_validate(args) -> dict:
    report = validate_dataset(load_path_loss_csv(args.input))
    return {
        "los_count": report.los_count,
        "nlos_count": report.nlos_count,
        "distance_min_m": report.distance_min,
        "distance_max_m": report.distance_max,
        "duplicates": [list(k) for k in report.duplicate_keys],
    }


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="mmwprop", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    subs.required = True

    sub = subs.add_parser("fresnel", help="Fresnel reflection coefficient and loss")
    sub.add_argument("--eps", type=float, required=True, help="relative permittivity")
    sub.add_argument("--angle", type=float, required=True,
                     help="incidence angle, deg from normal")
    sub.set_defaults(handler=_cmd_fresnel)

    sub = subs.add_parser("estimate-eps", help="MMSE permittivity from reflection CSV")
    sub.add_argument("--input", required=True)
    sub.add_argument("--freq", type=float, help="keep only samples at this frequency, Hz")
    sub.set_defaults(handler=_cmd_estimate_eps)

    sub = subs.add_parser("fit-linear", help="linear |gamma| vs angle fit from reflection CSV")
    sub.add_argument("--input", required=True)
    sub.add_argument("--freq", type=float)
    sub.set_defaults(handler=_cmd_fit_linear)

    sub = subs.add_parser("scatter-pattern", help="dual-lobe scattering + specular pattern")
    sub.add_argument("--eps", type=float, required=True)
    sub.add_argument("--incident-angle", type=float, required=True)
    sub.add_argument("--hpbw", type=float, default=8.0, help="antenna HPBW, deg")
    defaults = DsParameters()
    sub.add_argument("--s-coeff", type=float, default=defaults.s_coeff)
    sub.add_argument("--lambda-mix", type=float, default=defaults.lambda_mix)
    sub.add_argument("--alpha-r", type=int, default=defaults.alpha_r)
    sub.add_argument("--alpha-i", type=int, default=defaults.alpha_i)
    sub.add_argument("--step", type=float, default=10.0, help="sweep step, deg")
    sub.add_argument("--diffuse-sr", type=float, default=DEFAULT_DIFFUSE_SOLID_ANGLE_SR)
    sub.add_argument("--spread-deg", type=float, default=DEFAULT_SPECULAR_SPREAD_DEG)
    sub.set_defaults(handler=_cmd_scatter_pattern)

    sub = subs.add_parser("backscatter", help="margin and smoothness from a pattern CSV")
    sub.add_argument("--input", required=True)
    sub.add_argument("--incident-angle", type=float, required=True)
    sub.set_defaults(handler=_cmd_backscatter)

    sub = subs.add_parser("partition", help="free-space-corrected partition loss")
    sub.add_argument("--tx-power-dbm", type=float, required=True)
    sub.add_argument("--rx-power-dbm", type=float, required=True)
    sub.add_argument("--distance-m", type=float, required=True)
    sub.add_argument("--freq", type=float, required=True)
    sub.add_argument("--gains-dbi", type=float, nargs=2, metavar=("TX", "RX"),
                     help="antenna gains to subtract from the received power")
    sub.set_defaults(handler=_cmd_partition)

    sub = subs.add_parser("xpd", help="cross-polarization discrimination")
    sub.add_argument("--co-db", type=float, required=True)
    sub.add_argument("--cross-db", type=float, required=True)
    sub.set_defaults(handler=_cmd_xpd)

    sub = subs.add_parser("depol-margin", help="cross-pol partition loss minus XPD")
    sub.add_argument("--cross-mean-db", type=float)
    sub.add_argument("--vh-db", type=float)
    sub.add_argument("--hv-db", type=float)
    sub.add_argument("--xpd-db", type=float, required=True)
    sub.set_defaults(handler=_cmd_depol_margin, error=sub.error)

    sub = subs.add_parser("budget", help="reflected/transmitted/absorbed split")
    sub.add_argument("--refl-db", type=float, required=True)
    sub.add_argument("--part-db", type=float, required=True)
    sub.set_defaults(handler=_cmd_budget)

    sub = subs.add_parser("fspl", help="Friis free-space path loss")
    sub.add_argument("--freq", type=float, required=True)
    sub.add_argument("--distance-m", type=float, required=True)
    sub.set_defaults(handler=_cmd_fspl)

    sub = subs.add_parser("ci-eval", help="close-in model mean path loss")
    sub.add_argument("--freq", type=float, required=True)
    sub.add_argument("--ple", type=float, required=True)
    sub.add_argument("--sigma-db", type=float, default=0.0)
    sub.add_argument("--distance-m", type=float, required=True)
    sub.set_defaults(handler=_cmd_ci_eval)

    sub = subs.add_parser("fit-ci", help="fit the close-in model to a path-loss CSV")
    sub.add_argument("--input", required=True)
    sub.add_argument("--freq", type=float, required=True)
    sub.add_argument("--env", choices=("LOS", "NLOS", "NLOS_BEST"))
    sub.set_defaults(handler=_cmd_fit_ci)

    sub = subs.add_parser("reduce-directional", help="LOS/NLOS split and NLOS-best picks")
    sub.add_argument("--input", required=True)
    sub.set_defaults(handler=_cmd_reduce_directional)

    sub = subs.add_parser("paper-tables", help="dump the embedded reference tables")
    sub.add_argument("--table", choices=("I", "II", "III", "IV", "V"))
    sub.set_defaults(handler=_cmd_paper_tables)

    sub = subs.add_parser("validate", help="summarize a path-loss CSV")
    sub.add_argument("--input", required=True)
    sub.set_defaults(handler=_cmd_validate)

    # added last, so each subcommand's help lists them after its own options
    for name, sub in subs.choices.items():
        sub.add_argument("--output", help="write the payload to this file instead of stdout")
        if name in ("scatter-pattern", "reduce-directional"):
            sub.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _error_name(exc: BaseException) -> str:
    if isinstance(exc, csv.Error):  # its class is plainly named "Error"
        return "Csv"
    return type(exc).__name__.removesuffix("Error")


def dispatch(argv) -> CommandResult:
    try:
        args = build_parser().parse_args(argv)
        data = args.handler(args)
        if isinstance(data, tuple):
            payload = _csv_payload(*data)
        else:
            payload = json.dumps(_round4(data), indent=2) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload)
            payload = ""
    except _Help as help_text:
        return CommandResult(0, str(help_text), "")
    except _UsageError as err:
        return CommandResult(1, "", str(err) + "\n")
    except (MmwPropError, OSError, UnicodeDecodeError, csv.Error) as err:
        return CommandResult(2, "", f"{_error_name(err)}: {err}\n")
    return CommandResult(0, payload, "")


def main(argv=None) -> int:
    result = dispatch(sys.argv[1:] if argv is None else argv)
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
