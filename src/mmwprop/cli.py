"""Command-line interface: one subcommand per library operation.

Exit codes: 0 success, 1 usage error, 2 data/domain error (the error name is
printed to stderr). All numeric output is capped at 4 decimals so repeated
runs and golden files stay byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import re
import sys
from typing import Callable, NamedTuple

from .datasets import (
    CLEAR_GLASS,
    DRYWALL,
    PATH_LOSS_COLUMNS,
    PATTERN_COLUMNS,
    load_path_loss_csv,
    load_pattern_csv,
    load_reflection_csv,
    paper_dataset,
    same_freq,
    validate_dataset,
)
from .errors import MmwPropError, _finite
from .partition import (
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


def _round4(value):
    if isinstance(value, bool) or not isinstance(value, float):
        if isinstance(value, dict):
            return {k: _round4(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            if hasattr(value, "_fields"):  # a record: the object of its fields, in order
                return {k: _round4(v) for k, v in zip(value._fields, value)}
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
# Subcommand handlers: each returns its data, and dispatch renders it
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


def _cmd_estimate_eps(args):
    samples = _filter_freq(load_reflection_csv(args.input), args.freq)
    return estimate_permittivity_mmse(samples)


def _cmd_fit_linear(args) -> dict:
    samples = _filter_freq(load_reflection_csv(args.input), args.freq)
    fit, rmse = fit_linear_reflection(samples)
    return {**fit._asdict(), "rmse": rmse, "samples_used": len(samples)}


def _cmd_scatter_pattern(args):
    params = DsParameters(s_coeff=args.s_coeff, lambda_mix=args.lambda_mix,
                          alpha_r=args.alpha_r, alpha_i=args.alpha_i)
    sweep = sweep_geometries(args.incident_angle, sweep_angles(args.incident_angle, args.step))
    pattern = predict_pattern(
        sweep, args.eps, params, args.hpbw,
        diffuse_solid_angle_sr=args.diffuse_sr,
        specular_spread_deg=args.spread_deg,
    )
    if args.format == "csv":
        return PATTERN_COLUMNS, pattern
    return {"incident_angle_deg": args.incident_angle,
            **_summary(pattern, args.incident_angle), "pattern": pattern}


def _summary(pattern, incident_angle_deg) -> dict:
    """The keys scatter-pattern and backscatter share; the margin refuses an empty pattern."""
    margin = backscatter_margin(pattern, incident_angle_deg)
    peak = max(pattern, key=lambda p: p.relative_power_db)  # the first maximum
    return {"peak_angle": peak.observation_angle_deg, "backscatter_margin_db": margin,
            "smooth": classify_smooth(pattern, incident_angle_deg)}


def _cmd_backscatter(args) -> dict:
    rows = load_pattern_csv(args.input)
    peak = max((p for _, p in rows), default=0.0)
    pattern = ScatterPatternPoint._from_columns([a for a, _ in rows],
                                                [_finite(p - peak) for _, p in rows])
    return _summary(pattern, args.incident_angle)


def _cmd_partition(args):
    return partition_loss(args.tx_power_dbm, args.rx_power_dbm - sum(args.gains_dbi or ()),
                          args.distance_m, args.freq)


def _cmd_xpd(args) -> dict:
    return {"xpd_db": xpd_from_path_losses(args.cross_db, args.co_db)}


def _cmd_depol_margin(args) -> dict:
    if args.cross_mean_db is not None:
        mean = args.cross_mean_db
    elif args.vh_db is not None and args.hv_db is not None:
        mean = (args.vh_db + args.hv_db) / 2.0
    else:  # a usage error that argparse cannot express: one of two forms
        build_command_parser("depol-margin").error(
            "provide --cross-mean-db or both --vh-db and --hv-db")
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
        "nlos_best": reduction.nlos_best,
    }


def _partition_table(data, material: str) -> list[dict]:
    return [{"freq_hz": r.freq_hz, "tx_pol": r.tx_pol.value, "rx_pol": r.rx_pol.value,
             "mean_db": r.mean_loss_db, "std_db": r.std_db}
            for r in data.partition_records(material)]


def _cmd_paper_tables(args) -> dict:
    data = paper_dataset()
    tables = {
        "I": data.sounders,
        "II": data.reflection,
        "III": _partition_table(data, CLEAR_GLASS),
        "IV": _partition_table(data, DRYWALL),
        "V": data.ci_fits,
    }
    return {args.table: tables[args.table]} if args.table else tables


def _cmd_validate(args):
    return validate_dataset(load_path_loss_csv(args.input))


# ---------------------------------------------------------------------------
# The command table (each subcommand declared once), its parsers, dispatch
# ---------------------------------------------------------------------------

class _Option(NamedTuple):
    """A flag and its ``add_argument`` keywords; ``type`` defaults to float."""
    flag: str
    type: Callable | None = float
    default: object = None
    required: bool = False
    choices: tuple | None = None
    nargs: int | None = None
    metavar: tuple | None = None
    help: str | None = None


class _Command(NamedTuple):
    help: str
    handler: Callable
    options: tuple
    formats: bool = False  # takes --format json|csv

    def parser_options(self) -> tuple:  # in the order its help lists them
        return (*self.options, _OUTPUT, *((_FORMAT,) if self.formats else ()))


_INPUT = _Option("--input", None, required=True)
_OUTPUT = _Option("--output", None, help="write the payload to this file instead of stdout")
_FORMAT = _Option("--format", None, "json", choices=("json", "csv"))
_DS = DsParameters()  # the lobe defaults

COMMANDS = {
    "fresnel": _Command("Fresnel reflection coefficient and loss", _cmd_fresnel, (
        _Option("--eps", required=True, help="relative permittivity"),
        _Option("--angle", required=True, help="incidence angle, deg from normal"))),
    "estimate-eps": _Command("MMSE permittivity from reflection CSV", _cmd_estimate_eps, (
        _INPUT, _Option("--freq", help="keep only samples at this frequency, Hz"))),
    "fit-linear": _Command("linear |gamma| vs angle fit from reflection CSV", _cmd_fit_linear, (
        _INPUT, _Option("--freq"))),
    "scatter-pattern": _Command("dual-lobe scattering + specular pattern", _cmd_scatter_pattern, (
        _Option("--eps", required=True), _Option("--incident-angle", required=True),
        _Option("--hpbw", default=8.0, help="antenna HPBW, deg"),
        _Option("--s-coeff", default=_DS.s_coeff), _Option("--lambda-mix", default=_DS.lambda_mix),
        _Option("--alpha-r", int, _DS.alpha_r), _Option("--alpha-i", int, _DS.alpha_i),
        _Option("--step", default=10.0, help="sweep step, deg"),
        _Option("--diffuse-sr", default=DEFAULT_DIFFUSE_SOLID_ANGLE_SR),
        _Option("--spread-deg", default=DEFAULT_SPECULAR_SPREAD_DEG)), formats=True),
    "backscatter": _Command("margin and smoothness from a pattern CSV", _cmd_backscatter, (
        _INPUT, _Option("--incident-angle", required=True))),
    "partition": _Command("free-space-corrected partition loss", _cmd_partition, (
        _Option("--tx-power-dbm", required=True), _Option("--rx-power-dbm", required=True),
        _Option("--distance-m", required=True), _Option("--freq", required=True),
        _Option("--gains-dbi", nargs=2, metavar=("TX", "RX"),
                help="antenna gains to subtract from the received power"))),
    "xpd": _Command("cross-polarization discrimination", _cmd_xpd, (
        _Option("--co-db", required=True), _Option("--cross-db", required=True))),
    "depol-margin": _Command("cross-pol partition loss minus XPD", _cmd_depol_margin, (
        _Option("--cross-mean-db"), _Option("--vh-db"), _Option("--hv-db"),
        _Option("--xpd-db", required=True))),
    "budget": _Command("reflected/transmitted/absorbed split", _cmd_budget, (
        _Option("--refl-db", required=True), _Option("--part-db", required=True))),
    "fspl": _Command("Friis free-space path loss", _cmd_fspl, (
        _Option("--freq", required=True), _Option("--distance-m", required=True))),
    "ci-eval": _Command("close-in model mean path loss", _cmd_ci_eval, (
        _Option("--freq", required=True), _Option("--ple", required=True),
        _Option("--sigma-db", default=0.0), _Option("--distance-m", required=True))),
    "fit-ci": _Command("fit the close-in model to a path-loss CSV", _cmd_fit_ci, (
        _INPUT, _Option("--freq", required=True),
        _Option("--env", None, choices=("LOS", "NLOS", "NLOS_BEST")))),
    "reduce-directional": _Command("LOS/NLOS split and NLOS-best picks",
                                   _cmd_reduce_directional, (_INPUT,), formats=True),
    "paper-tables": _Command("dump the embedded reference tables", _cmd_paper_tables, (
        _Option("--table", None, choices=("I", "II", "III", "IV", "V")),)),
    "validate": _Command("summarize a path-loss CSV", _cmd_validate, (_INPUT,)),
}


def _add_options(parser: _Parser, command: _Command) -> _Parser:
    for option in command.parser_options():
        parser.add_argument(option.flag, **dict(zip(option._fields[1:], option[1:])))
    return parser


def build_command_parser(name: str) -> _Parser:
    """One subcommand's parser, the same as the one ``build_parser`` adds for it."""
    return _add_options(_Parser(prog=f"mmwprop {name}"), COMMANDS[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="mmwprop", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND", required=True)
    for name, command in COMMANDS.items():
        _add_options(subs.add_parser(name, help=command.help), command)
    return parser


def _parse(argv):
    """The subcommand's table entry and its parsed options.

    A known subcommand is parsed by its own parser alone; anything else, and any
    argument left over, goes through the full parser, whose messages are the reference."""
    if argv and argv[0] in COMMANDS:
        args, extras = build_command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return COMMANDS[argv[0]], args
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command], args


def _error_name(exc: BaseException) -> str:
    if isinstance(exc, csv.Error):  # its class is plainly named "Error"
        return "Csv"
    return type(exc).__name__.removesuffix("Error")


def dispatch(argv) -> CommandResult:
    try:
        command, args = _parse(argv)
        data = command.handler(args)
        if command.formats and args.format == "csv":
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
    """The process entry point: one ``dispatch`` with the cyclic collector paused.

    Reference counting frees the records, which hold no cycles; the collector
    would only rescan them, since CPython never untracks tuple-subclass
    instances. The caller's setting is restored on return."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = dispatch(sys.argv[1:] if argv is None else argv)
    finally:
        if enabled:
            gc.enable()
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
