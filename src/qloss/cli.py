"""Command-line front end.

Subcommands::

    qloss analyze FILE [--quiet] [...]       classify a state file
    qloss analyze --ket EXPR --dims 2 N M    classify an inline ket
    qloss sweep FAMILY [its flags] --out f   one family over a grid to CSV
    qloss fig1 --samples N --seed S          concurrence/negativity scatter CSV
    qloss generators N                       dump the SU(N) basis as JSON

Exit codes: 0 Robust, 1 Fragile, 2 Undetermined, 64 usage error,
65 input/parse error, 70 internal numeric failure. The analysis document on
stdout is JSON (complex numbers as [re, im] pairs); the human-readable
summary goes to stderr unless --quiet.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import numerics
from .bloch import NF_TOL
from .criteria import RoofBudget
from .errors import InvalidParamsError, QlossError
from .robustness import (
    Classification,
    RobustnessReport,
    __version__,
    classify_qubit_loss,
    classify_residual,
    fig1_scatter,
    sweep,
)
from .states import (
    StateFile,
    _check_tripartite_dims,
    density,
    parse_ket,
    partial_trace,
    read_state_file,
)
from .su_basis import generators

SCHEMA_VERSION = "1.0"

EXIT_BY_CLASSIFICATION = {
    Classification.ROBUST: 0,
    Classification.FRAGILE: 1,
    Classification.UNDETERMINED: 2,
}
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 64 on usage errors (2 means Undetermined)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return str(float(value))
    return str(value)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _complex_pairs(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


def report_to_dict(report: RobustnessReport) -> dict:
    return {
        "input": report.input,
        "residual_dims": list(report.residual_dims),
        "reduced_dims": list(report.reduced_dims),
        "normal_form": {
            "status": report.normal_form_status,
            "iterations": report.nf_iterations,
            "stop": report.nf_stop,
        },
        "criteria": [asdict(c) for c in report.criteria],
        "informational": [asdict(c) for c in report.informational],
        "measures": [asdict(m) for m in report.measures],
        "classification": report.classification.value,
        "provenance": report.provenance,
    }


def _summary(report: RobustnessReport) -> str:
    lines = [f"classification: {report.classification.value}"]
    n, m = report.residual_dims
    rn, rm = report.reduced_dims
    lines.append(f"residual state: {n}x{m} (support {rn}x{rm}), "
                 f"normal form {report.normal_form_status}")
    for crit in report.criteria + report.informational:
        lines.append(f"  {crit.name}: statistic={crit.statistic:.6g} "
                     f"threshold={crit.threshold:.6g} -> {crit.verdict.value}")
    for measure in report.measures:
        lines.append(f"  {measure.name} = {measure.value:.9g} ({measure.kind})")
    return "\n".join(lines) + "\n"


def _grid_values(parts: list[str], text: str, what: str) -> list[float]:
    """Each part as a float; InvalidParamsError unless all are finite numbers."""
    try:
        values = [float(p) for p in parts]
    except ValueError:
        values = [np.nan]  # refused below, with the grid in the message
    if not np.isfinite(values).all():
        raise InvalidParamsError(f"{what} must be finite numbers, got {text!r}")
    return values


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'start:stop:step' (inclusive), comma list, or one value."""
    text = text.strip()
    if text == "":
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidParamsError(f"grid range must be start:stop:step, got {text!r}")
        start, stop, step = _grid_values(parts, text, "grid range")
        if step <= 0:
            raise InvalidParamsError(f"grid step must be positive, got {step}")
        span = (stop - start) / step
        if not np.isfinite(span):               # e.g. 0:1e300:1e-300 or 0:1:1e-320
            raise InvalidParamsError(f"grid range must be finite in points, got {text!r}")
        count = int(np.floor(span + 1e-9)) + 1
        if count < 1:
            return []
        return [round(start + i * step, 12) for i in range(count)]
    return _grid_values([p for p in text.split(",") if p.strip() != ""], text, "grid values")


def _tolerance(upper: float):
    """argparse ``type=``: a float x with 0 < x < upper (so finite, NaN refused)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = np.nan  # refused below, with the range in the message
        if not 0 < value < upper:
            raise argparse.ArgumentTypeError(
                f"must be a finite number with 0 < x < {upper:g}, got {text!r}")
        return value
    return parse


def _cmd_analyze(args) -> int:
    started = time.perf_counter()
    # input phase: any failure here is an input error (65)
    try:
        if args.ket is not None:
            if args.path is not None:
                sys.stderr.write("analyze: give either a file or --ket, not both\n")
                return EX_USAGE
            if not args.dims:
                sys.stderr.write("analyze: --ket requires --dims\n")
                return EX_USAGE
            dims = tuple(int(d) for d in args.dims)
            state = parse_ket(args.ket, dims)
            content = StateFile("ket", dims, state, text=args.ket)
            echo = {"dims": list(dims), "format": "ket", "ket": args.ket}
        else:
            if args.path is None:
                sys.stderr.write("analyze: need a state file or --ket\n")
                return EX_USAGE
            content = read_state_file(args.path)
            if args.dims and tuple(int(d) for d in args.dims) != content.dims:
                sys.stderr.write(
                    f"analyze: --dims {args.dims} does not match file dims {list(content.dims)}\n")
                return EX_USAGE
            echo = {
                "path": args.path,
                "dims": list(content.dims),
                "format": content.kind,
                "text": content.text,
            }
        if len(content.dims) != 2:
            _check_tripartite_dims(content.dims)
    except FileNotFoundError as exc:
        sys.stderr.write(f"analyze: {exc}\n")
        return EX_DATAERR
    except QlossError as exc:
        sys.stderr.write(f"analyze: {type(exc).__name__}: {exc}\n")
        return EX_DATAERR
    parse_ms = (time.perf_counter() - started) * 1e3

    # pipeline phase: failures are internal numeric errors (70)
    try:
        roof_budget = None
        if args.budget > 0:
            roof_budget = RoofBudget(restarts=8, iterations=args.budget, seed=args.seed)
        options = {"rank_tol": args.rank_tol, "nf_tol": args.nf_tol,
                   "roof_budget": roof_budget, "seed": args.seed}
        if len(content.dims) == 3:
            if content.kind == "ket":
                report = classify_qubit_loss(content.state, **options)
            else:
                residual = partial_trace(content.state, keep=(1, 2))
                report = classify_residual(
                    residual,
                    input_info={"kind": "tripartite_density", "dims": list(content.dims)},
                    **options)
        else:
            rho = content.state if content.kind == "rho" else density(content.state)
            report = classify_residual(
                rho, input_info={"kind": f"bipartite_{content.kind}",
                                 "dims": list(content.dims)}, **options)
    except (QlossError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"analyze: internal numeric failure: {type(exc).__name__}: {exc}\n")
        return EX_SOFTWARE

    timings = {"parse": parse_ms}
    timings.update({k: float(v) for k, v in report.timings_ms.items()})
    document = {
        "schema_version": SCHEMA_VERSION,
        "input": echo,
        "report": report_to_dict(report),
        "timings_ms": timings,
    }
    sys.stdout.write(json.dumps(document, indent=2) + "\n")
    if not args.quiet:
        sys.stderr.write(_summary(report))
    return EXIT_BY_CLASSIFICATION[report.classification]


_SWEEP_STAT_COLS = ["negativity", "kf_statistic", "kf_threshold", "length_bound",
                    "normal_form", "classification", "error"]


def _sweep_row(point, columns) -> list[str]:
    values = [point.params.get(name) for name in columns]
    report = point.report
    if report is None:
        values += [None] * (len(_SWEEP_STAT_COLS) - 1)
    else:
        entries = {e.name: e for e in report.criteria + report.informational + report.measures}
        entry = lambda name, field: getattr(entries.get(name), field, None)
        values += [entry("negativity", "value"), entry("ky_fan", "statistic"),
                   entry("ky_fan", "threshold"), entry("length_bound", "statistic"),
                   report.normal_form_status, report.classification.value]
    return [_fmt(value) for value in values + [point.error]]


def _cmd_sweep(args) -> int:
    fixed = {name: getattr(args, name) for name in args.fixed_names}
    given = {name: value for name, value in fixed.items() if value is not None}
    if given and len(given) < len(fixed):  # only fixed flags without a default can be left out
        flags = "/".join(f"--{name}" for name in fixed)
        sys.stderr.write(f"sweep: give all of {flags} or none\n")
        return EX_USAGE
    try:
        grid = {name: _parse_grid(getattr(args, name)) for name in args.grid_names
                if getattr(args, name) is not None}
        if not grid:
            sys.stderr.write("sweep: no grid flags given\n")
            return EX_USAGE
        points = sweep(args.family, grid, fixed=given, rank_tol=args.rank_tol,
                       nf_tol=args.nf_tol)
    except InvalidParamsError as exc:
        sys.stderr.write(f"sweep: {exc}\n")
        return EX_USAGE
    except (QlossError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"sweep: internal numeric failure: {type(exc).__name__}: {exc}\n")
        return EX_SOFTWARE
    lines = [",".join(args.columns + _SWEEP_STAT_COLS)]
    for point in points:
        lines.append(",".join(_sweep_row(point, args.columns)))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_fig1(args) -> int:
    if args.samples < 1:
        sys.stderr.write("fig1: --samples must be >= 1\n")
        return EX_USAGE
    pairs = fig1_scatter(args.samples, seed=args.seed)
    lines = ["concurrence,negativity"]
    lines.extend(f"{_fmt(c)},{_fmt(n)}" for c, n in pairs)
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_generators(args) -> int:
    if args.n < 2:
        sys.stderr.write(f"generators: dimension must be >= 2, got {args.n}\n")
        return EX_USAGE
    basis = generators(args.n)
    entries = []
    for index, (matrix, label) in enumerate(zip(basis.matrices, basis.labels), start=1):
        entries.append({
            "index": index,
            "kind": label[0],
            "levels": [int(x) for x in label[1:]],
            "matrix": _complex_pairs(matrix),
        })
    document = {
        "dim": basis.dim,
        "count": len(basis),
        "normalization": "Tr(g_a g_b) = 2 delta_ab",
        "ordering": "symmetric pairs, antisymmetric pairs, diagonal",
        "generators": entries,
    }
    _write_text(args.out, json.dumps(document, indent=2) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qloss",
                     description="Robustness of 2xNxM pure states against qubit loss.")
    parser.add_argument("--version", action="version", version=f"qloss {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_tolerances(p):
        p.add_argument("--rank-tol", type=_tolerance(1.0), default=numerics.RANK_TOL,
                       help="relative eigenvalue threshold for rank decisions, 0 < x < 1")
        p.add_argument("--nf-tol", type=_tolerance(np.inf), default=NF_TOL,
                       help="normal-form marginal tolerance, finite and > 0")

    analyze = sub.add_parser("analyze", help="classify a state against qubit loss")
    analyze.add_argument("path", nargs="?", help="state file (see README for the format)")
    analyze.add_argument("--ket", help="inline ket expression instead of a file")
    analyze.add_argument("--dims", type=int, nargs="+",
                         help="subsystem dimensions (required with --ket)")
    analyze.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    analyze.add_argument("--seed", type=int, default=0, help="random seed")
    analyze.add_argument("--budget", type=int, default=0,
                         help="iterations for the convex-roof concurrence bound (0 = skip)")
    add_tolerances(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    sweep_p = sub.add_parser("sweep", help="evaluate a state family over a grid")
    families = sweep_p.add_subparsers(dest="family", required=True, parser_class=_Parser)

    def add_family(family, grid, fixed, derived=()):
        """One sweep family: its grid flags, then its fixed flags as (flag,
        add_argument keywords) pairs; the CSV columns follow that order, then
        the ``derived`` parameters the family's points add. No abbreviations:
        another family's ``--n`` would otherwise be taken as ``--nf-tol``."""
        p = families.add_parser(family, help=f"sweep the {family} family", allow_abbrev=False)
        for name in grid:
            p.add_argument(f"--{name}", help=f"grid for {name}: start:stop:step, a,b,... or x")
        fixed_names = [p.add_argument(flag, **kw).dest for flag, kw in fixed]
        add_tolerances(p)
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.set_defaults(func=_cmd_sweep, grid_names=grid, fixed_names=fixed_names,
                       columns=[*grid, *fixed_names, *derived])

    add_family("observation1", ["p"], [
        ("--n", {"type": int, "default": 2, "help": "local dimension"}),
        ("--alpha", {"type": float, "default": float(np.sqrt(0.5))}),
        ("--beta", {"type": float, "default": float(np.sqrt(0.5))}),
        ("--sign", {"type": int, "default": 1, "choices": (1, -1)}),
        ("--e-index", {"type": int, "default": 0}),
        ("--eperp-index", {"type": int, "default": 1}),
    ])
    add_family("example1", ["t1", "t2", "t3"], [
        (f"--alpha{i}", {"type": float, "help": "region parameter"}) for i in (1, 2, 3)
    ], derived=["region"])
    add_family("example3", ["beta1", "beta2", "beta3"], [
        ("--n", {"type": int, "default": 2, "help": "local dimension"}),
        ("--m", {"type": int, "default": 3, "help": "second local dimension"}),
    ])

    fig1 = sub.add_parser("fig1", help="concurrence/negativity scatter for random states")
    fig1.add_argument("--samples", type=int, default=1000)
    fig1.add_argument("--seed", type=int, default=0, help="random seed")
    fig1.add_argument("--out", help="output CSV path (default: stdout)")
    fig1.set_defaults(func=_cmd_fig1)

    gens = sub.add_parser("generators", help="dump the SU(N) generator basis as JSON")
    gens.add_argument("n", type=int)
    gens.add_argument("--out", help="output JSON path (default: stdout)")
    gens.set_defaults(func=_cmd_generators)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return EX_USAGE
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (QlossError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"qloss: internal numeric failure: {type(exc).__name__}: {exc}\n")
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
