"""Command-line frontend: simulate scenarios, compute reports, merge reports.

Exit codes: 0 success, 2 validation or schema error, 3 data-coverage error
(missing samples or a gap wider than max_gap).  Diagnostics go to stderr,
data to stdout or the requested output path.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io as _stdio
import itertools
import sys
from pathlib import Path

from .engine import analyze
from .errors import (
    AxpueError,
    CoverageGapError,
    InvalidWindowError,
    NoSamplesError,
)
from .integrate import DEFAULT_MAX_GAP
from .io import (
    REPORT_CSV_HEADER,
    _parse_file,
    _table_rows,
    format_appue,
    format_quantity,
    load_bundle,
    read_report,
    write_report,
)
from .model import _REPORTED_LABELS, _UNIT_OF_CODE, MetricsReport, _fsum, _power_weighted
from .simulate import builtin_scenario, scenario_from_manifest, simulate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COVERAGE = 3

BUILTIN_PREFIX = "paper:"


def _parse_window(text: str) -> tuple[float, float]:
    """Parse 'start,end'; :func:`~axpue.engine.analyze` checks their order."""
    try:
        start_text, end_text = text.split(",")
        return float(start_text), float(end_text)
    except ValueError:
        raise InvalidWindowError(
            f"window must be 'start,end' with numeric bounds, got {text!r}"
        ) from None


def _emit(data: bytes, out: str | None) -> None:
    """Write ``data``, UTF-8 text, to the file ``out``, or to stdout when
    ``out`` is None or ``-``: as bytes, whatever the encoding of stdout's
    text layer, which is flushed first; as text to a stream without bytes."""
    if out is None or out == "-":
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(data.decode("utf-8"))
        else:
            sys.stdout.flush()
            buffer.write(data)
    else:
        Path(out).write_bytes(data)


def cmd_compute(args: argparse.Namespace) -> int:
    window = _parse_window(args.window) if args.window else None
    bundle = load_bundle(args.power, args.runs, args.inventory)
    report = analyze(
        bundle.traces, bundle.inventory, bundle.runs, window=window, max_gap=args.max_gap
    )
    # The parsed inputs are freed before the report is serialized, so their
    # memory and the report's text are not held at once.
    del bundle
    _emit(write_report(report, fmt=args.format), args.out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.scenario.startswith(BUILTIN_PREFIX):
        scenario = builtin_scenario(
            args.scenario[len(BUILTIN_PREFIX):], data_gb=args.data_gb
        )
    else:
        scenario = scenario_from_manifest(Path(args.scenario).read_bytes())
    paths = simulate(scenario).write_to(args.out)
    print(
        f"wrote {', '.join(str(p) for p in paths.values())}",
        file=sys.stderr,
    )
    return EXIT_OK


def _merged_rows(reports: list[MetricsReport]) -> tuple[list[list[str]], list[list[str]]]:
    """Per-run table rows plus long-format (workload, metric, value) rows."""
    table: list[list[str]] = []
    series: list[list[str]] = []
    for report in reports:
        rows = report.per_run
        table.extend(_table_rows(rows, report.pue))
        for run_id, appue, aopue in zip(rows.run_ids, rows.appues, rows.aopues):
            series.append([run_id, "pue", repr(report.pue)])
            series.append([run_id, "appue", repr(appue)])
            series.append([run_id, "aopue", repr(aopue)])
    return table, series


def _aggregate_row(reports: list[MetricsReport]) -> list[str] | None:
    """Totals over every run, with ApPUE/AoPUE weighted by IT power share.

    The weights and the weighted values follow the rule for a report's own
    aggregate; with mixed performance units the two cells are left blank.
    """
    rows = [report.per_run for report in reports]
    if sum(map(len, rows)) < 2:
        return None

    def column(name: str) -> list:
        return list(itertools.chain.from_iterable(getattr(r, name) for r in rows))

    it_kws = column("it_power_kws")
    it_total = _fsum(it_kws, "IT powers")
    facility_total = _fsum(column("facility_power_kws"), "facility powers")
    out = [
        "(aggregate)",
        format_quantity(it_total),
        format_quantity(facility_total),
        "",
        format_quantity(facility_total / it_total),
        "",
        "",
    ]
    units = {_REPORTED_LABELS[_UNIT_OF_CODE[code]] for r in rows for code in set(r.categories)}
    if len(units) > 1:
        print(
            "warning: performance units differ across runs "
            f"({', '.join(sorted(units))}); aggregate ApPUE/AoPUE left blank",
            file=sys.stderr,
        )
        return out
    _, appue = _power_weighted(it_kws, column("appues"))
    # The reports' PUEs differ, so no one PUE divides the weighted ApPUE:
    # the rows' AoPUEs are averaged instead.
    _, aopue = _power_weighted(it_kws, column("aopues"))
    out[5] = format_appue(appue)
    out[6] = format_quantity(aopue)
    return out


def cmd_report(args: argparse.Namespace) -> int:
    reports = [_parse_file(lambda f: read_report(f.read()), path, "rb") for path in args.files]
    table, series = _merged_rows(reports)
    aggregate = _aggregate_row(reports)
    out = _stdio.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_CSV_HEADER)
    writer.writerows(table)
    if aggregate is not None:
        writer.writerow(aggregate)
    _emit(out.getvalue().encode("utf-8"), args.out)

    series_path = args.series
    if series_path is None and args.out not in (None, "-"):
        series_path = str(Path(args.out).with_suffix(".series.csv"))
    if series_path is not None:
        series_out = _stdio.StringIO()
        writer = csv.writer(series_out, lineterminator="\n")
        writer.writerow(["workload", "metric", "value"])
        writer.writerows(series)
        Path(series_path).write_bytes(series_out.getvalue().encode("utf-8"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axpue",
        description="Application-level power usage effectiveness metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="compute a metrics report from telemetry, runs, and inventory"
    )
    compute.add_argument("--power", required=True, help="power samples CSV")
    compute.add_argument("--runs", required=True, help="application runs JSONL")
    compute.add_argument("--inventory", required=True, help="device inventory JSON")
    compute.add_argument("--window", help="explicit report window 'start,end' (epoch s)")
    compute.add_argument(
        "--max-gap",
        type=float,
        default=DEFAULT_MAX_GAP,
        help="largest tolerated sample spacing in seconds, > 0; inf turns the "
        "coverage check off (default %(default)s)",
    )
    compute.add_argument("--format", choices=("json", "csv"), default="json")
    compute.add_argument("--out", help="output path (default stdout)")
    compute.set_defaults(func=cmd_compute)

    sim = sub.add_parser(
        "simulate", help="emit synthetic telemetry for a built-in or manifest scenario"
    )
    sim.add_argument(
        "scenario",
        help="'paper:<name>' (bigdatabench, svm, sort, grep, linpack, sort1, sort2) "
        "or a scenario manifest path",
    )
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument(
        "--data-gb", type=float, help="data size override for sort1/sort2"
    )
    sim.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("report", help="merge JSON reports into a results table")
    rep.add_argument("files", nargs="+", help="JSON report files")
    rep.add_argument("--out", help="merged CSV path (default stdout)")
    rep.add_argument(
        "--series",
        help="long-format series CSV path (default: derived from --out)",
    )
    rep.set_defaults(func=cmd_report)
    return parser


def _located(exc: AxpueError) -> str:
    """The message, after ``PATH:LINE:`` or ``PATH:`` when the error names its file."""
    if exc.path is None:
        return str(exc)
    where = exc.path if exc.line is None else f"{exc.path}:{exc.line}"
    return f"{where}: {exc}"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CoverageGapError, NoSamplesError) as exc:
        print(f"error: {_located(exc)}", file=sys.stderr)
        return EXIT_COVERAGE
    except AxpueError as exc:
        print(f"error: {_located(exc)}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def console_main() -> int:
    """The ``axpue`` command: :func:`main` on ``sys.argv``, then the heap
    frozen, so that the interpreter's exit skips its final garbage
    collection, which would only walk objects about to be freed.
    :func:`main` leaves the collector alone, for callers that go on running."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    raise SystemExit(console_main())
