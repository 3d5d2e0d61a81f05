"""Command-line entry points.

Subcommands: ``run`` (one experiment), ``sweep`` (one layout parameter over
several values), ``oracle`` (exhaustive search), ``stats`` (rank and paired
tests over collected results), and ``fetch-data`` (benchmark downloads).
Exit codes: 0 on success, 1 for configuration or data problems, 2 for
anything unexpected at runtime.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .core import mask_to_string
from .data import DataError, _field_types, _fits, fetch_dataset, load_descriptors
from .fitness import CLASSIFIER_KINDS, FitnessProtocol
from .harness import (
    SWEEPABLE,
    ConfigError,
    RunConfig,
    RunReport,
    check_out_dir,
    friedman_test,
    paired_t_test,
    resolve_dataset,
    run_experiment,
    sweep,
)
from .oracle import MAX_ORACLE_FEATURES, exhaustive_best_subset

USAGE_EXIT = 1
RUNTIME_EXIT = 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as err:
        # ConfigError, DataError and json.JSONDecodeError are ValueErrors.
        print(f"error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return RUNTIME_EXIT
    except Exception as err:  # noqa: BLE001 - boundary of the program
        print(f"unexpected failure: {err}", file=sys.stderr)
        return RUNTIME_EXIT


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)  # a flag value it refuses is a configuration problem


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tribefs",
        description="Tribe-based genetic feature selection",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one experiment")
    _add_experiment_arguments(run)
    run.add_argument("--out", help="directory for report.json and CSV tables")
    run.set_defaults(handler=_cmd_run)

    sweep_cmd = commands.add_parser("sweep", help="vary one parameter")
    _add_experiment_arguments(sweep_cmd)
    sweep_cmd.add_argument("--param", required=True, choices=SWEEPABLE)
    sweep_cmd.add_argument(
        "--values", required=True, help="comma-separated integers, e.g. 1,2,4"
    )
    sweep_cmd.add_argument("--out", help="directory for sweep.csv and sub-reports")
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    oracle = commands.add_parser("oracle", help="exhaustive subset search")
    protocol_fields = [field.name for field in dataclasses.fields(FitnessProtocol)]
    _add_experiment_arguments(oracle, ["dataset", "data_dir", *protocol_fields])
    oracle.add_argument(
        "--max-features",
        type=int,
        default=MAX_ORACLE_FEATURES,
        help="refuse exhaustive search beyond this many features "
        "(default: %(default)s)",
    )
    oracle.add_argument("--out", help="file for the oracle result JSON")
    oracle.set_defaults(handler=_cmd_oracle)

    stats = commands.add_parser("stats", help="statistics over collected results")
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)

    friedman = stats_sub.add_parser(
        "friedman", help="Friedman rank test over a methods-by-datasets matrix"
    )
    friedman.add_argument("matrix", help="CSV: method name, then one column per dataset")
    friedman.set_defaults(handler=_cmd_friedman)

    ttest = stats_sub.add_parser(
        "ttest", help="paired t-test between two rows of a matrix"
    )
    ttest.add_argument("matrix")
    ttest.add_argument("--method-a", required=True)
    ttest.add_argument("--method-b", required=True)
    ttest.set_defaults(handler=_cmd_ttest)

    collect = stats_sub.add_parser(
        "collect", help="append one matrix row from report.json files"
    )
    collect.add_argument("reports", nargs="+", help="report.json files, one per dataset")
    collect.add_argument("--method", required=True, help="row name for these reports")
    collect.add_argument("--out", required=True, help="matrix CSV to create or extend")
    collect.set_defaults(handler=_cmd_collect)

    fetch = commands.add_parser("fetch-data", help="download benchmark datasets")
    group = fetch.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", action="append", help="descriptor name (repeatable)")
    group.add_argument("--all", action="store_true", help="fetch every descriptor")
    fetch.add_argument("--data-dir", default=RunConfig.data_dir)
    fetch.add_argument(
        "--descriptors",
        help="alternative descriptor JSON file, used only to fetch and verify: "
        "run resolves names against the bundled table alone, so run a file "
        "fetched this way by its path",
    )
    fetch.add_argument("--force", action="store_true", help="re-download existing files")
    fetch.set_defaults(handler=_cmd_fetch)

    return parser


# A flag's settings are those of the first of these values its field fits
# (``sigma`` fits 0.5, so it parses a float); ``means`` and the rest take text.
_FLAG_KINDS = (
    (True, {"action": "store_const", "const": True}),
    (0.5, {"type": float}),
    (0, {"type": int}),
)
# What a flag needs beyond its field's name and annotation.
_FLAG_OPTIONS = {
    "dataset": {"help": "descriptor name or CSV path"},
    "means": {"help": "comma-separated tribe means, e.g. 2,5,8"},
    "allow_infeasible": {"help": "run a tribe layout that fails its feasibility check"},
    "classifier": {"choices": CLASSIFIER_KINDS},
    "stake": {"help": "individuals a contest moves from loser to winner"},
}
_FLAG_ALIASES = {"max_generations": ("--generations",)}


def _add_experiment_arguments(
    parser: argparse.ArgumentParser, names: list[str] | None = None
) -> None:
    """``--config`` and a flag for each RunConfig field, or each one in ``names``.

    A flag's dest is its field's name and it is None when not given.
    """
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    for name, hint in _field_types(RunConfig).items():
        if names is None or name in names:
            parser.add_argument(
                "--" + name.replace("_", "-"),
                *_FLAG_ALIASES.get(name, ()),
                dest=name,
                **next((kind for value, kind in _FLAG_KINDS if _fits(value, hint)), {}),
                **_FLAG_OPTIONS.get(name, {}),
            )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file's RunConfig, if any, overridden by the flags given."""
    merged: dict = {}
    if args.config:
        merged = json.loads(Path(args.config).read_text())
        if not isinstance(merged, dict):
            raise ConfigError(f"{args.config}: expected a JSON object of config keys")
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is None:
            continue
        if field.name == "means":
            value = _parse_int_list(value, "--means")
        merged[field.name] = value
    return RunConfig.from_dict(merged)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as err:
        raise ConfigError(f"{flag} expects comma-separated integers: {text!r}") from err


def _check_out(out: str | None, files=RunReport.FILES, reports=()) -> None:
    """Refuse, before any search, an ``--out`` directory that could not be written.

    ``files`` go in ``out`` itself and each of ``reports`` is a report
    directory under it.
    """
    if out is None:
        return
    try:
        check_out_dir(out, files)
        for name in reports:
            check_out_dir(Path(out) / name)
    except ConfigError as err:
        raise ConfigError(f"--out {out}: {err}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _check_out(args.out)
    report = run_experiment(config)
    print(
        f"{report.dataset_name}: "
        f"accuracy {report.accuracy_mean:.2f} +/- {report.accuracy_std:.2f} "
        f"({len(report.results)} run(s)), {report.mean_selected:.1f} features"
    )
    for result in report.results:
        print(
            f"  run {result.run}: {result.best_accuracy:.2f}% "
            f"with {result.best_count} features ({result.best_mask}) "
            f"in {result.generations} generations"
        )
    if args.out:
        out = Path(args.out)
        report.save(out)
        print(f"report written to {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    values = _parse_int_list(args.values, "--values")
    if not values:
        raise ConfigError("--values is empty")
    sub_reports = [f"{args.param}-{value}" for value in values]
    _check_out(args.out, files=["sweep.csv"], reports=sub_reports)
    points = sweep(config, args.param, values)
    rows = [
        (value, report.accuracy_mean, report.accuracy_std, report.mean_selected)
        for value, report in points
    ]
    print(f"{args.param}: " + ", ".join(f"{v}={a:.2f}" for v, a, _, _ in rows))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        header = [args.param, "accuracy_mean", "accuracy_std", "mean_selected"]
        with open(out / "sweep.csv", "w", newline="") as handle:
            csv.writer(handle).writerows([header, *(
                [v, f"{mean:.6f}", f"{std:.6f}", f"{selected:.3f}"]
                for v, mean, std, selected in rows
            )])
        for value, report in points:
            report.save(out / f"{args.param}-{value}")
        print(f"sweep written to {out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ConfigError(f"--out {args.out} must name a file in an existing directory")
    dataset = resolve_dataset(config)
    result = exhaustive_best_subset(
        dataset, config.protocol(), max_features=args.max_features
    )
    mask_text = mask_to_string(result.best_mask)
    print(
        f"{dataset.name}: best {result.best_accuracy:.4f}% with "
        f"{int(result.best_mask.sum())} features ({mask_text}); "
        f"{result.evaluations} subsets in {result.wall_time:.1f}s"
    )
    if args.out:
        payload = {
            "dataset": dataset.name,
            "best_mask": mask_text,
            "best_accuracy": result.best_accuracy,
            "evaluations": result.evaluations,
            "wall_time": result.wall_time,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _read_matrix(path) -> tuple[list[str], list[str], np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2 or len(rows[0]) < 2:
        raise DataError(f"{path}: expected a header and at least one method row")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise DataError(
                f"{path}: ragged matrix: line {line} has {len(row)} cells, "
                f"the header {len(rows[0])}"
            )
    datasets = rows[0][1:]
    methods = [row[0] for row in rows[1:]]
    for kind, names in (("dataset", datasets), ("method", methods)):
        if repeated := next((n for i, n in enumerate(names) if n in names[:i]), None):
            raise DataError(f"{path}: {kind} {repeated!r} appears twice")
    try:
        values = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
    except ValueError as err:
        raise DataError(f"{path}: non-numeric accuracy cell ({err})") from err
    return methods, datasets, values


def _cmd_friedman(args: argparse.Namespace) -> int:
    methods, datasets, values = _read_matrix(args.matrix)
    result = friedman_test(values)
    print(
        f"Friedman over {result.n_methods} methods x {result.n_datasets} datasets: "
        f"chi2 = {result.statistic:.4f}, p = {result.p_value:.6g}"
    )
    for method, rank in zip(methods, result.average_ranks):
        print(f"  {method}: average rank {rank:.3f}")
    return 0


def _cmd_ttest(args: argparse.Namespace) -> int:
    methods, _, values = _read_matrix(args.matrix)
    try:
        row_a = methods.index(args.method_a)
        row_b = methods.index(args.method_b)
    except ValueError as err:
        raise DataError(f"method not in matrix: {err}") from err
    result = paired_t_test(values[row_a], values[row_b])
    print(
        f"paired t-test {args.method_a} vs {args.method_b}: "
        f"t = {result.statistic:.4f}, p = {result.p_value:.6g}, "
        f"mean difference = {result.mean_difference:.4f} over {result.n} datasets"
    )
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    names, accuracies = [], []
    for path in args.reports:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            payload = {}
        name, accuracy = payload.get("dataset_name"), payload.get("accuracy_mean")
        # A percent: JSON's NaN and Infinity, a bool or a string are none.
        if not (_fits(name, str) and _fits(accuracy, float) and 0 <= accuracy <= 100):
            raise DataError(
                f"{path}: not a report.json: it needs a string 'dataset_name' "
                f"and an 'accuracy_mean' from 0 to 100"
            )
        if name in names:
            first = args.reports[names.index(name)]
            raise DataError(f"{path}: dataset {name!r} is already given by {first}")
        names.append(name)
        accuracies.append(float(accuracy))
    out = Path(args.out)
    rows = [["method", *names]]  # a new or empty file starts a new matrix
    if out.exists() and out.stat().st_size:
        methods, datasets, _ = _read_matrix(out)  # a corrupt matrix is left as it is
        if datasets != names:
            raise DataError(
                f"{out}: existing matrix covers datasets {datasets}, "
                f"these reports cover {names}"
            )
        if args.method in methods:
            raise DataError(f"{out}: method {args.method!r} is already a row")
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
    rows.append([args.method, *[f"{a:.6f}" for a in accuracies]])
    with open(out, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    print(f"added row {args.method!r} ({len(names)} datasets) to {out}")
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    descriptors = load_descriptors(args.descriptors)
    names = sorted(descriptors) if args.all else args.name
    for name in names:
        path = fetch_dataset(name, args.data_dir, descriptors, force=args.force)
        print(f"{name}: ready at {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
