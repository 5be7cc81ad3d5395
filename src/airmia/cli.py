"""Command-line frontend.

Subcommands: gen (datasets only), train (classifiers), attack (inference
model + evaluation), run (one scenario end to end), run-all (all scenarios
across seeds plus the ordering summary), report (pretty-print a stored
report). Exit codes: 0 success, 2 configuration or usage error, 1 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import harness, mia, scenarios
from .errors import ArtifactError, InvalidConfigError, InvalidInputError, PipelineStageError
from .scenarios import Scenario
from .tinynn import read_json

OUT_DIR_ENV = "AIRMIA_OUT"


def _resolve(args, *, need_cell: bool):
    """Merge config file, environment, and flags into (config, out_dir, seeds)."""
    doc = read_json(args.config, "config") if args.config else {}
    if not isinstance(doc, dict):
        raise InvalidConfigError(f"{args.config}: config must be a JSON object")
    config_out = doc.pop("out_dir", None)
    if config_out is not None and not isinstance(config_out, str):
        raise InvalidConfigError(f"out_dir must be a path string, got {config_out!r}")
    out_dir = args.out or config_out or os.environ.get(OUT_DIR_ENV) or "out"
    seeds = doc.pop("seeds", None)
    if getattr(args, "seeds", None):
        seeds = args.seeds
    if args.scenario:
        doc["scenario"] = args.scenario
    if args.seed is not None:
        doc["seed"] = args.seed
    if need_cell and "scenario" not in doc:
        raise InvalidConfigError("no scenario given (use --scenario or a config file)")
    if need_cell and "seed" not in doc:
        raise InvalidConfigError("no seed given (use --seed or a config file)")
    doc.setdefault("scenario", Scenario.FULL_STRONG.value)
    doc.setdefault("seed", 0)
    config = scenarios.config_from_document(doc)
    return config, Path(out_dir), seeds


def _parse_seeds(seeds) -> list[int]:
    """Seeds from --seeds or a config document: a list or comma-separated string of integers."""
    if seeds is None:
        raise InvalidConfigError("no seeds given (use --seeds or a config file)")
    if isinstance(seeds, str):
        seeds = seeds.replace(",", " ").split()
    if not isinstance(seeds, list):
        raise InvalidConfigError(
            f"seeds must be a list or a comma-separated string, got {seeds!r}")
    try:
        seeds = [int(s) if isinstance(s, str) else s for s in seeds]
    except ValueError as exc:
        raise InvalidConfigError(f"seeds must be integers: {exc}") from exc
    if any(isinstance(s, bool) or not isinstance(s, int) for s in seeds):
        raise InvalidConfigError(f"seeds must be integers, got {seeds!r}")
    return seeds


def format_confusion(confusion: mia.ConfusionMatrix) -> str:
    corner = "Real \\ Predicted"
    rows = [f"{corner:<18}{'non-member':>12}{'member':>10}"]
    for name, row in zip(("non-member", "member"), confusion.rates):
        rows.append(f"{name:<18}{row[0]:>12.4f}{row[1]:>10.4f}")
    rows.append(f"MIA accuracy: {confusion.accuracy:.4f}")
    return "\n".join(rows)


def _print_report_summary(report: harness.ScenarioReport) -> None:
    cfg = report.config
    print(f"scenario={cfg.scenario.value} seed={cfg.seed}")
    print(f"  target accuracy:    train {report.target_report.train_accuracy:.4f}  "
          f"test {report.target_report.test_accuracy:.4f}")
    print(f"  surrogate accuracy: train {report.surrogate_report.train_accuracy:.4f}  "
          f"test {report.surrogate_report.test_accuracy:.4f}")
    print(f"  paired agreement:   {report.evaluation.paired_agreement:.4f}")
    print(format_confusion(report.evaluation.confusion))


def _cmd_gen(args) -> int:
    config, out_dir, _ = _resolve(args, need_cell=True)
    cell = harness.cell_dir(out_dir, config)
    bundle = harness.run_stage("generate", lambda: scenarios.generate_scenario_data(config))
    harness.save_datasets(bundle, cell)
    print(f"wrote datasets for {config.scenario.value} seed {config.seed} "
          f"to {cell / 'datasets'}")
    return 0


def _load_cell(args):
    """(cell, bundle) of the resolved cell; its config.json must equal the resolved config."""
    config, out_dir, _ = _resolve(args, need_cell=True)
    cell = harness.cell_dir(out_dir, config)
    bundle = harness.load_datasets(cell)
    resolved, stored = (scenarios.config_to_document(c) for c in (config, bundle.config))
    differ = [key for key in resolved if resolved[key] != stored[key]]
    if differ:
        raise InvalidConfigError(f"config differs from {cell / 'config.json'} in "
                                 f"{', '.join(differ)}")
    return cell, bundle


def _cmd_train(args) -> int:
    cell, bundle = _load_cell(args)
    classifiers = harness.train_classifiers(
        bundle, harness.PipelineHyper.for_config(bundle.config))
    harness.save_classifiers(cell, classifiers)
    print(f"target test accuracy    {classifiers.target_report.test_accuracy:.4f}")
    print(f"surrogate test accuracy {classifiers.surrogate_report.test_accuracy:.4f}")
    return 0


def _cmd_attack(args) -> int:
    cell, bundle = _load_cell(args)
    model, report = harness.attack(bundle, harness.PipelineHyper.for_config(bundle.config),
                                   harness.load_classifiers(cell))
    harness.save_attack(cell, model, report)
    _print_report_summary(report)
    return 0


def _cmd_run(args) -> int:
    config, out_dir, _ = _resolve(args, need_cell=True)
    report = harness.run_scenario(config, out_dir=out_dir)
    _print_report_summary(report)
    print(f"report written to {harness.cell_dir(out_dir, config) / 'report.json'}")
    return 0


def _cmd_run_all(args) -> int:
    config, out_dir, seeds = _resolve(args, need_cell=False)
    seeds = _parse_seeds(seeds)
    started = time.perf_counter()
    reports, summary = harness.run_all(seeds, base_config=config, out_dir=out_dir)
    for report in reports:
        print(f"{report.config.scenario.value:<16} seed {report.config.seed:>3}  "
              f"MIA accuracy {report.mia_accuracy:.4f}")
    print("\nmedian MIA accuracy over seeds", summary["seeds"])
    for name, value in summary["median_accuracy"].items():
        print(f"  {name:<16} {value:.4f}")
    print("ordering checks:")
    for name, ok in summary["orderings"].items():
        print(f"  {name:<28} {'ok' if ok else 'VIOLATED'}")
    print(f"total wall time {time.perf_counter() - started:.1f} s")
    return 0


def _cmd_report(args) -> int:
    report = harness.load_report_file(args.path)
    if args.json:
        print(json.dumps(report.to_document(), sort_keys=True, indent=2))
    else:
        _print_report_summary(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airmia",
        description="Signal authentication simulator with an over-the-air "
                    "membership inference attack pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help_text, seeds_flag=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--scenario", choices=[s.value for s in Scenario])
        p.add_argument("--seed", type=int)
        if seeds_flag:
            p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or ./out)")

    add_command("gen", _cmd_gen, "generate and persist the datasets")
    add_command("train", _cmd_train, "train target and surrogate classifiers")
    add_command("attack", _cmd_attack, "train and evaluate the inference model")
    add_command("run", _cmd_run, "run one scenario end to end")
    add_command("run-all", _cmd_run_all, "run every scenario for each seed", seeds_flag=True)
    rep = sub.add_parser("report", help="pretty-print a stored report")
    rep.set_defaults(handler=_cmd_report)
    rep.add_argument("path", help="path to a report.json")
    rep.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InvalidConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArtifactError, PipelineStageError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
