"""Command-line interface.

Subcommands: tune (run a graded or discriminating campaign), combine
(sample graded archives into one benchmark set), evaluate (run solvers on
a combined set and rank them), report (export campaign tables), check
(re-verify archived solutions).

Each subcommand usually runs in a process of its own, where importing
every layer costs more than the work of ``report`` or ``check``. So each
``cmd_*`` imports only the layer it runs: ``report``, ``combine`` and
``check`` read archives without loading the generator stack. The back ends ``run_campaign``, ``write_reports``,
``build_combined_set`` and ``evaluate_combined`` resolve as attributes of
this module on first access, and the commands call them through the
module, so a wrapper set on ``benchgen.cli`` sees every call.
"""

from __future__ import annotations

import argparse
import configparser
import importlib
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ArchiveError, BenchgenError, ValidationError
from .problems import get_problem

if TYPE_CHECKING:
    from .runner import SolverAdapter

# Back-end name -> the module that defines it.
_BACK_ENDS = {
    "run_campaign": "campaign",
    "write_reports": "report",
    "build_combined_set": "report",
    "evaluate_combined": "report",
}


def __getattr__(name: str):
    module = _BACK_ENDS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]  # the commands call their back ends through this


def parse_mem_limit(text: str) -> int | None:
    text = text.strip()
    if not text or text.lower() == "none":
        return None
    multipliers = {"k": 1024, "m": 1024**2, "g": 1024**3}
    try:
        if text[-1].lower() in multipliers:
            limit = int(float(text[:-1]) * multipliers[text[-1].lower()])
        else:
            limit = int(text)
    except (ValueError, OverflowError):
        limit = 0  # malformed: rejected below with the non-positive ones
    if limit <= 0:
        raise ValidationError(f"bad memory limit {text!r}; use e.g. 8G, 512M or none")
    return limit


# The keys read from each section of a campaign file ([solver.*] as "solver"). Any
# other is refused: a misspelled key would leave its setting at the default.
_KEYS = {
    "generator": ("model",),
    "campaign": ("kind", "problem", "solver", "oracle", "oracle_budget", "favoured", "base", "t_min",
                 "t_max", "types", "budget", "seed", "workers", "translate_limit", "solve_limit", "mem_limit"),
    "solver": ("kind", "builtin", "command"),
}


def _read_config(path: str | Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keep parameter-name case
    try:
        read = parser.read(path)
        for section in parser.sections():
            parser.items(section)  # interpolates every value, so a bad one fails here
    except (configparser.Error, UnicodeDecodeError) as err:
        reason = " ".join(str(err).split())
        raise ValidationError(f"cannot parse config file {path}: {reason}") from None
    if not read:
        raise ValidationError(f"cannot read config file {path}")
    for section in parser.sections():
        keys = _KEYS.get(section.split(".")[0])
        unknown = [key for key in parser[section] if keys is not None and key not in keys]
        if unknown:
            raise ValidationError(f"[{section}] has no key {unknown[0]!r}; it reads {', '.join(keys)}")
    return parser


def load_adapters(config: configparser.ConfigParser) -> dict[str, SolverAdapter]:
    from .runner import SolverAdapter

    adapters: dict[str, SolverAdapter] = {}
    for section in config.sections():
        if section.startswith("solver."):  # its keys are the adapter's fields (see _KEYS)
            name = section[len("solver."):]
            adapters[name] = SolverAdapter(name=name, **config[section])
    return adapters


def _adapter(adapters: dict[str, SolverAdapter], name: str) -> SolverAdapter:
    from .runner import SolverAdapter

    if name in adapters:
        return adapters[name]
    # Bare builtin ids are accepted without a [solver.*] section.
    return SolverAdapter(name=name, builtin=name)


def _types(text: str) -> frozenset[str]:
    types = frozenset(t.strip().upper() for t in text.split(",") if t.strip())
    bad = types - {"SAT", "UNSAT"}
    if bad:
        raise ValidationError(f"unknown instance types: {sorted(bad)}")
    return types


def cmd_tune(args: argparse.Namespace) -> int:
    from .evaluate import DiscriminatingPolicy, GradedPolicy
    from .runner import EvaluationLimits
    from .tuner import TunerConfig

    config = _read_config(args.config)
    if not config.has_section("space"):
        raise ValidationError("config needs a [space] section")
    space_text = "\n".join(f"{k}: {v}" for k, v in config.items("space"))
    model_rel = config.get("generator", "model", fallback=None)
    if model_rel is None:
        raise ValidationError("config needs [generator] model = <path>")
    model_path = Path(args.config).parent / model_rel
    try:
        model_text = model_path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read generator model {model_path}: {exc.strerror}") from None
    adapters = load_adapters(config)

    # Defaults that no record holds, then the [campaign] keys, then the tune flags (dest = key).
    settings = {
        "kind": "graded", "problem": "knapsack", "t_min": 10.0, "t_max": 1200.0,
        **(config["campaign"] if config.has_section("campaign") else {}),
        **{key: value for key, value in vars(args).items() if key in _KEYS["campaign"] and value is not None},
    }
    if args.favoured or args.base:
        settings["kind"] = "discriminating"

    def read(kind, key):
        try:
            return kind(settings[key])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValidationError(f"[campaign] {key} must be {what}, got {settings[key][:40]!r}") from None

    def given(kind, **fields: str) -> dict:
        """The fields whose key is set, read as ``kind``; the rest keep their record's default."""
        return {field: read(kind, key) for field, key in fields.items() if key in settings}

    kind = settings["kind"]
    common = {
        "problem": get_problem(settings["problem"]),
        **given(float, t_min="t_min", t_max="t_max"),
        **given(_types, types="types"),
    }
    if kind == "graded":
        if "solver" not in settings:
            raise ValidationError("graded campaign needs a solver (config or --solver)")
        oracle = settings.get("oracle")
        policy: GradedPolicy | DiscriminatingPolicy = GradedPolicy(
            solver=_adapter(adapters, settings["solver"]),
            oracle=_adapter(adapters, oracle) if oracle else None,
            **common,
            **given(float, oracle_budget="oracle_budget"),
        )
    elif kind == "discriminating":
        if args.solver is not None:  # the flag only: a file's solver key may serve its graded runs
            raise ValidationError("--solver applies to a graded campaign; this one is discriminating")
        if "favoured" not in settings or "base" not in settings:
            raise ValidationError("discriminating campaign needs favoured and base solvers")
        policy = DiscriminatingPolicy(
            favoured=_adapter(adapters, settings["favoured"]),
            base=_adapter(adapters, settings["base"]),
            **common,
        )
    else:
        raise ValidationError(f"unknown campaign kind {kind[:40]!r}")

    tuner_config = TunerConfig(**given(int, total_budget="budget", seed="seed", workers="workers"))
    if all(s.command is not None for s in policy.solvers):  # only then do runs overlap
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        if tuner_config.workers > cpus:
            raise ValidationError(
                f"workers {tuner_config.workers} exceeds the {cpus} CPU(s) this process may use:"
                " external runs that share a CPU record longer times"
            )
    result = _cli.run_campaign(
        args.out,
        space_text,
        model_text,
        policy,
        tuner_config,
        EvaluationLimits(
            **given(float, translate_limit="translate_limit", solve_limit="solve_limit"),
            **given(parse_mem_limit, mem_limit="mem_limit"),
        ),
        resume=args.resume,
    )
    report = result.report
    print(f"campaign: {kind} | evaluations: {report.evaluations_used} | iterations: {report.iterations}")
    for status, count in sorted(report.status_counts.items()):
        print(f"  {status}: {count}")
    if report.elites:
        best = report.elites[0]
        print(f"best configuration: {best.id} {dict(best.assignment)}")
    print(f"archive: {result.archive.root}")
    return 0


def cmd_combine(args: argparse.Namespace) -> int:
    from .archive import CampaignArchive

    archives = [CampaignArchive.open(p) for p in args.archives]
    combined = _cli.build_combined_set(archives, args.k, args.seed)
    combined.save(args.out)
    for label, ids in combined.selections.items():
        print(f"{label}: {len(ids)} instances")
    print(f"combined set written to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .archive import CampaignArchive
    from .report import CombinedSet
    from .runner import EvaluationLimits

    combined = CombinedSet.load(args.combined)
    if not combined.sources:
        raise ValidationError(f"combined set {args.combined} names no source archive")
    adapters: dict[str, SolverAdapter] = {}
    if args.config:
        adapters = load_adapters(_read_config(args.config))
    solvers = [_adapter(adapters, name.strip()) for name in args.solvers.split(",")]
    problem_name = args.problem
    if problem_name is None:
        problems = {CampaignArchive.open(p).settings.problem for p in combined.sources.values()}
        if len(problems) > 1:
            raise ArchiveError(
                f"combined set {args.combined} mixes the problems {', '.join(sorted(problems))}"
                "; name one with --problem"
            )
        (problem_name,) = problems
    problem = get_problem(problem_name)
    result = _cli.evaluate_combined(
        combined,
        solvers,
        problem,
        t_max=args.t_max,
        limits=EvaluationLimits(
            **({} if args.mem_limit is None else {"mem_limit": parse_mem_limit(args.mem_limit)})
        ),
        seed=args.seed,
        out_dir=args.out,
    )
    print("Borda ranking (complete scoring):")
    flagged = result.flagged  # counted from the records on each access
    for name, total in result.ranking():
        flags = flagged.get(name, 0)
        note = f"  [flagged answers: {flags}]" if flags else ""
        print(f"  {name}: {total:.3f}{note}")
    if args.out:
        print(f"records and score tables written to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import statistics

    from .archive import CampaignArchive

    written = _cli.write_reports(CampaignArchive.open(args.archive))
    tables = {path.name: rows for path, rows in written.items()}
    statuses = tables["status_frequencies.csv"]
    print(f"evaluations: {sum(count for _, count, _ in statuses)}")
    for status, count, fraction in statuses:
        print(f"  {status}: {count} ({fraction:.1%})")
    if "discrimination.csv" in tables:
        scores = sorted(score for _, score, _ in tables["discrimination.csv"])
        print(f"discriminating instances: {len(scores)}")
        if scores:
            print(
                "favoured-score distribution: "
                f"min {scores[0]:.3f}, median {statistics.median(scores):.3f}, max {scores[-1]:.3f}"
            )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .archive import CampaignArchive
    from .runner import verify_record

    archive = CampaignArchive.open(args.archive)
    problem = get_problem(archive.settings.problem)
    checked = 0
    failures = 0
    for entry in archive.evaluations():
        values = None
        for name, record in entry.records.items():
            if record.solution is None or entry.instance_id is None:
                continue
            if values is None:
                values = archive.instance_values(entry.instance_id)
            record = verify_record(problem, values, record)
            checked += 1
            if not record.solution_ok:
                failures += 1
                print(f"{entry.instance_id} {name}: FAILED re-verification ({record.note})")
    print(f"re-checked {checked} archived solutions, {failures} failures")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchgen",
        description="Generate graded or discriminating benchmark instances by tuning an instance generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="run a tuning campaign")
    tune.add_argument("config", help="campaign config file (INI)")
    tune.add_argument("--out", required=True, help="campaign archive directory")
    tune.add_argument("--budget", type=int, default=None)
    tune.add_argument("--t-min", dest="t_min", type=float, default=None)
    tune.add_argument("--t-max", dest="t_max", type=float, default=None)
    tune.add_argument("--types", default=None, help="sat,unsat subset")
    tune.add_argument("--solver", default=None, help="graded campaign solver name")
    tune.add_argument("--favoured", default=None)
    tune.add_argument("--base", default=None)
    tune.add_argument("--seed", type=int, default=None)
    tune.add_argument(
        "--workers", type=int, default=None, help="parallel runs when all solvers are external"
    )
    tune.add_argument("--mem-limit", dest="mem_limit", default=None, help="e.g. 8G")
    tune.add_argument("--resume", action="store_true", help="resume from an existing archive")
    tune.set_defaults(func=cmd_tune)

    combine = sub.add_parser("combine", help="sample graded archives into one set")
    combine.add_argument("archives", nargs="+")
    combine.add_argument("--k", type=int, default=50)
    combine.add_argument("--seed", type=int, default=0)
    combine.add_argument("--out", required=True, help="combined-set JSON path")
    combine.set_defaults(func=cmd_combine)

    evaluate = sub.add_parser("evaluate", help="run solvers on a combined set")
    evaluate.add_argument("combined", help="combined-set JSON path")
    evaluate.add_argument("--solvers", required=True, help="comma-separated solver names")
    evaluate.add_argument("--config", default=None, help="config file defining [solver.*] sections")
    evaluate.add_argument("--problem", default=None)
    evaluate.add_argument("--t-max", dest="t_max", type=float, default=1200.0)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--mem-limit", dest="mem_limit", default=None, help="e.g. 8G")
    evaluate.add_argument("--out", default=None, help="directory for records and score tables")
    evaluate.set_defaults(func=cmd_evaluate)

    report = sub.add_parser("report", help="export campaign tables")
    report.add_argument("archive")
    report.set_defaults(func=cmd_report)

    check = sub.add_parser("check", help="re-verify archived solutions")
    check.add_argument("archive")
    check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BenchgenError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
