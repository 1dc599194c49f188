"""Post-campaign analysis and plot-ready exports.

Everything here is a pure function of archives (plus a seed): the report
tables of a campaign (status frequencies, solving times of graded
instances, discriminating instances), combined-set construction and
cross-solver Borda evaluation. Each table is a list of rows. One
``write_table`` writes every CSV export, and one ``read_table`` reads any
of them back, parsing each cell by its column; the Borda table is JSON.
Rendering is left to downstream tooling.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from collections import Counter
from pathlib import Path
from random import Random
from typing import Any, Iterable, Sequence

from .archive import CampaignArchive, graded_instance_ids, make_dir, read_file, write_file
from .errors import ArchiveError, ValidationError
from .problems import Problem
from .records import Record, from_jsonable, replace, to_jsonable
from .runner import (
    EvaluationLimits,
    RunStatus,
    SolverAdapter,
    SolverRecord,
    derive_seed,
    run_solver,
    verify_record,
)
from .scoring import BordaTable, borda_complete, comparable_from_record, pair_rows


class EmptyArchive(Warning):
    """A graded campaign contributed zero instances to a combined set."""


class CombinedSet(Record):
    seed: int
    k: int
    sources: dict[str, str]  # source label -> archive path
    selections: dict[str, list[str]]  # source label -> instance ids

    def __post_init__(self) -> None:
        unsourced = [label for label in self.selections if label not in self.sources]
        if unsourced:
            raise ValidationError(f"selection {unsourced[0]!r} has no source")

    def all_instance_ids(self) -> list[str]:
        return list(dict.fromkeys(iid for ids in self.selections.values() for iid in ids))

    def save(self, path: str | Path) -> None:
        write_file(path, json.dumps(to_jsonable(self), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "CombinedSet":
        try:
            return from_jsonable(cls, json.loads(read_file(path)))
        except ValueError as exc:
            raise ArchiveError(f"combined set {path} is not JSON: {exc}") from exc
        except ValidationError as why:
            raise ArchiveError(f"{path} is not a combined set: {why}") from None


def build_combined_set(
    archives: Sequence[CampaignArchive], k: int, seed: int
) -> CombinedSet:
    """Uniformly sample up to k graded instances from each source campaign.

    Selection is without replacement over the sorted graded ids of each
    archive, driven by one seeded Mersenne Twister, so the result is
    stable across platforms. A campaign with zero graded instances
    contributes nothing and triggers an EmptyArchive warning. Every source
    must be a campaign on the same problem.
    """
    if k < 0:
        raise ValidationError(f"k must be non-negative, got {k}")
    rng = Random(seed)
    selections: dict[str, list[str]] = {}
    sources: dict[str, str] = {}
    problems: dict[str, Path] = {}  # problem -> the first archive of it
    for archive in archives:
        settings = archive.settings
        if settings.campaign != "graded":
            raise ArchiveError(f"{archive.root} is not a graded campaign archive")
        problems.setdefault(settings.problem, archive.root)
        if len(problems) > 1:
            (one, root), (other, _) = problems.items()
            raise ArchiveError(
                f"cannot combine {root} ({one}) with {archive.root} ({other}): "
                "a combined set holds instances of one problem"
            )
        label = settings.solver.name
        suffix = 2
        base_label = label
        while label in selections:
            label = f"{base_label}#{suffix}"
            suffix += 1
        ids = sorted(set(graded_instance_ids(archive)))
        if not ids:
            warnings.warn(
                f"campaign {archive.root} has no graded instances", EmptyArchive
            )
            chosen: list[str] = []
        elif len(ids) <= k:
            chosen = list(ids)
        else:
            chosen = sorted(rng.sample(ids, k))
        selections[label] = chosen
        sources[label] = str(archive.root)
    return CombinedSet(selections=selections, sources=sources, seed=seed, k=k)


class CombinedEvaluation(Record):
    """The verified record of each (solver, instance) and their Borda table.

    ``answered`` and ``flagged`` are counted from ``records`` in the table's
    solver order: every output of an evaluation follows from its records.
    """

    borda: BordaTable
    records: dict[tuple[str, str], SolverRecord]

    @property
    def answered(self) -> dict[str, int]:  # solver -> count of records carrying a payload
        counts = Counter(name for (name, _), record in self.records.items() if record.solution is not None)
        return {solver: counts[solver] for solver in self.borda.solvers}

    @property
    def flagged(self) -> dict[str, int]:  # solver -> count of answers failing verification
        counts = Counter(name for (name, _), record in self.records.items() if record.solution_ok is False)
        return {solver: counts[solver] for solver in self.borda.solvers}

    def ranking(self) -> list[tuple[str, float]]:
        return self.borda.ranking()


def evaluate_combined(
    combined: CombinedSet,
    solvers: Sequence[SolverAdapter],
    problem: Problem,
    t_max: float,
    limits: EvaluationLimits = EvaluationLimits(),
    seed: int = 0,
    out_dir: str | Path | None = None,
) -> CombinedEvaluation:
    """Run every solver on every combined instance and rank them.

    Each solver is named once. Solutions are re-checked; answers failing
    verification are flagged and score as unsolved. Per-run failures
    become error records and never abort the evaluation. Raises
    ArchiveError when two sources hold different instances under one id.
    With ``out_dir`` set, the records are written there as
    ``combined_evals.jsonl``, with ``pair_scores.csv``, ``borda.json`` and
    ``flags.json``, which are computed from those records alone; external
    runs keep their files in its ``runs`` directory unless
    ``limits.workdir`` names another.
    """
    if not 0 < t_max < math.inf:
        raise ValidationError(f"t_max must be {'finite' if t_max > 0 else 'positive'}, got {t_max}")
    solver_names = [s.name for s in solvers]
    twice = [name for name in solver_names if solver_names.count(name) > 1]
    if twice:
        raise ValidationError(f"solver {twice[0]!r} is named more than once")
    if out_dir is not None and limits.workdir is None:
        limits = replace(limits, workdir=str(Path(out_dir) / "runs"))
    archives = {label: CampaignArchive.open(path) for label, path in combined.sources.items()}
    # An instance id is unique within its campaign only: sources may share
    # an id, and they must then share the instance.
    instances: dict[str, tuple[str, dict[str, Any]]] = {}  # id -> (first source, values)
    for label, ids in combined.selections.items():
        for iid in ids:
            values = archives[label].instance_values(iid)
            first, seen = instances.setdefault(iid, (label, values))
            if seen != values:
                raise ArchiveError(
                    f"instance {iid} differs between {combined.sources[first]} and {combined.sources[label]}"
                )

    instance_ids = combined.all_instance_ids()
    if out_dir is not None:
        make_dir(Path(out_dir))  # before the first run, so a bad --out loses none
    records: dict[tuple[str, str], SolverRecord] = {}
    for adapter in solvers:
        for iid in instance_ids:
            _, values = instances[iid]
            record = run_solver(adapter, problem, values, t_max, limits, derive_seed(seed, adapter.name, iid))
            records[(adapter.name, iid)] = verify_record(problem, values, record)
    comparables = {key: comparable_from_record(record, problem.kind) for key, record in records.items()}
    result = CombinedEvaluation(borda_complete(comparables, solver_names, instance_ids), records)

    if out_dir is not None:
        out = Path(out_dir)
        write_file(out / "combined_evals.jsonl", "".join(
            json.dumps({"solver": sname, "instance": iid, "record": record.to_jsonable(sname)}) + "\n"
            for (sname, iid), record in sorted(records.items())
        ))
        rows = pair_rows(comparables, solver_names, instance_ids)
        write_table(out / "pair_scores.csv", TABLES["pair_scores.csv"], rows)
        write_borda_json(out / "borda.json", result.borda)
        write_file(out / "flags.json", json.dumps({"flagged": result.flagged, "answered": result.answered}, indent=2))
    return result


def report_tables(archive: CampaignArchive) -> dict[str, list[tuple]]:
    """The rows of every report table that applies to this campaign, by file name.

    ``status_frequencies.csv`` counts each run status over the whole
    evaluation log. ``graded_times.csv`` holds each solver's recorded time on
    each graded instance, grouped by solver in archive order; a local-search
    record's time is already its time to the proven optimum
    (``evaluate.effective_graded_record``). ``discrimination.csv`` has one
    row per dis-found evaluation of a discriminating campaign. The metadata
    and the records are each read once.
    """
    campaign = archive.settings.campaign
    entries = list(archive.evaluations())
    counts = Counter(entry.status.value for entry in entries)
    tables = {
        "status_frequencies.csv": [
            (status, n, n / len(entries)) for status, n in sorted(counts.items())
        ]
    }
    times = [
        (name, record.time)
        for entry in entries
        if entry.status is RunStatus.GRADED
        for name, record in entry.records.items()
    ]
    if times:
        tables["graded_times.csv"] = sorted(times, key=lambda row: row[0])
    if campaign == "discriminating":
        tables["discrimination.csv"] = [
            (entry.instance_id, entry.scores[0], entry.penalty)
            for entry in entries
            if entry.status is RunStatus.DIS_FOUND
        ]
    return tables


# -- export and re-import -----------------------------------------------------

# Each report table's columns, by file name.
TABLES = {
    "status_frequencies.csv": ("status", "count", "fraction"),
    "graded_times.csv": ("solver", "time"),
    "discrimination.csv": ("instance", "favoured_score", "penalty"),
    "pair_scores.csv": ("solver", "instance", "opponent", "score"),
}

# The type each column's cells read back as; a column not named here is text.
COLUMN_TYPES = {
    "count": int,
    "fraction": float,
    "time": float,
    "favoured_score": float,
    "penalty": float,
    "score": float,
}


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a header line and one CSV line per row; a float is written as its repr."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_file(path, text.getvalue())


def read_table(path: str | Path) -> tuple[tuple[str, ...], list[tuple]]:
    """A table as ``write_table`` wrote it: its header and its rows, each
    cell parsed by its column's type in ``COLUMN_TYPES`` (text otherwise)."""
    reader = csv.reader(io.StringIO(read_file(path)))
    header = tuple(next(reader, ()))
    types = [COLUMN_TYPES.get(column, str) for column in header]
    return header, [tuple(kind(cell) for kind, cell in zip(types, row)) for row in reader]


def write_borda_json(path: str | Path, table: BordaTable) -> None:
    cells = [{"solver": s, "instance": i, "score": v} for (s, i), v in sorted(table.cells.items())]
    data = {**to_jsonable(table), "cells": cells}
    write_file(path, json.dumps(data, indent=2))


def read_borda_json(path: str | Path) -> BordaTable:
    try:
        data = json.loads(read_file(path))
        cells = {(c["solver"], c["instance"]): c["score"] for c in data["cells"]}
        return BordaTable(data["solvers"], data["instances"], data["totals"], cells)
    except ValueError as exc:
        raise ArchiveError(f"Borda table {path} is not JSON: {exc}") from exc
    except KeyError as key:
        raise ArchiveError(f"{path} is not a Borda table: it has no key {key}") from None
    except TypeError as why:
        raise ArchiveError(f"{path} is not a Borda table: {why}") from None


def write_reports(archive: CampaignArchive) -> dict[Path, list[tuple]]:
    """Write every report table that applies to this campaign into reports/.

    Returns each written path with the rows written there.
    """
    out = archive.reports_dir
    written: dict[Path, list[tuple]] = {}
    for name, rows in report_tables(archive).items():
        write_table(out / name, TABLES[name], rows)
        written[out / name] = rows
    return written
