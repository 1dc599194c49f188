"""Post-campaign analysis and plot-ready exports.

Everything here is a pure function of archives (plus a seed): status
frequency tables, solving-time distributions of graded instances,
combined-set construction and cross-solver Borda evaluation, and
discriminating-power summaries. Exports are CSV/JSON only; rendering is
left to downstream tooling.
"""

from __future__ import annotations

import csv
import json
import statistics
import warnings
from pathlib import Path
from random import Random
from typing import Any, Mapping, Sequence

from .archive import CampaignArchive, discriminating_entries, graded_instance_ids
from .errors import ArchiveError, ValidationError
from .problems import Problem
from .records import Record, replace
from .runner import (
    EvaluationLimits,
    RunStatus,
    SolverAdapter,
    SolverRecord,
    derive_seed,
    run_solver,
    verify_record,
)
from .scoring import (
    BordaTable,
    borda_complete,
    comparable_from_record,
    pair_rows,
    write_borda_json,
    write_score_csv,
)


class EmptyArchive(Warning):
    """A graded campaign contributed zero instances to a combined set."""


class CombinedSet(Record):
    selections: dict[str, list[str]]  # source label -> instance ids
    sources: dict[str, str]  # source label -> archive path
    seed: int
    k: int

    def all_instance_ids(self) -> list[str]:
        seen: list[str] = []
        for label in self.selections:
            for iid in self.selections[label]:
                if iid not in seen:
                    seen.append(iid)
        return seen

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "k": self.k,
            "sources": self.sources,
            "selections": self.selections,
        }

    def save(self, path: str | Path) -> None:
        try:
            Path(path).write_text(json.dumps(self.to_jsonable(), indent=2))
        except OSError as exc:
            raise ArchiveError(f"cannot write the combined set {path}: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "CombinedSet":
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ArchiveError(f"cannot read the combined set {path}: {exc}") from exc
        except ValueError as exc:
            raise ArchiveError(f"combined set {path} is not JSON: {exc}") from exc
        keys = ("selections", "sources", "seed", "k")
        if not isinstance(data, dict) or not all(key in data for key in keys):
            raise ArchiveError(f"{path} is not a combined set: it needs {', '.join(keys)}")
        selections, sources = data["selections"], data["sources"]
        if not isinstance(selections, dict) or not all(
            isinstance(ids, list) and all(isinstance(i, str) for i in ids)
            for ids in selections.values()
        ):
            why = "selections must map each label to a list of instance ids"
        elif not isinstance(sources, dict) or not all(
            isinstance(source, str) for source in sources.values()
        ):
            why = "sources must map each label to an archive path"
        elif unsourced := [label for label in selections if label not in sources]:
            why = f"selection {unsourced[0]!r} has no source"
        elif not all(type(data[key]) is int for key in ("seed", "k")):
            why = "seed and k must be integers"
        else:
            return cls(selections, sources, data["seed"], data["k"])
        raise ArchiveError(f"{path} is not a combined set: {why}")


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
        meta = archive.meta
        if meta.get("campaign") != "graded":
            raise ArchiveError(f"{archive.root} is not a graded campaign archive")
        problems.setdefault(meta["problem"], archive.root)
        if len(problems) > 1:
            (one, root), (other, _) = problems.items()
            raise ArchiveError(
                f"cannot combine {root} ({one}) with {archive.root} ({other}): "
                "a combined set holds instances of one problem"
            )
        label = meta["solver"]["name"]
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


def status_frequencies(archive: CampaignArchive) -> dict[str, tuple[int, float]]:
    """Counts and fractions per run status over the whole evaluation log."""
    counts: dict[str, int] = {}
    total = 0
    for entry in archive.evaluations():
        counts[entry["status"]] = counts.get(entry["status"], 0) + 1
        total += 1
    if total == 0:
        return {}
    return {status: (n, n / total) for status, n in sorted(counts.items())}


class TimeSummary(Record):
    solver: str
    times: list[float]


def _effective_time(record: SolverRecord, solver_kind: str) -> float:
    if solver_kind == "local_search" and record.time_to_best is not None:
        return record.time_to_best
    return record.time


def time_distribution(archive: CampaignArchive) -> dict[str, TimeSummary]:
    """Solving times of graded instances, per solver (time-to-best for local search)."""
    meta = archive.meta
    kinds: dict[str, str] = {}
    if meta.get("campaign") == "graded":
        kinds[meta["solver"]["name"]] = meta["solver"].get("kind", "complete")
    series: dict[str, list[float]] = {}
    for entry in archive.evaluations():
        if entry["status"] != RunStatus.GRADED.value:
            continue
        for name, raw in entry.get("records", {}).items():
            record = SolverRecord.from_jsonable(raw)
            t = _effective_time(record, kinds.get(name, "complete"))
            series.setdefault(name, []).append(t)
    return {name: TimeSummary(name, times) for name, times in sorted(series.items())}


class CombinedEvaluation(Record):
    borda: BordaTable
    records: dict[tuple[str, str], SolverRecord]
    flagged: dict[str, int]  # solver -> count of failed-verification answers
    answered: dict[str, int]  # solver -> count of records carrying a payload

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
    become error records and never abort the evaluation. With ``out_dir``
    set, records and score tables are written there, and external runs
    keep their files in its ``runs`` directory unless ``limits.workdir``
    names another.
    """
    if not t_max > 0:
        raise ValidationError(f"t_max must be positive, got {t_max}")
    solver_names = [s.name for s in solvers]
    twice = [name for name in solver_names if solver_names.count(name) > 1]
    if twice:
        raise ValidationError(f"solver {twice[0]!r} is named more than once")
    if out_dir is not None and limits.workdir is None:
        limits = replace(limits, workdir=str(Path(out_dir) / "runs"))
    archives = {label: CampaignArchive.open(path) for label, path in combined.sources.items()}
    values_by_id: dict[str, dict[str, Any]] = {}
    for label, ids in combined.selections.items():
        for iid in ids:
            if iid not in values_by_id:
                values_by_id[iid] = archives[label].instance_values(iid)

    instance_ids = combined.all_instance_ids()
    records: dict[tuple[str, str], SolverRecord] = {}
    flagged: dict[str, int] = {s.name: 0 for s in solvers}
    answered: dict[str, int] = {s.name: 0 for s in solvers}
    comparables = {}
    for adapter in solvers:
        for iid in instance_ids:
            record = run_solver(
                adapter, problem, values_by_id[iid], t_max, limits, derive_seed(seed, adapter.name, iid)
            )
            record = verify_record(problem, values_by_id[iid], record)
            if record.solution is not None:
                answered[adapter.name] += 1
                if record.solution_ok is False:
                    flagged[adapter.name] += 1
            records[(adapter.name, iid)] = record
            comparables[(adapter.name, iid)] = comparable_from_record(record, problem.kind)

    table = borda_complete(comparables, solver_names, instance_ids)
    result = CombinedEvaluation(
        borda=table,
        records=records,
        flagged=flagged,
        answered=answered,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "combined_evals.jsonl", "w") as fh:
            for (sname, iid), record in sorted(records.items()):
                fh.write(
                    json.dumps(
                        {"solver": sname, "instance": iid, "record": record.to_jsonable(sname)}
                    )
                    + "\n"
                )
        write_score_csv(out / "pair_scores.csv", pair_rows(comparables, solver_names, instance_ids))
        write_borda_json(out / "borda.json", table)
        (out / "flags.json").write_text(
            json.dumps({"flagged": flagged, "answered": answered}, indent=2)
        )
    return result


class DiscriminationReport(Record):
    count: int
    favoured_scores: list[float]
    penalties: list[float]
    instance_ids: list[str]

    def score_summary(self) -> dict[str, float]:
        if not self.favoured_scores:
            return {}
        xs = sorted(self.favoured_scores)
        mid = statistics.median(xs)
        return {"min": xs[0], "median": mid, "max": xs[-1]}


def discrimination_report(archive: CampaignArchive) -> DiscriminationReport:
    """Count discriminating instances and collect the winner's score distribution."""
    meta = archive.meta
    if meta.get("campaign") != "discriminating":
        raise ArchiveError(f"{archive.root} is not a discriminating campaign archive")
    entries = discriminating_entries(archive)
    scores = [e["scores"][0] for e in entries if e.get("scores")]
    return DiscriminationReport(
        count=len(entries),
        favoured_scores=scores,
        penalties=[e["penalty"] for e in entries],
        instance_ids=[e["instance_id"] for e in entries if e.get("instance_id")],
    )


# -- CSV/JSON export and re-import --------------------------------------------


def write_status_csv(path: str | Path, table: Mapping[str, tuple[int, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["status", "count", "fraction"])
        for status, (count, fraction) in table.items():
            writer.writerow([status, count, repr(fraction)])


def read_status_csv(path: str | Path) -> dict[str, tuple[int, float]]:
    out: dict[str, tuple[int, float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["status"]] = (int(row["count"]), float(row["fraction"]))
    return out


def write_times_csv(path: str | Path, summaries: Mapping[str, TimeSummary]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "time"])
        for name, summary in summaries.items():
            for t in summary.times:
                writer.writerow([name, repr(t)])


def read_times_csv(path: str | Path) -> dict[str, TimeSummary]:
    series: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            series.setdefault(row["solver"], []).append(float(row["time"]))
    return {name: TimeSummary(name, times) for name, times in series.items()}


def write_discrimination_csv(path: str | Path, report: DiscriminationReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "favoured_score", "penalty"])
        for iid, score, pen in zip(
            report.instance_ids, report.favoured_scores, report.penalties
        ):
            writer.writerow([iid, repr(score), repr(pen)])


def read_discrimination_csv(path: str | Path) -> DiscriminationReport:
    ids: list[str] = []
    scores: list[float] = []
    penalties: list[float] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            ids.append(row["instance"])
            scores.append(float(row["favoured_score"]))
            penalties.append(float(row["penalty"]))
    return DiscriminationReport(
        count=len(ids), favoured_scores=scores, penalties=penalties, instance_ids=ids
    )


def write_reports(archive: CampaignArchive) -> list[Path]:
    """Write every report that applies to this campaign into reports/."""
    out = archive.reports_dir
    written: list[Path] = []

    freq = status_frequencies(archive)
    path = out / "status_frequencies.csv"
    write_status_csv(path, freq)
    written.append(path)

    times = time_distribution(archive)
    if times:
        path = out / "graded_times.csv"
        write_times_csv(path, times)
        written.append(path)

    if archive.meta.get("campaign") == "discriminating":
        report = discrimination_report(archive)
        path = out / "discrimination.csv"
        write_discrimination_csv(path, report)
        written.append(path)
    return written
