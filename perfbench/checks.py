"""Correctness checks on what a workload wrote, made apart from benchgen.

Every check reads the files a round left behind and recomputes the
expected answer from the workload's definition alone: its own parser for
the instance text, its own brute force, scoring and status rules. None of
it imports benchgen. A violated check raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Any


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- reading archives -----------------------------------------------------------


def parse_instance(text: str) -> dict[str, Any]:
    """``name = int`` and ``name = [int, ...]`` lines."""
    values: dict[str, Any] = {}
    for line in text.splitlines():
        name, _, rhs = line.partition(" = ")
        rhs = rhs.strip()
        if rhs.startswith("["):
            inner = rhs[1:-1].strip()
            values[name] = [int(v) for v in inner.split(",")] if inner else []
        else:
            values[name] = int(rhs)
    return values


def evaluations(camp: Path) -> list[dict[str, Any]]:
    with open(camp / "records" / "evals.jsonl") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def instance(camp: Path, instance_id: str) -> dict[str, Any]:
    return parse_instance((camp / "instances" / f"{instance_id}.inst").read_text())


def digest(*camps: Path) -> str:
    """SHA-256 over tuner.log and evals.jsonl of each campaign, in order."""
    h = hashlib.sha256()
    for camp in camps:
        h.update((camp / "tuner.log").read_bytes())
        h.update((camp / "records" / "evals.jsonl").read_bytes())
    return h.hexdigest()


def history_depth(camp: Path) -> int:
    """Most instances any one configuration produced."""
    counts: dict[str, int] = {}
    for e in evaluations(camp):
        if e["instance_id"]:
            counts[e["config_id"]] = counts.get(e["config_id"], 0) + 1
    return max(counts.values(), default=0)


def _log_matches(camp: Path, evals: list[dict[str, Any]]) -> None:
    lines = (camp / "tuner.log").read_text().splitlines()
    require(len(lines) == len(evals), f"{camp.name}: {len(lines)} log lines for {len(evals)} evaluations")
    for line, e in zip(lines, evals):
        fields = dict(part.split("=", 1) for part in line.split()[2:])
        penalty = "inf" if math.isinf(e["penalty"]) else repr(e["penalty"])
        expected = {"config": e["config_id"], "penalty": penalty, "status": e["status"],
                    "instance": e["instance_id"] or "-"}
        require(fields == expected, f"{camp.name}: log line {line!r} disagrees with {expected}")


# -- graded-synth ----------------------------------------------------------------


def _weight_vectors(n: int, capacity: int, lo: int, hi: int) -> int:
    """Number of weight vectors in lo..hi of length n with sum >= capacity."""
    ways = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for total, count in ways.items():
            for w in range(lo, hi + 1):
                nxt[total + w] = nxt.get(total + w, 0) + count
        ways = nxt
    return sum(count for total, count in ways.items() if total >= capacity)


def graded_expectation(latency: Fraction, t_min: float, t_max: float) -> tuple[str, float]:
    """Status and penalty of a complete solver answering after ``latency``."""
    if latency > Fraction(t_max):
        return "too-difficult", 0.0
    if latency < Fraction(t_min):
        return "too-easy-SAT", 0.0
    return "graded", -1.0


def check_graded_synth(camp: Path, band: tuple[float, float], items: tuple[int, int]) -> None:
    """Model, statuses, penalties, repeats and lexicographic order of each instance."""
    lo, hi = items
    evals = evaluations(camp)
    require(evals, f"{camp.name}: no evaluations")
    _log_matches(camp, evals)
    previous: dict[str, list[int]] = {}
    seen: dict[str, set[tuple[int, ...]]] = {}
    for e in evals:
        cfg, cid = e["assignment"], e["config_id"]
        cap_t, n = cfg["cap_t"], cfg["n"]
        where = f"{camp.name} seq {e['seq']} ({cid})"
        if e["instance_id"] is None:
            total = _weight_vectors(n, cap_t, lo, hi) * (hi - lo + 1) ** n
            require(len(seen.get(cid, ())) == total,
                    f"{where}: generator-unsolved with {len(seen.get(cid, ()))} of {total} solutions used")
            require(e["status"] == "generator-unsolved" and math.isinf(e["penalty"]) and e["penalty"] > 0,
                    f"{where}: no instance but status {e['status']} penalty {e['penalty']}")
            continue
        values = instance(camp, e["instance_id"])
        weight, value, capacity = values["weight"], values["value"], values["capacity"]
        require(capacity == cap_t, f"{where}: capacity {capacity} != cap_t {cap_t}")
        require(len(weight) == n and len(value) == n, f"{where}: item count is not n = {n}")
        require(all(lo <= v <= hi for v in weight + value), f"{where}: item outside {lo}..{hi}")
        require(sum(weight) >= capacity, f"{where}: sum(weight) < capacity")
        status, penalty = graded_expectation(Fraction(capacity, 10), *band)
        require((e["status"], e["penalty"]) == (status, penalty),
                f"{where}: recorded {e['status']} {e['penalty']}, expected {status} {penalty}")
        # Declaration order: capacity, weight[1..n], value[1..n].
        key = [capacity, *weight, *value]
        require(tuple(key) not in seen.setdefault(cid, set()), f"{where}: repeats an earlier solution")
        require(cid not in previous or key > previous[cid], f"{where}: instance not after its predecessor")
        seen[cid].add(tuple(key))
        previous[cid] = key


# -- external-solver ---------------------------------------------------------------


def knapsack_objective(values: dict[str, Any], take: list[int]) -> int | None:
    """Objective of a 0/1 selection, None when it is infeasible."""
    weight, value = values["weight"], values["value"]
    if len(take) != len(weight) or any(t not in (0, 1) for t in take):
        return None
    if sum(t * w for t, w in zip(take, weight)) > values["capacity"]:
        return None
    return sum(t * v for t, v in zip(take, value))


def check_external(camp: Path, solver: str, band: tuple[float, float]) -> None:
    """Every evaluation graded with a verified feasible answer and one clean run."""
    t_min, t_max = band
    evals = evaluations(camp)
    require(evals, f"{camp.name}: no evaluations")
    _log_matches(camp, evals)
    runs: dict[str, list[Path]] = {}
    for run in (camp / "runs").iterdir():
        runs.setdefault((run / "instance.inst").read_text(), []).append(run)
    require(sum(map(len, runs.values())) == len(evals),
            f"{camp.name}: {sum(map(len, runs.values()))} run directories for {len(evals)} evaluations")
    for e in evals:
        where = f"{camp.name} seq {e['seq']}"
        require(e["status"] == "graded" and e["penalty"] == -1.0, f"{where}: status {e['status']}")
        record = e["records"][solver]
        require(record["status"] == "sat" and record["solution_ok"] is True, f"{where}: record {record}")
        require(t_min <= record["time"] <= t_max, f"{where}: time {record['time']} outside the band")
        text = (camp / "instances" / f"{e['instance_id']}.inst").read_text()
        values = parse_instance(text)
        require(values["capacity"] == e["assignment"]["cap_t"], f"{where}: capacity != cap_t")
        objective = knapsack_objective(values, record["solution"]["take"])
        require(objective is not None and objective == record["objective"],
                f"{where}: answer {record['solution']} objective {record['objective']}, recomputed {objective}")
        matching = runs.get(text, [])
        require(len(matching) == 1, f"{where}: {len(matching)} run directories hold its instance")
        tail = (matching[0] / "run.log").read_text().splitlines()[-1]
        require(tail.startswith("# exit=0 killed=False "), f"{where}: run log ends {tail!r}")


# -- cli-quickstart ----------------------------------------------------------------


def status_counts(camp: Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    for e in evaluations(camp):
        counts[e["status"]] = counts.get(e["status"], 0) + 1
    return counts


def check_report(camp: Path, stdout: str) -> None:
    """Report counts on stdout and in status_frequencies.csv equal a recount."""
    counts = status_counts(camp)
    printed = {m[1]: int(m[2]) for m in re.finditer(r"^  (\S+): (\d+) \(", stdout, re.M)}
    require(printed == counts, f"{camp.name}: report printed {printed}, recount {counts}")
    require(f"evaluations: {sum(counts.values())}\n" in stdout, f"{camp.name}: report total is wrong")
    with open(camp / "reports" / "status_frequencies.csv", newline="") as fh:
        table = {row["status"]: int(row["count"]) for row in csv.DictReader(fh)}
    require(table == counts, f"{camp.name}: status_frequencies.csv {table}, recount {counts}")
    if "discriminating instances:" in stdout:
        found = sum(1 for e in evaluations(camp) if e["status"] == "dis-found" and e["penalty"] < 0)
        require(f"discriminating instances: {found}\n" in stdout, f"{camp.name}: discriminating count")


def check_resume(before: str, after: str) -> None:
    require(before == after, f"resume changed tuner.log or evals.jsonl ({before[:12]} -> {after[:12]})")


def check_combined(combined_path: Path, workspace: Path, k: int) -> dict[str, list[str]]:
    """Selections are subsets of each source's recomputed graded ids."""
    combined = json.loads(combined_path.read_text())
    for label, ids in combined["selections"].items():
        source = workspace / Path(combined["sources"][label]).name
        graded = {e["instance_id"] for e in evaluations(source) if e["status"] == "graded"}
        require(set(ids) <= graded, f"combined {label}: ids that are not graded in {source.name}")
        require(len(set(ids)) == len(ids) == min(k, len(graded)),
                f"combined {label}: {len(ids)} ids for k={k} and {len(graded)} graded")
    return combined


def _solved(r: dict[str, Any]) -> bool:
    return r["status"] == "unsat" or (
        r["status"] in ("sat", "timeout") and r["solution"] is not None and r["solution_ok"] is not False)


def _better(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """MiniZinc complete scoring for a maximisation: solved, then optimal, then objective."""
    sa, sb = _solved(a), _solved(b)
    if sa != sb:
        return sa
    oa = sa and a["status"] == "sat" and a["optimal_claimed"]
    ob = sb and b["status"] == "sat" and b["optimal_claimed"]
    if oa != ob:
        return oa
    qa = a["objective"] if sa and a["status"] != "unsat" else None
    qb = b["objective"] if sb and b["status"] != "unsat" else None
    return qa is not None and qb is not None and qa > qb


def pair_score(a: dict[str, Any], b: dict[str, Any]) -> float:
    if _better(a, b):
        return 1.0
    if _better(b, a):
        return 0.0
    if _solved(a) and _solved(b):
        total = a["time"] + b["time"]
        return 0.5 if total <= 0 else b["time"] / total
    return 0.0


def check_evaluate(eval_out: Path, combined: dict[str, Any], workspace: Path) -> None:
    """Exact objectives equal brute-force optima; Borda totals equal a recount."""
    rows = [json.loads(line) for line in (eval_out / "combined_evals.jsonl").read_text().splitlines()]
    records = {(r["solver"], r["instance"]): r["record"] for r in rows}
    solvers = sorted({s for s, _ in records})
    instance_ids = sorted({i for _, i in records})
    wanted = {i for ids in combined["selections"].values() for i in ids}
    require(set(instance_ids) == wanted, "combined_evals.jsonl does not cover the combined set")
    require(len(records) == len(solvers) * len(instance_ids), "combined_evals.jsonl misses records")
    for label, ids in combined["selections"].items():
        source = workspace / Path(combined["sources"][label]).name
        for iid in ids:
            values = instance(source, iid)
            best = max(
                knapsack_objective(values, list(take))
                for take in itertools.product((0, 1), repeat=len(values["weight"]))
                if knapsack_objective(values, list(take)) is not None
            )
            got = records[("exact", iid)]
            require(got["status"] == "sat" and got["objective"] == best,
                    f"exact on {iid}: objective {got['objective']}, brute force {best}")
    totals = {s: 0.0 for s in solvers}
    for iid in instance_ids:
        for s in solvers:
            for t in solvers:
                if s != t:
                    totals[s] += pair_score(records[(s, iid)], records[(t, iid)])
    borda = json.loads((eval_out / "borda.json").read_text())["totals"]
    require(borda.keys() == totals.keys() and all(
        math.isclose(borda[s], totals[s], rel_tol=1e-9, abs_tol=1e-9) for s in solvers),
        f"Borda totals {borda}, recount {totals}")


def check_check(camp: Path, stdout: str) -> None:
    carried = sum(
        1 for e in evaluations(camp) if e["instance_id"]
        for r in e["records"].values() if r["solution"] is not None
    )
    require(f"re-checked {carried} archived solutions, 0 failures" in stdout,
            f"check output {stdout.strip()!r}, expected {carried} solutions")


def check_discriminating(camp: Path, band: tuple[float, float]) -> None:
    """Statuses and penalties recomputed from the latencies (100 - c)/10 and c/10."""
    t_min, t_max = band
    evals = evaluations(camp)
    require(evals, f"{camp.name}: no evaluations")
    _log_matches(camp, evals)
    for e in evals:
        where = f"{camp.name} seq {e['seq']}"
        capacity = instance(camp, e["instance_id"])["capacity"]
        favoured, base = Fraction(100 - capacity, 10), Fraction(capacity, 10)
        if favoured > t_max:
            expected = ("favoured-timeout", 0.0)
        elif base < t_min:
            expected = ("base-too-easy", 0.0)
        elif favoured == 0:
            expected = ("dis-found", -1e6)  # the base scored zero
        else:
            expected = ("dis-found", -float(base / favoured))
        got = (e["status"], e["penalty"])
        require(got[0] == expected[0] and math.isclose(got[1], expected[1], rel_tol=1e-9),
                f"{where}: capacity {capacity} recorded {got}, expected {expected}")
