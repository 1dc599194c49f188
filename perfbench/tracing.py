"""In-memory span tracing of benchgen from the outside.

``install`` replaces benchgen's public functions where their callers look
them up (``benchgen.evaluate.solve_generator``,
``benchgen.gensolve.backtrack_solve``, ...) with wrappers that record one
span per call: layer, name, start, end, parent span and a few counts taken
at the boundary. Spans stay in memory until ``dump`` writes them out. Only
a traced round installs the wrappers; timed rounds run the plain program.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable


def _wchar() -> int:
    """Bytes this process has passed to write() so far (Linux)."""
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        annotate: Callable[[Any, tuple], dict[str, Any]] | None = None,
        io: bool = False,
    ) -> Callable:
        """``fn`` wrapped so each call records a span.

        A call on a pool thread with no open span of its own is parented to
        the span the main thread has open, which is the race that
        dispatched it.
        """

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            written = _wchar() if io else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": sid, "parent": parent, "layer": layer, "name": name,
                    "start": start, "end": end}
            if io:
                span["wbytes"] = _wchar() - written
            if annotate is not None:
                span.update(annotate(result, args))
            self.spans.append(span)
            return result

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _nodes(result, args) -> dict[str, Any]:
    return {"nodes": result.nodes, "status": result.status.value}


def _block(result, args) -> dict[str, Any]:
    return {"block": args[1]}


# (module, attribute at the call site, layer, annotate, io)
CALL_SITES: list[tuple[str, str, str, Any, bool]] = [
    ("benchgen.campaign", "run_campaign", "campaign", None, False),
    ("benchgen.cli", "run_campaign", "campaign", None, False),
    ("benchgen.campaign", "evaluate_configuration", "evaluate", None, False),
    ("benchgen.tuner", "race", "tuner", None, False),
    ("benchgen.tuner", "friedman_eliminate", "tuner", None, False),
    ("benchgen.evaluate", "solve_generator", "gensolve", None, False),
    ("benchgen.gensolve", "ground", "ground", None, False),
    ("benchgen.gensolve", "backtrack_solve", "csp", _nodes, False),
    ("benchgen.evaluate", "run_solver", "runner", None, False),
    ("benchgen.report", "run_solver", "runner", None, False),
    ("benchgen.evaluate", "verify_record", "runner", None, False),
    ("benchgen.report", "verify_record", "runner", None, False),
    ("benchgen.runner", "run_builtin", "solvers", None, False),
    ("benchgen.runner", "run_external_command", "external", None, False),
    ("benchgen.report", "borda_complete", "scoring", None, False),
    ("benchgen.cli", "write_reports", "report", None, False),
    ("benchgen.cli", "build_combined_set", "report", None, False),
    ("benchgen.cli", "evaluate_combined", "report", None, False),
    ("benchgen.archive", "CampaignArchive.add_instance", "archive", None, True),
    ("benchgen.archive", "CampaignArchive.annotate_instance", "archive", None, True),
    ("benchgen.archive", "CampaignArchive.add_evaluation", "archive", None, True),
    ("benchgen.archive", "CampaignArchive.append_log", "archive", None, True),
    ("benchgen.archive", "CampaignArchive.save_history", "archive", None, True),
    ("benchgen.archive", "CampaignArchive.load_history", "archive", None, False),
]


def install(tracer: Tracer) -> None:
    """Wrap every call site in CALL_SITES, plus the tuner's callbacks."""
    for module_name, attr, layer, annotate, io in CALL_SITES:
        owner: Any = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        name = f"{layer}.{leaf}"
        setattr(owner, leaf, tracer.wrap(getattr(owner, leaf), layer, name, annotate, io))

    campaign = importlib.import_module("benchgen.campaign")
    run_tuning = campaign.run_tuning

    def traced_run_tuning(space, evaluator, config, log=None):
        # The evaluator and the log sink are campaign closures the tuner calls back.
        evaluator = tracer.wrap(evaluator, "campaign", "campaign.evaluator", _block)
        if log is not None:
            log = tracer.wrap(log, "campaign", "campaign.log_sink")
        return run_tuning(space, evaluator, config, log=log)

    campaign.run_tuning = tracer.wrap(traced_run_tuning, "tuner", "tuner.run_tuning")


# -- analysis -----------------------------------------------------------------


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_table(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per layer: number of calls and self time in seconds."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s["layer"], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[s["id"]]
    return table


def tracer_cost(spans: list[dict[str, Any]]) -> float:
    """Seconds the wrappers themselves added: span count times the cost of
    one wrapped call of a no-op, measured here."""
    cost = {}
    for io in (False, True):
        noop = Tracer().wrap(lambda: None, "x", "x", io=io)
        start = time.perf_counter()
        for _ in range(2000):
            noop()
        cost[io] = (time.perf_counter() - start) / 2000
    return sum(cost["wbytes" in s] for s in spans)


def _of(spans, name: str) -> list[dict[str, Any]]:
    return [s for s in spans if s["name"] == name]


def _dur(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _self_of_layer(spans, own, layer: str) -> float:
    return sum(own[s["id"]] for s in spans if s["layer"] == layer)


def parallelism(spans) -> float:
    """Evaluator busy time over the wall time of the evaluation blocks."""
    blocks: dict[tuple[int, int], list[dict[str, Any]]] = {}
    for s in _of(spans, "campaign.evaluator"):
        blocks.setdefault((s["parent"], s["block"]), []).append(s)
    busy = _dur(_of(spans, "campaign.evaluator"))
    wall = sum(max(s["end"] for s in b) - min(s["start"] for s in b) for b in blocks.values())
    return busy / wall


def campaign_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced in-process campaign."""
    own = self_times(spans)
    evals = len(_of(spans, "archive.add_evaluation"))
    grounds = _of(spans, "ground.ground")
    solves = _of(spans, "csp.backtrack_solve")
    gensolves = _of(spans, "gensolve.solve_generator")
    nodes = sum(s["nodes"] for s in solves)
    solutions = sum(1 for s in solves if s["status"] == "solution")
    archive = [s for s in spans if s["layer"] == "archive"]
    friedman = _of(spans, "tuner.friedman_eliminate")
    runs = _of(spans, "runner.run_solver")
    verifies = _of(spans, "runner.verify_record")
    externals = _of(spans, "external.run_external_command")
    return {
        "evals": evals,
        "ground.calls": len(grounds),
        "ground.ms_per_call": 1e3 * _dur(grounds) / len(grounds),
        "csp.nodes": nodes,
        "csp.us_per_node": 1e6 * _dur(solves) / nodes,
        "csp.nodes_per_solution": nodes / solutions,
        "gensolve.ms_per_solve": 1e3 * _dur(gensolves) / len(gensolves),
        "archive.ms_per_eval": 1e3 * _dur(archive) / evals,
        "archive.history_ms_per_eval": 1e3 * _dur(_of(spans, "archive.save_history")) / evals,
        "archive.kb_written_per_eval": sum(s["wbytes"] for s in archive if "wbytes" in s) / 1024 / evals,
        "tuner.self_ms_per_eval": 1e3 * _self_of_layer(spans, own, "tuner") / evals,
        "tuner.friedman_calls": len(friedman),
        "tuner.friedman_ms": 1e3 * _dur(friedman),
        "tuner.parallelism": parallelism(spans),
        "evaluate.self_ms_per_eval": 1e3 * _self_of_layer(spans, own, "evaluate") / evals,
        "campaign.self_ms_per_eval": 1e3 * _self_of_layer(spans, own, "campaign") / evals,
        "runner.ms_per_run": 1e3 * _dur(runs) / len(runs),
        "runner.verify_us": 1e6 * _dur(verifies) / len(verifies),
        "external.runs": len(externals),
        "external.ms_per_run": 1e3 * _dur(externals) / len(externals) if externals else 0.0,
    }


def cli_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced in-process CLI round."""
    builtin = _of(spans, "solvers.run_builtin")
    out = {f"cli.{cmd}_s": _dur(_of(spans, f"cli.{cmd}"))
           for cmd in ("tune", "resume", "report", "combine", "evaluate", "check")}
    out["scoring.borda_ms"] = 1e3 * _dur(_of(spans, "scoring.borda_complete"))
    out["solvers.ms_per_run"] = 1e3 * _dur(builtin) / len(builtin)
    return out
