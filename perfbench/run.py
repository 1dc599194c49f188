"""Campaign benchmark for benchgen: three workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload runs in whole rounds, each in fresh
processes, until S seconds have passed (two rounds at least). Every round's
output is checked against computations made apart from benchgen
(``checks.py``). The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end metrics, each the median over
the rounds.

With ``--trace 1`` one traced in-process round of every workload gives the
per-layer metrics (``tracing.py``), each taken from the workload that
reaches its layer. Untraced and traced rounds of the named workload give
the tracing overhead. Spans are written to ``perfbench/out/<workload>/trace/``.

Exits 2 without a result when benchgen's sources are not next to this
directory, and 1 with ``"correct": false`` when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads as wl

MIN_ROUNDS = 2
SETUP_PROBES = 5
CHILD_TIMEOUT = 150.0
MB = 1024 * 1024

END_TO_END = {"wall_s": "s", "evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
              "archive_mb": "MB"}

# Per-layer metric -> (unit, workload whose traced round measures it).
PER_LAYER = {
    "ground.calls": ("count", "graded-synth"),
    "ground.ms_per_call": ("ms", "graded-synth"),
    "csp.nodes": ("count", "graded-synth"),
    "csp.us_per_node": ("us", "graded-synth"),
    "csp.nodes_per_solution": ("count", "graded-synth"),
    "gensolve.ms_per_solve": ("ms", "graded-synth"),
    "archive.ms_per_eval": ("ms", "graded-synth"),
    "archive.history_ms_per_eval": ("ms", "graded-synth"),
    "archive.kb_written_per_eval": ("KB", "graded-synth"),
    "external.runs": ("count", "external-solver"),
    "external.ms_per_run": ("ms", "external-solver"),
    "runner.ms_per_run": ("ms", "external-solver"),
    "runner.verify_us": ("us", "external-solver"),
    "tuner.parallelism": ("ratio", "external-solver"),
    "tuner.self_ms_per_eval": ("ms", "graded-synth"),
    "tuner.friedman_calls": ("count", "graded-synth"),
    "tuner.friedman_ms": ("ms", "graded-synth"),
    "evaluate.self_ms_per_eval": ("ms", "graded-synth"),
    "campaign.self_ms_per_eval": ("ms", "graded-synth"),
    "cli.import_s": ("s", "cli-quickstart"),
    "cli.tune_s": ("s", "cli-quickstart"),
    "cli.resume_s": ("s", "cli-quickstart"),
    "cli.report_s": ("s", "cli-quickstart"),
    "cli.combine_s": ("s", "cli-quickstart"),
    "cli.evaluate_s": ("s", "cli-quickstart"),
    "cli.check_s": ("s", "cli-quickstart"),
    "scoring.borda_ms": ("ms", "cli-quickstart"),
    "solvers.ms_per_run": ("ms", "cli-quickstart"),
}


# -- child processes ---------------------------------------------------------------


class Child:
    """A finished child process: exit code, stdout, clock and peak RSS."""

    def __init__(self, argv: list[str], cwd: Path, log: Path):
        self.argv = argv
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "w") as out:
            self.spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=wl.child_env(), stdout=out,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            killer.start()
            try:
                # wait4 rather than wait: it also reports the child's peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.ended = time.monotonic()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss * 1024 / MB
        self.cpu = (usage.ru_utime, usage.ru_stime)
        self.stdout = log.read_text()

    def last_line(self) -> str:
        """The last line the child printed; fails on a non-zero exit."""
        command = " ".join(self.argv[1:])[:200]
        checks.require(self.code == 0, f"{command} exited {self.code}:\n{self.stdout[-2000:]}")
        return self.stdout.splitlines()[-1]


def worker(workload: str, out: Path, seed: int, log: Path, spans: Path | None = None) -> Child:
    argv = [wl.PYTHON, str(wl.HERE / "worker.py"), workload, str(out), str(seed)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    return Child(argv, wl.ROOT, log)


def tree_mb(path: Path, skip: tuple[str, ...] = ()) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file() and p.name not in skip) / MB


def drop(tree: Path) -> None:
    """Delete a checked round's archives while they are still in the page cache.

    Deleting files that have reached the disk makes the file system discard
    their blocks, and on the 2-core virtual machine this benchmark was tuned
    on (ext4 mounted with ``discard``) a few thousand discards slowed every
    later round by up to 1.8x for minutes. A round's files are younger than
    the kernel's 30 s write-back age when they are dropped here, so almost
    none of them were ever written out. Only a round that failed a check is
    kept, for inspection.
    """
    shutil.rmtree(tree)


def setup_probe(workload: str, log: Path) -> float:
    """Seconds from spawning a fresh interpreter until the program is ready."""
    if workload == "cli-quickstart":
        code = "import time, benchgen.cli; print(time.monotonic())"
    else:
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import worker; "
                "worker.setup(sys.argv[2]); print(time.monotonic())")
    child = Child([wl.PYTHON, "-c", code, str(wl.HERE), workload], wl.ROOT, log)
    return float(child.last_line()) - child.spawned


# -- rounds ----------------------------------------------------------------------
# A round returns wall_s, evals, setup_s (None when the round has no set-up of
# its own), peak_rss_mb, archive_mb, attempted, failed, cpu (user and system
# seconds of its processes), depth and the digest of its deterministic archives.


def check_campaign(workload: str, camp: Path) -> None:
    if workload == "graded-synth":
        checks.check_graded_synth(camp, wl.SYNTH_BAND, wl.ITEM_RANGE)
    else:
        checks.check_external(camp, wl.EXTERNAL_SOLVER_NAME, wl.EXTERNAL_BAND)


def campaign_round(workload: str, rdir: Path, seed: int) -> dict:
    camp = rdir / "camp"
    child = worker(workload, camp, seed, rdir / "worker.log")
    res = json.loads(child.last_line())
    failed = sum(1 for e in checks.evaluations(camp) if e["status"] == "others")
    check_campaign(workload, camp)
    row = {
        "wall_s": res["done"] - res["ready"],
        "evals": res["evals"],
        "setup_s": res["ready"] - child.spawned,
        "peak_rss_mb": child.peak_rss_mb,
        "archive_mb": tree_mb(camp),
        "attempted": res["evals"],
        "failed": failed,
        "cpu": child.cpu,
        "depth": checks.history_depth(camp),
        "digest": checks.digest(camp) if workload == "graded-synth" else None,
    }
    drop(camp)
    return row


def check_cli_outputs(ws: Path, outputs: list[tuple[int, str]], resume: tuple[str, str]) -> None:
    """Check the quick-start workspace and the commands' stdout."""
    codes = [code for code, _ in outputs]
    checks.require(codes == [0] * len(codes), f"cli commands exited {codes}")
    stdout = [text for _, text in outputs]
    checks.check_resume(*resume)
    checks.check_report(ws / "camp_band", stdout[3])
    combined = checks.check_combined(ws / "combined.json", ws, wl.CLI_K)
    checks.check_evaluate(ws / "eval_out", combined, ws)
    checks.check_check(ws / "camp_band", stdout[6])
    checks.check_discriminating(ws / "camp_dis", wl.CLI_DIS_BAND)
    checks.check_report(ws / "camp_dis", stdout[8])


def cli_round(rdir: Path, seed: int) -> dict:
    ws = rdir / "ws"
    wl.write_cli_workspace(ws)
    children, resume = [], []
    for n, (label, argv) in enumerate(wl.cli_commands(seed)):
        if label == "resume":
            resume.append(checks.digest(ws / "camp_band"))
        children.append(Child([wl.PYTHON, "-m", "benchgen.cli", *argv], ws,
                              rdir / "logs" / f"{n}-{label}.out"))
        if label == "resume":
            resume.append(checks.digest(ws / "camp_band"))
    outputs = [(c.code, c.stdout) for c in children]
    failed = sum(1 for code, _ in outputs if code != 0)
    check_cli_outputs(ws, outputs, tuple(resume))
    camps = [ws / "camp_band", ws / "camp_fast", ws / "camp_dis"]
    row = {
        "wall_s": sum(c.ended - c.spawned for c in children),
        "evals": sum(len(checks.evaluations(c)) for c in camps),
        "setup_s": None,
        "peak_rss_mb": max(c.peak_rss_mb for c in children),
        "archive_mb": tree_mb(ws, skip=wl.CLI_INPUTS),
        "attempted": len(outputs),
        "failed": failed,
        "cpu": tuple(sum(c.cpu[i] for c in children) for i in (0, 1)),
        "depth": max(checks.history_depth(c) for c in camps),
        "digest": checks.digest(*camps),
    }
    drop(ws)
    return row


# -- the two kinds of run -----------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float, out: Path) -> tuple[int, int, dict]:
    setups = [setup_probe(workload, out / f"probe{i}.log") for i in range(SETUP_PROBES)]
    rounds: list[dict] = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        rdir = out / f"round{len(rounds) + 1}"
        if workload == "cli-quickstart":
            rounds.append(cli_round(rdir, seed))
        else:
            rounds.append(campaign_round(workload, rdir, seed))
    digests = {r["digest"] for r in rounds}
    checks.require(len(digests) == 1, f"rounds wrote different archives: {digests}")
    if rounds[0]["digest"]:
        print(f"digest {workload} {rounds[0]['digest']}")
    print(f"history depth k = {rounds[0]['depth']}")
    setups += [r["setup_s"] for r in rounds if r["setup_s"] is not None]
    print(f"set-up {', '.join(f'{s:.3f}' for s in setups)} s")
    for n, r in enumerate(rounds, 1):
        user, system = r["cpu"]
        print(f"round {n}: wall {r['wall_s']:.3f} s, {r['evals']} evaluations, "
              f"cpu user {user:.2f} s, system {system:.2f} s")
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "evals_per_s": statistics.median(r["evals"] / r["wall_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "archive_mb": statistics.median(r["archive_mb"] for r in rounds),
    }
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return attempted, failed, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def traced_round(workload: str, rdir: Path, seed: int, traced: bool) -> dict:
    """One in-process round, checked; traced when asked."""
    target = rdir / ("ws" if workload == "cli-quickstart" else "camp")
    spans = rdir / "spans.jsonl" if traced else None
    if workload == "cli-quickstart":
        wl.write_cli_workspace(target)
    res = json.loads(worker(workload, target, seed, rdir / "worker.log", spans).last_line())
    if workload == "cli-quickstart":
        outputs = [(c["code"], c["stdout"]) for c in res["commands"]]
        check_cli_outputs(target, outputs, tuple(res["resume"]))
        res["attempted"] = len(outputs)
        res["depth"] = max(checks.history_depth(target / c) for c in ("camp_band", "camp_fast", "camp_dis"))
    else:
        check_campaign(workload, target)
        res["attempted"] = res["evals"]
        res["depth"] = checks.history_depth(target)
    res["wall_s"] = res["done"] - res["ready"]
    drop(target)
    return res


def import_seconds(log: Path) -> float:
    code = "import time; t = time.perf_counter(); import benchgen.cli; print(time.perf_counter() - t)"
    return float(Child([wl.PYTHON, "-c", code], wl.ROOT, log).last_line())


def trace_run(workload: str, seed: int, out: Path) -> tuple[int, int, dict]:
    # Untraced and traced rounds of the named workload in the order U T T U,
    # so that a steady drift of the machine cancels out of the overhead.
    first = traced_round(workload, out / "untraced1", seed, traced=False)
    traced = {workload: traced_round(workload, out / "trace" / workload, seed, traced=True)}
    again = traced_round(workload, out / "traced2", seed, traced=True)
    last = traced_round(workload, out / "untraced2", seed, traced=False)
    for w in wl.WORKLOADS:
        if w != workload:
            traced[w] = traced_round(w, out / "trace" / w, seed, traced=True)
    on = traced[workload]["wall_s"] + again["wall_s"]
    off = first["wall_s"] + last["wall_s"]
    print(f"tracing overhead on {workload}: {100 * (on / off - 1):+.1f}% "
          f"(two traced rounds {on:.3f} s, two untraced rounds {off:.3f} s)")
    for w, res in traced.items():
        print(f"tracer cost in {w}: {1e3 * res['tracer_s']:.1f} ms "
              f"({100 * res['tracer_s'] / res['wall_s']:.1f}% of its traced wall), from span count")
    for w, res in traced.items():
        print(f"layer self time, {w} (traced wall {res['wall_s']:.3f} s, history depth k = {res['depth']}):")
        for layer, row in sorted(res["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {layer:<10} {row['calls']:>8} calls {1e3 * row['self_s']:>10.1f} ms self")
    measured = {**traced["cli-quickstart"]["metrics"], "cli.import_s": statistics.median(
        import_seconds(out / f"import{i}.log") for i in range(SETUP_PROBES))}
    metrics = {}
    for name, (unit, home) in PER_LAYER.items():
        value = measured[name] if home == "cli-quickstart" else traced[home]["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit} ({home})")
    attempted = sum(r["attempted"] for r in (first, again, last, *traced.values()))
    return attempted, 0, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (wl.SRC / "benchgen" / "__init__.py").is_file():
        print(f"benchgen sources not found under {wl.SRC}", file=sys.stderr)
        return 2

    out = wl.OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # Compile the bytecode once, untimed: users pay that only on first use.
    Child([wl.PYTHON, "-c", "import benchgen.cli"], wl.ROOT, out / "warmup.log")
    try:
        if args.trace:
            attempted, failed, metrics = trace_run(args.workload, args.seed, out)
        else:
            attempted, failed, metrics = timed_run(args.workload, args.seed, args.seconds, out)
        correct = True
    except checks.CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
