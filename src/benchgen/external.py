"""Execution of external solver commands under wall-clock and memory limits.

Commands are given as templates with ``{model}``, ``{instance}``,
``{time_limit_ms}`` and optional ``{seed}`` placeholders. Output follows
the MiniZinc text convention: each solution block ends with a line of ten
dashes, a completed search prints ten equals signs, and infeasibility is
reported as ``=====UNSATISFIABLE=====``. A line ``objective = <int>``
inside a block reports that solution's objective.

The memory cap reaches the command through a limiter prefix: the
configured one, or ``MEM_LIMITER``. ``run_dir`` gives each run its
working directory, kept under a base directory or removed after the run.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from .errors import ParseError, ValidationError
from .solvers import SolverOutcome
from .valuetext import parse_values

SOLUTION_SEP = "-" * 10
COMPLETE_MARK = "=" * 10
UNSAT_MARK = "=====UNSATISFIABLE====="

KILL_GRACE_SECONDS = 2.0

REQUIRED_PLACEHOLDERS = ("{model}", "{instance}", "{time_limit_ms}")

# Limiter prefix used when none is configured: caps the address space
# (RLIMIT_AS, in KB for ulimit) and execs the command. A cap the system
# refuses is skipped, so the command still runs.
MEM_LIMITER = "sh -c 'ulimit -v $(({mem_limit_bytes} / 1024)) 2>/dev/null; exec \"$@\"' sh"


def validate_command_template(template: str) -> None:
    missing = [p for p in REQUIRED_PLACEHOLDERS if p not in template]
    if missing:
        raise ValidationError(f"command template missing placeholders: {missing}")


def _parse_blocks(
    lines: list[tuple[float, str]]
) -> tuple[list[tuple[float, int | None, dict[str, Any] | None, str | None]], bool, bool]:
    """Split timed output lines into solution blocks and end markers."""
    blocks: list[tuple[float, int | None, dict[str, Any] | None, str | None]] = []
    complete = False
    unsat = False
    current: list[str] = []
    objective: int | None = None
    for stamp, raw in lines:
        line = raw.rstrip("\n")
        stripped = line.strip()
        if stripped == UNSAT_MARK:
            unsat = True
            continue
        if stripped == COMPLETE_MARK:
            complete = True
            continue
        if stripped == SOLUTION_SEP:
            payload: dict[str, Any] | None
            note: str | None = None
            try:
                payload = parse_values("\n".join(current)) if current else {}
            except ParseError as err:
                payload = None
                note = f"unparseable solution block: {err}"
            blocks.append((stamp, objective, payload, note))
            current = []
            objective = None
            continue
        if stripped.startswith("objective") and "=" in stripped:
            name, _, rhs = stripped.partition("=")
            if name.strip() == "objective":
                try:
                    objective = int(rhs.strip())
                    continue
                except ValueError:
                    pass
        if stripped and not stripped.startswith("%"):
            current.append(line)
    return blocks, complete, unsat


def run_external_command(
    template: str,
    model_path: str,
    instance_path: str,
    time_limit: float,
    seed: int = 0,
    mem_limit: int | None = None,
    limiter_prefix: str | None = None,
    log_path: str | Path | None = None,
) -> SolverOutcome:
    """Spawn the command, enforce the deadline, and parse its output.

    Never raises: failures map to an ``error`` result. The clock starts at
    spawn, so translation overhead inside the command is included. With
    ``log_path`` set, the timestamped stdout is written there afterwards.
    ``mem_limit`` is applied by ``limiter_prefix``, or by ``MEM_LIMITER``
    when no prefix is set.
    """
    try:
        command = template.format(
            model=model_path,
            instance=instance_path,
            time_limit_ms=int(time_limit * 1000),
            seed=seed,
        )
    except (KeyError, IndexError) as err:
        return SolverOutcome("error", 0.0, note=f"bad command template: {err!r}")
    argv = shlex.split(command)
    if not limiter_prefix and mem_limit is not None:
        limiter_prefix = MEM_LIMITER
    if limiter_prefix:
        prefix = limiter_prefix.format(
            mem_limit_bytes=mem_limit or 0,
            mem_limit_mb=(mem_limit or 0) // (1024 * 1024),
        )
        argv = shlex.split(prefix) + argv

    start = time.monotonic()
    timed_lines: list[tuple[float, str]] = []
    try:
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
    except OSError as err:
        return SolverOutcome("error", time.monotonic() - start, note=f"spawn failed: {err}")

    def pump() -> None:
        assert proc.stdout is not None
        with proc.stdout:
            for line in proc.stdout:
                timed_lines.append((time.monotonic() - start, line))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()

    killed = False
    try:
        proc.wait(timeout=time_limit)
    except subprocess.TimeoutExpired:
        killed = True
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            proc.kill()
        proc.wait()
    reader.join(timeout=KILL_GRACE_SECONDS)
    elapsed = time.monotonic() - start

    if log_path is not None:
        try:
            with open(log_path, "w") as fh:
                fh.write(f"# {' '.join(argv)}\n")
                for stamp, line in timed_lines:
                    fh.write(f"[{stamp:9.3f}] {line.rstrip()}" + "\n")
                fh.write(f"# exit={proc.returncode} killed={killed} elapsed={elapsed:.3f}\n")
        except OSError:
            pass

    blocks, complete, unsat = _parse_blocks(timed_lines)
    trace = [(stamp, obj) for stamp, obj, _, _ in blocks if obj is not None]

    if killed:
        result = SolverOutcome("timeout", elapsed, trace=trace)
        if blocks:
            stamp, obj, payload, note = blocks[-1]
            result.objective = obj
            result.solution = payload
            result.note = note or ""
        return result
    if proc.returncode != 0:
        return SolverOutcome(
            "error", elapsed, trace=trace, note=f"exit code {proc.returncode}"
        )
    if unsat:
        return SolverOutcome("unsat", elapsed, optimal=False)
    if blocks:
        stamp, obj, payload, note = blocks[-1]
        if payload is None:
            return SolverOutcome("error", elapsed, trace=trace, note=note or "bad block")
        return SolverOutcome(
            "sat", elapsed, objective=obj, optimal=complete, solution=payload, trace=trace
        )
    return SolverOutcome("error", elapsed, note="no parseable solver output")


@contextmanager
def run_dir(base: str | Path | None = None) -> Iterator[Path]:
    """Fresh working directory for one external run.

    Under ``base`` the directory is kept. Without ``base`` it is a temporary
    directory, removed when the run ends; a failed removal is ignored.
    """
    if base is None:
        with tempfile.TemporaryDirectory(prefix="run_", ignore_cleanup_errors=True) as tmp:
            yield Path(tmp)
    else:
        Path(base).mkdir(parents=True, exist_ok=True)
        yield Path(tempfile.mkdtemp(prefix="run_", dir=base))
