"""Execution of external solver commands under wall-clock and memory limits.

Commands are given as templates with ``{model}``, ``{instance}``,
``{time_limit_ms}`` and optional ``{seed}`` placeholders. Output follows
the MiniZinc text convention: each solution block ends with a line of ten
dashes, a completed search prints ten equals signs, and infeasibility is
reported as ``=====UNSATISFIABLE=====``. A line ``objective = <int>``
inside a block reports that solution's objective. ``run_external_command``
turns that output into the ``runner.SolverRecord`` of the run.

The memory cap reaches the command through a limiter prefix: the
configured one, or ``MEM_LIMITER``. ``run_dir`` gives each run its
working directory, kept under a base directory or removed after the run.
"""

from __future__ import annotations

import math
import os
import shlex
import signal
import string
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterator

from .errors import ParseError, ValidationError
from .runner import SolverRecord, Status
from .valuetext import parse_values

SOLUTION_SEP = "-" * 10
COMPLETE_MARK = "=" * 10
UNSAT_MARK = "=====UNSATISFIABLE====="

KILL_GRACE_SECONDS = 2.0

REQUIRED_PLACEHOLDERS = ("model", "instance", "time_limit_ms")

# Limiter prefix used when none is configured: caps the address space
# (RLIMIT_AS, in KB for ulimit) and execs the command. A cap the system
# refuses is skipped, so the command still runs.
MEM_LIMITER = "sh -c 'ulimit -v $(({mem_limit_bytes} / 1024)) 2>/dev/null; exec \"$@\"' sh"


# What str.format and shlex.split raise on a malformed template or prefix:
# an unknown {name}, a stray brace, a bad field or format spec, an open quote.
_MALFORMED = (KeyError, IndexError, AttributeError, TypeError, ValueError)


def _argv(template: str, model: str, instance: str, time_limit_ms: int, seed: int) -> list[str]:
    return shlex.split(
        template.format(model=model, instance=instance, time_limit_ms=time_limit_ms, seed=seed)
    )


def validate_command_template(template: str) -> None:
    """Raise ValidationError unless the template formats with sample values,
    splits as a command line and has a field for each required placeholder."""
    try:
        _argv(template, "problem.model", "instance.inst", 1000, 0)
    except _MALFORMED as err:
        raise ValidationError(f"bad command template {template!r}: {err!r}") from None
    fields = {name for _, name, _, _ in string.Formatter().parse(template)}
    missing = ["{%s}" % name for name in REQUIRED_PLACEHOLDERS if name not in fields]
    if missing:
        raise ValidationError(f"command template missing placeholders: {missing}")


def _parse_blocks(
    lines: list[tuple[float, str]]
) -> tuple[list[tuple[float, int]], tuple[int | None, str] | None, bool, bool]:
    """Split timed output lines into the ``(stamp, objective)`` trace of the
    solution blocks, the last block's objective and payload text (None if
    no block ended), and whether the completion and the infeasibility
    markers were printed."""
    trace: list[tuple[float, int]] = []
    last: tuple[int | None, str] | None = None
    marks: set[str] = set()
    current: list[str] = []
    objective: int | None = None
    for stamp, raw in lines:
        line = raw.rstrip("\n")
        stripped = line.strip()
        name, eq, rhs = stripped.partition("=")
        if stripped in (COMPLETE_MARK, UNSAT_MARK):
            marks.add(stripped)
        elif stripped == SOLUTION_SEP:
            if objective is not None:
                trace.append((stamp, objective))
            last, current, objective = (objective, "\n".join(current)), [], None
        elif eq and name.strip() == "objective":
            try:
                objective = int(rhs)
            except ValueError:  # not an objective: a payload line
                current.append(line)
        elif stripped and not stripped.startswith("%"):
            current.append(line)
    return trace, last, COMPLETE_MARK in marks, UNSAT_MARK in marks


def run_external_command(
    template: str,
    model_path: str,
    instance_path: str,
    time_limit: float,
    seed: int = 0,
    mem_limit: int | None = None,
    limiter_prefix: str | None = None,
    log_path: str | Path | None = None,
) -> SolverRecord:
    """Spawn the command, enforce the deadline, and parse its output.

    Never raises: failures map to a record with ``Status.ERROR``. A run
    killed at the limit is a ``Status.TIMEOUT`` record that keeps the last
    block it printed, so that answer can still be verified and scored. The
    clock runs from spawn until the command's own exit is reaped, so
    translation overhead inside the command is included; then every process
    left in the run's process group is killed. Output that is not UTF-8 is
    decoded with replacement characters. With ``log_path`` set, the
    timestamped stdout is written there afterwards, closed by a line with
    the exit code, the wall time and the command's user plus system CPU
    seconds. ``mem_limit`` is applied by ``limiter_prefix``, or by
    ``MEM_LIMITER`` when no prefix is set.
    """
    if not math.isfinite(time_limit):
        return SolverRecord(Status.ERROR, 0.0, note=f"time limit {time_limit} s is not finite")
    try:
        argv = _argv(template, model_path, instance_path, int(time_limit * 1000), seed)
    except _MALFORMED as err:
        return SolverRecord(Status.ERROR, 0.0, note=f"bad command template: {err!r}")
    if not limiter_prefix and mem_limit is not None:
        limiter_prefix = MEM_LIMITER
    if limiter_prefix:
        try:
            prefix = limiter_prefix.format(
                mem_limit_bytes=mem_limit or 0,
                mem_limit_mb=(mem_limit or 0) // (1024 * 1024),
            )
            argv = shlex.split(prefix) + argv
        except _MALFORMED as err:
            return SolverRecord(Status.ERROR, 0.0, note=f"bad limiter prefix: {err!r}")

    start = time.monotonic()
    timed_lines: list[tuple[float, str]] = []
    try:
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            encoding="utf-8",
            errors="replace",  # a stray byte must not end the reader
            start_new_session=True,
        )
    except OSError as err:
        return SolverRecord(Status.ERROR, time.monotonic() - start, note=f"spawn failed: {err}")

    def pump() -> None:
        assert proc.stdout is not None
        with proc.stdout:
            for line in proc.stdout:
                timed_lines.append((time.monotonic() - start, line))

    def kill_group() -> None:
        with suppress(ProcessLookupError, PermissionError):  # nothing is left that this process may kill
            os.killpg(proc.pid, signal.SIGKILL)  # the run ends with its solver, children and all

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    deadline = threading.Timer(time_limit, kill_group)
    deadline.start()
    # A blocking wait returns as the command exits; Popen.wait polls.
    _, wait_status, usage = os.wait4(proc.pid, 0)
    elapsed = time.monotonic() - start
    deadline.cancel()
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    killed = proc.returncode == -signal.SIGKILL and elapsed >= time_limit  # by the deadline
    kill_group()
    reader.join(timeout=KILL_GRACE_SECONDS)  # a grandchild in a session of its own may hold the pipe

    if log_path is not None:
        try:
            with open(log_path, "w") as fh:
                fh.write(f"# {' '.join(argv)}\n")
                for stamp, line in timed_lines:
                    fh.write(f"[{stamp:9.3f}] {line.rstrip()}" + "\n")
                fh.write(
                    f"# exit={proc.returncode} killed={killed} elapsed={elapsed:.3f} "
                    f"cpu={usage.ru_utime + usage.ru_stime:.3f}\n"
                )
        except OSError:
            pass

    trace, last, complete, unsat = _parse_blocks(timed_lines)
    # The last block is the run's answer; its solution is None if unparseable.
    objective, payload = last or (None, None)
    solution, note = None, ""
    try:
        solution = None if payload is None else parse_values(payload)
    except ParseError as err:
        note = f"unparseable solution block: {err}"

    if killed:
        return SolverRecord(
            Status.TIMEOUT, elapsed, objective, solution=solution, trace=trace, note=note
        )
    if proc.returncode != 0:
        return SolverRecord(Status.ERROR, elapsed, trace=trace, note=f"exit code {proc.returncode}")
    if unsat:
        return SolverRecord(Status.UNSAT, elapsed)
    if solution is not None:
        return SolverRecord(Status.SAT, elapsed, objective, complete, solution, trace=trace)
    return SolverRecord(Status.ERROR, elapsed, trace=trace, note=note or "no parseable solver output")


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
