"""On-disk campaign archive.

Layout of a campaign directory:

    config.json          campaign settings, budget included, written once; a
                       resume runs under them and never rewrites them
    space.txt          parameter-space text
    generator.model    generator model text
    instances/         <id>.inst canonical text, one file per instance
    records/evals.jsonl  one JSON object per evaluation
    tuner.log          one line per evaluation
    history.json       solution count per configuration, written when the
                       campaign ends and never read; resume counts the
                       recorded instances in evals.jsonl instead
    reports/           outputs of the report subcommand

An instance's decision values are its .inst values minus the parameter
names of space.txt; everything else about it is in its evaluation record.
Older archives also hold an <id>.json sidecar per instance, which is ignored.

A campaign's per-evaluation writes (``add_instance``, ``add_evaluation``,
``append_log``) go, in evaluation order, to one writer process that
``open_writer`` starts (see ``archivewriter``); each evaluation's writes are
handed over once its record is sent, and ``close_writer`` waits until they
are all on disk. The writer applies them in order, so an ``.inst`` is whole
before its record, and it applies everything it was handed even if the
campaign crashes. If a write fails, the writer stops there, so no later
record lands, and the campaign gets an ``ArchiveError`` naming the path at
its next write or at ``close_writer``.

One campaign at a time writes an archive: it holds an exclusive ``flock``
on the directory (``lock_archive``) until it returns, and its writer holds
it until its last write, after a crash too. The lock adds no file. Every
record of ``records/evals.jsonl`` carries its 1-based position as ``seq``,
and ``evaluations``, the one reader of the stream, checks it.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from . import archivewriter
from .errors import ArchiveError, ParseError
from .runner import RunStatus
from .valuetext import parse_values

if TYPE_CHECKING:
    import subprocess

    from .gensolve import CandidateInstance, SolutionHistory

# A tuple, not a set: an unhashable status in a corrupt line is compared, not hashed.
_RUN_STATUSES = tuple(status.value for status in RunStatus)


def lock_archive(root: str | Path) -> int:
    """Create ``root`` if it is missing and lock it; returns the locked
    descriptor. Raises ``ArchiveError`` if another campaign holds it."""
    import fcntl

    try:
        Path(root).mkdir(parents=True, exist_ok=True)
        fd = os.open(root, os.O_RDONLY)
    except OSError as exc:
        raise ArchiveError(f"cannot create a campaign archive at {root}: {exc}") from exc
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        raise ArchiveError(f"archive in use: another campaign is writing {root}") from None
    return fd


def make_dir(path: Path) -> Path:
    """Create directory ``path`` if it is missing; ``ArchiveError`` names it if that fails."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ArchiveError(f"cannot create {path}: {exc.strerror or exc}") from exc
    return path


class CampaignArchive:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._writer: subprocess.Popen | None = None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls, root: str | Path, meta: Mapping[str, Any], space_text: str, model_text: str
    ) -> "CampaignArchive":
        archive = cls(root)
        try:
            archive.root.mkdir(parents=True, exist_ok=True)
            (archive.root / "instances").mkdir(exist_ok=True)
            (archive.root / "records").mkdir(exist_ok=True)
            (archive.root / "reports").mkdir(exist_ok=True)
            (archive.root / "config.json").write_text(json.dumps(dict(meta), indent=2))
            (archive.root / "space.txt").write_text(space_text)
            (archive.root / "generator.model").write_text(model_text)
        except OSError as exc:
            raise ArchiveError(f"cannot create a campaign archive at {root}: {exc}") from exc
        return archive

    @classmethod
    def open(cls, root: str | Path) -> "CampaignArchive":
        archive = cls(root)
        if not (archive.root / "config.json").exists():
            raise ArchiveError(f"{root} is not a campaign archive (no config.json)")
        return archive

    def open_writer(self, lock: int) -> None:
        """Start the writer process; per-evaluation writes go to it until
        ``close_writer``.

        The writer keeps this process's stdout, so whoever reads that to its
        end also waits until every write is applied, after a crash too. It
        keeps ``lock`` (from ``lock_archive``) open until its last write.
        """
        import subprocess

        try:
            self._writer = subprocess.Popen(
                [sys.executable, "-I", "-S", archivewriter.__file__, str(self.root), str(lock)],
                stdin=subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
                pass_fds=(lock,),
            )
        except OSError as exc:
            raise ArchiveError(f"cannot start the archive writer for {self.root}: {exc}") from exc

    def close_writer(self) -> None:
        """Wait until the writer has applied every write handed to it.

        Raises ``ArchiveError`` if a write failed. Does nothing when no
        writer is open.
        """
        writer, self._writer = self._writer, None
        if writer is None:
            return
        _, err = writer.communicate()
        if writer.returncode:
            reason = err.decode().strip() or f"exit status {writer.returncode}"
            raise ArchiveError(f"archive writer for {self.root} stopped: {reason}")

    def _write(self, name: str, text: str, handover: bool = False) -> None:
        """Write ``text`` to ``name`` through the writer that ``open_writer``
        started. ``handover`` passes everything buffered on to the writer."""
        assert self._writer is not None, "archive writes go through open_writer"
        try:
            self._writer.stdin.write(archivewriter.frame(name, text.encode()))
            if handover:
                self._writer.stdin.flush()
        except BrokenPipeError:
            self.close_writer()  # raises the writer's own reason
            raise ArchiveError(f"archive writer for {self.root} stopped") from None

    @property
    def meta(self) -> dict[str, Any]:
        path = self.root / "config.json"
        try:
            meta = json.loads(self._read_text(path))
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise ArchiveError(f"{path}: not a JSON object")
        return meta

    def _read_text(self, path: Path) -> str:
        try:
            return path.read_text()
        except OSError as exc:
            raise ArchiveError(f"cannot read {path}: {exc.strerror or exc}") from exc

    @property
    def space_text(self) -> str:
        return self._read_text(self.root / "space.txt")

    @property
    def model_text(self) -> str:
        return self._read_text(self.root / "generator.model")

    # -- instances ---------------------------------------------------------

    def add_instance(self, instance: CandidateInstance) -> None:
        """Write ``<id>.inst``; it is whole before its evaluation is recorded."""
        self._write(f"instances/{instance.id}.inst", instance.canonical_text)

    def annotate_instance(self, instance_id: str, extra: Mapping[str, Any]) -> None:
        """Merge ``extra`` into an older archive's ``<id>.json`` sidecar.

        Nothing calls this; it stays while perfbench/tracing.py wraps it by name.
        """
        path = self.root / "instances" / f"{instance_id}.json"
        if not path.exists():
            raise ArchiveError(f"unknown instance {instance_id}")
        sidecar = json.loads(path.read_text())
        sidecar.update(extra)
        path.write_text(json.dumps(sidecar, indent=2))

    def instance_values(self, instance_id: str) -> dict[str, Any]:
        path = self.root / "instances" / f"{instance_id}.inst"
        if not path.exists():
            raise ArchiveError(f"unknown instance {instance_id}")
        try:
            return parse_values(self._read_text(path))
        except (ParseError, UnicodeDecodeError) as exc:
            raise ArchiveError(f"{path}: {exc}") from exc

    # -- evaluations -------------------------------------------------------

    @property
    def _evals_path(self) -> Path:
        return self.root / "records" / "evals.jsonl"

    def add_evaluation(self, entry: Mapping[str, Any]) -> None:
        """Append the record; it ends an evaluation's writes, so it hands
        them over to the writer."""
        self._write("records/evals.jsonl", json.dumps(dict(entry)) + "\n", handover=True)

    def evaluations(self) -> Iterator[dict[str, Any]]:
        """The records in order; ``ArchiveError`` at the first line that is
        not a JSON object, whose ``seq`` is not its position (as when two
        campaigns wrote the stream), that lacks a ``config_id``, ``status``
        or ``penalty`` (or, when ``dis-found``, its ``scores``), or whose
        ``status`` is not a ``RunStatus`` value."""
        if not self._evals_path.exists():
            return
        position = 0
        with open(self._evals_path, "rb") as fh:  # bytes, so bad UTF-8 fails in json.loads
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    entry = None
                if not isinstance(entry, dict):
                    raise ArchiveError(f"{self._evals_path} line {number}: not a JSON object")
                position += 1
                needed = ["config_id", "status", "penalty"]
                if entry.get("status") == RunStatus.DIS_FOUND.value:
                    needed.append("scores")  # the discrimination table reads them
                missing = [key for key in needed if entry.get(key) is None]
                if entry.get("seq") != position:
                    why = f"seq {entry.get('seq')!r} is not the record's position {position}"
                elif missing:
                    why = f"no {missing[0]!r}"
                elif entry["status"] not in _RUN_STATUSES:
                    why = f"status {entry['status']!r} is not a run status"
                else:
                    yield entry
                    continue
                raise ArchiveError(f"{self._evals_path} line {number}: {why}")

    def drop_torn_record(self) -> None:
        """Cut an unterminated last line of evals.jsonl that does not parse.

        A crash in the middle of ``add_evaluation`` leaves such a line; the
        evaluation it began was never recorded. An unterminated line that
        parses gets its newline back. A bad line anywhere else is left for
        ``evaluations`` to reject.
        """
        if not self._evals_path.exists():
            return
        data = self._evals_path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1
        try:
            json.loads(data[cut:])
        except ValueError:
            with open(self._evals_path, "r+b") as fh:
                fh.truncate(cut)
        else:
            with open(self._evals_path, "ab") as fh:
                fh.write(b"\n")

    def evaluation_count(self) -> int:
        return sum(1 for _ in self.evaluations())

    # -- logs and history ----------------------------------------------------

    def append_log(self, line: str) -> None:
        self._write("tuner.log", line + "\n")

    def save_history(self, history: SolutionHistory) -> None:
        history.save(self.root / "history.json")

    def load_history(self) -> SolutionHistory:
        """The solution history of the recorded evaluations: per
        configuration, how many of its records name an instance.

        ``history.json`` is not read: it is only written when a campaign
        ends, so after a crash it lags the records. The history keeps no
        searches, so each configuration's next solve starts a fresh search
        that steps past its counted solutions first.
        """
        from .gensolve import SolutionHistory

        return SolutionHistory(
            Counter(e["config_id"] for e in self.evaluations() if e.get("instance_id"))
        )

    @property
    def reports_dir(self) -> Path:
        return make_dir(self.root / "reports")


def graded_instance_ids(archive: CampaignArchive) -> list[str]:
    """Instance ids classified graded, in archive order."""
    out = []
    for entry in archive.evaluations():
        if entry["status"] == RunStatus.GRADED.value and entry.get("instance_id"):
            out.append(entry["instance_id"])
    return out
