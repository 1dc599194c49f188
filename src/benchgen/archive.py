"""On-disk campaign archive; no other module reads or writes its files.

The commands write their outputs through ``write_file`` too. A file that
cannot be read or written is an ``ArchiveError`` that names it.

Layout of a campaign directory:

    config.json          campaign settings, budget included, written once; a
                       resume runs under them and never rewrites them
    space.txt          parameter-space text
    generator.model    generator model text
    instances/         <id>.inst canonical text, one file per instance
    records/evals.jsonl  one JSON object per evaluation
    tuner.log          one line per evaluation: the race iteration, then its
                       record's fields, with step = block + 1
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
it until its last write, after a crash too. The lock adds no file. A
record's JSON form is its fields, and ``from_jsonable`` reads it back: each
line of ``records/evals.jsonl`` is an ``Evaluation``, and ``evaluations``,
the one reader of the stream, also checks that its ``seq`` is its position.
``append_log`` formats each ``tuner.log`` line from its ``Evaluation``.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from . import archivewriter
from .errors import ArchiveError, ParseError, ValidationError
from .records import Record, from_jsonable, to_jsonable
from .runner import GenOutcome, OracleResult, RunStatus, SolverRecord
from .valuetext import parse_values

if TYPE_CHECKING:
    import subprocess

    from .gensolve import CandidateInstance, SolutionHistory


@contextmanager
def _naming(verb: str, path: str | Path) -> Iterator[None]:
    """Turn an ``OSError`` or a text that is not UTF-8 inside into
    ``ArchiveError("cannot VERB PATH: reason")``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ArchiveError(f"cannot {verb} {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_file(path: str | Path) -> str:
    """The text of file ``path``."""
    with _naming("read", path):
        return Path(path).read_text()


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` as the whole file ``path``."""
    with _naming("write", path):
        Path(path).write_bytes(text.encode())


def lock_archive(root: str | Path) -> int:
    """Create ``root`` if it is missing and lock it; returns the locked
    descriptor. Raises ``ArchiveError`` if another campaign holds it."""
    import fcntl

    with _naming("create a campaign archive at", root):
        Path(root).mkdir(parents=True, exist_ok=True)
        fd = os.open(root, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        raise ArchiveError(f"archive in use: another campaign is writing {root}") from None
    return fd


def make_dir(path: Path) -> Path:
    """Create directory ``path`` if it is missing; ``ArchiveError`` names it if that fails."""
    with _naming("create", path):
        path.mkdir(parents=True, exist_ok=True)
    return path


class Evaluation(Record):
    """A line of ``records/evals.jsonl``; a ``dis-found`` one has ``scores``."""

    seq: int
    block: int
    config_id: str
    assignment: dict[str, Any]
    instance_id: str | None
    penalty: float
    status: RunStatus
    generator_outcome: GenOutcome
    records: dict[str, SolverRecord]
    scores: tuple[float, float] | None
    oracle: OracleResult | None = None
    _may_be_absent = ("oracle",)  # the key is written only when an oracle ran

    def __post_init__(self) -> None:
        if self.status is RunStatus.DIS_FOUND and self.scores is None:
            raise ValidationError("no 'scores'")


class _Named(Record):
    name: str


class Settings(Record):
    """The keys of ``config.json`` that reading an archive needs; a graded
    campaign's solver is read by name only, so no solver is loaded."""

    campaign: str
    problem: str
    solver: _Named | None = None
    _may_be_absent = ("solver",)  # a discriminating campaign names a favoured and a base solver

    def __post_init__(self) -> None:
        if self.campaign not in ("graded", "discriminating"):
            raise ValidationError(f"campaign {self.campaign!r:.40} is not 'graded' or 'discriminating'")
        if self.campaign == "graded" and self.solver is None:
            raise ValidationError("no 'solver'")


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
        with _naming("create a campaign archive at", root):
            archive.root.mkdir(parents=True, exist_ok=True)
            (archive.root / "instances").mkdir(exist_ok=True)
            (archive.root / "records").mkdir(exist_ok=True)
            (archive.root / "reports").mkdir(exist_ok=True)
        write_file(archive.root / "config.json", json.dumps(dict(meta), indent=2))
        write_file(archive.root / "space.txt", space_text)
        write_file(archive.root / "generator.model", model_text)
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

        with _naming("start the archive writer for", self.root):
            self._writer = subprocess.Popen(
                [sys.executable, "-I", "-S", archivewriter.__file__, str(self.root), str(lock)],
                stdin=subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
                pass_fds=(lock,),
            )

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
            meta = json.loads(read_file(path))
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise ArchiveError(f"{path}: not a JSON object")
        return meta

    @property
    def settings(self) -> Settings:
        """The ``Settings`` in ``config.json``; ``ArchiveError`` names a key that does not fit."""
        try:
            return from_jsonable(Settings, self.meta)
        except ValidationError as why:
            raise ArchiveError(f"{self.root / 'config.json'}: {why}") from None

    @property
    def space_text(self) -> str:
        return read_file(self.root / "space.txt")

    @property
    def model_text(self) -> str:
        return read_file(self.root / "generator.model")

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
        sidecar = json.loads(read_file(path))
        sidecar.update(extra)
        write_file(path, json.dumps(sidecar, indent=2))

    def instance_values(self, instance_id: str) -> dict[str, Any]:
        path = self.root / "instances" / f"{instance_id}.inst"
        if not path.exists():
            raise ArchiveError(f"unknown instance {instance_id}")
        try:
            return parse_values(read_file(path))
        except ParseError as exc:
            raise ArchiveError(f"{path}: {exc}") from exc

    # -- evaluations -------------------------------------------------------

    @property
    def _evals_path(self) -> Path:
        return self.root / "records" / "evals.jsonl"

    def add_evaluation(self, record: Evaluation) -> None:
        """Append the record, leaving out ``oracle`` when none ran; it ends an
        evaluation's writes, so it hands them over to the writer."""
        data = {
            key: {name: r.to_jsonable(name) for name, r in v.items()} if key == "records" else to_jsonable(v)
            for key, v in vars(record).items()  # its vars are its fields, in order
            if key != "oracle" or v is not None
        }
        self._write("records/evals.jsonl", json.dumps(data) + "\n", handover=True)

    def evaluations(self) -> Iterator[Evaluation]:
        """The records in order; ``ArchiveError`` at the first line that is
        not a JSON object, does not decode as an ``Evaluation``, or whose
        ``seq`` is not its position."""
        if not self._evals_path.exists():
            return
        position = 0
        # Bytes, so bad UTF-8 fails in json.loads.
        with _naming("read", self._evals_path), open(self._evals_path, "rb") as fh:
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
                try:
                    record = from_jsonable(Evaluation, entry)
                    if record.seq != position:
                        raise ValidationError(f"seq {record.seq} is not the record's position {position}")
                except ValidationError as why:
                    raise ArchiveError(f"{self._evals_path} line {number}: {why}") from None
                yield record

    def drop_torn_record(self) -> None:
        """Cut an unterminated last line of evals.jsonl that does not parse.

        A crash in the middle of ``add_evaluation`` leaves such a line; the
        evaluation it began was never recorded. An unterminated line that
        parses gets its newline back. A bad line anywhere else is left for
        ``evaluations`` to reject.
        """
        if not self._evals_path.exists():
            return
        with _naming("read", self._evals_path):
            data = self._evals_path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1
        try:
            json.loads(data[cut:])
        except ValueError:
            with _naming("write", self._evals_path), open(self._evals_path, "r+b") as fh:
                fh.truncate(cut)
        else:
            with _naming("write", self._evals_path), open(self._evals_path, "ab") as fh:
                fh.write(b"\n")

    def evaluation_count(self) -> int:
        return sum(1 for _ in self.evaluations())

    # -- logs and history ----------------------------------------------------

    def append_log(self, iteration: int, record: Evaluation) -> None:
        """Append the ``tuner.log`` line of ``record``, evaluated in race ``iteration``."""
        self._write("tuner.log", (
            f"iter={iteration} step={record.block + 1} config={record.config_id} penalty={record.penalty!r} "
            f"status={record.status.value} instance={record.instance_id or '-'}\n"
        ))

    def restart_log(self) -> None:
        write_file(self.root / "tuner.log", "")  # a resume logs the replayed prefix again

    def save_history(self, history: SolutionHistory) -> None:
        write_file(self.root / "history.json", json.dumps(history.to_jsonable(), indent=0, sort_keys=True))

    def load_history(self) -> SolutionHistory:
        """The solution history of the recorded evaluations: per
        configuration, how many of its records name an instance.

        ``history.json`` is not read: it is only written when a campaign
        ends, so after a crash it lags the records. The history keeps no
        searches, so each configuration's next solve starts a fresh search
        that steps past its counted solutions first.
        """
        from .gensolve import SolutionHistory

        return SolutionHistory(Counter(e.config_id for e in self.evaluations() if e.instance_id))

    @property
    def reports_dir(self) -> Path:
        return make_dir(self.root / "reports")


def graded_instance_ids(archive: CampaignArchive) -> list[str]:
    """Instance ids classified graded, in archive order."""
    return [e.instance_id for e in archive.evaluations() if e.status is RunStatus.GRADED and e.instance_id]
