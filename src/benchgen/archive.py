"""On-disk campaign archive.

Layout of a campaign directory:

    config.json          campaign metadata (kind, problem, solvers, limits, seed)
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
its next write or at ``close_writer``. With no writer open, each call
writes at once in the calling process.
"""

from __future__ import annotations

import io
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from . import archivewriter
from .errors import ArchiveError
from .runner import RunStatus
from .valuetext import parse_values

if TYPE_CHECKING:
    import subprocess

    from .gensolve import CandidateInstance, SolutionHistory


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
            archive.write_meta(meta)
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

    def open_writer(self) -> None:
        """Start the writer process; per-evaluation writes go to it until
        ``close_writer``.

        The writer keeps this process's stdout, so whoever reads that to its
        end also waits until every write is applied, after a crash too.
        """
        import subprocess

        try:
            self._writer = subprocess.Popen(
                [sys.executable, "-I", "-S", archivewriter.__file__, str(self.root)],
                stdin=subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
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
        """Write ``text`` to ``name`` through the writer, or at once if none
        is open. ``handover`` passes everything buffered on to the writer."""
        data = archivewriter.frame(name, text.encode())
        if self._writer is None:
            try:
                archivewriter.apply(str(self.root), io.BytesIO(data))
            except OSError as exc:
                raise ArchiveError(archivewriter.failure(exc)) from exc
            return
        try:
            self._writer.stdin.write(data)
            if handover:
                self._writer.stdin.flush()
        except BrokenPipeError:
            self.close_writer()  # raises the writer's own reason
            raise ArchiveError(f"archive writer for {self.root} stopped") from None

    @property
    def meta(self) -> dict[str, Any]:
        return json.loads((self.root / "config.json").read_text())

    def write_meta(self, meta: Mapping[str, Any]) -> None:
        """Replace config.json through a temporary file and a rename, so a
        crash leaves either the old or the new metadata whole."""
        tmp = self.root / "config.json.tmp"
        tmp.write_text(json.dumps(dict(meta), indent=2))
        os.replace(tmp, self.root / "config.json")

    @property
    def space_text(self) -> str:
        return (self.root / "space.txt").read_text()

    @property
    def model_text(self) -> str:
        return (self.root / "generator.model").read_text()

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
        return parse_values(path.read_text())

    def instance_sidecar(self, instance_id: str) -> dict[str, Any]:
        """A recorded instance's id, config, sequence and decision values, and
        its evaluation's penalty and status."""
        entry = next((e for e in self.evaluations() if e.get("instance_id") == instance_id), None)
        if entry is None:
            raise ArchiveError(f"unknown instance {instance_id}")
        config_id, space_names = entry["config_id"], self._space_names()
        return {
            "id": instance_id,
            "config_id": config_id,
            "sequence": int(instance_id[len(config_id) + 1:]),
            "decision_values": self._decision_values(instance_id, space_names),
            "penalty": entry["penalty"],
            "status": entry["status"],
        }

    def _space_names(self) -> tuple[str, ...]:
        from .space import parse_space

        return parse_space(self.space_text).names

    def _decision_values(self, instance_id: str, space_names: tuple[str, ...]) -> dict[str, Any]:
        values = self.instance_values(instance_id)
        return {name: v for name, v in values.items() if name not in space_names}

    def instance_ids(self) -> list[str]:
        return sorted(p.stem for p in (self.root / "instances").glob("*.inst"))

    # -- evaluations -------------------------------------------------------

    @property
    def _evals_path(self) -> Path:
        return self.root / "records" / "evals.jsonl"

    def add_evaluation(self, entry: Mapping[str, Any]) -> None:
        """Append the record; it ends an evaluation's writes, so it hands
        them over to the writer."""
        self._write("records/evals.jsonl", json.dumps(dict(entry)) + "\n", handover=True)

    def evaluations(self) -> Iterator[dict[str, Any]]:
        if not self._evals_path.exists():
            return
        with open(self._evals_path) as fh:
            for line in fh:
                if line.strip():
                    yield json.loads(line)

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

    def log_text(self) -> str:
        path = self.root / "tuner.log"
        return path.read_text() if path.exists() else ""

    def save_history(self, history: SolutionHistory) -> None:
        history.save(self.root / "history.json")

    def load_history(self) -> SolutionHistory:
        """The solution history of the recorded evaluations: per
        configuration, how many of its records name an instance.

        ``history.json`` is not read: it is only written when a campaign
        ends, so after a crash it lags the records. The history has no
        cursors, so each configuration's next solve steps past its counted
        solutions first.
        """
        from .gensolve import SolutionHistory

        return SolutionHistory(
            Counter(e["config_id"] for e in self.evaluations() if e.get("instance_id"))
        )

    @property
    def reports_dir(self) -> Path:
        path = self.root / "reports"
        path.mkdir(exist_ok=True)
        return path


def graded_instance_ids(archive: CampaignArchive) -> list[str]:
    """Instance ids classified graded, in archive order."""
    out = []
    for entry in archive.evaluations():
        if entry["status"] == RunStatus.GRADED.value and entry.get("instance_id"):
            out.append(entry["instance_id"])
    return out


def discriminating_entries(archive: CampaignArchive) -> list[dict[str, Any]]:
    """Evaluations classified dis-found (their penalty is negative)."""
    return [e for e in archive.evaluations() if e["status"] == RunStatus.DIS_FOUND.value]
