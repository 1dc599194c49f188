"""On-disk campaign archive.

Layout of a campaign directory:

    config.json          campaign metadata (kind, problem, solvers, limits, seed)
    space.txt          parameter-space text
    generator.model    generator model text
    instances/         <id>.inst canonical text, one file per instance
    records/evals.jsonl  one JSON object per evaluation
    tuner.log          one line per evaluation
    history.json       solution history (negative tables), written when
                       the campaign ends; resume rebuilds the history
                       from evals.jsonl and the .inst files instead
    reports/           outputs of the report subcommand

An instance's decision values are its .inst values minus the parameter
names of space.txt; everything else about it is in its evaluation record.
Older archives also hold an <id>.json sidecar per instance, which is ignored.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator, Mapping

from .errors import ArchiveError
from .gensolve import CandidateInstance, SolutionHistory
from .space import parse_space
from .valuetext import canonical_key, parse_values


class CampaignArchive:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls, root: str | Path, meta: Mapping[str, Any], space_text: str, model_text: str
    ) -> "CampaignArchive":
        archive = cls(root)
        archive.root.mkdir(parents=True, exist_ok=True)
        (archive.root / "instances").mkdir(exist_ok=True)
        (archive.root / "records").mkdir(exist_ok=True)
        (archive.root / "reports").mkdir(exist_ok=True)
        archive.write_meta(meta)
        (archive.root / "space.txt").write_text(space_text)
        (archive.root / "generator.model").write_text(model_text)
        return archive

    @classmethod
    def open(cls, root: str | Path) -> "CampaignArchive":
        archive = cls(root)
        if not (archive.root / "config.json").exists():
            raise ArchiveError(f"{root} is not a campaign archive (no config.json)")
        return archive

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
        (self.root / "instances" / f"{instance.id}.inst").write_text(instance.canonical_text)

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
        config_id, space_names = entry["config_id"], parse_space(self.space_text).names
        return {
            "id": instance_id,
            "config_id": config_id,
            "sequence": int(instance_id[len(config_id) + 1:]),
            "decision_values": self._decision_values(instance_id, space_names),
            "penalty": entry["penalty"],
            "status": entry["status"],
        }

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
        with open(self._evals_path, "a") as fh:
            fh.write(json.dumps(dict(entry)) + "\n")

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
        with open(self.root / "tuner.log", "a") as fh:
            fh.write(line + "\n")

    def log_text(self) -> str:
        path = self.root / "tuner.log"
        return path.read_text() if path.exists() else ""

    def save_history(self, history: SolutionHistory) -> None:
        history.save(self.root / "history.json")

    def load_history(self) -> SolutionHistory:
        """The solution history of the recorded evaluations, from their ``.inst``.

        ``history.json`` is not read: it is only written when a campaign
        ends, so after a crash it lags the records. An ``.inst`` is whole
        before its evaluation is recorded; one without a record is ignored.
        """
        space_names = parse_space(self.space_text).names
        history = SolutionHistory()
        for entry in self.evaluations():
            if entry.get("instance_id"):
                decision = self._decision_values(entry["instance_id"], space_names)
                history.add(entry["config_id"], canonical_key(decision))
        return history

    @property
    def reports_dir(self) -> Path:
        path = self.root / "reports"
        path.mkdir(exist_ok=True)
        return path

