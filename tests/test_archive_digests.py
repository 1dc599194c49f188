"""Archive guard: the README quick-start campaigns write byte-identical archives.

Each digest is the SHA-256 of ``tuner.log`` then ``records/evals.jsonl``.
The solvers are ``synthetic:`` ones, whose times are virtual, so the bytes
depend only on the seed, the racing and the verdicts. A change that moves a
status, a penalty or a racing decision moves a digest.
"""

import hashlib
from pathlib import Path

import pytest

from benchgen.cli import main

QUICK_START_INI = """
[space]
cap_t: 1..100

[generator]
model: knapsack.gen

[campaign]
kind = graded
problem = knapsack
solver = band
t_min = 2
t_max = 5
budget = 150
seed = 7
mem_limit = none

[solver.band]
builtin = synthetic:capacity / 10

[solver.fast]
builtin = synthetic:(100 - capacity) / 10
"""

QUICK_START_MODEL = """
var capacity : int 1..100
var weight[3] : int 1..9
var value[3] : int 1..9
constraint capacity = cap_t
"""


def archive_digest(camp: Path) -> str:
    h = hashlib.sha256()
    h.update((camp / "tuner.log").read_bytes())
    h.update((camp / "records" / "evals.jsonl").read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], "f727c7e4625fa3ec554a67d02004c41c9d5103b3c2d8a47529bf53349baf3a7e"),
        (["--favoured", "fast", "--base", "band", "--t-min", "5", "--t-max", "12"],
         "9cbef4255a60edde093dd0c935869e70ebf521e6551df868f25a1be92d776694"),
    ],
    ids=["graded", "discriminating"],
)
def test_quick_start_archive_digest_is_pinned(tmp_path, capsys, flags, expected):
    (tmp_path / "campaign.ini").write_text(QUICK_START_INI)
    (tmp_path / "knapsack.gen").write_text(QUICK_START_MODEL)
    out = tmp_path / "camp"
    assert main(["tune", str(tmp_path / "campaign.ini"), "--out", str(out), *flags]) == 0
    capsys.readouterr()
    assert archive_digest(out) == expected
