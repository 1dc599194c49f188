"""Archive guard: the README quick start writes byte-identical files.

An archive digest is the SHA-256 of ``tuner.log`` then ``records/evals.jsonl``;
a file digest is the SHA-256 of one file. The solvers are ``synthetic:``
ones, whose times are virtual, so the bytes depend only on the seed, the
racing and the verdicts. A change that moves a status, a penalty or a racing
decision moves an archive digest, and one that moves a report row, a score
or a written record moves a file digest.
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


def file_digests(directory: Path, pattern: str = "*") -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob(pattern))
    }


def cli(*argv) -> None:
    assert main([str(arg) for arg in argv]) == 0


def tune(tmp_path: Path, out: str, *flags) -> Path:
    config = tmp_path / "campaign.ini"
    if not config.exists():
        config.write_text(QUICK_START_INI)
        (tmp_path / "knapsack.gen").write_text(QUICK_START_MODEL)
    cli("tune", config, "--out", tmp_path / out, *flags)
    return tmp_path / out


@pytest.mark.parametrize(
    "flags, expected, reports",
    [
        ([], "f727c7e4625fa3ec554a67d02004c41c9d5103b3c2d8a47529bf53349baf3a7e",
         {"graded_times.csv": "2d5fd833cd9104f177078bc57b1294c506339fa7d992d03a5f204c4d9db15873",
          "status_frequencies.csv": "bb2c1948145de56d40fc812bda05fb39e40a7080466353834936adf014e0e61b"}),
        (["--favoured", "fast", "--base", "band", "--t-min", "5", "--t-max", "12"],
         "9cbef4255a60edde093dd0c935869e70ebf521e6551df868f25a1be92d776694",
         {"discrimination.csv": "606b51f589ff041cb196553c695b4128dfc359efeea5cf8d4cc5e8162934f0b6",
          "status_frequencies.csv": "a42f763ebb0571d3e2cf0e4b1358200003cef3ba77c77ed1bb9b4e7753e972ef"}),
    ],
    ids=["graded", "discriminating"],
)
def test_quick_start_archive_digest_is_pinned(tmp_path, capsys, flags, expected, reports):
    out = tune(tmp_path, "camp", *flags)
    assert archive_digest(out) == expected
    cli("report", out)
    capsys.readouterr()
    assert file_digests(out / "reports", "*.csv") == reports


def test_quick_start_evaluate_outputs_are_pinned(tmp_path, capsys):
    band = tune(tmp_path, "camp_band")
    fast = tune(tmp_path, "camp_fast", "--solver", "fast")
    combined = tmp_path / "combined.json"
    cli("combine", band, fast, "--k", 50, "--seed", 1, "--out", combined)
    out = tmp_path / "eval_out"
    cli("evaluate", combined, "--solvers", "band,fast", "--config", tmp_path / "campaign.ini",
        "--t-max", 30, "--mem-limit", "none", "--out", out)
    capsys.readouterr()
    assert file_digests(out) == {
        "borda.json": "965f80cd564840d59813b48b6d86d92167bf320043d203583f785d458adce3e7",
        "combined_evals.jsonl": "2943568aec30a9b4d568fb136a689f42be2f1e848f2deab09b7ae2d89c48aa2e",
        "flags.json": "38154090a88ff66f48e96b8dba9e5cbae95ed50d68d0f767e3eb52073e8a6ebb",
        "pair_scores.csv": "62915b4caadd3287d81308a55b04c5beaad208e68e7ef1d10f99370caec89909",
    }
