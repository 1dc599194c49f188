"""The campaign, the generator stack, the scoring and the report code touch no file.

Every read and write of an archive's files goes through ``benchgen.archive``,
so a file that cannot be read or written is reported the same way by every
command. This test parses the modules that must leave files to it and fails
on any call that opens, reads or writes one.
"""

import ast
from pathlib import Path

import pytest

import benchgen

SRC = Path(benchgen.__file__).resolve().parent
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_calls(module: str) -> list[str]:
    path = SRC / f"{module}.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in FILE_CALLS:
            continue
        if name == "open" and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "CampaignArchive":
            continue  # opens an archive through the archive module
        found.append(f"{path.name} line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("module", ["campaign", "gensolve", "tuner", "evaluate", "csp", "ground", "scoring", "report"])
def test_module_reads_and_writes_no_file(module):
    assert file_calls(module) == []


def test_the_check_sees_the_file_calls_of_the_archive_module():
    assert {call.rsplit(": ", 1)[1] for call in file_calls("archive")} >= {"open", "read_text", "write_bytes"}
