"""Replay checked-in ``--json`` reports of the CLI on the sample files.

``tests/golden_reports.json`` maps each command line to its exit code,
stdout and stderr.  Every report must come back byte for byte, so a refactor
of how checks are recorded or serialized cannot change the output unnoticed.

Regenerate (only for a deliberate output change) from the repository root:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from retword.cli import run_command
from retword.substitution import IncidenceMatrix

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_reports.json"

# The argv templates of test_cli.test_every_command_emits_valid_json; "{s}"
# stands for a sample file and ``letters`` names the letters its words use.
TEMPLATES = [
    (["fixed-point", "{s}", "--length", "20"], ""),
    (["spectrum", "{s}"], ""),
    (["return-words", "{s}", "--prefix", "011"], "01"),
    (["return-sub", "{s}", "--prefix", "011"], "01"),
    (["derived", "{s}", "--prefix", "0", "--length", "15"], "0"),
    (["tower", "{s}", "--depth", "6"], ""),
    (["relations", "{s}", "--u", "0", "--v", "01"], "01"),
    (["circularity", "{s}", "--sample-len", "6"], ""),
    (["shared", "--left", "{s}", "--right", "{s}"], ""),
    (["periodic", "{s}", "--period", "01"], "01"),
]

EXTRA = [
    [
        "cobham",
        "--left", "samples/tau4.sub",
        "--right", "samples/sigma4.sub",
        "--coding-left", "id",
        "--coding-right", "phi",
    ],
    # reports a synchronization delay of 0, a falsy witness
    ["circularity", "samples/fib.sub"],
]


def _alphabet(path: Path) -> set[str]:
    for line in path.read_text().splitlines():
        if line.startswith("alphabet ="):
            return set(line.split("=", 1)[1].split())
    raise ValueError(f"{path} has no alphabet line")


def golden_argvs() -> list[list[str]]:
    samples = sorted((ROOT / "samples").glob("*.sub"))
    argvs = []
    for template, letters in TEMPLATES:
        for sample in samples:
            if set(letters) <= _alphabet(sample):
                rel = f"samples/{sample.name}"
                argvs.append([a.format(s=rel) for a in template] + ["--json"])
    return argvs + [argv + ["--json"] for argv in EXTRA]


def run_in_root(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one command run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status, _ = run_command(argv)
    finally:
        os.chdir(cwd)
    return {"exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command_line():
    assert sorted(_load_golden()) == sorted(" ".join(argv) for argv in golden_argvs())


def _case_id(argv: list[str]) -> str:
    return "-".join(a.removeprefix("samples/").removesuffix(".sub").lstrip("-") for a in argv)


@pytest.mark.parametrize("argv", golden_argvs(), ids=_case_id)
def test_report_matches_golden(argv, monkeypatch):
    monkeypatch.delenv("REPO_PREFIX_CAP", raising=False)
    assert run_in_root(argv) == _load_golden()[" ".join(argv)]


def _no_matrix_power(matrix, n):
    raise AssertionError("a matrix power was formed")


@pytest.mark.parametrize("argv", [a for a in golden_argvs() if a[0] == "relations"], ids=_case_id)
def test_relations_report_forms_no_matrix_power(argv, monkeypatch):
    """The matrix split reads M_u^l off the images of tau_u: with the dense
    matrix power refused, every ``relations`` report is still its golden one."""
    monkeypatch.delenv("REPO_PREFIX_CAP", raising=False)
    monkeypatch.setattr(IncidenceMatrix, "__pow__", _no_matrix_power)
    assert run_in_root(argv) == _load_golden()[" ".join(argv)]


if __name__ == "__main__":
    os.environ.pop("REPO_PREFIX_CAP", None)
    golden = {" ".join(argv): run_in_root(argv) for argv in golden_argvs()}
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
