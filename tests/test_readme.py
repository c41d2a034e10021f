"""The README's examples run as written.

The library quick start prints exactly what the comments on its ``print``
lines say, and the ``cobham`` example prints the check lines shown under it.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from retword.cli import run_command

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _fenced(after: str, lang: str = "") -> str:
    """The body of the first fenced block opened with ``lang`` after the heading ``after``."""
    start = README.index(after)
    match = re.compile(rf"^```{lang}\n(.*?)^```", re.S | re.M).search(README, start)
    assert match is not None, f"no fenced block after {after!r}"
    return match.group(1)


def test_quick_start_prints_its_comments():
    code = _fenced("## Library quick start", "python")
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(expected) == 6
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_cobham_example_prints_its_check_lines(monkeypatch):
    lines = _fenced("### Example: dependence of dominant eigenvalues").replace("\\\n", " ").splitlines()
    argv = shlex.split(lines[0].removeprefix("$ "))
    assert argv[0] == "retword"
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status, _ = run_command(argv[1:])
    assert status == 0
    checks = [line for line in out.getvalue().splitlines() if line.startswith("  [")]
    assert checks == [line for line in lines if line.startswith("  [")]
    assert any(line.startswith("  [FOUND] multiplicative-dependence") for line in checks)
