import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import retword
import retword.cli
from retword.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    run_command,
)
from retword.errors import InternalInconsistencyError
from retword.substitution import identity_morphism, morphic_image_prefix, parse_substitution

FIB = """
alphabet = 0 1
start = 0
0 -> 0 1
1 -> 0
"""

MORSE = """
alphabet = 0 1
start = 0
0 -> 0 1
1 -> 1 0
"""

TAU4 = """
alphabet = a b
start = a
a -> a b a b
b -> a b b b
"""

SIGMA4 = """
alphabet = a b c
start = a
a -> a b a b
b -> a c c c
c -> a b b c
coding phi: a -> a, b -> b, c -> b
"""

CONST3 = """
alphabet = a b c
start = a
a -> a b c
b -> b c a
c -> c a b
"""


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in [
        ("fib", FIB),
        ("morse", MORSE),
        ("tau4", TAU4),
        ("sigma4", SIGMA4),
        ("const3", CONST3),
    ]:
        path = tmp_path / f"{name}.sub"
        path.write_text(text)
        out[name] = str(path)
    return out


def test_fixed_point_command(files, capsys):
    status, report = run_command(["fixed-point", files["fib"], "--length", "13"])
    assert status == EXIT_OK
    assert report.payload["data"]["prefix"] == "0100101001001"
    assert "0100101001001" in capsys.readouterr().out


def test_spectrum_command_morse(files, capsys):
    status, report = run_command(["spectrum", files["morse"]])
    assert status == EXIT_OK
    data = report.payload["data"]
    assert data["spectrum"]["char_poly_coeffs"] == [0, -2, 1]
    assert [r for r, _ in data["spectrum"]["exact_roots"]] == ["0/1", "2/1"]
    assert data["stripped_spectrum"]["char_poly_coeffs"] == [-2, 1]


def test_return_sub_command(files):
    status, report = run_command(["return-sub", files["fib"], "--prefix", "01"])
    assert status == EXIT_OK
    assert report.payload["data"]["equals_original_after_renaming"] is True
    assert report.payload["checks"][0]["outcome"] == "pass"


def test_return_words_command(files):
    status, report = run_command(["return-words", files["fib"], "--prefix", "0"])
    assert status == EXIT_OK
    assert report.payload["data"]["return_words"] == ["01", "0"]


def test_derived_command(files):
    status, report = run_command(["derived", files["morse"], "--prefix", "011", "--length", "20"])
    assert status == EXIT_OK
    assert len(report.payload["data"]["derived_prefix"]) == 20


def test_tower_command(files):
    status, report = run_command(["tower", files["morse"], "--depth", "8"])
    assert status == EXIT_OK
    found = [c for c in report.payload["checks"] if c["outcome"] == "found"]
    assert found and found[0]["witness"] == [2, 3]


def test_tower_budget_exhausted(files):
    status, report = run_command(["tower", files["morse"], "--depth", "1"])
    assert status == EXIT_BUDGET
    assert any(c["outcome"] == "absent" for c in report.payload["checks"])


def test_relations_command(files):
    status, report = run_command(["relations", files["fib"], "--u", "0", "--v", "01"])
    assert status == EXIT_OK
    assert all(c["outcome"] == "pass" for c in report.payload["checks"])


def test_circularity_command(files):
    status, report = run_command(["circularity", files["fib"], "--sample-len", "6"])
    assert status == EXIT_OK
    outcomes = {c["name"]: c for c in report.payload["checks"]}
    assert outcomes["injectivity-prefix"]["outcome"] == "found"
    assert outcomes["synchronization-delay"]["outcome"] == "found"


def test_shared_command(files):
    status, report = run_command(["shared", "--left", files["fib"], "--right", files["fib"]])
    assert status == EXIT_OK


def test_cobham_command_quad_pair(files):
    status, report = run_command(
        [
            "cobham",
            "--left", files["tau4"],
            "--right", files["sigma4"],
            "--coding-left", "id",
            "--coding-right", "phi",
            "--bound", "12",
        ]
    )
    assert status == EXIT_OK
    checks = {c["name"]: c for c in report.payload["checks"]}
    assert checks["coded-fixed-points-agree"]["outcome"] == "pass"
    witness = checks["multiplicative-dependence"]["witness"]
    assert (witness["m"], witness["n"]) == (1, 1)
    assert witness["value"] == "4/1"
    assert report.payload["data"]["dominant_left"]["exact"] is True


def test_cobham_absent_reports_bound(files):
    status, report = run_command(
        ["cobham", "--left", files["morse"], "--right", files["const3"], "--bound", "12"]
    )
    # the coded fixed points differ, so the gate fails before any search
    assert status == EXIT_CHECK_FAILED


def test_cobham_absent_on_periodic_pair(tmp_path):
    """Two substitutions of (ab)^omega with dominants 2 and 3: the gate passes
    and the dependence search must come back empty, reporting its bound."""
    two = tmp_path / "two.sub"
    two.write_text("alphabet = a b\nstart = a\na -> a b\nb -> a b\n")
    three = tmp_path / "three.sub"
    three.write_text("alphabet = a b\nstart = a\na -> a b a\nb -> b a b\n")
    status, report = run_command(
        ["cobham", "--left", str(two), "--right", str(three), "--bound", "12"]
    )
    assert status == EXIT_BUDGET
    checks = {c["name"]: c for c in report.payload["checks"]}
    assert checks["coded-fixed-points-agree"]["outcome"] == "pass"
    absent = checks["multiplicative-dependence"]
    assert absent["outcome"] == "absent"
    assert "12" in absent["detail"]
    assert "independent" not in absent["detail"]


# Codings onto mixed single- and multi-character symbols.  The reordered
# copy of SIGMA4 lists its letters backwards, so its coding's target
# alphabet is (b, a1) where TAU4's is (a1, b): the coded fixed points agree
# as symbol sequences but not as letter indices.
TAU4_CODED = TAU4 + "coding big: a -> a1, b -> b\ncoding flip: a -> b, b -> a1\n"
SIGMA4_REVERSED = """
alphabet = c b a
start = a
a -> a b a b
b -> a c c c
c -> a b b c
coding big: a -> a1, b -> b, c -> b
coding phi: a -> a, b -> b, c -> b
"""


@pytest.mark.parametrize(
    "coding_left, coding_right, agree",
    [("big", "big", True), ("id", "phi", True), ("big", "phi", False), ("flip", "big", False)],
)
def test_cobham_gate_matches_symbol_tuples(tmp_path, coding_left, coding_right, agree):
    left_path, right_path = tmp_path / "left.sub", tmp_path / "right.sub"
    left_path.write_text(TAU4_CODED)
    right_path.write_text(SIGMA4_REVERSED)
    status, report = run_command(
        [
            "cobham",
            "--left", str(left_path),
            "--right", str(right_path),
            "--coding-left", coding_left,
            "--coding-right", coding_right,
            "--prefix-check", "600",
        ]
    )
    # the gate's old definition: equal tuples of display symbols
    left, left_codings = parse_substitution(TAU4_CODED)
    right, right_codings = parse_substitution(SIGMA4_REVERSED)
    code = lambda sub, codings, name: codings.get(name) or identity_morphism(sub.alphabet)
    a = morphic_image_prefix(code(left, left_codings, coding_left), left, 600)
    b = morphic_image_prefix(code(right, right_codings, coding_right), right, 600)
    assert (a.symbols() == b.symbols()) is agree
    gate = report.payload["checks"][0]
    assert gate["name"] == "coded-fixed-points-agree"
    assert gate["outcome"] == ("pass" if agree else "fail")
    assert status == (EXIT_OK if agree else EXIT_CHECK_FAILED)


def test_periodic_command(files):
    status, report = run_command(
        ["periodic", files["fib"], "--period", "01", "--check-len", "500"]
    )
    assert status == EXIT_OK
    assert all(c["outcome"] == "pass" for c in report.payload["checks"])


def test_parse_error_exit_code(files, tmp_path, capsys):
    bad = tmp_path / "bad.sub"
    bad.write_text("alphabet = a b\nstart = a\na -> b a\nb -> a\n")
    status, _ = run_command(["spectrum", str(bad)])
    assert status == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    status, _ = run_command(["spectrum", "/nonexistent/nope.sub"])
    assert status == EXIT_USAGE


def test_usage_error_exit_code():
    status, _ = run_command(["not-a-command"])
    assert status == EXIT_USAGE


def test_json_output_deterministic(files, capsys):
    argv = ["spectrum", files["fib"], "--json"]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["command"] == "spectrum"
    dom = payload["data"]["spectrum"]["dominant"]
    for key in ("lo", "hi", "width"):
        num, den = dom[key].split("/")
        int(num), int(den)


def test_json_has_no_timestamp(files, capsys):
    run_command(["fixed-point", files["fib"], "--json"])
    out = capsys.readouterr().out
    assert "elapsed" not in out
    run_command(["fixed-point", files["fib"]])
    human = capsys.readouterr().out
    assert "elapsed" in human


@pytest.mark.parametrize(
    "argv",
    [
        ["fixed-point", "{fib}", "--length", "20"],
        ["spectrum", "{sigma4}"],
        ["return-words", "{morse}", "--prefix", "011"],
        ["return-sub", "{morse}", "--prefix", "011"],
        ["derived", "{fib}", "--prefix", "0", "--length", "15"],
        ["tower", "{fib}", "--depth", "6"],
        ["relations", "{morse}", "--u", "0", "--v", "01"],
        ["circularity", "{fib}", "--sample-len", "6"],
        ["shared", "--left", "{fib}", "--right", "{fib}"],
        ["periodic", "{fib}", "--period", "01", "--check-len", "100"],
    ],
)
def test_every_command_emits_valid_json(files, capsys, argv):
    argv = [a.format(**files) for a in argv] + ["--json"]
    status, _ = run_command(argv)
    assert status == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["argv"] == argv
    assert "config" in payload and "checks" in payload and "data" in payload


def test_prefix_cap_env(files, monkeypatch):
    monkeypatch.setenv("REPO_PREFIX_CAP", "64")
    status, report = run_command(["fixed-point", files["fib"], "--length", "32"])
    assert status == EXIT_OK
    assert report.payload["config"]["prefix_cap"] == 64
    status, _ = run_command(["fixed-point", files["fib"], "--length", "100000"])
    assert status == EXIT_BUDGET


def test_generation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "stuck.sub"
    path.write_text("alphabet = a b\nstart = a\na -> a\nb -> b a\n")
    status, _ = run_command(["fixed-point", str(path)])
    assert status == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_malformed_prefix_cap_exit_code(files, monkeypatch, capsys):
    monkeypatch.setenv("REPO_PREFIX_CAP", "abc")
    status, report = run_command(["fixed-point", files["fib"], "--json"])
    assert status == EXIT_USAGE and report is None
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: REPO_PREFIX_CAP must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["tower", "{per}"],
        ["circularity", "{per}"],
        ["shared", "--left", "{per}", "--right", "{per}"],
    ],
)
def test_periodic_input_exits_usage(tmp_path, capsys, argv):
    path = tmp_path / "per.sub"
    path.write_text("alphabet = a b\nstart = a\na -> a b\nb -> a b\n")
    status, _ = run_command([a.format(per=path) for a in argv] + ["--json"])
    assert status == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: fixed point is periodic: one return word 'ab' on the prefix of "
        "length 1, tower depth 1\n"
    )


@pytest.mark.parametrize(
    "exc, message",
    [
        pytest.param(InternalInconsistencyError, "error: stopped\n", id="InternalInconsistencyError"),
        pytest.param(
            RuntimeError, "error: internal error (RuntimeError): stopped\n", id="RuntimeError"
        ),
    ],
)
def test_internal_error_exit_code(files, monkeypatch, capsys, exc, message):
    def handler(args, report):
        raise exc("stopped")

    monkeypatch.setitem(retword.cli._HANDLERS, "spectrum", handler)
    status, _ = run_command(["spectrum", files["fib"], "--json"])
    assert status == EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_periodic_24_letter_product_finishes(files):
    """Scale guard: a 24-letter product alphabet, which an exponential
    characteristic polynomial could not handle in minutes."""
    package_root = Path(retword.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    argv = ["periodic", files["fib"], "--period", "011010110100", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "retword.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    data = json.loads(proc.stdout)
    assert data["data"]["product_alphabet_size"] == 24
    assert [c["outcome"] for c in data["checks"]] == ["pass"] * 5


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--sample-len", "0"], "error: sample length must be >= 1, got 0\n"),
        (["--sample-len", "-4"], "error: sample length must be >= 1, got -4\n"),
        (["--inj-length", "0"], "error: injectivity length bound must be >= 1, got 0\n"),
    ],
)
def test_circularity_refuses_empty_samples(files, capsys, flag, message):
    status, _ = run_command(["circularity", files["fib"], *flag])
    assert status == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def _without_elapsed(stdout: str) -> str:
    return "".join(line for line in stdout.splitlines(keepends=True) if not line.startswith("elapsed: "))


def test_parser_reuse_matches_fresh_processes(files, capsys):
    """Commands run one after another on the process's one parser give the
    exit codes and output of each command run in a fresh interpreter."""
    package_root = Path(retword.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    commands = [
        ["tower", "--depth"],
        ["tower", files["fib"], "--depth", "3"],
        ["tower", files["fib"]],
        ["fixed-point", files["fib"], "--json"],
    ]
    for argv in commands:
        status, _ = run_command(argv)
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "retword.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert status == proc.returncode
        assert _without_elapsed(captured.out) == _without_elapsed(proc.stdout)
        assert captured.err == proc.stderr
    assert retword.cli.build_parser() is retword.cli.build_parser()


@pytest.mark.parametrize("fmt", [["--json"], []])
def test_closed_stdout_is_an_output_error(files, fmt):
    """A reader that stops early (``retword ... | head -c 100``) closes stdout
    mid-report: exit 2 with one ``error:`` line and no traceback, also from
    the interpreter's final flush."""
    package_root = Path(retword.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    argv = ["fixed-point", files["fib"], "--length", "200000", *fmt]
    proc = subprocess.Popen(
        [sys.executable, "-m", "retword.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err
