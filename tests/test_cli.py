import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
from retword.returns import derivation_tower
from retword.substitution import (
    format_substitution,
    identity_morphism,
    morphic_image_prefix,
    parse_substitution,
    power,
)

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


def test_tower_depth_limits_only_the_levels_printed(files):
    """Thue-Morse repeats at levels (2, 3): ``--depth 2`` prints two levels
    and reports the repetition found, with exit 0."""
    status, report = run_command(["tower", files["morse"], "--depth", "2", "--json"])
    assert status == EXIT_OK
    assert [level["depth"] for level in report.payload["data"]["levels"]] == [1, 2]
    assert report.payload["checks"] == [{"name": "tower-repetition", "outcome": "found", "witness": [2, 3]}]


def test_relations_command(files):
    status, report = run_command(["relations", files["fib"], "--u", "0", "--v", "01"])
    assert status == EXIT_OK
    assert all(c["outcome"] == "pass" for c in report.payload["checks"])


def test_relations_command_estimates_constants_once(monkeypatch, files):
    """One relations job forms n0, the constants and the coding matrix once
    for its whole span, each counted through every module binding.  Of the
    incidence matrices only the coding's count: a morphism from the return
    alphabet to the base alphabet, where a substitution's maps one alphabet
    to itself."""
    calls = {"two_occurrence_exponent": 0, "estimate_constants": 0, "incidence_matrix": 0}
    modules = [m for n, m in sys.modules.items() if n == "retword" or n.startswith("retword.")]
    for name in calls:
        original = getattr(retword, name)

        def counted(*args, _name=name, _original=original):
            if _name != "incidence_matrix" or args[0].source != args[0].target:
                calls[_name] += 1
            return _original(*args)

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    status, report = run_command(["relations", files["fib"], "--u", "0", "--v", "01"])
    assert status == EXIT_OK
    assert sum(c["name"].startswith("matrix-split-bounds") for c in report.payload["checks"]) == 3
    assert calls == {"two_occurrence_exponent": 1, "estimate_constants": 1, "incidence_matrix": 1}


PERIODIC_AB = "alphabet = a b\nstart = a\na -> a b\nb -> a b\n"


def test_relations_span_zero_stops_before_the_constants(tmp_path, capsys):
    """On a periodic fixed point the bridge identities and n0 exist, the
    return constants do not: span 0 asks for no split and passes, span 1
    is refused with the periodicity witness."""
    path = tmp_path / "per.sub"
    path.write_text(PERIODIC_AB)
    argv = ["relations", str(path), "--u", "a", "--v", "ab", "--json"]
    status, report = run_command(argv + ["--span", "0"])
    assert status == EXIT_OK
    assert [c["outcome"] for c in report.payload["checks"]] == ["pass"] * 4
    assert "two_occurrence_exponent" in report.payload["data"]
    capsys.readouterr()
    status, _ = run_command(argv + ["--span", "1"])
    assert status == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: fixed point is periodic: one return word 'ab' on the prefix of "
        "length 1, tower depth 1\n"
    )


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
        ["periodic", files["fib"], "--period", "01"]
    )
    assert status == EXIT_OK
    assert all(c["outcome"] == "pass" for c in report.payload["checks"])


def test_periodic_has_no_check_len_option(files, capsys):
    """The coded-prefix check compares no prefix, so there is no length to set."""
    status, report = run_command(["periodic", files["fib"], "--period", "01", "--check-len", "100"])
    assert (status, report) == (EXIT_USAGE, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("retword: error: unrecognized arguments: --check-len 100\n")


def test_shared_has_no_depth_option(files, capsys):
    """The shared-prefix search stops at its first repeated pair of return
    substitutions, so there is no depth to set."""
    status, report = run_command(["shared", "--left", files["fib"], "--right", files["fib"], "--depth", "8"])
    assert (status, report) == (EXIT_USAGE, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("retword: error: unrecognized arguments: --depth 8\n")


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
        ["periodic", "{fib}", "--period", "01"],
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


SEVEN = "alphabet = a b\nstart = a\na -> a b b b b b b\nb -> a\n"


@pytest.mark.parametrize(
    "cap, argv, message",
    [
        # the fixed-point buffer
        ("100", ["fixed-point", "fib", "--length", "200"], "requested prefix length 200 exceeds"),
        # power: k = 4 for a 4-letter period, and fib^4's images hold 8 + 5 letters
        ("10", ["periodic", "fib", "--period", "0110"], "the images of power 4 hold 13 letters, over"),
        # the return closure: the return word a b^6 and its image hold 7 + 13 letters
        (
            "10",
            ["return-words", "seven", "--prefix", "a"],
            "the return-word closure would hold 20 letters, over",
        ),
        ("5", ["return-words", "fib", "--prefix", "010010"], "prefix of length 6 cannot recur within"),
        ("10", ["return-words", "fib", "--prefix", "01001010"], "no second occurrence of the prefix within"),
    ],
)
def test_every_buffer_cap_refusal_names_the_variable(
    files, tmp_path, monkeypatch, capsys, cap, argv, message
):
    """Each of the five refusals past the buffer cap exits 3 with one line
    naming the cap and REPO_PREFIX_CAP, and prints no report."""
    (tmp_path / "seven.sub").write_text(SEVEN)
    paths = {**files, "seven": str(tmp_path / "seven.sub")}
    monkeypatch.setenv("REPO_PREFIX_CAP", cap)
    status, _ = run_command([argv[0], paths[argv[1]], *argv[2:], "--json"])
    assert status == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"budget exhausted: {message} the buffer cap {cap} (REPO_PREFIX_CAP)\n"


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
        (["--max-prefix", "-1"], "error: prefix bound must be >= 0, got -1\n"),
        (["--delay-max", "-1"], "error: delay bound must be >= 0, got -1\n"),
    ],
)
def test_circularity_refuses_empty_samples(files, capsys, flag, message):
    status, _ = run_command(["circularity", files["fib"], *flag])
    assert status == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "text",
    [
        # the code test answers n0 = 1; the delay search reads 1 to 4 letters
        "alphabet = 0 1\nstart = 0\n0 -> 0 1\n1 -> 0\n",
        # tau_u is no code at n = 1 to 4, so the walk reads its language
        "alphabet = a b c\nstart = a\na -> a b c a\nb -> c a b\nc -> c a b\n",
    ],
    ids=["fib", "walk"],
)
def test_circularity_answers_under_a_cap_below_the_old_samples(tmp_path, monkeypatch, capsys, text):
    """Under a 600-letter cap, below the 2000-letter prefix the delay search
    once sampled and the 1000-letter derived host find_n0's walk once
    generated, circularity answers as without a cap: each factor length n
    it reads asks for n letters of a fixed point only."""
    path = tmp_path / "capped.sub"
    path.write_text(text)
    monkeypatch.delenv("REPO_PREFIX_CAP", raising=False)
    status, uncapped = run_command(["circularity", str(path), "--json"])
    monkeypatch.setenv("REPO_PREFIX_CAP", "600")
    capped_status, capped = run_command(["circularity", str(path), "--json"])
    assert status == capped_status == EXIT_OK
    assert capped.payload["checks"] == uncapped.payload["checks"]
    assert capsys.readouterr().err == ""


LONG_RETURN = "alphabet = a b\nstart = a\na -> a" + " b" * 600 + "\nb -> a\n"


@pytest.mark.parametrize("cap", [1000, 1801, 1802])
def test_return_closure_refuses_an_image_past_the_cap(tmp_path, monkeypatch, capsys, cap):
    """The closure holds the 601-letter return word a b^600, whose image has
    1201 letters: 1802 together, refused under a smaller cap before the image
    is formed, with one line."""
    monkeypatch.setenv("REPO_PREFIX_CAP", str(cap))
    path = tmp_path / "long.sub"
    path.write_text(LONG_RETURN)
    status, report = run_command(["return-words", str(path), "--prefix", "a", "--json"])
    captured = capsys.readouterr()
    if cap == 1802:
        assert status == EXIT_OK and report.payload["data"]["count"] == 2
        return
    assert status == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err == (
        "budget exhausted: the return-word closure would hold 1802 letters, "
        f"over the buffer cap {cap} (REPO_PREFIX_CAP)\n"
    )


REDUCIBLE = "alphabet = a b\nstart = a\na -> a b\nb -> b b\n"
NOT_PRIMITIVE = "return substitutions are defined for primitive substitutions"
REDUCIBLE_REFUSALS = [
    (["return-words", "{red}", "--prefix", "a"], NOT_PRIMITIVE),
    (["return-sub", "{red}", "--prefix", "a"], NOT_PRIMITIVE),
    (["derived", "{red}", "--prefix", "a"], NOT_PRIMITIVE),
    (["tower", "{red}"], NOT_PRIMITIVE),
    (["relations", "{red}", "--u", "a", "--v", "ab"], NOT_PRIMITIVE),
    (["circularity", "{red}"], NOT_PRIMITIVE),
    (["shared", "--left", "{red}", "--right", "{red}"], NOT_PRIMITIVE),
    (["cobham", "--left", "{red}", "--right", "{red}"], "multiplicative dependence check needs primitive matrices"),
    (["periodic", "{red}", "--period", "ab"], "periodic presentation needs a primitive substitution"),
]


@pytest.mark.parametrize("argv, message", REDUCIBLE_REFUSALS, ids=[argv[0] for argv, _ in REDUCIBLE_REFUSALS])
def test_reducible_substitution_is_refused(tmp_path, capsys, argv, message):
    """Each command that needs primitivity refuses a -> ab, b -> bb with one
    usage error line, whichever of its steps asks first."""
    path = tmp_path / "reducible.sub"
    path.write_text(REDUCIBLE)
    status, _ = run_command([a.format(red=path) for a in argv] + ["--json"])
    assert status == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_spectrum_reports_a_reducible_substitution(tmp_path):
    path = tmp_path / "reducible.sub"
    path.write_text(REDUCIBLE)
    status, report = run_command(["spectrum", str(path), "--json"])
    assert status == EXIT_OK
    assert report.payload["data"]["primitive"] == {"value": False, "witness_exponent": None}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["shared", "--left", "fib", "--right", "fib", "--power-bound", "-1"], "exponent bound"),
        (["shared", "--left", "fib", "--right", "fib", "--budget", "-1"], "exponent budget"),
        (["relations", "fib", "--u", "0", "--v", "01", "--span", "-1"], "span"),
        (["cobham", "--left", "tau4", "--right", "sigma4", "--coding-right", "phi", "--bound", "-1"], "exponent bound"),
        # the coded fixed points differ, so the gate would end the command before the search
        (["cobham", "--left", "fib", "--right", "morse", "--bound", "-1"], "exponent bound"),
    ],
)
def test_negative_search_bounds_are_refused(files, capsys, argv, message):
    """A negative bound is an input error, never an empty search reported as absent."""
    status, _ = run_command([files.get(arg, arg) for arg in argv])
    assert status == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} must be >= 0, got -1\n"


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


# The smallest well-formed argv of each subcommand, the file "f" unread.
MINIMAL_ARGV = {
    "fixed-point": ["f"],
    "spectrum": ["f"],
    "return-words": ["f", "--prefix", "0"],
    "return-sub": ["f", "--prefix", "0"],
    "derived": ["f", "--prefix", "0"],
    "tower": ["f"],
    "relations": ["f", "--u", "0", "--v", "01"],
    "circularity": ["f"],
    "shared": ["--left", "f", "--right", "g"],
    "cobham": ["--left", "f", "--right", "g"],
    "periodic": ["f", "--period", "01"],
}

INT_OPTIONS = {
    "fixed-point": ["--length"],
    "derived": ["--length"],
    "tower": ["--depth"],
    "relations": ["--span"],
    "circularity": ["--inj-length", "--max-prefix", "--delay-max", "--sample-len"],
    "shared": ["--power-bound", "--budget"],
    "cobham": ["--bound", "--prefix-check"],
}
# periodic's --check-len and shared's --depth are gone: their argvs are cases
# of an unrecognized option
REMOVED_OPTIONS = {"periodic": ["--check-len"], "shared": ["--depth"]}


def _parse_outcome(parse, argv: list[str]) -> tuple:
    """What ``parse(argv)`` does: its namespace or exit code, with what it
    printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("parsed", vars(parse(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _malformed_argvs() -> list[list[str]]:
    cases = [[], ["-h"], ["--help"], ["--he"], ["nope"], ["nope", "f"], ["--json", "spectrum", "f"]]
    cases += [["--", "spectrum", "f"], ["-h", "spectrum", "f"]]
    for name, rest in MINIMAL_ARGV.items():
        cases += [
            [name],
            [name, *rest[:-1]],
            [name, *rest, "--bogus"],
            [name, *rest, "extra"],
            [name, *rest, "extra", "more"],
            [name, "-h"],
            [name, *rest, "--he"],
            [name, *rest, "--js"],
            [name, *rest, "--"],
            [name, "--", *rest],
            [name, *rest, "--", "--json"],
            [name, *rest, "--json", "-h", "extra"],
        ]
        options = INT_OPTIONS.get(name, []) + REMOVED_OPTIONS.get(name, [])
        cases += [[name, *rest, option, "x"] for option in options]
        cases += [[name, *rest, option] for option in options]
        # a unique prefix of each long option names it
        cases += [[name, *rest, option[:4], "3"] for option in options]
        cases += [[name, *(a[:5] if a.startswith("--") else a for a in rest)]]
    return cases


@pytest.mark.parametrize("argv", _malformed_argvs(), ids=" ".join)
def test_one_pass_dispatch_parses_as_the_retword_parser(argv):
    """Usage errors, help, abbreviations and ``--``: the one-pass dispatch
    gives the namespace, exit code, stdout and stderr of the ``retword``
    parser, and ``run_command`` exits as that parser does."""
    expected = _parse_outcome(retword.cli.build_parser().parse_args, argv)
    assert _parse_outcome(retword.cli._parse, argv) == expected
    (kind, value), out, err = expected
    if kind == "exit":
        got_out, got_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(got_out), contextlib.redirect_stderr(got_err):
            status, report = run_command(argv)
        assert (status, report) == ((EXIT_USAGE if value else EXIT_OK), None)
        assert (got_out.getvalue(), got_err.getvalue()) == (out, err)


ARGV_TOKENS = sorted(MINIMAL_ARGV) + [
    "f", "0", "01", "x", "-3", "--", "-h", "--he", "--json", "--js", "--prefix", "--pre",
    "--length", "--depth", "--period", "--per", "--left", "--right", "--u", "--v", "--bound",
    "--coding", "--check-len", "--bogus", "-p",
]


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(MINIMAL_ARGV)),
    prefix=st.integers(0, 4),
    tail=st.lists(st.sampled_from(ARGV_TOKENS), max_size=5),
)
def test_one_pass_dispatch_on_drawn_argv(name, prefix, tail):
    argv = [name, *MINIMAL_ARGV[name][:prefix], *tail]
    expected = _parse_outcome(retword.cli.build_parser().parse_args, argv)
    assert _parse_outcome(retword.cli._parse, argv) == expected


def test_a_well_formed_command_is_parsed_once(monkeypatch, files, capsys):
    """The subcommand's own parser reads the argument list; the ``retword``
    parser does not run."""
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    status, _ = run_command(["periodic", files["fib"], "--period", "01", "--json"])
    assert status == EXIT_OK
    assert calls == ["retword periodic"]


def test_importing_the_cli_builds_no_parser():
    """The parsers are built on first use: importing the module is part of
    start-up."""
    package_root = Path(retword.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    code = "import retword.cli as c; print(c._parsers.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout == "0\n", proc.stderr


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.text()
    | st.text(alphabet=st.sampled_from('"\\\x00\x1f\x7f/\n\té \U0001f600ab'))
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


def _rendered(value) -> str:
    report = retword.cli.Report("spectrum", [], {})
    report.payload = value
    return report.render_json()


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [[], [{}]], "c": ()})
@example({"é\"\\\x00": [" ", 10**400 // 10**370, -0, True, False, None]})
def test_render_json_is_json_dumps_indent_2(value):
    assert _rendered(value) == json.dumps(value, indent=2)


def test_render_json_refuses_other_types():
    """A report holds no float and no non-str key; the one renderer refuses
    them with ``TypeError``, naming the type, rather than writing them
    another way."""
    for value, message in (
        ({"a": [1, 1.5]}, "cannot write a value of type float as JSON"),
        ({1: "a"}, "cannot write a key of type int as JSON"),
        ([{"a": None}, {True: 2}], "cannot write a key of type bool as JSON"),
    ):
        with pytest.raises(TypeError, match=message):
            _rendered(value)


_MIN, _SLICE = retword.cli._PLAIN_MIN, retword.cli._PLAIN_SLICE
# lengths at the plain-string threshold and at the slice boundaries of its test
_EDGE_LENGTHS = sorted(
    {0, 1, _MIN - 1, _MIN, _MIN + 1, 200_000}
    | {k * _SLICE + d for k in (1, 2, 3) for d in (-1, 0, 1)}
)


@st.composite
def _long_strings(draw):
    """A string of 0-200 000 characters: a repeated plain ASCII pattern with
    up to four characters of any kind (every ASCII one, control characters,
    DEL, ``"`` and ``\\`` included, or non-ASCII) written over it, often at
    the ends of a slice of the plain-string test."""
    n = draw(st.sampled_from(_EDGE_LENGTHS) | st.integers(0, 200_000))
    pattern = draw(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=8))
    chars = list((pattern * (n // len(pattern) + 1))[:n])
    if n:
        edges = sorted({0, n - 1} | {i for k in (1, 2, 3) for i in (k * _SLICE - 1, k * _SLICE) if i < n})
        for _ in range(draw(st.integers(0, 4))):
            at = draw(st.sampled_from(edges) | st.integers(0, n - 1))
            chars[at] = draw(st.characters(max_codepoint=0x7F) | st.characters(min_codepoint=0x80))
    return "".join(chars)


@settings(max_examples=200, deadline=None)
@given(_long_strings())
@example("")
@example("0" * (_MIN + 1))
@example("0" * _SLICE + '"')
@example("0" * (2 * _SLICE - 1) + "\x7f" + "0" * 5)
@example("\x00" + "0" * 200_000)
def test_render_json_writes_long_strings_as_json_dumps(text):
    """A long string with nothing to escape is written as itself between
    quotes, any other as ``encode_basestring_ascii`` writes it: both as
    ``json.dumps(indent=2)`` writes them, as a value and in a list."""
    value = {"data": {"prefix": text, "return_words": [text, "01"]}}
    assert _rendered(value) == json.dumps(value, indent=2)


def test_render_json_keeps_no_escaped_copy_of_a_plain_string():
    """Rendering a payload with a 10^6-letter plain string peaks at most
    where escaping it once and joining did, and in fact near one copy of the
    string, the rendered output: the string goes into the output as itself,
    and its test reads it in slices."""
    text = "01" * 500_000
    value = {"command": "fixed-point", "data": {"prefix": text}}

    def peak(render):
        tracemalloc.start()
        try:
            render()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    escaped_then_joined = peak(lambda: "".join(["{", encode_basestring_ascii(text), "}"]))
    rendered = peak(lambda: _rendered(value))
    assert rendered <= escaped_then_joined
    assert rendered < len(text) + 4 * _SLICE


SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def _captured(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout without its elapsed line, and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status, _ = run_command(argv)
    return status, _without_elapsed(out.getvalue()), err.getvalue()


@pytest.fixture(scope="module")
def session_files(tmp_path_factory):
    """The samples' paths, the square of fib.sub's substitution, and a path
    that the session test rewrites."""
    tmp = tmp_path_factory.mktemp("session")
    fib, _ = parse_substitution((SAMPLES / "fib.sub").read_text())
    (tmp / "fib2.sub").write_text(format_substitution(power(fib, 2)))
    paths = {p.stem: str(p) for p in sorted(SAMPLES.glob("*.sub"))}
    return paths | {"fib2": str(tmp / "fib2.sub"), "moving": str(tmp / "moving.sub")}


# The session test's commands; "F" is a file: a sample, fib2 or the moving file.
SESSION_COMMANDS = [
    ["tower", "F", "--json"],
    ["tower", "F", "--depth", "2"],
    ["circularity", "F", "--json"],
    ["spectrum", "F", "--json"],
    ["fixed-point", "F", "--length", "40", "--json"],
    ["return-sub", "F", "--prefix", "L", "--json"],
    ["derived", "F", "--prefix", "L", "--length", "20"],
    ["relations", "F", "--u", "L", "--v", "LL", "--json"],
    ["shared", "--left", "F", "--right", "fib2", "--json"],
    ["cobham", "--left", "F", "--right", "F", "--bound", "3", "--json"],
]
SESSION_FILES = ["fib", "morse", "tau4", "const3", "trib", "sigma4", "fib2", "moving"]
SESSION_CAPS = [None, "12", "40", "600"]
_session_steps = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.sampled_from(range(len(SESSION_COMMANDS))), st.sampled_from(SESSION_FILES)),
        st.tuples(st.just("cap"), st.sampled_from(SESSION_CAPS)),
        st.tuples(st.just("rewrite"), st.sampled_from(["fib", "morse", "const3"])),
    ),
    max_size=8,
)


def _session_argv(index: int, name: str, paths: dict[str, str]) -> list[str]:
    """Command ``index`` on file ``name``, its prefixes the file's first letters."""
    path = paths[name]
    first, second = parse_substitution(Path(path).read_text())[0].fixed_point().text(2)
    letters = {"F": path, "fib2": paths["fib2"], "L": first, "LL": first + second}
    return [letters.get(arg, arg) for arg in SESSION_COMMANDS[index]]


def _replay(steps, paths: dict[str, str], cold: bool) -> list[tuple[int, str, str]]:
    Path(paths["moving"]).write_text((SAMPLES / "fib.sub").read_text())
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPO_PREFIX_CAP", raising=False)
        for step in steps:
            if step[0] == "cap":
                if step[1] is None:
                    mp.delenv("REPO_PREFIX_CAP", raising=False)
                else:
                    mp.setenv("REPO_PREFIX_CAP", step[1])
            elif step[0] == "rewrite":
                Path(paths["moving"]).write_text((SAMPLES / f"{step[1]}.sub").read_text())
            else:
                argv = _session_argv(step[1], step[2], paths)
                if cold:
                    retword.cli._SESSION.clear()
                outcomes.append(_captured(argv))
    return outcomes


@settings(max_examples=60, deadline=None)
@given(_session_steps)
@example([("cap", "12"), ("run", 0, "morse"), ("run", 0, "morse"), ("cap", None), ("run", 0, "morse")])
@example([("run", 0, "const3"), ("cap", "40"), ("run", 0, "const3"), ("run", 7, "const3"), ("run", 0, "const3")])
@example([("run", 0, "moving"), ("rewrite", "morse"), ("run", 0, "moving"), ("run", 2, "moving")])
@example([("run", 0, "fib"), ("run", 7, "fib"), ("run", 8, "fib"), ("run", 2, "fib")])
def test_session_prints_what_cold_commands_print(session_files, steps):
    """Commands run one after another, sharing parses through the session,
    print what each prints with the session emptied before it: exit codes,
    stdout and stderr byte for byte, across cap changes, a file rewritten in
    place and refusals repeated."""
    assert _replay(steps, session_files, cold=False) == _replay(steps, session_files, cold=True)


def test_a_derivation_round_closes_each_tower_level_once(monkeypatch, session_files):
    """tower, relations and circularity on one file share one parse, so each
    return system, a tower level's among them, is closed once."""
    closed = []
    returns_module = sys.modules["retword.returns"]
    closure = returns_module._return_closure
    monkeypatch.setattr(
        returns_module, "_return_closure", lambda tau, u, *rest: closed.append((tau, u)) or closure(tau, u, *rest)
    )
    fib = session_files["fib"]
    for argv in (["tower", fib], ["relations", fib, "--u", "0", "--v", "010"], ["circularity", fib]):
        assert _captured(argv + ["--json"])[0] == EXIT_OK
    tau, _ = retword.cli._load(fib)
    levels = derivation_tower(tau).levels
    assert len(closed) == len(set(closed))
    owners = [tau] + [level.substitution for level in levels[:-1]]
    for owner, level in zip(owners, levels):
        assert closed.count((owner, level.system.prefix)) == 1


def test_a_command_on_another_file_frees_the_last_parse_first(monkeypatch, session_files):
    """A command on the file the last one read reuses its parse; a command on
    another file frees the last one's substitution, with its buffer and
    tower, before it parses its own."""
    refs, alive = [], []
    parse = retword.cli.parse_substitution

    def spied(text):
        alive.append([ref() is not None for ref in refs])
        parsed = parse(text)
        refs.append(weakref.ref(parsed[0]))
        return parsed

    monkeypatch.setattr(retword.cli, "parse_substitution", spied)
    for name in ("morse", "morse", "fib"):
        assert _captured(["tower", session_files[name], "--json"])[0] == EXIT_OK
    assert alive == [[], [False]]
    assert [ref() is not None for ref in refs] == [False, True]


def test_an_interrupted_command_empties_the_session(monkeypatch, session_files):
    """An exception escaping a command may have stopped a cache mid-write,
    so the session keeps no parse past it."""
    assert _captured(["tower", session_files["fib"], "--json"])[0] == EXIT_OK

    def interrupted(tau):
        raise KeyboardInterrupt

    monkeypatch.setattr(retword.cli, "derivation_tower", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_command(["tower", session_files["fib"], "--json"])
    assert retword.cli._SESSION.current == retword.cli._SESSION.previous == {}
