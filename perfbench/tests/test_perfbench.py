"""Tests of the benchmark itself: inputs, oracles, metric names, failure accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import metrics  # noqa: E402
import oracles  # noqa: E402
import run as runner  # noqa: E402
import worker  # noqa: E402
from retword.cli import run_command  # noqa: E402


def one_round(workload: str, seed: int) -> tuple[list[dict], dict]:
    b = gen.JobSet(workload, seed)
    return gen.build_round(b, gen.sample_files(ROOT), 0), b.files


@pytest.fixture
def inputs_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def execute(jobset: gen.JobSet, job: dict, where: Path) -> tuple[int, dict]:
    """Run a job in process, with the worker's treatment of long fields."""
    gen.write_inputs({"files": jobset.files}, where)
    rec = worker.run_job(run_command, job, worker.Limiter())
    assert rec["reason"] is None
    return rec["exit"], rec["report"]


@pytest.mark.parametrize("workload", ["fixpoint", "spectral", "derivation"])
def test_one_seed_gives_the_same_inputs(workload):
    first, files = one_round(workload, 7)
    again, files_again = one_round(workload, 7)
    other, other_files = one_round(workload, 8)
    digest = lambda rounds, fs: gen.digest({"rounds": [rounds], "files": fs})  # noqa: E731
    assert digest(first, files) == digest(again, files_again)
    assert digest(first, files) != digest(other, other_files)


def test_fixed_point_oracle_rejects_a_flipped_letter(inputs_dir):
    b = gen.JobSet("fixpoint", 1)
    job = b.fixed_point(5000)
    code, report = execute(b, job, inputs_dir)
    assert oracles.check(job, code, report) is None
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run_command(job["argv"])
    prefix = json.loads(buf.getvalue())["data"]["prefix"]
    flipped = prefix[:100] + ("a" if prefix[100] != "a" else "b") + prefix[101:]
    report["data"]["prefix"] = oracles.fingerprint(flipped)
    assert oracles.check(job, code, report) == "fixed-point prefix differs"


def test_return_words_oracle_rejects_a_dropped_word(inputs_dir):
    b = gen.JobSet("fixpoint", 2)
    job = b.return_words(100, 2, 6)
    code, report = execute(b, job, inputs_dir)
    assert oracles.check(job, code, report) is None
    report["data"]["return_words"].pop()
    report["data"]["count"] -= 1
    assert "missing" in oracles.check(job, code, report)


def test_spectrum_oracle_rejects_a_changed_coefficient(inputs_dir):
    pytest.importorskip("sympy")
    b = gen.JobSet("spectral", 3)
    job = b.spectrum()
    code, report = execute(b, job, inputs_dir)
    assert oracles.check(job, code, report) is None
    report["data"]["spectrum"]["char_poly_coeffs"][1] += 1
    assert oracles.check(job, code, report) == "characteristic polynomial differs from sympy"


def test_spectrum_oracle_skips_without_sympy():
    job = {"kind": "spectrum", "expect": {"coeffs": None}}
    report = {"checks": [], "data": {"primitive": {"value": True}}}
    assert oracles.check(job, 0, report) == oracles.SKIPPED


def test_cobham_oracle_rejects_a_wrong_witness(inputs_dir):
    b = gen.JobSet("spectral", 4)
    job = b.cobham()
    code, report = execute(b, job, inputs_dir)
    assert oracles.check(job, code, report) is None
    (witness,) = [c["witness"] for c in report["checks"] if c["outcome"] == "found"]
    witness["m"] += 1
    assert oracles.check(job, code, report).startswith("dependence witness")


def test_every_derivation_job_passes_its_oracle(inputs_dir):
    b = gen.JobSet("derivation", 5)
    for job in b.derivation_round():
        code, report = execute(b, job, inputs_dir)
        assert oracles.check(job, code, report) is None, job["kind"]


def test_a_job_past_its_limit_is_counted_as_failed(inputs_dir):
    b = gen.JobSet("fixpoint", 6)
    job = b.fixed_point(1_000_000) | {"limit": 0.01}
    gen.write_inputs({"files": b.files}, inputs_dir)
    rec = worker.run_job(run_command, job, worker.Limiter())
    assert rec["reason"].startswith("timeout")
    outcome = runner.summarize([None, rec["reason"]])
    assert (outcome["attempted"], outcome["failed"], outcome["correct"]) == (2, 1, True)


def test_an_exception_out_of_run_command_is_counted_as_failed(inputs_dir):
    # a start image of length one cannot generate a fixed point
    (inputs_dir / "flat.sub").write_text("alphabet = a b\nstart = a\na -> a\nb -> a b\n")
    job = {"kind": "fixed-point", "argv": ["fixed-point", "flat.sub", "--json"], "limit": 10.0}
    rec = worker.run_job(run_command, job, worker.Limiter())
    assert rec["reason"].startswith("exception")
    outcome = runner.summarize([rec["reason"]])
    assert (outcome["failed"], outcome["correct"]) == (1, False)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = metrics.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and pct == 90.0


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "derivation", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[key]}


def test_traced_self_times_fit_in_the_traced_busy_time():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral", "--seed", "2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    record = json.loads(out.stdout.strip().splitlines()[-2].removeprefix("record "))
    assert 0 < record["self_sum_s"] <= record["traced_busy_s"]
