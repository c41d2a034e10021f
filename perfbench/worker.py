"""Benchmark worker: one single-threaded process per workload run.

    PERFBENCH_SPAWNED=<perf_counter at spawn> PYTHONPATH=src \\
        python3 perfbench/worker.py PLAN.json OUT.json

The worker imports ``retword``, parses every input file (its set-up, timed
from the parent's spawn), then runs the plan's jobs through
``retword.cli.run_command`` one after another, as the CLI would, capturing
each report.  A pass runs every round of the plan in order.  Modes:
``setup`` stops after set-up; ``once`` makes one pass; ``timed`` makes whole
passes until ``seconds`` have passed.  A job past its time limit, or one that
raises, is recorded as failed and the run goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

from naive import fingerprint

# Report fields that can hold millions of letters; they travel as digests.
LONG_FIELDS = ("prefix", "derived_prefix")


class JobTimeout(BaseException):
    """Raised inside a job that ran past its limit; BaseException so no handler
    in the library can swallow it."""


class Limiter:
    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise JobTimeout()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of dict, int, str and tuple
    work, about 2 ms; timed around every job to track the machine's speed."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    total = 0
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += len(str(i)) * (i & 7)
    word = tuple(range(200))
    for _ in range(30):
        word = tuple(x for x in word)
    return time.perf_counter() - t0


def run_job(run_command, job: dict, limiter: Limiter) -> dict:
    out = io.StringIO()
    code, reason = None, None
    limiter.arm(job["limit"])
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code, _ = run_command(job["argv"])
        limiter.disarm()
    except JobTimeout:
        reason = f"timeout after {job['limit']} s"
    except Exception as exc:  # a library error escaping run_command is a failed job
        reason = f"exception {type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - t0
        limiter.disarm()
    report = None
    if reason is None:
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            report = None
        if isinstance(report, dict) and isinstance(report.get("data"), dict):
            for key in LONG_FIELDS:
                if isinstance(report["data"].get(key), str):
                    report["data"][key] = fingerprint(report["data"][key])
    return {"latency": latency, "exit": code, "reason": reason, "report": report}


def main() -> None:
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    from retword.cli import run_command
    from retword.substitution import parse_substitution

    for path in plan["files"]:
        with open(path, encoding="utf-8") as fh:
            parse_substitution(fh.read())
    result: dict = {"setup_s": time.perf_counter() - spawned, "setup_calibration": calibrate()}
    if plan["mode"] != "setup":
        tracer = None
        if plan["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            result["wrapped"] = tracer.install()
            import retword.cli

            run_command = retword.cli.run_command
        limiter = Limiter()
        rounds = plan["rounds"]
        instances = []
        started = time.perf_counter()
        r = 0
        while True:
            for slot, job in enumerate(rounds[r % len(rounds)]):
                if tracer is not None:
                    tracer.job = len(instances)
                calibration = calibrate()
                rec = run_job(run_command, job, limiter)
                rec["job"] = [r % len(rounds), slot]
                rec["calibration"] = calibration
                instances.append(rec)
            r += 1
            if r % len(rounds) == 0 and (
                plan["mode"] == "once" or time.perf_counter() - started >= plan["seconds"]
            ):
                break
        result["wall_s"] = time.perf_counter() - started
        result["final_calibration"] = calibrate()
        result["passes"] = r // len(rounds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["instances"] = instances
        if tracer is not None:
            result["trace"] = tracer.summary()
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
