"""Benchmark of the ``retword`` CLI: seeded job workloads checked by the benchmark's own oracles.

    python3 perfbench/run.py --workload fixpoint|spectral|derivation \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The seed determines every input (the digest
printed first shows it).  A job is one ``retword`` subcommand with
``--json``; each run gets one single-threaded worker process that calls
``retword.cli.run_command`` for one job after another (a closed loop with one
client).  With ``--trace 0`` the worker makes whole passes over the
workload's jobs for S seconds and the end-to-end metrics are printed; with
``--trace 1`` one pass runs untraced and one under the span tracer, each in
its own worker, and the per-layer metrics are printed; ``--seconds`` does not
apply to it.  The last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import gen
import metrics
import oracles

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8


def spawn(root: Path, workdir: Path, tag: str, plan: dict, timeout: float) -> dict:
    """Run one worker process to completion and return what it wrote."""
    plan_path, out_path = workdir / f"{tag}.plan.json", workdir / f"{tag}.out.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env["PERFBENCH_SPAWNED"] = repr(time.perf_counter())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(out_path)],
        cwd=workdir,
        env=env,
        timeout=timeout,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def verdicts(run: dict, rounds: list[list[dict]]) -> list[str | None]:
    """The oracle's verdict on every job instance of a worker run."""
    out = []
    for inst in run["instances"]:
        job = rounds[inst["job"][0]][inst["job"][1]]
        out.append(inst["reason"] or oracles.check(job, inst["exit"], inst["report"]))
    return out


def summarize(all_verdicts: list[str | None]) -> dict:
    failures = [v for v in all_verdicts if v not in (None, oracles.SKIPPED)]
    return {
        "attempted": len(all_verdicts),
        "failed": len(failures),
        "skipped": sum(1 for v in all_verdicts if v == oracles.SKIPPED),
        # a job past its time limit failed, but gave no wrong answer
        "correct": all(v.startswith("timeout") for v in failures),
        "failures": sorted(set(failures))[:20],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "retword" / "cli.py").is_file():
        print(f"error: no retword sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    if not (root / "samples").is_dir():
        print(f"error: no samples directory under {root}", file=sys.stderr)
        return 2

    workdir = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = gen.generate(args.workload, args.seed, root)
        gen.write_inputs(inputs, workdir)
        print(f"inputs {args.workload} seed {args.seed} digest {gen.digest(inputs)}", flush=True)
        files = sorted(inputs["files"])
        rounds = inputs["rounds"]
        plain = [[{k: j[k] for k in ("kind", "argv", "limit")} for j in r] for r in rounds]
        limit = max(j["limit"] for r in rounds for j in r)

        if args.trace == 0:
            # set-up probes before and after the timed run, so that one slow
            # spell of the machine cannot decide their median
            probe = {"mode": "setup", "files": files}
            setups = [spawn(root, workdir, f"setup{i}", probe, 60) for i in range(SETUP_PROBES // 2)]
            plan = {"mode": "timed", "seconds": args.seconds, "trace": False, "files": files, "rounds": plain}
            run = spawn(root, workdir, "timed", plan, args.seconds + 2 * limit + 60)
            setups += [spawn(root, workdir, f"setup{i}", probe, 60) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
            setups = [(s["setup_s"], s["setup_calibration"]) for s in setups + [run]]
            found = verdicts(run, rounds)
            values, record = metrics.end_to_end(run, setups, [None if v == oracles.SKIPPED else v for v in found])
            units = {name: unit for name, unit, _ in metrics.END_TO_END}
        else:
            plan = {"mode": "once", "trace": False, "files": files, "rounds": plain}
            # the two workers share the 180 s a run may take
            untraced = spawn(root, workdir, "untraced", plan, 70)
            traced = spawn(root, workdir, "traced", plan | {"trace": True}, 90)
            found = verdicts(untraced, rounds) + verdicts(traced, rounds)
            values, record = metrics.per_layer(traced, untraced)
            record["wrapped"] = traced["wrapped"]
            units = {m[0]: m[3] for m in metrics.PER_LAYER}
        outcome = summarize(found)
        record.update(workload=args.workload, seed=args.seed, trace=args.trace, **outcome)
        print("record " + json.dumps(record, sort_keys=True), flush=True)
        result = {
            "correct": outcome["correct"],
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
