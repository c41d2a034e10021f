"""Metric definitions shared by the runner, ``BENCHMARK.json`` and the tests.

Each per-layer metric names the traced span it reads, and the end-to-end
metric and workload it is expected to move; the runner prints that
prediction next to every value in its record.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)

# Span names the tracer gives: layer.function or layer.Class.method.
_W = "words.Word"
_F = "substitution.FixedPointPrefix"
_RS = "returns.return_substitution"
_CP = "spectrum.char_poly"

# metric name, statistic, span, unit, better, the end-to-end metric it should move
PER_LAYER = (
    ("cli.run_command.self_s", "self_s", "cli.run_command", "s", "lower", "job_p50_ms on derivation"),
    (f"{_F}.ensure.letters", "letters", f"{_F}.ensure", "count", "lower", "jobs_per_s and peak_rss_mb on fixpoint"),
    (f"{_F}.ensure.self_s", "self_s", f"{_F}.ensure", "s", "lower", "jobs_per_s and peak_rss_mb on fixpoint"),
    ("substitution.is_primitive.calls", "calls", "substitution.is_primitive", "count", "lower", "jobs_per_s on derivation"),
    ("substitution.is_primitive.self_s", "self_s", "substitution.is_primitive", "s", "lower", "jobs_per_s on derivation"),
    ("substitution.power.self_s", "self_s", "substitution.power", "s", "lower", "jobs_per_s on derivation"),
    ("substitution.compose.self_s", "self_s", "substitution.compose", "s", "lower", "jobs_per_s on derivation"),
    ("substitution.Morphism.call.self_s", "self_s", "substitution.Morphism.call", "s", "lower", "jobs_per_s on derivation"),
    (f"{_W}.init.calls", "calls", f"{_W}.init", "count", "lower", "jobs_per_s on derivation; peak_rss_mb on fixpoint"),
    (f"{_W}.init.letters", "letters", f"{_W}.init", "count", "lower", "jobs_per_s on derivation; peak_rss_mb on fixpoint"),
    (f"{_W}.init.self_s", "self_s", f"{_W}.init", "s", "lower", "jobs_per_s on derivation; peak_rss_mb on fixpoint"),
    ("words.find_all.calls", "calls", "words.find_all", "count", "lower", "jobs_per_s on fixpoint"),
    ("words.find_all.self_s", "self_s", "words.find_all", "s", "lower", "jobs_per_s on fixpoint"),
    (f"{_W}.text.self_s", "self_s", f"{_W}.text", "s", "lower", "jobs_per_s on fixpoint"),
    ("words.periodic_tail_witness.self_s", "self_s", "words.periodic_tail_witness", "s", "lower", "job_p50_ms on derivation"),
    (f"{_RS}.calls", "calls", _RS, "count", "lower", "jobs_per_s on derivation"),
    (f"{_RS}.distinct_ratio", "distinct_ratio", _RS, "ratio", "higher", "jobs_per_s on derivation"),
    (f"{_RS}.self_s", "self_s", _RS, "s", "lower", "job_tail_ms on fixpoint; jobs_per_s on derivation"),
    (f"{_RS}.return_words", "return_words", _RS, "count", "lower", "job_tail_ms on fixpoint; jobs_per_s on derivation"),
    ("returns.decompose.calls", "calls", "returns.decompose", "count", "lower", "job_p50_ms on derivation"),
    ("returns.decompose.self_s", "self_s", "returns.decompose", "s", "lower", "job_p50_ms on derivation"),
    ("returns.nonperiodic_check.self_s", "self_s", "returns.nonperiodic_check", "s", "lower", "job_p50_ms on derivation"),
    ("returns.derivation_tower.self_s", "self_s", "returns.derivation_tower", "s", "lower", "job_p50_ms on derivation"),
    (f"{_CP}.calls", "calls", _CP, "count", "lower", "jobs_per_s and job_tail_ms on spectral; no change on fixpoint"),
    (f"{_CP}.distinct_ratio", "distinct_ratio", _CP, "ratio", "higher", "jobs_per_s and job_tail_ms on spectral; no change on fixpoint"),
    (f"{_CP}.max_dim", "max_dim", _CP, "count", "lower", "jobs_per_s and job_tail_ms on spectral; no change on fixpoint"),
    (f"{_CP}.self_s", "self_s", _CP, "s", "lower", "jobs_per_s and job_tail_ms on spectral; no change on fixpoint"),
    ("spectrum.dominant_eigenvalue.calls", "calls", "spectrum.dominant_eigenvalue", "count", "lower", "jobs_per_s on spectral"),
    ("spectrum.certify_equal_dominant.self_s", "self_s", "spectrum.certify_equal_dominant", "s", "lower", "jobs_per_s on spectral"),
    ("spectrum.mult_dependent.self_s", "self_s", "spectrum.mult_dependent", "s", "lower", "jobs_per_s on spectral"),
    ("spectrum.strip_trivial_poly.self_s", "self_s", "spectrum.strip_trivial_poly", "s", "lower", "jobs_per_s on spectral"),
    ("intpoly.poly_gcd.calls", "calls", "intpoly.poly_gcd", "count", "lower", "jobs_per_s on spectral"),
    ("intpoly.poly_gcd.self_s", "self_s", "intpoly.poly_gcd", "s", "lower", "jobs_per_s on spectral"),
    ("intpoly.SturmCounter.variations.calls", "calls", "intpoly.SturmCounter.variations", "count", "lower", "jobs_per_s on spectral"),
    ("intpoly.SturmCounter.variations.self_s", "self_s", "intpoly.SturmCounter.variations", "s", "lower", "jobs_per_s on spectral"),
    ("intpoly.isolate_largest_real_root.self_s", "self_s", "intpoly.isolate_largest_real_root", "s", "lower", "jobs_per_s on spectral"),
    ("intpoly.rational_roots.self_s", "self_s", "intpoly.rational_roots", "s", "lower", "jobs_per_s on spectral"),
    ("intpoly.squarefree_part.self_s", "self_s", "intpoly.IntPolynomial.squarefree_part", "s", "lower", "jobs_per_s on spectral"),
    ("intpoly.numeric_roots.self_s", "self_s", "intpoly.numeric_roots", "s", "lower", "jobs_per_s on spectral"),
    ("intpoly.IntPolynomial.divmod_monic.calls", "calls", "intpoly.IntPolynomial.divmod_monic", "count", "lower", "jobs_per_s on spectral"),
    ("periodic.build_periodic_presentation.self_s", "self_s", "periodic.build_periodic_presentation", "s", "lower", "job_tail_ms on spectral"),
    ("periodic.verify_presentation.calls", "calls", "periodic.verify_presentation", "count", "lower", "job_tail_ms on spectral"),
    ("periodic.verify_presentation.self_s", "self_s", "periodic.verify_presentation", "s", "lower", "job_tail_ms on spectral"),
    ("relations.verify_propprec.self_s", "self_s", "relations.verify_propprec", "s", "lower", "jobs_per_s on derivation"),
    ("relations.matrix_decomposition.self_s", "self_s", "relations.matrix_decomposition", "s", "lower", "jobs_per_s on derivation"),
    ("relations.power_coincidence.self_s", "self_s", "relations.power_coincidence", "s", "lower", "jobs_per_s on derivation"),
    ("relations.shared_fixed_point_analysis.self_s", "self_s", "relations.shared_fixed_point_analysis", "s", "lower", "jobs_per_s on derivation"),
    ("relations.same_fixed_point_gate.self_s", "self_s", "relations.same_fixed_point_gate", "s", "lower", "jobs_per_s on derivation"),
    ("circularity.find_n0.self_s", "self_s", "circularity.find_n0", "s", "lower", "job_tail_ms on derivation"),
    ("circularity.check_injectivity.calls", "calls", "circularity.check_injectivity", "count", "lower", "job_tail_ms on derivation"),
    ("circularity.check_injectivity.self_s", "self_s", "circularity.check_injectivity", "s", "lower", "job_tail_ms on derivation"),
    ("circularity.sync_delay_search.self_s", "self_s", "circularity.sync_delay_search", "s", "lower", "job_tail_ms on derivation"),
) + tuple(
    (f"layer.{layer}.self_s", "layer_self_s", layer, "s", "lower", "the predicted hot layers of each workload")
    for layer in LAYERS
) + (
    ("trace.overhead_ratio", "overhead_ratio", "", "ratio", "lower", "none: traced over untraced wall time of the same jobs"),
)


def tail(latencies: list[float], beyond: int = 10) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ``beyond``
    samples above it; with fewer samples than that, the maximum."""
    xs = sorted(latencies)
    k = max(0, len(xs) - beyond - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


# Seconds the worker's calibration loop takes at the reference speed.
CALIBRATION_REF = 0.002


def normalized(latency: float, calibration: float) -> float:
    """A time rescaled to the reference speed of the machine.

    The machine's speed drifts by tens of percent within seconds; the
    calibration loop, timed next to each measurement, slows down with it.
    """
    return latency * CALIBRATION_REF / calibration


def job_latencies(run: dict) -> list[float]:
    """Each instance's latency at the reference speed.  Its calibration is the
    median of the six loops timed nearest to it, three before and three after,
    which smooths the loop's own jitter."""
    cal = [i["calibration"] for i in run["instances"]] + [run["final_calibration"]]
    return [
        normalized(i["latency"], statistics.median(cal[max(0, k - 2) : k + 4]))
        for k, i in enumerate(run["instances"])
    ]


def end_to_end(run: dict, setups: list[tuple[float, float]], verdicts: list[str | None]) -> tuple[dict, dict]:
    """End-to-end metric values of one untraced run, and the record behind them.

    Times are at the reference speed (see ``normalized``), and a job's
    latency is its median over the run's passes.  The median and the tail
    are taken over the workload's distinct jobs, so that they do not depend
    on how many passes fitted in the run.  The raw figures go into the
    record.  ``setups`` holds (seconds, calibration) pairs.
    """
    raw = [i["latency"] for i in run["instances"]]
    by_job: dict[tuple, list[float]] = {}
    for inst, t in zip(run["instances"], job_latencies(run)):
        by_job.setdefault(tuple(inst["job"]), []).append(t)
    typical = {job: statistics.median(xs) for job, xs in by_job.items()}
    lat = [typical[tuple(i["job"])] for i in run["instances"]]
    ok = sum(1 for v in verdicts if v is None)
    tail_value, tail_pct = tail(list(typical.values()))
    values = {
        "setup_s": statistics.median(normalized(s, c) for s, c in setups),
        "jobs_per_s": ok / sum(lat),
        "job_p50_ms": 1000 * statistics.median(typical.values()),
        "job_tail_ms": 1000 * tail_value,
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_ratio": ok / len(lat),
    }
    cal = [i["calibration"] for i in run["instances"]]
    record = {
        "jobs": len(lat),
        "distinct_jobs": len(by_job),
        "passes": run["passes"],
        "failed": len(lat) - ok,
        "fail_ratio": (len(lat) - ok) / len(lat),
        "tail_percentile": tail_pct,
        "busy_s": sum(raw),
        "wall_s": run["wall_s"],
        "calibration_median_ms": 1000 * statistics.median(cal),
        "calibration_ref_ms": 1000 * CALIBRATION_REF,
        "raw_jobs_per_s": ok / sum(raw),
        "raw_job_p50_ms": 1000 * statistics.median(raw),
        "raw_job_tail_ms": 1000 * tail(raw)[0],
        "raw_tail_percentile": tail(raw)[1],
        "raw_setup_s": statistics.median(s for s, _ in setups),
    }
    return values, record


def per_layer(traced: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-layer metric values of a traced run, and the record behind them.

    ``untraced`` ran the same jobs without the tracer; the overhead ratio
    compares their busy times at the reference speed."""
    trace = traced["trace"]
    overhead = sum(job_latencies(traced)) / sum(job_latencies(untraced))
    values = {}
    record = {}
    for name, stat, span, _unit, _better, target in PER_LAYER:
        calls = trace["calls"].get(span, 0)
        if stat == "self_s":
            value = trace["self_s"].get(span, 0.0)
        elif stat == "calls":
            value = calls
        elif stat in ("letters", "return_words"):
            value = trace["counts"].get(f"{span}.{stat}", 0)
        elif stat == "distinct_ratio":
            value = trace["distinct"].get(span, 0) / calls if calls else 0.0
            record[name] = {"base_calls": calls, "moves": target}
        elif stat == "max_dim":
            value = trace["max_dim"]
        elif stat == "layer_self_s":
            value = sum(s for n, s in trace["self_s"].items() if n.startswith(span + "."))
        else:
            value = overhead
        values[name] = value
        record.setdefault(name, {"moves": target})
    record["self_sum_s"] = sum(trace["self_s"].values())
    record["traced_busy_s"] = sum(i["latency"] for i in traced["instances"])
    record["untraced_busy_s"] = sum(i["latency"] for i in untraced["instances"])
    record["spans"] = trace["spans"]
    return values, record
