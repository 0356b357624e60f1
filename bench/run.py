"""Seeded benchmark of vnm: end-to-end round latency and per-layer spans.

Usage, from the repository root::

    python3 bench/run.py --workload axioms --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Workloads (see ``bench/workloads.py`` and ``BENCHMARK.json``): ``axioms``,
``elicit``, ``dataset`` and ``external``. Each runs as a closed loop: one
caller, one round at a time, in this process; ``external`` adds only the
CLI child and its comparator, which take turns. Every round is checked
against a known answer.

``--trace 0`` measures the end-to-end metrics; ``setup_s`` is timed in
fresh interpreters by ``bench/setup_time.py``. ``--trace 1`` runs each round
untraced and then at once again traced, and reports the per-layer metrics:
span self times and call counts per round, with the tracing overhead as the
difference of the two round-time medians. Spans go to ``bench/out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it give the environment
(Python, ``nproc``, platform and a SHA-256 of the ``src/`` sources, since a
checkout need not be a git repository) and the full report: error rate,
exact oracle queries per round, tail percentile and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fresh interpreters that time set-up; setup_s is their median
SETUP_REPEATS = 7
# traced runs stop adding rounds past this many spans to bound memory
SPAN_CAP = 300_000
# the span names whose self time each jsonio metric sums
DECODE_SPANS = (
    "jsonio.json_loads",
    "jsonio.lottery_from_json",
    "jsonio.space_from_json",
    "jsonio.utility_from_json",
    "dataset.dataset_from_json",
)
ENCODE_SPANS = ("jsonio.lottery_to_json", "jsonio.utility_to_json")


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(k)]


def min_rounds(workload):
    """Rounds every timed run completes: the exact query window, and ten beyond the tail."""
    return max(workload.exact_rounds, math.ceil(1000 / (100 - workload.tail_percentile)))


def environment():
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(workload):
    """Set-up seconds, each taken in a fresh interpreter by ``setup_time.py``."""
    argv = [
        sys.executable,
        os.path.join(HERE, "setup_time.py"),
        workload.imports,
        workload.name,
        str(workload.seed),
        workload.out_dir,
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def peak_rss_mb(workload):
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload.child_rss else resource.RUSAGE_SELF
    )
    return usage.ru_maxrss / 1024


def new_record():
    return {"latency": [], "kinds": [], "queries": [], "stats": [], "errors": [], "wall": 0.0}


def run_round(workload, i, rec, tracer=None, wrong=False):
    """Run round ``i`` once, check it against its known answer and add it to ``rec``."""
    if tracer is not None:
        tracer.round_id = i
        tracer.on = True
        root = tracer.open(0)
    error = queries = None
    t0 = perf_counter()
    try:
        out = workload.work(i)
    except Exception:  # a round that raises is counted as failed
        out = None
        error = traceback.format_exc(limit=3)
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.on = False
    if out is not None:
        try:
            queries = workload.queries(out)
            error = workload.check(i, out, wrong=wrong)
        except Exception:
            error = traceback.format_exc(limit=3)
        if "stats" in out:
            rec["stats"].append((out["stats"], out["spawned"]))
    if error is not None:
        rec["errors"].append((i, error))
    rec["latency"].append(elapsed)
    rec["kinds"].append(workload.kind(i))
    # indexed by round, so the exact query window is always rounds 0..N-1
    rec["queries"].append(queries)


def run_rounds(workload, seconds, rounds=0, wrong_round=None):
    """Closed loop over rounds 0, 1, ... for ``seconds`` and at least ``rounds``."""
    rec = new_record()
    start = perf_counter()
    i = 0
    while i < rounds or perf_counter() - start < seconds:
        run_round(workload, i, rec, wrong=(i == wrong_round))
        i += 1
    rec["wall"] = perf_counter() - start
    return rec


@contextlib.contextmanager
def tracing(tracer, workload):
    tracer.install()
    if hasattr(workload, "loads"):
        # json.loads is the first decoding step of a dataset round
        workload.loads = tracer.wrap("jsonio.json_loads", type(workload).loads)
    try:
        yield
    finally:
        tracer.uninstall()
        workload.__dict__.pop("loads", None)


def run_paired(workload, seconds, rounds, tracer):
    """Each round once untraced and at once again traced, so drift hits both alike."""
    untraced, traced = new_record(), new_record()
    start = perf_counter()
    i = 0
    while i < rounds or perf_counter() - start < seconds:
        if i and len(tracer) >= SPAN_CAP:
            break
        run_round(workload, i, untraced)
        with tracing(tracer, workload):
            run_round(workload, i, traced, tracer)
        i += 1
    return untraced, traced


def exact_queries(workload, rec):
    """Mean raw ``pref`` queries over the first rounds; exact for a seed."""
    counted = [q for q in rec["queries"][: workload.exact_rounds] if q is not None]
    return sum(counted) / len(counted) if counted else 0.0


def end_to_end(workload, rec, setup_times, rss_mb):
    lat_ms = sorted(x * 1000 for x in rec["latency"])
    p = workload.tail_percentile
    tail_ms = percentile(lat_ms, p)
    completed = len(lat_ms) - len(rec["errors"])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "round_ms_p50": (percentile(lat_ms, 50), "ms"),
        "round_ms_tail": (tail_ms, "ms"),
        "rounds_per_s": (completed / rec["wall"], "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report = {
        "rounds": len(lat_ms),
        "round_ms_tail_percentile": p,
        "rounds_beyond_tail": sum(1 for x in lat_ms if x > tail_ms),
        "error_rate": len(rec["errors"]) / len(lat_ms),
        "oracle_queries_per_round": exact_queries(workload, rec),
        "oracle_queries_counted_over_rounds": len(rec["queries"][: workload.exact_rounds]),
        "setup_s_samples": setup_times,
    }
    return metrics, report


def subprocess_metrics(rec):
    """Comparator side-file figures from rounds that spawned the CLI child."""
    requests = distinct = 0
    busy, gaps, startups = [], [], []
    for stats, spawned in rec["stats"] if rec else ():
        requests += stats["requests"]
        distinct += stats["distinct_requests"]
        received, ready = stats["received"], stats["ready"]
        busy.append(sum(s - r for r, s in zip(received, ready)))
        gaps.extend(r - s for s, r in zip(ready, received[1:]))
        if received:
            startups.append(received[0] - spawned)
    return {
        "oracles.subprocess.comparator_busy_s": (
            statistics.fmean(busy) if busy else 0.0,
            "s/round",
        ),
        "oracles.subprocess.caller_gap_us_p50": (
            statistics.median(gaps) * 1e6 if gaps else 0.0,
            "us",
        ),
        "oracles.subprocess.distinct_query_ratio": (
            distinct / requests if requests else 0.0,
            "ratio",
        ),
        "cli.startup_s": (statistics.median(startups) if startups else 0.0, "s"),
    }


def per_layer(workload, tracer, traced, untraced, sub):
    calls, selfs = tracer.self_times()
    rounds = len(traced["latency"])
    counts = tracer.counts

    def per_round(value):
        return value / rounds

    def self_s(*names):
        return (per_round(sum(selfs.get(n, 0.0) for n in names)), "s/round")

    def n_calls(*names):
        return (per_round(sum(calls.get(n, 0) for n in names)), "count/round")

    utility_prefs = counts.get("pref.utility_oracle", 0)
    infeasible = [
        x for x, k in zip(untraced["latency"], untraced["kinds"]) if k == "infeasible"
    ]
    overhead_ms = (
        statistics.median(traced["latency"]) - statistics.median(untraced["latency"])
    ) * 1000

    metrics = {
        "lottery.Lottery.calls": n_calls("lottery.Lottery"),
        "lottery.Lottery.self_s": self_s("lottery.Lottery"),
        "lottery.mix.calls": n_calls("lottery.mix"),
        "lottery.mix.self_s": self_s("lottery.mix"),
        "lottery.expected_utility.calls": n_calls("lottery.expected_utility"),
        "lottery.expected_utility.self_s": self_s("lottery.expected_utility"),
        "sampling.lotteries": n_calls("sampling.random_lottery"),
        "sampling.self_s": self_s(*(n for n in selfs if n.startswith("sampling."))),
        "preference.pref.calls": n_calls("preference.pref"),
        "preference.pref.self_s": self_s("preference.pref"),
        "preference.eu_cache.hit_ratio": (
            1 - counts.get("eu.from_oracle", 0) / (2 * utility_prefs) if utility_prefs else 0.0,
            "ratio",
        ),
        "preference.compare.calls": n_calls("preference.compare"),
        "preference.compare.self_s": self_s("preference.compare"),
        "preference.check_order_axioms.self_s": self_s("preference.check_order_axioms"),
        "preference.check_independence.self_s": self_s("preference.check_independence"),
        "preference.check_classical_independence.self_s": self_s(
            "preference.check_classical_independence"
        ),
        "preference.probe_continuity.self_s": self_s("preference.probe_continuity"),
        "claims.verify_claims_i_to_iv.self_s": self_s("claims.verify_claims_i_to_iv"),
        "claims.verify_claim_v.self_s": self_s("claims.verify_claim_v"),
        "claims.trials": (per_round(counts.get("claims.trials", 0)), "count/round"),
        "elicitation.elicit_utility.self_s": self_s("elicitation.elicit_utility"),
        "elicitation.bisect.iterations": (
            per_round(counts.get("bisect.iterations", 0)),
            "count/round",
        ),
        "elicitation.verify_representation.self_s": self_s("elicitation.verify_representation"),
        "uniqueness.recover_affine.self_s": self_s("uniqueness.recover_affine"),
        "dataset.validate_dataset.self_s": self_s("dataset.validate_dataset"),
        "dataset.fit_reward_model.self_s": self_s("dataset.fit_reward_model"),
        "dataset.model_fits_data.calls": n_calls("dataset.model_fits_data"),
        "dataset.infeasible_round_s": (statistics.median(infeasible) if infeasible else 0.0, "s"),
        "jsonio.decode.self_s": self_s(*DECODE_SPANS),
        "jsonio.encode.calls": n_calls(*ENCODE_SPANS),
        "jsonio.encode.self_s": self_s(*ENCODE_SPANS),
        "oracles.rank_dependent.self_s": self_s("oracles.rank_dependent"),
        "cli.main.self_s": self_s("cli.main"),
        "oracle_queries_per_round": (exact_queries(workload, untraced), "count/round"),
        "trace.overhead_ms": (overhead_ms, "ms"),
        # the root span's self time: round time no layer span accounts for
        "trace.unattributed_ms": (per_round(selfs.get("round", 0.0)) * 1000, "ms"),
    }
    metrics.update(sub)
    return metrics


def result_line(metrics, attempted, failed):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def benchmark(args):
    if not os.path.isfile(os.path.join(SRC, "vnm", "__init__.py")):
        print(f"error: no vnm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    workload.setup()
    workload.prepare()

    if not args.trace:
        rec = run_rounds(workload, args.seconds, min_rounds(workload))
        rss_mb = peak_rss_mb(workload)
        # after the rounds are done, so the set-up children cannot raise
        # the CLI children's peak memory on external
        metrics, report = end_to_end(workload, rec, measure_setup(workload), rss_mb)
        recs = [rec]
    else:
        share = args.seconds
        spawned = None
        if hasattr(workload, "in_process"):
            # figures seen from outside the CLI child first, then the same
            # rounds in-process so that the wrappers apply
            share = args.seconds * 2 / 3
            spawned = run_rounds(workload, args.seconds / 3)
            workload.in_process = True
        sub = subprocess_metrics(spawned)
        tracer = Tracer()
        untraced, traced = run_paired(workload, share, workload.exact_rounds, tracer)
        metrics = per_layer(workload, tracer, traced, untraced, sub)
        spans_path = os.path.join(OUT, f"spans-{workload.name}.tsv")
        tracer.write(spans_path)
        report = {
            "traced_rounds": len(traced["latency"]),
            "spans": len(tracer),
            "spans_file": os.path.relpath(spans_path, ROOT),
        }
        recs = [r for r in (spawned, untraced, traced) if r is not None]

    attempted = sum(len(r["latency"]) for r in recs)
    errors = [e for rec in recs for e in rec["errors"]]
    for i, message in errors[:5]:
        print(f"round {i} failed: {message}", file=sys.stderr)
    report["failed_rounds"] = [i for i, _ in errors]
    print(json.dumps({"env": environment()}))
    print(
        json.dumps(
            {"workload": workload.name, "seed": args.seed, "trace": args.trace, "report": report}
        )
    )
    print(json.dumps(result_line(metrics, attempted, len(errors))))
    return 0


def self_test():
    """Feed each workload one deliberately wrong expected answer and see it counted."""
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    ok = True
    for name, cls in WORKLOADS.items():
        workload = cls(1, OUT)
        workload.setup()
        workload.prepare()
        rounds = 2
        clean = run_rounds(workload, 0, rounds)
        bad = run_rounds(workload, 0, rounds, wrong_round=0)
        _, report = end_to_end(workload, bad, [0.0], 0.0)
        passed = not clean["errors"] and [i for i, _ in bad["errors"]] == [0]
        passed = passed and report["error_rate"] > 0
        ok = ok and passed
        print(
            f"{name}: clean errors={len(clean['errors'])}, "
            f"wrong-answer errors={len(bad['errors'])}, "
            f"error_rate={report['error_rate']:.2f} -> {'ok' if passed else 'FAILED'}"
        )
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
