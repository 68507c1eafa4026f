"""Benchmark of the fht command: seeded, reference-checked, closed-loop.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

One client calls ``finitehilbert.cli.main(argv)`` in this process and sends
the next command only after the previous one returns.  The commands and the
CSV files they read are generated from ``--seed`` (see workloads.py), and
every output is checked against an independent reference (reference.py).

``--trace 0`` measures whole decks of ops until ``--seconds`` of op time have
passed, and prints the end-to-end metrics.  ``--trace 1`` replays a fixed
number of decks twice, untraced and then with per-layer spans (tracing.py),
and prints the per-layer metrics.  The last line of standard output is the
result as one JSON object; the line before it carries details of the run.
Exit code 2 means the program could not be found or the arguments are bad.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, so runs do not compete
# with themselves for the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracing import CLOSED_FORM_EVALUATOR, SOLVABILITY, SOLVES, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ".bench_trace"
SETUP_RUNS = 3
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import finitehilbert.cli; print(time.perf_counter() - t)"
)


class Outcome(NamedTuple):
    """Latency, exit code and check result of one executed op."""

    latency: float
    code: int | None
    error: float
    problem: str | None  # None when the op passed
    known: bool  # the op failed in the way of its known defect


def execute(cli, op):
    out, err = io.StringIO(), io.StringIO()
    crash = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse reports bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed op, not a failed benchmark
        code, crash = None, exc
    latency = time.perf_counter() - start
    out, err = out.getvalue(), err.getvalue()
    error, failure, detail = 0.0, None, ""
    if crash is not None:
        failure, detail = f"raises {type(crash).__name__}", str(crash)
    elif "Traceback" in err:
        failure = "traceback on stderr"
    elif code != op.expect_exit:
        failure, detail = f"exit {code}", f"expected {op.expect_exit}"
    else:
        try:
            error = op.check(out, err)
        except workloads.CHECK_ERRORS as exc:
            failure, detail = f"check {type(exc).__name__}", str(exc)
    if failure is None:
        return Outcome(latency, code, error, None, False)
    known = op.known_defect is not None and op.known_defect.shown_by(failure, out, err)
    return Outcome(latency, code, error, f"{failure}: {detail}", known)


def write_files(ops):
    for op in ops:
        for rel, data in op.files.items():
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


class Tally:
    """Pass/fail bookkeeping shared by the timed and the traced runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = Counter()
        self.worst = 0.0

    def add(self, op, outcome):
        self.attempted += 1
        if outcome.problem is None:
            self.worst = max(self.worst, outcome.error)
            return
        self.failed += 1
        if outcome.known:
            self.known[op.known_defect.text] += 1
        else:
            self.unexpected.append(f"{op.kind}: {outcome.problem}: {' '.join(op.argv)[:200]}")

    def result(self, metrics, detail):
        detail = {**detail, "known_defects": dict(self.known),
                  "unexpected_failures": self.unexpected[:20]}
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({"correct": not self.unexpected, "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))


def run_ops(cli, ops, tally, speed=None, tracer=None):
    """Run ops in order and return their outcomes."""
    outcomes = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        outcomes.append(execute(cli, op))
        tally.add(op, outcomes[-1])
        if speed is not None:
            speed.after(outcomes[-1].latency)
    return outcomes


def busy_s(outcomes):
    return sum(o.latency for o in outcomes)


def measure_setup():
    """Median time for a fresh interpreter to import finitehilbert.cli, and the samples.

    It is not scaled by the kernel: import runs in another process and spends
    its time differently, and scaled medians spread twice as far as raw ones.
    """
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def percentile(sorted_values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def warm_up(cli, workload, seed):
    """Run one op of each main kind, untimed, so lazy imports and caches settle."""
    ops = workloads.warmup_ops(workload, seed)
    write_files(ops)
    run_ops(cli, ops, Tally())


def latency_metrics(kinds, latencies, tail_percentile):
    by_kind = defaultdict(list)
    for kind, latency in zip(kinds, latencies):
        by_kind[kind].append(latency)
    ordered = sorted(latencies)
    tail, beyond = percentile(ordered, tail_percentile)
    return {"ops_per_s": len(ordered) / sum(ordered),
            "op_p50_ms": 1e3 * statistics.median(ordered),
            "op_tail_ms": 1e3 * tail, "beyond_tail": beyond,
            "kind_mean_ms": {k: 1e3 * statistics.mean(v) for k, v in sorted(by_kind.items())}}


def timed_run(cli, workload, seed, seconds):
    setup_s, setup_samples = measure_setup()
    warm_up(cli, workload, seed)
    tally, speed, kinds, latencies, decks = Tally(), Speedometer(), [], [], 0
    # Whole decks only, so every run holds the same mix; stop at the deck
    # boundary nearest to the requested time.
    while True:
        ops = workloads.deck(workload, seed, decks)
        write_files(ops)
        outcomes = run_ops(cli, ops, tally, speed)
        kinds += [op.kind for op in ops]
        latencies += [o.latency for o in outcomes]
        decks += 1
        deck_s = busy_s(outcomes)
        if sum(latencies) + 0.5 * deck_s >= seconds:
            break
    raw = latency_metrics(kinds, latencies, workload.tail_percentile)
    scaled = latency_metrics(kinds, speed.scaled(latencies), workload.tail_percentile)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_tail_ms": (scaled["op_tail_ms"], "ms"),
        "fail_frac": (tally.failed / tally.attempted, "ratio"),
        "digits": (-math.log10(max(tally.worst, 1e-16)), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"workload": workload.name, "seed": seed, "decks": decks,
              "busy_s": sum(latencies), "unscaled": raw, "setup_samples_s": setup_samples,
              "tail_percentile": workload.tail_percentile, "samples": len(latencies),
              "beyond_tail": scaled["beyond_tail"]}
    tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail)


def traced_run(cli, workload, seed):
    warm_up(cli, workload, seed)
    ops = [op for j in range(workload.trace_decks) for op in workloads.deck(workload, seed, j)]
    write_files(ops)
    plain_speed, traced_speed = Speedometer(), Speedometer()
    plain_s = busy_s(run_ops(cli, ops, Tally(), plain_speed)) * plain_speed.scale()
    tracer, tally = Tracer(), Tally()
    tracer.install()
    try:
        outcomes = run_ops(cli, ops, tally, traced_speed, tracer)
    finally:
        tracer.uninstall()
    scale = traced_speed.scale()
    traced_s = busy_s(outcomes) * scale
    trace_dir = ROOT / TRACE_DIR
    trace_dir.mkdir(exist_ok=True)
    tracer.write(trace_dir / f"{workload.name}-{seed}.jsonl")
    metrics = layer_metrics(tracer, ops, [o.code for o in outcomes], scale)
    metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
    tally.result(metrics, {"workload": workload.name, "seed": seed,
                           "decks": workload.trace_decks, "ops": len(ops),
                           "untraced_s": plain_s, "traced_s": traced_s, "speed_scale": scale})


def layer_metrics(tracer, ops, codes, scale):
    """Per-layer metrics of a traced pass; times are scaled to reference speed."""
    g_self, g_calls, calls = tracer.group_self, tracer.group_calls, tracer.calls
    solves = tracer.per_op_calls(SOLVES)
    checks = tracer.per_op_calls((SOLVABILITY,))
    # useful-to-attempted ratios are taken over the inversions that succeeded
    inverts = [i for i, op in enumerate(ops) if op.argv[0] == "invert" and codes[i] == 0]
    high = [i for i in inverts if "high" in ops[i].argv]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "cli.self_s": (g_self["cli"], "s"),
        "series.eval.calls": (g_calls["series.eval"], "count"),
        "series.eval.self_s": (g_self["series.eval"], "s"),
        "series.convert.self_s": (g_self["series.convert"], "s"),
        "series.interp.calls": (g_calls["series.interp"], "count"),
        "series.interp.self_s": (g_self["series.interp"], "s"),
        "functions.eval.calls": (g_calls["functions.eval"], "count"),
        "functions.eval.self_s": (g_self["functions.eval"], "s"),
        "functions.csv.self_s": (g_self["functions.csv"], "s"),
        "rearrange.calls": (g_calls["rearrange"], "count"),
        "rearrange.self_s": (g_self["rearrange"], "s"),
        "engine.closed_form.points": (calls[CLOSED_FORM_EVALUATOR], "count"),
        "engine.closed_form.self_s": (g_self["engine.closed_form"], "s"),
        "engine.sampled.self_s": (g_self["engine.sampled"], "s"),
        "engine.spectral.calls": (g_calls["engine.spectral"], "count"),
        "engine.spectral.self_s": (g_self["engine.spectral"], "s"),
        "engine.pointwise.calls": (g_calls["engine.pointwise"], "count"),
        "engine.pointwise.self_s": (g_self["engine.pointwise"], "s"),
        "engine.quad.calls": (tracer.quad_calls, "count"),
        "engine.quad.evals": (tracer.quad_evals, "count"),
        "engine.quad.evals_per_point": (ratio(tracer.quad_evals_pointwise,
                                                       g_calls["engine.pointwise"]), "ratio"),
        "airfoil.solve.self_s": (g_self["airfoil.solve"], "s"),
        "airfoil.roundtrip.self_s": (g_self["airfoil.roundtrip"], "s"),
        "airfoil.solves_per_invert": (ratio(sum(solves[i] for i in inverts), len(inverts)),
                                      "ratio"),
        "airfoil.solvability_per_high_invert": (ratio(sum(checks[i] for i in high), len(high)),
                                                "ratio"),
        "spectrum.classify.self_s": (g_self["spectrum.classify"], "s"),
        "spectrum.eigen.self_s": (g_self["spectrum.eigen"], "s"),
        "harness.norm_probe.self_s": (g_self["harness.norm_probe"], "s"),
        "harness.laeng.self_s": (g_self["harness.laeng"], "s"),
        "harness.laeng.hilbert_evals": (calls["harness.hilbert_of_indicator"], "count"),
        "harness.pb.self_s": (g_self["harness.pb"], "s"),
        "harness.parseval.self_s": (g_self["harness.parseval"], "s"),
        "harness.kernel.self_s": (g_self["harness.kernel"], "s"),
        "harness.probes.self_s": (g_self["harness.probes"], "s"),
    }
    return {name: {"value": value * scale if unit == "s" else value, "unit": unit}
            for name, (value, unit) in values.items()}


def load_cli():
    """The program under test, imported from src/ of this checkout and nowhere else."""
    if not (SRC / "finitehilbert" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from finitehilbert import cli

    if Path(cli.__file__).resolve().parent != SRC / "finitehilbert":
        return None
    return cli


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    cli = load_cli()
    if cli is None:
        print(f"bench: no finitehilbert package under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            traced_run(cli, workload, args.seed)
        else:
            timed_run(cli, workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(ROOT / workloads.WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
