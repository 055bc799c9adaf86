#!/usr/bin/env python3
"""Benchmark of intervalvote: one command, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Each workload is a closed loop with one caller: the next operation is
issued only after the previous one returned, with no threads and no
subprocesses.  One pass answers the workload's whole question set.  After
one untimed warm-up pass, the timed phase repeats passes until
`--seconds` have elapsed (at least three).

Operation times are reported in probes: multiples of the time of a fixed
computation (`probe`) timed right before every operation of the same
pass.  On a shared host, other tenants slow this process by up to 2x for
minutes at a time, and the ratio cancels that; an operation's figure is
the median of its ratios over the passes.  Seconds are in the report.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the same
untraced phase, then one more pass with the per-layer tracer installed,
and prints the per-layer metrics; the ratio of the two pass times, in
probes, is `trace.overhead_ratio`.  Every answer is checked (see
workloads.py); the answer digest must be identical in every pass, and,
for seeds listed in reference.json, equal to the recorded digest and
coverage counts.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Spans and a full report go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from layertrace import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

LAYER_MODULES = ("core", "rules", "preferences", "axioms", "search", "cli")
SETUPS = 11
MIN_PASSES = 3

# Layer metrics predicted to read 0 on a workload because it bypasses them.
BYPASS = {
    "winner_grid": (
        "core.profile_init.calls",
        "preferences.enumerate_wsp_with_plateau.calls",
        "preferences.strictly_prefers.calls",
        "axioms.rule_evals",
        "search.falsify.calls",
        "cli.main.calls",
    ),
    "audit_scorecard": (),
    "independence_scorecard": (
        "rules.ptr_winner.calls",
        "preferences.enumerate_wsp_with_plateau.calls",
        "preferences.strictly_prefers.calls",
    ),
}


def import_package():
    """Import intervalvote afresh from this checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "intervalvote" or n.startswith("intervalvote.")]:
        del sys.modules[name]
    pkg = importlib.import_module("intervalvote")
    for layer in LAYER_MODULES:
        importlib.import_module(f"intervalvote.{layer}")
    if Path(pkg.__file__).resolve().parent != (SRC / "intervalvote").resolve():
        raise ImportError(f"intervalvote was imported from {pkg.__file__}, not {SRC}")
    return pkg


def probe() -> float:
    """Time a fixed computation of the kind the library does: exact
    fraction arithmetic and dictionary updates, about a millisecond."""
    t0 = perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(600):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 13, i % 5)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return perf_counter() - t0


def run_pass(workload, inputs, tracer=None):
    """Issue every operation of one pass back to back, each right after
    a probe.

    Returns the probe times and a list of (op, answer, latency); an
    operation that raised has the exception as its answer.
    """
    results, probes = [], []
    pending = list(reversed(workload.ops(inputs)))
    gc.collect()  # garbage of the previous pass is not collected in this one
    while pending:
        op = pending.pop()
        probes.append(probe())
        if tracer is not None:
            tracer.op_id = len(results)
        t0 = perf_counter()
        try:
            answer = op.run()
        except Exception as exc:  # counted as a failed operation
            answer = exc
        latency = perf_counter() - t0
        results.append((op, answer, latency))
        if not isinstance(answer, Exception):
            pending.extend(reversed(workload.followups(inputs, op, answer)))
    return probes, results


def judge(workload, inputs, results):
    """Number of failed operations and the pass's answer digest."""
    failed = 0
    digest = hashlib.sha256()
    for op, answer, _ in results:
        if isinstance(answer, Exception):
            ok, text = False, f"raised {type(answer).__name__}: {answer}"
        else:
            try:
                ok = bool(workload.check(inputs, op, answer))
                text = workload.canonical(op, answer)
            except Exception as exc:  # a malformed answer fails the check
                ok, text = False, f"unreadable answer: {exc!r}"
        if not ok:
            failed += 1
            print(f"FAILED {workload.name} {op.key}: {text[:300]}", file=sys.stderr)
        digest.update(f"{op.key}={text}\n".encode())
    return failed, digest.hexdigest()


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten operations beyond it."""
    for p in range(99, 0, -1):
        if count - math.ceil(p * count / 100) >= 10:
            return p
    return 50


def percentile(sorted_values, p: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def load_reference(workload: str, seed: int):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "intervalvote" / "__init__.py").is_file():
        print(f"error: no intervalvote sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{workload.name}-") as workdir:
        return measure(workload, args, workdir)


def timed_setup(workload, seed, workdir):
    """Fresh import, seeded inputs and rule construction, timed."""
    gc.collect()  # every set-up starts with the collector in the same state
    t0 = perf_counter()
    pkg = import_package()
    inputs = workload.setup(pkg, seed, workdir)
    return perf_counter() - t0, pkg, inputs


def repeat_setup(workload, seed, workdir) -> float:
    """Time one more set-up, then restore the modules the run is using, so
    that lazy imports inside the library keep resolving to them."""
    modules = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "intervalvote"}
    seconds, _, _ = timed_setup(workload, seed, workdir)
    sys.modules.update(modules)
    return seconds


def measure(workload, args, workdir) -> int:
    # set-up: import, seeded inputs, rule construction.  It is repeated
    # SETUPS times in all, spread evenly over the timed phase, so that its
    # median covers the whole run rather than its first second.
    seconds, pkg, inputs = timed_setup(workload, args.seed, workdir)
    setup_times = [seconds]
    workload.prepare(inputs)

    # warm-up: one untimed pass grows the heap to its working size before
    # anything is timed; its answers are checked as well
    _, results = run_pass(workload, inputs)
    failed, digest = judge(workload, inputs, results)
    attempted = len(results)
    digests = [digest]

    # timed phase: untraced passes
    passes = []  # per pass: (median probe, {op key: latency})
    phase_start = perf_counter()
    setup_every = args.seconds / SETUPS
    while (
        len(passes) < MIN_PASSES
        or len(setup_times) < SETUPS
        or perf_counter() - phase_start < args.seconds
    ):
        due = phase_start + (len(setup_times) - 1) * setup_every
        if len(setup_times) < SETUPS and perf_counter() >= due:
            setup_times.append(repeat_setup(workload, args.seed, workdir))
        probes, results = run_pass(workload, inputs)
        passes.append((statistics.median(probes), {op.key: t for op, _, t in results}))
        bad, digest = judge(workload, inputs, results)
        attempted += len(results)
        failed += bad
        digests.append(digest)
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"answer digest differs between passes: {sorted(set(digests))}")
    digest = digests[0]

    # An operation's figure is the median over the passes of its latency
    # in probes of its own pass; wall_probes is their sum.
    keys = list(passes[0][1])
    per_op = sorted(
        statistics.median(ops[key] / p for p, ops in passes if key in ops) for key in keys
    )
    wall_probes = sum(per_op)
    tail_p = tail_percentile(len(per_op))
    probe_s = statistics.median(p for p, _ in passes)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(passes),
        "pass_probe_medians_s": [p for p, _ in passes],
        "pass_walls_s": [sum(ops.values()) for _, ops in passes],
        "operations_per_pass": len(per_op),
        "tail_percentile": tail_p,
        "setup_repeats_s": setup_times,
        "digest": digest,
        "op_latencies_ms": {
            key: [ops[key] * 1e3 for _, ops in passes if key in ops] for key in keys
        },
    }
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_probes": (wall_probes, "probe"),
        "op_p50_probes": (statistics.median(per_op), "probe"),
        "op_tail_probes": (percentile(per_op, tail_p), "probe"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(
        f"{workload.name} seed={args.seed}: {len(passes)} passes of {len(per_op)} operations; "
        f"op_tail_probes is p{tail_p} of {len(per_op)} operations; "
        f"median probe {probe_s * 1e3:.3f} ms, so wall_probes is about "
        f"{wall_probes * probe_s:.3f} s; failed_ratio={failed}/{attempted}; digest={digest[:16]}"
    )

    reference = load_reference(workload.name, args.seed)
    if reference is not None and reference["digest"] != digest:
        problems.append(f"answer digest {digest} differs from reference {reference['digest']}")

    if args.trace:
        tracer = Tracer(pkg)
        tracer.install()
        try:
            probes, results = run_pass(workload, inputs, tracer)
        finally:
            tracer.uninstall()
        bad, traced_digest = judge(workload, inputs, results)
        attempted += len(results)
        failed += bad
        if traced_digest != digest:
            problems.append("traced answers differ from untraced answers")
        layer = tracer.metrics()
        traced = sum(t for _, _, t in results) / statistics.median(probes)
        untraced = statistics.median(sum(ops.values()) / p for p, ops in passes)
        layer["trace.overhead_ratio"] = traced / untraced
        coverage = tracer.coverage()
        coverage["operations"] = len(results)
        if reference is not None and reference.get("coverage") not in (None, coverage):
            diff = {
                k: (v, reference["coverage"].get(k))
                for k, v in coverage.items()
                if reference["coverage"].get(k) != v
            }
            problems.append(f"coverage counts differ from reference: {diff}")
        for name in BYPASS[workload.name]:
            held = layer[name] == 0
            verdict = "held" if held else "NOT held"
            print(f"bypass prediction {name} == 0 on {workload.name}: {verdict}")
        if tracer.missing:
            print(f"warning: functions not found, not traced: {tracer.missing}", file=sys.stderr)
        stem = OUT / f"spans-{workload.name}"
        tracer.write_spans(str(stem))
        report.update(coverage=coverage, spans=str(stem) + ".bin")
        units = layer_units()
        metrics = {name: (value, units[name]) for name, value in layer.items() if name in units}
        missing = sorted(set(units) - set(metrics))
        if missing:
            problems.append(f"per-layer metrics not produced: {missing}")

    for problem in problems:
        print(f"BENCHMARK CHECK FAILED: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    report.update(result=result, problems=problems)
    (OUT / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True)
    )
    print(json.dumps(result))
    return 0 if correct else 1


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
