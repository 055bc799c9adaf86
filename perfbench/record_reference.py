#!/usr/bin/env python3
"""Record the answer digest and coverage counts of reference seeds.

    python3 perfbench/record_reference.py --seeds 0-15 [--workload NAME ...]

For each workload and seed this runs one untraced and one traced pass
(no timing loop), checks every answer, and stores the digest and the
traced coverage counts in perfbench/reference.json.  run.py compares
every run on a recorded seed against it, so a later change that answers
differently or examines fewer instances fails loudly.  Re-record only
when a change of answers or coverage is intended, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import run
from layertrace import Tracer
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload, seed: int, workdir: str) -> dict:
    pkg = run.import_package()
    inputs = workload.setup(pkg, seed, workdir)
    workload.prepare(inputs)
    _, results = run.run_pass(workload, inputs)
    failed, digest = run.judge(workload, inputs, results)
    tracer = Tracer(pkg)
    tracer.install()
    try:
        _, traced = run.run_pass(workload, inputs, tracer)
    finally:
        tracer.uninstall()
    traced_failed, traced_digest = run.judge(workload, inputs, traced)
    if failed or traced_failed or traced_digest != digest:
        raise SystemExit(f"{workload.name} seed {seed}: answers fail the gate; not recorded")
    coverage = tracer.coverage()
    coverage["operations"] = len(traced)
    return {"digest": digest, "coverage": coverage}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-15")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    if not (run.SRC / "intervalvote" / "__init__.py").is_file():
        print(f"error: no intervalvote sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        for seed in seed_range(args.seeds):
            with tempfile.TemporaryDirectory(dir=run.OUT, prefix=f"record-{name}-") as workdir:
                entry = record(WORKLOADS[name], seed, workdir)
            reference.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {entry['digest'][:16]}", flush=True)
            run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
