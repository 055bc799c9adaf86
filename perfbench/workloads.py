"""The benchmark's workloads: seeded inputs, operations and correctness gate.

Each workload turns `--seed` into inputs, lists its operations, and
judges every answer against what the paper guarantees or against an
independent oracle.  The library sees only the generated profiles,
rules and rule files.

A workload object has:
  setup(pkg, seed, workdir) -> inputs   (timed as set-up)
  prepare(inputs)                       (oracles; timed nowhere)
  ops(inputs) -> [Op]                   (one pass, in order)
  followups(inputs, op, answer) -> [Op] (operations an answer triggers)
  check(inputs, op, answer) -> bool     (correctness; timed nowhere)
  canonical(op, answer) -> str          (what the answer digest covers)
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HALF = Fraction(1, 2)

# Exit codes of the command line (see intervalvote.cli).
EXIT_OK, EXIT_VIOLATION, EXIT_UNDETERMINED = 0, 1, 4

# The questions are fixed here rather than read from the library, so a
# change to the library cannot change what the benchmark asks.
ALL_AXIOMS = (
    "robustness",
    "reinforcement",
    "unanimity",
    "anonymity",
    "continuity",
    "strategyproofness",
    "strong-uncompromisingness",
    "majority-criterion",
    "strong-unanimity",
    "weak-efficiency",
    "shift-symmetry",
)
CHARACTERIZATION = ("robustness", "reinforcement", "unanimity", "anonymity", "continuity")


@dataclass(frozen=True)
class Op:
    """One operation: `key` names it identically in every pass."""

    key: str
    run: Callable[[], object]
    meta: tuple = ()


# ---------------------------------------------------------------------------
# rule construction


def _twelfths(rng: random.Random, count: int, lo: int, hi: int) -> list[Fraction]:
    """`count` sorted values in [lo/12, hi/12]."""
    return sorted(Fraction(rng.randint(lo, hi), 12) for _ in range(count))


def build_rule(pkg, alpha: list[Fraction], compatible: bool):
    """Threshold rule with theta = 1/2 throughout, built through the
    library's checked or unchecked constructor."""
    m = len(alpha)
    weights = pkg.WeightVector(m, tuple(alpha))
    thresholds = pkg.ThresholdVector.constant(m, HALF)
    if compatible:
        return pkg.PositionThresholdRule.make(weights, thresholds)
    rule = pkg.PositionThresholdRule.make_unchecked(weights, thresholds)
    if rule.compatible:
        raise RuntimeError(f"construction gave a compatible pair: {rule.to_json()}")
    return rule


def early_descent(rng: random.Random, rest: list[Fraction]) -> list[Fraction]:
    """alpha_1 in {3/4, 1} above a non-decreasing rest below it.

    With theta = 1/2 the pair is incompatible at index 1, and the
    incompatibility witness profile has at most three voters, so an
    exhaustive robustness campaign with n_max >= 3 finds a violation.
    """
    return [rng.choice((Fraction(3, 4), Fraction(1)))] + rest


# ---------------------------------------------------------------------------
# winner_grid


class WinnerGrid:
    """Library-level `PositionThresholdRule.winner(p)` queries over m x n."""

    name = "winner_grid"
    GRID_M = (5, 20, 50)
    # n = 10^4 is left out: a single query there takes up to half a
    # second, too long to time steadily on a shared host (see README).
    GRID_N = (100, 1000)

    def setup(self, pkg, seed, workdir):
        rng = random.Random(seed)
        cells = []
        for m in self.GRID_M:
            # alpha near 1/2 keeps every rule's winner near the middle
            rules = {
                "half": pkg.endpoint_median_rule(m),
                "compat": build_rule(pkg, _twelfths(rng, m, 5, 7), True),
                "unchecked": build_rule(
                    pkg, early_descent(rng, _twelfths(rng, m - 1, 5, 7)), False
                ),
            }
            for n in self.GRID_N:
                p = pkg.random_profile(m, n, seed=rng.randrange(2**31))
                cells.append((m, n, rules, {"id": p, "anon": pkg.anonymize(p)}))
        return {"pkg": pkg, "cells": cells}

    def prepare(self, inputs):
        """Expected winners from oracles that never call the kernel."""
        pkg = inputs["pkg"]
        expected = {}
        for m, n, rules, forms in inputs["cells"]:
            for label, rule in rules.items():
                if label == "half":
                    winner = pkg.endpoint_median_oracle(forms["id"])
                else:
                    winner = _decomposed_winner(pkg, rule, forms["anon"])
                expected[(m, n, label)] = winner
        inputs["expected"] = expected

    def ops(self, inputs):
        out = []
        for m, n, rules, forms in inputs["cells"]:
            for label, rule in rules.items():
                for form, profile in forms.items():
                    query = functools.partial(rule.winner, profile)
                    out.append(Op(f"m{m}_n{n}.{label}.{form}", query, (m, n, label)))
        return out

    def followups(self, inputs, op, answer):
        return []

    def check(self, inputs, op, answer):
        return answer == inputs["expected"][op.meta]

    def canonical(self, op, answer):
        return str(answer)


def _decomposed_winner(pkg, rule, profile) -> int:
    n = profile.n
    for i in range(1, rule.m):
        position = pkg.collective_position_decomposed(rule.alpha, profile, i)
        if position >= rule.theta.theta[i - 1] * n:
            return i
    return rule.m


# ---------------------------------------------------------------------------
# shared by the two scorecards: in-process command-line questions


def run_cli(pkg, argv):
    """Call `intervalvote.cli.main(argv)` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _campaign_answer(answer) -> dict:
    code, stdout, _ = answer
    if code not in (EXIT_OK, EXIT_VIOLATION, EXIT_UNDETERMINED):
        return {"exit": code}
    report = json.loads(stdout)
    return {
        "exit": code,
        "instances_checked": report["instances_checked"],
        "undetermined": report["undetermined"],
        "violation": report["violation"],
    }


def _verdict(answer) -> str | None:
    """'clean', 'violation' or 'undetermined'; None if the exit code and
    the report disagree or the command failed."""
    parsed = _campaign_answer(answer)
    code = parsed["exit"]
    if code == EXIT_VIOLATION and parsed.get("violation") is not None:
        return "violation"
    if code == EXIT_UNDETERMINED and parsed.get("violation") is None and parsed["undetermined"] > 0:
        return "undetermined"
    if code == EXIT_OK and parsed.get("violation") is None and parsed.get("undetermined") == 0:
        return "clean"
    return None


def _canonical_campaign(op, answer) -> str:
    if op.key.startswith("replay:"):
        code, stdout, _ = answer
        body = json.loads(stdout) if code in (EXIT_OK, EXIT_VIOLATION) else None
        return json.dumps({"exit": code, "replayed": body and body.get("replayed")})
    return json.dumps(_campaign_answer(answer), sort_keys=True)


def _replay_ops(pkg, workdir, op, answer, rule_args):
    """A campaign that found a violation is followed by its replay."""
    code, stdout, _ = answer
    if op.meta[0] == "replay" or code != EXIT_VIOLATION:
        return []
    try:
        violation = json.loads(stdout)["violation"]
    except (ValueError, KeyError, TypeError):
        return []  # the check reports the malformed answer
    path = os.path.join(workdir, f"violation-{op.key.replace(':', '-')}.json")
    with open(path, "w") as fh:
        json.dump(violation, fh)
    argv = ["audit", *rule_args, "--replay", path]
    return [Op(f"replay:{op.key}", functools.partial(run_cli, pkg, argv), ("replay",))]


def _replay_ok(answer) -> bool:
    code, stdout, _ = answer
    return code == EXIT_VIOLATION and json.loads(stdout).get("replayed") is True


# ---------------------------------------------------------------------------
# audit_scorecard


CLEAN, VIOLATION, UNDETERMINED = {"clean"}, {"violation"}, {"undetermined"}


class AuditScorecard:
    """Questions "is rule R clean for axiom A within bounds B?" through
    the command line.

    EXPECTED holds the verdicts that are guaranteed; an axiom missing
    from a row may get any verdict whose exit code matches its report.
    - endpoint-median: clean on all 11 axioms.
    - compatible: clean on robustness and the characterization axioms
      (continuity may exhaust lambda_max, which is not a violation).
    - every rule with constant theta = 1/2: the majority criterion and
      weak efficiency hold; every fixed-vector rule is reinforcing,
      unanimous and anonymous.
    - the compatible family of `compatible_alpha` fails shift symmetry
      and strong unanimity; unchecked rules fail robustness.
    """

    name = "audit_scorecard"
    THETA_HALF = {
        "reinforcement": CLEAN,
        "unanimity": CLEAN,
        "anonymity": CLEAN,
        "majority-criterion": CLEAN,
        "weak-efficiency": CLEAN,
    }
    EXPECTED = {
        "endpoint-median": {axiom: CLEAN for axiom in ALL_AXIOMS},
        "compatible": {
            **THETA_HALF,
            "robustness": CLEAN,
            "continuity": CLEAN | UNDETERMINED,
            "shift-symmetry": VIOLATION,
            "strong-unanimity": VIOLATION,
        },
        "unchecked": {**THETA_HALF, "robustness": VIOLATION},
    }
    # Bounds keep every question under about 100 ms, so that each one is
    # timed many times in a run.  At m=4 the two deviation axioms
    # enumerate weak orders of four alternatives per voter; two voters
    # keep them near 50 ms (three take 250 ms).
    N_MAX = 3
    N_MAX_AT = {(4, "strategyproofness"): 2, (4, "strong-uncompromisingness"): 2}
    PAIR_BUDGET = {3: 3, 4: 2}
    LAMBDA_MAX = 10

    def setup(self, pkg, seed, workdir):
        rng = random.Random(seed)
        rules = []
        # Three rules of each family at m=3 put the median operation in the
        # middle of the cluster of cheap m=3 sweeps (majority criterion, weak
        # efficiency) instead of at its edge, where op_p50_probes would jump.
        for m, count in ((3, 3), (4, 1)):
            rules.append((f"em{m}", "endpoint-median", pkg.endpoint_median_rule(m)))
            for tag in "abc"[:count]:
                alpha = self.compatible_alpha(m, rng)
                rules.append((f"c{m}{tag}", "compatible", build_rule(pkg, alpha, True)))
            for tag in "abc"[:count]:
                alpha = early_descent(rng, _twelfths(rng, m - 1, 0, 5))
                rules.append((f"u{m}{tag}", "unchecked", build_rule(pkg, alpha, False)))
        files = {}
        for key, _, rule in rules:
            path = os.path.join(workdir, f"rule-{key}.json")
            with open(path, "w") as fh:
                json.dump(rule.to_json(), fh)
            files[key] = path
        return {"pkg": pkg, "workdir": workdir, "rules": rules, "files": files}

    @staticmethod
    def compatible_alpha(m: int, rng: random.Random) -> list[Fraction]:
        """Non-decreasing, so compatible with constant theta.

        alpha_1 < 1/2 <= alpha_2 and alpha_{m-1} = 1 make every rule of
        the family fail shift symmetry (one voter on [x_1, x_2]) and
        strong unanimity (two voters on [x_{m-1}, x_m], one on {x_m})
        within three voters, so all seeds give the same verdicts.
        """
        return [Fraction(rng.randint(0, 5), 12)] + _twelfths(rng, m - 3, 6, 12) + [Fraction(1)] * 2

    def prepare(self, inputs):
        pass

    def ops(self, inputs):
        pkg = inputs["pkg"]
        out = []
        for key, kind, rule in inputs["rules"]:
            rule_args = ["--rule", inputs["files"][key]]
            for axiom in ALL_AXIOMS:
                argv = [
                    "audit",
                    *rule_args,
                    "--axiom",
                    axiom,
                    "--n-max",
                    str(self.N_MAX_AT.get((rule.m, axiom), self.N_MAX)),
                    "--pair-budget",
                    str(self.PAIR_BUDGET[rule.m]),
                    "--lambda-max",
                    str(self.LAMBDA_MAX),
                ]
                meta = (kind, axiom, tuple(rule_args))
                out.append(Op(f"{key}:{axiom}", functools.partial(run_cli, pkg, argv), meta))
        return out

    def followups(self, inputs, op, answer):
        return _replay_ops(inputs["pkg"], inputs["workdir"], op, answer, list(op.meta[-1]))

    def check(self, inputs, op, answer):
        if op.meta[0] == "replay":
            return _replay_ok(answer)
        kind, axiom, _ = op.meta
        verdict = _verdict(answer)
        allowed = self.EXPECTED[kind].get(axiom)
        return verdict is not None and (allowed is None or verdict in allowed)

    def canonical(self, op, answer):
        return _canonical_campaign(op, answer)


# ---------------------------------------------------------------------------
# independence_scorecard


class IndependenceScorecard:
    """The five fixture rules x the five characterization axioms at m=3."""

    name = "independence_scorecard"
    DESIGNATED = {
        "constant": "unanimity",
        "strict-threshold": "continuity",
        "log-parity": "reinforcement",
        "even-voter-doubled": "anonymity",
        "profile-dependent-alpha": "reinforcement",
    }
    # Every fixture still fails exactly its designated axiom at these
    # bounds (at lambda_max 5 log-parity's continuity campaign ends
    # undetermined), and the strict-threshold continuity campaign, the
    # longest question, takes about 70 ms.
    BOUNDS = ["--n-max", "3", "--pair-budget", "3", "--lambda-max", "10"]

    def setup(self, pkg, seed, workdir):
        rng = random.Random(seed)
        questions = [(tag, axiom) for tag in self.DESIGNATED for axiom in CHARACTERIZATION]
        rng.shuffle(questions)
        specs = {tag: tag for tag in self.DESIGNATED}
        specs["constant"] = f"constant:winner={rng.randint(1, 3)}"
        return {"pkg": pkg, "questions": questions, "specs": specs}

    def prepare(self, inputs):
        pass

    def ops(self, inputs):
        pkg = inputs["pkg"]
        out = []
        for tag, axiom in inputs["questions"]:
            spec = inputs["specs"][tag]
            argv = ["audit", "--fixture", spec, "--m", "3", "--axiom", axiom, *self.BOUNDS]
            out.append(Op(f"{tag}:{axiom}", functools.partial(run_cli, pkg, argv), (tag, axiom)))
        return out

    def followups(self, inputs, op, answer):
        return []

    def check(self, inputs, op, answer):
        tag, axiom = op.meta
        verdict = _verdict(answer)
        if verdict is None:
            return False
        return (verdict != "clean") == (axiom == self.DESIGNATED[tag])

    def canonical(self, op, answer):
        return _canonical_campaign(op, answer)


WORKLOADS = {w.name: w for w in (WinnerGrid(), AuditScorecard(), IndependenceScorecard())}
