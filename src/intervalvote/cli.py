"""Batch command-line surface.

All structured output is JSON on stdout (rationals as "p/q" strings);
errors go to stderr.  Exit codes: 0 success / clean sweep, 1 violation
or disagreement found, 2 parse failure, 3 incompatible rule file not
marked "unchecked": true, 4 undetermined instances, 5 an enumeration
budget or a size guard exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .core import Interval, Profile, TooLarge, VotingError, render_rational
from .axioms import RuleFn, replay_violation
from .rules import (
    IncompatibleRule,
    PositionThresholdRule,
    check_compatible,
    decompose_interval,
    endpoint_median_oracle,
    endpoint_median_rule,
    collective_positions,
    vectors_from_json,
)
from .search import (
    AXIOM_TAGS,
    Campaign,
    SearchBounds,
    axiom_stream,
    enumerate_profiles,
    falsify,
    fixture,
    incompatibility_witness,
    profile_count,
    require_m_within_budget,
    theorem2_uniqueness_witness,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_UNDETERMINED = 4
EXIT_BUDGET = 5


# built once: `json.dumps` builds an encoder per call
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_PRETTY = json.JSONEncoder(sort_keys=True, indent=2)


def _emit(data, pretty: bool) -> bool:
    """Print `data` as one JSON document (a string as it is); False when
    stdout is closed, after which output goes to os.devnull."""
    if not isinstance(data, str):
        data = (_PRETTY if pretty else _COMPACT).encode(data)
    try:
        print(data)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def _load_json(path: str):
    """The UTF-8 JSON document in the file at `path`."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode())
    # ValueError covers bad JSON, a byte-order mark and invalid UTF-8
    except (OSError, ValueError, RecursionError) as exc:
        raise VotingError(f"cannot read {path}: {exc}") from exc


def _load_profile(path: str) -> Profile:
    return Profile.from_json(_load_json(path))


def _parse_fixture_spec(spec: str) -> tuple[str, dict]:
    tag, colon, raw = spec.partition(":")
    params = {}
    if colon:  # "TAG:" has one empty parameter
        for piece in raw.split(","):
            key, _, val = piece.partition("=")
            if not val:
                raise VotingError(f"bad fixture parameter {piece!r}")
            if key in params:
                raise VotingError(f"fixture parameter {key!r} is given twice")
            params[key] = val
    return tag, params


def _load_rule_fn(args, m: int | None = None) -> RuleFn:
    """Resolve --rule / --fixture into a callable rule."""
    if args.rule and args.fixture:
        raise VotingError("use one of --rule or --fixture, not both")
    if args.fixture:
        tag, params = _parse_fixture_spec(args.fixture)
        if m is None:
            raise VotingError("--fixture requires --m")
        return fixture(tag, m, params)
    rule = _load_ptr(args)
    if m is not None and m != rule.m:
        raise VotingError(f"--m {m} does not match the rule file's m={rule.m}")
    return RuleFn.from_ptr(rule, name=args.rule)


def _load_ptr(args) -> PositionThresholdRule:
    if not args.rule:
        raise VotingError("one of --rule or --fixture is required")
    return PositionThresholdRule.from_json(_load_json(args.rule))


def _campaign_exit(campaigns: list[Campaign]) -> int:
    """1 if any campaign found a violation, else 4 if any left instances
    undetermined, else 0."""
    if any(c.violation is not None for c in campaigns):
        return EXIT_VIOLATION
    if any(c.undetermined for c in campaigns):
        return EXIT_UNDETERMINED
    return EXIT_OK


def _bounds(args) -> SearchBounds:
    return SearchBounds(
        n_max=args.n_max,
        pair_budget=args.pair_budget,
        lambda_max=args.lambda_max,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_winner(args) -> int:
    p = _load_profile(args.profile)
    if args.fixture:
        f = _load_rule_fn(args, m=p.m)
        _emit({"winner": f(p)}, args.pretty)
        return EXIT_OK
    rule = _load_ptr(args)
    winner = rule.winner(p)
    positions = [render_rational(x) for x in collective_positions(rule.alpha, p)]
    scaled = [render_rational(t * p.n) for t in rule.theta.theta]
    _emit(
        {"winner": winner, "positions": positions, "thresholds_scaled": scaled},
        args.pretty,
    )
    return EXIT_OK


def cmd_compat(args) -> int:
    alpha, theta = vectors_from_json(_load_json(args.rule))
    ok, idx = check_compatible(alpha, theta)
    _emit({"compatible": ok, "violating_index": idx}, args.pretty)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_decompose(args) -> int:
    if not args.rule:
        raise VotingError("--rule is required")
    alpha, _ = vectors_from_json(_load_json(args.rule))
    iv = Interval(args.left, args.right)
    iv.validate(alpha.m)
    ballots = decompose_interval(alpha, iv)
    _emit(
        {
            "interval": [iv.left, iv.right],
            "ballots": [
                {"alternative": b.alternative, "weight": render_rational(b.weight)}
                for b in ballots
            ],
            "total_weight": render_rational(
                sum((b.weight for b in ballots), Fraction(0))
            ),
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_audit(args) -> int:
    # only an absent flag is missing; '' names a tag or a path
    if args.axiom is None and args.replay is None:
        raise VotingError("one of --axiom or --replay is required")
    if args.axiom is not None and args.replay is not None:
        raise VotingError("use one of --axiom or --replay, not both")
    f = _load_rule_fn(args, m=args.m)
    if args.replay is not None:
        violation = _load_json(args.replay)
        reproduced = replay_violation(f, violation)
        _emit({"replayed": reproduced, "axiom": violation.get("axiom")}, args.pretty)
        return EXIT_VIOLATION if reproduced else EXIT_OK
    campaign = falsify(f, args.axiom, _bounds(args))
    _emit({"rule": f.name, **campaign.to_json()}, args.pretty)
    return _campaign_exit([campaign])


def cmd_falsify(args) -> int:
    """Scorecard over several axioms at once."""
    # only an absent --axioms means all; '' names the empty tag
    tags = args.axioms.split(",") if args.axioms is not None else list(AXIOM_TAGS)
    for i, tag in enumerate(tags):  # reject a bad tag before any rule is built
        axiom_stream(tag)
        if tag in tags[:i]:
            raise VotingError(f"axiom {tag!r} is given twice")
    f = _load_rule_fn(args, m=args.m)
    bounds = _bounds(args)
    campaigns = [falsify(f, tag, bounds) for tag in tags]
    card = {c.axiom: c.to_json() for c in campaigns}
    _emit({"rule": f.name, "scorecard": card}, args.pretty)
    return _campaign_exit(campaigns)


def cmd_witness(args) -> int:
    """Print the witness as a violation that `audit --replay` reads, or
    "none"."""
    alpha, theta = vectors_from_json(_load_json(args.rule))
    if args.kind == "compat":
        violation = incompatibility_witness(alpha, theta)
    else:
        rule = PositionThresholdRule.make_unchecked(alpha, theta)
        violation = theorem2_uniqueness_witness(rule)
    _emit("none" if violation is None else violation.to_json(), args.pretty)
    return EXIT_OK


def cmd_oracle_median(args) -> int:
    p = _load_profile(args.profile)
    require_m_within_budget(p.m)  # before the rule's vectors of length m
    rule = endpoint_median_rule(p.m)
    via_rule = rule.winner(p)
    via_oracle = endpoint_median_oracle(p)
    agree = via_rule == via_oracle
    _emit(
        {
            "rule_winner": via_rule,
            "endpoint_median": via_oracle,
            "agree": agree,
        },
        args.pretty,
    )
    return EXIT_OK if agree else EXIT_VIOLATION


def cmd_enumerate(args) -> int:
    if args.count_only:
        _emit({"m": args.m, "n": args.n, "count": profile_count(args.m, args.n)}, args.pretty)
        return EXIT_OK
    for anon in enumerate_profiles(args.m, args.n):
        if not _emit({"counts": list(anon.counts)}, args.pretty):
            break
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_rule_flags(sub) -> None:
    sub.add_argument("--rule", help="rule JSON file")
    sub.add_argument(
        "--fixture", help="fixture rule TAG[:key=value,...] instead of a rule file"
    )


def _add_campaign_flags(sub) -> None:
    sub.add_argument(
        "--m", type=int, help="alternative count: required with --fixture, "
        "must equal the m of a --rule file"
    )
    sub.add_argument("--n-max", type=int, default=SearchBounds.n_max, dest="n_max")
    sub.add_argument(
        "--lambda-max", type=int, default=SearchBounds.lambda_max, dest="lambda_max"
    )
    sub.add_argument(
        "--pair-budget", type=int, default=SearchBounds.pair_budget, dest="pair_budget"
    )


# Built once per process.  `set_defaults(fn=...)` binds the `cmd_*`
# functions at build time; no test or tracer patches them.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalvote",
        description="Exact-arithmetic voting on the interval domain.",
        allow_abbrev=False,
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    subs = parser.add_subparsers(dest="command", required=True)
    # an abbreviation could silently name another flag (--n for --n-max)
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    s = add_parser("winner", help="evaluate a rule on a profile")
    _add_rule_flags(s)
    s.add_argument("--profile", required=True)
    s.set_defaults(fn=cmd_winner)

    s = add_parser("compat", help="weight/threshold compatibility test")
    s.add_argument("--rule", required=True)
    s.set_defaults(fn=cmd_compat)

    s = add_parser("decompose", help="split an interval into weighted singletons")
    s.add_argument("--rule", help="rule JSON file")
    s.add_argument("--left", type=int, required=True)
    s.add_argument("--right", type=int, required=True)
    s.set_defaults(fn=cmd_decompose)

    s = add_parser("audit", help="exhaustive single-axiom campaign")
    _add_rule_flags(s)
    _add_campaign_flags(s)
    s.add_argument("--axiom", help="axiom tag to audit")
    s.add_argument("--replay", help="violation JSON file to replay instead")
    s.set_defaults(fn=cmd_audit)

    s = add_parser("falsify", help="scorecard across several axioms")
    _add_rule_flags(s)
    _add_campaign_flags(s)
    s.add_argument("--axioms", help="comma-separated axiom tags (default: all)")
    s.set_defaults(fn=cmd_falsify)

    s = add_parser("witness", help="proof-derived counterexample constructions")
    s.add_argument("--rule", required=True)
    s.add_argument("--kind", choices=["compat", "theorem2"], required=True)
    s.set_defaults(fn=cmd_witness)

    s = add_parser(
        "oracle-median", help="cross-check the all-1/2 rule against the endpoint median"
    )
    s.add_argument("--profile", required=True)
    s.set_defaults(fn=cmd_oracle_median)

    s = add_parser("enumerate", help="list anonymized profiles")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--count-only", action="store_true", dest="count_only")
    s.set_defaults(fn=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except IncompatibleRule as exc:
        print(
            f'error: {exc} (mark the rule file "unchecked": true to override)',
            file=sys.stderr,
        )
        return EXIT_INCOMPATIBLE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VotingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
