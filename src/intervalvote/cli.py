"""Batch command-line surface.

All structured output is JSON on stdout (rationals as "p/q" strings);
errors go to stderr.  Exit codes: 0 success / clean sweep, 1 violation
or disagreement found, 2 parse failure, 3 incompatible rule without
--unchecked, 4 undetermined instances, 5 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .core import Interval, Profile, TooLarge, VotingError, render_rational
from .axioms import RuleFn, replay_violation
from .rules import (
    IncompatibleRule,
    PositionThresholdRule,
    check_compatible,
    decompose_interval,
    endpoint_median_oracle,
    endpoint_median_rule,
    incompatibility_witness,
    collective_positions,
    vectors_from_json,
)
from .search import (
    AXIOM_TAGS,
    FIXTURE_TAGS,
    SearchBounds,
    axiom_stream,
    enumerate_profiles,
    falsify,
    fixture,
    profile_count,
    theorem2_uniqueness_witness,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_UNDETERMINED = 4
EXIT_BUDGET = 5


def _emit(data, pretty: bool) -> None:
    if isinstance(data, str):
        print(data)
        return
    if pretty:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise VotingError(f"cannot read {path}: {exc}") from exc


def _load_profile(path: str) -> Profile:
    return Profile.from_json(_load_json(path))


def _parse_fixture_spec(spec: str) -> tuple[str, dict]:
    tag, _, raw = spec.partition(":")
    params = {}
    if raw:
        for piece in raw.split(","):
            key, _, val = piece.partition("=")
            if not val:
                raise VotingError(f"bad fixture parameter {piece!r}")
            params[key] = val
    if tag not in FIXTURE_TAGS:
        raise VotingError(
            f"unknown fixture {tag!r}; choose from {', '.join(FIXTURE_TAGS)}"
        )
    return tag, params


def _load_rule_fn(args, m: Optional[int] = None) -> RuleFn:
    """Resolve --rule / --fixture into a callable rule."""
    if getattr(args, "fixture", None):
        tag, params = _parse_fixture_spec(args.fixture)
        if m is None:
            raise VotingError("--fixture requires --m")
        return fixture(tag, m, params)
    if not args.rule:
        raise VotingError("one of --rule or --fixture is required")
    return RuleFn.from_ptr(_load_ptr(args))


def _load_ptr(args) -> PositionThresholdRule:
    if not args.rule:
        raise VotingError("--rule is required")
    data = _load_json(args.rule)
    if args.unchecked:
        return PositionThresholdRule.make_unchecked(*vectors_from_json(data))
    return PositionThresholdRule.from_json(data)


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
    rule = _load_ptr(args)
    iv = Interval(args.left, args.right)
    iv.validate(rule.m)
    ballots = decompose_interval(rule.alpha, iv)
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
    f = _load_rule_fn(args, m=args.m)
    if args.replay:
        violation = _load_json(args.replay)
        reproduced = replay_violation(f, violation)
        _emit({"replayed": reproduced, "axiom": violation.get("axiom")}, args.pretty)
        return EXIT_VIOLATION if reproduced else EXIT_OK
    campaign = falsify(f, args.axiom, _bounds(args))
    _emit(campaign.to_json(), args.pretty)
    if campaign.violation is not None:
        return EXIT_VIOLATION
    if campaign.undetermined:
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_falsify(args) -> int:
    """Scorecard over several axioms at once."""
    f = _load_rule_fn(args, m=args.m)
    tags = args.axioms.split(",") if args.axioms else list(AXIOM_TAGS)
    for tag in tags:  # reject a bad tag before any campaign runs
        axiom_stream(tag)
    bounds = _bounds(args)
    card = {}
    worst = EXIT_OK
    for tag in tags:
        campaign = falsify(f, tag, bounds)
        card[tag] = campaign.to_json()
        if campaign.violation is not None:
            worst = EXIT_VIOLATION
        elif campaign.undetermined and worst == EXIT_OK:
            worst = EXIT_UNDETERMINED
    _emit({"rule": f.name, "scorecard": card}, args.pretty)
    return worst


def cmd_witness(args) -> int:
    alpha, theta = vectors_from_json(_load_json(args.rule))
    if args.kind == "compat":
        found = incompatibility_witness(alpha, theta)
        if found is None:
            _emit("none", args.pretty)
            return EXIT_OK
        _emit(
            {
                "kind": "robustness-violation",
                "profile": found.profile.to_json(),
                "voter": found.voter,
                "side": found.side,
            },
            args.pretty,
        )
        return EXIT_OK
    rule = PositionThresholdRule.make_unchecked(alpha, theta)
    result = theorem2_uniqueness_witness(rule)
    if result is None:
        _emit("none", args.pretty)
        return EXIT_OK
    profile, axiom, violation = result
    _emit(
        {
            "kind": axiom,
            "profile": profile.to_json(),
            "violation": violation.to_json(),
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_oracle_median(args) -> int:
    p = _load_profile(args.profile)
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
        _emit({"counts": list(anon.counts)}, args.pretty)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_rule_flags(sub, fixture_allowed: bool = True) -> None:
    sub.add_argument("--rule", help="rule JSON file")
    if fixture_allowed:
        sub.add_argument(
            "--fixture",
            help="fixture rule TAG[:key=value,...] instead of a rule file",
        )
    sub.add_argument(
        "--unchecked",
        action="store_true",
        help="accept vector pairs that fail the compatibility test",
    )


def _add_campaign_flags(sub) -> None:
    sub.add_argument("--m", type=int, help="alternative count for fixture rules")
    sub.add_argument("--n-max", type=int, default=3, dest="n_max")
    sub.add_argument("--lambda-max", type=int, default=1000, dest="lambda_max")
    sub.add_argument("--pair-budget", type=int, default=5, dest="pair_budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalvote",
        description="Exact-arithmetic voting on the interval domain.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("winner", help="evaluate a rule on a profile")
    _add_rule_flags(s)
    s.add_argument("--profile", required=True)
    s.set_defaults(fn=cmd_winner)

    s = subs.add_parser("compat", help="weight/threshold compatibility test")
    s.add_argument("--rule", required=True)
    s.set_defaults(fn=cmd_compat)

    s = subs.add_parser("decompose", help="split an interval into weighted singletons")
    _add_rule_flags(s, fixture_allowed=False)
    s.add_argument("--left", type=int, required=True)
    s.add_argument("--right", type=int, required=True)
    s.set_defaults(fn=cmd_decompose)

    s = subs.add_parser("audit", help="exhaustive single-axiom campaign")
    _add_rule_flags(s)
    _add_campaign_flags(s)
    s.add_argument("--axiom", help="axiom tag to audit")
    s.add_argument("--replay", help="violation JSON file to replay instead")
    s.set_defaults(fn=cmd_audit)

    s = subs.add_parser("falsify", help="scorecard across several axioms")
    _add_rule_flags(s)
    _add_campaign_flags(s)
    s.add_argument("--axioms", help="comma-separated axiom tags (default: all)")
    s.set_defaults(fn=cmd_falsify)

    s = subs.add_parser("witness", help="proof-derived counterexample constructions")
    s.add_argument("--rule", required=True)
    s.add_argument("--kind", choices=["compat", "theorem2"], required=True)
    s.set_defaults(fn=cmd_witness)

    s = subs.add_parser(
        "oracle-median", help="cross-check the all-1/2 rule against the endpoint median"
    )
    s.add_argument("--profile", required=True)
    s.set_defaults(fn=cmd_oracle_median)

    s = subs.add_parser("enumerate", help="list anonymized profiles")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--count-only", action="store_true", dest="count_only")
    s.set_defaults(fn=cmd_enumerate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except IncompatibleRule as exc:
        print(f"error: {exc} (use --unchecked to override)", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VotingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
