"""The exit-code contract under malformed input: whatever the rule,
profile and violation files and the argument list hold, `cli.main`
returns one of the documented codes 0-5, lets no exception escape and
prints no traceback.

At a fixed seed and example count, Hypothesis draws a seeded
`random.Random` per example.  It mutates valid files, replacing,
deleting or repeating any value in their JSON (m, endpoints, voter ids
and every other field), then sometimes drops, repeats or replaces one
byte of the written text (with bytes that are not UTF-8 among the
replacements) or puts a byte-order mark before it, and builds the
argument list and `INTERVAL_VOTE_BUDGET`.  The campaign bounds are 1-3
or invalid, and the budget is unset or at most 100, because a
campaign's time grows with its bounds and every size guard allows what
the budget allows; `test_cli.py` tests the refusal of larger values.  An input that
decoding refuses (`error: malformed ...` or `error: cannot read ...`)
must exit 2.  `REFUSED` pins, with their exit codes, the inputs the
command line has been made to refuse.

`run_fuzz.py` runs the same generator for a given time at a fresh seed.
"""

import codecs
import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from intervalvote.cli import main
from intervalvote.search import AXIOM_TAGS, BUDGET_ENV
from test_search import FIRST_VIOLATIONS

HUGE = 10**20

RULES = [
    {"m": 3, "theta": ["1/2"] * 3, "alpha": ["1/2"] * 3},
    {"m": 3, "theta": ["1/2"] * 3, "alpha": ["3/4", "1/4", "1/4"], "unchecked": True},
    {"m": 4, "theta": ["2/3", "1/2", "1/2", "1/3"], "alpha": ["1/4", "1/2", "1", "0"]},
]
PROFILES = [
    {
        "m": 3,
        "voters": [
            {"id": 1, "interval": [1, 2]},
            {"id": "b", "interval": [2, 3]},
            {"id": 3, "interval": [3, 3]},
        ],
    },
    {"m": 4, "voters": [{"id": 2, "interval": [1, 4]}, {"id": 4, "interval": [2, 2]}]},
]
# one violation per replayable axiom, as its campaign reports it
VIOLATIONS = [json.loads(text) for text in FIRST_VIOLATIONS.values()]

# what a mutation writes into a file: in place of an integer, boundary
# integers, an m beyond any index (twice as likely) and the wrong types;
# elsewhere, also the other JSON types and strings the files use
INT_VALUES = [0, 1, 2, 4, -1, HUGE, HUGE, True, 1.5, "3", None]
VALUES = INT_VALUES + [
    "", "1/2", "2/3", "1/0", "x", "left", "robustness", [], [1], [2, 1], {}, {"m": 3},
]
# what replaces one byte of a written file: bytes that cannot stand
# there in UTF-8 (a continuation byte, a lead byte, two bytes never
# used), JSON punctuation, a digit and a space
BYTES = b"\x80\xc3\xfe\xff{}[]\",:-0 "
FIXTURE_SPECS = [
    "constant", "constant:winner=2", "constant:winner=9", "constant:",
    "strict-threshold", "log-parity", "even-voter-doubled",
    "profile-dependent-alpha", "log-parity:winner=1", "coin-flip",
]
# option values: mostly valid ones, else one of the invalid ones
M_VALUES = (["2", "3", "4"], ["-1", "0", "1", str(HUGE), "x"])
BOUNDS = (["1", "2", "3"], ["-1", "0", "x"])
TOKENS = ["--unchecked", "--pretty", "--help", "--m", "3", "--rule", "--fixture",
          "constant", "--axiom", "--n", "--profile", "x"]


def _slots(doc):
    """(container, key) for every value inside the JSON document `doc`."""
    if isinstance(doc, dict):
        keys = list(doc)
    elif isinstance(doc, list):
        keys = range(len(doc))
    else:
        return
    for key in keys:
        yield doc, key
        yield from _slots(doc[key])


def _choice(rng, valid, invalid):
    """A valid option value four times in five, else an invalid one."""
    return rng.choice(valid if rng.randrange(5) else invalid)


def _mutated(rng, doc):
    """`doc` with 0, 1 or 2 mutations (one third, half and one sixth of
    the time).  An "m" field, which sizes what the library builds, is
    picked ten times as often as any other value."""
    doc = json.loads(json.dumps(doc))  # a deep copy
    for _ in range(rng.choice([0, 0, 1, 1, 1, 2])):
        slots = list(_slots(doc))
        if not slots:
            break
        slots += [slot for slot in slots if slot[1] == "m"] * 9
        container, key = rng.choice(slots)
        op = rng.choice(["set", "set", "delete", "repeat"])
        if op == "set":
            pool = INT_VALUES if type(container[key]) is int else VALUES
            container[key] = json.loads(json.dumps(rng.choice(pool)))  # a fresh copy
        elif op == "delete":
            del container[key]
        elif isinstance(container, list):
            container.append(container[key])
        else:
            container[key] = [container[key]] * 2
    return doc


def _garbled(rng, data: bytes) -> bytes:
    """`data` unchanged four times in five, else with one byte dropped,
    repeated or replaced by one of `BYTES`, or after a UTF-8 byte-order
    mark."""
    op = rng.choice(["none"] * 16 + ["drop", "repeat", "replace", "bom"])
    if op == "bom":
        return codecs.BOM_UTF8 + data
    if op == "none" or not data:
        return data
    i = rng.randrange(len(data))
    if op == "drop":
        return data[:i] + data[i + 1:]
    if op == "repeat":
        return data[:i + 1] + data[i:]
    return data[:i] + bytes([rng.choice(BYTES)]) + data[i + 1:]


def _argv(rng, rule, profile, violation):
    if rng.randrange(2):
        source = ["--rule", rule]
    else:
        source = ["--fixture", rng.choice(FIXTURE_SPECS), "--m", _choice(rng, *M_VALUES)]
    bounds = [
        "--n-max", _choice(rng, *BOUNDS),
        "--pair-budget", _choice(rng, ["2", "3"], ["-1", "1", "x"]),
        "--lambda-max", _choice(rng, ["0", "1", "3"], ["-1", "x"]),
    ]
    position = lambda: _choice(rng, ["1", "2", "3"], ["-1", "0", "4", str(HUGE), "x"])
    axioms = ",".join(rng.choices([*AXIOM_TAGS, ""], k=rng.randint(1, 3)))
    command = rng.choice([
        ["winner", *source, "--profile", profile],
        ["compat", "--rule", rule],
        ["decompose", "--rule", rule, "--left", position(), "--right", position()],
        ["audit", *source, "--axiom", rng.choice([*AXIOM_TAGS, "", "fairness"]), *bounds],
        ["audit", *source, "--replay", violation],
        ["falsify", *source, *bounds],
        ["falsify", *source, "--axioms", axioms, *bounds],
        ["witness", "--rule", rule, "--kind", rng.choice(["compat", "theorem2", "x"])],
        ["oracle-median", "--profile", profile],
        ["enumerate", "--m", _choice(rng, *M_VALUES), "--n", _choice(rng, *BOUNDS)]
        + rng.choice([[], ["--count-only"]]),
    ])
    edit = rng.choice(["none", "none", "none", "none", "drop", "insert"])
    if edit == "drop":
        del command[rng.randrange(len(command))]
    elif edit == "insert":
        command.insert(rng.randint(0, len(command)), rng.choice(TOKENS))
    return command


def draw_case(rng, directory) -> tuple[list[str], str | None, dict]:
    """One mutated rule, profile and violation file, written into
    `directory`, with the argument list and budget to run them under:
    (argv, budget or None for unset, {name: file bytes})."""
    paths, files = [], {}
    for name, corpus in (("rule", RULES), ("profile", PROFILES), ("violation", VIOLATIONS)):
        path = os.path.join(directory, f"{name}.json")
        text = json.dumps(_mutated(rng, rng.choice(corpus)))
        files[name] = _garbled(rng, text.encode())
        with open(path, "wb") as fh:
            fh.write(files[name])
        paths.append(path)
    argv = _argv(rng, *paths)
    return argv, _choice(rng, [None, "100"], ["1", "5", "0", "x"]), files


def run_case(argv, budget) -> tuple[object, str]:
    """`main(argv)` with `INTERVAL_VOTE_BUDGET` set to `budget` (unset
    for None) and stdout discarded: (exit code, stderr).  An exception
    that escapes `main` propagates."""
    saved = os.environ.pop(BUDGET_ENV, None)
    if budget is not None:
        os.environ[BUDGET_ENV] = budget
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's exit, for --help or a bad argument list
                code = exc.code
    finally:
        os.environ.pop(BUDGET_ENV, None)
        if saved is not None:
            os.environ[BUDGET_ENV] = saved
    return code, err.getvalue()


def breach(code, err: str) -> str | None:
    """What an outcome breaks of the exit-code contract, or None."""
    if type(code) is not int or not 0 <= code <= 5:
        return f"exit code {code!r} is not one of 0-5"
    if "Traceback" in err:
        return "a traceback on stderr"
    if err.startswith(("error: malformed ", "error: cannot read ")) and code != 2:
        return f"a decoding refusal exits {code}, not 2"
    return None


@seed(20261020)
@settings(
    max_examples=500,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(st.randoms(use_true_random=True))
def test_every_outcome_is_a_documented_exit_code(tmp_path, rng):
    argv, budget, files = draw_case(rng, str(tmp_path))
    code, err = run_case(argv, budget)
    assert breach(code, err) is None, (argv, budget, files, code, err)


VALID_RULE = json.dumps(RULES[0])
VALID_PROFILE = json.dumps(PROFILES[0])
HUGE_PROFILE = {"m": HUGE, "voters": [{"id": 1, "interval": [1, 1]}]}
# (files, argv, exit code, start of stderr): the files not given are
# VALID_RULE and VALID_PROFILE; RULE, PROFILE and VIOLATION in argv
# name the files
REFUSED = {
    "rule-not-utf8": (
        {"rule": b"\xff" + VALID_RULE.encode()}, ["compat", "--rule", "RULE"],
        2, "error: cannot read",
    ),
    "profile-bom": (
        {"profile": "\ufeff" + VALID_PROFILE}, ["oracle-median", "--profile", "PROFILE"],
        2, "error: cannot read",
    ),
    "violation-too-deep": (
        {"violation": "[" * 100_000 + "]" * 100_000},
        ["audit", "--rule", "RULE", "--replay", "VIOLATION"],
        2, "error: cannot read",
    ),
    "rule-float-m": (
        {"rule": {**RULES[0], "m": 3.0}}, ["winner", "--rule", "RULE", "--profile", "PROFILE"],
        2, "error: malformed rule",
    ),
    "profile-bool-m": (
        {"profile": {**PROFILES[0], "m": True}}, ["oracle-median", "--profile", "PROFILE"],
        2, "error: malformed profile",
    ),
    "profile-bool-endpoint": (
        {"profile": {"m": 3, "voters": [{"id": 1, "interval": [True, 2]}]}},
        ["winner", "--rule", "RULE", "--profile", "PROFILE"],
        2, "error: malformed profile",
    ),
    "fixture-float-winner": (
        {}, ["winner", "--fixture", "constant:winner=1.5", "--profile", "PROFILE"],
        2, "error: malformed fixture 'constant'",
    ),
    "fixture-bool-winner": (
        {}, ["audit", "--fixture", "constant:winner=true", "--m", "3", "--axiom", "unanimity"],
        2, "error: malformed fixture 'constant'",
    ),
    "unchecked-not-a-boolean": (
        {"rule": {**RULES[1], "unchecked": "true"}},
        ["audit", "--rule", "RULE", "--axiom", "unanimity"],
        2, "error: malformed rule: unchecked is 'true'",
    ),
    "repeated-axiom": (
        {}, ["falsify", "--rule", "RULE", "--axioms", "unanimity,unanimity"],
        2, "error: axiom 'unanimity' is given twice",
    ),
    "empty-axiom-tag": (
        {}, ["falsify", "--rule", "RULE", "--axioms", "unanimity,"],
        2, "error: unknown axiom ''",
    ),
    "empty-axiom": ({}, ["audit", "--rule", "RULE", "--axiom", ""], 2, "error: unknown axiom ''"),
    "abbreviated-option": (
        {}, ["audit", "--rule", "RULE", "--axiom", "unanimity", "--n", "2"], 2, "usage:",
    ),
    "abbreviated-axioms": ({}, ["falsify", "--rule", "RULE", "--axiom", "unanimity"], 2, "usage:"),
    "fixture-parameter-without-value": (
        {}, ["audit", "--fixture", "constant:winner", "--m", "3", "--axiom", "unanimity"],
        2, "error: bad fixture parameter 'winner'",
    ),
    "fixture-parameter-twice": (
        {}, ["audit", "--fixture", "constant:winner=1,winner=2", "--m", "3", "--axiom", "unanimity"],
        2, "error: fixture parameter 'winner' is given twice",
    ),
    "fixture-unknown-parameter": (
        {}, ["audit", "--fixture", "constant:winer=2", "--m", "3", "--axiom", "unanimity"],
        2, "error: malformed fixture 'constant'",
    ),
    "fixture-unknown-tag": (
        {}, ["audit", "--fixture", "coin-flip", "--m", "3", "--axiom", "unanimity"],
        2, "error: unknown fixture 'coin-flip'",
    ),
    "replay-huge-m": (
        {"violation": {"axiom": "majority-criterion", "witness": {"profile": HUGE_PROFILE}}},
        ["audit", "--fixture", "constant", "--m", "3", "--replay", "VIOLATION"],
        2, f"error: m mismatch: rule 3 vs profile {HUGE}",
    ),
    "oracle-median-huge-m": (
        {"profile": HUGE_PROFILE}, ["oracle-median", "--profile", "PROFILE"],
        5, f"error: {HUGE * (HUGE + 1) // 2} intervals at m={HUGE}",
    ),
    "fixture-winner-huge-m": (
        {"profile": HUGE_PROFILE}, ["winner", "--fixture", "log-parity", "--profile", "PROFILE"],
        5, f"error: {HUGE * (HUGE + 1) // 2} intervals at m={HUGE}",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_input(tmp_path, name):
    given_files, argv, expected, message = REFUSED[name]
    paths = {}
    for key, default in (("rule", VALID_RULE), ("profile", VALID_PROFILE), ("violation", "{}")):
        content = given_files.get(key, default)
        if isinstance(content, (dict, list)):
            content = json.dumps(content)
        path = tmp_path / f"{key}.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        paths[key.upper()] = str(path)
    code, err = run_case([paths.get(arg, arg) for arg in argv], None)
    assert (code, breach(code, err)) == (expected, None), err
    assert err.startswith(message), err
