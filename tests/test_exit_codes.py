"""The exit-code contract under malformed input: whatever the rule,
profile and violation files and the argument list hold, `cli.main`
returns one of the documented codes 0-5, lets no exception escape and
prints no traceback.

At a fixed seed and example count, Hypothesis draws a seeded
`random.Random` per example.  It mutates valid files, replacing,
deleting or repeating any value in their JSON (m, endpoints, voter ids
and every other field), and builds the argument list and
`INTERVAL_VOTE_BUDGET`.  The campaign bounds are 1-3 or invalid, and the
budget is unset or at most 100, because a campaign's time grows with its
bounds and every size guard allows what the budget allows;
`test_cli.py` tests the refusal of larger values.
"""

import contextlib
import io
import json

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


def _argv(rng, rule, profile, violation):
    if rng.randrange(2):
        source = ["--rule", rule] + rng.choice([[], ["--unchecked"]])
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


@seed(20261020)
@settings(
    max_examples=500,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(st.randoms(use_true_random=True))
def test_every_outcome_is_a_documented_exit_code(tmp_path, monkeypatch, rng):
    paths, files = [], {}
    for name, corpus in (("rule", RULES), ("profile", PROFILES), ("violation", VIOLATIONS)):
        path = tmp_path / f"{name}.json"
        files[name] = json.dumps(_mutated(rng, rng.choice(corpus)))
        path.write_text(files[name])
        paths.append(str(path))
    argv = _argv(rng, *paths)
    budget = _choice(rng, [None, "100"], ["1", "5", "0", "x"])
    if budget is None:
        monkeypatch.delenv(BUDGET_ENV, raising=False)
    else:
        monkeypatch.setenv(BUDGET_ENV, budget)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's exit, for --help or a bad argument list
            code = exc.code
    assert type(code) is int and 0 <= code <= 5, (argv, budget, files, code)
    assert "Traceback" not in err.getvalue(), (argv, budget, files, err.getvalue())
