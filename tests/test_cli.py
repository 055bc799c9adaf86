"""Command-line surface: JSON output, exit codes, witness replay."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from intervalvote import cli
from intervalvote.cli import (
    _emit,
    EXIT_BUDGET,
    EXIT_INCOMPATIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNDETERMINED,
    EXIT_VIOLATION,
    main,
)


@pytest.fixture
def files(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


@pytest.fixture
def figure_profile(files):
    return files(
        "profile.json",
        {
            "m": 4,
            "voters": [
                {"id": 1, "interval": [1, 2]},
                {"id": 2, "interval": [1, 3]},
                {"id": 3, "interval": [2, 4]},
            ],
        },
    )


@pytest.fixture
def em_rule(files):
    return files(
        "em.json", {"m": 4, "theta": ["1/2"] * 4, "alpha": ["1/2"] * 4}
    )


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestWinner:
    def test_left_endpoint_rule(self, capsys, files, figure_profile):
        rule = files("f1.json", {"m": 4, "theta": ["1/2"] * 4, "alpha": ["1"] * 4})
        code, out = run(
            capsys, "winner", "--rule", rule, "--profile", figure_profile
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["winner"] == 1
        assert data["positions"][0] == "2"

    def test_endpoint_median(self, capsys, em_rule, figure_profile):
        code, out = run(
            capsys, "winner", "--rule", em_rule, "--profile", figure_profile
        )
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["winner"] == 2
        assert data["positions"][:2] == ["1", "2"]
        assert data["thresholds_scaled"][0] == "3/2"

    def test_fixture_rule(self, capsys, figure_profile):
        code, out = run(
            capsys,
            "winner",
            "--fixture",
            "constant:winner=3",
            "--profile",
            figure_profile,
        )
        assert code == EXIT_OK
        assert json.loads(out)["winner"] == 3

    def test_malformed_rational(self, capsys, files, figure_profile):
        rule = files("bad.json", {"m": 4, "theta": ["1/0"] * 4, "alpha": ["1"] * 4})
        code, _ = run(
            capsys, "winner", "--rule", rule, "--profile", figure_profile
        )
        assert code == EXIT_PARSE

    def test_incompatible_requires_flag(self, capsys, files, figure_profile):
        # the rule file's "unchecked" field is the one switch
        data = {"m": 4, "theta": ["1/2"] * 4, "alpha": ["3/4", "1/4", "1/4", "1/4"]}
        rule = files("inc.json", data)
        code = main(["winner", "--rule", rule, "--profile", figure_profile])
        assert code == EXIT_INCOMPATIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            ' (mark the rule file "unchecked": true to override)\n'
        )
        rule = files("marked.json", {**data, "unchecked": True})
        code, _ = run(capsys, "winner", "--rule", rule, "--profile", figure_profile)
        assert code == EXIT_OK

    def test_unchecked_rule_file(self, capsys, files, figure_profile):
        data = {"m": 4, "theta": ["1/2"] * 4, "alpha": ["3/4", "1/4", "1/4", "1/4"]}
        rule = files("marked.json", {**data, "unchecked": True})
        code, out = run(capsys, "winner", "--rule", rule, "--profile", figure_profile)
        assert code == EXIT_OK
        assert json.loads(out)["winner"] == 1
        for unmarked in (data, {**data, "unchecked": False}):
            rule = files("unmarked.json", unmarked)
            code, _ = run(capsys, "winner", "--rule", rule, "--profile", figure_profile)
            assert code == EXIT_INCOMPATIBLE

    def test_byte_identical_output(self, capsys, em_rule, figure_profile):
        _, a = run(capsys, "winner", "--rule", em_rule, "--profile", figure_profile)
        _, b = run(capsys, "winner", "--rule", em_rule, "--profile", figure_profile)
        assert a == b

    def test_pretty_is_the_same_json(self, capsys, em_rule, figure_profile):
        argv = ("winner", "--rule", em_rule, "--profile", figure_profile)
        _, compact = run(capsys, *argv)
        code, pretty = run(capsys, "--pretty", *argv)
        assert code == EXIT_OK
        assert pretty != compact and pretty.count("\n") > 1
        assert json.loads(pretty) == json.loads(compact)


class TestMalformedInput:
    """A file of the wrong shape is a parse failure (exit 2), never a
    traceback or the "violation found" exit 1."""

    def test_missing_file(self, capsys, tmp_path, em_rule):
        missing = str(tmp_path / "absent.json")
        code = main(["winner", "--rule", em_rule, "--profile", missing])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}")

    def test_invalid_json_file(self, capsys, tmp_path, em_rule):
        path = tmp_path / "broken.json"
        path.write_text('{"m": 4, "voters": [')
        code = main(["winner", "--rule", em_rule, "--profile", str(path)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}")

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
            (b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM"),
        ],
        ids=["not-utf8", "too-deep", "byte-order-mark"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["compat", "--rule"],
            ["winner", "--fixture", "constant", "--profile"],
            ["audit", "--fixture", "constant", "--m", "3", "--replay"],
        ],
        ids=["rule", "profile", "violation"],
    )
    def test_undecodable_file(self, capsys, tmp_path, argv, content, reason):
        """Input files are UTF-8 JSON; anything else is a parse failure."""
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code = main([*argv, str(path)])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert reason in captured.err

    def test_profile_without_voters(self, capsys, files, em_rule):
        profile = files("p.json", {"m": 4})
        code = main(["winner", "--rule", em_rule, "--profile", profile])
        assert code == EXIT_PARSE
        assert "missing field 'voters'" in capsys.readouterr().err

    def test_one_element_interval(self, capsys, files, em_rule):
        profile = files("p.json", {"m": 4, "voters": [{"id": 1, "interval": [1]}]})
        code = main(["winner", "--rule", em_rule, "--profile", profile])
        assert code == EXIT_PARSE
        assert "malformed profile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["winner", "--profile"],
            ["decompose", "--left", "1", "--right", "1"],
            ["compat"],
            ["witness", "--kind", "compat"],
            ["audit", "--axiom", "unanimity"],
        ],
    )
    @pytest.mark.parametrize("unchecked", ["false", 1, None])
    def test_unchecked_not_a_boolean(self, capsys, files, argv, unchecked):
        # incompatible at index 1; read as unchecked, x_1 would win
        data = {"m": 3, "theta": ["1/2"] * 3, "alpha": ["3/4", "1/4", "1/4"]}
        rule = files("r.json", {**data, "unchecked": unchecked})
        profile = files("p.json", {"m": 3, "voters": [{"id": 1, "interval": [1, 2]}]})
        tail = [profile] if argv[-1] == "--profile" else []
        code = main([argv[0], "--rule", rule, *argv[1:], *tail])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"malformed rule: unchecked is {unchecked!r}, not true or false" in err

    def test_non_numeric_rational(self, capsys, files, figure_profile):
        rule = files("r.json", {"m": 4, "theta": ["x"] + ["1/2"] * 3, "alpha": ["1"] * 4})
        code = main(["winner", "--rule", rule, "--profile", figure_profile])
        assert code == EXIT_PARSE
        assert "'x'" in capsys.readouterr().err

    def test_fractional_profile_m(self, capsys, files, em_rule):
        profile = files("p.json", {"m": 3.9, "voters": [{"id": 1, "interval": [1, 2]}]})
        code = main(["winner", "--rule", em_rule, "--profile", profile])
        assert code == EXIT_PARSE
        assert "error: malformed profile: expected an integer, got 3.9" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", [1.7, True])
    def test_non_integer_interval_endpoint(self, capsys, files, em_rule, endpoint):
        profile = files("p.json", {"m": 4, "voters": [{"id": 1, "interval": [endpoint, 2]}]})
        code = main(["winner", "--rule", em_rule, "--profile", profile])
        assert code == EXIT_PARSE
        assert "error: malformed profile: expected an integer" in capsys.readouterr().err

    def test_fractional_rule_m(self, capsys, files):
        rule = files("r.json", {"m": 3.5, "theta": ["1/2"] * 3, "alpha": ["1/2"] * 3})
        code = main(["compat", "--rule", rule])
        assert code == EXIT_PARSE
        assert "error: malformed rule: expected an integer, got 3.5" in capsys.readouterr().err

    def test_fractional_replay_report(self, capsys, files, em_rule):
        witness = files("w.json", {
            "axiom": "strategyproofness",
            "witness": {
                "profile": {"m": 4, "voters": [{"id": 1, "interval": [1, 2]}]},
                "voter": 1,
                "preference": [[1, 2], [3], [4]],
                "report": [1.5, 2],
            },
        })
        code = main(["audit", "--rule", em_rule, "--replay", witness])
        assert code == EXIT_PARSE
        assert "error: malformed violation: expected an integer, got 1.5" in capsys.readouterr().err

    def test_replay_witness_without_profiles(self, capsys, files, em_rule):
        witness = files("w.json", {"axiom": "reinforcement", "witness": {}})
        code = main(["audit", "--rule", em_rule, "--replay", witness])
        assert code == EXIT_PARSE
        assert "missing field 'profile1'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "second, message",
        [
            # the two winners differ, so the pair would read as vacuous
            ({"m": 3, "voters": [{"id": 1, "interval": [3, 3]}]}, "shared voter ids: ['1']"),
            ({"m": 3, "voters": [{"id": 1, "interval": [1, 1]}]}, "shared voter ids: ['1']"),
            ({"m": 4, "voters": [{"id": 2, "interval": [1, 1]}]}, "m mismatch: 3 vs 4"),
        ],
    )
    def test_replay_reinforcement_pair_no_campaign_builds(self, capsys, files, second, message):
        rule = files("em3.json", {"m": 3, "theta": ["1/2"] * 3, "alpha": ["1/2"] * 3})
        witness = files("w.json", {
            "axiom": "reinforcement",
            "witness": {
                "profile1": {"m": 3, "voters": [{"id": 1, "interval": [1, 1]}]},
                "profile2": second,
            },
        })
        code = main(["audit", "--rule", rule, "--replay", witness])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_replay_unhashable_permutation_target(self, capsys, files, em_rule):
        witness = files("w.json", {
            "axiom": "anonymity",
            "witness": {
                "profile": {"m": 4, "voters": [{"id": 1, "interval": [1, 2]}]},
                "permutation": [[1, [2]]],
            },
        })
        code = main(["audit", "--rule", em_rule, "--replay", witness])
        assert code == EXIT_PARSE
        assert "error: malformed violation: unhashable type" in capsys.readouterr().err

    def test_replay_unhashable_uncompromisingness_voter(self, capsys, files, em_rule):
        # refused while the witness is decoded, not by the checker later
        witness = files("w.json", {
            "axiom": "strong-uncompromisingness",
            "witness": {
                "profile": {"m": 4, "voters": [{"id": 1, "interval": [1, 2]}]},
                "voter": [1],
                "new_interval": [1, 3],
            },
        })
        code = main(["audit", "--rule", em_rule, "--replay", witness])
        assert code == EXIT_PARSE
        assert "error: malformed violation: unhashable type" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "voter, side, message",
        [
            (7, "left", "error: no voter 7"),
            ([1], "left", "error: malformed violation: unhashable type"),
            (1, "up", "error: robustness witness side must be 'left' or 'right', got 'up'"),
        ],
    )
    def test_replay_robustness_witness_fields(self, capsys, files, em_rule, voter, side, message):
        witness = files("w.json", {
            "axiom": "robustness",
            "witness": {
                "profile": {"m": 4, "voters": [{"id": 1, "interval": [1, 2]}]},
                "voter": voter,
                "side": side,
            },
        })
        code = main(["audit", "--rule", em_rule, "--replay", witness])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    @pytest.mark.parametrize("axiom, field", [
        ("strong-uncompromisingness", "new_interval"),
        ("strategyproofness", "report"),
    ])
    def test_replay_interval_beyond_m(self, capsys, files, axiom, field):
        # em at m = 3 elects x_2 here; voter 1's {x_1} moved to [1, 9]
        # would fit no invariance clause, so only the bound refuses it
        rule = files("em3.json", {"m": 3, "theta": ["1/2"] * 3, "alpha": ["1/2"] * 3})
        witness = files("w.json", {
            "axiom": axiom,
            "witness": {
                "profile": {
                    "m": 3,
                    "voters": [{"id": 1, "interval": [1, 1]}, {"id": 2, "interval": [3, 3]}],
                },
                "voter": 1,
                field: [1, 9],
                "preference": [[1], [2], [3]],
                "condition": "interval-left-of-winner",
            },
        })
        code = main(["audit", "--rule", rule, "--replay", witness])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: interval (1, 9) exceeds m=3\n"

    @pytest.mark.parametrize("permutation, message", [
        ([[1, 2.5], [2, True]], "voter id must be an int or a string: 2.5"),
        ([[1, 2], [2, True]], "voter id must be an int or a string: True"),
        ([[1, 2], [2, 1], [7, 3]], "no voter 7"),
    ])
    def test_replay_permutation_outside_the_profile_ids(
        self, capsys, files, em_rule, permutation, message
    ):
        witness = files("w.json", {
            "axiom": "anonymity",
            "witness": {
                "profile": {
                    "m": 4,
                    "voters": [{"id": 1, "interval": [1, 2]}, {"id": 2, "interval": [3, 4]}],
                },
                "permutation": permutation,
            },
        })
        code = main(["audit", "--rule", em_rule, "--replay", witness])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_non_numeric_budget(self, capsys, em_rule, monkeypatch):
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "abc")
        code = main(["audit", "--rule", em_rule, "--axiom", "robustness"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed INTERVAL_VOTE_BUDGET: invalid literal")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one(self, capsys, em_rule, monkeypatch, budget):
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", budget)
        code = main(["audit", "--rule", em_rule, "--axiom", "robustness"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: INTERVAL_VOTE_BUDGET must be at least 1, got {budget}\n"
        )

    def test_unknown_fixture(self, capsys):
        code = main(["audit", "--fixture", "coin-flip", "--m", "3", "--axiom", "unanimity"])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "error: unknown fixture 'coin-flip'; choose from constant, " in err
        assert "profile-dependent-alpha" in err

    def test_fixture_without_m(self, capsys):
        code = main(["audit", "--fixture", "constant", "--axiom", "unanimity"])
        assert code == EXIT_PARSE
        assert "error: --fixture requires --m" in capsys.readouterr().err

    def test_neither_rule_nor_fixture(self, capsys, figure_profile):
        for argv in (
            ["winner", "--profile", figure_profile],
            ["audit", "--m", "3", "--axiom", "unanimity"],
            ["falsify", "--m", "3", "--axioms", "unanimity"],
        ):
            code = main(argv)
            assert code == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: one of --rule or --fixture is required\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--m", "4", "--axiom", "unanimity"],
            ["falsify", "--m", "4", "--axioms", "unanimity"],
            ["winner"],
        ],
    )
    def test_rule_and_fixture_together(self, capsys, em_rule, figure_profile, argv):
        # neither may win silently: the fixture would be audited in place
        # of the rule file
        if argv == ["winner"]:
            argv = ["winner", "--profile", figure_profile]
        code = main([*argv, "--rule", em_rule, "--fixture", "constant"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: use one of --rule or --fixture, not both\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--m", "3", "--axiom", "unanimity"],
            ["falsify", "--m", "3", "--axioms", "unanimity"],
            ["winner"],
        ],
    )
    def test_unchecked_is_an_unknown_option(self, capsys, files, argv):
        # a rule file's "unchecked" field, not a flag, marks an unchecked rule
        if argv == ["winner"]:
            profile = files("p.json", {"m": 3, "voters": [{"id": 1, "interval": [1, 1]}]})
            argv = ["winner", "--profile", profile]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--fixture", "constant:winner=2", "--unchecked"])
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --unchecked" in captured.err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("constant:winner", "bad fixture parameter 'winner'"),
            ("constant:winner=first", "malformed fixture 'constant': invalid literal"),
        ],
    )
    def test_bad_fixture_parameter(self, capsys, spec, message):
        code = main(["audit", "--fixture", spec, "--m", "3", "--axiom", "unanimity"])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("constant:winner=2,winner=3", "fixture parameter 'winner' is given twice"),
            ("constant:", "bad fixture parameter ''"),
            ("constant:winner=7", "fixture parameter winner must be in 1..3, got 7"),
            ("constant:winner=0", "fixture parameter winner must be in 1..3, got 0"),
            ("constant:winner=-1", "fixture parameter winner must be in 1..3, got -1"),
        ],
    )
    def test_fixture_refused_when_built(self, capsys, spec, message):
        """A repeated key, an empty parameter list and a constant winner
        outside 1..m are refused before any instance is checked."""
        code = main(["audit", "--fixture", spec, "--m", "3", "--axiom", "unanimity"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, key", [("constant:winer=3", "winer"), ("log-parity:x=1", "x")])
    def test_fixture_parameter_it_does_not_take(self, capsys, spec, key):
        code = main(["falsify", "--fixture", spec, "--m", "3", "--axioms", "unanimity"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        tag = spec.partition(":")[0]
        assert captured.err.startswith(f"error: malformed fixture {tag!r}")
        assert f"argument {key!r}" in captured.err

    @pytest.mark.parametrize("argv", [["--n", "-1"], ["--n", "0", "--count-only"]])
    def test_enumerate_without_voters(self, capsys, argv):
        code = main(["enumerate", "--m", "2", *argv])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need at least one voter")

    @pytest.mark.parametrize("m", ["1", "-3"])
    @pytest.mark.parametrize("count_only", [[], ["--count-only"]])
    def test_enumerate_too_few_alternatives(self, capsys, m, count_only):
        code = main(["enumerate", "--m", m, "--n", "2", *count_only])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: need m >= 2, got {m}")

    @pytest.mark.parametrize(
        "flag, value, axiom",
        [
            ("--n-max", "0", "robustness"),
            ("--pair-budget", "1", "reinforcement"),
            ("--lambda-max", "-1", "continuity"),
        ],
    )
    def test_campaign_bound_out_of_range(self, capsys, em_rule, flag, value, axiom):
        code = main(["audit", "--rule", em_rule, "--axiom", axiom, flag, value])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--axiom", "unanimity", "--n-max", "1"],
            ["falsify", "--axioms", "unanimity", "--n-max", "1"],
        ],
    )
    def test_m_differs_from_rule_file(self, capsys, em_rule, argv):
        # the rule file has m = 4; the campaign must not run at it silently
        code = main([*argv, "--rule", em_rule, "--m", "5"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --m 5 does not match the rule file's m=4\n"


class TestAbbreviations:
    """An option is only ever its full spelling: a prefix could name
    another option, such as `enumerate`'s `--n` read as `--n-max`."""

    @pytest.mark.parametrize(
        "argv, short, full",
        [
            ("audit --axiom robustness --n 1", "--n", "--n-max"),
            ("falsify --n-max 1 --axiom unanimity", "--axiom", "--axioms"),
            ("audit --axiom unanimity --lambda 3", "--lambda", "--lambda-max"),
        ],
    )
    def test_refused(self, capsys, em_rule, argv, short, full):
        argv = argv.split() + ["--rule", em_rule]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE
        assert f"unrecognized arguments: {short}" in capsys.readouterr().err
        assert main([full if a == short else a for a in argv]) == EXIT_OK

    def test_refused_before_the_command(self, capsys, em_rule):
        with pytest.raises(SystemExit) as exc:
            main(["--pre", "compat", "--rule", em_rule])
        assert exc.value.code == EXIT_PARSE
        assert main(["--pretty", "compat", "--rule", em_rule]) == EXIT_OK


class TestForgedReplay:
    """A well-formed witness that the axiom's checker could not have
    produced does not replay (exit 0), even on a rule it would hurt."""

    def test_strategyproofness_preference_off_the_true_interval(self, capsys, files):
        rule = files("em3.json", {"m": 3, "theta": ["1/2"] * 3, "alpha": ["1/2"] * 3})
        profile = {
            "m": 3,
            "voters": [{"id": 1, "interval": [1, 1]}, {"id": 2, "interval": [3, 3]}],
        }
        # voter 1's true interval is {x_1}, but the preference tops {x_3}
        witness = files("w.json", {
            "axiom": "strategyproofness",
            "witness": {
                "profile": profile,
                "voter": 1,
                "report": [3, 3],
                "preference": [[3], [1, 2]],
            },
        })
        code, out = run(capsys, "audit", "--rule", rule, "--replay", witness)
        assert code == EXIT_OK
        assert json.loads(out)["replayed"] is False
        code, _ = run(capsys, "audit", "--rule", rule, "--axiom", "strategyproofness")
        assert code == EXIT_OK

    @pytest.mark.parametrize("intervals, replayed", [
        ([[2, 3], [1, 1]], False),
        ([[2, 2], [2, 3]], False),
        ([[2, 2], [2, 2]], True),
    ])
    def test_unanimity_needs_one_shared_singleton(self, capsys, files, intervals, replayed):
        profile = {
            "m": 3,
            "voters": [{"id": v, "interval": iv} for v, iv in enumerate(intervals, 1)],
        }
        witness = files("w.json", {"axiom": "unanimity", "witness": {"profile": profile}})
        code, out = run(
            capsys, "audit", "--fixture", "constant:winner=1", "--m", "3", "--replay", witness
        )
        assert code == (EXIT_VIOLATION if replayed else EXIT_OK)
        assert json.loads(out)["replayed"] is replayed


class TestCompat:
    def test_compatible(self, capsys, em_rule):
        code, out = run(capsys, "compat", "--rule", em_rule)
        assert code == EXIT_OK
        assert json.loads(out) == {"compatible": True, "violating_index": None}

    def test_incompatible(self, capsys, files):
        rule = files(
            "inc.json",
            {"m": 3, "theta": ["1/2"] * 3, "alpha": ["3/4", "1/4", "1/4"]},
        )
        code, out = run(capsys, "compat", "--rule", rule)
        assert code == EXIT_VIOLATION
        assert json.loads(out)["violating_index"] == 1


class TestDecompose:
    def test_missing_rule(self, capsys):
        code, _ = run(capsys, "decompose", "--left", "1", "--right", "2")
        assert code == EXIT_PARSE

    def test_weights(self, capsys, files):
        rule = files(
            "r.json",
            {"m": 3, "theta": ["1/2"] * 3, "alpha": ["1/2", "1/4", "1"]},
            )
        code, out = run(
            capsys,
            "decompose",
            "--rule",
            rule,
            "--left",
            "1",
            "--right",
            "3",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["total_weight"] == "1"
        assert data["ballots"] == [
            {"alternative": 1, "weight": "1/2"},
            {"alternative": 2, "weight": "-1/4"},
            {"alternative": 3, "weight": "3/4"},
        ]


class TestAudit:
    def test_clean_sweep(self, capsys, em_rule):
        code, out = run(
            capsys,
            "audit",
            "--rule",
            em_rule,
            "--axiom",
            "robustness",
            "--n-max",
            "2",
        )
        assert code == EXIT_OK
        assert json.loads(out)["violation"] is None

    def test_report_names_the_rule(self, capsys, em_rule):
        code, out = run(
            capsys, "audit", "--rule", em_rule, "--axiom", "unanimity", "--n-max", "1"
        )
        assert code == EXIT_OK
        assert json.loads(out)["rule"] == em_rule
        code, out = run(
            capsys, "audit", "--fixture", "constant:winner=2", "--m", "3",
            "--axiom", "unanimity", "--n-max", "1",
        )
        assert code == EXIT_VIOLATION
        assert json.loads(out)["rule"] == "constant-x2"

    def test_fixture_violation_and_replay(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "audit",
            "--fixture",
            "log-parity",
            "--m",
            "2",
            "--axiom",
            "reinforcement",
            "--n-max",
            "2",
            "--pair-budget",
            "3",
        )
        assert code == EXIT_VIOLATION
        violation = json.loads(out)["violation"]
        assert violation["axiom"] == "reinforcement"

        witness_file = tmp_path / "witness.json"
        witness_file.write_text(json.dumps(violation))
        code, out = run(
            capsys,
            "audit",
            "--fixture",
            "log-parity",
            "--m",
            "2",
            "--replay",
            str(witness_file),
        )
        assert code == EXIT_VIOLATION
        assert json.loads(out)["replayed"] is True

    def test_undetermined_exit(self, capsys):
        code, out = run(
            capsys,
            "audit",
            "--fixture",
            "strict-threshold",
            "--m",
            "2",
            "--axiom",
            "continuity",
            "--n-max",
            "2",
            "--pair-budget",
            "3",
            "--lambda-max",
            "20",
        )
        assert code == EXIT_UNDETERMINED

    def test_neither_axiom_nor_replay(self, capsys, em_rule):
        code = main(["audit", "--rule", em_rule])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: one of --axiom or --replay is required\n"

    def test_axiom_and_replay_together(self, capsys, files, em_rule):
        witness = files("v.json", {"axiom": "weak-efficiency", "witness": {}})
        code = main(["audit", "--rule", em_rule, "--axiom", "robustness", "--replay", witness])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: use one of --axiom or --replay, not both\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--axiom", ""], "error: unknown axiom ''; choose from"),
            (["--replay", ""], "error: cannot read : [Errno 2]"),
            (["--axiom", "", "--replay", ""], "error: use one of --axiom or --replay, not both\n"),
        ],
    )
    def test_empty_axiom_or_replay_is_given(self, capsys, argv, err):
        """Only an absent --axiom or --replay is missing; an empty one is
        an unknown tag or an unreadable path."""
        code = main(["audit", "--fixture", "constant", "--m", "3", *argv])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err)

    @pytest.mark.parametrize("axiom", ["reinforcement", "continuity"])
    @pytest.mark.parametrize("budget, count", [(5, 6), (20, 21), (50, 56)])
    def test_pair_campaign_over_budget(self, capsys, files, monkeypatch, axiom, budget, count):
        # m = 3 has 6, 21 and 56 profiles of 1, 2 and 3 voters
        rule = files("em3.json", {"m": 3, "theta": ["1/2"] * 3, "alpha": ["1/2"] * 3})
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", str(budget))
        code = main(["audit", "--rule", rule, "--axiom", axiom, "--pair-budget", "4"])
        assert code == EXIT_BUDGET
        assert capsys.readouterr().err == (
            f"error: enumeration of {count} profiles exceeds budget {budget}\n"
        )

    def test_over_budget_sweep_is_refused_before_a_violation(self, capsys, files, monkeypatch):
        # this incompatible rule fails robustness on the third one-voter
        # profile, but the sweep's 56 three-voter profiles exceed the
        # budget, and the sweep is refused before its first instance
        rule = files("u3.json", {
            "m": 3, "theta": ["1/2"] * 3, "alpha": ["3/4", "1/4", "1/4"], "unchecked": True,
        })
        argv = ("audit", "--rule", rule, "--axiom", "robustness", "--n-max", "3")
        assert run(capsys, *argv)[0] == EXIT_VIOLATION
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "50")
        assert main(list(argv)) == EXIT_BUDGET
        assert capsys.readouterr() == (
            "", "error: enumeration of 56 profiles exceeds budget 50\n"
        )

    def test_anonymity_renamings_over_budget(self, capsys, monkeypatch):
        # m = 2 has 15 profiles of 4 voters, each with 4! = 24 renamings;
        # 360 instances exceed the budget though 15 profiles do not
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "100")
        argv = ["audit", "--fixture", "constant", "--m", "2", "--axiom", "anonymity"]
        assert run(capsys, *argv, "--n-max", "3")[0] == EXIT_OK
        code = main([*argv, "--n-max", "4"])
        assert code == EXIT_BUDGET
        assert capsys.readouterr().err == (
            "error: anonymity campaign of 360 instances exceeds budget 100\n"
        )

    def test_unknown_axiom(self, capsys, em_rule):
        code = main(["audit", "--rule", em_rule, "--axiom", "fairness"])
        assert code == EXIT_PARSE
        assert "choose from robustness" in capsys.readouterr().err

    def test_strategyproofness_guard_is_a_budget_exit(self, capsys, files, monkeypatch):
        # strategyproofness has no cap on m; only the enumeration budget
        # stops it
        rule = files("m6.json", {"m": 6, "theta": ["1/2"] * 6, "alpha": ["1/2"] * 6})
        argv = ("audit", "--rule", rule, "--axiom", "strategyproofness", "--n-max", "1")
        assert run(capsys, *argv)[0] == EXIT_OK
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "1")
        assert run(capsys, *argv)[0] == EXIT_BUDGET


class TestFalsifyCommand:
    def test_scorecard(self, capsys):
        code, out = run(
            capsys,
            "falsify",
            "--fixture",
            "constant",
            "--m",
            "2",
            "--axioms",
            "unanimity,anonymity",
            "--n-max",
            "2",
        )
        assert code == EXIT_VIOLATION
        data = json.loads(out)
        assert data["rule"] == "constant-x1"
        card = data["scorecard"]
        assert card["unanimity"]["violation"] is not None
        assert card["anonymity"]["violation"] is None

    def test_scorecard_names_the_rule_file(self, capsys, em_rule):
        code, out = run(
            capsys, "falsify", "--rule", em_rule, "--axioms", "unanimity", "--n-max", "1"
        )
        assert code == EXIT_OK
        assert json.loads(out)["rule"] == em_rule

    def test_unknown_axiom_rejected_before_any_campaign(self, capsys, monkeypatch):
        # run first, the strategyproofness campaign would exceed the
        # enumeration budget and exit with the budget code instead
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "1")
        code, out = run(
            capsys, "falsify", "--fixture", "constant", "--m", "6",
            "--axioms", "strategyproofness,fairness", "--n-max", "1",
        )
        assert code == EXIT_PARSE
        assert out == ""

    @pytest.mark.parametrize("axioms", ["", "robustness,"])
    def test_empty_axiom_tag_rejected(self, capsys, axioms):
        """Only an absent --axioms means every axiom; an empty tag is an
        unknown one, whether it stands alone or after a comma."""
        code = main(["falsify", "--fixture", "constant", "--m", "3", "--axioms", axioms])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown axiom ''; choose from")

    def test_repeated_axiom_rejected_before_any_campaign(self, capsys, monkeypatch):
        # one scorecard entry per tag: a repeat would run its campaign twice
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "1")
        code = main(
            ["falsify", "--fixture", "constant", "--m", "6", "--n-max", "1",
             "--axioms", "unanimity,strategyproofness,unanimity"]
        )
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "axiom 'unanimity' is given twice" in captured.err


class TestWitnessCommand:
    def test_compat_witness(self, capsys, files):
        rule = files(
            "inc.json",
            {"m": 3, "theta": ["1/2"] * 3, "alpha": ["3/4", "1/4", "1/4"]},
        )
        code, out = run(capsys, "witness", "--rule", rule, "--kind", "compat")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["axiom"] == "robustness"
        assert (data["witness"]["voter"], data["witness"]["side"]) == (1, "left")
        assert data["observed"] == {"before": 1, "after": 3}

    @pytest.mark.parametrize(
        "kind, theta, alpha, axiom",
        [
            ("compat", ["1/2"] * 3, ["3/4", "1/4", "1/4"], "robustness"),
            ("compat", ["1/2"] * 4, ["1/4", "0", "0", "0"], "robustness"),
            ("theorem2", ["1/3"] * 3, ["1/2"] * 3, "majority-criterion"),
            ("theorem2", ["1/2"] * 3, ["3/4", "1/2", "1/2"], "strong-unanimity"),
        ],
    )
    def test_witness_replays(self, capsys, files, kind, theta, alpha, axiom):
        data = {"m": len(theta), "theta": theta, "alpha": alpha, "unchecked": True}
        rule = files("r.json", data)
        code, out = run(capsys, "witness", "--rule", rule, "--kind", kind)
        assert code == EXIT_OK
        witness = files("w.json", json.loads(out))
        code, out = run(capsys, "audit", "--rule", rule, "--replay", witness)
        assert code == EXIT_VIOLATION
        assert json.loads(out) == {"replayed": True, "axiom": axiom}

    def test_compat_denominator_above_guard(self, capsys, files):
        rule = files(
            "inc.json",
            {"m": 3, "theta": ["500000/1000001"] * 3, "alpha": ["3/4", "1/4", "1/4"]},
        )
        code = main(["witness", "--rule", rule, "--kind", "compat"])
        assert code == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: witness fraction denominator 3000003")

    def test_compat_none(self, capsys, em_rule):
        code, out = run(capsys, "witness", "--rule", em_rule, "--kind", "compat")
        assert code == EXIT_OK
        assert out.strip() == "none"

    def test_theorem2_none_for_endpoint_median(self, capsys, em_rule):
        code, out = run(capsys, "witness", "--rule", em_rule, "--kind", "theorem2")
        assert code == EXIT_OK
        assert out.strip() == "none"

    def test_theorem2_majority_witness(self, capsys, files):
        rule = files(
            "third.json", {"m": 3, "theta": ["1/3"] * 3, "alpha": ["1/2"] * 3}
        )
        code, out = run(capsys, "witness", "--rule", rule, "--kind", "theorem2")
        assert code == EXIT_OK
        assert json.loads(out)["axiom"] == "majority-criterion"

    def test_theorem2_threshold_near_one_half(self, capsys, files):
        # the closest split above 1/2 and below 5001/10000 is 2501 of 5001
        theta = ["5001/10000", "1/3"]
        rule = files("near.json", {"m": 2, "theta": theta, "alpha": ["1/2"] * 2})
        code, out = run(capsys, "witness", "--rule", rule, "--kind", "theorem2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["axiom"] == "majority-criterion"
        assert len(data["witness"]["profile"]["voters"]) == 5001
        witness = files("w.json", data)
        code, out = run(capsys, "audit", "--rule", rule, "--replay", witness)
        assert code == EXIT_VIOLATION
        assert json.loads(out)["replayed"] is True

    def test_theorem2_total_above_guard(self, capsys, files):
        # the closest split above 1/2 and below 500000/999999 has
        # WITNESS_MAX_DENOMINATOR + 1 = 1000001 voters
        theta = ["500000/999999", "1/3"]
        rule = files("near.json", {"m": 2, "theta": theta, "alpha": ["1/2"] * 2})
        code = main(["witness", "--rule", rule, "--kind", "theorem2"])
        assert code == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no fraction strictly between 1/2 and 500000/999999")


class TestOracleMedian:
    def test_figure_profile(self, capsys, figure_profile):
        code, out = run(capsys, "oracle-median", "--profile", figure_profile)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data == {"rule_winner": 2, "endpoint_median": 2, "agree": True}

    def test_single_voter(self, capsys, files):
        profile = files(
            "p.json", {"m": 4, "voters": [{"id": 1, "interval": [3, 3]}]}
        )
        code, out = run(capsys, "oracle-median", "--profile", profile)
        assert code == EXIT_OK
        assert json.loads(out)["endpoint_median"] == 3


class TestAlternativeCountBound:
    """An m read from a file never reaches an allocation of size m.  A
    replayed witness over another m than the rule's is a parse error;
    a fixture, `oracle-median` and the unanimity campaign refuse an m
    whose m(m+1)/2 intervals exceed the enumeration budget, the bound
    every other sweep meets at `_profiles(m, 1)`.  Each refusal is the
    whole of stderr, so no traceback is printed."""

    HUGE = 10**20
    TOO_LARGE = f"{HUGE * (HUGE + 1) // 2} intervals at m={HUGE} exceed budget 1000000"

    @staticmethod
    def refused(capsys, argv, code, message):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def huge_profile(self, files):
        return files("p.json", {"m": self.HUGE, "voters": [{"id": 1, "interval": [1, 1]}]})

    @pytest.mark.parametrize("axiom", ["majority-criterion", "shift-symmetry", "reinforcement"])
    def test_replayed_witness_over_another_m(self, capsys, files, axiom):
        profile = {"m": self.HUGE, "voters": [{"id": 1, "interval": [1, 1]}]}
        second = {"m": self.HUGE, "voters": [{"id": 2, "interval": [1, 1]}]}
        fields = (
            {"profile1": profile, "profile2": second}
            if axiom == "reinforcement" else {"profile": profile}
        )
        witness = files("v.json", {"axiom": axiom, "witness": fields})
        argv = ["audit", "--fixture", "constant", "--m", "3", "--replay", witness]
        self.refused(capsys, argv, EXIT_PARSE, f"m mismatch: rule 3 vs profile {self.HUGE}")

    @pytest.mark.parametrize(
        "tag",
        ["constant", "strict-threshold", "log-parity", "even-voter-doubled",
         "profile-dependent-alpha"],
    )
    def test_fixture_at_an_m_over_the_budget(self, capsys, files, tag):
        argv = ["winner", "--fixture", tag, "--profile", self.huge_profile(files)]
        self.refused(capsys, argv, EXIT_BUDGET, self.TOO_LARGE)
        argv = ["audit", "--fixture", tag, "--m", str(self.HUGE), "--axiom", "unanimity"]
        self.refused(capsys, argv, EXIT_BUDGET, self.TOO_LARGE)

    def test_oracle_median_at_an_m_over_the_budget(self, capsys, files, monkeypatch):
        argv = ["oracle-median", "--profile", self.huge_profile(files)]
        self.refused(capsys, argv, EXIT_BUDGET, self.TOO_LARGE)
        # m = 3 has 6 intervals, m = 2 has 3
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "5")
        profile = files("p3.json", {"m": 3, "voters": [{"id": 1, "interval": [1, 2]}]})
        argv = ["oracle-median", "--profile", profile]
        self.refused(capsys, argv, EXIT_BUDGET, "6 intervals at m=3 exceed budget 5")
        profile = files("p2.json", {"m": 2, "voters": [{"id": 1, "interval": [1, 2]}]})
        assert run(capsys, "oracle-median", "--profile", profile)[0] == EXIT_OK

    def test_unanimity_at_an_m_over_the_budget(self, capsys, files, monkeypatch):
        # the only campaign that enumerates no profiles, so no other
        # guard holds its m
        rule = files("em3.json", {"m": 3, "theta": ["1/2"] * 3, "alpha": ["1/2"] * 3})
        argv = ["audit", "--rule", rule, "--axiom", "unanimity", "--n-max", "1"]
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "6")
        assert run(capsys, *argv)[0] == EXIT_OK
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "5")
        self.refused(capsys, argv, EXIT_BUDGET, "6 intervals at m=3 exceed budget 5")

    def test_unanimity_ballots_over_the_budget(self, capsys, files, monkeypatch):
        # m * n_max(n_max + 1)/2 ballots: 3 * 2 * 3/2 = 9 at m = 3, n_max = 2
        rule = files("em3.json", {"m": 3, "theta": ["1/2"] * 3, "alpha": ["1/2"] * 3})
        argv = ["audit", "--rule", rule, "--axiom", "unanimity", "--n-max", "2"]
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "9")
        assert run(capsys, *argv)[0] == EXIT_OK
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "8")
        self.refused(capsys, argv, EXIT_BUDGET, "unanimity campaign of 9 ballots exceeds budget 8")
        monkeypatch.delenv("INTERVAL_VOTE_BUDGET")
        argv[-1] = "1000000"
        message = "unanimity campaign of 1500001500000 ballots exceeds budget 1000000"
        self.refused(capsys, argv, EXIT_BUDGET, message)


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out = run(
            capsys, "enumerate", "--m", "3", "--n", "2", "--count-only"
        )
        assert code == EXIT_OK
        assert json.loads(out)["count"] == 21

    def test_listing(self, capsys):
        code, out = run(capsys, "enumerate", "--m", "2", "--n", "1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0]) == {"counts": [1, 0, 0]}

    def test_one_alternative(self, capsys):
        code = main(["enumerate", "--m", "1", "--n", "2"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: need m >= 2" in captured.err

    def test_budget_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "10")
        code, _ = run(capsys, "enumerate", "--m", "4", "--n", "4")
        assert code == EXIT_BUDGET



INCOMPATIBLE_RULE = {"m": 3, "theta": ["1/2"] * 3, "alpha": ["3/4", "1/4", "1/4"]}


class TestEmit:
    """`_emit` reuses two encoders; its bytes are those of `json.dumps`."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--fixture", "constant", "--m", "3", "--axiom", "unanimity"],
            ["falsify", "--fixture", "constant", "--m", "2", "--axioms", "unanimity,anonymity"],
            ["witness", "--kind", "compat", "--rule", "RULE"],
        ],
        ids=["campaign-report", "scorecard", "violation"],
    )
    def test_bytes_equal_json_dumps(self, capsys, files, argv):
        rule = files("r.json", INCOMPATIBLE_RULE)
        main([rule if a == "RULE" else a for a in argv])
        data = json.loads(capsys.readouterr().out)
        assert "witness" in json.dumps(data)  # a nested violation
        assert _emit(data, False) is True
        assert capsys.readouterr().out == (
            json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        )
        assert _emit(data, True) is True
        assert capsys.readouterr().out == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_string_printed_as_it_is(self, capsys):
        assert _emit("none", True) is True
        assert capsys.readouterr().out == "none\n"

def _env():
    """The environment of a command run from the package under test, with
    stdout block-buffered as it is by default on a pipe."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    return env


class TestClosedStdout:
    """A reader that has gone away is no error of the command: it keeps
    its own exit code and prints no traceback."""

    def run_closed(self, tmp_path, *argv):
        rule = tmp_path / "rule.json"
        rule.write_text(json.dumps({**INCOMPATIBLE_RULE, "unchecked": True}))
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the command writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "intervalvote.cli",
                 *(str(rule) if a == "RULE" else a for a in argv)],
                stdout=write_end, stderr=subprocess.PIPE, env=_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        return proc.returncode, proc.stderr.decode()

    @pytest.mark.parametrize(
        "argv, code",
        [
            # incompatible at index 1, so robustness fails
            (["audit", "--rule", "RULE", "--axiom", "robustness"], EXIT_VIOLATION),
            (["compat", "--rule", "RULE"], EXIT_VIOLATION),
            (["witness", "--rule", "RULE", "--kind", "theorem2"], EXIT_OK),
            (["enumerate", "--m", "4", "--n", "3"], EXIT_OK),
        ],
    )
    def test_exit_code_kept(self, tmp_path, argv, code):
        got, err = self.run_closed(tmp_path, *argv)
        assert got == code
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_compatible_rule(self, tmp_path, files):
        rule = files("em3.json", {"m": 3, "theta": ["1/2"] * 3, "alpha": ["1/2"] * 3})
        got, err = self.run_closed(tmp_path, "compat", "--rule", rule)
        assert got == EXIT_OK
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_enumerate_read_for_one_line(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "intervalvote.cli", "enumerate", "--m", "4", "--n", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
        )
        assert json.loads(proc.stdout.readline()) == {"counts": [3] + [0] * 9}
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == EXIT_OK
        proc.stderr.close()
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_enumerate_stops_at_its_first_lost_line(self, monkeypatch):
        lines = []
        monkeypatch.setattr(cli, "_emit", lambda data, pretty: lines.append(data) and False)
        assert main(["enumerate", "--m", "4", "--n", "3"]) == EXIT_OK
        assert lines == [{"counts": [3] + [0] * 9}]
