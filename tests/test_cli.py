"""Command-line surface: JSON output, exit codes, witness replay."""

import json

import pytest

from intervalvote.cli import (
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
        rule = files(
            "inc.json",
            {
                "m": 4,
                "theta": ["1/2"] * 4,
                "alpha": ["3/4", "1/4", "1/4", "1/4"],
            },
        )
        code, _ = run(
            capsys, "winner", "--rule", rule, "--profile", figure_profile
        )
        assert code == EXIT_INCOMPATIBLE
        code, out = run(
            capsys,
            "winner",
            "--rule",
            rule,
            "--profile",
            figure_profile,
            "--unchecked",
        )
        assert code == EXIT_OK

    def test_byte_identical_output(self, capsys, em_rule, figure_profile):
        _, a = run(capsys, "winner", "--rule", em_rule, "--profile", figure_profile)
        _, b = run(capsys, "winner", "--rule", em_rule, "--profile", figure_profile)
        assert a == b


class TestMalformedInput:
    """A file of the wrong shape is a parse failure (exit 2), never a
    traceback or the "violation found" exit 1."""

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

    def test_non_numeric_rational(self, capsys, files, figure_profile):
        rule = files("r.json", {"m": 4, "theta": ["x"] + ["1/2"] * 3, "alpha": ["1"] * 4})
        code = main(["winner", "--rule", rule, "--profile", figure_profile])
        assert code == EXIT_PARSE
        assert "'x'" in capsys.readouterr().err

    def test_replay_witness_without_profiles(self, capsys, files, em_rule):
        witness = files("w.json", {"axiom": "reinforcement", "witness": {}})
        code = main(["audit", "--rule", em_rule, "--replay", witness])
        assert code == EXIT_PARSE
        assert "missing field 'profile1'" in capsys.readouterr().err


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
            "--unchecked",
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

    def test_unknown_axiom(self, capsys, em_rule):
        code = main(["audit", "--rule", em_rule, "--axiom", "fairness"])
        assert code == EXIT_PARSE
        assert "choose from robustness" in capsys.readouterr().err

    def test_strategyproofness_guard_is_a_budget_exit(self, capsys, files):
        # weak-order enumeration is capped at m <= 5
        rule = files("m6.json", {"m": 6, "theta": ["1/2"] * 6, "alpha": ["1/2"] * 6})
        code, _ = run(
            capsys, "audit", "--rule", rule, "--axiom", "strategyproofness",
            "--n-max", "1",
        )
        assert code == EXIT_BUDGET


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
        card = json.loads(out)["scorecard"]
        assert card["unanimity"]["violation"] is not None
        assert card["anonymity"]["violation"] is None

    def test_unknown_axiom_rejected_before_any_campaign(self, capsys):
        # run first, the strategyproofness campaign would hit the m <= 5
        # guard and exit with the budget code instead
        code, out = run(
            capsys, "falsify", "--fixture", "constant", "--m", "6",
            "--axioms", "strategyproofness,fairness", "--n-max", "1",
        )
        assert code == EXIT_PARSE
        assert out == ""


class TestWitnessCommand:
    def test_compat_witness(self, capsys, files):
        rule = files(
            "inc.json",
            {"m": 3, "theta": ["1/2"] * 3, "alpha": ["3/4", "1/4", "1/4"]},
        )
        code, out = run(capsys, "witness", "--rule", rule, "--kind", "compat")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["kind"] == "robustness-violation"
        assert data["side"] in ("left", "right")

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
        assert json.loads(out)["kind"] == "majority-criterion"


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

    def test_budget_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("INTERVAL_VOTE_BUDGET", "10")
        code, _ = run(capsys, "enumerate", "--m", "4", "--n", "4")
        assert code == EXIT_BUDGET
