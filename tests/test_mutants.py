"""The mutation list stays applicable: `run_mutants.py` runs the
mutants themselves, outside tier-1, since each costs a pytest start."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((Path(__file__).with_name("mutants.json")).read_text())


def test_each_old_text_occurs_exactly_once():
    for mutant in MUTANTS:
        text = (ROOT / mutant["file"]).read_text()
        assert text.count(mutant["old"]) == 1, mutant["id"]


def test_each_mutant_changes_its_text_and_names_existing_tests():
    assert len({m["id"] for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant["new"] != mutant["old"], mutant["id"]
        assert mutant["tests"], mutant["id"]
        for node in mutant["tests"]:
            assert (ROOT / node.partition("::")[0]).is_file(), (mutant["id"], node)
