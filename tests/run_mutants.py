"""Mutation checks: each mutant in `mutants.json` replaces one text
(`old`, which must occur exactly once) by another (`new`) in one file
under `src/`.  The script applies each mutant to a temporary copy of
`src/`, runs the test node ids that should kill it against that copy,
and reports it as killed (the tests fail) or surviving (they pass).

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py ID [ID...] # the named ones

An identity mutant (old = new, on the first listed mutant's text and
tests) runs first as a control and must survive; that shows the tests
pass on the unmutated copy, so a kill means the mutation was caught.
Exit 0 when every mutant is killed, 1 when any survives, 2 when the
control is killed, a node id is not found or an `old` text does not
occur exactly once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")


def load() -> list[dict]:
    return json.loads(MUTANTS.read_text())


def run_tests(mutant: dict) -> str:
    """'killed' or 'survived' for one mutant; exits 2 on a setup error."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / mutant["file"]
        text = path.read_text()
        if text.count(mutant["old"]) != 1:
            sys.exit(f"{mutant['id']}: the old text occurs {text.count(mutant['old'])} times")
        path.write_text(text.replace(mutant["old"], mutant["new"]))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant["tests"]],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    # pytest: 0 all passed, 1 a test failed, 2 a collection error (a
    # mutant that breaks an import); 4 and 5 mean a bad node id
    if proc.returncode == 0:
        return "survived"
    if proc.returncode in (1, 2):
        return "killed"
    sys.exit(f"{mutant['id']}: pytest exited {proc.returncode}; check its node ids")


def main(ids: list[str]) -> int:
    mutants = load()
    unknown = set(ids) - {m["id"] for m in mutants}
    if unknown:
        sys.exit(f"unknown mutant ids: {sorted(unknown)}")
    control = dict(mutants[0], id="identity-control", new=mutants[0]["old"])
    if run_tests(control) != "survived":
        print("identity-control: killed; the tests fail on unmutated code")
        return 2
    print("identity-control: survived (as it must)")
    survivors = []
    for mutant in mutants:
        if ids and mutant["id"] not in ids:
            continue
        verdict = run_tests(mutant)
        print(f"{mutant['id']}: {verdict}", flush=True)
        if verdict == "survived":
            survivors.append(mutant["id"])
    print(f"{len(survivors)} surviving: {survivors}" if survivors else "every mutant killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
