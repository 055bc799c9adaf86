"""Fuzz the exit-code contract for a given time: the generator of
`test_exit_codes.py` (mutated rule, profile and violation files, argument
lists, budgets of at most 100) at a fresh seed, each case run in this
process by `cli.main`.

    python tests/run_fuzz.py SECONDS [SEED]

Prints the seed, then every case that breaks the contract (an exception
escaping `main`, a traceback on stderr, an exit code outside 0-5, a
decoding refusal with a code other than 2) with its argument list,
budget, file bytes and the traceback or stderr, and a summary line.
Exit 0 when no case broke it, 1 otherwise.
"""

from __future__ import annotations

import random
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from test_exit_codes import breach, draw_case, run_case  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    seconds = float(argv[0])
    seed = int(argv[1]) if len(argv) == 2 else random.SystemRandom().randrange(2**32)
    print(f"seed {seed}", flush=True)
    rng = random.Random(seed)
    cases = found = 0
    deadline = time.monotonic() + seconds
    with tempfile.TemporaryDirectory(prefix="fuzz-") as tmp:
        while time.monotonic() < deadline:
            argv_, budget, files = draw_case(rng, tmp)
            cases += 1
            try:
                code, err = run_case(argv_, budget)
                problem = breach(code, err)
            except Exception:
                problem, err = "an exception escaped main", traceback.format_exc()
            if problem is not None:
                found += 1
                print(f"case {cases}: {problem}\n  argv {argv_}\n  budget {budget}\n"
                      f"  files {files}\n{err}", flush=True)
    print(f"{cases} cases in {seconds:g} s at seed {seed}: {found} broke the contract")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
