"""Golden CLI outputs: exact stdout and exit code of each recorded command.

The cases cover every command in the README, the commands the benchmark's
cli script adds, and the error and alternate-verdict paths of the handlers.
``tests/data/cli_golden.json`` holds what the CLI printed for them.  After a
change that is meant to alter the output, rewrite that file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and say so in CHANGES.md.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from pellbisect.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

CASES = (
    # the README, in order
    "context --d 34",
    "xi --d 34 --p 11",
    "spectrum --d 34 --pmax 97",
    "solve --d 34 --z 9 --strict --n-range -2..2",
    "decompose --d 34 --x 405 --y 75",
    "rational --d 34 --sign -1 --max-terms 2 --n-range -2..2",
    "bisect --a 3/4 --b 12/5",
    "triples --mode case1 --range 5",
    "--format csv --ascii table",
    "figure --a 3/4 --b 12/5 --out fig.svg",
    "oracle solutions --d 34 --z 9 --ymax 100",
    # the benchmark's extra command and the domain errors
    "rational --d 34 --sign 1 --max-terms 2 --n-range -2..2",
    "bisect --a 1 --b 2",
    "context --d 12",
    # the other branch of each handler
    "xi --d 2 --p 3",
    "solve --d 2 --z 3",
    "decompose --d 34 --x 5 --y 1",
    "triples --mode case2 --d 34 --range 2",
    "triples --mode integral --d 2 --range 2",
    "triples --mode case2",
    "table --pmax 13",
    "--format text table --pmax 13",
    "oracle xi --d 17 --p 2 --lmax 3 --ymax 50",
    "oracle rational --d 34 --r 1 --zmax 3 --ymax 50",
    "oracle tangent --a 1 --b 7 --c -1/2",
    # handler branches the cases above leave unrun
    "triples --mode case2 --d 2 --range 2",
    "triples --mode case2 --d 3",
    "triples --mode integral",
    "rational --d 17 --max-terms 1",
    "solve --d 2 --z 1",
    "decompose --d 2 --x 1 --y 0",
    "oracle xi --d 3 --p 5 --lmax 2 --ymax 20",
    "solve --d 2 --z 7 --n-range 3",
)


def run_case(case: str, tmp_dir: Path) -> dict:
    """Run one command in-process; an --out file's text is recorded too."""
    argv = case.split()
    out_path = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        out_path = tmp_dir / argv[i]
        argv[i] = str(out_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    result = {"case": case, "exit": code, "stdout": stdout.getvalue()}
    if out_path is not None:
        result["out"] = out_path.read_text(encoding="utf-8")
    return result


def _recorded() -> dict:
    return {r["case"]: r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_golden(case, tmp_path):
    assert run_case(case, tmp_path) == _recorded()[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = [run_case(case, Path(tmp)) for case in CASES]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
