"""Line reach of the test suite over src/, with the standard library only.

Run it from the repository root, with the tier-1 arguments as the default:

    PYTHONPATH=src python tests/trace_lines.py [pytest arguments]

It runs pytest in this process under a sys.settrace line tracer and reports, per module of
src/pellbisect, every line of a function body that no test executed.  It exits 1 when any such
line is unreached, since such a line is dead code or a self-check that may be wired wrong;
otherwise 0.  pytest's own outcome is printed but not judged here: the tier-1 run judges the
tests, and tracing makes every call slower, which an alarm-capped test may notice.

Only this process is traced: a test that runs code in a subprocess (the python -O runs) adds
nothing.  hypothesis installs a tracer of its own, so this one is armed again before each test.
The file is no test module, so pytest never collects it.
"""

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pellbisect"
FUNCTION_FLAGS = 0x1 | 0x2  # CO_OPTIMIZED | CO_NEWLOCALS: a function, lambda or comprehension, no class body

reached: set[tuple[str, int]] = set()
is_src: dict[CodeType, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    src = is_src.get(code)
    if src is None:
        src = is_src[code] = code.co_filename.startswith(str(SRC))
    return _local if src else None


def _arm():
    sys.settrace(_global)
    threading.settrace(_global)


class Rearm:
    """Arms the tracer again before each test's setup and call."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        _arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        _arm()


def _body_lines(code: CodeType):
    """The lines that hold bytecode of each function under code, the def line aside."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & FUNCTION_FLAGS == FUNCTION_FLAGS:
                yield from (line for *_, line in const.co_lines() if line and line != const.co_firstlineno)
            yield from _body_lines(const)


def main(args):
    _arm()
    outcome = pytest.main(args or ["-q", "--continue-on-collection-errors"], plugins=[Rearm()])
    sys.settrace(None)
    threading.settrace(None)
    total, missed = 0, []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = set(_body_lines(compile(text, str(path), "exec")))
        total += len(lines)
        source = text.splitlines()
        missed += [f"{path.name}:{line}: {source[line - 1].strip()}" for line in sorted(lines)
                   if (str(path), line) not in reached]
    print(f"\npytest exit code {int(outcome)}; {total - len(missed)} of {total} function-body lines in src/ reached")
    print("\n".join(missed))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
