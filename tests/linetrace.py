"""List the lines of lcdual that the tests never run.

Run from the repository root, with pytest installed:

    python3 tests/linetrace.py [pytest arguments, default: the tests directory]

A sys.settrace line tracer goes in before lcdual is imported, and the test
suite then runs in this process under pytest.main.  Afterwards every line
of every code object nested in a src/lcdual/*.py module (function and
class bodies, comprehensions, lambdas) that never ran is printed as
`path:line: source`.  Module-level lines, such as the imports and cli's
`__main__` guard, are left out.  Lines that run only in a subprocess, as
under the `python -m lcdual.cli` tests, do not count.

Exit status: pytest's own if the tests fail, else 1 if any line is listed
and 0 if none is.  Tracing makes the suite about four times slower, which
is why this is a tool and not a test; Hypothesis deadlines are switched
off for the run so that the slowdown cannot fail a test.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lcdual"
FILES = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}

hits = set()


def _local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename in FILES else None


def nested_lines(path):
    """Every line of the code objects nested in a module, as co_lines reports them."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    out, stack = set(), [c for c in module.co_consts if hasattr(c, "co_lines")]
    while stack:
        code = stack.pop()
        out.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def unreached():
    """Sorted (path, line) of every nested line that no test ran."""
    return [(path, line) for name, path in FILES.items()
            for line in sorted(nested_lines(path)) if (name, line) not in hits]


class _NoDeadline:
    """A pytest plugin: Hypothesis loads only after pytest can rewrite it."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("linetrace", deadline=None)
        settings.load_profile("linetrace")


def main(argv):
    threading.settrace(_global)
    sys.settrace(_global)

    import pytest
    status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])],
                         plugins=[_NoDeadline()])
    sys.settrace(None)
    threading.settrace(None)
    if status != 0:
        print("linetrace: the tests failed (pytest exit %d)" % status)
        return int(status)

    missed = unreached()
    texts = {}
    for path, line in missed:
        lines = texts.setdefault(path, path.read_text(encoding="utf-8").splitlines())
        print("%s:%d: %s" % (path.relative_to(ROOT), line, lines[line - 1].strip()))
    print("linetrace: %d unreached line%s in src/lcdual"
          % (len(missed), "" if len(missed) == 1 else "s"))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
