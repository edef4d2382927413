"""Which ``raise`` statements of ``src/smseg`` does a pytest run never reach?

A line collector built on ``sys.settrace`` alone (no coverage package):
it runs pytest in this process with the tracer on and records every line
executed in ``src/smseg``, then prints each ``raise`` statement (found
with ``ast``) whose first line was never executed, as ``file:line: text``,
and their count last.

    PYTHONPATH=src python3 tools/coverage.py            # the tests/ suite
    PYTHONPATH=src python3 tools/coverage.py tests/test_cli.py -k match

Arguments are passed to pytest as given. Lines run only in a subprocess a
test starts are not seen. Tracing slows the code under test (the whole
suite took 41 s against 35 s untraced on 2 cores), so a test with a
wall-time budget can fail under it; the report is printed either way and
the exit status is pytest's.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "smseg"


def raise_lines(path):
    """{line: text} of the first line of every ``raise`` in the file ``path``."""
    text = Path(path).read_text()
    lines = text.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)}


def traced(run):
    """``run()``'s result and the set of (file, line) executed in ``SRC``."""
    prefix = str(SRC)
    hits = set()

    def on_line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        return run(), hits
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main(argv):
    import pytest
    status, hits = traced(lambda: pytest.main(
        argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"]))
    missed = [(path, line, text) for path in sorted(SRC.glob("*.py"))
              for line, text in sorted(raise_lines(path).items())
              if (str(path), line) not in hits]
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} raise statements never reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
