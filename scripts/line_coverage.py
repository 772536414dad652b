"""Line coverage of `src/atforest` under the tier-1 tests, standard library only.

Runs pytest in this process under a `sys.settrace` tracer that follows only
the package's frames, and compares the lines that ran with each file's
executable lines: the line starts of its code objects, nested ones included.
Exits 1 if a line never ran and is not on ALLOWED, or if an ALLOWED entry
matches no such line.  Hypothesis draws from a fixed seed, so a line
that only some drawn examples reach cannot make the result vary by run.

    PYTHONPATH=src python scripts/line_coverage.py
"""

from __future__ import annotations

import dis
import sys
import threading
from pathlib import Path
from types import CodeType

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "atforest"

# (file, stripped source line, why the tests cannot run it in this process)
ALLOWED = (
    ("cli.py", "sys.exit(main())",
     "the __main__ guard's body: runs only as a script, which test_cli.py starts in a subprocess"),
    ("cli.py", "except BrokenPipeError:",
     "a closed stdout; test_cli.py and the CI pipe step close it on a subprocess"),
    ("cli.py", "devnull = os.open(os.devnull, os.O_WRONLY)", "the BrokenPipeError branch"),
    ("cli.py", "os.dup2(devnull, sys.stdout.fileno())", "the BrokenPipeError branch"),
)


def executable_lines(path: Path) -> set:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line is not None)
        todo += [c for c in co.co_consts if isinstance(c, CodeType)]
    return lines


def missed(path: Path, ran: set) -> list:
    """(line number, stripped text) of each executable line not in ran."""
    text = path.read_text(encoding="utf-8").splitlines()
    return [(n, text[n - 1].strip()) for n in sorted(executable_lines(path) - ran)]


def trace(paths, run) -> tuple:
    """run() with the lines it runs in paths recorded; (its result, {path: lines})."""
    ran = {str(p): set() for p in paths}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):  # a call event in any frame
        return local(frame, event, arg) if frame.f_code.co_filename in ran else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(start)
    threading.settrace(start)
    try:
        return run(), {Path(p): lines for p, lines in ran.items()}
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])


def main() -> int:
    import pytest

    paths = sorted(PACKAGE.glob("*.py"))
    status, ran = trace(paths, lambda: pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]))
    allowed = {(f, text) for f, text, _ in ALLOWED}
    bad, used = [], set()
    for path in paths:
        for n, text in missed(path, ran[path]):
            if (path.name, text) in allowed:
                used.add((path.name, text))
            else:
                bad.append(f"{path.relative_to(PACKAGE.parents[1])}:{n}: {text}")
    bad += [f"allowed, yet it ran or is gone: {f}: {text}" for f, text in sorted(allowed - used)]
    print("\n".join(bad) or f"line coverage: every line of {len(paths)} files ran or is allowed")
    return 1 if bad or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
