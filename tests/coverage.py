"""Line coverage: every executable line under src/mindctl/ runs under tier-1.

    python tests/coverage.py

Runs the tier-1 session in this process under one stdlib line tracer
(``sys.settrace`` plus ``threading.settrace``), takes each module's
executable lines from its code objects' ``co_lines()``, and prints each
line that never ran as ``file:line: text``. It exits 1 if a line outside
``ALLOWED`` never ran, or if an ``ALLOWED`` entry now runs or matches no
line. Only the line list decides: whether the tests pass is tier-1's
verdict, not this script's (tracemalloc counts the tracer's own
allocations, so a memory bound can fail here and pass untraced).
Nothing is written into the checkout. A line that only hypothesis's
random draws reach runs in some sessions and not in others, so each
line needs a fixed case (a parameter or an ``@example``).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "mindctl"

# The lines no in-process test can run: (module file, the stripped texts of
# its lines the entry covers, each matching exactly one executable line,
# reason). An entry whose lines now run, or that matches no line, fails.
ALLOWED = (
    ("__main__.py",
     ("import sys", "from .cli import main", "sys.exit(main())"),
     "runs only as `python -m mindctl`, in the checkpoint-pin subprocess test"),
    ("cli.py",
     ("return _fit(samples, values, seed, schedule)[2]",),
     "runs only in tune's forked worker processes, which the tracer does not follow"),
    ("dataset.py",
     ("return None  # the file shrank between fstat and read",),
     "outside input: a sidecar that shrinks between fstat and the read, a race"),
)


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced() -> tuple[dict[str, set[int]], int]:
    """Run tier-1 under the tracer: the lines run per file, pytest's exit."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events for frames outside the package
        seen = ran.setdefault(filename, set())
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local
        return local

    # the subprocess tests import the package from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran, int(status)


def check(ran: dict[str, set[int]]) -> tuple[list[str], int, list[str]]:
    """The never-run lines outside ``ALLOWED``, the count of those inside
    it, and the stale entries."""
    # per entry line, whether each executable line it matches ran
    matched: dict[tuple[str, str], list[bool]] = {
        (name, text): [] for name, texts, _ in ALLOWED for text in texts}
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        seen = ran.get(str(path), set())
        for line in sorted(executable_lines(path)):
            text = source[line - 1].strip()
            key = (path.name, text)
            if key in matched:
                matched[key].append(line in seen)
            elif line not in seen:
                unrun.append(f"src/mindctl/{path.name}:{line}: {text}")
    stale = [f"allowlist entry {name}: {text!r} "
             + ("matches no executable line" if not hits
                else f"matches {len(hits)} lines" if len(hits) > 1
                else "now runs")
             for (name, text), hits in matched.items() if hits != [False]]
    return unrun, list(matched.values()).count([False]), stale


def main() -> int:
    start = time.perf_counter()
    ran, status = run_traced()
    unrun, allowed, stale = check(ran)
    seconds = time.perf_counter() - start
    for line in (*unrun, *stale):
        print(line)
    print(f"coverage: {len(unrun) + allowed} lines never ran, {allowed} of them "
          f"on the allowlist of {len(ALLOWED)} entries and {len(unrun)} outside "
          f"it; {len(stale)} stale entries; {seconds:.0f} s (pytest exited "
          f"{status} under the tracer; untraced tier-1 decides the tests)")
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main())
