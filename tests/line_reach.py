"""Opt-in pytest plugin: the lines of ``src/claimcheck`` that tests run only
by calling the program's functions directly, never through a run of the
program.

Load it with ``PYTHONPATH=src:tests python -m pytest -p line_reach``; the
default run does not load it.  Every line of ``src/claimcheck`` that a test
(its fixtures included) runs is traced with ``sys.settrace``, apart from
what runs while a module of it is imported, and counts as the program's
when it runs inside ``cli.main`` (or the process entry ``cli.entry`` around
it) or ``perfbench``'s ``bench_trace.run``, the entries through which a run
of the program reaches the code.  At the end of the test run the plugin
prints, per module, the lines that ran but never inside those entries: code
that only unit tests reach, such as a re-check of a rule that the reader
where the input enters already enforces.

Blind spots: it sees nothing of subprocess children, so a line that only a
child runs reads as not run at all; and a test that installs its own tracer
(``test_long_token_hashed_on_its_own``) hides the lines it runs while that
tracer is installed.
"""

import linecache
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "claimcheck"
# (file, function) of each entry through which a run of the program goes
ENTRIES = {(SRC / "cli.py", "main"), (SRC / "cli.py", "entry"),
           (ROOT / "perfbench" / "bench_trace.py", "run")}


class LineReach:
    """Lines of the program's files run anywhere, and those run inside an entry."""

    def __init__(self):
        self.anywhere = defaultdict(set)  # path -> line numbers, import time left out
        self.program = defaultdict(set)
        self.inside = 0  # entry frames on the stack
        self.importing = 0  # module bodies of program files on the stack
        self._paths = {}  # co_filename -> its resolved path

    def _path(self, filename) -> Path:
        if filename not in self._paths:
            self._paths[filename] = Path(filename).resolve()
        return self._paths[filename]

    def trace(self, frame, event, arg):
        """The global trace function: a local tracer for each frame of an entry
        or of a program file."""
        path = self._path(frame.f_code.co_filename)
        entry = (path, frame.f_code.co_name) in ENTRIES
        ours = path.parent == SRC
        body = ours and frame.f_code.co_name == "<module>"
        if entry:
            self.inside += 1
        elif body:
            self.importing += 1
        elif not ours:
            return None

        def local(frame, event, arg):
            if event == "line" and ours and not self.importing:
                self.anywhere[path].add(frame.f_lineno)
                if self.inside:
                    self.program[path].add(frame.f_lineno)
            elif event == "return":  # also when an exception leaves the frame
                self.inside -= entry
                self.importing -= body
            return local

        return local

    def only_outside(self) -> dict:
        """{path: sorted lines run, but never inside an entry}, of every path with one."""
        found = {path: sorted(lines - self.program[path])
                 for path, lines in sorted(self.anywhere.items())}
        return {path: lines for path, lines in found.items() if lines}


_reach = LineReach()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    _reach.inside = _reach.importing = 0
    sys.settrace(_reach.trace)  # again for each test: one may have cleared it
    try:
        yield
    finally:
        sys.settrace(None)


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    write("")
    write("lines of src/claimcheck that tests run only outside cli.main and bench_trace.run")
    for path, lines in _reach.only_outside().items():
        write(f"{path.relative_to(SRC.parent)}: {len(lines)} lines")
        for n in lines:
            write(f"  {n:5d}  {linecache.getline(str(path), n).rstrip()}")
