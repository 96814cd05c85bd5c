"""Every Python file of the repo parses on the oldest Python that
pyproject.toml admits, so tier-1 need not run there to keep that floor."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_on_the_oldest_python_admitted():
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)
    assert floor, "pyproject.toml has no requires-python of the form >=3.N"
    version = (3, int(floor.group(1)))
    failed = []
    for tree in ("src", "tests", "benchmarks", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            try:
                ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
            except SyntaxError as exc:
                failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failed, failed
