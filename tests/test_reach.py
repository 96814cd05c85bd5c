"""Every function of the program is reached by running the program, and
none calls BLAS.

Runs each subcommand in process on the ``data/`` fixture, with the flags
that pick between code paths, plus one run on bad input through the process
entry and the traced benchmark run of ``perfbench/bench_trace.py``, all under
``sys.setprofile``.
It then requires that every module-level function and method that ``ast``
finds in ``src/claimcheck`` was entered: a function that only tests call is
code the program does not need.

``cli.entry`` gives OpenBLAS one thread, which costs nothing only while no
module calls a BLAS routine; an ``ast`` scan of ``src/claimcheck`` fails on
the ``@`` operator, on the numpy functions that call BLAS, and on ``linalg``.
"""

import ast
import gc
import importlib.util
import json
import sys
import time
import types
from pathlib import Path

import pytest

from claimcheck import cli, tfidf
from claimcheck.ner import extract_entities

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(cli.__file__).parent  # as the code objects name their files
DUMP = ROOT / "data" / "mini_wiki.jsonl"
CLAIMS = ROOT / "data" / "mini_claims.jsonl"


def function_key(path: Path, first_line: int, name: str) -> tuple:
    """How a function is named on both sides: (file name, first line, name).
    The first line is that of its first decorator, as ``co_firstlineno``
    gives it; code objects have no qualified name before Python 3.11."""
    return path.name, first_line, name


def defined_functions() -> dict:
    """The key of every module-level function and of every method of a
    module-level class, nested classes included, mapped to its qualified name."""
    found = {}

    def visit(body, prefix, path):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                found[function_key(path, first, node.name)] = prefix + node.name
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")).body, "", path)
    return found


def unreached_functions(entered) -> list:
    """module.qualified name of each defined function whose code is not in entered."""
    reached = {function_key(Path(code.co_filename), code.co_firstlineno, code.co_name)
               for code in entered if Path(code.co_filename).parent == SRC}
    return sorted(f"{key[0][:-3]}.{name}"
                  for key, name in defined_functions().items() if key not in reached)


def compiled_functions() -> set:
    """Every code object of ``src/claimcheck``, compiled afresh from its files."""
    found = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")
            for path in sorted(SRC.glob("*.py"))]
    while todo:
        code = todo.pop()
        found.add(code)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def blas_uses(source: str) -> list:
    """(line, what) of each use in source of the @ operator, of an attribute or
    an imported name in BLAS_NAMES, and of the name linalg."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id == "linalg":
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [*(getattr(node, "module", None) or "").split("."),
                     *(part for alias in node.names for part in alias.name.split("."))]
            found += [(node.lineno, name) for name in names if name in BLAS_NAMES]
    return found


def load_bench_trace():
    spec = importlib.util.spec_from_file_location(
        "bench_trace", ROOT / "perfbench" / "bench_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_program(tmp: Path, bench_trace) -> None:
    """Every subcommand, the path-picking flags, one bad input and the traced run."""
    corpus, index, cands = tmp / "corpus.json.gz", tmp / "index.npz", tmp / "cands.jsonl"
    scored, model, pred = tmp / "scored.jsonl", tmp / "model.json", tmp / "pred.jsonl"
    ner_file = tmp / "ner.jsonl"  # the heuristic's mentions, read from a file instead
    with open(CLAIMS, encoding="utf-8") as fp:
        claims = [json.loads(line) for line in fp]
    ner_file.write_text("".join(
        json.dumps({"id": c["id"], "entities": [m.surface for m in extract_entities(c["claim"])]})
        + "\n" for c in claims), encoding="utf-8")
    not_zip = tmp / "not_an_index.npz"
    not_zip.write_text("plain text\n", encoding="utf-8")

    e2e = ["e2e", "--claims", str(CLAIMS), "--trees", "5"]
    runs = [
        (0, ["ingest", "--dump", DUMP, "--out", corpus]),
        (0, ["index", "--corpus", corpus, "--out", index]),
        (0, ["index", "--corpus", DUMP, "--bins", "4096", "--out", tmp / "raw_index.npz"]),
        (0, ["retrieve", "--corpus", corpus, "--claims", CLAIMS, "--index", index,
             "--out", cands]),
        (0, ["features", "--corpus", corpus, "--claims", CLAIMS, "--candidates", cands,
             "--out", scored]),
        (0, ["train", "--claims", CLAIMS, "--scored", scored, "--trees", "5", "--out", model]),
        (0, ["predict", "--claims", CLAIMS, "--scored", scored, "--model", model,
             "--out", pred]),
        (0, ["score", "--gold", CLAIMS, "--pred", pred, "--json-out", tmp / "score.json"]),
        (0, ["gen-nli", "--corpus", corpus, "--claims", CLAIMS, "--out", tmp / "nli.jsonl",
             "--manifest", tmp / "manifest.json"]),
        (0, [*e2e, "--corpus", corpus, "--index", index, "--out", tmp / "e1.jsonl",
             "--report", tmp / "report.json"]),
        (0, [*e2e, "--corpus", DUMP, "--bins", "4096", "--out", tmp / "e2.jsonl"]),
        (0, [*e2e, "--corpus", corpus, "--index", index, "--prob-file", scored,
             "--out", tmp / "e3.jsonl"]),
        (0, [*e2e, "--corpus", corpus, "--index", index, "--ner-file", ner_file,
             "--out", tmp / "e4.jsonl"]),
        (0, [*e2e, "--corpus", corpus, "--index", index, "--model", model,
             "--out", tmp / "e5.jsonl"]),
    ]
    for code, argv in runs:
        assert cli.main(["-q", *map(str, argv)]) == code, argv
    assert run_entry(["-q", "retrieve", "--corpus", corpus, "--claims", CLAIMS,
                      "--index", not_zip, "--out", tmp / "bad.jsonl"]) == 1
    bench_trace.run(DUMP, CLAIMS, tmp, bench_trace.Tracer())


def run_entry(argv) -> int:
    """cli.entry, the process entry, on argv as its command line; the heap is
    unfrozen and the collector put back as it was after it returns."""
    saved, sys.argv = sys.argv, ["claimcheck", *map(str, argv)]
    collecting = gc.isenabled()
    try:
        return cli.entry()
    finally:
        sys.argv = saved
        gc.unfreeze()
        if collecting:
            gc.enable()


def test_every_function_is_reached_by_the_program(tmp_path, monkeypatch):
    bench_trace = load_bench_trace()
    # bench_trace.run wraps TfidfIndex.build for counting and leaves it wrapped
    monkeypatch.setattr(tfidf.TfidfIndex, "build", vars(tfidf.TfidfIndex)["build"])
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    started = time.perf_counter()
    sys.setprofile(profile)
    try:
        run_program(tmp_path, bench_trace)
    finally:
        sys.setprofile(None)
    elapsed = time.perf_counter() - started

    unreached = unreached_functions(entered)
    assert not unreached, f"functions that no run of the program enters: {unreached}"
    assert elapsed < 10.0


def test_keys_match_code_objects():
    """The keys of the code objects match those of the ast's functions, and a
    function whose code was never entered is named."""
    codes = compiled_functions()
    assert unreached_functions(codes) == []
    dropped = {c for c in codes if c.co_name == "sentence_table"}
    assert unreached_functions(codes - dropped) == ["corpus.Corpus.sentence_table"]


def test_no_module_calls_blas():
    uses = {path.name: blas_uses(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}
    assert not {name: found for name, found in uses.items() if found}


@pytest.mark.parametrize("source", [
    "c = a @ b", "c @= b", "np.dot(a, b)", "a.dot(b)", "np.vdot(a, b)", "np.inner(a, b)",
    "np.matmul(a, b)", "np.tensordot(a, b)", "np.einsum('ij,jk', a, b)",
    "np.linalg.norm(a)", "from numpy import linalg", "from numpy.linalg import norm",
    "import numpy.linalg", "from numpy import einsum as e", "linalg.norm(a)"])
def test_blas_scan_finds_each_form(source):
    assert blas_uses(source)
