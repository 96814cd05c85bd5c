"""Every file the command line reads, corrupted, fails at the file boundary.

Valid files are built once from data/.  Each is then cut at half its length,
has one byte flipped at a third of its length, or loses its middle line, and
is read by the subcommand that takes it.  The run must exit 1 with exactly
one stderr line that starts with ``error:`` and names the corrupted file, or
exit 0 with output that the program's reader of that format reads back.  A
saved corpus is read twice: streamed by ``index``, and loaded by ``e2e
--index``, which inflates it whole, so every corruption of it must end in
that error line.
"""

import ast
import gzip
import json
from pathlib import Path

import pytest

from claimcheck import cli, ner
from claimcheck.corpus import Corpus
from claimcheck.entailment import triple_from_row
from claimcheck.metrics import prediction_from_row
from claimcheck.rows import parse_rows
from claimcheck.tfidf import TfidfIndex

ROOT = Path(__file__).resolve().parent.parent
DUMP = ROOT / "data" / "mini_wiki.jsonl"
CLAIMS = ROOT / "data" / "mini_claims.jsonl"
SRC = ROOT / "src" / "claimcheck"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """{kind: path} of one valid file per format the command line reads."""
    d = tmp_path_factory.mktemp("valid")
    f = {"dump": DUMP, "claims": CLAIMS, "corpus": d / "corpus.json.gz",
         "index": d / "index.npz", "candidates": d / "candidates.jsonl",
         "scored": d / "scored.jsonl",
         "model": d / "model.json", "predictions": d / "pred.jsonl",
         "ner": d / "ner.jsonl", "probability": d / "probs.jsonl"}
    for argv in (["ingest", "--dump", DUMP, "--out", f["corpus"]],
                 ["index", "--corpus", f["corpus"], "--bins", "65536", "--out", f["index"]],
                 ["retrieve", "--corpus", f["corpus"], "--claims", CLAIMS,
                  "--index", f["index"], "--out", f["candidates"]],
                 ["features", "--corpus", f["corpus"], "--claims", CLAIMS,
                  "--candidates", f["candidates"], "--out", f["scored"]],
                 ["train", "--claims", CLAIMS, "--scored", f["scored"], "--trees", "5",
                  "--out", f["model"]],
                 ["predict", "--claims", CLAIMS, "--scored", f["scored"],
                  "--model", f["model"], "--out", f["predictions"]]):
        assert cli.main(["-q", *map(str, argv)]) == 0
    with open(CLAIMS, encoding="utf-8") as fp:
        claims = [json.loads(line) for line in fp if line.strip()]
    f["ner"].write_text("".join(
        json.dumps({"id": c["id"], "entities": [m.surface for m in ner.extract_entities(
            c["claim"])]}) + "\n" for c in claims))
    # a probability file has the scored rows' format
    f["probability"].write_bytes(f["scored"].read_bytes())
    f["e2e_corpus"] = f["corpus"]
    return f


def reader_argv(kind, path, f, out) -> list:
    """The subcommand that reads the kind of file at path, the other inputs valid."""
    e2e = ["e2e", "--corpus", f["corpus"], "--claims", CLAIMS, "--index", f["index"],
           "--trees", "5", "--out", out]
    predict = ["predict", "--claims", CLAIMS, "--scored", f["scored"],
               "--model", f["model"], "--out", out]
    argv = {
        "dump": ["ingest", "--dump", path, "--out", out],
        "corpus": ["index", "--corpus", path, "--bins", "65536", "--out", out],
        "e2e_corpus": [*e2e[:2], path, *e2e[3:]],
        "index": [*e2e[:5], "--index", path, *e2e[7:]],
        "model": [*predict[:5], "--model", path, *predict[7:]],
        "claims": [*e2e[:3], "--claims", path, *e2e[5:]],
        "candidates": ["features", "--corpus", f["corpus"], "--claims", CLAIMS,
                       "--candidates", path, "--out", out],
        "scored": [*predict[:3], "--scored", path, *predict[5:]],
        "probability": [*e2e, "--prob-file", path],
        "ner": [*e2e, "--ner-file", path],
        "predictions": ["score", "--gold", CLAIMS, "--pred", path],
    }[kind]
    return [str(a) for a in argv]


def read_back(kind, out):
    """What the reader of the kind of file wrote at out, parsed by the
    program's reader of that output: a saved corpus with every page parsed,
    an index, scored rows, or predictions."""
    if kind == "dump":
        return list(Corpus.load(out).documents())
    if kind == "corpus":
        return TfidfIndex.load(out)
    if kind == "candidates":
        return list(parse_rows(out, "scored", triple_from_row))
    return list(parse_rows(out, "prediction", prediction_from_row))


def cut(data: bytes) -> bytes:
    return data[:len(data) // 2]


def flip(data: bytes) -> bytes:
    at = len(data) // 3
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]


def drop_line(data: bytes) -> bytes:
    """Without its middle line, lines being cut at each "\\n" byte."""
    lines = data.split(b"\n")
    del lines[len(lines) // 2]
    return b"\n".join(lines)


KINDS = ["dump", "corpus", "e2e_corpus", "index", "model", "claims", "candidates", "scored",
         "probability", "ner", "predictions"]
# kinds whose every corruption is refused: a gzip read whole fails its CRC or its
# end, and a scored file's rows carry their claim's pair count
REFUSED = {"e2e_corpus", "scored"}


@pytest.mark.parametrize("mutate", [cut, flip, drop_line])
@pytest.mark.parametrize("kind", KINDS)
def test_corrupted_file_ends_in_one_error_line(valid, tmp_path, capsys, kind, mutate):
    path = tmp_path / f"corrupted{''.join(valid[kind].suffixes)}"
    path.write_bytes(mutate(valid[kind].read_bytes()))
    code = cli.main(["-q", *reader_argv(kind, path, valid, tmp_path / "out")])
    err = capsys.readouterr().err
    if code != 0 or kind in REFUSED:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert str(path) in err, err
    elif kind != "predictions":  # score writes no file
        assert read_back(kind, tmp_path / "out")


@pytest.mark.parametrize("kind, data, message", [
    ("index", b"0123456789abcdef", "cannot read index o: This file contains pickled"),
    ("index", None, "[Errno 2] No such file or directory: 'o'"),
    ("model", b'{"x": ', "cannot read model file o: Expecting value: line 1 column 7"),
    ("corpus", b"\x1f\x8b" + b"abcd" * 4, "cannot read corpus file o: Unknown compression"),
    ("corpus", gzip.compress(b'{"checksums": {}, "format_version": 3}\n[1]\n'),
     "bad record in o on line 2: expected a JSON object, got list"),
], ids=["pickle_index", "missing_index", "cut_model", "bad_gzip_corpus", "bad_corpus_record"])
def test_one_letter_path_named_once(valid, tmp_path, capsys, monkeypatch, kind, data, message):
    # the reason holds the letter "o", so a path of that one letter is in the
    # message whether or not the message names the file
    monkeypatch.chdir(tmp_path)
    if data is not None:
        Path("o").write_bytes(data)
    code = cli.main(["-q", *reader_argv(kind, "o", valid, tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {message}"), err


def test_parse_errors_are_caught_only_in_rows():
    """No module but rows.py converts what parsing a file raises."""
    boundary = {"RecursionError", "EOFError", "zlib.error", "BadZipFile", "zipfile.BadZipFile",
                "PARSE_ERRORS", "rows.PARSE_ERRORS"}
    found = []
    for source in sorted(SRC.glob("*.py")):
        if source.name == "rows.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                found += [f"{source.name}:{node.lineno} {ast.unparse(t)}" for t in types
                          if ast.unparse(t) in boundary]
    assert not found
