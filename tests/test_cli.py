"""Drives the command line on the bundled fixture corpus."""

import ast
import contextlib
import gc
import gzip
import hashlib
import io
import json
import logging
import os
import re
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck import cli, forest, ner, nli_data
from claimcheck.corpus import Corpus, ingest_dump
from claimcheck.entailment import TRIPLE_FIELDS
from claimcheck.metrics import prediction_from_row
from claimcheck.rows import parse_rows

from conftest import levenshtein

ROOT = Path(__file__).resolve().parent.parent
DUMP = ROOT / "data" / "mini_wiki.jsonl"
CLAIMS = ROOT / "data" / "mini_claims.jsonl"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run(argv, capsys):
    code = cli.main(["-q", *map(str, argv)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_error(code, err):
    """Exit 1 with a single error: line and no traceback; returns that line."""
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    return err


HEADER = b'{"checksums": {}, "format_version": 3}'  # of a saved corpus


def write_saved_corpus(path, *records, header=HEADER):
    """A gzipped saved corpus: the header line, then one line per record."""
    path.write_bytes(gzip.compress(b"".join(line + b"\n" for line in (header, *records))))


def read_rows(path):
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus + index + candidates built once; later stages reuse them."""
    d = tmp_path_factory.mktemp("cli")
    assert cli.main(["-q", "ingest", "--dump", str(DUMP),
                     "--out", str(d / "corpus.json.gz")]) == 0
    assert cli.main(["-q", "index", "--corpus", str(d / "corpus.json.gz"),
                     "--bins", "65536", "--out", str(d / "index.npz")]) == 0
    assert cli.main(["-q", "retrieve", "--corpus", str(d / "corpus.json.gz"),
                     "--claims", str(CLAIMS), "--index", str(d / "index.npz"),
                     "--out", str(d / "candidates.jsonl")]) == 0
    return d


@pytest.fixture(scope="module")
def staged(workdir, tmp_path_factory):
    """Scored rows of the fixture claims, in their own directory."""
    d = tmp_path_factory.mktemp("staged")
    assert cli.main(["-q", "features", "--corpus", str(workdir / "corpus.json.gz"),
                     "--claims", str(CLAIMS), "--candidates", str(workdir / "candidates.jsonl"),
                     "--out", str(d / "scored.jsonl")]) == 0
    return d


def model_nodes_and_depth(tree) -> tuple:
    if "dist" in tree:
        return 1, 0
    (ln, ld), (rn, rd) = model_nodes_and_depth(tree["left"]), model_nodes_and_depth(tree["right"])
    return 1 + ln + rn, 1 + max(ld, rd)


class TestStages:
    def test_ingest_summary_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "corpus.json.gz"
        code, stdout, _ = run(["ingest", "--dump", DUMP, "--out", out], capsys)
        assert code == 0
        assert "ingested 50 documents" in stdout
        assert len(Corpus.load(out)) == 50

    def test_ingest_summary_logged_once(self, tmp_path, caplog):
        caplog.set_level(logging.INFO)
        assert cli.main(["index", "--corpus", str(DUMP), "--bins", "65536",
                         "--out", str(tmp_path / "index.npz")]) == 0
        assert sum("ingested 50 documents" in r.getMessage() for r in caplog.records) == 1

    def test_ingest_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json.gz", tmp_path / "b.json.gz"
        assert run(["ingest", "--dump", DUMP, "--out", a], capsys)[0] == 0
        assert run(["ingest", "--dump", DUMP, "--out", b], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_index_byte_identical(self, workdir, tmp_path, capsys):
        again = tmp_path / "again.npz"
        code, stdout, _ = run(["index", "--corpus", workdir / "corpus.json.gz",
                               "--bins", "65536", "--out", again], capsys)
        assert code == 0 and "indexed 50 documents" in stdout
        assert again.read_bytes() == (workdir / "index.npz").read_bytes()

    def test_retrieve_covers_all_claims(self, workdir):
        rows = read_rows(workdir / "candidates.jsonl")
        assert len(rows) == 30
        for row in rows:
            assert isinstance(row["id"], int)
            for page, line in row["candidates"]:
                assert isinstance(page, str) and isinstance(line, int)

    def test_retrieve_byte_identical(self, workdir, tmp_path, capsys):
        again = tmp_path / "again.jsonl"
        code, _, _ = run(["retrieve", "--corpus", workdir / "corpus.json.gz",
                          "--claims", CLAIMS, "--index", workdir / "index.npz",
                          "--out", again], capsys)
        assert code == 0
        assert again.read_bytes() == (workdir / "candidates.jsonl").read_bytes()

    def test_retrieve_logs_match_distances(self, workdir, tmp_path, caplog):
        caplog.set_level(logging.INFO)
        assert cli.main(["retrieve", "--corpus", str(workdir / "corpus.json.gz"),
                         "--claims", str(CLAIMS), "--index", str(workdir / "index.npz"),
                         "--out", str(tmp_path / "cands.jsonl")]) == 0
        corpus = Corpus.load(workdir / "corpus.json.gz")
        titles = [ner.normalize_title(p) for p in corpus.page_ids()]
        expected = Counter(min(levenshtein(ner.normalize_title(m.surface), t) for t in titles)
                           for row in read_rows(CLAIMS)
                           for m in ner.extract_entities(row["claim"]))
        # 4 inexact mentions against 50 titles: 118 distances of the 200 a full scan
        # computes, in 7 rounds, all mentions of the run together in each
        line = (f"matched {expected.total()} mentions to titles ({expected[0]} exact) "
                "with 118 edit distances in 7 rounds; "
                f"mentions by match distance: {dict(sorted(expected.items()))}")
        assert [r.getMessage() for r in caplog.records].count(line) == 1
        assert expected[0] < expected.total()  # the fixture has inexact mentions too
        assert (expected.total() - expected[0], len(titles)) == (4, 50)

    def test_no_title_matcher_without_mentions(self, workdir, tmp_path, caplog,
                                               monkeypatch):
        # lowercased claims hold no capitalized run, so no mention needs a title
        claims = tmp_path / "claims.jsonl"
        claims.write_text("".join(json.dumps({**row, "claim": row["claim"].lower()}) + "\n"
                                  for row in read_rows(CLAIMS)))
        monkeypatch.setattr(ner, "TitleMatcher", lambda corpus: pytest.fail("built a matcher"))
        caplog.set_level(logging.INFO)
        assert cli.main(["retrieve", "--corpus", str(workdir / "corpus.json.gz"),
                         "--claims", str(claims), "--index", str(workdir / "index.npz"),
                         "--out", str(tmp_path / "cands.jsonl")]) == 0
        line = ("matched 0 mentions to titles (0 exact) with 0 edit distances in 0 rounds; "
                "mentions by match distance: {}")
        assert [r.getMessage() for r in caplog.records].count(line) == 1
        assert len(read_rows(tmp_path / "cands.jsonl")) == 30

    def test_train_logs_nodes_and_depth(self, staged, tmp_path, caplog):
        caplog.set_level(logging.INFO)
        model = tmp_path / "model.json"
        assert cli.main(["train", "--claims", str(CLAIMS), "--scored",
                         str(staged / "scored.jsonl"), "--out", str(model)]) == 0
        counts = [model_nodes_and_depth(t) for t in json.loads(model.read_text())["trees"]]
        assert (sum(n for n, _ in counts), max(d for _, d in counts)) == (348, 3)
        line = "trained 50 trees (348 nodes, depth 3) on 30 claims"
        assert [r.getMessage() for r in caplog.records].count(line) == 1

    def test_gen_nli_deterministic_and_balanced(self, workdir, tmp_path, capsys):
        outs = []
        for name in ("x", "y"):
            out, manifest = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json"
            code, _, _ = run(["gen-nli", "--corpus", workdir / "corpus.json.gz",
                              "--claims", CLAIMS, "--seed", "5",
                              "--out", out, "--manifest", manifest], capsys)
            assert code == 0
            outs.append((out.read_bytes(), manifest.read_bytes()))
        assert outs[0] == outs[1]
        manifest = json.loads(outs[0][1])
        balanced = manifest["balanced"]
        assert len(set(balanced.values())) == 1  # equal class counts
        assert manifest["generated"]["neutral_skipped"] >= 0

    def test_gen_nli_of_repeated_claims_pinned(self, tmp_path, capsys):
        # the first 8 claims again under other ids: their Entailment and
        # Contradiction pairs all repeat, and so do some of their Neutral picks
        claims, out, manifest = (tmp_path / name for name in
                                 ("claims.jsonl", "nli.jsonl", "nli.json"))
        rows = read_rows(CLAIMS)
        claims.write_text("".join(json.dumps(row) + "\n" for row in
                                  [*rows, *({**row, "id": row["id"] + 10000}
                                            for row in rows[:8])]))
        code, _, _ = run(["gen-nli", "--corpus", DUMP, "--claims", claims, "--seed", "0",
                          "--out", out, "--manifest", manifest], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "41c9ce3c5a207b39d67aa0cd71ca29c36298f3da7295be0aa9726dbe4992719c"
        assert json.loads(manifest.read_text()) == {
            "seed": 0,
            "generated": {"entailment": 18, "contradiction": 14, "neutral": 33,
                          "neutral_skipped": 2, "duplicates_removed": 21},
            "balanced": {"entailment": 14, "contradiction": 14, "neutral": 14}}

    def test_features_train_predict_score(self, workdir, capsys):
        d = workdir
        code, _, _ = run(["features", "--corpus", d / "corpus.json.gz",
                          "--claims", CLAIMS, "--candidates", d / "candidates.jsonl",
                          "--out", d / "scored.jsonl"], capsys)
        assert code == 0
        scored_rows = read_rows(d / "scored.jsonl")
        assert len(scored_rows) == sum(len(row["candidates"])
                                       for row in read_rows(d / "candidates.jsonl"))
        assert all(set(row) == {"claim_id", "page_id", "line_number", *TRIPLE_FIELDS, "pairs"}
                   for row in scored_rows)
        counts = {row["id"]: len(row["candidates"]) for row in read_rows(d / "candidates.jsonl")}
        assert all(row["pairs"] == counts[row["claim_id"]] for row in scored_rows)

        code, stdout, _ = run(["train", "--claims", CLAIMS,
                               "--scored", d / "scored.jsonl",
                               "--trees", "30", "--seed", "7",
                               "--out", d / "model.json"], capsys)
        assert code == 0 and "trained 30 trees" in stdout

        code, _, _ = run(["predict", "--claims", CLAIMS,
                          "--scored", d / "scored.jsonl",
                          "--model", d / "model.json",
                          "--out", d / "pred.jsonl"], capsys)
        assert code == 0

        code, stdout, _ = run(["score", "--gold", CLAIMS, "--pred", d / "pred.jsonl",
                               "--json-out", d / "report.json"], capsys)
        assert code == 0
        assert "label accuracy" in stdout and "fever score" in stdout
        report = json.loads((d / "report.json").read_text())
        assert set(report) >= {"label_accuracy", "evidence_precision", "evidence_recall",
                               "evidence_f1", "fever_score", "confusion"}

    def test_score_on_perfect_predictions(self, tmp_path, capsys):
        # predictions rebuilt from gold must hit 1.0 everywhere
        pred = tmp_path / "perfect.jsonl"
        with open(pred, "w", encoding="utf-8") as fp:
            for row in read_rows(CLAIMS):
                pairs = sorted({(ev[2], ev[3]) for group in row.get("evidence") or []
                                for ev in group if ev[2] is not None})
                fp.write(json.dumps({"id": row["id"], "predicted_label": row["label"],
                                     "predicted_evidence": [list(p) for p in pairs]}))
                fp.write("\n")
        code, stdout, _ = run(["score", "--gold", CLAIMS, "--pred", pred], capsys)
        assert code == 0
        assert stdout.count("1.0000") >= 5


class TestErrors:
    def test_predict_without_model_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["-q", "predict", "--claims", str(CLAIMS),
                      "--scored", "y", "--out", "z"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_corpus_file(self, tmp_path, capsys):
        code, _, err = run(["retrieve", "--corpus", tmp_path / "nope.gz",
                            "--claims", CLAIMS, "--out", tmp_path / "o"], capsys)
        assert code == 1
        assert "error:" in err

    def test_bad_prediction_row_reports_line(self, tmp_path, capsys):
        pred = tmp_path / "bad.jsonl"
        pred.write_text('{"id": 101, "predicted_label": "SUPPORTS", '
                        '"predicted_evidence": [["page", "not_an_int"]]}\n')
        code, _, err = run(["score", "--gold", CLAIMS, "--pred", pred], capsys)
        assert code == 1
        assert "line 1" in err

    def test_zero_trees_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "pred.jsonl"
        code, _, err = run(["e2e", "--corpus", DUMP, "--claims", CLAIMS,
                            "--bins", "65536", "--trees", "0", "--out", out], capsys)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not out.exists()


NEI = {"claim": "c", "label": "NOT ENOUGH INFO"}


# the dtype that index builds give each numeric array of index.npz
INDEX_DTYPES = {"uniq_bins": "int64", "uniq_offsets": "int64", "post_items": "int32",
                "post_weights": "float64", "df": "int64", "item_norms": "float64"}


class TestBadInputs:
    def test_stale_index_refused(self, workdir, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        other.write_text(json.dumps({"id": "Lone_Page", "text": "A lone page.",
                                     "lines": "0\tA lone page."}) + "\n")
        for command in ("retrieve", "e2e"):
            code, _, err = run([command, "--corpus", other, "--claims", CLAIMS,
                                "--index", workdir / "index.npz",
                                "--out", tmp_path / f"{command}.jsonl"], capsys)
            assert "different corpus" in one_error(code, err)

    def test_index_naming_a_page_the_corpus_lacks_refused(self, workdir, tmp_path, capsys):
        # the header, and so the source checksum, stays that of the full corpus
        lines = gzip.decompress((workdir / "corpus.json.gz").read_bytes()).split(b"\n")
        kept = [line for line in lines if not line.startswith(b'{"id": "Korvand_Archipelago"')]
        assert len(kept) == len(lines) - 1
        fewer = tmp_path / "fewer.json.gz"
        fewer.write_bytes(gzip.compress(b"\n".join(kept)))
        for command in ("retrieve", "e2e"):
            code, _, err = run([command, "--corpus", fewer, "--claims", CLAIMS,
                                "--index", workdir / "index.npz",
                                "--out", tmp_path / f"{command}.jsonl"], capsys)
            assert "different corpus" in one_error(code, err)

    def test_page_id_ending_in_nul_not_indexed(self, tmp_path, capsys):
        dump, out = tmp_path / "dump.jsonl", tmp_path / "index.npz"
        dump.write_text("".join(json.dumps({"id": page_id, "text": "A page.",
                                            "lines": "0\tA page."}) + "\n"
                                for page_id in ("Ab", "Ab\0", "Cd")))
        code, _, err = run(["index", "--corpus", dump, "--out", out], capsys)
        assert one_error(code, err) == ("error: page id 'Ab\\x00' ends in U+0000, "
                                        "which an index cannot store\n")
        assert not out.exists()

    def test_wrong_corpus_version(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.json.gz"
        corpus.write_bytes(gzip.compress(json.dumps(
            {"format_version": 9, "checksums": {}, "documents": []}).encode()))
        code, _, err = run(["index", "--corpus", corpus, "--out", tmp_path / "i.npz"],
                           capsys)
        assert "unsupported corpus format version" in one_error(code, err)

    @pytest.mark.parametrize("command, message", [
        ("ingest", "no dump file or directory at {}"),
        ("index", "no dump file or directory at {}"),
        ("ingest", "no .jsonl files under {}"),
    ], ids=["ingest", "index", "dir_without_jsonl"])
    def test_missing_dump(self, tmp_path, capsys, command, message):
        dump = tmp_path / "missing.jsonl"
        if "under" in message:  # a directory holding other files only
            dump = tmp_path / "dump"
            dump.mkdir()
            (dump / "pages.json").write_text("{}\n")
        flag = "--dump" if command == "ingest" else "--corpus"
        code, _, err = run([command, flag, dump, "--out", tmp_path / "out"], capsys)
        assert one_error(code, err) == f"error: {message.format(dump)}\n"
        assert not (tmp_path / "out").exists()

    def test_malformed_candidates_row(self, tmp_path, capsys):
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"id": 101}\n')
        code, _, err = run(["features", "--corpus", DUMP, "--claims", CLAIMS,
                            "--candidates", cands, "--out", tmp_path / "f.jsonl"], capsys)
        assert f"candidates row in {cands} on line 1: missing field 'candidates'" \
            in one_error(code, err)

    @pytest.mark.parametrize("ref, message", [
        (["No_Such_Page", 3], "candidate {!r} is not a non-empty sentence of the corpus"),
        (["Korvand_Archipelago", 999], "candidate {!r} is not a non-empty sentence of the corpus"),
        (["Korvand_Archipelago", 3], "candidate {!r} is not a non-empty sentence of the corpus"),
        (["Korvand_Archipelago", 0], "repeated candidate {!r}"),
    ], ids=["unknown_page", "unknown_line", "empty_line", "repeated"])
    def test_candidate_not_a_corpus_sentence(self, tmp_path, capsys, ref, message):
        cands, out = tmp_path / "cands.jsonl", tmp_path / "s.jsonl"
        cands.write_text(json.dumps({"id": 101, "candidates": [["Korvand_Archipelago", 0], ref]})
                         + "\n")
        code, _, err = run(["features", "--corpus", DUMP, "--claims", CLAIMS,
                            "--candidates", cands, "--out", out], capsys)
        assert f"bad candidates row in {cands} on line 1: {message.format(ref)}" \
            in one_error(code, err)
        assert not out.exists()

    def test_malformed_scored_row(self, tmp_path, capsys):
        scored = tmp_path / "scored.jsonl"
        scored.write_text('{"claim_id": 101}\n')
        code, _, err = run(["predict", "--claims", CLAIMS, "--scored", scored, "--model", tmp_path / "model.json",
                            "--out", tmp_path / "pred.jsonl"], capsys)
        assert f"scored row in {scored} on line 1: missing field 'page_id'" in one_error(code, err)

    def test_bad_model_split_feature(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "format_version": 1, "labels": ["SUPPORTS", "REFUTES", "NOT ENOUGH INFO"],
            "config": {"trees": 1, "max_depth": 1, "features_per_split": None, "seed": 0},
            "trees": [{"feature": 99, "threshold": 0.5,
                       "left": {"dist": [1.0, 0.0, 0.0]},
                       "right": {"dist": [0.0, 1.0, 0.0]}}]}))
        code, _, err = run(["e2e", "--corpus", DUMP, "--claims", CLAIMS, "--bins", "65536",
                            "--model", model, "--out", tmp_path / "pred.jsonl"], capsys)
        assert "feature 99 outside" in one_error(code, err)

    @pytest.mark.parametrize("case, message", [
        ("truncated", "cannot read corpus file {}: Compressed file ended"),
        ("no_documents", "corpus file {} has no checksums object of strings"),
        ("list_checksums", "corpus file {} has no checksums object of strings"),
        ("int_checksum", "corpus file {} has no checksums object of strings"),
        ("not_an_object", "corpus file {} does not start with a JSON object"),
        ("v1_file", "unsupported corpus format version: 1 in corpus file {}; "
                    "ingest its dump again"),
        ("v2_file", "unsupported corpus format version: 2 in corpus file {}; "
                    "ingest its dump again"),
        ("empty_id", "corpus file {} is malformed: a saved corpus skips nothing, but reading "
                     "it skipped 1 records and 0 sentence rows"),
        ("duplicate_page", "bad record in {} on line 3: duplicate page id: 'A'"),
        ("descending", "bad record in {} on line 4: page id 'B' comes after 'C': a saved corpus "
                       "lists its pages in ascending page-id order"),
    ], ids=["truncated", "no_documents", "list_checksums", "int_checksum", "not_an_object",
            "v1_file", "v2_file", "empty_id", "duplicate_page", "descending"])
    def test_broken_saved_corpus(self, workdir, tmp_path, capsys, case, message):
        corpus = tmp_path / "corpus.json.gz"
        if case == "truncated":
            saved = (workdir / "corpus.json.gz").read_bytes()
            corpus.write_bytes(saved[:len(saved) // 2])
        elif case == "duplicate_page":
            write_saved_corpus(corpus, *[b'{"id": "A", "text": "a.", "lines": "0\\ta."}'] * 2)
        elif case == "descending":
            write_saved_corpus(corpus, *(b'{"id": "%s", "text": "a.", "lines": "0\\ta."}' % page
                                         for page in (b"A", b"C", b"B")))
        elif case == "v1_file":
            corpus.write_bytes(gzip.compress(json.dumps({
                "format_version": 1, "checksums": {},
                "documents": [{"id": "A", "text": "a.", "lines": [[0, "a."]]}]}).encode()))
        else:
            header = {"no_documents": b'{"format_version": 3}',
                      "list_checksums": b'{"checksums": [], "format_version": 3}',
                      "int_checksum": b'{"checksums": {"d.jsonl": 5}, "format_version": 3}',
                      "not_an_object": b"[1, 2]",
                      "v2_file": b'{"checksums": {}, "format_version": 2}'}.get(case, HEADER)
            write_saved_corpus(corpus, b'{"id": "", "text": "a.", "lines": "0\\ta."}',
                               header=header)
        code, _, err = run(["index", "--corpus", corpus, "--out", tmp_path / "i.npz"], capsys)
        assert message.format(corpus) in one_error(code, err)
        assert not (tmp_path / "i.npz").exists()

    def test_saved_corpus_repeating_a_line_number(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.json.gz"
        write_saved_corpus(corpus, b'{"id": "A", "text": "a. b.", "lines": "0\\ta.\\n0\\tb."}')
        code, _, err = run(["index", "--corpus", corpus, "--out", tmp_path / "i.npz"], capsys)
        assert f"corpus file {corpus} is malformed: a saved corpus skips nothing, but reading " \
            "it skipped 0 records and 1 sentence rows" in one_error(code, err)

    # each case keeps the id of the format-1 case whose behaviour it checks
    @pytest.mark.parametrize("document, message", [
        ({"id": 5, "text": "a.", "lines": "0\ta."}, "field 'id' is int, not a string"),
        ({"id": "A", "text": 7, "lines": "0\ta."}, "field 'text' is int, not a string"),
        ({"id": "A", "text": "a.", "lines": [[0, "a."]]}, "field 'lines' is list, not a string"),
        ({"id": "A", "text": "a.", "lines": "0\t\ud800"},
         "'utf-8' codec can't encode character '\\ud800' in position 2: surrogates not allowed"),
        ({"id": "A", "text": "a.", "lines": "true\ta."}, None),
        ({"id": "A", "text": "a.", "lines": "+3\ta."}, None),
        ({"id": "A", "text": "a.", "lines": "0.5\ta."}, None),
        ({"id": "A", "text": "a.", "lines": "-1\ta."}, None),
        ({"id": "A", "text": "a.", "lines": "0\ta.\n"}, None),
        ({"id": "A", "text": "a.", "lines": "0"}, None),
    ], ids=["int_id", "int_text", "str_lines", "int_sentence", "bool_line", "str_line",
            "float_line", "negative_line", "long_pair", "int_pair"])
    def test_saved_corpus_with_a_mistyped_field(self, tmp_path, capsys, document, message):
        corpus = tmp_path / "corpus.json.gz"
        if message is None:  # a sentence row that the dump rules skip
            message = f"corpus file {corpus} is malformed: a saved corpus skips nothing, " \
                "but reading it skipped 0 records and 1 sentence rows"
        else:  # a record that the dump rules refuse
            message = f"bad record in {corpus} on line 2: {message}"
        write_saved_corpus(corpus, json.dumps(document).encode())
        code, _, err = run(["e2e", "--corpus", corpus, "--claims", CLAIMS, "--bins", "65536",
                            "--out", tmp_path / "pred.jsonl"], capsys)
        assert message in one_error(code, err)

    @pytest.mark.parametrize("field, message", [
        ("trees", "model has 2 trees, its config 5"),
        ("max_depth", "model has a tree of depth 3, its config max_depth 1"),
        ("format_version", "not a model file: missing format_version"),
        ("labels", "label set mismatch: ['NOT ENOUGH INFO', 'REFUTES', 'SUPPORTS']"),
    ], ids=["trees", "max_depth", "format_version", "labels"])
    def test_model_disagreeing_with_its_config(self, staged, tmp_path, capsys, field, message):
        """A trained model file with one field edited: its config, or what
        says which program and labels it is for."""
        model, pred = tmp_path / "model.json", tmp_path / "pred.jsonl"
        assert run(["train", "--claims", CLAIMS, "--scored", staged / "scored.jsonl",
                    "--trees", "5", "--out", model], capsys)[0] == 0
        payload = json.loads(model.read_text())
        if field == "trees":
            payload["trees"] = payload["trees"][:2]
        elif field == "max_depth":
            payload["config"]["max_depth"] = 1
        elif field == "format_version":
            del payload["format_version"]
        else:
            payload["labels"].reverse()
        model.write_text(json.dumps(payload))
        code, _, err = run(["predict", "--claims", CLAIMS,
                            "--scored", staged / "scored.jsonl", "--model", model,
                            "--out", pred], capsys)
        assert message in one_error(code, err)
        assert not pred.exists()

    def test_scored_rows_in_another_order_predict_alike(self, staged, tmp_path, capsys):
        # reversed, the rows would add up some sums f4..f6 to other last bits
        scored = tmp_path / "scored.jsonl"
        scored.write_bytes(b"".join(reversed(
            (staged / "scored.jsonl").read_bytes().splitlines(keepends=True))))
        outputs = []
        for rows in (staged / "scored.jsonl", scored):
            model, pred = tmp_path / "model.json", tmp_path / "pred.jsonl"
            assert run(["train", "--claims", CLAIMS, "--scored", rows,
                        "--trees", "5", "--out", model], capsys)[0] == 0
            assert run(["predict", "--claims", CLAIMS, "--scored", rows,
                        "--model", model, "--out", pred], capsys)[0] == 0
            outputs.append((model.read_bytes(), pred.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_rows_of_claims_not_in_claims_file_left_out(self, staged, tmp_path, capsys):
        # training on some claims of a scored file, as a held-out split does
        claims, subset = tmp_path / "claims.jsonl", tmp_path / "scored.jsonl"
        lines = CLAIMS.read_text().splitlines(keepends=True)
        claims.write_text("".join(lines[::2]))
        kept = {json.loads(line)["id"] for line in lines[::2]}
        subset.write_text("".join(json.dumps(row) + "\n"
                                  for row in read_rows(staged / "scored.jsonl")
                                  if row["claim_id"] in kept))
        models = []
        for rows in (staged / "scored.jsonl", subset):
            model = tmp_path / f"model{len(models)}.json"
            assert run(["train", "--claims", claims, "--scored", rows,
                        "--trees", "5", "--out", model], capsys)[0] == 0
            models.append(model.read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("case, message", [
        *((f"no_{name}", f"is corrupt: it has no {name} array")
          for name in ("header", "item_ids", "uniq_bins", "uniq_offsets", "post_items",
                       "post_weights", "df", "item_norms")),
        ("no_bin_count", "cannot read index {}: missing field 'bin_count'"),
        ("nan_post_weights", "is corrupt: its arrays disagree"),
        ("negative_item_norms", "is corrupt: its arrays disagree"),
        ("cut_post_items", "is corrupt: its arrays disagree"),
        ("post_item_out_of_range", "is corrupt: its arrays disagree"),
        ("short_df", "is corrupt: its arrays disagree"),
        ("short_item_norms", "is corrupt: its arrays disagree"),
        ("unsorted_bins", "is corrupt: its arrays disagree"),
        ("float32_post_weights", "is corrupt: its arrays disagree"),
        ("float32_item_norms", "is corrupt: its arrays disagree"),
        ("str_uniq_bins", "is corrupt: its arrays disagree"),
        ("huge_shape", "cannot read index {}: Unable to allocate"),
        ({"bin_count": "65536"}, "has a bad bin_count, ngram_orders or item_count: '65536'"),
        ({"bin_count": 65536.7}, "has a bad bin_count, ngram_orders or item_count: 65536.7"),
        ({"bin_count": True}, "has a bad bin_count, ngram_orders or item_count: True"),
        ({"bin_count": 2**32 + 1}, "has a bad bin_count, ngram_orders or item_count: 4294967297"),
        ({"bin_count": 1000}, "is corrupt: its arrays disagree"),
        ({"ngram_orders": ["1", "2"]}, "has a bad bin_count, ngram_orders or item_count: "
                                       "65536, ['1', '2']"),
        ({"ngram_orders": [2]}, "holds n-gram orders [2], not a document index's [1, 2]"),
        ({"weighting": "raw-tf"}, "has an unknown weighting: 'raw-tf'"),
        ({"item_count": 5}, "has a bad bin_count, ngram_orders or item_count: "
                            "65536, [1, 2], 5"),
    ], ids=["no_header", "no_item_ids", "no_uniq_bins", "no_uniq_offsets", "no_post_items",
            "no_post_weights", "no_df", "no_item_norms", "no_bin_count", "nan_post_weights",
            "negative_item_norms", "cut_post_items", "post_item_out_of_range",
            "short_df", "short_item_norms", "unsorted_bins", "float32_post_weights",
            "float32_item_norms", "str_uniq_bins", "huge_shape", "str_bin_count",
            "float_bin_count", "bool_bin_count", "huge_bin_count", "small_bin_count",
            "str_ngram_orders", "other_ngram_orders", "raw_weighting", "wrong_item_count"])
    def test_broken_index(self, workdir, tmp_path, capsys, case, message):
        with np.load(workdir / "index.npz") as data:
            arrays = dict(data)
        header = json.loads(str(arrays["header"]))
        if isinstance(case, dict):  # one header field rewritten
            arrays["header"] = np.array(json.dumps({**header, **case}))
        elif case == "no_bin_count":
            del header["bin_count"]
            arrays["header"] = np.array(json.dumps(header))
        elif case.startswith("no_"):  # one array dropped
            del arrays[case.removeprefix("no_")]
        elif case == "nan_post_weights":
            arrays["post_weights"][3] = np.nan
        elif case == "negative_item_norms":
            arrays["item_norms"] = -arrays["item_norms"]
        elif case == "cut_post_items":
            arrays["post_items"] = arrays["post_items"][:-5]
        elif case == "post_item_out_of_range":
            arrays["post_items"][0] = len(arrays["item_ids"])
        elif case == "short_df":
            arrays["df"], arrays["uniq_bins"] = arrays["df"][:-1], arrays["uniq_bins"][:-1]
        elif case == "short_item_norms":
            arrays["item_norms"] = arrays["item_norms"][:-1]
        elif case.startswith("float32_"):  # a lossy rewrite of a float array
            name = case.removeprefix("float32_")
            arrays[name] = arrays[name].astype(np.float32)
        elif case == "str_uniq_bins":
            arrays["uniq_bins"] = arrays["uniq_bins"].astype(str)
        elif case == "unsorted_bins":
            arrays["uniq_bins"] = arrays["uniq_bins"][::-1].copy()
        index, out = tmp_path / "index.npz", tmp_path / "pred.jsonl"
        np.savez(index, **arrays)
        if case == "huge_shape":  # the first array's npy header declares petabytes
            raw = index.read_bytes()
            old = re.search(rb"'shape': \(\d+,\), \} +", raw).group()
            index.write_bytes(raw.replace(old, b"'shape': (99999999999999,), }".ljust(len(old)), 1))
        code, _, err = run(["e2e", "--corpus", workdir / "corpus.json.gz", "--claims", CLAIMS,
                            "--index", index, "--out", out], capsys)
        expected = message.format(index) if "{}" in message else f"index {index} {message}"
        assert expected in one_error(code, err)
        assert not out.exists()

    @pytest.mark.parametrize("fault", [
        *(f"{name}:{dtype}" for name, own in INDEX_DTYPES.items()
          for dtype in ("int32", "int64", "float32", "float64", "str", "bytes", "object",
                        "column") if dtype != own),
        *(f"{name}:{dtype}" for name in ("header", "item_ids")
          for dtype in ("bytes", "object", "column")),
        *(f"{field}={value}" for field in ("bin_count", "item_count", "format_version")
          for value in ("null", '"1"', "1.0", "true", "-1", "0", "2", "1e400", "[1]")),
    ])
    def test_index_fault_ends_e2e_in_one_error_line(self, workdir, tmp_path, capsys, fault):
        """An index.npz whose array has another dtype or shape, or whose header
        field is rewritten, fails e2e with one error line naming the file."""
        with np.load(workdir / "index.npz") as data:
            arrays = dict(data)
        name, _, dtype = fault.partition(":")
        if dtype == "column":
            arrays[name] = arrays[name].reshape(-1, 1)
        elif dtype:
            arrays[name] = arrays[name].astype(dtype)
        else:  # one header field rewritten
            field, _, value = fault.partition("=")
            header = json.loads(str(arrays["header"]))
            arrays["header"] = np.array(json.dumps(header)[:-1] + f', "{field}": {value}}}')
        index, out = tmp_path / "index.npz", tmp_path / "pred.jsonl"
        np.savez(index, **arrays)
        code, _, err = run(["e2e", "--corpus", workdir / "corpus.json.gz", "--claims", CLAIMS,
                            "--index", index, "--out", out], capsys)
        assert str(index) in one_error(code, err)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["dump", "saved_corpus", "claims", "model"])
    def test_deeply_nested_json(self, workdir, tmp_path, capsys, kind):
        deep = "[" * 5000 + "]" * 5000
        path, out = tmp_path / "input", tmp_path / "out"
        e2e = ["e2e", "--corpus", DUMP, "--claims", CLAIMS, "--bins", "65536", "--out", out]
        if kind == "dump":
            path.write_text('{"id": "A", "text": "a.", "lines": ' + deep + "}\n")
            argv, message = ["ingest", "--dump", path, "--out", out], \
                f"bad record in {path} on line 1: maximum recursion depth"
        elif kind == "saved_corpus":
            path.write_bytes(gzip.compress(
                ('{"format_version": 1, "checksums": {}, "documents": ' + deep + "}").encode()))
            argv, message = ["index", "--corpus", path, "--out", out], \
                f"cannot read corpus file {path}: maximum recursion depth"
        elif kind == "claims":
            lines = CLAIMS.read_text().splitlines()
            row = '{"id": 103, "claim": "c", "label": "NOT ENOUGH INFO", "evidence": ' + deep + "}"
            path.write_text("\n".join([*lines[:2], row, *lines[3:]]) + "\n")
            argv, message = [*e2e[:3], "--claims", path, *e2e[5:]], \
                f"bad claim row in {path} on line 3: maximum recursion depth"
        else:
            path.write_text(json.dumps({"format_version": 1, "labels": list(forest.LABELS),
                                        "config": {"trees": 1, "max_depth": 1, "seed": 0},
                                        "trees": []}).replace("[]", deep))
            argv, message = [*e2e, "--model", path], \
                f"cannot read model file {path}: maximum recursion"
        code, _, err = run(argv, capsys)
        assert message in one_error(code, err)
        assert not out.exists()

    @pytest.mark.parametrize("lines, lineno, message", [
        (['[1, 2]'], 1, "expected a JSON object, got list"),
        (['{"id": "A", "text": "a.", "lines": 5}'], 1, "field 'lines' is int"),
        (['{"id": "A", "text": "a.", "lines": "0\\ta."}', '{"id": 5, "text": "b."}'], 2,
         "field 'id' is int"),
        (['{"id": "A", "text": 7, "lines": "0\\ta."}'], 1, "field 'text' is int"),
        (['{"id": "A", "text": "a.", "lines": "0\\ta."}', '{"id": "B", "text"'], 2,
         "Expecting ':' delimiter"),
    ], ids=["list", "int_lines", "int_id", "int_text", "invalid_json"])
    def test_malformed_dump_record(self, tmp_path, capsys, lines, lineno, message):
        dump, corpus = tmp_path / "dump.jsonl", tmp_path / "corpus.json.gz"
        dump.write_text("\n".join(lines) + "\n")
        # the same records in a saved corpus, a line below its header
        write_saved_corpus(corpus, *(line.encode() for line in lines))
        e2e = ["e2e", "--claims", CLAIMS, "--bins", "65536", "--out", tmp_path / "pred.jsonl"]
        for argv, path, at in ((["ingest", "--dump", dump, "--out", corpus], dump, lineno),
                               ([*e2e, "--corpus", dump], dump, lineno),
                               ([*e2e, "--corpus", corpus], corpus, lineno + 1)):
            code, _, err = run(argv, capsys)
            err = one_error(code, err)
            assert f"{path} on line {at}: {message}" in err

    def test_list_claim_id_in_scored_row(self, tmp_path, capsys):
        scored = tmp_path / "scored.jsonl"
        scored.write_text(json.dumps({"claim_id": [101], "page_id": "P", "line_number": 0,
                                      "support": 0.5, "refute": 0.25,
                                      "uninformative": 0.25}) + "\n")
        code, _, err = run(["predict", "--claims", CLAIMS, "--scored", scored, "--model", tmp_path / "model.json",
                            "--out", tmp_path / "pred.jsonl"], capsys)
        assert f"scored row in {scored} on line 1: claim_id [101] is not" in one_error(code, err)


    @pytest.mark.parametrize("bins", ["0", "-3", str(2**32 + 1)])
    def test_degenerate_bin_count(self, tmp_path, capsys, bins):
        for argv in (["index", "--corpus", DUMP, "--out", tmp_path / "i.npz"],
                     ["e2e", "--corpus", DUMP, "--claims", CLAIMS,
                      "--out", tmp_path / "pred.jsonl"]):
            code, _, err = run([*argv, "--bins", bins], capsys)
            assert f"bin count must be between 1 and 2^32, got {bins}" in one_error(code, err)
        assert not (tmp_path / "i.npz").exists() and not (tmp_path / "pred.jsonl").exists()

    def test_raw_line_separator_inside_a_record(self, tmp_path, capsys):
        # U+2028, U+2029 and U+0085 are line breaks to str.splitlines, not to JSON
        dump = tmp_path / "dump.jsonl"
        record = {"id": "A", "text": "a\u2028b\u2029c\x85d", "lines": "0\ta\u2028b"}
        dump.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        code, _, _ = run(["ingest", "--dump", dump, "--out", tmp_path / "c.json.gz"], capsys)
        assert code == 0
        doc = Corpus.load(tmp_path / "c.json.gz").get("A")
        assert doc.text == record["text"] and doc.lines == {0: "a\u2028b"}

    def test_dump_not_utf8_names_file_and_line(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        dump.write_bytes(b'{"id": "A", "text": "a.", "lines": "0\\ta."}\n'
                         b'{"id": "B", "text": "b\xff."}\n')
        code, _, err = run(["ingest", "--dump", dump, "--out", tmp_path / "c.json.gz"], capsys)
        assert f"bad record in {dump} on line 2: 'utf-8' codec can't decode byte 0xff" \
            in one_error(code, err)

    def test_list_id_in_prediction_row(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"id": [101], "predicted_label": "SUPPORTS", '
                        '"predicted_evidence": []}\n')
        code, _, err = run(["score", "--gold", CLAIMS, "--pred", pred], capsys)
        assert f"prediction row in {pred} on line 1: id [101] is not" in one_error(code, err)

    def test_prediction_for_an_unknown_claim(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"id": 999, "predicted_label": "SUPPORTS", "predicted_evidence": []}\n')
        code, _, err = run(["score", "--gold", CLAIMS, "--pred", pred], capsys)
        assert f"bad prediction row in {pred} on line 1: unknown claim id 999" \
            in one_error(code, err)

    def test_non_json_line_names_its_line(self, tmp_path, capsys):
        scored = tmp_path / "scored.jsonl"
        rows = [json.dumps({**_SCORED, "claim_id": cid}) for cid in (101, 102, 103)]
        scored.write_text("\n".join([*rows, "not json"]) + "\n")
        code, _, err = run(["train", "--claims", CLAIMS, "--scored", scored,
                            "--out", tmp_path / "model.json"], capsys)
        assert f"bad scored row in {scored} on line 4: Expecting value" in one_error(code, err)

    @pytest.mark.parametrize("row, message", [
        ({"id": 103, **NEI, "evidence": 5}, "evidence 5 is not a list of lists"),
        ({"id": 103, **NEI, "evidence": [[["Maren_Kallio"]]]},
         "malformed evidence item ['Maren_Kallio']"),
        ({"id": 103, **NEI, "evidence": [[["Maren_Kallio", "1"]]]},
         "evidence item ['Maren_Kallio', '1'] is not [..., page_id, line]"),
        ([1, 2], "expected a JSON object, got list"),
        ({"id": [103], **NEI}, "id [103] is not a string or an integer"),
        ({"id": True, **NEI}, "id True is not a string or an integer"),
        ({"id": 103.0, **NEI}, "id 103.0 is not a string or an integer"),
        ({"id": 103, "claim": "c"}, "missing field 'label'"),
        ({"id": 103, "claim": "c", "label": None}, "unknown label None"),
        ({"id": 103, "claim": None, "label": "NOT ENOUGH INFO"}, "claim None is not a string"),
        ({"id": 101, **NEI}, "repeated claim id 101"),
    ], ids=["int_evidence", "short_item", "str_line", "list_row", "list_id", "bool_id",
            "float_id", "missing_label", "null_label", "null_claim", "duplicate_id"])
    def test_malformed_claims_row(self, tmp_path, capsys, row, message):
        lines = CLAIMS.read_text().splitlines()
        claims = tmp_path / "claims.jsonl"
        claims.write_text("\n".join([*lines[:2], json.dumps(row), *lines[3:]]) + "\n")
        out, report = tmp_path / "pred.jsonl", tmp_path / "report.json"
        code, _, err = run(["e2e", "--corpus", DUMP, "--claims", claims, "--bins", "65536",
                            "--out", out, "--report", report], capsys)
        assert f"bad claim row in {claims} on line 3: {message}" in one_error(code, err)
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("flags, row, message", [
        (["--ner-file"], {"id": 101, "entities": "Korvand Archipelago"},
         "bad entity annotation row in {} on line 1: entities 'Korvand Archipelago' is not a "
         "list"),
        (["--ner-file"], {"id": [101], "entities": []},
         "bad entity annotation row in {} on line 1: id [101] is not"),
        (["--ner-file"], {"id": 101.0, "entities": []},
         "bad entity annotation row in {} on line 1: id 101.0 is not"),
        (["--ner-file"], {"claim_id": True, "entities": []},
         "bad entity annotation row in {} on line 1: claim_id True is not"),
        (["--prob-file"],
         {"claim_id": [101], "page_id": "Korvand_Archipelago", "line_number": 0,
          "support": 1.0, "refute": 0.0, "uninformative": 0.0},
         "bad probability row in {} on line 1: claim_id [101] is not"),
        (["--prob-file"],
         {"claim_id": 101.0, "page_id": "Korvand_Archipelago", "line_number": 0,
          "support": 1.0, "refute": 0.0, "uninformative": 0.0},
         "bad probability row in {} on line 1: claim_id 101.0 is not"),
        (["--prob-file"],
         {"claim_id": True, "page_id": "Korvand_Archipelago", "line_number": 0,
          "support": 1.0, "refute": 0.0, "uninformative": 0.0},
         "bad probability row in {} on line 1: claim_id True is not"),
    ], ids=["string_entities", "list_id_entities", "float_id_entities", "bool_id_entities",
            "list_id_probabilities", "float_id_probabilities", "bool_id_probabilities"])
    def test_malformed_side_file_row(self, tmp_path, capsys, flags, row, message):
        side, out = tmp_path / "side.jsonl", tmp_path / "pred.jsonl"
        side.write_text(json.dumps(row) + "\n")
        code, _, err = run(["e2e", "--corpus", DUMP, "--claims", CLAIMS, "--bins", "65536",
                            *flags, side, "--out", out], capsys)
        assert message.format(side) in one_error(code, err)
        assert not out.exists()

    @pytest.mark.parametrize("kind, field, value, message", [
        ("probability", "support", "0.5", "support '0.5' is not a number"),
        ("probability", "uninformative", False, "uninformative False is not a number"),
        ("scored", "support", True, "support True is not a number"),
        ("scored", "refute", None, "refute None is not a number"),
        ("scored", "claim_id", 101.0, "claim_id 101.0 is not a string or an integer"),
        ("scored", "claim_id", True, "claim_id True is not a string or an integer"),
    ], ids=["probability_string", "probability_bool", "scored_bool", "scored_null",
            "scored_float_id", "scored_bool_id"])
    def test_non_numeric_field(self, one_claim, tmp_path, capsys, kind, field, value, message):
        d = one_claim
        rows, out = tmp_path / "rows.jsonl", tmp_path / "out.jsonl"
        rows.write_text(json.dumps({**_SCORED, field: value}) + "\n")
        argv = {
            "probability": ["features", "--corpus", DUMP, "--claims", d / "claims.jsonl",
                            "--candidates", d / "cands1.jsonl", "--prob-file", rows,
                            "--out", out],
            "scored": ["predict", "--claims", d / "claims.jsonl", "--scored", rows,
                       "--model", d / "model.json", "--out", out],
        }[kind]
        code, _, err = run(argv, capsys)
        assert f"error: bad {kind} row in {rows} on line 1: {message}" \
            == one_error(code, err).rstrip()
        assert not out.exists()


    @pytest.mark.parametrize("flag", ["--ner-file", "--prob-file"])
    @pytest.mark.parametrize("name", ["missing.jsonl", ""])
    def test_missing_side_file(self, tmp_path, capsys, flag, name):
        out = tmp_path / "pred.jsonl"
        path = tmp_path / name if name else ""  # an empty path selects the file too
        code, _, err = run(["e2e", "--corpus", DUMP, "--claims", CLAIMS, "--bins", "65536",
                            flag, path, "--out", out], capsys)
        assert f"No such file or directory: '{path}'" in one_error(code, err)
        assert not out.exists()

    @pytest.mark.parametrize("kind, rows, message", [
        ("probabilities",
         [{"claim_id": 101, "page_id": "Korvand_Archipelago", "line_number": 0,
           "support": s, "refute": 1.0 - s, "uninformative": 0.0} for s in (1.0, 0.0)],
         "bad probability row in {} on line 2: repeated (claim id, page id, line) "
         "(101, 'Korvand_Archipelago', 0)"),
        ("entity_annotations",
         [{"id": 101, "entities": ["Korvand Archipelago"]}, {"id": 101, "entities": []}],
         "bad entity annotation row in {} on line 2: repeated claim id 101"),
        ("scored",
         [{"claim_id": 101, "page_id": "Korvand_Archipelago", "line_number": 0,
           "support": s, "refute": 1.0 - s, "uninformative": 0.0} for s in (1.0, 1.0)],
         "bad scored row in {} on line 2: repeated (claim id, page id, line) "
         "(101, 'Korvand_Archipelago', 0)"),
        ("candidates", [{"id": 101, "candidates": [["Korvand_Archipelago", 0]]}] * 2,
         "bad candidates row in {} on line 2: repeated claim id 101"),
        ("predictions", [{"id": 101, "predicted_label": label, "predicted_evidence": []}
                         for label in ("SUPPORTS", "REFUTES")],
         "bad prediction row in {} on line 2: repeated claim id 101"),
    ], ids=["probabilities", "entity_annotations", "scored", "candidates", "predictions"])
    def test_repeated_key_in_side_or_staged_file(self, one_claim, tmp_path, capsys,
                                                  kind, rows, message):
        side, out = tmp_path / "side.jsonl", tmp_path / "out.jsonl"
        side.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, _, err = run(row_file_argv(one_claim, kind, side, out), capsys)
        assert message.format(side) in one_error(code, err)
        assert not out.exists()

    @pytest.mark.parametrize("claim_id", [101.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("kind, row", [
        ("candidates", {"candidates": [["Korvand_Archipelago", 0]]}),
        ("predictions", {"predicted_label": "SUPPORTS",
                         "predicted_evidence": [["Korvand_Archipelago", 0]]}),
    ], ids=["candidates", "predictions"])
    def test_float_or_bool_id_in_candidates_or_prediction_row(self, one_claim, tmp_path,
                                                              capsys, kind, row, claim_id):
        # 101.0 == 101 and True == 1 in Python: either would pass for an integer id
        side, out = tmp_path / "side.jsonl", tmp_path / "out.jsonl"
        side.write_text(json.dumps({"id": claim_id, **row}) + "\n")
        code, _, err = run(row_file_argv(one_claim, kind, side, out), capsys)
        assert f"row in {side} on line 1: id {claim_id!r} is not a string or an integer" \
            in one_error(code, err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["e2e", "train"])
    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "the seed must be >= 0, got -1"),
        (["--sample-counts", "a,b,c"],
         "--sample-counts needs three non-negative integers, got 'a,b,c'"),
        (["--sample-counts", "3,2.5,1"],
         "--sample-counts needs three non-negative integers, got '3,2.5,1'"),
    ], ids=["negative_seed", "letters", "fraction"])
    def test_bad_training_flag_refused_up_front(self, staged, tmp_path, capsys, monkeypatch,
                                                command, flags, message):
        # refused before any input is read
        monkeypatch.setattr(nli_data, "load_claims", lambda path: pytest.fail("read the claims"))
        out = tmp_path / "out.json"
        inputs = (["--corpus", DUMP, "--claims", CLAIMS] if command == "e2e"
                  else ["--claims", CLAIMS, "--scored", staged / "scored.jsonl"])
        code, _, err = run([command, *inputs, *flags, "--out", out], capsys)
        assert one_error(code, err) == f"error: {message}\n"
        assert not out.exists()


def row_file_argv(d, kind, side, out) -> list:
    """The command that reads side as a row file of kind, the other inputs
    being the valid files of the one_claim fixture d."""
    e2e = ["e2e", "--corpus", DUMP, "--claims", CLAIMS, "--bins", "65536", "--out", out]
    return {
        "probabilities": [*e2e, "--prob-file", side],
        "entity_annotations": [*e2e, "--ner-file", side],
        "scored": ["predict", "--claims", d / "claims.jsonl", "--scored", side,
                   "--model", d / "model.json", "--out", out],
        "candidates": ["features", "--corpus", DUMP, "--claims", d / "claims.jsonl",
                       "--candidates", side, "--out", out],
        "predictions": ["score", "--gold", d / "claims.jsonl", "--pred", side,
                        "--json-out", out],
    }[kind]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)
# dump-shaped objects reach the per-field checks more often than arbitrary values
DUMP_RECORDS = JSON_VALUES | st.fixed_dictionaries(
    {}, optional={"id": JSON_VALUES | st.text(), "text": JSON_VALUES, "lines": JSON_VALUES})


@settings(max_examples=150, deadline=None)
@given(value=DUMP_RECORDS)
def test_one_line_dump_ingests_or_fails_with_one_error(value):
    with tempfile.TemporaryDirectory() as tmp:
        dump, out = Path(tmp) / "dump.jsonl", Path(tmp) / "corpus.json.gz"
        dump.write_text(json.dumps(value) + "\n")
        try:
            ingest_dump(dump)
            ingests = True
        except ValueError:
            ingests = False
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["-q", "ingest", "--dump", str(dump), "--out", str(out)])
        if ingests:
            assert code == 0 and len(Corpus.load(out)) <= 1
        else:
            one_error(code, err.getvalue())


@pytest.fixture(scope="module")
def one_claim(tmp_path_factory):
    """A one-claim claims file, plus valid candidate, scored, prediction and
    model files (the model trained on that SUPPORTS claim and a REFUTES one)."""
    d = tmp_path_factory.mktemp("rows")
    lines = CLAIMS.read_text().splitlines()
    (d / "claims.jsonl").write_text(lines[0] + "\n")
    (d / "claims2.jsonl").write_text(lines[0] + "\n" + lines[11] + "\n")  # ids 101, 112
    (d / "cands.jsonl").write_text('{"id": 101, "candidates": [["Korvand_Archipelago", 0]]}\n'
                                   '{"id": 112, "candidates": [["Ilmar_Voss", 0]]}\n')
    (d / "cands1.jsonl").write_text(
        '{"id": 101, "candidates": [["Korvand_Archipelago", 0]]}\n')
    (d / "pred.jsonl").write_text('{"id": 101, "predicted_label": "SUPPORTS", '
                                  '"predicted_evidence": [["Korvand_Archipelago", 0]]}\n')
    for argv in (["features", "--corpus", DUMP, "--claims", d / "claims2.jsonl",
                  "--candidates", d / "cands.jsonl", "--out", d / "scored.jsonl"],
                 ["train", "--claims", d / "claims2.jsonl", "--trees", "2",
                  "--scored", d / "scored.jsonl", "--out", d / "model.json"]):
        assert cli.main(["-q", *map(str, argv)]) == 0
    return d


LABEL = st.sampled_from(["SUPPORTS", "REFUTES", "NOT ENOUGH INFO"])
PAIRS = st.lists(st.lists(JSON_VALUES | st.text(max_size=20) | st.integers(-2, 9),
                          min_size=0, max_size=3), max_size=3)
ROW_FILES = {
    "candidates": st.fixed_dictionaries({}, optional={
        "id": st.just(101) | JSON_VALUES, "candidates": PAIRS | JSON_VALUES}),
    "scored": st.fixed_dictionaries({}, optional={
        "claim_id": st.just(101) | JSON_VALUES, "page_id": st.text(max_size=20) | JSON_VALUES,
        "line_number": st.integers() | JSON_VALUES,
        **{k: st.floats(0, 1) | JSON_VALUES for k in ("support", "refute", "uninformative")}}),
    "predictions": st.fixed_dictionaries({}, optional={
        "id": st.just(101) | JSON_VALUES, "predicted_label": LABEL | JSON_VALUES,
        "predicted_evidence": PAIRS | JSON_VALUES}),
    "claims": st.just(json.loads(CLAIMS.read_text().splitlines()[0]))
    | st.fixed_dictionaries({}, optional={
        "id": st.just(101) | JSON_VALUES, "claim": st.text(max_size=30) | JSON_VALUES,
        "label": LABEL | JSON_VALUES,
        "evidence": st.just([[[1101, 2000, "Korvand_Archipelago", 0]]])
        | st.lists(PAIRS, max_size=2) | JSON_VALUES}),
    "entity_annotations": st.fixed_dictionaries({}, optional={
        "id": st.just(101) | JSON_VALUES, "claim_id": st.just(101) | JSON_VALUES,
        "entities": st.lists(st.text(max_size=20), max_size=3) | JSON_VALUES}),
    "probabilities": st.tuples(st.fixed_dictionaries({}, optional={
        "claim_id": st.just(101) | JSON_VALUES,
        "page_id": st.just("Korvand_Archipelago") | st.text(max_size=20) | JSON_VALUES,
        "line_number": st.just(0) | st.integers() | JSON_VALUES}),
        st.just({"support": 0.5, "refute": 0.25, "uninformative": 0.2501})
        | st.fixed_dictionaries({}, optional={
            k: st.floats(0, 1) | JSON_VALUES for k in ("support", "refute", "uninformative")}),
    ).map(lambda parts: {**parts[0], **parts[1]}),
}


def _with_ref(row, keys, *refs):
    return [{**row, **dict(zip(keys, ref))} for ref in refs]


# sentence references that are not [string page, integer line]; each must fail
BAD_REFS = (["Korvand_Archipelago", 0.9], [["x"], 1], ["Korvand_Archipelago", True],
            [None, 0], ["Korvand_Archipelago", "0"])
_SCORED = {"claim_id": 101, "page_id": "Korvand_Archipelago", "line_number": 0,
           "support": 1.0, "refute": 0.0, "uninformative": 0.0}
BAD_SENTENCE_REFS = {
    "candidates": [{"id": 101, "candidates": [ref]} for ref in BAD_REFS],
    "scored": _with_ref(_SCORED, ("page_id", "line_number"), *BAD_REFS),
    "probabilities": _with_ref(_SCORED, ("page_id", "line_number"), *BAD_REFS),
    "predictions": [{"id": 101, "predicted_label": "SUPPORTS", "predicted_evidence": [ref]}
                    for ref in BAD_REFS],
}


@pytest.mark.parametrize("kind", sorted(ROW_FILES))
def test_one_line_row_file_parses_or_fails_with_one_error(one_claim, kind):
    d = one_claim
    outs = d / f"out-{kind}", d / f"out2-{kind}"

    def argvs(rows):
        claims, (out, out2) = d / "claims.jsonl", outs
        return {
            "candidates": [["features", "--corpus", DUMP, "--claims", claims,
                            "--candidates", rows, "--out", out]],
            "scored": [["train", "--claims", claims, "--scored", rows, "--trees", "2",
                        "--out", out],
                       ["predict", "--claims", claims, "--scored", rows,
                        "--model", d / "model.json", "--out", out]],
            "predictions": [["score", "--gold", claims, "--pred", rows, "--json-out", out]],
            "claims": [["retrieve", "--corpus", DUMP, "--claims", rows, "--bins", "65536",
                        "--out", out],
                       ["gen-nli", "--corpus", DUMP, "--claims", rows, "--out", out,
                        "--manifest", out2],
                       ["features", "--corpus", DUMP, "--claims", rows,
                        "--candidates", d / "cands1.jsonl", "--out", out],
                       ["train", "--claims", rows, "--scored", d / "scored.jsonl",
                        "--trees", "2", "--out", out],
                       ["predict", "--claims", rows, "--scored", d / "scored.jsonl",
                        "--model", d / "model.json", "--out", out],
                       ["score", "--gold", rows, "--pred", d / "pred.jsonl", "--json-out", out],
                       ["e2e", "--corpus", DUMP, "--claims", rows, "--bins", "65536",
                        "--model", d / "model.json", "--out", out, "--report", out2]],
            "entity_annotations": [["retrieve", "--corpus", DUMP, "--claims", claims,
                                    "--bins", "65536", "--ner-file", rows,
                                    "--out", out]],
            "probabilities": [["features", "--corpus", DUMP, "--claims", claims,
                               "--candidates", d / "cands1.jsonl", "--prob-file", rows,
                               "--out", out]],
        }[kind]

    def run_all(line):
        """Exit codes and stderr of every command reading a one-line row file."""
        rows = d / f"rows-{kind}.jsonl"
        rows.write_text(line + "\n", encoding="utf-8", errors="surrogatepass")
        results = []
        for argv in argvs(rows):
            for out in outs:
                out.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                results.append((cli.main(["-q", *map(str, argv)]), err.getvalue()))
            if results[-1][0] != 0:
                assert not any(out.exists() for out in outs), argv
        return results

    for row in BAD_SENTENCE_REFS.get(kind, ()):
        for code, err in run_all(json.dumps(row)):
            assert "is not [page_id, line]" in one_error(code, err), row

    @settings(max_examples=100, deadline=None)
    @given(line=ROW_FILES[kind].map(json.dumps) | JSON_VALUES.map(json.dumps)
           | st.text(max_size=30))
    def check(line):
        for code, err in run_all(line):
            if code != 0:
                one_error(code, err)

    check()


class TestTripleRows:
    """Scored rows (features --out, train and predict --scored) and probability
    rows (--prob-file) are one format, read by one parser."""

    def test_scored_out_reads_back_as_prob_file(self, workdir, tmp_path, capsys):
        d, t = workdir, tmp_path
        features = ["features", "--corpus", d / "corpus.json.gz", "--claims", CLAIMS,
                    "--candidates", d / "candidates.jsonl"]
        assert run([*features, "--out", t / "s1.jsonl"], capsys)[0] == 0
        assert run([*features, "--prob-file", t / "s1.jsonl", "--out", t / "s2.jsonl"],
                   capsys)[0] == 0
        assert (t / "s1.jsonl").read_bytes() == (t / "s2.jsonl").read_bytes()

    @staticmethod
    def read_both(d, tmp_path, capsys, monkeypatch, total):
        """(exit code, stderr, triple or None) of predict --scored, then of features
        --prob-file, on one row for claim 101 whose components sum to total."""
        side, scored = tmp_path / "row.jsonl", tmp_path / "s.jsonl"
        side.write_text(json.dumps({**_SCORED, "support": total - 0.5, "refute": 0.25,
                                    "uninformative": 0.25, "pairs": 1}) + "\n")
        code, _, err = run(["features", "--corpus", DUMP, "--claims", d / "claims.jsonl",
                            "--candidates", d / "cands1.jsonl", "--prob-file", side,
                            "--out", scored], capsys)
        row = read_rows(scored)[0] if code == 0 else None
        by_features = (code, err, row and tuple(row[k] for k in TRIPLE_FIELDS))
        seen = {}  # the scored pairs predict assembles its verdicts from
        monkeypatch.setattr(cli, "write_predictions",
                            lambda path, instances, X, pairs, model: seen.update(pairs=pairs))
        code, _, err = run(["predict", "--claims", d / "claims.jsonl",
                            "--scored", side, "--model", d / "model.json",
                            "--out", tmp_path / "p.jsonl"], capsys)
        return [(code, err, tuple(seen["pairs"].triples[0].tolist()) if seen else None),
                by_features]

    def test_near_one_sum_renormalized_alike(self, one_claim, tmp_path, capsys, monkeypatch):
        (code, _, by_predict), (code2, _, by_features) = self.read_both(
            one_claim, tmp_path, capsys, monkeypatch, 1 - 5e-4)
        assert code == code2 == 0
        assert by_predict == by_features != (0.5 - 5e-4, 0.25, 0.25)
        assert sum(by_predict) == pytest.approx(1.0, abs=1e-12)

    def test_far_off_sum_fails_alike(self, one_claim, tmp_path, capsys, monkeypatch):
        results = self.read_both(one_claim, tmp_path, capsys, monkeypatch, 1 - 2e-3)
        for (code, err, _), kind in zip(results, ("scored", "probability")):
            assert f"bad {kind} row in {tmp_path / 'row.jsonl'} on line 1: triple" \
                in one_error(code, err)
            assert "sums to 0.998" in err
        assert not (tmp_path / "s.jsonl").exists()


class TestEndToEnd:
    def test_e2e_baseline(self, tmp_path, capsys):
        out, report = tmp_path / "pred.jsonl", tmp_path / "report.json"
        code, stdout, _ = run(["e2e", "--corpus", DUMP, "--claims", CLAIMS,
                               "--bins", "65536", "--trees", "20", "--seed", "3",
                               "--out", out, "--report", report], capsys)
        assert code == 0
        assert "fever score" in stdout
        assert len(list(parse_rows(out, "prediction", prediction_from_row))) == 30
        assert 0.0 <= json.loads(report.read_text())["fever_score"] <= 1.0

    def test_output_digests_pinned(self, tmp_path, capsys):
        # sha256 of index.npz and of the e2e predictions on the fixture data;
        # any change to hashing, weighting, ranking or tie-breaks moves them
        index, pred = tmp_path / "index.npz", tmp_path / "pred.jsonl"
        assert run(["index", "--corpus", DUMP, "--bins", "65536", "--out", index],
                   capsys)[0] == 0
        assert run(["e2e", "--corpus", DUMP, "--claims", CLAIMS, "--bins", "65536",
                    "--out", pred], capsys)[0] == 0
        assert hashlib.sha256(index.read_bytes()).hexdigest() == \
            "e79dfaf49984169379fb00d02f4d6a7a9886cf6e4e9641cece81fd68192536c8"
        assert hashlib.sha256(pred.read_bytes()).hexdigest() == \
            "2ecc0fb424e77d834b308fd9df6ecb3518e178ed536e1995475a18a6fac214db"

    def test_staged_chain_matches_e2e(self, workdir, tmp_path, capsys):
        # workdir holds the retrieve output over the saved corpus and index
        d, t = workdir, tmp_path
        for argv in (
            ["features", "--corpus", d / "corpus.json.gz", "--claims", CLAIMS,
             "--candidates", d / "candidates.jsonl", "--out", t / "scored.jsonl"],
            ["train", "--claims", CLAIMS, "--scored", t / "scored.jsonl",
             "--out", t / "model.json"],
            ["predict", "--claims", CLAIMS, "--scored", t / "scored.jsonl",
             "--model", t / "model.json", "--out", t / "staged.jsonl"],
            ["score", "--gold", CLAIMS, "--pred", t / "staged.jsonl",
             "--json-out", t / "staged.json"],
            ["e2e", "--corpus", DUMP, "--claims", CLAIMS, "--bins", "65536",
             "--out", t / "e2e.jsonl", "--report", t / "e2e.json"],
        ):
            assert run(argv, capsys)[0] == 0
        assert (t / "staged.jsonl").read_bytes() == (t / "e2e.jsonl").read_bytes()
        assert (t / "staged.json").read_bytes() == (t / "e2e.json").read_bytes()

    def test_prob_file_e2e_matches_staged_chain(self, workdir, tmp_path, capsys):
        # triples with exact ties, zeros and random values for every candidate,
        # in an order that is neither claim nor ref order
        rng = np.random.default_rng(23)
        fixed = [(1 / 3, 1 / 3, 1 / 3), (0.4, 0.4, 0.2), (0.2, 0.4, 0.4), (1.0, 0.0, 0.0),
                 (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0)]
        prob_rows = []
        for row in read_rows(workdir / "candidates.jsonl"):
            for page, line in row["candidates"]:
                if rng.random() < 0.5:
                    triple = fixed[rng.integers(len(fixed))]
                else:
                    raw = rng.random(3)
                    s, r = (raw[:2] / raw.sum()).tolist()
                    triple = (s, r, max(0.0, 1.0 - s - r))
                prob_rows.append({"claim_id": row["id"], "page_id": page, "line_number": line,
                                  **dict(zip(TRIPLE_FIELDS, triple))})
        prob = tmp_path / "prob.jsonl"
        prob.write_text("".join(json.dumps(prob_rows[i]) + "\n"
                                for i in rng.permutation(len(prob_rows))))
        d, t = workdir, tmp_path
        for argv in (
            ["features", "--corpus", d / "corpus.json.gz", "--claims", CLAIMS,
             "--candidates", d / "candidates.jsonl", "--prob-file", prob,
             "--out", t / "scored.jsonl"],
            ["train", "--claims", CLAIMS, "--scored", t / "scored.jsonl",
             "--out", t / "model.json"],
            ["predict", "--claims", CLAIMS, "--scored", t / "scored.jsonl",
             "--model", t / "model.json", "--out", t / "staged.jsonl"],
            ["e2e", "--corpus", d / "corpus.json.gz", "--index", d / "index.npz",
             "--claims", CLAIMS, "--prob-file", prob, "--out", t / "e2e.jsonl"],
        ):
            assert run(argv, capsys)[0] == 0
        assert (t / "staged.jsonl").read_bytes() == (t / "e2e.jsonl").read_bytes()
        verdicts = read_rows(t / "e2e.jsonl")
        assert len({row["predicted_label"] for row in verdicts}) > 1
        assert any(row["predicted_evidence"] for row in verdicts)

    def test_benchmark_trace_matches_cli(self, tmp_path, capsys):
        # perfbench/bench_trace.py calls the layers from outside, as perfbench/run.py
        # --trace 1 runs it; it replaces TfidfIndex.build in its process, so it runs
        # in a child of its own
        t = tmp_path
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "bench_trace.py"),
             "--dump", str(DUMP), "--claims", str(CLAIMS), "--workdir", str(t),
             "--spans", str(t / "spans.json"), "--pred", str(t / "trace.json")],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        assert run(["index", "--corpus", DUMP, "--out", t / "cli.npz"], capsys)[0] == 0
        assert run(["e2e", "--corpus", DUMP, "--claims", CLAIMS, "--out", t / "cli.jsonl"],
                   capsys)[0] == 0
        assert json.loads((t / "trace.json").read_text()) == read_rows(t / "cli.jsonl")
        assert (t / "index.npz").read_bytes() == (t / "cli.npz").read_bytes()

    @staticmethod
    def quick_start_blocks(tmp) -> list:
        """The argv lists of each sh block in README.md's Quick start, every
        path under /tmp moved under tmp."""
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
        blocks = []
        for block in section.split("```sh\n")[1:]:
            commands = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
            argvs = [[str(tmp / a.removeprefix("/tmp/")) if a.startswith("/tmp/") else a
                      for a in shlex.split(line)] for line in commands]
            assert all(argv[0] == "claimcheck" for argv in argvs), argvs
            blocks.append([argv[1:] for argv in argvs])
        return blocks

    def test_readme_quick_start_runs_as_written(self, tmp_path, capsys, monkeypatch):
        # every block runs; the staged chain, then e2e, write /tmp/pred.jsonl
        monkeypatch.chdir(ROOT)  # the blocks name data/ relative to the checkout
        staged, e2e, *rest = self.quick_start_blocks(tmp_path)
        assert [argv[0] for argv in staged] == ["ingest", "index", "retrieve", "features",
                                                "train", "predict", "score"]
        assert [argv[0] for argv in e2e] == ["e2e"]
        outputs = []
        for block in (staged, e2e, *rest):
            for argv in block:
                assert cli.main(argv) == 0, argv
            outputs.append((tmp_path / "pred.jsonl").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestStartUp:
    """Each subcommand loads only the modules it runs: start-up is most of a
    small run's time."""

    STAGES = {"entailment", "features", "forest", "metrics", "ner", "nli_data", "tfidf",
              "tokenizer", "verdict"}

    @staticmethod
    def loaded_after(argv, **env) -> tuple:
        """(modules, OS threads, OPENBLAS_NUM_THREADS) of a new interpreter
        after running cli.main(argv): claimcheck's modules by their names in
        the package, and None for the thread count where the system has no
        /proc/self/task. The child inherits no BLAS thread setting, since an
        in-process cli.main sets one here, only those in env."""
        script = ("import json, os, sys\n"
                  "from claimcheck import cli\n"
                  f"assert cli.main({['-q', *map(str, argv)]!r}) == 0\n"
                  "task = '/proc/self/task'\n"
                  "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
                  "print(json.dumps([sorted(sys.modules), threads,\n"
                  "                  os.environ.get('OPENBLAS_NUM_THREADS')]))\n")
        inherited = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=300,
                              env={**inherited, "PYTHONPATH": str(ROOT / "src"), **env})
        assert proc.returncode == 0, proc.stderr
        modules, threads, blas = json.loads(proc.stdout.splitlines()[-1])
        return {m.removeprefix("claimcheck.") for m in modules}, threads, blas

    @staticmethod
    def child(args, cwd=None) -> subprocess.CompletedProcess:
        """A new interpreter, importing this checkout's claimcheck, on args."""
        return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                              text=True, timeout=300, cwd=cwd,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})

    def test_module_entry_point(self, tmp_path, monkeypatch, capsys):
        # the child and an in-process run, each in its own directory, print
        # and write the same bytes
        e2e = ["-q", "e2e", "--corpus", DUMP, "--claims", CLAIMS, "--bins", "65536",
               "--trees", "10", "--out", "pred.jsonl", "--report", "report.json"]
        there, here = tmp_path / "there", tmp_path / "here"
        there.mkdir()
        here.mkdir()
        proc = self.child(["-m", "claimcheck.cli", *e2e], cwd=there)
        assert proc.returncode == 0, proc.stderr
        assert "label accuracy" in proc.stdout
        monkeypatch.chdir(here)
        assert cli.main(list(map(str, e2e))) == 0
        assert capsys.readouterr().out == proc.stdout
        for name in ("pred.jsonl", "report.json"):
            assert (there / name).read_bytes() == (here / name).read_bytes()

    def test_entry_leaves_the_collector_off_and_the_heap_frozen(self, tmp_path):
        script = ("import gc, sys\n"
                  "from claimcheck import cli\n"
                  "code = cli.entry()\n"
                  "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
                  "sys.exit(code)\n")
        proc = self.child(["-c", script, "-q", "ingest", "--dump", DUMP,
                           "--out", tmp_path / "corpus.json.gz"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False True"

    def test_bad_corpus_through_the_entry_is_one_error_line(self, tmp_path):
        proc = self.child(["-m", "claimcheck.cli", "-q", "index", "--corpus",
                           tmp_path / "missing.json.gz", "--out", tmp_path / "index.npz"])
        assert one_error(proc.returncode, proc.stderr)
        assert proc.stdout == "" and not (tmp_path / "index.npz").exists()

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("argv, code", [
        (["-q", "ingest", "--dump", DUMP], 0),
        (["-q", "ingest", "--dump", ROOT / "missing.jsonl"], 1),
        (["ingest", "--help"], SystemExit)])
    def test_main_puts_the_callers_collector_back(self, tmp_path, capsys, monkeypatch,
                                                  collecting, argv, code):
        seen = []

        def cmd_ingest(args):  # the collector's state while the subcommand runs
            seen.append(gc.isenabled())
            return ingest(args)

        ingest = cli.cmd_ingest
        monkeypatch.setattr(cli, "cmd_ingest", cmd_ingest)
        argv = [*map(str, argv), "--out", str(tmp_path / "corpus.json.gz")]
        was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        (gc.enable if collecting else gc.disable)()
        try:
            if code is SystemExit:
                with pytest.raises(SystemExit):
                    cli.main(argv)
            else:
                assert cli.main(argv) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == (collecting, frozen)
        finally:
            (gc.enable if was_enabled else gc.disable)()
        capsys.readouterr()
        assert seen == ([] if code is SystemExit else [False])

    def test_script_runs_the_function_the_module_entry_calls(self):
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert re.findall(r'^(\S+) = "(\S+)"$', scripts, re.MULTILINE) == [
            ("claimcheck", f"claimcheck.cli:{self.module_entry_function()}")]

    @staticmethod
    def module_entry_function() -> str:
        """The name of the cli function that the ``if __name__ == "__main__"``
        block of cli.py calls."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        block, = (node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'")
        exit_call, = block.body  # sys.exit(function())
        return exit_call.value.args[0].func.id

    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path):
        """A run leaves the same cyclic garbage on data/ as on a copy four
        times its size, so running with the collector off keeps no cycle per
        page or claim."""
        script = ("import gc, sys\n"
                  "from claimcheck import cli\n"
                  "gc.disable()\n"
                  "assert cli.main(sys.argv[1:]) == 0\n"
                  "print(gc.collect())\n")

        def garbage(d, dump, claims) -> list:
            runs = [["ingest", "--dump", dump, "--out", d / "corpus.json.gz"],
                    ["index", "--corpus", d / "corpus.json.gz", "--out", d / "index.npz"],
                    ["e2e", "--corpus", d / "corpus.json.gz", "--index", d / "index.npz",
                     "--claims", claims, "--out", d / "pred.jsonl",
                     "--report", d / "report.json"]]
            found = []
            for argv in runs:
                proc = self.child(["-c", script, "-q", *argv])
                assert proc.returncode == 0, proc.stderr
                found.append(int(proc.stdout.splitlines()[-1]))
            return found

        big = tmp_path / "big"
        big.mkdir()
        pages, claims = read_rows(DUMP), read_rows(CLAIMS)
        renamed = {page["id"]: [page["id"], *(f"{page['id']}_{k}" for k in (1, 2, 3))]
                   for page in pages}

        def copy_claim(claim, k):
            evidence = [[[a, e, renamed.get(page, [page] * 4)[k], line]
                         for a, e, page, line in group] for group in claim["evidence"]]
            return {**claim, "id": claim["id"] + 100000 * k, "evidence": evidence}

        with open(big / "wiki.jsonl", "w", encoding="utf-8") as fp:
            fp.writelines(json.dumps({**page, "id": renamed[page["id"]][k]}) + "\n"
                          for k in range(4) for page in pages)
        with open(big / "claims.jsonl", "w", encoding="utf-8") as fp:
            fp.writelines(json.dumps(copy_claim(claim, k)) + "\n"
                          for k in range(4) for claim in claims)
        small = tmp_path / "small"
        small.mkdir()
        assert garbage(small, DUMP, CLAIMS) == garbage(big, big / "wiki.jsonl",
                                                       big / "claims.jsonl")

    def test_each_subcommand_loads_the_modules_it_runs(self, tmp_path):
        corpus, index = tmp_path / "corpus.json.gz", tmp_path / "index.npz"
        loaded = self.loaded_after(["ingest", "--dump", DUMP, "--out", corpus])[0]
        assert "numpy" not in loaded
        assert loaded & self.STAGES == set()

        loaded = self.loaded_after(["index", "--corpus", corpus, "--out", index])[0]
        assert loaded & self.STAGES == {"tokenizer", "tfidf"}

        loaded = self.loaded_after(["gen-nli", "--corpus", corpus, "--claims", CLAIMS,
                                    "--out", tmp_path / "nli.jsonl",
                                    "--manifest", tmp_path / "nli.json"])[0]
        assert "numpy" not in loaded
        assert loaded & self.STAGES == {"nli_data"}

        loaded = self.loaded_after(["e2e", "--corpus", corpus, "--index", index,
                                    "--claims", CLAIMS, "--out", tmp_path / "pred.jsonl"])[0]
        assert self.STAGES <= loaded

        loaded = self.loaded_after(["score", "--gold", CLAIMS,
                                    "--pred", tmp_path / "pred.jsonl"])[0]
        assert "numpy" not in loaded
        assert loaded & self.STAGES == {"metrics", "nli_data"}

    def test_e2e_never_imports_numpy_ma(self, tmp_path):
        # plain np.unique and np.isin import numpy.ma, about 10 ms of a child's start
        corpus, index = tmp_path / "corpus.json.gz", tmp_path / "index.npz"
        assert cli.main(["-q", "ingest", "--dump", str(DUMP), "--out", str(corpus)]) == 0
        assert cli.main(["-q", "index", "--corpus", str(corpus), "--out", str(index)]) == 0
        loaded = self.loaded_after(["e2e", "--corpus", corpus, "--index", index,
                                    "--claims", CLAIMS, "--out", tmp_path / "pred.jsonl"])[0]
        assert {"ner", "tfidf", "forest"} <= loaded
        assert not {m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")}

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="needs /proc/self/task to count threads")
    def test_numpy_children_end_on_one_thread(self, tmp_path):
        corpus, index = tmp_path / "corpus.json.gz", tmp_path / "index.npz"
        assert cli.main(["-q", "ingest", "--dump", str(DUMP), "--out", str(corpus)]) == 0
        loaded, threads, blas = self.loaded_after(["index", "--corpus", corpus, "--out", index])
        assert "numpy" in loaded and (threads, blas) == (1, "1")
        loaded, threads, blas = self.loaded_after(["e2e", "--corpus", corpus, "--index", index,
                                                  "--claims", CLAIMS,
                                                  "--out", tmp_path / "pred.jsonl"])
        assert "numpy" in loaded and (threads, blas) == (1, "1")

    def test_callers_blas_thread_setting_wins(self, tmp_path):
        loaded, _, blas = self.loaded_after(["index", "--corpus", DUMP, "--bins", "4096",
                                             "--out", tmp_path / "index.npz"],
                                            OPENBLAS_NUM_THREADS="2")
        assert "numpy" in loaded and blas == "2"

    @pytest.mark.parametrize("command, flag, default", [
        ("index", "--bins", "16777216"), ("retrieve", "--bins", "16777216"),
        ("e2e", "--bins", "16777216"), ("e2e", "--sample-counts", "3000,3000,4000"),
        ("train", "--sample-counts", "3000,3000,4000")])
    def test_help_shows_the_defaults(self, capsys, command, flag, default):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        usage = " ".join(capsys.readouterr().out.split())  # argparse wraps the help text
        assert re.search(rf"{flag} \S+ .*?default {default}\)", usage), usage
