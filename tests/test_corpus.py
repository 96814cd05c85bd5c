import gzip
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck import cli, tfidf
from claimcheck.corpus import (
    Corpus,
    Document,
    SentenceRef,
    ingest_dump,
    parse_lines_field,
    read_saved,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def write_dump(path, records):
    with open(path, "w", encoding="utf-8") as fp:
        for rec in records:
            fp.write(json.dumps(rec) + "\n")


class TestIngest:
    def test_basic_record(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_dump(p, [{"id": "A", "text": "x. y.", "lines": "0\tx.\n1\ty."}])
        corpus, stats = ingest_dump(p)
        assert stats.documents == 1
        doc = corpus.get("A")
        assert doc.lines == {0: "x.", 1: "y."}
        assert corpus.get_sentence(SentenceRef("A", 1)) == "y."

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        corpus, stats = ingest_dump(p)
        assert corpus.page_ids() == [] and stats.documents == 0

    def test_garbled_line_skipped_and_counted(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_dump(p, [{"id": "A", "text": "x.", "lines": "0\tx.\ngarbled-no-tab"}])
        corpus, stats = ingest_dump(p)
        assert stats.lines_skipped == 1
        assert corpus.get("A").lines == {0: "x."}

    def test_trailing_metadata_discarded(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_dump(p, [{"id": "A", "text": "x.",
                        "lines": "0\tx.\tAnchor_One\tAnchor_Two"}])
        corpus, _ = ingest_dump(p)
        assert corpus.get_sentence(SentenceRef("A", 0)) == "x."

    def test_duplicate_page_id_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_dump(p, [{"id": "A", "text": "x.", "lines": "0\tx."},
                       {"id": "A", "text": "y.", "lines": "0\ty."}])
        with pytest.raises(ValueError, match=f"bad record in {p} on line 2: duplicate page "
                                             "id: 'A'") as raised:
            ingest_dump(p)
        assert str(raised.value.__cause__) == "duplicate page id: 'A'"

    def test_directory_of_files(self, tmp_path):
        write_dump(tmp_path / "b.jsonl", [{"id": "B", "text": "b.", "lines": "0\tb."}])
        write_dump(tmp_path / "a.jsonl", [{"id": "A", "text": "a.", "lines": "0\ta."}])
        corpus, stats = ingest_dump(tmp_path)
        assert corpus.page_ids() == ["A", "B"]
        assert set(corpus.source_checksums) == {"a.jsonl", "b.jsonl"}

    def test_checksum_is_the_sha256_of_the_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_bytes(b'\n{"id": "A", "text": "x.", "lines": "0\\tx."}\r\n\n'
                      b'{"id": "B", "text": "\xe2\x80\xa8", "lines": ""}')
        corpus, _ = ingest_dump(p)
        assert corpus.page_ids() == ["A", "B"]
        assert corpus.source_checksums == {"d.jsonl": hashlib.sha256(p.read_bytes()).hexdigest()}

    def test_idempotent(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_dump(p, [{"id": "A", "text": "x. y.", "lines": "0\tx.\n1\ty."},
                       {"id": "B", "text": "z.", "lines": "0\tz."}])
        c1, _ = ingest_dump(p)
        c2, _ = ingest_dump(p)
        assert c1.page_ids() == c2.page_ids()
        for pid in c1.page_ids():
            assert c1.get(pid).lines == c2.get(pid).lines


class TestParseLinesField:
    def test_empty_sentence_kept(self):
        pairs, skipped = parse_lines_field("0\tx.\n1\t\n2\ty.")
        assert pairs == {0: "x.", 1: "", 2: "y."}
        assert skipped == 0

    def test_bad_index_skipped(self):
        pairs, skipped = parse_lines_field("zero\tx.\n1\ty.")
        assert pairs == {1: "y."}
        assert skipped == 1

    @pytest.mark.parametrize("index", ["1_0", "\u0663", " 4", "4 ", "+5", "-1", "0x1", ""])
    def test_index_not_plain_ascii_digits_skipped(self, index):
        # int() reads all but the last two of these
        pairs, skipped = parse_lines_field(f"{index}\tx.\n1\ty.")
        assert pairs == {1: "y."}
        assert skipped == 1

    def test_index_too_long_for_int_is_a_bad_record(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_dump(p, [{"id": "A", "text": "x.", "lines": "1" * 5000 + "\tx."}])
        with pytest.raises(ValueError, match=f"bad record in {p} on line 1: Exceeds the limit"):
            ingest_dump(p)


class TestLookup:
    def test_not_found_is_none(self, mini_corpus):
        assert mini_corpus.get_sentence(SentenceRef("A", 99)) is None
        assert mini_corpus.get_sentence(SentenceRef("No_Such_Page", 0)) is None

    def test_non_empty_refs_skip_blanks(self, mini_corpus):
        doc = mini_corpus.get("Korvand_Archipelago")
        # the dump gives this page a trailing empty line
        assert doc.lines[3] == ""
        assert SentenceRef("Korvand_Archipelago", 3) not in doc.non_empty_refs()


class TestPersistence:
    def test_round_trip(self, tmp_path, mini_corpus):
        out = tmp_path / "corpus.json.gz"
        mini_corpus.save(out)
        loaded = Corpus.load(out)
        assert loaded.page_ids() == mini_corpus.page_ids()
        for pid in loaded.page_ids():
            assert list(loaded.get(pid).lines.items()) == list(mini_corpus.get(pid).lines.items())
            assert loaded.get(pid).text == mini_corpus.get(pid).text
        assert loaded.source_checksums == mini_corpus.source_checksums

    def test_read_saved_reads_pages_as_they_are_taken(self, tmp_path):
        saved = tmp_path / "c.json.gz"
        saved.write_bytes(gzip.compress(b'{"checksums": {"d.jsonl": "x"}, "format_version": 3}\n'
                                        b'{"id": "A", "text": "a.", "lines": "0\\ta."}\n'
                                        b"not a record\n"))
        checksums, pages = read_saved(saved)
        assert checksums == {"d.jsonl": "x"}
        assert next(pages).lines == {0: "a."}
        with pytest.raises(ValueError, match=f"bad record in {saved} on line 3: Expecting value"):
            next(pages)

    def test_text_other_than_the_joined_sentences_kept(self, tmp_path):
        corpus = Corpus()
        for page_id, text in (("A", "An intro."), ("B", ""), ("C", "x.  y."), ("D", "y. x.")):
            corpus.add_document(Document(page_id, text, {0: "x.", 1: "", 2: "y."}))
        corpus.save(tmp_path / "c.json.gz")
        loaded = Corpus.load(tmp_path / "c.json.gz")
        assert [loaded.get(p).text for p in "ABCD"] == ["An intro.", "", "x.  y.", "y. x."]

    def test_text_that_joins_the_sentences_not_saved(self, tmp_path):
        corpus = Corpus()
        corpus.add_document(Document("A", "x. y.", {0: "x.", 1: "", 2: "y."}))
        corpus.add_document(Document("B", "", {0: ""}))  # no sentence: the join is ""
        corpus.save(tmp_path / "c.json.gz")
        header, *records = gzip.decompress((tmp_path / "c.json.gz").read_bytes()).splitlines()
        assert json.loads(header) == {"checksums": {}, "format_version": 3}
        assert [json.loads(r) for r in records] == [{"id": "A", "lines": "0\tx.\n1\t\n2\ty."},
                                                    {"id": "B", "lines": "0\t"}]
        loaded = Corpus.load(tmp_path / "c.json.gz")
        assert (loaded.get("A").text, loaded.get("B").text) == ("x. y.", "")

    def test_index_from_the_dump_equals_index_from_the_saved_corpus(self, tmp_path):
        dump = tmp_path / "d.jsonl"
        write_dump(dump, [{"id": "A", "text": "Alpha beta. Gamma.",
                           "lines": "0\tAlpha beta.\n1\t\n2\tGamma."},
                          {"id": "B", "text": "An intro unlike its lines.", "lines": "0\tBeta."},
                          {"id": "C", "lines": "0\tGamma delta."},
                          {"id": "D", "text": "Delta.", "lines": ""}])
        corpus, _ = ingest_dump(dump)
        corpus.save(tmp_path / "c.json.gz")
        from_dump = tfidf.build_document_index(corpus, bin_count=2**16)
        from_saved = tfidf.index_pages(*read_saved(tmp_path / "c.json.gz"), bin_count=2**16)
        assert from_saved.item_ids == from_dump.item_ids == ["A", "B", "C", "D"]
        assert from_saved.source_checksum == from_dump.source_checksum
        for name in tfidf._ARRAYS:
            assert np.array_equal(getattr(from_saved, name), getattr(from_dump, name))

    def test_format_2_file_refused(self, tmp_path):
        saved = tmp_path / "c.json.gz"
        saved.write_bytes(gzip.compress(b'{"checksums": {}, "format_version": 2}\n'
                                        b'{"id": "A", "text": "a.", "lines": "0\\ta."}\n'))
        with pytest.raises(ValueError, match="unsupported corpus format version: 2 in corpus "
                                             f"file {saved}; ingest its dump again"):
            Corpus.load(saved)


# rows that parse, rows that the dump rules skip, and raw text
LINES_FIELDS = st.text() | st.lists(
    st.tuples(st.integers(0, 20).map(str) | st.text(max_size=3), st.text()), max_size=5,
).map(lambda rows: "\n".join(f"{n}\t{s}" for n, s in rows))
PAGES = st.lists(st.fixed_dictionaries({"id": st.text(max_size=4), "text": st.text(),
                                        "lines": LINES_FIELDS}), max_size=6)


@settings(max_examples=150, deadline=None)
@given(pages=PAGES, ascii_only=st.booleans())
def test_save_load_round_trip(pages, ascii_only):
    """Any one-file dump that ingests survives save then load, and a loaded
    corpus saves to the bytes it was read from."""
    with tempfile.TemporaryDirectory() as tmp:
        dump, saved, again = (Path(tmp) / name for name in ("d.jsonl", "c.json.gz", "a.json.gz"))
        dump.write_text("".join(json.dumps(page, ensure_ascii=ascii_only) + "\n"
                                for page in pages), encoding="utf-8", errors="surrogatepass")
        try:
            corpus, _ = ingest_dump(dump)
        except ValueError:
            return
        corpus.save(saved)
        loaded = Corpus.load(saved)
        assert not parsed_ids(loaded)
        _, streamed = read_saved(saved)
        for doc in streamed:  # each parsed by a lazy get, in the order of the file
            lazy = loaded.get(doc.page_id)
            assert (lazy.text, list(lazy.lines.items())) == (doc.text, list(doc.lines.items()))
        assert parsed_ids(loaded) == set(corpus.page_ids())
        assert loaded.page_ids() == corpus.page_ids()
        for pid in corpus.page_ids():
            assert loaded.get(pid).text == corpus.get(pid).text
            assert list(loaded.get(pid).lines.items()) == list(corpus.get(pid).lines.items())
        assert loaded.source_checksums == corpus.source_checksums
        loaded.save(again)
        assert again.read_bytes() == saved.read_bytes()


def parsed_ids(corpus) -> set:
    """Page ids whose records a loaded corpus has parsed."""
    return {page_id for page_id, doc in corpus._docs.items() if isinstance(doc, Document)}


class TestLazyLoad:
    def test_load_parses_no_record(self, tmp_path, mini_corpus):
        mini_corpus.save(tmp_path / "c.json.gz")
        loaded = Corpus.load(tmp_path / "c.json.gz")
        assert loaded.page_ids() == mini_corpus.page_ids() and not parsed_ids(loaded)
        assert loaded.page_ids() == mini_corpus.page_ids()
        page_id = mini_corpus.page_ids()[1]
        assert loaded.get_sentence(SentenceRef(page_id, 0)) == \
            mini_corpus.get_sentence(SentenceRef(page_id, 0))
        assert parsed_ids(loaded) == {page_id}
        assert loaded.get("No_Such_Page") is None and parsed_ids(loaded) == {page_id}

    def test_record_not_led_by_its_id_parsed_at_load(self, tmp_path):
        saved = tmp_path / "c.json.gz"
        saved.write_bytes(gzip.compress(b'{"checksums": {}, "format_version": 3}\n'
                                        b'{"id": "A", "lines": "0\\ta."}\n\n'
                                        b'{"lines": "0\\tb.", "id": "B"}\n'
                                        b'{"id": "C", "lines": "0\\tc."}\n'))
        loaded = Corpus.load(saved)
        assert loaded.page_ids() == ["A", "B", "C"] and parsed_ids(loaded) == {"B"}
        assert [loaded.get(p).text for p in "ABC"] == ["a.", "b.", "c."]

    def test_record_repeating_its_id_refused_at_first_use(self, tmp_path):
        saved = tmp_path / "c.json.gz"
        saved.write_bytes(gzip.compress(b'{"checksums": {}, "format_version": 3}\n'
                                        b'{"id": "A", "lines": "0\\ta."}\n'
                                        b'{"id": "B", "lines": "0\\tb.", "id": "Z"}\n'))
        loaded = Corpus.load(saved)
        assert loaded.get("A").text == "a."
        with pytest.raises(ValueError, match=f"bad record in {saved} on line 3: page id 'Z' "
                                             "is not 'B', the id the record starts with"):
            loaded.get("B")


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """The data/ fixture's saved corpus and index, and what e2e asks of them:
    (directory, page ids e2e gets, predictions)."""
    d = tmp_path_factory.mktemp("lazy")
    for argv in (["ingest", "--dump", DATA / "mini_wiki.jsonl", "--out", d / "corpus.json.gz"],
                 ["index", "--corpus", d / "corpus.json.gz", "--bins", "65536",
                  "--out", d / "index.npz"]):
        assert cli.main(["-q", *map(str, argv)]) == 0
    code, corpus, asked = run_e2e(d / "corpus.json.gz", d / "index.npz", d / "pred.jsonl")
    assert code == 0
    assert parsed_ids(corpus) == asked  # only the pages its stages touched
    return d, asked, (d / "pred.jsonl").read_bytes()


def run_e2e(corpus_path, index, out):
    """e2e's exit code, the corpus it loaded, and the page ids it asked that corpus for."""
    loaded, asked = [], set()
    load, get = cli.load_corpus_any, Corpus.get

    def spy_get(corpus, page_id):
        asked.add(page_id)
        return get(corpus, page_id)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_corpus_any", lambda path: loaded.append(load(path)) or loaded[0])
        patch.setattr(Corpus, "get", spy_get)
        code = cli.main(["-q", "e2e", "--corpus", str(corpus_path), "--index", str(index),
                         "--claims", str(DATA / "mini_claims.jsonl"), "--trees", "5",
                         "--out", str(out)])
    return code, loaded[0], asked


def test_e2e_parses_only_the_pages_it_touches(fixture_run):
    d, asked, predictions = fixture_run
    pages = Corpus.load(d / "corpus.json.gz").page_ids()
    assert asked < set(pages)
    evidence = {page for line in predictions.splitlines()
                for page, _ in json.loads(line)["predicted_evidence"]}
    assert evidence <= asked


def test_malformed_untouched_record_stops_e2e_not_index(fixture_run, tmp_path, capsys):
    d, asked, predictions = fixture_run
    header, *records = gzip.decompress((d / "corpus.json.gz").read_bytes()).split(b"\n")
    at = next(i for i, r in enumerate(records) if json.loads(r)["id"] not in asked)
    untouched = json.loads(records[at])["id"]
    records[at] = json.dumps({"id": untouched, "lines": 5}).encode()
    corrupted = tmp_path / "corpus.json.gz"
    corrupted.write_bytes(gzip.compress(b"\n".join([header, *records])))

    code, corpus, _ = run_e2e(corrupted, d / "index.npz", tmp_path / "pred.jsonl")
    assert code == 0 and (tmp_path / "pred.jsonl").read_bytes() == predictions
    assert untouched not in parsed_ids(corpus)
    message = f"bad record in {corrupted} on line {at + 2}: field 'lines' is int, not a string"
    with pytest.raises(ValueError, match=message):
        corpus.get(untouched)
    capsys.readouterr()
    assert cli.main(["-q", "index", "--corpus", str(corrupted), "--out",
                     str(tmp_path / "index.npz")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
