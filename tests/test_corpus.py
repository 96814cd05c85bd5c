import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck.corpus import (
    Corpus,
    Document,
    SentenceRef,
    ingest_dump,
    parse_lines_field,
)


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
        assert len(corpus) == 0 and stats.documents == 0

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

    def test_sentence_with_tab_or_newline_not_saved(self, tmp_path):
        for sentence in ("a\tb.", "a\nb."):
            corpus = Corpus()
            corpus.add_document(Document("A", "x.", {0: sentence}))
            with pytest.raises(ValueError, match="page 'A' has a sentence holding a tab"):
                corpus.save(tmp_path / "corpus.json.gz")
            assert not (tmp_path / "corpus.json.gz").exists()

    def test_duplicate_add_rejected(self):
        corpus = Corpus()
        corpus.add_document(Document("A", "x.", {0: "x."}))
        with pytest.raises(ValueError, match="duplicate page id: 'A'"):
            corpus.add_document(Document("A", "y.", {0: "y."}))


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
        assert loaded.page_ids() == corpus.page_ids()
        for pid in corpus.page_ids():
            assert loaded.get(pid).text == corpus.get(pid).text
            assert list(loaded.get(pid).lines.items()) == list(corpus.get(pid).lines.items())
        assert loaded.source_checksums == corpus.source_checksums
        loaded.save(again)
        assert again.read_bytes() == saved.read_bytes()
