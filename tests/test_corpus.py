import json

import pytest

from claimcheck.corpus import (
    Corpus,
    Document,
    DuplicatePageError,
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
        with pytest.raises(DuplicatePageError):
            ingest_dump(p)

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

    def test_duplicate_add_rejected(self):
        corpus = Corpus()
        corpus.add_document(Document("A", "x.", {0: "x."}))
        with pytest.raises(DuplicatePageError):
            corpus.add_document(Document("A", "y.", {0: "y."}))
