"""Wiki dump ingestion, the saved corpus file, and sentence-level addressing.

The dump format is JSON-lines, one page per line: ``id`` (page name,
underscores for spaces), ``text`` (introductory text), ``lines`` (rows of
``N\\tsentence[\\tmeta...]`` joined by newlines, N in plain ASCII digits).
Everything after the second tab is link metadata and is discarded; empty
sentences keep their line number so evidence references stay valid, but are
flagged so retrieval can skip them.  A saved corpus (format 3) is the gzip,
at GZIP_LEVEL, of a header line ``{"checksums": {...}, "format_version": 3}``,
then one dump record per page in strictly ascending page-id order, read by
the dump's own record parser; it may skip nothing.  A record has a ``text``
only when the page's text is not its non-empty sentences joined by single
spaces; without one, the text is that join (see ``Document``), so the file
holds each sentence once.  ``read_saved`` streams its pages, so a reader
that needs each page once (the index build) never holds the corpus.

``Corpus.load`` inflates the whole file, so the gzip CRC covers every
byte, and checks the header and that the page ids ascend, but parses a
record only when a stage first asks for its page (``get``,
``get_sentence``, ``documents``): at load it reads just the id that
``Corpus.save`` writes first in each record.  A record that does not
start with ``{"id": "``, or whose id is empty or does not ascend, is
parsed at load.  A record parsed at first use goes through the dump's
record rules, may skip nothing, and must carry the id read at load; what
it raises names the file and the line.  So a malformed record of a page
that no stage reads stops no run that loads the corpus, though ``index``,
which streams every record, still refuses the file.

``Corpus.sentence_table`` decides which sentences of a page are retrieval
candidates, and in what order: one row per non-empty sentence, in
SentenceRef order.  A run builds one ``SentenceTable`` over every page it
retrieved, and from retrieval to the verdict a sentence is its row number:
the table holds each row's page index, line number and text as flat
per-row data, and makes a ``SentenceRef`` only for a row that a file names
(``SentenceTable.refs``).  ``table_of_refs`` builds the table of the refs
a file lists, as the staged subcommands and the one-claim calls read them.
"""

import gzip
import hashlib
import json
import logging
import zlib
from itertools import groupby
from json.decoder import scanstring
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple

from .rows import file_error, json_object, parse_lines, reading

logger = logging.getLogger(__name__)

FORMAT_VERSION = 3
# of a saved corpus: on bulk seed 2's 2.2 MB of records, level 9 deflates
# four times as long as level 4 for 8% fewer bytes
GZIP_LEVEL = 4
# how Corpus.save starts every record: load reads the page id after it
_ID_PREFIX = b'{"id": "'


class SentenceRef(NamedTuple):
    """Pointer to one numbered sentence of one page; hashes, compares and
    sorts as the tuple (page_id, line_number)."""

    page_id: str
    line_number: int

    def as_pair(self) -> list:
        return [self.page_id, self.line_number]


class Document:
    """One page: its text and its sentences by line number, in dump order.

    A text that equals the page's non-empty sentences joined by single
    spaces (as a FEVER page's does) is not kept: ``text`` joins it again
    when read, so a loaded corpus holds each sentence once.
    """

    def __init__(self, page_id: str, text: str | None, lines: dict[int, str] | None = None):
        self.page_id = page_id
        self.lines = {} if lines is None else lines  # line number -> sentence
        self._text = None if text is None or text == self._joined() else text

    def _joined(self) -> str:
        return " ".join(s for s in self.lines.values() if s)

    @property
    def text(self) -> str:
        return self._joined() if self._text is None else self._text

    def sentence(self, line_number: int) -> str | None:
        return self.lines.get(line_number)

    def non_empty_refs(self) -> list[SentenceRef]:
        """Refs to every sentence with actual text, in dump order."""
        return [SentenceRef(self.page_id, n) for n, s in self.lines.items() if s]

    def numbered_sentences(self) -> tuple[list[int], list[str]]:
        """The line numbers and the texts of the sentences with actual text, in
        line-number order."""
        numbers = sorted(n for n, s in self.lines.items() if s)
        return numbers, [self.lines[n] for n in numbers]


class SentenceTable(NamedTuple):
    """Sentences as numbered rows in SentenceRef order: row r is line lines[r]
    of page page_ids[pages[r]], with the text texts[r], and spans maps each
    page id to its (first row, row count)."""

    page_ids: list  # of str, ascending
    pages: "np.ndarray"  # (rows,) int64 index into page_ids
    lines: "np.ndarray"  # (rows,) int64
    texts: list | None  # of str; None in a table of refs read without texts
    spans: dict

    def refs(self, rows) -> list[SentenceRef]:
        """The SentenceRef of each of rows (an int64 array), to write to a file."""
        return list(map(SentenceRef, [self.page_ids[p] for p in self.pages[rows].tolist()],
                        self.lines[rows].tolist()))


def _table(page_ids, counts, lines, texts) -> SentenceTable:
    """The table whose page page_ids[i] has the next counts[i] rows."""
    import numpy as np
    sizes = np.array(counts, dtype=np.int64)
    firsts = (np.cumsum(sizes) - sizes).tolist()
    return SentenceTable(page_ids, np.repeat(np.arange(len(page_ids)), sizes),
                         np.array(lines, dtype=np.int64), texts,
                         dict(zip(page_ids, zip(firsts, counts))))


def table_of_refs(refs, text=None) -> tuple[SentenceTable, list[int]]:
    """(table, rows): the table of the distinct refs, and the row of each ref
    in turn.  text(ref) gives a row's text; without it the table has none."""
    ordered = sorted(set(refs))
    pages = [(page_id, len(list(group))) for page_id, group in groupby(ordered, itemgetter(0))]
    table = _table([page_id for page_id, _ in pages], [n for _, n in pages],
                   [line for _, line in ordered],
                   None if text is None else list(map(text, ordered)))
    row_of = {ref: row for row, ref in enumerate(ordered)}
    return table, [row_of[ref] for ref in refs]


class IngestStats:
    def __init__(self):
        self.documents = 0
        self.lines_skipped = 0
        self.records_skipped = 0


class Corpus:
    """Immutable-after-ingest store of documents keyed by page id; a loaded
    corpus parses a page when first asked for it (see module doc)."""

    def __init__(self):
        # page id -> Document, or a loaded record not yet parsed: the tuple
        # (line number, line bytes), which its Document replaces once parsed
        self._docs: dict[str, Document | tuple[int, bytes]] = {}
        self._path = None  # the file a loaded corpus's records come from
        self.source_checksums: dict[str, str] = {}

    def add_document(self, doc: Document) -> None:
        """Add a page whose id the corpus lacks (ingest refuses a repeated one)."""
        self._docs[doc.page_id] = doc

    def get(self, page_id: str) -> Document | None:
        doc = self._docs.get(page_id)
        if type(doc) is tuple:
            doc = self._docs[page_id] = _parse_record(
                self._path, *doc, lambda parsed: _check_same_id(parsed, page_id))
        return doc

    def page_ids(self) -> list[str]:
        return sorted(self._docs)

    def documents(self):
        for page_id in self.page_ids():
            yield self.get(page_id)

    def get_sentence(self, ref: SentenceRef) -> str | None:
        """Sentence text for a ref, or None when page or line is unknown."""
        doc = self.get(ref.page_id)
        if doc is None:
            return None
        return doc.sentence(ref.line_number)

    def sentence_table(self, page_ids) -> SentenceTable:
        """The table of every non-empty sentence of the given pages."""
        page_ids = sorted(page_ids)
        counts, lines, texts = [], [], []
        for page_id in page_ids:
            numbers, sentences = self.get(page_id).numbered_sentences()
            counts.append(len(numbers))
            lines += numbers
            texts += sentences
        return _table(page_ids, counts, lines, texts)

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        """Write the header line and one dump record per page (see module doc)."""
        header = {"checksums": self.source_checksums, "format_version": FORMAT_VERSION}
        # gzip's own header, mtime 0, so identical corpora serialize to identical bytes
        gz = zlib.compressobj(GZIP_LEVEL, zlib.DEFLATED, 31)
        with open(path, "wb") as fh:
            fh.write(gz.compress(f"{json.dumps(header, sort_keys=True)}\n".encode()))
            for d in self.documents():  # no sentence holds a tab or a newline
                fields = {"id": d.page_id}
                if d._text is not None:
                    fields["text"] = d._text
                fields["lines"] = "\n".join(f"{n}\t{s}" for n, s in d.lines.items())
                record = json.dumps(fields, ensure_ascii=False)
                fh.write(gz.compress(f"{record}\n".encode("utf-8")))
            fh.write(gz.flush())

    @classmethod
    def load(cls, path) -> "Corpus":
        """The saved corpus at path, its records parsed at first use (see module doc)."""
        corpus = cls()
        corpus._path = path
        with gzip.open(path, "rb") as fh, reading(path, "corpus file"):
            corpus.source_checksums = _read_header(path, fh)
            lines = fh.read().split(b"\n")
        last = ""  # no page id: a record with an empty one is refused
        for lineno, line in enumerate(lines, start=2):
            page_id = _leading_id(line)
            if page_id > last:
                corpus._docs[page_id] = (lineno, line)
            else:  # parsed now, which raises what reading it in full raises
                doc = _parse_record(path, lineno, line, lambda p: _check_follows(p, last))
                if doc is None:  # a blank line
                    continue
                page_id = doc.page_id
                corpus._docs[page_id] = doc
            last = page_id
        return corpus


def _leading_id(line: bytes) -> str:
    """The page id a saved record starts with as ``Corpus.save`` writes it, or
    "" for a line that does not start so or whose id does not scan."""
    if not line.startswith(_ID_PREFIX):
        return ""
    try:
        return scanstring(line.decode("utf-8"), len(_ID_PREFIX))[0]
    except ValueError:  # not UTF-8, or no JSON string: the full parse says why
        return ""


def _parse_record(path, lineno, line, admit) -> Document | None:
    """The page of one saved record (None for a blank line), read by the dump's
    record rules; admit(page_id) refuses a page by raising."""
    stats = IngestStats()
    doc = next(_records(path, [line], stats, admit, first_line=lineno, no_text=None), None)
    _check_nothing_skipped(path, stats)
    return doc


def _check_same_id(page_id, read):
    if page_id != read:
        raise ValueError(f"page id {page_id!r} is not {read!r}, the id the record starts with")


def _check_follows(page_id, last):
    """Refuse a saved record whose page id does not come after the last one."""
    if page_id == last:
        raise ValueError(f"duplicate page id: {page_id!r}")
    if page_id < last:
        raise ValueError(f"page id {page_id!r} comes after {last!r}: a saved corpus "
                         "lists its pages in ascending page-id order")


def _check_nothing_skipped(path, stats: IngestStats):
    if stats.records_skipped or stats.lines_skipped:
        raise file_error(path, f"corpus file {path} is malformed: a saved corpus skips "
                               f"nothing, but reading it skipped {stats.records_skipped} "
                               f"records and {stats.lines_skipped} sentence rows")


def _read_header(path, fh) -> dict[str, str]:
    """The source checksums of the header line that starts the saved corpus fh."""
    header = json.loads(fh.readline())
    if not isinstance(header, dict):
        raise file_error(path, f"corpus file {path} does not start with a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise file_error(path, "unsupported corpus format version: "
                               f"{header.get('format_version')} in corpus file {path}; "
                               "ingest its dump again")
    checksums = header.get("checksums")
    if not (isinstance(checksums, dict)
            and all(isinstance(v, str) for v in checksums.values())):
        raise file_error(path, f"corpus file {path} has no checksums object of strings")
    return checksums


def read_saved(path) -> tuple[dict[str, str], Iterator[Document]]:
    """The source checksums of a saved corpus file and a one-pass iterator over
    its pages, which reads the file as it goes.

    The iterator refuses a record whose page id does not come after the one
    before it in ascending order, and raises once the file is read if any
    record or sentence row was skipped.
    """
    pages = _saved_pages(path)
    return next(pages), pages


def _saved_pages(path):
    """Generator for ``read_saved``: the header's checksums, then the pages."""
    with gzip.open(path, "rb") as fh, reading(path, "corpus file"):
        yield _read_header(path, fh)

        last = ""  # no page id: ingest skips an empty one

        def follows(page_id):
            nonlocal last
            _check_follows(page_id, last)
            last = page_id

        stats = IngestStats()
        yield from _records(path, fh, stats, follows, first_line=2, no_text=None)
        _check_nothing_skipped(path, stats)


def parse_lines_field(raw: str) -> tuple[dict[int, str], int]:
    """Split a dump ``lines`` field into {line_number: sentence}, in dump order.

    Returns the parsed lines plus the count of skipped entries: rows without
    a tab, with an index that is not plain ASCII digits, or repeating an
    already-seen index.
    """
    lines: dict[int, str] = {}
    skipped = 0
    if not raw:
        return lines, skipped
    for entry in raw.split("\n"):
        key, tab, rest = entry.partition("\t")
        # int() alone would also read "1_0", " 4", "+5" and "\u0663"; it
        # raises ValueError on more digits than it converts
        number = int(key) if tab and key.isascii() and key.isdigit() else -1
        if number < 0 or number in lines:
            skipped += 1
            continue
        lines[number] = rest.partition("\t")[0]
    return lines, skipped


def _dump_files(path) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.jsonl"))
        if not files:
            raise FileNotFoundError(f"no .jsonl files under {p}")
        return files
    if not p.exists():
        raise FileNotFoundError(f"no dump file or directory at {p}")
    return [p]


def _records(path, byte_lines, stats: IngestStats, admit, first_line=1, no_text=""):
    """Yield the page of each dump record of one file's lines (bytes cut at each
    "\\n"), skipping and counting a record with an empty id; admit(page_id)
    refuses a page by raising.  A record without a text gets no_text: the
    empty text in a dump, the joined sentences (None) in a saved corpus."""

    def parse(line):
        rec = json_object(line)
        if not rec.get("id"):
            stats.records_skipped += 1
            return None
        for key in ("id", "text", "lines"):
            value = rec.get(key, "")
            if not isinstance(value, str):
                raise ValueError(f"field {key!r} is {type(value).__name__}, not a string")
            value.encode("utf-8")  # a lone surrogate escape would fail only when saving
        lines, skipped = parse_lines_field(rec.get("lines", ""))
        admit(rec["id"])
        stats.lines_skipped += skipped
        stats.documents += 1
        return Document(rec["id"], rec.get("text", no_text), lines)

    return filter(None, parse_lines(path, byte_lines, "record", parse, first_line))


def _hashed(lines, digest):
    """Yield each of lines, adding it to digest first."""
    for line in lines:
        digest.update(line)
        yield line


def ingest_dump(path) -> tuple[Corpus, IngestStats]:
    """Read a dump file or directory of ``*.jsonl`` files into a Corpus.

    Records with an empty id are skipped and counted (FEVER dumps carry an
    empty leading record per file); a repeated non-empty id raises.
    """
    corpus = Corpus()
    stats = IngestStats()

    def admit(page_id):
        if corpus.get(page_id) is not None:
            raise ValueError(f"duplicate page id: {page_id!r}")

    for fp in _dump_files(path):
        digest = hashlib.sha256()
        # a binary file's lines end only at "\n": str.splitlines would also cut
        # at U+2028 and other breaks that a JSON string may hold raw
        with open(fp, "rb") as fh:
            for doc in _records(fp, _hashed(fh, digest), stats, admit):
                corpus.add_document(doc)
        corpus.source_checksums[fp.name] = digest.hexdigest()
    logger.info("ingested %d documents (%d lines skipped, %d records skipped)",
                stats.documents, stats.lines_skipped, stats.records_skipped)
    return corpus, stats
