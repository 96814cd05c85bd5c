"""Wiki dump ingestion, the saved corpus file, and sentence-level addressing.

The dump format is JSON-lines, one page per line: ``id`` (page name,
underscores for spaces), ``text`` (introductory text), ``lines`` (rows of
``N\\tsentence[\\tmeta...]`` joined by newlines, N in plain ASCII digits).
Everything after the second tab is link metadata and is discarded; empty
sentences keep their line number so evidence references stay valid, but are
flagged so retrieval can skip them.  A saved corpus is the gzip of a header
line, ``{"checksums": {...}, "format_version": 2}``, then one dump record per
page in page-id order, read by the dump's own record parser; it may skip nothing.
"""

import gzip
import hashlib
import json
import logging
from pathlib import Path
from typing import NamedTuple

from .rows import json_object, parse_lines, reading

logger = logging.getLogger(__name__)

FORMAT_VERSION = 2


class SentenceRef(NamedTuple):
    """Pointer to one numbered sentence of one page; hashes, compares and
    sorts as the tuple (page_id, line_number)."""

    page_id: str
    line_number: int

    def as_pair(self) -> list:
        return [self.page_id, self.line_number]


class Document:
    """One page: its text and its sentences by line number, in dump order."""

    def __init__(self, page_id: str, text: str, lines: dict[int, str] | None = None):
        self.page_id = page_id
        self.text = text
        self.lines = {} if lines is None else lines  # line number -> sentence

    def sentence(self, line_number: int) -> str | None:
        return self.lines.get(line_number)

    def non_empty_refs(self) -> list[SentenceRef]:
        """Refs to every sentence with actual text, in dump order."""
        return [SentenceRef(self.page_id, n) for n, s in self.lines.items() if s]


class IngestStats:
    def __init__(self):
        self.documents = 0
        self.lines_skipped = 0
        self.records_skipped = 0


class Corpus:
    """Immutable-after-ingest store of documents keyed by page id."""

    def __init__(self):
        self._docs: dict[str, Document] = {}
        self.source_checksums: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._docs)

    def add_document(self, doc: Document) -> None:
        if doc.page_id in self._docs:
            raise ValueError(f"duplicate page id: {doc.page_id!r}")
        self._docs[doc.page_id] = doc

    def get(self, page_id: str) -> Document | None:
        return self._docs.get(page_id)

    def page_ids(self) -> list[str]:
        return sorted(self._docs)

    def documents(self):
        for page_id in self.page_ids():
            yield self._docs[page_id]

    def get_sentence(self, ref: SentenceRef) -> str | None:
        """Sentence text for a ref, or None when page or line is unknown."""
        doc = self._docs.get(ref.page_id)
        if doc is None:
            return None
        return doc.sentence(ref.line_number)

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        """Write the header line and one dump record per page (see module doc)."""
        header = {"checksums": self.source_checksums, "format_version": FORMAT_VERSION}
        records = [json.dumps(header, sort_keys=True)]
        for d in self.documents():
            if any("\t" in s or "\n" in s for s in d.lines.values()):
                raise ValueError(f"page {d.page_id!r} has a sentence holding a tab or a newline")
            lines = "\n".join(f"{n}\t{s}" for n, s in d.lines.items())
            records.append(json.dumps({"id": d.page_id, "text": d.text, "lines": lines},
                                      ensure_ascii=False))
        # mtime pinned so identical corpora serialize to identical bytes
        data = "".join(f"{record}\n" for record in records).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(gzip.compress(data, mtime=0))

    @classmethod
    def load(cls, path) -> "Corpus":
        with reading(path, "corpus file"):
            with gzip.open(path, "rb") as fh:
                header, *records = fh.read().split(b"\n")
            header = json.loads(header)
        if not isinstance(header, dict):
            raise ValueError(f"corpus file {path} does not start with a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported corpus format version: {header.get('format_version')}"
                             f" in corpus file {path}; ingest its dump again")
        checksums = header.get("checksums")
        if not (isinstance(checksums, dict)
                and all(isinstance(v, str) for v in checksums.values())):
            raise ValueError(f"corpus file {path} has no checksums object of strings")
        corpus, stats = cls(), IngestStats()
        corpus.source_checksums = checksums
        _add_records(corpus, stats, path, records, first_line=2)
        if stats.records_skipped or stats.lines_skipped:
            raise ValueError(f"corpus file {path} is malformed: a saved corpus skips nothing, "
                             f"but reading it skipped {stats.records_skipped} records and "
                             f"{stats.lines_skipped} sentence rows")
        return corpus


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
        raise FileNotFoundError(str(p))
    return [p]


def _add_records(corpus: Corpus, stats: IngestStats, path, chunks, first_line=1) -> None:
    """Add the dump records of one file's lines (bytes, "\\n" cut off) to corpus,
    skipping and counting a record with an empty id."""

    def add(line):
        rec = json_object(line)
        if not rec.get("id"):
            stats.records_skipped += 1
            return
        for key in ("id", "text", "lines"):
            value = rec.get(key, "")
            if not isinstance(value, str):
                raise ValueError(f"field {key!r} is {type(value).__name__}, not a string")
            value.encode("utf-8")  # a lone surrogate escape would fail only when saving
        lines, skipped = parse_lines_field(rec.get("lines", ""))
        corpus.add_document(Document(rec["id"], rec.get("text", ""), lines))
        stats.lines_skipped += skipped
        stats.documents += 1

    parse_lines(path, chunks, "record", add, first_line)


def ingest_dump(path) -> tuple[Corpus, IngestStats]:
    """Read a dump file or directory of ``*.jsonl`` files into a Corpus.

    Records with an empty id are skipped and counted (FEVER dumps carry an
    empty leading record per file); a repeated non-empty id raises.
    """
    corpus = Corpus()
    stats = IngestStats()
    for fp in _dump_files(path):
        raw = fp.read_bytes()
        corpus.source_checksums[fp.name] = hashlib.sha256(raw).hexdigest()
        # only "\n" ends a record: str.splitlines would also cut at U+2028
        # and other breaks that a JSON string may hold raw
        _add_records(corpus, stats, fp, raw.split(b"\n"))
    logger.info("ingested %d documents (%d lines skipped, %d records skipped)",
                stats.documents, stats.lines_skipped, stats.records_skipped)
    return corpus, stats
