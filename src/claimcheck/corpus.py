"""Wiki dump ingestion and sentence-level addressing.

The dump format is JSON-lines, one page per line: ``id`` (page name,
underscores for spaces), ``text`` (introductory text), ``lines`` (rows of
``N\\tsentence[\\tmeta...]`` joined by newlines).  Everything after the
second tab is link metadata and is discarded; empty sentences keep their
line number so evidence references stay valid, but are flagged so retrieval
can skip them.
"""

import gzip
import hashlib
import json
import logging
import zlib
from pathlib import Path
from typing import NamedTuple

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1


class IngestError(ValueError):
    pass


class DuplicatePageError(IngestError):
    def __init__(self, page_id: str):
        super().__init__(f"duplicate page id: {page_id!r}")
        self.page_id = page_id


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
            raise DuplicatePageError(doc.page_id)
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
        payload = {
            "format_version": FORMAT_VERSION,
            "checksums": self.source_checksums,
            "documents": [
                {"id": d.page_id, "text": d.text, "lines": [[n, s] for n, s in d.lines.items()]}
                for d in self.documents()
            ],
        }
        # mtime pinned so identical corpora serialize to identical bytes
        data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(gzip.compress(data, mtime=0))

    @classmethod
    def load(cls, path) -> "Corpus":
        try:
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (EOFError, zlib.error, ValueError, RecursionError) as exc:
            raise IngestError(f"cannot read corpus file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise IngestError(f"corpus file {path} does not hold a JSON object")
        if payload.get("format_version") != FORMAT_VERSION:
            raise IngestError(f"unsupported corpus format version: {payload.get('format_version')}")
        corpus = cls()
        try:
            corpus.source_checksums = dict(payload["checksums"])
            for rec in payload["documents"]:
                page_id, text = rec["id"], rec["text"]
                if not isinstance(page_id, str) or not isinstance(text, str):
                    raise ValueError(f"page {page_id!r} needs a string id and text")
                corpus.add_document(Document(page_id, text, _saved_lines(page_id, rec["lines"])))
        except KeyError as exc:
            raise IngestError(f"corpus file {path} is missing field {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise IngestError(f"corpus file {path} is malformed: {exc}") from exc
        return corpus


def _saved_lines(page_id: str, pairs) -> dict[int, str]:
    """A saved page's [n, sentence] pairs as {n: sentence}, n a JSON int >= 0."""
    if not isinstance(pairs, list):
        raise ValueError(f"page {page_id!r} has lines that are not a list")
    try:
        lines = {n: sentence for n, sentence in pairs}
        # type sets, not isinstance, so a bool is no line number
        good = (set(map(type, lines)) <= {int} and min(lines, default=0) >= 0
                and set(map(type, lines.values())) <= {str})
    except (TypeError, ValueError):  # an entry that is not a pair
        good = False
    if not good:
        bad = next(pair for pair in pairs
                   if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is int
                           and pair[0] >= 0 and type(pair[1]) is str))
        raise ValueError(f"page {page_id!r} has a line that is not [n >= 0, sentence]: {bad!r}")
    if len(lines) < len(pairs):
        raise ValueError(f"page {page_id!r} repeats a line number")
    return lines


def parse_lines_field(raw: str) -> tuple[dict[int, str], int]:
    """Split a dump ``lines`` field into {line_number: sentence}, in dump order.

    Returns the parsed lines plus the count of skipped entries: rows without
    a tab, with a non-integer index, or repeating an already-seen index.
    """
    lines: dict[int, str] = {}
    skipped = 0
    if not raw:
        return lines, skipped
    for entry in raw.split("\n"):
        parts = entry.split("\t")
        if len(parts) < 2:
            skipped += 1
            continue
        try:
            number = int(parts[0])
        except ValueError:
            skipped += 1
            continue
        if number < 0 or number in lines:
            skipped += 1
            continue
        lines[number] = parts[1]
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


def _parse_record(line: str) -> dict | None:
    """One dump record; None for a record with an empty id."""
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    if not rec.get("id"):
        return None
    for key in ("id", "text", "lines"):
        value = rec.get(key, "")
        if not isinstance(value, str):
            raise ValueError(f"field {key!r} is {type(value).__name__}, not a string")
        value.encode("utf-8")  # a lone surrogate escape would fail only when saving
    return rec


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
        for lineno, chunk in enumerate(raw.split(b"\n"), start=1):
            try:
                line = chunk.decode("utf-8")
                if not line.strip():
                    continue
                rec = _parse_record(line)
            except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
                raise IngestError(f"bad record in {fp} on line {lineno}: {exc}") from exc
            if rec is None:
                stats.records_skipped += 1
                continue
            lines, skipped = parse_lines_field(rec.get("lines", ""))
            stats.lines_skipped += skipped
            corpus.add_document(Document(rec["id"], rec.get("text", ""), lines))
            stats.documents += 1
    logger.info(
        "ingested %d documents (%d lines skipped, %d records skipped)",
        stats.documents,
        stats.lines_skipped,
        stats.records_skipped,
    )
    return corpus, stats
