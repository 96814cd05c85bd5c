"""Hashed TF-IDF indexing and cosine top-k retrieval.

Document retrieval uses unigram+bigram vectors over page text; sentence
retrieval builds a transient bigram-only index over the sentences of the
candidate documents.  Texts are hashed by ``tokenizer.ngram_bins``;
``top_k_sentences_batch`` hashes a run's claims and the sentences of every
retrieved page once and slices them per claim.  Weighting is tf = log(1 + count) with the Okapi-style
idf = max(0, log((N - df + 0.5) / (df + 0.5))); vectors are L2-normalized
at query time.  Postings are flat numpy arrays sorted by (bin, item).  Items
are indexed in strictly ascending id order, so ties among results at the
same positive score break on item position, which is ascending id.
"""

import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import kernels
from .corpus import Corpus, Document
from .tokenizer import HASH_NAME, ngram_bins, tokenize

FORMAT_VERSION = 1
DEFAULT_BIN_COUNT = 2**24
WEIGHTING = "log1p-tf.okapi-idf"
# index arrays after item_ids, in npz order
_ARRAYS = ("uniq_bins", "uniq_offsets", "post_items", "post_weights", "df", "item_norms")


class IndexFormatError(ValueError):
    pass


def _write_npz(path, arrays: dict) -> None:
    """npz with pinned zip timestamps so equal indexes give equal bytes."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asanyarray(arr))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, buf.getvalue())


@dataclass(frozen=True)
class ScoredItem:
    item: object  # page_id str or SentenceRef
    score: float


def _idf(df: np.ndarray, n_items: int) -> np.ndarray:
    return np.maximum(0.0, np.log((n_items - df + 0.5) / (df + 0.5)))


def _strictly_ascending(ids) -> bool:
    return all(a < b for a, b in zip(ids, ids[1:]))


class TfidfIndex:
    """Postings-style sparse index over hashed n-gram vectors."""

    def __init__(self, bin_count, ngram_orders, item_ids, uniq_bins, uniq_offsets,
                 post_items, post_weights, df, item_norms, source_checksum=""):
        self.bin_count = int(bin_count)
        self.ngram_orders = tuple(int(o) for o in ngram_orders)
        self.item_ids = item_ids
        self.uniq_bins = uniq_bins
        self.uniq_offsets = uniq_offsets
        self.post_items = post_items
        self.post_weights = post_weights
        self.df = df
        self.item_norms = item_norms
        self.source_checksum = source_checksum

    @property
    def item_count(self) -> int:
        return len(self.item_ids)

    @classmethod
    def build(cls, items, bin_count, ngram_orders, source_checksum="") -> "TfidfIndex":
        """Index (id, text) pairs given in strictly ascending id order."""
        if not items:
            raise ValueError("cannot build an index over zero items")
        item_ids = [item_id for item_id, _ in items]
        if not _strictly_ascending(item_ids):
            raise ValueError("index items must be in strictly ascending id order")
        hashed = ngram_bins((tokenize(text) for _, text in items), ngram_orders, bin_count)
        return cls.from_counts(item_ids, *hashed, bin_count, ngram_orders, source_checksum)

    @classmethod
    def from_counts(cls, item_ids, owner, bins, counts, bin_count, ngram_orders,
                    source_checksum="") -> "TfidfIndex":
        """Index from ``ngram_bins`` output: entries sorted by (owner, bin),
        owner i being item_ids[i]."""
        n = len(item_ids)
        uniq_bins, inverse, df = np.unique(bins, return_inverse=True, return_counts=True)
        weights = np.log1p(counts) * _idf(df, n)[inverse]

        # item_norms are saved in index.npz: one np.sum per item over its
        # squares in ascending-bin order, as np.add.reduceat rounds differently.
        ends = np.cumsum(np.bincount(owner, minlength=n))
        item_norms = np.sqrt([np.sum(sq) for sq in np.split(np.square(weights), ends[:-1])])

        order = np.argsort(bins, kind="stable")  # (bin, owner) order
        uniq_offsets = np.concatenate(([0], np.cumsum(df)))
        return cls(bin_count, ngram_orders, item_ids, uniq_bins, uniq_offsets,
                   owner[order].astype(np.int32), weights[order], df, item_norms,
                   source_checksum)

    def query_vector(self, q_bins, q_counts):
        """(positions in uniq_bins, weights, norm) of a query's indexed bins.

        q_bins ascend, as ``ngram_bins`` gives them.  Zero-weight bins are
        dropped; the norm counts every positive-weight bin, indexed or not.
        """
        pos = np.searchsorted(self.uniq_bins, q_bins)
        hit = pos < self.uniq_bins.size
        hit[hit] = self.uniq_bins[pos[hit]] == q_bins[hit]
        q_df = np.zeros(q_bins.size, dtype=np.int64)
        q_df[hit] = self.df[pos[hit]]
        weights = np.log1p(q_counts) * _idf(q_df, self.item_count)
        nz = weights > 0
        norm = float(np.sqrt(np.sum(weights[nz] * weights[nz])))
        return pos[hit & nz], weights[hit & nz], norm

    def top_k(self, text: str, k: int) -> list[ScoredItem]:
        """k best items for a query text; see ``top_k_hashed``."""
        _, q_bins, q_counts = ngram_bins([tokenize(text)], self.ngram_orders, self.bin_count)
        return self.top_k_hashed(q_bins, q_counts, k)

    def top_k_hashed(self, q_bins, q_counts, k: int) -> list[ScoredItem]:
        """k best items by cosine, positive scores only, ids break ties."""
        if k < 1:
            raise ValueError("k must be >= 1")
        q_pos, q_weights, q_norm = self.query_vector(q_bins, q_counts)
        if q_norm == 0.0:
            return []
        raw = kernels.cosine_accumulate(q_pos, q_weights, self.uniq_offsets, self.post_items,
                                        self.post_weights, self.item_count)
        denom = self.item_norms * q_norm
        scores = np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)
        keep = np.flatnonzero(scores > 0)
        if keep.size == 0:
            return []
        # keep is in item order, so the stable sort breaks ties by ascending id
        top = keep[np.argsort(-scores[keep], kind="stable")[:k]]
        return [ScoredItem(self.item_ids[i], float(scores[i])) for i in top]

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        """Single-file npz with a self-describing header (string ids only)."""
        if self.item_ids and not isinstance(self.item_ids[0], str):
            raise ValueError("only string-id indexes can be persisted")
        header = {
            "format_version": FORMAT_VERSION,
            "bin_count": self.bin_count,
            "ngram_orders": list(self.ngram_orders),
            "hash": HASH_NAME,
            "weighting": WEIGHTING,
            "item_count": self.item_count,
            "source_checksum": self.source_checksum,
        }
        _write_npz(path, {
            "header": np.array(json.dumps(header, sort_keys=True)),
            "item_ids": np.array(self.item_ids),
            **{name: getattr(self, name) for name in _ARRAYS},
        })

    @classmethod
    def load(cls, path) -> "TfidfIndex":
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            if header.get("format_version") != FORMAT_VERSION:
                raise IndexFormatError(
                    f"unsupported index format version: {header.get('format_version')}"
                )
            if header.get("hash") != HASH_NAME:
                raise IndexFormatError(f"unknown hash algorithm: {header.get('hash')}")
            item_ids = [str(s) for s in data["item_ids"]]
            if not _strictly_ascending(item_ids):
                raise IndexFormatError("index item ids are not in strictly ascending order")
            return cls(header["bin_count"], header["ngram_orders"], item_ids,
                       source_checksum=header.get("source_checksum", ""),
                       **{name: data[name] for name in _ARRAYS})


def corpus_checksum(corpus: Corpus) -> str:
    """The source_checksum a document index built from this corpus records."""
    return ";".join(f"{k}={v}" for k, v in sorted(corpus.source_checksums.items()))


def build_document_index(corpus: Corpus, bin_count: int = DEFAULT_BIN_COUNT) -> TfidfIndex:
    """Unigram+bigram index over every page's full text."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    items = [(doc.page_id, doc.text) for doc in corpus.documents()]
    return TfidfIndex.build(items, bin_count, (1, 2), source_checksum=corpus_checksum(corpus))


def top_k_documents(index: TfidfIndex, claim: str, k: int = 5) -> list[ScoredItem]:
    return index.top_k(claim, k)


def top_k_sentences(documents: list[Document], claim: str, k: int = 5,
                    bin_count: int = DEFAULT_BIN_COUNT) -> list[ScoredItem]:
    """Top sentences of the given documents by bigram-only cosine."""
    items = sorted((ref, doc.sentence(ref.line_number))
                   for doc in documents for ref in doc.non_empty_refs())
    if not items:
        return []
    index = TfidfIndex.build(items, bin_count, ngram_orders=(2,))
    return index.top_k(claim, k)


class _HashedRows:
    """``ngram_bins`` output of many texts, sliceable by text."""

    def __init__(self, token_lists, orders, bin_count, n):
        self.owner, self.bins, self.counts = ngram_bins(token_lists, orders, bin_count)
        self.offsets = np.searchsorted(self.owner, np.arange(n + 1))

    def row(self, i):
        """(bins, counts) of text i."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.bins[lo:hi], self.counts[lo:hi]

    def take(self, rows):
        """(owner, bins, counts) of the texts at rows, owner j being rows[j]."""
        starts = self.offsets[rows]
        lens = self.offsets[rows + 1] - starts
        span = kernels.concat_ranges(starts, lens)
        owner = np.repeat(np.arange(rows.size, dtype=np.int64), lens)
        return owner, self.bins[span], self.counts[span]


def top_k_sentences_batch(corpus: Corpus, index: TfidfIndex, claims: list[str],
                          k_docs: int = 5, k_sents: int = 5) -> list[list[ScoredItem]]:
    """The TF-IDF route for many claims at once.

    Per claim it equals ``top_k_sentences`` over the pages of
    ``top_k_documents(index, claim, k_docs)``, but every claim is hashed
    once per route and every sentence of the retrieved pages once in all.
    Each claim's sentence index is still built over its own pages, so its
    idf and scores do not change.
    """
    bin_count = index.bin_count
    tokens = [tokenize(claim) for claim in claims]
    doc_queries = _HashedRows(tokens, index.ngram_orders, bin_count, len(claims))
    sent_queries = _HashedRows(tokens, (2,), bin_count, len(claims))
    pages = [sorted(hit.item for hit in index.top_k_hashed(*doc_queries.row(i), k_docs))
             for i in range(len(claims))]

    # every retrieved page's sentences, sorted by ref, so a page is a run of rows
    refs, page_rows = [], {}
    for page_id in sorted({p for ps in pages for p in ps}):
        page_refs = sorted(corpus.get(page_id).non_empty_refs())
        page_rows[page_id] = (len(refs), len(page_refs))
        refs.extend(page_refs)
    sentences = _HashedRows((tokenize(corpus.get_sentence(r)) for r in refs), (2,),
                            bin_count, len(refs))

    out = []
    for i, claim_pages in enumerate(pages):
        starts, lens = np.array([page_rows[p] for p in claim_pages], np.int64).reshape(-1, 2).T
        rows = kernels.concat_ranges(starts, lens)
        if rows.size == 0:
            out.append([])
            continue
        sent_index = TfidfIndex.from_counts([refs[r] for r in rows.tolist()],
                                            *sentences.take(rows), bin_count, (2,))
        out.append(sent_index.top_k_hashed(*sent_queries.row(i), k_sents))
    return out
