"""Hashed TF-IDF indexing and cosine top-k retrieval.

Document retrieval uses unigram+bigram vectors over page text; sentence
retrieval scores the sentences of a claim's candidate documents by
bigram-only vectors whose df and idf count those sentences alone.  Texts
are hashed by ``tokenizer.ngram_bins``.  Weighting is tf = log(1 + count)
with the Okapi-style idf = max(0, log((N - df + 0.5) / (df + 0.5)));
vectors are L2-normalized at query time.  Postings are flat numpy arrays
sorted by (bin, item).  Items are indexed in strictly ascending id order,
so ties among results at the same positive score break on item position,
which is ascending id.

Both routes score a block of claims at a time, a block holding about
BLOCK_CELLS score cells plus scored entries.  Every score keeps the bits
it gets when its claim is scored alone: each cell adds its terms one at a
time in ascending-bin order, and each norm is the np.sum of its row
(``kernels.row_sums``).  ``top_k_documents`` and ``top_k_sentences`` are
one-claim calls of the same code.
"""

import io
import json
import zipfile
from typing import NamedTuple

import numpy as np

from . import kernels
from .corpus import Corpus, Document
from .rows import reading
from .tokenizer import HASH_NAME, MAX_BIN_COUNT, ngram_bins, tokenize

FORMAT_VERSION = 1
DEFAULT_BIN_COUNT = 2**24
WEIGHTING = "log1p-tf.okapi-idf"
DOC_NGRAM_ORDERS = (1, 2)  # unigrams and bigrams of each page's text
BLOCK_CELLS = 2**14  # score cells plus scored entries per block of claims
# index arrays after item_ids, in npz order, with the dtypes build gives them
_ARRAYS = {"uniq_bins": np.int64, "uniq_offsets": np.int64, "post_items": np.int32,
           "post_weights": np.float64, "df": np.int64, "item_norms": np.float64}


def _write_npz(path, arrays: dict) -> None:
    """npz with pinned zip timestamps so equal indexes give equal bytes."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asanyarray(arr))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, buf.getvalue())


class ScoredItem(NamedTuple):
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
        owner, bins, counts = ngram_bins((tokenize(text) for _, text in items),
                                         ngram_orders, bin_count)
        n = len(item_ids)
        uniq_bins, inverse, df = np.unique(bins, return_inverse=True, return_counts=True)
        weights = np.log1p(counts) * _idf(df, n)[inverse]
        # item_norms are saved in index.npz: squares summed in ascending-bin order
        sizes = np.bincount(owner, minlength=n)
        item_norms = np.sqrt(kernels.row_sums(np.square(weights), sizes))
        order = np.argsort(bins, kind="stable")  # (bin, owner) order
        uniq_offsets = np.concatenate(([0], np.cumsum(df)))
        return cls(bin_count, ngram_orders, item_ids, uniq_bins, uniq_offsets,
                   owner[order].astype(np.int32), weights[order], df, item_norms,
                   source_checksum)

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
        with reading(path, "index"), np.load(path, allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            if header.get("format_version") != FORMAT_VERSION:
                raise ValueError(
                    f"unsupported index format version: {header.get('format_version')}"
                )
            for key, known in (("hash", HASH_NAME), ("weighting", WEIGHTING)):
                if header.get(key) != known:
                    raise ValueError(f"index {path} has an unknown {key}: "
                                     f"{header.get(key)!r}")
            item_ids = [str(s) for s in data["item_ids"]]
            if not _strictly_ascending(item_ids):
                raise ValueError("index item ids are not in strictly ascending order")
            bins, orders, count = (header[key] for key in
                                   ("bin_count", "ngram_orders", "item_count"))
            # type checks, not int(): "65536", 65536.7 and true are no bin count
            if not (type(bins) is int and 1 <= bins <= MAX_BIN_COUNT
                    and type(orders) is list and all(type(o) is int for o in orders)
                    and type(count) is int and count == len(item_ids)):
                raise ValueError(f"index {path} has a bad bin_count, ngram_orders or "
                                 f"item_count: {bins!r}, {orders!r}, {count!r}")
            index = cls(bins, orders, item_ids,
                        source_checksum=header.get("source_checksum", ""),
                        **{name: data[name] for name in _ARRAYS})
            index._check_arrays(path)
        return index

    def _check_arrays(self, path) -> None:
        """Raise ValueError unless the arrays have the dtypes build writes
        and form one postings layout."""
        offsets, post = self.uniq_offsets, self.post_items
        if not (all(getattr(self, name).dtype == dtype and getattr(self, name).ndim == 1
                    for name, dtype in _ARRAYS.items())
                and len(self.df) == len(self.uniq_bins) and np.all(np.diff(self.uniq_bins) > 0)
                and np.array_equal(offsets, np.concatenate(([0], np.cumsum(self.df))))
                and offsets[-1] == len(post) == len(self.post_weights)
                and len(self.item_norms) == self.item_count
                and (self.uniq_bins.size == 0 or self.uniq_bins[-1] < self.bin_count)
                and (post.size == 0 or 0 <= post.min() <= post.max() < self.item_count)):
            raise ValueError(f"index {path} is corrupt: its arrays disagree")


def corpus_checksum(corpus: Corpus) -> str:
    """The source_checksum a document index built from this corpus records."""
    return ";".join(f"{k}={v}" for k, v in sorted(corpus.source_checksums.items()))


def build_document_index(corpus: Corpus, bin_count: int = DEFAULT_BIN_COUNT) -> TfidfIndex:
    """Unigram+bigram index over every page's full text."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    items = [(doc.page_id, doc.text) for doc in corpus.documents()]
    return TfidfIndex.build(items, bin_count, DOC_NGRAM_ORDERS,
                            source_checksum=corpus_checksum(corpus))


def top_k_documents(index: TfidfIndex, claim: str, k: int = 5) -> list[ScoredItem]:
    """k best pages for one claim by cosine, positive scores only, ids break ties."""
    queries = ngram_bins([tokenize(claim)], index.ngram_orders, index.bin_count)
    return _top_documents(index, queries, 1, k)[0][0]


def top_k_sentences(documents: list[Document], claim: str, k: int = 5,
                    bin_count: int = DEFAULT_BIN_COUNT) -> list[ScoredItem]:
    """Top sentences of the given documents by bigram-only cosine."""
    docs = {doc.page_id: doc for doc in documents}
    if len(docs) < len(documents):
        raise ValueError("documents must be distinct")
    return _sentence_route(docs, [sorted(docs)], [tokenize(claim)], bin_count, k)[0]


def top_k_sentences_batch(corpus: Corpus, index: TfidfIndex, claims: list[str],
                          k_docs: int = 5, k_sents: int = 5) -> tuple[list, int]:
    """The TF-IDF route for many claims at once.

    Per claim the sentences equal ``top_k_sentences`` over the pages of
    ``top_k_documents(index, claim, k_docs)``, scores included, but every
    claim is hashed once per route and every sentence of the retrieved
    pages once in all.  Returns the sentences per claim and the number of
    claims whose document query has zero norm (no token with positive idf).
    """
    tokens = [tokenize(claim) for claim in claims]
    docs, empty = _top_documents(index, ngram_bins(tokens, index.ngram_orders, index.bin_count),
                                 len(claims), k_docs)
    pages = [sorted(hit.item for hit in hits) for hits in docs]
    return _sentence_route(corpus, pages, tokens, index.bin_count, k_sents), empty


def _sentence_route(docs, pages, tokens, bin_count, k):
    """Each claim's k best sentences of its pages, hashing each page's sentences once.

    docs maps a page id to its Document through ``get``; pages holds each
    claim's page ids in ascending order, and tokens each claim's tokens.
    """
    # every page's sentences, sorted by ref, so a page is a run of rows
    refs, texts, page_rows = [], [], {}
    for page_id in sorted({p for ps in pages for p in ps}):
        doc = docs.get(page_id)
        page_refs = sorted(doc.non_empty_refs())
        page_rows[page_id] = (len(refs), len(page_refs))
        refs.extend(page_refs)
        texts.extend(doc.sentence(ref.line_number) for ref in page_refs)
    sentences = _HashedRows(map(tokenize, texts), (2,), bin_count, len(refs))
    runs = np.array([(c, *page_rows[p]) for c, ps in enumerate(pages) for p in ps],
                    dtype=np.int64).reshape(-1, 3).T
    queries = _HashedRows(tokens, (2,), bin_count, len(tokens))
    return _top_sentences(sentences, refs, runs, queries, len(tokens), bin_count, k)


class _HashedRows:
    """``ngram_bins`` output of many texts, sliceable by text."""

    def __init__(self, token_lists, orders, bin_count, n):
        self.owner, self.bins, self.counts = ngram_bins(token_lists, orders, bin_count)
        self.offsets = np.searchsorted(self.owner, np.arange(n + 1))

    def take(self, rows):
        """(owner, bins, counts) of the texts at rows, owner j being rows[j]."""
        starts = self.offsets[rows]
        lens = self.offsets[rows + 1] - starts
        span = kernels.concat_ranges(starts, lens)
        owner = np.repeat(np.arange(rows.size, dtype=np.int64), lens)
        return owner, self.bins[span], self.counts[span]


# -- block scoring ------------------------------------------------------------


def _blocks(costs):
    """(first, stop) claim ranges whose costs sum to at most BLOCK_CELLS; a
    claim costing more than that makes a block of its own."""
    first, total = 0, 0
    for i, cost in enumerate(costs.tolist()):
        if i > first and total + cost > BLOCK_CELLS:
            yield first, i
            first, total = i, 0
        total += cost
    if first < costs.size:
        yield first, costs.size


def _query(owner, keys, counts, uniq_keys, df, n_items, n_claims):
    """Query entries weighed against an index's sorted keys and their df.

    A key the index lacks has df 0: it adds to its claim's norm but scores
    nothing.  n_items is the index size, one for all or one per entry.
    Returns the (owner, position in uniq_keys, weight) of the entries that
    hit the index with a positive weight, and each claim's query norm.
    """
    pos = np.searchsorted(uniq_keys, keys)
    hit = pos < uniq_keys.size
    hit[hit] = uniq_keys[pos[hit]] == keys[hit]
    q_df = np.zeros(keys.size, dtype=np.int64)
    q_df[hit] = df[pos[hit]]
    weights = np.log1p(counts) * _idf(q_df, n_items)
    nz = weights > 0
    sizes = np.bincount(owner[nz], minlength=n_claims)
    norms = np.sqrt(kernels.row_sums(np.square(weights[nz]), sizes))
    use = hit & nz
    return owner[use], pos[use], weights[use], norms


def _cosine(raw, denom):
    return np.divide(raw, denom, out=np.zeros(raw.shape), where=denom > 0)


def _ranked(claim, item, score, n_claims, k, ids):
    """Per claim, its k highest-scoring entries as ScoredItems, ties by ascending item."""
    order = np.lexsort((item, -score, claim))
    ranks = np.arange(order.size) - np.searchsorted(claim[order], claim[order])
    top = order[ranks < k]
    out = [[] for _ in range(n_claims)]
    for c, i, s in zip(claim[top].tolist(), item[top].tolist(), score[top].tolist()):
        out[c].append(ScoredItem(ids[i], s))
    return out


def _top_documents(index, queries, n_claims, k):
    """Each claim's k best items, and the number of claims whose query has
    zero norm.  queries is the claims' ``ngram_bins`` output, hashed as the
    index was.  A block's scores are one dense claims x items matrix."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = index.item_count
    owner, pos, weights, norms = _query(*queries, index.uniq_bins, index.df, n, n_claims)
    lens = index.uniq_offsets[pos + 1] - index.uniq_offsets[pos]
    costs = n + np.bincount(owner, lens, minlength=n_claims).astype(np.int64)
    ends = np.searchsorted(owner, np.arange(n_claims + 1))
    out = []
    for a, b in _blocks(costs):
        lo, hi = ends[a], ends[b]
        raw = kernels.block_accumulate(owner[lo:hi] - a, pos[lo:hi], weights[lo:hi],
                                       index.uniq_offsets, index.post_items,
                                       index.post_weights, b - a, n)
        scores = _cosine(raw, index.item_norms * norms[a:b, np.newaxis])
        keep = scores > 0
        if n > k:  # only what reaches a row's k-th score needs sorting
            keep &= scores >= np.partition(scores, n - k, axis=1)[:, n - k, np.newaxis]
        rows, items = np.nonzero(keep)
        out.extend(_ranked(rows, items, scores[rows, items], b - a, k, index.item_ids))
    return out, int(np.count_nonzero(norms == 0))


def _top_sentences(sentences, ids, runs, queries, n_claims, bin_count, k):
    """Each claim's k best sentences, df and idf counted over its own candidates.

    sentences are the ``_HashedRows`` of every candidate, ids their refs in
    ascending order; runs is a (claim, first row, row count) array per run
    of a claim's candidate rows, claim-major and ascending; queries are the
    claims' bigram ``_HashedRows``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    run_claim, run_first, run_len = runs
    n_items = np.bincount(run_claim, run_len, minlength=n_claims).astype(np.int64)
    run_entries = sentences.offsets[run_first + run_len] - sentences.offsets[run_first]
    costs = n_items + np.bincount(run_claim, run_entries, minlength=n_claims).astype(np.int64)
    run_ends = np.searchsorted(run_claim, np.arange(n_claims + 1))
    out = []
    for a, b in _blocks(costs):
        lo, hi = run_ends[a], run_ends[b]
        rows = kernels.concat_ranges(run_first[lo:hi], run_len[lo:hi])
        cell_claim = np.repeat(run_claim[lo:hi] - a, run_len[lo:hi])
        block_n = n_items[a:b]
        owner, bins, counts = sentences.take(rows)
        # one key per (claim, bin), so each claim gets the df of its own candidates
        uniq, inverse, df = np.unique(cell_claim[owner] * bin_count + bins,
                                      return_inverse=True, return_counts=True)
        weights = np.log1p(counts) * _idf(df, block_n[uniq // bin_count])[inverse]
        sizes = np.bincount(owner, minlength=rows.size)
        norms = np.sqrt(kernels.row_sums(np.square(weights), sizes))
        q_owner, q_bins, q_counts = queries.take(np.arange(a, b))
        _, pos, q_weights, q_norms = _query(q_owner, q_owner * bin_count + q_bins, q_counts,
                                            uniq, df, block_n[q_owner], b - a)
        key_weights = np.zeros(uniq.size)
        key_weights[pos] = q_weights
        # entries run by (row, bin), so each row adds its terms in ascending-bin
        # order; an entry the query misses adds +0.0, which leaves a sum as it is
        raw = np.bincount(owner, weights * key_weights[inverse], minlength=rows.size)
        scores = _cosine(raw, norms * q_norms[cell_claim])
        keep = np.flatnonzero(scores > 0)
        out.extend(_ranked(cell_claim[keep], rows[keep], scores[keep], b - a, k, ids))
    return out
