"""Hashed TF-IDF indexing and cosine top-k retrieval.

Document retrieval uses unigram+bigram vectors over page text; sentence
retrieval scores the sentences of a claim's candidate documents by
bigram-only vectors whose df and idf count those sentences alone.  Every
text (page, sentence or claim) goes to ``tokenizer.ngram_bins`` as it is,
which tokenizes and hashes it.  Weighting is tf = log(1 + count)
with the Okapi-style idf = max(0, log((N - df + 0.5) / (df + 0.5)));
vectors are L2-normalized at query time.  Postings are flat numpy arrays
sorted by (bin, item).  Items are indexed in strictly ascending id order,
so ties among results at the same positive score break on item position,
which is ascending id.

Both routes score a block of claims at a time, a block holding about
BLOCK_CELLS score cells plus scored entries.  Every score keeps the bits
it gets when its claim is scored alone: each cell adds its terms one at a
time in ascending-bin order, and each norm is the np.sum of its row
(``row_sums``), and a cosine is raw / (item norm x query norm), a zero
norm read as inf.  ``top_documents`` hands over pages: it scores each
block of claims against every page as one dense matrix, and k np.argmax
passes over its rows pick each claim's k best (``top_k_dense``), with no
sort.  ``sentence_route`` ranks rows of the run's
``Corpus.sentence_table``, hashing each row a claim reads once and each
claim once, and sorts the positive scores of each block.
``top_k_documents`` and ``top_k_sentences`` wrap them for one claim.
"""

import json
import zipfile
from typing import NamedTuple

import numpy as np

from . import DEFAULT_BIN_COUNT
from .corpus import Corpus, Document
from .rows import file_error, reading
from .tokenizer import HASH_NAME, MAX_BIN_COUNT, ngram_bins

FORMAT_VERSION = 1
WEIGHTING = "log1p-tf.okapi-idf"
DOC_NGRAM_ORDERS = (1, 2)  # unigrams and bigrams of each page's text
BLOCK_CELLS = 2**14  # score cells plus scored entries per block of claims
# index arrays after item_ids, in npz order, with the dtypes build gives them
_ARRAYS = {"uniq_bins": np.int64, "uniq_offsets": np.int64, "post_items": np.int32,
           "post_weights": np.float64, "df": np.int64, "item_norms": np.float64}


def _write_npz(path, arrays: dict) -> None:
    """npz with pinned zip timestamps so equal indexes give equal bytes; each
    array streams into its zip member."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, arr in arrays.items():
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            with zf.open(info, "w") as member:
                np.lib.format.write_array(member, np.asanyarray(arr))


class ScoredItem(NamedTuple):
    item: object  # page_id str, or a row of the run's sentence table (int)
    score: float


def _idf(df: np.ndarray, n_items: int) -> np.ndarray:
    return np.maximum(0.0, np.log((n_items - df + 0.5) / (df + 0.5)))


def concat_ranges(starts, lens):
    """Concatenation of arange(starts[i], starts[i] + lens[i]) over i."""
    shift = np.cumsum(lens) - lens  # where each range starts in the output
    return np.arange(lens.sum(), dtype=np.int64) + np.repeat(starts - shift, lens)


def row_sums(values, lengths):
    """Sums of consecutive runs of values, run i holding lengths[i] entries.

    Bit for bit the np.sum of each run: runs of one length are stacked into
    a matrix and summed along its rows, which takes the pairwise summation
    np.sum takes on one run (np.add.reduceat rounds differently).
    """
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    sizes, firsts = np.unique(lengths[order], return_index=True)
    out = np.zeros(lengths.size)
    for size, rows in zip(sizes.tolist(), np.split(order, firsts[1:])):
        if size:
            out[rows] = values[starts[rows, np.newaxis] + np.arange(size)].sum(axis=1)
    return out


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
        """Index an iterable of (id, text) pairs, given in strictly ascending id
        order, reading each pair once."""
        item_ids = []

        def texts():
            for item_id, text in items:
                item_ids.append(item_id)
                yield text

        owner, bins, counts = ngram_bins(texts(), ngram_orders, bin_count)
        n = len(item_ids)
        if not n:
            raise ValueError("cannot build an index over zero items")
        # each array goes once used, so that the build peaks at a few times
        # its output; one sort gives the postings' (bin, owner) order, the
        # distinct bins and their df: bin * n + owner is distinct per entry
        # (and fits int64, with bin < 2^32 and int32 owners), so any sort of
        # it gives that order
        sizes = np.bincount(owner, minlength=n)
        order = np.argsort(bins * n + owner)
        owner = owner.astype(np.int32)
        bins = bins[order]
        starts = np.ones(order.size, dtype=bool)
        np.not_equal(bins[1:], bins[:-1], out=starts[1:])
        uniq_bins = bins[starts]
        del bins
        uniq_offsets = np.append(np.flatnonzero(starts), order.size)
        del starts
        df = np.diff(uniq_offsets)
        # tf * idf per entry, in (owner, bin) order: each bin's idf goes back
        # through the sort to its entries (x * y and y * x are the same double)
        weights = np.empty(order.size)
        weights[order] = np.repeat(_idf(df, n), df)
        weights *= np.log1p(counts)
        del counts
        # item_norms are saved in index.npz: squares summed in ascending-bin order
        item_norms = np.sqrt(row_sums(np.square(weights), sizes))
        return cls(bin_count, ngram_orders, item_ids, uniq_bins, uniq_offsets, owner[order],
                   weights[order], df, item_norms, source_checksum)

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        """Single-file npz with a self-describing header; the ids are page ids."""
        nul = next((i for i in self.item_ids if i.endswith("\0")), None)
        if nul is not None:  # a numpy string array drops trailing NULs
            raise ValueError(f"page id {nul!r} ends in U+0000, which an index cannot store")
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
            for name in ("header", "item_ids", *_ARRAYS):
                if name not in data:
                    raise file_error(path, f"index {path} is corrupt: it has no {name} array")
            header = json.loads(str(data["header"]))
            version = header.get("format_version")
            if type(version) is not int or version != FORMAT_VERSION:  # 1.0 and true are not 1
                raise ValueError(f"unsupported index format version: {version!r}")
            for key, known in (("hash", HASH_NAME), ("weighting", WEIGHTING)):
                if header.get(key) != known:
                    raise file_error(path, f"index {path} has an unknown {key}: "
                                           f"{header.get(key)!r}")
            item_ids = [str(s) for s in data["item_ids"]]
            if not all(a < b for a, b in zip(item_ids, item_ids[1:])):
                raise ValueError("index item ids are not in strictly ascending order")
            bins, orders, count = (header[key] for key in
                                   ("bin_count", "ngram_orders", "item_count"))
            # type checks, not int(): "65536", 65536.7 and true are no bin count
            if not (type(bins) is int and 1 <= bins <= MAX_BIN_COUNT
                    and type(orders) is list and all(type(o) is int for o in orders)
                    and type(count) is int and count == len(item_ids) >= 1):
                raise file_error(path, f"index {path} has a bad bin_count, ngram_orders or "
                                       f"item_count: {bins!r}, {orders!r}, {count!r}")
            index = cls(bins, orders, item_ids,
                        source_checksum=header.get("source_checksum", ""),
                        **{name: data[name] for name in _ARRAYS})
            index._check_arrays(path)
        return index

    def _check_arrays(self, path) -> None:
        """Raise ValueError unless the arrays have the dtypes build writes,
        form one postings layout, and hold finite non-negative weights and norms."""
        offsets, post = self.uniq_offsets, self.post_items
        if not (all(getattr(self, name).dtype == dtype and getattr(self, name).ndim == 1
                    for name, dtype in _ARRAYS.items())
                and len(self.df) == len(self.uniq_bins) and np.all(np.diff(self.uniq_bins) > 0)
                and np.array_equal(offsets, np.concatenate(([0], np.cumsum(self.df))))
                and offsets[-1] == len(post) == len(self.post_weights)
                and len(self.item_norms) == self.item_count
                and (self.uniq_bins.size == 0 or self.uniq_bins[-1] < self.bin_count)
                and (post.size == 0 or 0 <= post.min() <= post.max() < self.item_count)
                and all(np.all((a >= 0) & (a < np.inf)) for a in (self.post_weights,
                                                                   self.item_norms))):
            raise file_error(path, f"index {path} is corrupt: its arrays disagree")


def corpus_checksum(checksums: dict[str, str]) -> str:
    """The source_checksum a document index built from a corpus with these
    source checksums records."""
    return ";".join(f"{k}={v}" for k, v in sorted(checksums.items()))


def build_document_index(corpus: Corpus, bin_count: int = DEFAULT_BIN_COUNT) -> TfidfIndex:
    """Unigram+bigram index over every page's full text."""
    return index_pages(corpus.source_checksums, corpus.documents(), bin_count)


def index_pages(checksums: dict[str, str], pages, bin_count: int = DEFAULT_BIN_COUNT
                ) -> TfidfIndex:
    """``build_document_index`` of a corpus given as its source checksums and
    an iterator over its pages in ascending page-id order, such as
    ``corpus.read_saved`` returns."""
    return TfidfIndex.build(((doc.page_id, doc.text) for doc in pages), bin_count,
                            DOC_NGRAM_ORDERS, source_checksum=corpus_checksum(checksums))


def top_k_documents(index: TfidfIndex, claim: str, k: int = 5) -> list[ScoredItem]:
    """k best pages for one claim by cosine, positive scores only, ids break ties."""
    return top_documents(index, [claim], k)[0][0]


def top_k_sentences(documents: list[Document], claim: str, k: int = 5,
                    bin_count: int = DEFAULT_BIN_COUNT) -> list[ScoredItem]:
    """Top sentences of the given documents by bigram-only cosine."""
    corpus = Corpus()
    for doc in documents:
        corpus.add_document(doc)
    table = corpus.sentence_table(corpus.page_ids())
    hits = sentence_route(table.texts, [list(table.spans.values())], [claim], bin_count, k)[0]
    rows = np.array([row for row, _ in hits], dtype=np.int64)
    return [ScoredItem(ref, score) for ref, (_, score) in zip(table.refs(rows), hits)]


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
    norms = np.sqrt(row_sums(np.square(weights[nz]), sizes))
    use = hit & nz
    return owner[use], pos[use], weights[use], norms


def _zero_as_inf(norms):
    """norms with each zero read as inf.  An item or query of zero norm has
    raw 0.0 against everything, so its cosine raw / (norm x norm) is
    0.0 / inf = 0.0; every other cosine divides by two positive norms."""
    return np.where(norms > 0, norms, np.inf)


def top_k_per_claim(claim, item, score, k):
    """Positions of each claim's k highest-scoring entries, claim by claim and
    best first, ties by ascending item."""
    order = np.lexsort((item, -score, claim))
    ranks = np.arange(order.size) - np.searchsorted(claim[order], claim[order])
    return order[ranks < k]


def _ranked(claim, item, score, n_claims, k, ids):
    """Per claim, its k highest-scoring entries as ScoredItems, ties by ascending item."""
    top = top_k_per_claim(claim, item, score, k)
    out = [[] for _ in range(n_claims)]
    for c, i, s in zip(claim[top].tolist(), item[top].tolist(), score[top].tolist()):
        out[c].append(ScoredItem(ids[i], s))
    return out


def top_k_dense(scores, k, ids):
    """Per row of a dense score matrix, its k highest positive scores as
    ScoredItems of ids[column], best first, ties by ascending column.

    Each rank is one np.argmax pass over the rows, which picks the first
    column of a tie; the picked cell then reads -1.0, below every score, so
    the next pass skips it.  scores is overwritten.
    """
    n_rows, n = scores.shape
    out = [[] for _ in range(n_rows)]
    flat = scores.reshape(-1)
    row_starts = np.arange(0, n_rows * n, n)
    for _ in range(min(k, n)):
        best = scores.argmax(axis=1)
        cells = best + row_starts
        picked = flat[cells]
        if not picked.max() > 0:  # no row has a positive score left
            break
        for hits, i, score in zip(out, best.tolist(), picked.tolist()):
            if score > 0:
                hits.append(ScoredItem(ids[i], score))
        flat[cells] = -1.0
    return out


def block_accumulate(q_row, starts, lens, q_weights, post_items, post_weights,
                     n_rows, n_items):
    """Raw dot products between a block of sparse queries and every indexed item.

    Query entry j belongs to row q_row[j], and its bin's postings are the
    lens[j] entries of post_items/post_weights from starts[j] on; entries
    come row-major with bins ascending within a row.  One np.bincount over
    row * n_items + item then adds each cell's terms one at a time in
    ascending-bin order, so each dot product has the bits of a per-row
    sequential accumulation.  Returns an (n_rows, n_items) matrix.
    """
    span = concat_ranges(starts, lens)
    cells = np.repeat(q_row * n_items, lens) + post_items[span]
    products = post_weights[span] * np.repeat(q_weights, lens)
    raw = np.bincount(cells, products, minlength=n_rows * n_items)
    return raw.astype(np.float64, copy=False).reshape(n_rows, n_items)  # int64 when empty


def top_documents(index, claims, k):
    """Each claim's k best items, and the number of claims whose query has
    zero norm.  The claims are hashed as the index was; a block's scores are
    one dense claims x items matrix, turned into cosines in place and read
    by ``top_k_dense``."""
    n_claims = len(claims)
    queries = ngram_bins(claims, index.ngram_orders, index.bin_count)
    n = index.item_count
    owner, pos, weights, norms = _query(*queries, index.uniq_bins, index.df, n, n_claims)
    starts = index.uniq_offsets[pos]
    lens = index.uniq_offsets[pos + 1] - starts
    costs = n + np.bincount(owner, lens, minlength=n_claims).astype(np.int64)
    ends = np.searchsorted(owner, np.arange(n_claims + 1))
    item_norms, query_norms = _zero_as_inf(index.item_norms), _zero_as_inf(norms)
    out = []
    for a, b in _blocks(costs):
        lo, hi = ends[a], ends[b]
        scores = block_accumulate(owner[lo:hi] - a, starts[lo:hi], lens[lo:hi], weights[lo:hi],
                                  index.post_items, index.post_weights, b - a, n)
        scores /= item_norms * query_norms[a:b, np.newaxis]
        out.extend(top_k_dense(scores, k, index.item_ids))
    return out, int(np.count_nonzero(norms == 0))


def sentence_route(texts, spans, claims, bin_count, k):
    """Each claim's k best rows of its pages as ScoredItems of row numbers,
    df and idf counted over those rows alone.

    texts holds the row texts of a ``corpus.SentenceTable``, spans[i] the
    (first row, row count) of each page of claims[i].  Every row that some claim
    reads is hashed once, and every claim once.
    """
    # each claim's candidate rows, claim-major: the rows of its pages in turn
    first, count = np.array([s for ss in spans for s in ss], dtype=np.int64).reshape(-1, 2).T
    rows = concat_ranges(first, count)
    used, at = np.unique(rows, return_inverse=True)
    owner, bins, counts = ngram_bins([texts[r] for r in used.tolist()], (2,), bin_count)
    offsets = np.searchsorted(owner, np.arange(used.size + 1))
    q_owner, q_bins, q_counts = ngram_bins(claims, (2,), bin_count)
    q_ends = np.searchsorted(q_owner, np.arange(len(claims) + 1))
    n_items = np.array([sum(n for _, n in ss) for ss in spans], dtype=np.int64)
    row_claim = np.repeat(np.arange(len(claims), dtype=np.int64), n_items)
    ends = np.concatenate(([0], np.cumsum(n_items)))
    row_starts = offsets[at]
    row_lens = offsets[at + 1] - row_starts
    costs = n_items + np.bincount(row_claim, row_lens, minlength=len(claims)).astype(np.int64)
    out = []
    for a, b in _blocks(costs):
        lo, hi = ends[a], ends[b]
        cell_claim = row_claim[lo:hi] - a
        block_n = n_items[a:b]
        span = concat_ranges(row_starts[lo:hi], row_lens[lo:hi])
        cell = np.repeat(np.arange(hi - lo, dtype=np.int64), row_lens[lo:hi])
        # one key per (claim, bin), so each claim gets the df of its own candidates
        uniq, inverse, df = np.unique(cell_claim[cell] * bin_count + bins[span],
                                      return_inverse=True, return_counts=True)
        weights = np.log1p(counts[span]) * _idf(df, block_n[uniq // bin_count])[inverse]
        sizes = np.bincount(cell, minlength=hi - lo)
        norms = np.sqrt(row_sums(np.square(weights), sizes))
        q_lo, q_hi = q_ends[a], q_ends[b]
        query = q_owner[q_lo:q_hi] - a
        _, pos, q_weights, q_norms = _query(query, query * bin_count + q_bins[q_lo:q_hi],
                                            q_counts[q_lo:q_hi], uniq, df, block_n[query], b - a)
        key_weights = np.zeros(uniq.size)
        key_weights[pos] = q_weights
        # entries run by (row, bin), so each row adds its terms in ascending-bin
        # order; an entry the query misses adds +0.0, which leaves a sum as it is
        raw = np.bincount(cell, weights * key_weights[inverse], minlength=hi - lo)
        scores = raw / (_zero_as_inf(norms) * _zero_as_inf(q_norms)[cell_claim])
        keep = np.flatnonzero(scores > 0)
        out.extend(_ranked(cell_claim[keep], rows[lo:hi][keep], scores[keep], b - a, k,
                           range(len(texts))))
    return out
