"""Entity-driven document retrieval.

A lightweight capitalization heuristic stands in for a trained tagger:
maximal runs of capitalized tokens become mentions, except a lone
sentence-initial token (capitalized only because it opens the sentence).
Real tagger output can be injected from a JSON-lines side file instead.
Each mention is matched to the page whose normalized title is nearest by
Levenshtein distance; the route hands over the pages it matched, not
sentences.  The matcher holds the sorted titles as one flat code-point
array and a bigram index over them, built once per run.  Every mention of
a run is matched in one call: the bigram count filter leaves each mention
a few titles that can be nearest, and one multi-query edit-distance kernel
checks the titles of every open mention at once.
"""

import re
from collections import Counter
from typing import NamedTuple

import numpy as np

from .corpus import Corpus
from .rows import parse_table, scalar_field
from .tfidf import concat_ranges

LEADING_STOPWORDS = frozenset({"the", "a", "an"})
BLOCK_CELLS = 2**16  # DP cells (rows x (widest title + 1)) per block of edit_distances

_EDGE_TRIM_RE = re.compile(r"^[\W_]+|[\W_]+$", re.UNICODE)


class _Mention(NamedTuple):
    surface: str


class EntityMention(_Mention):
    __slots__ = ()

    def __new__(cls, surface):
        if not surface.strip():
            raise ValueError("entity surface must be non-empty")
        return super().__new__(cls, surface)


class TitleMatch(NamedTuple):
    page_id: str
    distance: int


def _core(token: str) -> str:
    return _EDGE_TRIM_RE.sub("", token)


def extract_entities(claim: str) -> list[EntityMention]:
    """Capitalized-run heuristic; deduplicated, in order of first appearance."""
    tokens = claim.split()
    cores = [_core(t) for t in tokens]
    capitalized = [bool(c) and c[0].isupper() for c in cores]

    runs = []  # (start_index, [core, ...])
    i = 0
    while i < len(tokens):
        if capitalized[i]:
            j = i
            while j < len(tokens) and capitalized[j]:
                j += 1
            runs.append((i, cores[i:j]))
            i = j
        else:
            i += 1

    seen = set()
    mentions = []
    for start, words in runs:
        if start == 0 and len(words) == 1:
            continue  # sentence-initial capitalization carries no signal
        while words and words[0].casefold() in LEADING_STOPWORDS:
            words = words[1:]
        if not words:
            continue
        surface = " ".join(words)
        if surface not in seen:
            seen.add(surface)
            mentions.append(EntityMention(surface))
    return mentions


def _annotation_from_row(row) -> tuple:
    """(claim id, mention surfaces) from an {id or claim_id, entities} row."""
    entities = row["entities"]
    if not isinstance(entities, list) or not all(isinstance(e, str) for e in entities):
        raise ValueError(f"entities {entities!r} is not a list of strings")
    return scalar_field(row, "id" if "id" in row else "claim_id"), entities


class FileEntityExtractor:
    """Verbatim passthrough of externally produced mentions, keyed by claim id."""

    def __init__(self, table: dict):
        self.table = table

    @classmethod
    def load(cls, path) -> "FileEntityExtractor":
        """JSON-lines {id, entities: [...]} annotations."""
        return cls(parse_table(path, "entity annotation", "claim id", _annotation_from_row))

    def __call__(self, claim_id) -> list[EntityMention]:
        return [EntityMention(s) for s in self.table.get(claim_id, []) if s.strip()]


def normalize_title(title: str) -> str:
    """Page ids use underscores for spaces; claims do not.  Case is ignored."""
    return title.replace("_", " ").casefold()


def code_points(strings) -> tuple[np.ndarray, np.ndarray]:
    """The strings' code points as one flat int32 array, and the offsets
    (len(strings) + 1 of them) where each string starts and the last ends.

    Every Unicode scalar value is kept as ``ord`` gives it, lone surrogates
    included.
    """
    offsets = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, strings), dtype=np.int64, count=len(strings)),
              out=offsets[1:])
    flat = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    return flat.astype(np.int32), offsets


def code_rows(codes, offsets, rows) -> np.ndarray:
    """Strings rows[i] of a flat code array as a zero-padded int32 matrix, as
    wide as the longest of them."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    cols = np.arange(int(lengths.max(initial=0)))
    inside = cols < lengths[:, np.newaxis]
    return np.where(inside, codes[np.where(inside, starts[:, np.newaxis] + cols, 0)], 0)


def _bigrams(codes, offsets) -> tuple[np.ndarray, np.ndarray]:
    """(key, owner) of every bigram occurrence of the strings of a flat code
    array, owners ascending; a key is first << 21 | second, as a code point
    takes 21 bits."""
    owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    within = owner[1:] == owner[:-1]
    keys = codes[:-1].astype(np.int64) << 21 | codes[1:]
    return keys[within], owner[1:][within]


def _blocks(widths):
    """[a, b) row ranges whose rows times (widest row + 1) is at most
    BLOCK_CELLS; a row wider than that is a block alone."""
    a = 0
    while a < len(widths):
        span = widths[a:a + BLOCK_CELLS // (int(widths[a]) + 1)] + 1
        cells = np.maximum.accumulate(span) * np.arange(1, len(span) + 1)
        b = a + max(1, int(np.searchsorted(cells, BLOCK_CELLS, "right")))
        yield a, b
        a = b


def edit_distances(q_codes, q_offsets, t_codes, t_offsets, q_rows, t_rows) -> np.ndarray:
    """Edit distance of each row's pair: query q_rows[r] against title t_rows[r],
    both strings of a flat code array with its offsets.

    The rows are ordered by query length, longest first, so the rows whose
    query still has characters left are always a prefix, and cut into blocks
    of at most BLOCK_CELLS DP cells.  A block holds one column per row and
    one DP entry per title position down it, and runs the rolling DP on all
    running rows at once, one query character per step.  The sequential
    dependency of the insertion term is resolved with a running minimum
    (cur[j] = min(t[j], cur[j-1] + 1) equals j + running_min(t - j)), taken
    in doubling steps: ``np.minimum.accumulate`` is several times slower on
    either axis.  An entry only reads entries above it, in its column and
    the previous step's, so padding never feeds the entry at the title's
    length, where the distance is read, and a row whose query has ended
    keeps its column.
    """
    q_rows, t_rows = np.asarray(q_rows, dtype=np.int64), np.asarray(t_rows, dtype=np.int64)
    q_len = q_offsets[q_rows + 1] - q_offsets[q_rows]
    t_len = t_offsets[t_rows + 1] - t_offsets[t_rows]
    order = np.lexsort((t_len, -q_len))
    out = np.empty(len(order), dtype=np.int32)
    for a, b in _blocks(t_len[order]):
        block = order[a:b]
        query = code_rows(q_codes, q_offsets, q_rows[block]).T.copy()
        title = code_rows(t_codes, t_offsets, t_rows[block]).T.copy()
        idx = np.arange(len(title) + 1, dtype=np.int32)[:, np.newaxis]
        prev = np.repeat(idx, len(block), axis=1)
        t, u = np.empty_like(prev), np.empty_like(prev)
        running = np.searchsorted(-q_len[block], -np.arange(len(query)), "left")
        for i, k in enumerate(running.tolist()):
            p, c, spare = prev[:, :k], t[:, :k], u[:, :k]
            c[0] = i + 1
            np.minimum(p[1:] + 1, p[:-1] + (title[:, :k] != query[i, :k]), out=c[1:])
            c -= idx
            step = 1  # running minimum down the columns, doubling the reach each step
            while step < len(idx):
                np.minimum(c[step:], c[:-step], out=spare[step:])
                spare[:step] = c[:step]
                c, spare, step = spare, c, 2 * step
            np.add(c, idx, out=p)
        out[block] = prev[t_len[block], np.arange(len(block))]
    return out


class MatchCounts(NamedTuple):
    distances: Counter  # mentions matched, by distance
    verified: int  # edit distances computed
    rounds: int  # rounds of edit distances


class TitleMatcher:
    """Nearest-title lookup over a fixed corpus, for many mentions at once.

    Titles are kept in tie-break order (shorter normalized title first, then
    lexicographic, then page id), so the first title at the minimum distance
    is the match.  Built once, the matcher holds the sorted titles' code
    points as one flat array with offsets, and an inverted index from each
    bigram to the ascending title positions that hold it, with how often
    (``_postings`` keys are gram rank × titles + position, so one
    ``searchsorted`` finds a gram's titles within a length window).

    A normalized title equal to a mention is its match at distance 0, with
    no edit distance computed.  The other mentions of a call are searched
    together, in rounds.  A title of length n that shares c of a mention's
    m − 1 bigram occurrences (counted with multiplicity) is at least
    max(|n − m|, ⌈(m − 1 − c)/2⌉) from it, since one edit destroys at most
    two bigram occurrences (the count filter: Ukkonen 1992; Navarro, ACM
    CSUR 2001).  Each mention's radius d starts at 1, or at the gap to the
    nearest title length when that is wider, or at ⌈(m − 1 − h)/2⌉ when
    that is wider still, h being its bigram occurrences that some title
    holds.  Each round
    computes, in one ``edit_distances`` call for every open mention, the
    distance to each title whose bound is at most d and was above the
    previous round's d.  A mention whose best distance is at most d is
    done: every title not computed has a bound, hence a distance, above d.
    Otherwise d rises to the best distance found, or by one if none was,
    and the next round computes only the titles that are new.  The result
    is the first sorted title at the minimum distance, as a full scan
    gives it, tie for tie.
    """

    def __init__(self, corpus: Corpus):
        if len(corpus) == 0:
            raise ValueError("cannot match titles against an empty corpus")
        pairs = sorted(((normalize_title(p), p) for p in corpus.page_ids()),
                       key=lambda tp: (len(tp[0]), tp[0], tp[1]))
        self.page_ids = [p for _, p in pairs]
        self._first: dict[str, int] = {}  # normalized title -> first sorted position
        for pos, (title, _) in enumerate(pairs):
            self._first.setdefault(title, pos)
        self._codes, self._offsets = code_points([t for t, _ in pairs])
        self._lengths = np.diff(self._offsets)
        keys, owner = _bigrams(self._codes, self._offsets)
        self._grams, rank = np.unique(keys, return_inverse=True)
        self._postings, counts = np.unique(rank * len(pairs) + owner, return_counts=True)
        self._posting_counts = counts.astype(np.int32)
        self.distances = Counter()  # matches returned, by distance
        self.verified = 0  # edit distances computed
        self.rounds = 0

    def match(self, entity: EntityMention) -> TitleMatch:
        return self.match_all([entity])[0]

    def match_all(self, entities) -> list[TitleMatch]:
        """The nearest title of each mention, all inexact ones searched together."""
        queries = [normalize_title(e.surface) for e in entities]
        found = {q: (self._first[q], 0) for q in queries if q in self._first}
        inexact = [q for q in dict.fromkeys(queries) if q not in found]
        if inexact:
            picks, dists = self._search(inexact)
            found.update(zip(inexact, zip(picks.tolist(), dists.tolist())))
        hits = [found[q] for q in queries]
        self.distances.update(d for _, d in hits)
        return [TitleMatch(self.page_ids[pick], d) for pick, d in hits]

    def _search(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """(sorted position, distance) of the nearest title of each query, in rounds."""
        n, lengths = len(self.page_ids), self._lengths
        q_codes, q_offsets = code_points(queries)
        m = np.diff(q_offsets)
        grams = self._held_bigrams(q_codes, q_offsets)
        held = np.bincount(grams[0], weights=grams[2], minlength=len(queries)).astype(np.int64)
        at = np.searchsorted(lengths, m)
        gap = np.minimum(np.abs(lengths[np.maximum(at - 1, 0)] - m),
                         np.abs(lengths[np.minimum(at, n - 1)] - m))
        # no title shares more than the held bigrams, so none is nearer than
        # ⌈(m − 1 − held)/2⌉: start no lower
        d = np.maximum(np.maximum(gap, 1), -((held - m + 1) // 2))
        prev = np.full(len(queries), -1)
        best = np.full(len(queries), np.iinfo(np.int64).max)
        pick = np.full(len(queries), n)
        open_ = np.arange(len(queries))
        while open_.size:
            self.rounds += 1
            mo, do, po = m[open_], d[open_], prev[open_]
            lo = np.searchsorted(lengths, mo - do, "left")
            hi = np.searchsorted(lengths, mo + do, "right")
            # one cell per (open query, title of its length window)
            sizes = hi - lo
            cell_q = np.repeat(np.arange(len(open_)), sizes)
            cell_t = concat_ranges(lo, sizes)
            # the shared bigrams bound a title only while m − 1 − 2d > 0, at
            # this d or (to tell the titles already computed) the previous one
            needs = mo - 1 - 2 * np.where(po >= 0, po, do) > 0
            slot = np.full(len(queries), -1)
            slot[open_[needs]] = np.flatnonzero(needs)
            shared = self._shared(grams, slot, lo, hi, np.cumsum(sizes) - sizes, len(cell_t))
            qm = mo[cell_q]
            bound = np.maximum(np.abs(lengths[cell_t] - qm), -((shared - qm + 1) // 2))
            new = (bound > po[cell_q]) & (bound <= do[cell_q])
            rows_q, rows_t = open_[cell_q[new]], cell_t[new]
            dist = edit_distances(q_codes, q_offsets, self._codes, self._offsets,
                                  rows_q, rows_t)
            self.verified += len(dist)
            # each query's first (distance, position) of this round, against its best
            order = np.lexsort((rows_t, dist, rows_q))
            heads = order[np.flatnonzero(np.diff(rows_q[order], prepend=-1))]
            q, dq, tq = rows_q[heads], dist[heads], rows_t[heads]
            better = (dq < best[q]) | ((dq == best[q]) & (tq < pick[q]))
            best[q[better]], pick[q[better]] = dq[better], tq[better]
            bo = best[open_]
            prev[open_] = do
            d[open_] = np.where(bo < np.iinfo(np.int64).max, bo, do + 1)
            open_ = open_[bo > do]
        return pick, best

    def _held_bigrams(self, q_codes, q_offsets) -> tuple:
        """(query, gram rank, count in the query) of each distinct bigram of a
        query that some title holds, in query order."""
        keys, owner = _bigrams(q_codes, q_offsets)
        rank = np.searchsorted(self._grams, keys)
        held = rank < len(self._grams)
        held[held] = self._grams[rank[held]] == keys[held]
        pairs, counts = np.unique(owner[held] * len(self._grams) + rank[held],
                                  return_counts=True)
        return (*np.divmod(pairs, max(len(self._grams), 1)), counts)

    def _shared(self, grams, slot, lo, hi, first, cells) -> np.ndarray:
        """Per window cell, the bigram occurrences that its title shares with its
        query, counted with multiplicity: for each query with a slot, whose
        titles lo[slot] .. hi[slot] - 1 are cells first[slot] on; 0 elsewhere."""
        pair_q, pair_rank, pair_counts = grams
        s = slot[pair_q]
        use = s >= 0
        s, base = s[use], pair_rank[use] * len(self.page_ids)
        start = np.searchsorted(self._postings, base + lo[s])
        count = np.searchsorted(self._postings, base + hi[s]) - start
        post = concat_ranges(start, count)
        titles = self._postings[post] - np.repeat(base, count)
        weights = np.minimum(self._posting_counts[post], np.repeat(pair_counts[use], count))
        return np.bincount(titles + np.repeat(first[s] - lo[s], count), weights=weights,
                           minlength=cells).astype(np.int64)


def claim_mentions(claim: str, *, extractor=None, claim_id=None) -> list[EntityMention]:
    """The claim's mentions: from the extractor by claim id, else the heuristic."""
    return extract_entities(claim) if extractor is None else extractor(claim_id)


def matched_pages(corpus: Corpus, mentions) -> tuple[list[set[str]], MatchCounts]:
    """Per claim, the pages its mentions (mentions[i]) match, and what matching
    did; every mention of the run is matched in one call, by a matcher built
    only if some claim has a mention, and dropped."""
    if not any(mentions):
        return [set() for _ in mentions], MatchCounts(Counter(), 0, 0)
    matcher = TitleMatcher(corpus)
    hits = iter(matcher.match_all([m for ms in mentions for m in ms]))
    pages = [{next(hits).page_id for _ in ms} for ms in mentions]
    return pages, MatchCounts(matcher.distances, matcher.verified, matcher.rounds)
