"""Entity-driven document retrieval.

A lightweight capitalization heuristic stands in for a trained tagger:
maximal runs of capitalized tokens become mentions, except a lone
sentence-initial token (capitalized only because it opens the sentence).
Real tagger output can be injected from a JSON-lines side file instead.
Each mention is matched to the page whose normalized title is nearest by
Levenshtein distance, looking only at titles whose length lets them be
nearest; the route hands over the pages it matched, not sentences.  The
matcher keeps the sorted titles as strings and builds a code matrix only
for the slice of them it scans.
"""

import re
from collections import Counter
from typing import NamedTuple

import numpy as np

from .corpus import Corpus
from .rows import parse_table, scalar_field

LEADING_STOPWORDS = frozenset({"the", "a", "an"})

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


def code_matrix(strings) -> tuple[np.ndarray, np.ndarray]:
    """Strings as a zero-padded (n, W) int32 matrix of code points, plus lengths.

    Every Unicode scalar value is kept as ``ord`` gives it, lone surrogates
    included.
    """
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    mat = np.array(strings, dtype=np.str_).view(np.int32).reshape(len(strings), -1)
    return mat, lengths


def codes(text: str) -> np.ndarray:
    """Unicode scalar values of a string as an int32 array."""
    return np.array([ord(ch) for ch in text], dtype=np.int32)


def batch_levenshtein(mat, lengths, query):
    """Edit distance from query to each row of a zero-padded code matrix.

    Row i holds a string of lengths[i] code points followed by padding.  The
    rolling-row DP runs on all rows at once; the sequential dependency of
    the insertion term is resolved with a running minimum (cur[j] =
    min(t[j], cur[j-1] + 1) equals j + running_min(t - j)).  A cell only
    reads cells to its left and above, so padding never feeds column
    lengths[i], where row i's distance is read.
    """
    n, w = mat.shape
    idx = np.arange(w + 1, dtype=np.int32)
    prev = np.tile(idx, (n, 1))
    t = np.empty((n, w + 1), dtype=np.int32)
    for i, ch in enumerate(query.tolist()):
        t[:, 0] = i + 1
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + (mat != ch), out=t[:, 1:])
        t -= idx
        prev = np.minimum.accumulate(t, axis=1)
        prev += idx
    return prev[np.arange(n), lengths]


class TitleMatcher:
    """Nearest-title lookup over a fixed corpus.

    Titles are kept in tie-break order (shorter normalized title first, then
    lexicographic, then page id), so the first title at the minimum distance
    is the match.  The edit distance is at least the difference in length,
    and each length range is one contiguous slice of the sorted titles, so a
    match scans only the slices where the minimum can be:

    1. a normalized title equal to the query returns its first page at
       distance 0, with no edit distance computed;
    2. otherwise the titles within r of the query's length are scanned,
       r being 1, or the gap to the nearest title length when that is wider,
       and give a best distance d;
    3. if d > r, the titles within d of the query's length and not yet
       scanned are scanned too.

    Every title left out differs from the query in length by more than the
    minimum found, so the result is the first minimum of a full scan.  The
    matcher holds the sorted titles and their lengths; each scan builds the
    code matrix of its slice alone, as wide as the slice's longest title, so
    one long title costs memory only in the scans that reach it.
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
        self._titles = [t for t, _ in pairs]
        self._lengths = np.array([len(t) for t in self._titles], dtype=np.int64)
        self.distances = Counter()  # matches returned, by distance

    def match(self, entity: EntityMention) -> TitleMatch:
        pick, distance = self._nearest(normalize_title(entity.surface))
        self.distances[distance] += 1
        return TitleMatch(self.page_ids[pick], distance)

    def _nearest(self, title: str) -> tuple[int, int]:
        """(sorted position, distance) of the first title at the minimum distance."""
        if title in self._first:
            return self._first[title], 0
        n, query = len(title), codes(title)
        at = int(np.searchsorted(self._lengths, n))  # the nearest lengths sit at at-1, at
        near = self._lengths[[max(at - 1, 0), min(at, len(self.page_ids) - 1)]]
        radius = max(1, int(np.abs(near - n).min()))
        lo, hi = self._window(n, radius)
        dists = self._scan(lo, hi, query)
        best = int(dists.min())
        if best > radius:  # widen to best: scan the titles on either side of the slice
            wide_lo, wide_hi = self._window(n, best)
            dists = np.concatenate([self._scan(wide_lo, lo, query), dists,
                                    self._scan(hi, wide_hi, query)])
            lo = wide_lo
        pick = int(np.argmin(dists))
        return lo + pick, int(dists[pick])

    def _window(self, length: int, radius: int) -> tuple[int, int]:
        """[lo, hi) of the sorted titles whose length is within radius of length."""
        return (int(np.searchsorted(self._lengths, length - radius, "left")),
                int(np.searchsorted(self._lengths, length + radius, "right")))

    def _scan(self, lo: int, hi: int, query) -> np.ndarray:
        """Edit distances to titles lo..hi-1, over the code matrix of just those titles."""
        if lo == hi:
            return np.empty(0, dtype=np.int32)
        return batch_levenshtein(*code_matrix(self._titles[lo:hi]), query)


def claim_mentions(claim: str, *, extractor=None, claim_id=None) -> list[EntityMention]:
    """The claim's mentions: from the extractor by claim id, else the heuristic."""
    return extract_entities(claim) if extractor is None else extractor(claim_id)


def matched_pages(corpus: Corpus, mentions) -> tuple[list[set[str]], Counter]:
    """Per claim, the pages its mentions (mentions[i]) match, and the matches by
    distance; a matcher is built only if some claim has a mention, and dropped."""
    if not any(mentions):
        return [set() for _ in mentions], Counter()
    matcher = TitleMatcher(corpus)
    return [{matcher.match(m).page_id for m in ms} for ms in mentions], matcher.distances
