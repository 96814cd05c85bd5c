"""Per-sentence entailment probability triples (support, refute, uninformative).

A run scores all its (claim, candidate sentence) pairs in one call,
``score_pairs``.  It returns three parallel pair arrays, ``ScoredPairs``:

- ``claims``: the claim index of each pair (int64), an index into the run's
  claims;
- ``refs``: the SentenceRef of each pair;
- ``triples``: an (n, 3) float64 array, one (support, refute,
  uninformative) row per pair.

Pairs come in claim order, each claim's candidates in the order given.  The
triple checks (every component in [0, 1], the sum within SUM_TOLERANCE of 1),
``check_triples``, run once over the whole array.  ``score_candidates`` is
the one-claim call of the same code; its ScoredCandidates hold each triple
as the plain tuple that check passed.

The scorer is pluggable, and every scorer has one method,
``score(claim_id, claim, ref, sentence)``, which returns the triple of one
pair.  score_pairs calls it once per pair, visiting the pairs sentence by
sentence (in SentenceRef order), so a scorer that keeps the current
sentence's work is never asked for it twice.  The built-in baseline is a
token-overlap heuristic whose only job is to make every label reachable in
tests and smoke runs (a negation cue token or an n't contraction on one side
only flips support to refute); real model output is injected from a JSON-lines
probability file instead of being computed in-process.
"""

import math
import re
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .corpus import SentenceRef
from .rows import number_field, parse_table, scalar_field, sentence_ref
from .tokenizer import tokenize

SUM_TOLERANCE = 1e-6
LOAD_SUM_TOLERANCE = 1e-3
TRIPLE_FIELDS = ("support", "refute", "uninformative")  # row keys of a triple
NEGATION_CUES = frozenset({"not", "no", "never", "neither", "nor"})  # tokenize tokens


class ScoredCandidate(NamedTuple):
    ref: SentenceRef
    triple: tuple  # (support, refute, uninformative), as check_triples passed it


class ScoredPairs(NamedTuple):
    """The scored pairs of a run: claim index, ref and triple row of each pair."""

    claims: np.ndarray  # (n,) int64
    refs: list  # of SentenceRef
    triples: np.ndarray  # (n, 3) float64


def check_triples(triples: np.ndarray) -> None:
    """Refuse an (n, 3) array of triples unless every component lies in [0, 1]
    and every row sums to 1 within SUM_TOLERANCE; NaN and inf fail both."""
    total = triples[:, 0] + triples[:, 1] + triples[:, 2]
    good = ((triples >= 0.0) & (triples <= 1.0)).all(axis=1)
    good &= np.abs(total - 1.0) <= SUM_TOLERANCE
    if not good.all():
        i = int(np.argmin(good))
        raise ValueError(f"pair {i} has triple {tuple(triples[i].tolist())}: its "
                         "components must lie in [0, 1] and sum to 1")


def _bag(text: str) -> tuple:
    """(token set, whether the text is negated): a text is negated if it holds
    a cue token or the contraction n't, which tokenize splits ("isn't" is
    isn, t)."""
    tokens = set(tokenize(text))
    return tokens, (not tokens.isdisjoint(NEGATION_CUES)
                    or re.search(r"n['’]t\b", text, re.IGNORECASE) is not None)


def _overlap_triple(claim_bag, sentence_bag) -> tuple:
    """The baseline triple of a claim and a sentence, each a _bag.

    Overlap o is the share of the claim's tokens found in the sentence (0 for
    an empty claim); a negation mismatch flips support to refute.
    """
    (c, c_neg), (s, s_neg) = claim_bag, sentence_bag
    o = len(c & s) / len(c) if c else 0.0
    g = float(c_neg != s_neg)
    raw = (o * (1.0 - g), o * g, 1.0 - o)
    total = raw[0] + raw[1] + raw[2]  # guards rounding; mathematically already 1
    return raw[0] / total, raw[1] / total, raw[2] / total


class BaselineScorer:
    """Token overlap of one pair at a time.

    Each claim's tokens are kept by claim text, and the last sentence's by
    its text, so a run visited sentence by sentence tokenizes each distinct
    claim and sentence once; keying by text, not by ref, keeps a scorer
    reused on another corpus from scoring stale tokens.
    """

    def __init__(self):
        self._claims = {}  # claim text -> _bag of its tokens
        self._sentence = self._sentence_bag = None  # the last sentence scored

    def score(self, claim_id, claim: str, ref: SentenceRef, sentence: str) -> tuple:
        claim_bag = self._claims.get(claim)
        if claim_bag is None:
            claim_bag = self._claims[claim] = _bag(claim)
        if sentence != self._sentence:
            self._sentence, self._sentence_bag = sentence, _bag(sentence)
        return _overlap_triple(claim_bag, self._sentence_bag)


def triple_rows(claim_ids, pairs: ScoredPairs):
    """One {claim_id, page_id, line_number, support, refute, uninformative} row
    per scored pair, claim_ids[c] being the id of claim index c: the format
    triple_from_row reads."""
    for c, ref, triple in zip(pairs.claims.tolist(), pairs.refs, pairs.triples.tolist()):
        yield {"claim_id": claim_ids[c], "page_id": ref.page_id,
               "line_number": ref.line_number, **dict(zip(TRIPLE_FIELDS, triple))}


def triple_from_row(row) -> tuple:
    """((claim id, page id, line), triple); a sum off by up to LOAD_SUM_TOLERANCE
    is renormalized."""
    key = (scalar_field(row, "claim_id"), *sentence_ref(row["page_id"], row["line_number"]))
    values = tuple(float(number_field(row, k)) for k in TRIPLE_FIELDS)
    if not all(0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"component out of [0, 1] in {values}")
    total = sum(values)
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=LOAD_SUM_TOLERANCE):
        raise ValueError(f"triple {values} sums to {total}, not 1")
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=SUM_TOLERANCE):
        values = tuple(v / total for v in values)
    return key, values


class FileScorer:
    """Exact lookup of externally computed triples keyed by (claim, page, line)."""

    def __init__(self, table: dict, source="the probability table"):
        self.table = table
        self.source = source  # names the table when it lacks a pair

    @classmethod
    def load(cls, path) -> "FileScorer":
        """JSON-lines {claim_id, page_id, line_number, support, refute, uninformative}."""
        return cls(parse_table(path, "probability", "(claim id, page id, line)",
                               triple_from_row), path)

    def score(self, claim_id, claim: str, ref: SentenceRef, sentence: str) -> tuple:
        try:
            return self.table[(claim_id, *ref)]
        except KeyError:
            raise ValueError(f"{self.source} has no probability entry for claim {claim_id!r}, "
                             f"sentence ({ref.page_id!r}, {ref.line_number})") from None


def score_pairs(scorer, instances, candidates, corpus) -> ScoredPairs:
    """Score every (claim, candidate) pair of a run in one call.

    instances[i], anything with a claim_id and a claim text, has the candidate
    refs candidates[i]; each must name a sentence of the corpus.
    """
    sizes = [len(refs) for refs in candidates]
    claims = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    refs = [ref for group in candidates for ref in group]
    owners = [instances[c] for c in claims.tolist()]
    triples, ref = [None] * len(refs), None
    for i in sorted(range(len(refs)), key=refs.__getitem__):  # sentence by sentence
        if refs[i] != ref:
            ref = refs[i]
            sentence = corpus.get_sentence(ref)
        triples[i] = scorer.score(owners[i].claim_id, owners[i].claim, ref, sentence)
    triples = np.array(triples, dtype=np.float64).reshape(-1, 3)
    check_triples(triples)
    return ScoredPairs(claims, refs, triples)


def score_candidates(scorer, claim_id, claim: str, refs, corpus) -> list[ScoredCandidate]:
    """Score every ref of one claim, in the given order: a one-claim call of
    score_pairs."""
    pairs = score_pairs(scorer, [SimpleNamespace(claim_id=claim_id, claim=claim)], [refs],
                        corpus)
    return [ScoredCandidate(ref, tuple(triple))
            for ref, triple in zip(pairs.refs, pairs.triples.tolist())]
