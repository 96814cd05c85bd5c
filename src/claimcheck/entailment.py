"""Per-sentence entailment probability triples (support, refute, uninformative).

A run's candidate sentences are the rows of one ``corpus.SentenceTable``,
and its (claim, candidate) pairs are two parallel int64 arrays: the claim
index of each pair, an index into the run's claims, and its table row.
``score_pairs`` scores them all in one call and returns ``ScoredPairs``:

- ``claims`` and ``rows``: the pairs as given;
- ``triples``: an (n, 3) float64 array, one (support, refute,
  uninformative) row per pair;
- ``table``: the sentence table the rows index.

Every triple's components lie in [0, 1] and sum to 1 within SUM_TOLERANCE:
the baseline builds them so, and a probability file's rows are checked and
renormalized where they are read (``triple_from_row``).
``score_candidates`` is the one-claim call of the same code.

The scorer is pluggable, and every scorer has one method,
``score_all(instances, table, claims, rows)``, which returns the (n, 3)
triples of every pair of a run.  The built-in baseline is a token-overlap
heuristic whose only job is to make every label reachable in tests and
smoke runs (a negation cue token or an n't contraction on one side only
flips support to refute): it makes one token set per distinct claim and
row, as the hasher splits the text (``tokenizer.token_bytes``), counts each
pair's shared tokens row by row, so that one row's set is alive at a time,
and then computes every pair's triple in one numpy pass.  Real model
output is injected from a JSON-lines probability file instead of being
computed in-process (``FileScorer``).
"""

import math
import re
from collections import Counter
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .corpus import SentenceRef, SentenceTable, table_of_refs
from .rows import file_error, number_field, parse_table, scalar_field, sentence_ref
from .tokenizer import token_bytes

SUM_TOLERANCE = 1e-6
LOAD_SUM_TOLERANCE = 1e-3
TRIPLE_FIELDS = ("support", "refute", "uninformative")  # row keys of a triple
PAIRS_FIELD = "pairs"  # row key of a scored row's claim pair count
NEGATION_CUES = frozenset({"not", "no", "never", "neither", "nor"})  # tokenize tokens
_CUE_BYTES = frozenset(cue.encode("ascii") for cue in NEGATION_CUES)
_CONTRACTION = re.compile(r"n['’]t\b", re.IGNORECASE)  # tokenize splits "isn't" as isn, t


class ScoredCandidate(NamedTuple):
    ref: SentenceRef
    triple: tuple  # (support, refute, uninformative)


class ScoredPairs(NamedTuple):
    """The scored pairs of a run: claim index, table row and triple of each
    pair, and the table its rows index."""

    claims: np.ndarray  # (n,) int64
    rows: np.ndarray  # (n,) int64
    triples: np.ndarray  # (n, 3) float64
    table: SentenceTable


def _token_set(text) -> tuple[frozenset, bool]:
    """A text's set of tokens (as bytes) and whether it is negated: a text is
    negated if it holds a cue token or the contraction n't."""
    tokens = frozenset(token_bytes(text).split())
    return tokens, (not tokens.isdisjoint(_CUE_BYTES)
                    or (("'" in text or "’" in text) and _CONTRACTION.search(text) is not None))


class BaselineScorer:
    """Token overlap of every pair of a run.

    Overlap o is the share of the claim's tokens found in the sentence (0 for
    a claim without tokens); a negation mismatch flips support to refute.
    """

    def score_all(self, instances, table: SentenceTable, claims, rows) -> np.ndarray:
        used, claim_at = np.unique(claims, return_inverse=True)
        claim_sets = [_token_set(instances[c].claim) for c in used.tolist()]
        # pairs row by row, so that one row's token set is alive at a time
        order = np.argsort(rows, kind="stable")
        common, mismatch, row = [], [], None
        for r, c in zip(rows[order].tolist(), claim_at[order].tolist()):
            if r != row:
                row, (row_tokens, row_negated) = r, _token_set(table.texts[r])
            claim_tokens, claim_negated = claim_sets[c]
            common.append(len(claim_tokens & row_tokens))
            mismatch.append(claim_negated != row_negated)
        shared, g = np.empty(rows.size), np.empty(rows.size)
        shared[order], g[order] = common, mismatch
        size = np.array([len(tokens) for tokens, _ in claim_sets], dtype=np.float64)[claim_at]
        o = np.divide(shared, size, out=np.zeros(rows.size), where=size > 0)
        raw = np.stack([o * (1.0 - g), o * g, 1.0 - o], axis=1)
        total = raw[:, 0] + raw[:, 1] + raw[:, 2]  # guards rounding; mathematically already 1
        return raw / total[:, np.newaxis]


def triple_rows(claim_ids, pairs: ScoredPairs):
    """One {claim_id, page_id, line_number, support, refute, uninformative,
    pairs} row per scored pair, claim_ids[c] being the id of claim index c and
    pairs the number of pairs of the row's claim: the format triple_from_row
    and read_scored read."""
    counts = np.bincount(pairs.claims, minlength=len(claim_ids)).tolist()
    for c, ref, triple in zip(pairs.claims.tolist(), pairs.table.refs(pairs.rows),
                              pairs.triples.tolist()):
        yield {"claim_id": claim_ids[c], "page_id": ref.page_id,
               "line_number": ref.line_number, **dict(zip(TRIPLE_FIELDS, triple)),
               PAIRS_FIELD: counts[c]}


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


def _scored_from_row(row) -> tuple:
    """((claim id, page id, line), (triple, pair count)) of a scored row, as
    triple_from_row reads it; the pair count is None when the row has none."""
    key, triple = triple_from_row(row)
    count = row.get(PAIRS_FIELD)
    if count is not None and not (type(count) is int and count >= 1):
        raise ValueError(f"{PAIRS_FIELD} {count!r} is not a positive integer")
    return key, (triple, count)


def read_scored(path) -> dict:
    """{(claim id, page id, line): triple} of a scored-row file.  A claim
    whose rows do not number the pair count they carry (a file that lost
    rows), or a row without the count, is refused."""
    scored = parse_table(path, "scored", "(claim id, page id, line)", _scored_from_row)
    found = Counter(claim_id for claim_id, _, _ in scored)
    for (claim_id, _, _), (_, count) in scored.items():
        if count is None:
            raise file_error(path, f"scored file {path} has no {PAIRS_FIELD} field in the rows "
                                   f"of claim {claim_id!r}: re-run features to write it")
        if count != found[claim_id]:
            raise file_error(path, f"scored file {path} has {found[claim_id]} rows of claim "
                                   f"{claim_id!r}, whose rows give {count} pairs")
    return {key: triple for key, (triple, _) in scored.items()}


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

    def score_all(self, instances, table: SentenceTable, claims, rows) -> np.ndarray:
        """The triple of every pair; of the pairs the table lacks, the one of
        the lowest (row, claim index) is named."""
        keys = [(instances[c].claim_id, *ref)
                for c, ref in zip(claims.tolist(), table.refs(rows))]
        triples = [self.table.get(key) for key in keys]
        missing = [i for i, triple in enumerate(triples) if triple is None]
        if missing:
            claim_id, page_id, line = keys[min(missing, key=lambda i: (rows[i], claims[i]))]
            raise ValueError(f"{self.source} has no probability entry for claim {claim_id!r}, "
                             f"sentence ({page_id!r}, {line})")
        return np.array(triples, dtype=np.float64).reshape(-1, 3)


def score_pairs(scorer, instances, table: SentenceTable, claims, rows) -> ScoredPairs:
    """Score every (claim, row) pair of a run in one call: pair i is claim
    instances[claims[i]] (anything with a claim_id and a claim text) and row
    rows[i] of the table."""
    claims = np.asarray(claims, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    triples = np.asarray(scorer.score_all(instances, table, claims, rows),
                         dtype=np.float64).reshape(-1, 3)
    return ScoredPairs(claims, rows, triples, table)


def score_candidates(scorer, claim_id, claim: str, refs, corpus) -> list[ScoredCandidate]:
    """Score every ref of one claim, in the given order: a one-claim call of
    score_pairs."""
    table, rows = table_of_refs(refs, corpus.get_sentence)
    pairs = score_pairs(scorer, [SimpleNamespace(claim_id=claim_id, claim=claim)], table,
                        np.zeros(len(rows), dtype=np.int64), rows)
    return [ScoredCandidate(ref, tuple(triple))
            for ref, triple in zip(refs, pairs.triples.tolist())]
