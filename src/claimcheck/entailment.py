"""Per-sentence entailment probability triples (support, refute, uninformative).

The scorer is pluggable.  The built-in baseline is a token-overlap heuristic
whose only job is to make every label reachable in tests and smoke runs; real
model output is injected from a JSON-lines probability file instead of being
computed in-process.
"""

import math
from dataclasses import dataclass

from .corpus import SentenceRef
from .rows import number_field, parse_table, scalar_field, sentence_ref
from .tokenizer import tokenize

SUM_TOLERANCE = 1e-6
LOAD_SUM_TOLERANCE = 1e-3
TRIPLE_FIELDS = ("support", "refute", "uninformative")  # row keys of a triple
NEGATION_CUES = frozenset({"not", "no", "never", "n't", "neither", "nor"})


class ProbabilityError(ValueError):
    pass


class MissingProbabilityError(ProbabilityError):
    def __init__(self, claim_id, ref: SentenceRef):
        super().__init__(
            f"no probability entry for claim {claim_id!r}, "
            f"sentence ({ref.page_id!r}, {ref.line_number})"
        )
        self.claim_id = claim_id
        self.ref = ref


@dataclass(frozen=True)
class EntailmentTriple:
    support: float
    refute: float
    uninformative: float

    def __post_init__(self):
        for value in (self.support, self.refute, self.uninformative):
            if not (0.0 <= value <= 1.0):
                raise ProbabilityError(f"component out of [0, 1]: {self!r}")
        total = self.support + self.refute + self.uninformative
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=SUM_TOLERANCE):
            raise ProbabilityError(f"components sum to {total!r}, not 1: {self!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.support, self.refute, self.uninformative)


@dataclass(frozen=True)
class ScoredCandidate:
    ref: SentenceRef
    triple: EntailmentTriple


def baseline_score(claim_tokens, sentence_tokens) -> EntailmentTriple:
    """Overlap o relative to the claim; negation mismatch flips support to refute."""
    claim_set, sentence_set = set(claim_tokens), set(sentence_tokens)
    o = len(claim_set & sentence_set) / len(claim_set) if claim_set else 0.0
    g = 1 if (bool(claim_set & NEGATION_CUES) != bool(sentence_set & NEGATION_CUES)) else 0
    raw = (o * (1 - g), o * g, 1.0 - o)
    total = sum(raw)  # guards rounding; mathematically already 1
    return EntailmentTriple(raw[0] / total, raw[1] / total, raw[2] / total)


class BaselineScorer:
    def score(self, claim_id, claim: str, ref, sentence: str) -> EntailmentTriple:
        return baseline_score(tokenize(claim), tokenize(sentence))


def triple_rows(claim_id, candidates):
    """One {claim_id, page_id, line_number, support, refute, uninformative} row
    per scored candidate: the format triple_from_row reads."""
    for cand in candidates:
        yield {"claim_id": claim_id, "page_id": cand.ref.page_id,
               "line_number": cand.ref.line_number,
               **dict(zip(TRIPLE_FIELDS, cand.triple.as_tuple()))}


def triple_from_row(row) -> tuple:
    """((claim id, page id, line), triple); a sum off by up to LOAD_SUM_TOLERANCE
    is renormalized."""
    key = (scalar_field(row, "claim_id"), *sentence_ref(row["page_id"], row["line_number"]))
    values = tuple(float(number_field(row, k)) for k in TRIPLE_FIELDS)
    if not all(0.0 <= v <= 1.0 for v in values):
        raise ProbabilityError(f"component out of [0, 1] in {values}")
    total = sum(values)
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=LOAD_SUM_TOLERANCE):
        raise ProbabilityError(f"triple {values} sums to {total}, not 1")
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=SUM_TOLERANCE):
        values = tuple(v / total for v in values)
    return key, EntailmentTriple(*values)


class FileScorer:
    """Exact lookup of externally computed triples keyed by (claim, page, line)."""

    def __init__(self, table: dict):
        self.table = table

    @classmethod
    def load(cls, path) -> "FileScorer":
        """JSON-lines {claim_id, page_id, line_number, support, refute, uninformative}."""
        return cls(parse_table(path, "probability", "(claim id, page id, line)",
                               triple_from_row, ProbabilityError))

    def score(self, claim_id, claim: str, ref: SentenceRef, sentence: str) -> EntailmentTriple:
        key = (claim_id, ref.page_id, ref.line_number)
        if key not in self.table:
            raise MissingProbabilityError(claim_id, ref)
        return self.table[key]


def score_candidates(scorer, claim_id, claim: str, refs, corpus) -> list[ScoredCandidate]:
    """Score every ref, in the given order; each must name a sentence of the corpus."""
    return [ScoredCandidate(ref, scorer.score(claim_id, claim, ref, corpus.get_sentence(ref)))
            for ref in refs]
