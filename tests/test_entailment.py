import json

import pytest

from claimcheck.corpus import SentenceRef
from claimcheck.entailment import (
    BaselineScorer,
    EntailmentTriple,
    FileScorer,
    MissingProbabilityError,
    ProbabilityError,
    baseline_score,
)
from claimcheck.tokenizer import tokenize


class TestTripleInvariants:
    def test_valid(self):
        t = EntailmentTriple(0.7, 0.2, 0.1)
        assert t.as_tuple() == (0.7, 0.2, 0.1)

    def test_sum_violation(self):
        with pytest.raises(ProbabilityError):
            EntailmentTriple(0.7, 0.2, 0.2)

    def test_range_violation(self):
        with pytest.raises(ProbabilityError):
            EntailmentTriple(-0.1, 0.6, 0.5)


class TestBaseline:
    def test_full_overlap(self):
        assert baseline_score(["a", "b"], ["a", "b"]).as_tuple() == (1.0, 0.0, 0.0)

    def test_negation_mismatch_flips(self):
        assert baseline_score(["a", "b"], ["a", "b", "not"]).as_tuple() == (0.0, 1.0, 0.0)

    def test_partial_overlap(self):
        assert baseline_score(["a", "b"], ["a", "c"]).as_tuple() == (0.5, 0.0, 0.5)

    def test_negation_on_both_sides_cancels(self):
        t = baseline_score(["not", "a"], ["not", "a"])
        assert t.support == 1.0

    def test_overlap_relative_to_claim_only(self):
        # same intersection, very different sentence sizes
        short = baseline_score(["a", "b"], ["a"])
        long = baseline_score(["a", "b"], ["a", "x", "y", "z", "w"])
        assert short.support == long.support == 0.5

    def test_empty_claim(self):
        assert baseline_score([], ["a"]).as_tuple() == (0.0, 0.0, 1.0)

    def test_identity_maximizes_support(self):
        t = BaselineScorer().score(None, "the mill was rebuilt", None, "the mill was rebuilt")
        assert t.support > t.refute and t.support > t.uninformative

    def test_zero_overlap_maximizes_uninformative(self):
        t = BaselineScorer().score(None, "alpha beta", None, "gamma delta")
        assert t.uninformative > t.support and t.uninformative > t.refute

    def test_deterministic(self):
        a = baseline_score(tokenize("Tarn Abbey was founded"), tokenize("Tarn Abbey"))
        b = baseline_score(tokenize("Tarn Abbey was founded"), tokenize("Tarn Abbey"))
        assert a == b


def prob_row(cid, page, line, s, r, u):
    return json.dumps({"claim_id": cid, "page_id": page, "line_number": line,
                       "support": s, "refute": r, "uninformative": u})


class TestFileScorer:
    def test_lookup(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 0.7, 0.2, 0.1) + "\n")
        scorer = FileScorer.load(p)
        t = scorer.score(1, "claim", SentenceRef("A", 0), "sentence")
        assert t.as_tuple() == (0.7, 0.2, 0.1)

    def test_missing_entry_names_pair(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 1.0, 0.0, 0.0) + "\n")
        scorer = FileScorer.load(p)
        with pytest.raises(MissingProbabilityError, match=r"claim 2.*'B'"):
            scorer.score(2, "claim", SentenceRef("B", 3), "sentence")

    def test_bad_sum_rejected(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 0.7, 0.2, 0.2) + "\n")
        with pytest.raises(ProbabilityError, match="sums to"):
            FileScorer.load(p)

    def test_negative_component_rejected(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, -0.1, 0.6, 0.5) + "\n")
        with pytest.raises(ProbabilityError):
            FileScorer.load(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 1.0, 0.0, 0.0) + "\nnot json\n")
        with pytest.raises(ProbabilityError, match="line 2"):
            FileScorer.load(p)

    def test_near_one_sum_renormalized(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 0.7004, 0.2, 0.1) + "\n")
        t = FileScorer.load(p).score(1, "c", SentenceRef("A", 0), "s")
        assert abs(sum(t.as_tuple()) - 1.0) < 1e-9
