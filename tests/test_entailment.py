import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from claimcheck import entailment
from claimcheck.corpus import Corpus, Document, SentenceRef
from claimcheck.entailment import (
    NEGATION_CUES,
    BaselineScorer,
    FileScorer,
    check_triples,
    score_candidates,
    score_pairs,
)
from claimcheck.tokenizer import tokenize


class TestTripleInvariants:
    """check_triples, the one check of a triple held in memory."""

    def test_valid(self):
        check_triples(np.array([[0.7, 0.2, 0.1], [0.5, 0.5, 0.0]]))

    @pytest.mark.parametrize("row", [lambda d: (0.5, 0.5, d), lambda d: (0.5, 0.5 - d, 0.0)],
                             ids=["above", "below"])
    def test_sum_tolerance(self, row):  # a sum off by 1e-6 passes, by 2e-6 it does not
        check_triples(np.array([row(1e-6)]))
        with pytest.raises(ValueError, match="sum to 1"):
            check_triples(np.array([row(2e-6)]))

    def test_sum_violation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_triples(np.array([[0.7, 0.2, 0.2]]))

    def test_range_violation(self):
        for bad in [(-0.1, 0.6, 0.5), (1.1, -0.1, 0.0), (0.0, 1.1, -0.1)]:
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                check_triples(np.array([bad]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, value):
        with pytest.raises(ValueError, match="pair 0 has triple"):
            check_triples(np.array([[value, 0.5, 0.5]]))

    def test_message_names_first_bad_pair(self):
        triples = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.7, 0.2, 0.2], [-0.1, 0.6, 0.5]])
        with pytest.raises(ValueError, match=r"pair 2 has triple \(0\.7, 0\.2, 0\.2\)"):
            check_triples(triples)


def baseline(claim: str, sentence: str) -> tuple:
    """The baseline triple of one (claim, sentence) pair, scored by score_candidates."""
    corpus = Corpus()
    corpus.add_document(Document("P", "", {0: sentence}))
    [scored] = score_candidates(BaselineScorer(), None, claim, [SentenceRef("P", 0)], corpus)
    assert tuple(scored.triple) == oracles.baseline_triple(claim, sentence)
    return scored.triple


class TestBaseline:
    def test_full_overlap(self):
        assert tuple(baseline("a b", "a b")) == (1.0, 0.0, 0.0)

    def test_negation_mismatch_flips(self):
        assert tuple(baseline("a b", "a b not")) == (0.0, 1.0, 0.0)

    def test_partial_overlap(self):
        assert tuple(baseline("a b", "a c")) == (0.5, 0.0, 0.5)

    def test_negation_on_both_sides_cancels(self):
        t = baseline("not a", "not a")
        assert t[0] == 1.0

    def test_overlap_relative_to_claim_only(self):
        # same intersection, very different sentence sizes
        short = baseline("a b", "a")
        long = baseline("a b", "a x y z w")
        assert short[0] == long[0] == 0.5

    def test_empty_claim(self):
        assert tuple(baseline("", "a")) == (0.0, 0.0, 1.0)

    def test_identity_maximizes_support(self):
        t = baseline("the mill was rebuilt", "the mill was rebuilt")
        assert t[0] > t[1] and t[0] > t[2]

    def test_zero_overlap_maximizes_uninformative(self):
        t = baseline("alpha beta", "gamma delta")
        assert t[2] > t[0] and t[2] > t[1]

    def test_deterministic(self):
        a = baseline("Tarn Abbey was founded", "Tarn Abbey")
        b = baseline("Tarn Abbey was founded", "Tarn Abbey")
        assert a == b

    def test_negation_cues_are_single_tokens(self):
        for cue in NEGATION_CUES:
            assert tokenize(cue) == [cue]

    def test_contraction_negates(self):
        assert baseline("The bridge is open.", "The bridge is open.") == (1.0, 0.0, 0.0)
        assert baseline("The bridge is open.", "The bridge isn't open.") == (0.0, 0.75, 0.25)
        assert baseline("The bridge is open.", "The bridge ISN’T open.") == (0.0, 0.75, 0.25)
        assert baseline("It can't fly.", "It didn't fly.") == (0.75, 0.0, 0.25)
        # tokenize reads "John T. Smith" with a token t too, which negates nothing
        assert baseline("John Smith is here.", "John T. Smith is here.") == (1.0, 0.0, 0.0)


def prob_row(cid, page, line, s, r, u):
    return json.dumps({"claim_id": cid, "page_id": page, "line_number": line,
                       "support": s, "refute": r, "uninformative": u})


class TestFileScorer:
    def test_lookup(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 0.7, 0.2, 0.1) + "\n")
        scorer = FileScorer.load(p)
        t = scorer.score(1, "claim", SentenceRef("A", 0), "sentence")
        assert tuple(t) == (0.7, 0.2, 0.1)

    def test_missing_entry_names_pair(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 1.0, 0.0, 0.0) + "\n")
        scorer = FileScorer.load(p)
        with pytest.raises(ValueError, match=r"claim 2.*'B'"):
            scorer.score(2, "claim", SentenceRef("B", 3), "sentence")

    def test_bad_sum_rejected(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 0.7, 0.2, 0.2) + "\n")
        with pytest.raises(ValueError, match="sums to"):
            FileScorer.load(p)

    def test_negative_component_rejected(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, -0.1, 0.6, 0.5) + "\n")
        with pytest.raises(ValueError, match=r"component out of \[0, 1\] in \(-0\.1, "):
            FileScorer.load(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 1.0, 0.0, 0.0) + "\nnot json\n")
        with pytest.raises(ValueError, match="line 2"):
            FileScorer.load(p)

    def test_near_one_sum_renormalized(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 0.7004, 0.2, 0.1) + "\n")
        t = FileScorer.load(p).score(1, "c", SentenceRef("A", 0), "s")
        assert abs(sum(t) - 1.0) < 1e-9


WORDS = st.sampled_from(["not", "no", "never", "Mill", "abbey", "harbor", "stone", "was",
                         "the", "n't"])


@st.composite
def baseline_runs(draw):
    """(corpus, claims, candidates): one page of drawn sentences, and claims whose
    candidates are distinct sentences of it in drawn order."""
    sentences = draw(st.lists(st.lists(WORDS, max_size=8).map(" ".join), min_size=1,
                              max_size=6))
    corpus = Corpus()
    corpus.add_document(Document("Page", "", dict(enumerate(sentences))))
    texts = draw(st.lists(st.lists(WORDS, max_size=6).map(" ".join), max_size=5))
    claims = [SimpleNamespace(claim_id=i, claim=text) for i, text in enumerate(texts)]
    candidates = [[SentenceRef("Page", n) for n in draw(
        st.lists(st.integers(0, len(sentences) - 1), unique=True))] for _ in claims]
    return corpus, claims, candidates


class PairScorer:
    """The baseline reference through the one-pair protocol alone."""

    def score(self, claim_id, claim, ref, sentence):
        return oracles.baseline_triple(claim, sentence)


class TestScorePairs:
    @settings(max_examples=200, deadline=None)
    @given(baseline_runs())
    def test_baseline_equals_per_pair_reference_bits(self, run):
        corpus, claims, candidates = run
        pairs = score_pairs(BaselineScorer(), claims, candidates, corpus)
        want = [oracles.baseline_triple(claim.claim, corpus.get_sentence(ref))
                for claim, refs in zip(claims, candidates) for ref in refs]
        assert pairs.triples.tobytes() == np.array(want).reshape(-1, 3).tobytes()
        assert pairs.claims.tolist() == [c for c, refs in enumerate(candidates) for _ in refs]
        assert pairs.refs == [ref for refs in candidates for ref in refs]
        by_pair = score_pairs(PairScorer(), claims, candidates, corpus)
        assert by_pair.triples.tobytes() == pairs.triples.tobytes()

    def test_each_distinct_claim_and_sentence_tokenized_once(self, mini_corpus,
                                                             mini_instances, monkeypatch):
        rng = np.random.default_rng(5)
        refs = [ref for doc in mini_corpus.documents() for ref in doc.non_empty_refs()]
        candidates = [[refs[i] for i in rng.choice(40, size=6, replace=False)]
                      for _ in mini_instances]  # 30 claims share 40 sentences
        texts = Counter()
        monkeypatch.setattr(entailment, "tokenize",
                            lambda text: texts.update([text]) or tokenize(text))
        pairs = score_pairs(BaselineScorer(), mini_instances, candidates, mini_corpus)
        sentences = {ref for group in candidates for ref in group}
        claims = {inst.claim for inst in mini_instances}
        assert texts.total() == len(claims) + len(sentences) < len(pairs.refs) + len(claims)
        assert set(texts) == claims | {mini_corpus.get_sentence(ref) for ref in sentences}
        assert len(pairs.refs) == 6 * len(mini_instances)

    def test_pairs_visited_sentence_by_sentence_each_once(self, mini_corpus, mini_instances):
        rng = np.random.default_rng(7)
        refs = [ref for doc in mini_corpus.documents() for ref in doc.non_empty_refs()]
        candidates = [[refs[i] for i in rng.choice(40, size=6, replace=False)]
                      for _ in mini_instances]
        seen = []

        class Recorder:
            def score(self, claim_id, claim, ref, sentence):
                assert sentence == mini_corpus.get_sentence(ref)
                seen.append((claim_id, ref))
                return 1.0, 0.0, 0.0

        score_pairs(Recorder(), mini_instances, candidates, mini_corpus)
        pairs = [(inst.claim_id, ref) for inst, group in zip(mini_instances, candidates)
                 for ref in group]
        assert sorted(seen) == sorted(pairs) and len(set(seen)) == len(seen)
        order = [ref for _, ref in seen]
        assert order == sorted(order)  # each ref's pairs one after another

    def test_baseline_reused_on_another_corpus_scores_its_text(self):
        ref = SentenceRef("Page", 0)
        claims = [SimpleNamespace(claim_id=1, claim="the mill was rebuilt")]
        scorer = BaselineScorer()
        for sentence in ("the mill was rebuilt", "the mill was not rebuilt", "an abbey"):
            corpus = Corpus()
            corpus.add_document(Document("Page", "", {0: sentence}))
            pairs = score_pairs(scorer, claims, [[ref]], corpus)
            want = oracles.baseline_triple(claims[0].claim, sentence)
            assert tuple(pairs.triples[0].tolist()) == want

    def test_file_scorer_batch_names_a_missing_pair(self, mini_corpus):
        ref = SentenceRef(*next(iter(mini_corpus.documents())).non_empty_refs()[0])
        scorer = FileScorer({(1, *ref): (0.5, 0.25, 0.25)})
        claims = [SimpleNamespace(claim_id=1, claim="c"), SimpleNamespace(claim_id=2, claim="c")]
        pairs = score_pairs(scorer, claims[:1], [[ref]], mini_corpus)
        assert pairs.triples.tolist() == [[0.5, 0.25, 0.25]]
        with pytest.raises(ValueError, match=r"claim 2"):
            score_pairs(scorer, claims, [[ref], [ref]], mini_corpus)

    @pytest.mark.parametrize("bad", [(0.7, 0.2, 0.2), (-0.1, 0.6, 0.5), (np.nan, 0.5, 0.5)])
    def test_bad_triple_of_a_scorer_rejected(self, mini_corpus, bad):
        class Scorer:  # a good triple for claim 1, the bad one for claim 2
            def score(self, claim_id, claim, ref, sentence):
                return (0.5, 0.25, 0.25) if claim_id == 1 else bad

        ref = next(iter(mini_corpus.documents())).non_empty_refs()[0]
        claims = [SimpleNamespace(claim_id=i, claim="c") for i in (1, 2)]
        pairs = score_pairs(Scorer(), claims, [[ref], []], mini_corpus)
        assert pairs.triples.tolist() == [[0.5, 0.25, 0.25]]
        with pytest.raises(ValueError, match=r"pair 1 has triple"):
            score_pairs(Scorer(), claims, [[ref], [ref]], mini_corpus)
