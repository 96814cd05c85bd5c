import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from claimcheck import entailment
from claimcheck.corpus import Corpus, Document, SentenceRef, table_of_refs
from claimcheck.entailment import (
    NEGATION_CUES,
    TRIPLE_FIELDS,
    BaselineScorer,
    FileScorer,
    score_candidates,
    score_pairs,
    triple_from_row,
)
from claimcheck.tokenizer import tokenize


def triple_of(values) -> tuple:
    """The triple triple_from_row reads from a row holding values."""
    return triple_from_row({"claim_id": 1, "page_id": "A", "line_number": 0,
                            **dict(zip(TRIPLE_FIELDS, values))})[1]


class TestTripleInvariants:
    """triple_from_row, the one check of a triple: every component in [0, 1] and
    the sum within LOAD_SUM_TOLERANCE of 1, renormalized unless within
    SUM_TOLERANCE."""

    def test_valid(self):  # a sum within SUM_TOLERANCE keeps its values
        for values in [(0.7, 0.2, 0.1), (0.5, 0.5, 0.0), (0.5, 0.5, 5e-7)]:
            assert triple_of(values) == values

    @pytest.mark.parametrize("row", [lambda d: (0.5, 0.5, d), lambda d: (0.5, 0.5 - d, 0.0)],
                             ids=["above", "below"])
    def test_sum_tolerance(self, row):  # a sum off by 0.9e-3 is renormalized, by 1.1e-3 refused
        assert sum(triple_of(row(0.9e-3))) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="sums to"):
            triple_of(row(1.1e-3))

    def test_sum_violation(self):
        for values in [(0.7, 0.2, 0.2), (0.5, 0.2, 0.1)]:
            with pytest.raises(ValueError, match="sums to"):
                triple_of(values)

    def test_range_violation(self):
        for bad in [(-0.1, 0.6, 0.5), (1.1, -0.1, 0.0), (0.0, 1.1, -0.1)]:
            with pytest.raises(ValueError, match=r"component out of \[0, 1\]"):
                triple_of(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, value, tmp_path):  # JSON's NaN and Infinity
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, value, 0.5, 0.5) + "\n")
        with pytest.raises(ValueError, match=r"on line 1: component out of \[0, 1\]"):
            FileScorer.load(p)

    def test_message_names_first_bad_pair(self, tmp_path):
        triples = [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.7, 0.2, 0.2), (-0.1, 0.6, 0.5)]
        p = tmp_path / "probs.jsonl"
        p.write_text("".join(prob_row(1, "A", n, *t) + "\n" for n, t in enumerate(triples)))
        with pytest.raises(ValueError, match=r"on line 3: triple \(0\.7, 0\.2, 0\.2\)"):
            FileScorer.load(p)


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


def score_run(scorer, corpus, claims, candidates):
    """score_pairs over the sentence table of every candidate ref, claims[c]
    having the refs candidates[c]."""
    table, rows = table_of_refs([ref for refs in candidates for ref in refs],
                                corpus.get_sentence)
    owners = [c for c, refs in enumerate(candidates) for _ in refs]
    return score_pairs(scorer, claims, table, owners, rows)


def lookup(scorer, claim_id, ref) -> tuple:
    """The triple a scorer gives one (claim, sentence) pair, through score_pairs."""
    table, rows = table_of_refs([ref])
    claims = [SimpleNamespace(claim_id=claim_id, claim="claim")]
    return tuple(score_pairs(scorer, claims, table, [0], rows).triples[0].tolist())


def prob_row(cid, page, line, s, r, u):
    return json.dumps({"claim_id": cid, "page_id": page, "line_number": line,
                       "support": s, "refute": r, "uninformative": u})


class TestFileScorer:
    def test_lookup(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 0.7, 0.2, 0.1) + "\n")
        scorer = FileScorer.load(p)
        t = lookup(scorer, 1, SentenceRef("A", 0))
        assert tuple(t) == (0.7, 0.2, 0.1)

    def test_missing_entry_names_pair(self, tmp_path):
        p = tmp_path / "probs.jsonl"
        p.write_text(prob_row(1, "A", 0, 1.0, 0.0, 0.0) + "\n")
        scorer = FileScorer.load(p)
        with pytest.raises(ValueError, match=r"claim 2.*'B'"):
            lookup(scorer, 2, SentenceRef("B", 3))

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
        t = lookup(FileScorer.load(p), 1, SentenceRef("A", 0))
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


# pieces of texts: NFKC-folding characters (fullwidth letters, a ligature, a
# superscript), other non-ASCII letters, cue words in any case (ｎｏｔ folds
# to one), contractions with either apostrophe and in any case, and
# separators; pieces join without spaces too, so tokens form across them
PIECES = st.sampled_from([
    "Ａ", "ﬁ", "²", "ｎｏｔ", "é", "ß", "İ", "Σ", "ж", "ǅ", "Mill", "abbey", "mill", "x",
    "not", "NOT", "Never", "nOr", "neither", "no", "No", "n't", "n’t", "N'T", "isn't",
    "ISN’T", "can't", "tn't", "_", "-", " ", " ", "'", "’", "1", "\u0307"])
TEXTS = st.lists(PIECES, max_size=10).map("".join)


class TestScorePairs:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(TEXTS, max_size=5), st.lists(TEXTS, min_size=1, max_size=8), st.data())
    def test_batch_scorer_equals_per_pair_oracle_bits(self, claim_texts, sentences, data):
        claims = [SimpleNamespace(claim_id=c, claim=text) for c, text in enumerate(claim_texts)]
        refs = [SentenceRef("Page", n) for n in range(len(sentences))]
        candidates = [data.draw(st.lists(st.sampled_from(refs), unique=True)) for _ in claims]
        table, rows = table_of_refs([ref for group in candidates for ref in group],
                                    lambda ref: sentences[ref.line_number])
        owners = [c for c, group in enumerate(candidates) for _ in group]
        pairs = score_pairs(BaselineScorer(), claims, table, owners, rows)
        want = [oracles.overlap_triple(oracles.bag(claims[c].claim),
                                       oracles.bag(table.texts[r]))
                for c, r in zip(owners, rows)]
        assert pairs.triples.tobytes() == np.array(want).reshape(-1, 3).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(baseline_runs())
    def test_baseline_equals_per_pair_reference_bits(self, run):
        corpus, claims, candidates = run
        pairs = score_run(BaselineScorer(), corpus, claims, candidates)
        want = [oracles.baseline_triple(claim.claim, corpus.get_sentence(ref))
                for claim, refs in zip(claims, candidates) for ref in refs]
        assert pairs.triples.tobytes() == np.array(want).reshape(-1, 3).tobytes()
        assert pairs.claims.tolist() == [c for c, refs in enumerate(candidates) for _ in refs]
        assert pairs.table.refs(pairs.rows) == [ref for refs in candidates for ref in refs]

    def test_each_distinct_claim_and_sentence_tokenized_once(self, mini_corpus,
                                                             mini_instances, monkeypatch):
        rng = np.random.default_rng(5)
        refs = [ref for doc in mini_corpus.documents() for ref in doc.non_empty_refs()]
        candidates = [[refs[i] for i in rng.choice(40, size=6, replace=False)]
                      for _ in mini_instances]  # 30 claims share 40 sentences
        texts = Counter()
        split = entailment.token_bytes
        monkeypatch.setattr(entailment, "token_bytes",
                            lambda text: texts.update([text]) or split(text))
        pairs = score_run(BaselineScorer(), mini_corpus, mini_instances, candidates)
        sentences = {ref for group in candidates for ref in group}
        claims = {inst.claim for inst in mini_instances}
        assert texts.total() == len(claims) + len(sentences) < pairs.claims.size + len(claims)
        assert set(texts) == claims | {mini_corpus.get_sentence(ref) for ref in sentences}
        assert pairs.claims.size == 6 * len(mini_instances)

    def test_scorer_gets_every_pair_in_one_call(self, mini_corpus, mini_instances):
        rng = np.random.default_rng(7)
        refs = [ref for doc in mini_corpus.documents() for ref in doc.non_empty_refs()]
        candidates = [[refs[i] for i in rng.choice(40, size=6, replace=False)]
                      for _ in mini_instances]
        calls = []

        class Recorder:
            def score_all(self, instances, table, claims, rows):
                assert [table.texts[r] for r in rows.tolist()] == \
                    [mini_corpus.get_sentence(ref) for ref in table.refs(rows)]
                calls.append([(instances[c].claim_id, ref)
                              for c, ref in zip(claims.tolist(), table.refs(rows))])
                return np.tile([1.0, 0.0, 0.0], (claims.size, 1))

        score_run(Recorder(), mini_corpus, mini_instances, candidates)
        assert calls == [[(inst.claim_id, ref) for inst, group in
                          zip(mini_instances, candidates) for ref in group]]

    def test_baseline_reused_on_another_corpus_scores_its_text(self):
        ref = SentenceRef("Page", 0)
        claims = [SimpleNamespace(claim_id=1, claim="the mill was rebuilt")]
        scorer = BaselineScorer()
        for sentence in ("the mill was rebuilt", "the mill was not rebuilt", "an abbey"):
            corpus = Corpus()
            corpus.add_document(Document("Page", "", {0: sentence}))
            pairs = score_run(scorer, corpus, claims, [[ref]])
            want = oracles.baseline_triple(claims[0].claim, sentence)
            assert tuple(pairs.triples[0].tolist()) == want

    def test_file_scorer_batch_names_a_missing_pair(self, mini_corpus):
        ref, other = next(iter(mini_corpus.documents())).non_empty_refs()[:2]
        scorer = FileScorer({(1, *ref): (0.5, 0.25, 0.25)})
        claims = [SimpleNamespace(claim_id=1, claim="c"), SimpleNamespace(claim_id=2, claim="c")]
        pairs = score_run(scorer, mini_corpus, claims[:1], [[ref]])
        assert pairs.triples.tolist() == [[0.5, 0.25, 0.25]]
        with pytest.raises(ValueError, match=r"claim 2"):
            score_run(scorer, mini_corpus, claims, [[ref], [ref]])
        # of the missing pairs (1, other) and (2, ref), the one of the lower row
        with pytest.raises(ValueError, match=rf"claim 2, sentence \('{ref.page_id}', 0\)"):
            score_run(scorer, mini_corpus, claims, [[other, ref], [ref]])
