"""Label/evidence assembly: ranking, the five-item cap, and the NEI override."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from claimcheck import features, metrics, verdict
from claimcheck.corpus import SentenceRef, table_of_refs
from claimcheck.entailment import ScoredCandidate, ScoredPairs
from claimcheck.forest import LABELS
from conftest import TRIPLES, interleaved


def cand(page, line, s, r, u):
    return ScoredCandidate(SentenceRef(page, line), (s, r, u))


def random_candidates(rng, n):
    # refs are unique by construction, as score_candidates guarantees
    out = []
    for i in range(n):
        raw = rng.random(3)
        s, r, u = raw / raw.sum()
        out.append(cand(f"P{rng.integers(0, 8)}", i, float(s), float(r), float(u)))
    return out


class TestOverride:
    def test_supports_with_no_cs_becomes_nei(self):
        # every candidate leans refute or uninformative, so cs = 0 throughout
        cands = [cand("A", 0, 0.2, 0.7, 0.1), cand("B", 3, 0.1, 0.1, 0.8)]
        v = verdict.assemble(9, "SUPPORTS", cands)
        assert v.label == "NOT ENOUGH INFO"
        assert v.evidence == ()
        assert v.override_applied

    def test_refutes_with_no_cr_becomes_nei(self):
        cands = [cand("A", 0, 0.7, 0.2, 0.1)]
        v = verdict.assemble(9, "REFUTES", cands)
        assert (v.label, v.evidence, v.override_applied) == ("NOT ENOUGH INFO", (), True)

    def test_no_candidates_at_all(self):
        v = verdict.assemble(1, "SUPPORTS", [])
        assert (v.label, v.evidence, v.override_applied) == ("NOT ENOUGH INFO", (), True)

    def test_nei_prediction_is_not_an_override(self):
        v = verdict.assemble(2, "NOT ENOUGH INFO", [cand("A", 0, 0.9, 0.05, 0.05)])
        assert v.label == "NOT ENOUGH INFO"
        assert v.evidence == ()
        assert not v.override_applied

    def test_override_iff_f1_zero(self):
        # the override condition and feature f1 count the same indicator sum
        rng = np.random.default_rng(71)
        for _ in range(200):
            cands = random_candidates(rng, int(rng.integers(1, 12)))
            fv = features.features(cands)
            v = verdict.assemble(0, "SUPPORTS", cands)
            assert v.override_applied == (fv[0] == 0.0)
            v = verdict.assemble(0, "REFUTES", cands)
            assert v.override_applied == (fv[1] == 0.0)


class TestRanking:
    def test_seven_supporting_candidates_keep_top_five(self):
        supports = [0.90, 0.85, 0.80, 0.75, 0.70, 0.65, 0.60]
        cands = [cand(f"P{i}", i, s, (1 - s) * 0.3, (1 - s) * 0.7)
                 for i, s in enumerate(supports)]
        v = verdict.assemble(3, "SUPPORTS", cands)
        assert v.label == "SUPPORTS"
        assert not v.override_applied
        assert v.evidence == tuple(SentenceRef(f"P{i}", i) for i in range(5))

    def test_refutes_ranks_by_refute_probability(self):
        cands = [cand("A", 0, 0.1, 0.6, 0.3), cand("B", 1, 0.05, 0.9, 0.05)]
        v = verdict.assemble(4, "REFUTES", cands)
        assert v.evidence == (SentenceRef("B", 1), SentenceRef("A", 0))

    def test_ties_break_by_page_then_line(self):
        cands = [cand("Zed", 0, 0.8, 0.1, 0.1),
                 cand("Alpha", 5, 0.8, 0.1, 0.1),
                 cand("Alpha", 2, 0.8, 0.1, 0.1)]
        v = verdict.assemble(5, "SUPPORTS", cands)
        assert v.evidence == (SentenceRef("Alpha", 2), SentenceRef("Alpha", 5),
                              SentenceRef("Zed", 0))

    def test_zero_products_are_dropped_not_padded(self):
        # only two positives exist; the list stays short rather than padding
        cands = [cand("A", 0, 0.8, 0.1, 0.1), cand("B", 1, 0.7, 0.2, 0.1),
                 cand("C", 2, 0.1, 0.8, 0.1), cand("D", 3, 0.2, 0.1, 0.7)]
        v = verdict.assemble(6, "SUPPORTS", cands)
        assert v.evidence == (SentenceRef("A", 0), SentenceRef("B", 1))

    def test_products_non_increasing_and_indicators_match(self):
        rng = np.random.default_rng(72)
        for label, k in (("SUPPORTS", 0), ("REFUTES", 1)):  # k: support and cs, refute and cr
            for _ in range(100):
                cands = random_candidates(rng, int(rng.integers(0, 15)))
                v = verdict.assemble(0, label, cands)
                assert len(v.evidence) <= verdict.MAX_EVIDENCE
                by_ref = {c.ref: c.triple for c in cands}
                products = []
                for ref in v.evidence:
                    t = by_ref[ref]
                    ind = features.indicator_matrix(np.array([t]))[0]
                    assert ind[k] == 1
                    products.append(t[k] * ind[k])
                assert all(a >= b for a, b in zip(products, products[1:]))
                assert all(p > 0 for p in products)


class TestRows:
    def test_to_row_shape(self):
        v = verdict.assemble(11, "SUPPORTS", [cand("Some_Page", 4, 0.9, 0.05, 0.05)])
        assert v.to_row() == {"id": 11, "predicted_label": "SUPPORTS",
                              "predicted_evidence": [["Some_Page", 4]]}

    def test_nei_row_has_empty_evidence(self):
        row = verdict.assemble(12, "NOT ENOUGH INFO", []).to_row()
        assert row == {"id": 12, "predicted_label": "NOT ENOUGH INFO",
                       "predicted_evidence": []}

    def test_parse_round_trip(self):
        v = verdict.assemble(13, "REFUTES", [cand("Pg", 2, 0.1, 0.8, 0.1)])
        back = metrics.prediction_from_row(v.to_row())
        assert back.claim_id == 13
        assert back.label == "REFUTES"
        assert back.evidence == v.evidence

    def test_parse_rejects_malformed_pair(self):
        with pytest.raises((ValueError, TypeError)):
            metrics.prediction_from_row({"id": 1, "predicted_label": "SUPPORTS",
                                         "predicted_evidence": [["only_page"]]})


PAGES = ["Alpha", "Zed", "Mid_Page"]


@st.composite
def verdict_runs(draw):
    """(claim ids, labels, per-claim (ref, triple) candidates, scored pairs):
    refs unique per claim and drawn in no particular order, pairs mixed
    across claims as a scored-row file may hold them."""
    per_claim = [draw(st.lists(st.tuples(st.sampled_from(PAGES), st.integers(0, 3)),
                               unique=True, max_size=9))
                 for _ in range(draw(st.integers(0, 8)))]
    per_claim = [[(SentenceRef(*ref), draw(TRIPLES)) for ref in refs] for refs in per_claim]
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=len(per_claim),
                           max_size=len(per_claim)))
    claims, items = draw(interleaved(per_claim))
    table, rows = table_of_refs([ref for ref, _ in items])
    pairs = ScoredPairs(claims, np.array(rows, dtype=np.int64),
                        np.array([t for _, t in items], dtype=np.float64).reshape(-1, 3), table)
    return [f"c{c}" for c in range(len(per_claim))], labels, per_claim, pairs


class TestAssembleAll:
    """The batch verdicts against the per-claim reference, compared with ==."""

    @settings(max_examples=300, deadline=None)
    @given(verdict_runs())
    def test_batch_equals_reference(self, run):
        ids, labels, per_claim, pairs = run
        got = verdict.assemble_all(ids, labels, pairs)
        want = [oracles.assemble(*args) for args in zip(ids, labels, per_claim)]
        assert [tuple(v) for v in got] == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(PAGES), st.integers(0, 3)), unique=True,
                    max_size=9).flatmap(
        lambda refs: st.tuples(st.just(refs), st.lists(TRIPLES, min_size=len(refs),
                                                       max_size=len(refs)))),
           st.sampled_from(LABELS))
    def test_one_claim_call_equals_reference(self, drawn, label):
        refs, triples = drawn
        cands = [cand(page, line, *t) for (page, line), t in zip(refs, triples)]
        want = oracles.assemble(7, label, [(c.ref, c.triple) for c in cands])
        assert tuple(verdict.assemble(7, label, cands)) == want

    def test_ties_across_claims_in_file_order(self):
        # the second claim's rows come first and out of ref order
        table, rows = table_of_refs([SentenceRef("Zed", 0), SentenceRef("Alpha", 3),
                                     SentenceRef("Zed", 1), SentenceRef("Alpha", 1)])
        pairs = ScoredPairs(np.array([1, 1, 0, 1], dtype=np.int64),
                            np.array(rows, dtype=np.int64), np.array([[0.4, 0.4, 0.2]] * 4),
                            table)
        a, b = verdict.assemble_all(["a", "b"], ["REFUTES", "SUPPORTS"], pairs)
        assert a.evidence == (SentenceRef("Zed", 1),)
        assert b.evidence == (SentenceRef("Alpha", 1), SentenceRef("Alpha", 3),
                              SentenceRef("Zed", 0))
