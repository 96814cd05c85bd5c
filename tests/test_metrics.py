"""Scoring: label accuracy, micro evidence P/R/F1, FEVER score."""

import numpy as np
import pytest

from claimcheck import metrics
from claimcheck.corpus import SentenceRef
from claimcheck.metrics import GoldInstance, Verdict, score

LABELS = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")


def ref(page, line):
    return SentenceRef(page, line)


def pred(claim_id, label, evidence=()):
    return Verdict(claim_id, label, tuple(evidence), False)


def gold(claim_id, label, sets=()):
    return GoldInstance(claim_id, label, tuple(frozenset(s) for s in sets))


def random_pair(rng, n_claims):
    """Gold list and a prediction list with assorted right/wrong answers."""
    gold_rows, pred_rows = [], []
    for cid in range(n_claims):
        g_label = LABELS[rng.integers(0, 3)]
        if g_label == "NOT ENOUGH INFO":
            sets = ()
        else:
            sets = tuple(
                frozenset(ref(f"P{rng.integers(0, 6)}", int(rng.integers(0, 9)))
                          for _ in range(rng.integers(1, 3)))
                for _ in range(rng.integers(1, 3)))
        gold_rows.append(gold(cid, g_label, sets))
        if rng.random() < 0.15:
            continue  # absent prediction
        p_label = g_label if rng.random() < 0.6 else LABELS[rng.integers(0, 3)]
        if rng.random() < 0.5 and sets:
            evidence = sorted(set().union(*sets))[: rng.integers(0, 6)]
        else:
            evidence = [ref(f"P{rng.integers(0, 6)}", int(rng.integers(0, 9)))
                        for _ in range(rng.integers(0, 4))]
        pred_rows.append(pred(cid, p_label, dict.fromkeys(evidence)))
    return gold_rows, pred_rows


class TestFixtures:
    def test_perfect_predictions_score_one(self):
        g = [
            gold(1, "SUPPORTS", [{ref("A", 0), ref("A", 1)}]),
            gold(2, "REFUTES", [{ref("B", 2)}]),
            gold(3, "NOT ENOUGH INFO"),
        ]
        p = [
            pred(1, "SUPPORTS", [ref("A", 0), ref("A", 1)]),
            pred(2, "REFUTES", [ref("B", 2)]),
            pred(3, "NOT ENOUGH INFO"),
        ]
        r = score(g, p)
        assert r.label_accuracy == 1.0
        assert r.evidence_precision == 1.0
        assert r.evidence_recall == 1.0
        assert r.evidence_f1 == 1.0
        assert r.fever_score == 1.0

    def test_half_correct_pair(self):
        g = [gold(1, "SUPPORTS", [{ref("A", 0)}]), gold(2, "REFUTES", [{ref("B", 0)}])]
        p = [pred(1, "SUPPORTS", [ref("A", 0)]), pred(2, "SUPPORTS", [ref("B", 0)])]
        r = score(g, p)
        assert r.label_accuracy == 0.5
        assert r.fever_score == 0.5

    def test_incomplete_two_sentence_set(self):
        # label is right but half of the only gold set is missing
        g = [gold(1, "SUPPORTS", [{ref("A", 0), ref("B", 0)}])]
        p = [pred(1, "SUPPORTS", [ref("A", 0)])]
        r = score(g, p)
        assert r.label_accuracy == 1.0
        assert r.fever_score == 0.0
        assert r.fever_score < r.label_accuracy
        assert r.evidence_precision == 1.0
        assert r.evidence_recall == 0.5

    def test_alternative_sets_any_complete_counts(self):
        g = [gold(1, "SUPPORTS", [{ref("A", 0), ref("B", 0)}, {ref("C", 3)}])]
        p = [pred(1, "SUPPORTS", [ref("C", 3)])]
        assert score(g, p).fever_score == 1.0

    def test_nei_needs_no_evidence_for_fever(self):
        g = [gold(1, "NOT ENOUGH INFO")]
        r = score(g, [pred(1, "NOT ENOUGH INFO")])
        assert r.fever_score == 1.0


class TestEvidenceAveraging:
    def test_micro_pools_refs_across_claims(self):
        # claim 1: 2 predicted, 1 correct; claim 2: 1 predicted, 1 correct
        g = [gold(1, "SUPPORTS", [{ref("A", 0)}]), gold(2, "REFUTES", [{ref("B", 0)}])]
        p = [pred(1, "SUPPORTS", [ref("A", 0), ref("X", 9)]),
             pred(2, "REFUTES", [ref("B", 0)])]
        r = score(g, p)
        assert r.evidence_precision == pytest.approx(2 / 3)
        assert r.evidence_recall == 1.0
        assert r.to_dict()["averaging"] == "micro"

    def test_nei_gold_excluded_from_denominators(self):
        # spurious evidence on an NEI claim must not dilute precision
        g = [gold(1, "SUPPORTS", [{ref("A", 0)}]), gold(2, "NOT ENOUGH INFO")]
        p = [pred(1, "SUPPORTS", [ref("A", 0)]),
             pred(2, "NOT ENOUGH INFO", [ref("Z", 5)])]
        r = score(g, p)
        assert r.evidence_precision == 1.0
        assert r.evidence_recall == 1.0

    def test_precision_one_when_all_predictions_in_gold(self):
        g = [gold(1, "SUPPORTS", [{ref("A", 0), ref("A", 1)}, {ref("B", 0)}])]
        p = [pred(1, "SUPPORTS", [ref("B", 0), ref("A", 1)])]
        assert score(g, p).evidence_precision == 1.0

    def test_recall_credits_union_of_sets(self):
        g = [gold(1, "SUPPORTS", [{ref("A", 0)}, {ref("B", 0)}])]
        p = [pred(1, "SUPPORTS", [ref("A", 0)])]
        assert score(g, p).evidence_recall == 0.5


class TestBookkeeping:
    def test_missing_prediction_reads_as_nei(self):
        g = [gold(1, "NOT ENOUGH INFO"), gold(2, "SUPPORTS", [{ref("A", 0)}])]
        r = score(g, [])
        assert r.label_accuracy == 0.5
        assert r.fever_score == 0.5
        assert r.confusion[("SUPPORTS", "NOT ENOUGH INFO")] == 1

    def test_unknown_prediction_id_rejected(self):
        g = [gold(1, "NOT ENOUGH INFO")]
        with pytest.raises(ValueError, match="unknown claim id"):
            score(g, [pred(99, "SUPPORTS")])

    def test_duplicate_gold_ids_rejected(self):
        g = [gold(1, "NOT ENOUGH INFO"), gold(1, "NOT ENOUGH INFO")]
        with pytest.raises(ValueError, match="duplicate"):
            score(g, [])

    def test_invalid_gold_label_rejected(self):
        with pytest.raises(ValueError, match="unknown gold label"):
            gold(1, "MAYBE")

    def test_confusion_counts(self):
        g = [gold(1, "SUPPORTS", [{ref("A", 0)}]),
             gold(2, "SUPPORTS", [{ref("A", 1)}]),
             gold(3, "REFUTES", [{ref("B", 0)}])]
        p = [pred(1, "SUPPORTS", [ref("A", 0)]),
             pred(2, "REFUTES", [ref("A", 1)]),
             pred(3, "REFUTES", [ref("B", 0)])]
        r = score(g, p)
        assert r.confusion == {("SUPPORTS", "SUPPORTS"): 1,
                               ("SUPPORTS", "REFUTES"): 1,
                               ("REFUTES", "REFUTES"): 1}

    def test_empty_gold(self):
        r = score([], [])
        assert r.label_accuracy == 0.0 and r.fever_score == 0.0


class TestProperties:
    def test_fever_never_exceeds_accuracy(self):
        rng = np.random.default_rng(81)
        for _ in range(100):
            g, p = random_pair(rng, int(rng.integers(1, 12)))
            r = score(g, p)
            assert r.fever_score <= r.label_accuracy + 1e-12
            for value in (r.label_accuracy, r.evidence_precision, r.evidence_recall,
                          r.evidence_f1, r.fever_score):
                assert 0.0 <= value <= 1.0

    def test_prediction_order_is_irrelevant(self):
        rng = np.random.default_rng(82)
        g, p = random_pair(rng, 10)
        shuffled = list(p)
        rng.shuffle(shuffled)
        assert score(g, p).to_dict() == score(g, shuffled).to_dict()

    def test_report_serialization(self):
        g = [gold(1, "SUPPORTS", [{ref("A", 0)}])]
        r = score(g, [pred(1, "SUPPORTS", [ref("A", 0)])])
        d = r.to_dict()
        assert d["label_accuracy"] == 1.0
        assert d["confusion"] == {"SUPPORTS|SUPPORTS": 1}
        table = r.format_table()
        assert "fever score" in table and "1.0000" in table
