"""Predictions and their scoring: label accuracy, evidence P/R/F1, FEVER score.

Evidence precision and recall are micro-averaged over claims whose gold
label is not NOT ENOUGH INFO.  The FEVER score counts a claim only when its
label is correct and, unless the gold label is NOT ENOUGH INFO, the
predicted evidence contains at least one complete gold evidence set.
"""

from typing import NamedTuple

from . import LABELS, NOT_ENOUGH_INFO
from .corpus import SentenceRef
from .rows import scalar_field, sentence_ref

AVERAGING = "micro"  # of evidence precision and recall over claims


class Verdict(NamedTuple):
    """One claim's prediction: ``verdict.assemble_all`` makes it, a prediction
    row holds it."""

    claim_id: object
    label: str
    evidence: tuple  # SentenceRef, ranked
    override_applied: bool

    def to_row(self) -> dict:
        return {
            "id": self.claim_id,
            "predicted_label": self.label,
            "predicted_evidence": [ref.as_pair() for ref in self.evidence],
        }


def prediction_from_row(row) -> Verdict:
    """Submission-shaped row {id, predicted_label, predicted_evidence}: a scalar
    id, a label of LABELS and [page_id, line] evidence."""
    claim_id = scalar_field(row, "id")
    label = row["predicted_label"]
    if label not in LABELS:
        raise ValueError(f"unknown label {label!r}")
    evidence = tuple(SentenceRef(*sentence_ref(page, line))
                     for page, line in row["predicted_evidence"])
    return Verdict(claim_id, label, evidence, False)


class _Gold(NamedTuple):
    claim_id: object
    label: str
    evidence_sets: tuple  # of frozenset[SentenceRef]; empty for NOT ENOUGH INFO


class GoldInstance(_Gold):
    __slots__ = ()

    def __new__(cls, claim_id, label, evidence_sets):
        if label not in LABELS:
            raise ValueError(f"unknown gold label {label!r}")
        return super().__new__(cls, claim_id, label, evidence_sets)


class ScoreReport(NamedTuple):
    label_accuracy: float
    evidence_precision: float
    evidence_recall: float
    evidence_f1: float
    fever_score: float
    confusion: dict  # (gold, predicted) -> count

    def to_dict(self) -> dict:
        return {
            "label_accuracy": self.label_accuracy,
            "evidence_precision": self.evidence_precision,
            "evidence_recall": self.evidence_recall,
            "evidence_f1": self.evidence_f1,
            "fever_score": self.fever_score,
            "averaging": AVERAGING,
            "confusion": {f"{g}|{p}": c for (g, p), c in sorted(self.confusion.items())},
        }

    def format_table(self) -> str:
        rows = [
            ("label accuracy", self.label_accuracy),
            ("evidence precision", self.evidence_precision),
            ("evidence recall", self.evidence_recall),
            ("evidence f1", self.evidence_f1),
            ("fever score", self.fever_score),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value:.4f}" for name, value in rows]
        lines.append("")
        lines.append(f"confusion (gold -> predicted, {AVERAGING} evidence averaging):")
        for (g, p), c in sorted(self.confusion.items()):
            lines.append(f"  {g:<15} -> {p:<15} {c}")
        return "\n".join(lines)


def score(gold, predictions) -> ScoreReport:
    """Score predictions against gold; absent predictions read as NEI/empty."""
    by_id = {g.claim_id: g for g in gold}
    if len(by_id) != len(gold):
        raise ValueError("duplicate claim ids in gold")
    pred_by_id: dict = {}
    for p in predictions:
        if p.claim_id not in by_id:
            raise ValueError(f"prediction for unknown claim id {p.claim_id!r}")
        pred_by_id[p.claim_id] = p

    n = len(gold)
    correct = 0
    fever = 0
    tp = 0
    pred_total = 0
    gold_total = 0
    confusion: dict = {}

    for g in gold:
        pred = pred_by_id.get(g.claim_id)
        label = pred.label if pred else NOT_ENOUGH_INFO
        evidence = list(pred.evidence) if pred else []
        confusion[(g.label, label)] = confusion.get((g.label, label), 0) + 1

        label_ok = label == g.label
        correct += label_ok

        if g.label != NOT_ENOUGH_INFO:
            union = set().union(*g.evidence_sets) if g.evidence_sets else set()
            pred_set = set(evidence)
            tp += len(pred_set & union)
            pred_total += len(pred_set)
            gold_total += len(union)
            complete = any(s and s <= pred_set for s in g.evidence_sets)
            fever += label_ok and complete
        else:
            fever += label_ok

    precision = tp / pred_total if pred_total else 0.0
    recall = tp / gold_total if gold_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ScoreReport(
        label_accuracy=correct / n if n else 0.0,
        evidence_precision=precision,
        evidence_recall=recall,
        evidence_f1=f1,
        fever_score=fever / n if n else 0.0,
        confusion=confusion,
    )
