"""Final label and evidence selection for a claim.

Evidence is ranked by the product of the candidate's probability for the
predicted label and its indicator (support*cs for SUPPORTS, refute*cr for
REFUTES); the top five positive products are returned.  When no candidate's
indicator matches the predicted label the verdict falls back to NOT ENOUGH
INFO with empty evidence, and that override is recorded.
"""

from dataclasses import dataclass

from .corpus import SentenceRef
from .features import indicators
from .forest import LABELS
from .rows import scalar_field, sentence_ref

MAX_EVIDENCE = 5
NOT_ENOUGH_INFO = "NOT ENOUGH INFO"


@dataclass(frozen=True)
class Verdict:
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


def assemble(claim_id, predicted_label: str, candidates) -> Verdict:
    if predicted_label == NOT_ENOUGH_INFO:
        return Verdict(claim_id, NOT_ENOUGH_INFO, (), False)

    ranked = []
    for cand in candidates:
        ind = indicators(cand.triple)
        if predicted_label == "SUPPORTS":
            product = cand.triple.support * ind.cs
        else:
            product = cand.triple.refute * ind.cr
        if product > 0:
            ranked.append((product, cand.ref))
    if not ranked:
        # no candidate's indicator agrees with the label
        return Verdict(claim_id, NOT_ENOUGH_INFO, (), True)

    ranked.sort(key=lambda pr: (-pr[0], pr[1]))
    evidence = tuple(ref for _, ref in ranked[:MAX_EVIDENCE])
    return Verdict(claim_id, predicted_label, evidence, False)


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
