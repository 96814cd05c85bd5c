"""Final label and evidence selection.

``assemble_all`` makes the verdicts of every claim of a run at once from the
pair arrays of ``entailment.score_pairs`` (claim index, SentenceRef and
triple row of each pair).  Evidence is ranked per claim by the product of the
candidate's probability for the predicted label and its indicator
(support*cs for SUPPORTS, refute*cr for REFUTES), ties broken by SentenceRef;
the top five positive products are returned.  When no candidate's indicator
matches the predicted label the verdict falls back to NOT ENOUGH INFO with
empty evidence, and that override is recorded.  ``assemble`` is the
one-claim call.
"""

import numpy as np

from . import LABELS, NOT_ENOUGH_INFO
from .entailment import ScoredPairs
from .features import indicator_matrix
from .metrics import Verdict

MAX_EVIDENCE = 5


def assemble_all(claim_ids, labels, pairs: ScoredPairs) -> list[Verdict]:
    """The verdict of each claim index c, whose id is claim_ids[c] and whose
    predicted label is labels[c], from its scored pairs; pairs may come in
    any order."""
    claims, refs, triples = pairs
    products = [[] for _ in labels]  # (ref, triple x indicators) of each claim's pairs
    for c, ref, product in zip(claims.tolist(), refs,
                               (triples * indicator_matrix(triples)).tolist()):
        products[c].append((ref, product))

    verdicts = []
    for claim_id, label, scored in zip(claim_ids, labels, products):
        if label == NOT_ENOUGH_INFO:
            verdicts.append(Verdict(claim_id, NOT_ENOUGH_INFO, (), False))
            continue
        k = LABELS.index(label)
        ranked = sorted((-product[k], ref) for ref, product in scored if product[k] > 0)
        if ranked:
            evidence = tuple(ref for _, ref in ranked[:MAX_EVIDENCE])
            verdicts.append(Verdict(claim_id, label, evidence, False))
        else:  # no candidate's indicator agrees with the label
            verdicts.append(Verdict(claim_id, NOT_ENOUGH_INFO, (), True))
    return verdicts


def assemble(claim_id, predicted_label: str, candidates) -> Verdict:
    """The verdict of one claim from its scored candidates: a one-claim call of
    assemble_all."""
    candidates = list(candidates)
    pairs = ScoredPairs(np.zeros(len(candidates), dtype=np.int64),
                        [cand.ref for cand in candidates],
                        np.array([cand.triple for cand in candidates],
                                 dtype=np.float64).reshape(-1, 3))
    return assemble_all([claim_id], [predicted_label], pairs)[0]
