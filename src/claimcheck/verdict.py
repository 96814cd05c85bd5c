"""Final label and evidence selection.

``assemble_all`` makes the verdicts of every claim of a run at once from the
pair arrays of ``entailment.score_pairs`` (claim index, table row and
triple of each pair).  Evidence is ranked per claim by the product of the
candidate's probability for the predicted label and its indicator
(support*cs for SUPPORTS, refute*cr for REFUTES), ties broken by table row,
which is SentenceRef order; the top five positive products are returned,
and only they become SentenceRefs.  When no candidate's indicator matches
the predicted label the verdict falls back to NOT ENOUGH INFO with empty
evidence, and that override is recorded.  ``assemble`` is the one-claim
call.
"""

import numpy as np

from . import LABELS, NOT_ENOUGH_INFO
from .corpus import table_of_refs
from .entailment import ScoredPairs
from .features import indicator_matrix
from .metrics import Verdict
from .tfidf import top_k_per_claim

MAX_EVIDENCE = 5


def assemble_all(claim_ids, labels, pairs: ScoredPairs) -> list[Verdict]:
    """The verdict of each claim index c, whose id is claim_ids[c] and whose
    predicted label is labels[c], from its scored pairs; pairs may come in
    any order."""
    claims, rows, triples, table = pairs
    column = np.array([LABELS.index(label) for label in labels], dtype=np.int64)[claims]
    product = (triples * indicator_matrix(triples))[np.arange(claims.size), column]
    kept = np.flatnonzero((product > 0) & (column != LABELS.index(NOT_ENOUGH_INFO)))
    top = kept[top_k_per_claim(claims[kept], rows[kept], product[kept], MAX_EVIDENCE)]
    evidence = [[] for _ in labels]
    for c, ref in zip(claims[top].tolist(), table.refs(rows[top])):
        evidence[c].append(ref)

    verdicts = []
    for claim_id, label, refs in zip(claim_ids, labels, evidence):
        if label == NOT_ENOUGH_INFO:
            verdicts.append(Verdict(claim_id, NOT_ENOUGH_INFO, (), False))
        elif refs:
            verdicts.append(Verdict(claim_id, label, tuple(refs), False))
        else:  # no candidate's indicator agrees with the label
            verdicts.append(Verdict(claim_id, NOT_ENOUGH_INFO, (), True))
    return verdicts


def assemble(claim_id, predicted_label: str, candidates) -> Verdict:
    """The verdict of one claim from its scored candidates: a one-claim call of
    assemble_all."""
    candidates = list(candidates)
    table, rows = table_of_refs([cand.ref for cand in candidates])
    pairs = ScoredPairs(np.zeros(len(candidates), dtype=np.int64),
                        np.array(rows, dtype=np.int64),
                        np.array([cand.triple for cand in candidates],
                                 dtype=np.float64).reshape(-1, 3), table)
    return assemble_all([claim_id], [predicted_label], pairs)[0]
