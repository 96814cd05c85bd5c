"""Reference implementations the batch code is checked against with ==.

Each works on one claim (or one pair) at a time in plain Python, the way
the pipeline computed features, verdicts and baseline triples before it
scored a run's pairs as arrays; ``forest_probs`` keeps the formula forest
probabilities had before they were summed in place.  ``bag`` and
``overlap_triple`` are the baseline scorer's own per-pair code from before
it scored a run in one call; ``baseline_triple`` derives the same triple
without a regex.
"""

import re

import numpy as np

from claimcheck import LABELS
from claimcheck.entailment import NEGATION_CUES
from claimcheck.tokenizer import tokenize

MAX_EVIDENCE = 5
NOT_ENOUGH_INFO = "NOT ENOUGH INFO"


def indicators(triple) -> tuple:
    """(cs, cr, cu) of one (support, refute, uninformative) triple; ties set both."""
    s, r, u = triple
    return (1 if (s >= r and s >= u) else 0,
            1 if (r >= s and r >= u) else 0,
            1 if (u >= s and u >= r) else 0)


def features(triples) -> tuple:
    """(twelve features, candidate count) of one claim's triples, in the order given."""
    f = [0.0] * 12
    for triple in triples:
        s, r, u = triple
        cs, cr, cu = indicators(triple)
        f[0] += cs
        f[1] += cr
        f[2] += cu
        f[3] += s * cs
        f[4] += r * cr
        f[5] += u * cu
        f[6] = max(f[6], s)
        f[7] = max(f[7], r)
        f[8] = max(f[8], u)
    f[9] = f[3] / f[0] if f[0] != 0 else 0.0
    f[10] = f[4] / f[1] if f[1] != 0 else 0.0
    f[11] = f[5] / f[2] if f[2] != 0 else 0.0
    return f, len(triples)


def assemble(claim_id, predicted_label, candidates) -> tuple:
    """(claim id, label, evidence, override) of one claim from (ref, triple) pairs."""
    if predicted_label == NOT_ENOUGH_INFO:
        return claim_id, NOT_ENOUGH_INFO, (), False
    ranked = []
    for ref, triple in candidates:
        cs, cr, _ = indicators(triple)
        if predicted_label == "SUPPORTS":
            product = triple[0] * cs
        else:
            product = triple[1] * cr
        if product > 0:
            ranked.append((product, ref))
    if not ranked:
        return claim_id, NOT_ENOUGH_INFO, (), True
    ranked.sort(key=lambda pr: (-pr[0], pr[1]))
    return claim_id, predicted_label, tuple(ref for _, ref in ranked[:MAX_EVIDENCE]), False


def negated(text) -> bool:
    """Whether a text holds a negation cue token or an n't (or n’t) that no
    letter, digit or underscore follows."""
    if set(tokenize(text)) & NEGATION_CUES:
        return True
    low = text.lower()
    for i in range(len(low) - 2):
        if low[i] == "n" and low[i + 1] in "'’" and low[i + 2] == "t":
            after = low[i + 3:i + 4]
            if not (after.isalnum() or after == "_"):
                return True
    return False


def baseline_triple(claim, sentence) -> tuple:
    """Overlap o of the claim's tokens relative to the claim; a negation
    mismatch flips support to refute."""
    claim_set, sentence_set = set(tokenize(claim)), set(tokenize(sentence))
    o = len(claim_set & sentence_set) / len(claim_set) if claim_set else 0.0
    g = 1 if negated(claim) != negated(sentence) else 0
    raw = (o * (1 - g), o * g, 1.0 - o)
    total = sum(raw)
    return tuple(v / total for v in raw)


def forest_probs(trees, X) -> np.ndarray:
    """(m, classes) probabilities of model-file trees on an (m, 12) matrix: each
    row's leaf distributions stacked into an (m, trees, classes) array (+ 0.0,
    as the flat layout stores them), summed with np.cumsum over the trees,
    and the last slice divided by the tree count."""
    leaves = np.zeros((len(X), len(trees), len(LABELS)))
    for i, row in enumerate(X):
        for t, node in enumerate(trees):
            while "dist" not in node:
                node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
            leaves[i, t] = node["dist"]
    return np.cumsum(leaves + 0.0, axis=1)[:, -1] / len(trees)


def bag(text) -> tuple:
    """(token set, whether the text is negated): a text is negated if it holds
    a cue token or the contraction n't, which tokenize splits ("isn't" is
    isn, t)."""
    tokens = set(tokenize(text))
    return tokens, (not tokens.isdisjoint(NEGATION_CUES)
                    or re.search(r"n['’]t\b", text, re.IGNORECASE) is not None)


def overlap_triple(claim_bag, sentence_bag) -> tuple:
    """The baseline triple of a claim and a sentence, each a bag.

    Overlap o is the share of the claim's tokens found in the sentence (0 for
    an empty claim); a negation mismatch flips support to refute.
    """
    (c, c_neg), (s, s_neg) = claim_bag, sentence_bag
    o = len(c & s) / len(c) if c else 0.0
    g = float(c_neg != s_neg)
    raw = (o * (1.0 - g), o * g, 1.0 - o)
    total = raw[0] + raw[1] + raw[2]  # guards rounding; mathematically already 1
    return raw[0] / total, raw[1] / total, raw[2] / total
