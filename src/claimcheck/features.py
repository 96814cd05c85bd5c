"""Indicator variables and the twelve features of a claim.

Indicators use non-strict comparisons, so exact ties activate more than one
of (cs, cr, cu).  All features are sums, maxima, or ratios over a claim's
scored candidates; a claim without candidates gets the all-zero row.

``feature_matrix`` computes the features of every claim of a run at once
from the pair arrays of ``entailment.score_pairs`` (the claim index and the
triple row of each pair): one (claims x 12) float64 matrix.  Its sums add
each claim's terms one at a time in pair order (``np.bincount``), so every
cell has the bits of the sequential per-claim sum.  ``features`` is the
one-claim call, returning that claim's row: a (12,) float64 array, f1..f12
in FEATURE_NAMES order.
"""

import numpy as np

FEATURE_NAMES = tuple(f"f{i}" for i in range(1, 13))
_SUMS = 6  # f1..f6 are sums over the candidates


def indicator_matrix(triples: np.ndarray) -> np.ndarray:
    """(n, 3) float64 0/1 indicators (cs, cr, cu) of an (n, 3) triple array."""
    s, r, u = triples[:, 0], triples[:, 1], triples[:, 2]
    return np.stack([(s >= r) & (s >= u), (r >= s) & (r >= u), (u >= s) & (u >= r)],
                    axis=1).astype(np.float64)


def feature_matrix(claims: np.ndarray, triples: np.ndarray, n_claims: int) -> np.ndarray:
    """The (n_claims, 12) features of scored pairs, pair i belonging to claim
    index claims[i]; pairs may come in any order.

    f1..f3 count the indicators, f4..f6 sum each indicated probability, f7..f9
    take each probability's maximum and f10..f12 are f4..f6 over f1..f3.
    """
    ind = indicator_matrix(triples)
    terms = np.concatenate([ind, triples * ind], axis=1)  # (n, 6): what f1..f6 add
    cells = claims[:, np.newaxis] * _SUMS + np.arange(_SUMS)
    X = np.zeros((n_claims, len(FEATURE_NAMES)))
    X[:, :_SUMS] = np.bincount(cells.ravel(), weights=terms.ravel(),
                               minlength=n_claims * _SUMS).reshape(n_claims, _SUMS)
    # + 0.0 turns -0.0 into 0.0: np.maximum(0.0, -0.0) may return -0.0, max() does not
    np.maximum.at(X[:, 6:9], claims, triples + 0.0)
    np.divide(X[:, 3:6], X[:, 0:3], out=X[:, 9:12], where=X[:, 0:3] != 0)
    return X


def features(candidates) -> np.ndarray:
    """The (12,) feature row, f1..f12, of one claim's scored candidates (or
    bare triples): a one-claim call of feature_matrix."""
    triples = np.array([getattr(c, "triple", c) for c in candidates],
                       dtype=np.float64).reshape(-1, 3)
    return feature_matrix(np.zeros(len(triples), dtype=np.int64), triples, 1)[0]
