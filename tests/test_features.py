import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from claimcheck.corpus import SentenceRef
from claimcheck.entailment import ScoredCandidate, check_triples
from claimcheck.features import FEATURE_NAMES, feature_matrix, features, indicator_matrix
from conftest import TRIPLES, interleaved


def random_triple(rng) -> tuple:
    raw = rng.random(3)
    if rng.random() < 0.2:  # force exact ties now and then
        raw[1] = raw[0]
    raw /= raw.sum()
    s, r = float(raw[0]), float(raw[1])
    return s, r, 1.0 - s - r


def straight_line(triples):
    """Every formula written out longhand, no shared code with features()."""
    cs = [1 if t[0] >= t[1] and t[0] >= t[2] else 0 for t in triples]
    cr = [1 if t[1] >= t[0] and t[1] >= t[2] else 0 for t in triples]
    cu = [1 if t[2] >= t[0] and t[2] >= t[1] else 0 for t in triples]
    f1, f2, f3 = sum(cs), sum(cr), sum(cu)
    f4 = sum(t[0] * c for t, c in zip(triples, cs))
    f5 = sum(t[1] * c for t, c in zip(triples, cr))
    f6 = sum(t[2] * c for t, c in zip(triples, cu))
    f7 = max((t[0] for t in triples), default=0.0)
    f8 = max((t[1] for t in triples), default=0.0)
    f9 = max((t[2] for t in triples), default=0.0)
    f10 = f4 / f1 if f1 else 0.0
    f11 = f5 / f2 if f2 else 0.0
    f12 = f6 / f3 if f3 else 0.0
    return [f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12]


def indicators(triple) -> tuple:
    """(cs, cr, cu) of one triple, from indicator_matrix."""
    return tuple(indicator_matrix(np.array([triple]))[0].tolist())


class TestIndicators:
    def test_strict_maximum(self):
        assert indicators((0.7, 0.2, 0.1)) == (1, 0, 0)

    def test_three_way_tie(self):
        assert indicators((1 / 3, 1 / 3, 1 / 3)) == (1, 1, 1)

    def test_two_way_tie(self):
        assert indicators((0.4, 0.4, 0.2)) == (1, 1, 0)

    def test_depends_only_on_ordering(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            t = random_triple(rng)
            cs, cr, cu = indicators(t)
            assert cs == int(t[0] >= t[1] and t[0] >= t[2])
            assert cr == int(t[1] >= t[0] and t[1] >= t[2])
            assert cu == int(t[2] >= t[0] and t[2] >= t[1])
            assert cs + cr + cu >= 1


class TestFeatures:
    def test_empty_candidates(self):
        fv = features([])
        assert fv.tolist() == [0.0] * 12

    def test_hand_example_three_distinct(self):
        fv = features([(0.7, 0.2, 0.1), (0.2, 0.5, 0.3), (0.1, 0.2, 0.7)])
        assert fv.tolist() == [1, 1, 1, 0.7, 0.5, 0.7, 0.7, 0.5, 0.7, 0.7, 0.5, 0.7]

    def test_hand_example_duplicates(self):
        fv = features([(0.6, 0.3, 0.1)] * 2)
        assert (fv[0], fv[3], fv[6], fv[9]) == (2, 1.2, 0.6, 0.6)

    def test_matches_straight_line_reevaluation(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            triples = [random_triple(rng) for _ in range(int(rng.integers(0, 51)))]
            got = features(triples)
            want = np.array(straight_line(triples))
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(43)
        triples = [random_triple(rng) for _ in range(20)]
        shuffled = list(triples)
        rng.shuffle(shuffled)
        # sums commute only up to rounding, so compare within the formula tolerance
        np.testing.assert_allclose(features(triples), features(shuffled), atol=1e-12, rtol=0)

    def test_accepts_scored_candidates(self):
        cand = ScoredCandidate(SentenceRef("A", 0), (1.0, 0.0, 0.0))
        fv = features([cand])
        assert fv[0] == 1 and fv[3] == 1.0

    def test_structural_invariants(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            fv = features([random_triple(rng) for _ in range(n)])
            f = dict(zip(FEATURE_NAMES, fv.tolist()))
            assert f["f1"] + f["f2"] + f["f3"] >= n
            assert f["f4"] <= f["f1"] and f["f5"] <= f["f2"] and f["f6"] <= f["f3"]
            for name in ("f7", "f8", "f9", "f10", "f11", "f12"):
                assert 0.0 <= f[name] <= 1.0


@st.composite
def scored_runs(draw):
    """(per-claim triples, claim index of each pair, (n, 3) triples of the pairs)."""
    per_claim = draw(st.lists(st.lists(TRIPLES, max_size=8), max_size=8))
    claims, triples = draw(interleaved(per_claim))
    return per_claim, claims, np.array(triples, dtype=np.float64).reshape(-1, 3)


class TestFeatureMatrix:
    """The batch matrix against the per-claim reference loop, compared on the bits."""

    @settings(max_examples=300, deadline=None)
    @given(scored_runs())
    def test_matrix_equals_reference_loop_bit_for_bit(self, run):
        per_claim, claims, triples = run
        check_triples(triples)  # every drawn triple is a valid one
        X = feature_matrix(claims, triples, len(per_claim))
        want = [oracles.features(t) for t in per_claim]
        assert X.tobytes() == np.array([f for f, _ in want]).reshape(-1, 12).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(TRIPLES, max_size=12))
    def test_one_claim_call_equals_reference_loop(self, triples):
        check_triples(np.array(triples).reshape(-1, 3))
        fv = features(triples)
        want, _ = oracles.features(triples)
        assert fv.tobytes() == np.array(want).tobytes()

    def test_claims_without_candidates_get_zero_rows(self):
        X = feature_matrix(np.array([1, 1], dtype=np.int64),
                           np.array([[0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3]]), 3)
        assert X[0].tolist() == X[2].tolist() == [0.0] * 12
        assert X[1, :3].tolist() == [2.0, 1.0, 1.0]

    def test_negative_zero_maximum_reads_as_zero(self):
        # max(0.0, -0.0) is 0.0, and a feature row must not write -0.0
        X = feature_matrix(np.zeros(1, dtype=np.int64), np.array([[-0.0, 0.5, 0.5]]), 1)
        assert not np.signbit(X).any()
