import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from claimcheck.corpus import SentenceRef
from claimcheck.entailment import EntailmentTriple, ScoredCandidate
from claimcheck.features import FeatureVector, feature_matrix, features, indicators
from conftest import TRIPLES, interleaved


def random_triple(rng) -> EntailmentTriple:
    raw = rng.random(3)
    if rng.random() < 0.2:  # force exact ties now and then
        raw[1] = raw[0]
    raw /= raw.sum()
    s, r = float(raw[0]), float(raw[1])
    return EntailmentTriple(s, r, 1.0 - s - r)


def straight_line(triples):
    """Every formula written out longhand, no shared code with features()."""
    cs = [1 if t.support >= t.refute and t.support >= t.uninformative else 0
          for t in triples]
    cr = [1 if t.refute >= t.support and t.refute >= t.uninformative else 0
          for t in triples]
    cu = [1 if t.uninformative >= t.support and t.uninformative >= t.refute else 0
          for t in triples]
    f1, f2, f3 = sum(cs), sum(cr), sum(cu)
    f4 = sum(t.support * c for t, c in zip(triples, cs))
    f5 = sum(t.refute * c for t, c in zip(triples, cr))
    f6 = sum(t.uninformative * c for t, c in zip(triples, cu))
    f7 = max((t.support for t in triples), default=0.0)
    f8 = max((t.refute for t in triples), default=0.0)
    f9 = max((t.uninformative for t in triples), default=0.0)
    f10 = f4 / f1 if f1 else 0.0
    f11 = f5 / f2 if f2 else 0.0
    f12 = f6 / f3 if f3 else 0.0
    return [f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12]


class TestIndicators:
    def test_strict_maximum(self):
        ind = indicators(EntailmentTriple(0.7, 0.2, 0.1))
        assert (ind.cs, ind.cr, ind.cu) == (1, 0, 0)

    def test_three_way_tie(self):
        ind = indicators(EntailmentTriple(1 / 3, 1 / 3, 1 / 3))
        assert (ind.cs, ind.cr, ind.cu) == (1, 1, 1)

    def test_two_way_tie(self):
        ind = indicators(EntailmentTriple(0.4, 0.4, 0.2))
        assert (ind.cs, ind.cr, ind.cu) == (1, 1, 0)

    def test_depends_only_on_ordering(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            t = random_triple(rng)
            ind = indicators(t)
            assert ind.cs == int(t.support >= t.refute and t.support >= t.uninformative)
            assert ind.cr == int(t.refute >= t.support and t.refute >= t.uninformative)
            assert ind.cu == int(t.uninformative >= t.support and t.uninformative >= t.refute)
            assert ind.cs + ind.cr + ind.cu >= 1


class TestFeatures:
    def test_empty_candidates(self):
        fv = features([])
        assert fv.as_array().tolist() == [0.0] * 12 and fv.n == 0

    def test_hand_example_three_distinct(self):
        fv = features([EntailmentTriple(0.7, 0.2, 0.1),
                       EntailmentTriple(0.2, 0.5, 0.3),
                       EntailmentTriple(0.1, 0.2, 0.7)])
        assert fv.as_array().tolist() == [1, 1, 1, 0.7, 0.5, 0.7,
                                          0.7, 0.5, 0.7, 0.7, 0.5, 0.7]

    def test_hand_example_duplicates(self):
        fv = features([EntailmentTriple(0.6, 0.3, 0.1)] * 2)
        assert (fv.f1, fv.f4, fv.f7, fv.f10) == (2, 1.2, 0.6, 0.6)

    def test_matches_straight_line_reevaluation(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            triples = [random_triple(rng) for _ in range(int(rng.integers(0, 51)))]
            got = features(triples).as_array()
            want = np.array(straight_line(triples))
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(43)
        triples = [random_triple(rng) for _ in range(20)]
        shuffled = list(triples)
        rng.shuffle(shuffled)
        # sums commute only up to rounding, so compare within the formula tolerance
        np.testing.assert_allclose(features(triples).as_array(),
                                   features(shuffled).as_array(), atol=1e-12, rtol=0)
        assert features(triples).n == features(shuffled).n

    def test_accepts_scored_candidates(self):
        cand = ScoredCandidate(SentenceRef("A", 0), EntailmentTriple(1.0, 0.0, 0.0))
        fv = features([cand])
        assert fv.f1 == 1 and fv.f4 == 1.0 and fv.n == 1

    def test_structural_invariants(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            fv = features([random_triple(rng) for _ in range(n)])
            assert fv.f1 + fv.f2 + fv.f3 >= n
            assert fv.f4 <= fv.f1 and fv.f5 <= fv.f2 and fv.f6 <= fv.f3
            for name in ("f7", "f8", "f9", "f10", "f11", "f12"):
                assert 0.0 <= getattr(fv, name) <= 1.0


def test_feature_vector_array_order():
    fv = FeatureVector(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, n=3)
    assert fv.as_array().tolist() == list(range(1, 13))


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
        for t in triples.tolist():
            EntailmentTriple(*t)  # every drawn triple is a valid one
        X, n = feature_matrix(claims, triples, len(per_claim))
        want = [oracles.features(t) for t in per_claim]
        assert X.tobytes() == np.array([f for f, _ in want]).reshape(-1, 12).tobytes()
        assert n.tolist() == [count for _, count in want]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(TRIPLES, max_size=12))
    def test_one_claim_call_equals_reference_loop(self, triples):
        fv = features([EntailmentTriple(*t) for t in triples])
        want, count = oracles.features(triples)
        assert fv.as_array().tobytes() == np.array(want).tobytes() and fv.n == count

    def test_claims_without_candidates_get_zero_rows(self):
        X, n = feature_matrix(np.array([1, 1], dtype=np.int64),
                              np.array([[0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3]]), 3)
        assert X[0].tolist() == X[2].tolist() == [0.0] * 12
        assert n.tolist() == [0, 2, 0]
        assert X[1, :3].tolist() == [2.0, 1.0, 1.0]

    def test_negative_zero_maximum_reads_as_zero(self):
        # max(0.0, -0.0) is 0.0, and a feature row must not write -0.0
        X, _ = feature_matrix(np.zeros(1, dtype=np.int64), np.array([[-0.0, 0.5, 0.5]]), 1)
        assert not np.signbit(X).any()
