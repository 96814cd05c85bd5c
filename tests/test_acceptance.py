"""Acceptance gate: one test per shipped guarantee.

Each test re-derives its expected values independently of the library code
under test (dense rankers, DP tables, straight-line formula evaluation) and
prints a single [PASS] line so a full run reads as a checklist.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from claimcheck import cli, forest, metrics, nli_data, tfidf
from claimcheck.corpus import SentenceRef, ingest_dump
from claimcheck.entailment import ScoredCandidate, score_candidates
from claimcheck.features import features, indicator_matrix
from claimcheck.forest import ForestConfig, TrainingSample
from claimcheck.metrics import GoldInstance, Verdict, prediction_from_row
from claimcheck.nli_data import load_claims
from claimcheck.rows import parse_rows
from claimcheck.tokenizer import hashed_counts, tokenize
from claimcheck.verdict import assemble

from conftest import levenshtein, make_random_corpus

ROOT = Path(__file__).resolve().parent.parent
DUMP = ROOT / "data" / "mini_wiki.jsonl"
CLAIMS = ROOT / "data" / "mini_claims.jsonl"

LABELS = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")


@pytest.fixture
def report(capsys):
    def emit(line: str) -> None:
        with capsys.disabled():
            print(line)
    return emit


# -- independent oracles -----------------------------------------------------


def dense_rank(items, query, orders, bins, tie_key):
    """Brute-force dense tf-idf cosine ranking over full bin vectors."""
    ids = [item_id for item_id, _ in items]
    n = len(items)
    mat = np.zeros((n, bins))
    df = np.zeros(bins)
    counts_per_item = []
    for _, text in items:
        counts = hashed_counts(tokenize(text), orders, bins)
        counts_per_item.append(counts)
        for b in counts:
            df[b] += 1
    idf = np.maximum(0.0, np.log((n - df + 0.5) / (df + 0.5)))
    for row, counts in enumerate(counts_per_item):
        for b, c in counts.items():
            mat[row, b] = math.log1p(c) * idf[b]
    q = np.zeros(bins)
    for b, c in hashed_counts(tokenize(query), orders, bins).items():
        q[b] = math.log1p(c) * idf[b]
    dots = mat @ q
    denom = np.linalg.norm(mat, axis=1) * np.linalg.norm(q)
    scores = np.divide(dots, denom, out=np.zeros(n), where=denom > 0)
    order = sorted((i for i in range(n) if scores[i] > 0),
                   key=lambda i: (-scores[i], tie_key(ids[i])))
    return [(ids[i], float(scores[i])) for i in order]


def canonical_order(pairs, tie_key, tol=1e-9):
    """Re-sort runs of scores tied within tol by id.

    Exact ties are id-ordered by contract; summation order may split them by
    an ulp, so the comparison must group them before checking sequences.
    """
    out = []
    i = 0
    while i < len(pairs):
        j = i
        while j < len(pairs) and abs(pairs[j][1] - pairs[i][1]) <= tol:
            j += 1
        out.extend(sorted(pairs[i:j], key=lambda p: tie_key(p[0])))
        i = j
    return out


def assert_same_ranking(got, want, tie_key):
    got_pairs = canonical_order([(g.item, g.score) for g in got], tie_key)
    want_pairs = canonical_order(want, tie_key)
    assert [p[0] for p in got_pairs] == [p[0] for p in want_pairs]
    for (_, a), (_, b) in zip(got_pairs, want_pairs):
        assert a == pytest.approx(b, abs=1e-9)


def dp_levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


def straight_line_features(triples):
    cs = [1 if t[0] >= t[1] and t[0] >= t[2] else 0 for t in triples]
    cr = [1 if t[1] >= t[0] and t[1] >= t[2] else 0 for t in triples]
    cu = [1 if t[2] >= t[0] and t[2] >= t[1] else 0 for t in triples]
    f1, f2, f3 = float(sum(cs)), float(sum(cr)), float(sum(cu))
    f4 = sum(t[0] * c for t, c in zip(triples, cs))
    f5 = sum(t[1] * c for t, c in zip(triples, cr))
    f6 = sum(t[2] * c for t, c in zip(triples, cu))
    f7 = max((t[0] for t in triples), default=0.0)
    f8 = max((t[1] for t in triples), default=0.0)
    f9 = max((t[2] for t in triples), default=0.0)
    f10 = f4 / f1 if f1 else 0.0
    f11 = f5 / f2 if f2 else 0.0
    f12 = f6 / f3 if f3 else 0.0
    return np.array([f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12])


def random_triple(rng) -> tuple:
    if rng.random() < 0.2:  # force exact ties through repeated components
        parts = [rng.integers(1, 4), rng.integers(1, 4)]
        parts.append(parts[rng.integers(0, 2)])
        total = sum(parts)
        vals = [p / total for p in parts]
    else:
        raw = rng.random(3)
        vals = list(raw / raw.sum())
    return tuple(vals)


class OracleScorer:
    """One-hot probability on the gold label for gold refs, neutral elsewhere."""

    name = "oracle"

    def __init__(self, instances):
        self.gold = {}
        for inst in instances:
            union = {ref for group in inst.evidence_sets for ref in group}
            self.gold[inst.claim_id] = (inst.label, union)

    def score_all(self, instances, table, claims, rows) -> list:
        return [self.score(instances[c].claim_id, ref)
                for c, ref in zip(claims.tolist(), table.refs(rows))]

    def score(self, claim_id, ref) -> tuple:
        label, union = self.gold[claim_id]
        if ref in union and label == "SUPPORTS":
            return 1.0, 0.0, 0.0
        if ref in union and label == "REFUTES":
            return 0.0, 1.0, 0.0
        return 0.0, 0.0, 1.0


# -- criteria ----------------------------------------------------------------


def test_tfidf_matches_dense_oracle(report):
    bins = 16384
    rng = np.random.default_rng(9001)
    started = time.perf_counter()
    checked_docs = checked_sents = 0
    for _ in range(20):
        corpus = make_random_corpus(rng, max_docs=100, max_sents=40, min_docs=5)
        index = tfidf.build_document_index(corpus, bin_count=bins)
        doc_items = [(d.page_id, d.text) for d in corpus.documents()]
        for _ in range(3):
            words = rng.choice(tokenize(doc_items[rng.integers(0, len(doc_items))][1]),
                               size=rng.integers(2, 8))
            query = " ".join(words)
            k = int(rng.integers(1, 9))

            got = tfidf.top_k_documents(index, query, k=len(doc_items))
            want = dense_rank(doc_items, query, (1, 2), bins, lambda pid: pid)
            assert_same_ranking(got, want, lambda pid: pid)
            small = tfidf.top_k_documents(index, query, k=k)
            assert [(g.item, g.score) for g in small] == \
                   [(g.item, g.score) for g in got[:k]]
            checked_docs += 1

            docs = [corpus.get(g.item) for g in got[:5]] or \
                   [corpus.get(doc_items[0][0])]
            sent_items = [(ref, doc.sentence(ref.line_number))
                          for doc in sorted(docs, key=lambda d: d.page_id)
                          for ref in doc.non_empty_refs()]
            sent_key = lambda r: (r.page_id, r.line_number)
            got_s = tfidf.top_k_sentences(docs, query, k=len(sent_items) + 1,
                                          bin_count=bins)
            want_s = dense_rank(sent_items, query, (2,), bins, sent_key)
            assert_same_ranking(got_s, want_s, sent_key)
            small_s = tfidf.top_k_sentences(docs, query, k=k, bin_count=bins)
            assert [(g.item, g.score) for g in small_s] == \
                   [(g.item, g.score) for g in got_s[:k]]
            checked_sents += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(f"[PASS] tf-idf ranking matches the dense oracle: 20 corpora, "
           f"{checked_docs} document and {checked_sents} sentence queries, "
           f"scores within 1e-9, {elapsed:.1f}s (< 30s)")


def test_levenshtein_matches_dp_oracle(report):
    rng = np.random.default_rng(9002)
    alphabet = "abcdefgh _"
    def sample():
        return "".join(rng.choice(list(alphabet), size=rng.integers(0, 31)))
    for _ in range(1000):
        a, b = sample(), sample()
        assert levenshtein(a, b) == dp_levenshtein(a, b)
    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        ab, ba = levenshtein(a, b), levenshtein(b, a)
        ac, cb = levenshtein(a, c), levenshtein(c, b)
        assert ab == ba
        assert ab <= ac + cb
    report("[PASS] levenshtein agrees with the DP-table oracle on 1000 pairs; "
           "symmetry and triangle inequality hold on 1000 triples")


def test_feature_formulas(report):
    rng = np.random.default_rng(9003)
    for _ in range(1000):
        triples = [random_triple(rng) for _ in range(rng.integers(0, 51))]
        np.testing.assert_allclose(features(triples),
                                   straight_line_features(triples),
                                   atol=1e-12, rtol=0)

    empty = features([])
    assert empty.tolist() == [0.0] * 12

    fv = features([(0.7, 0.2, 0.1), (0.2, 0.5, 0.3), (0.1, 0.2, 0.7)])
    assert fv.tolist() == [1, 1, 1, 0.7, 0.5, 0.7, 0.7, 0.5, 0.7, 0.7, 0.5, 0.7]

    twice = features([(0.6, 0.3, 0.1)] * 2)
    assert (twice[0], twice[3], twice[6], twice[9]) == (2, 1.2, 0.6, 0.6)
    report("[PASS] feature formulas match straight-line re-evaluation on 1000 "
           "random sets within 1e-12; all three hand-derived examples exact")


def test_indicator_tie_semantics(report):
    third = 1 / 3
    full = indicator_matrix(np.array([(third, third, third)]))[0]
    assert tuple(full) == (1, 1, 1)
    two = indicator_matrix(np.array([(0.4, 0.4, 0.2)]))[0]
    assert tuple(two) == (1, 1, 0)
    report("[PASS] indicator ties: (1/3,1/3,1/3) -> (1,1,1) and "
           "(0.4,0.4,0.2) -> (1,1,0)")


def _separable_sample(rng):
    vals = rng.random(12)
    label = "SUPPORTS" if vals[6] > 0.5 else "REFUTES"
    return TrainingSample(vals, label)


def _depth(node) -> int:
    if "dist" in node:
        return 0
    return 1 + max(_depth(node["left"]), _depth(node["right"]))


def test_random_forest(report, tmp_path):
    rng = np.random.default_rng(9005)
    train_set = [_separable_sample(rng) for _ in range(200)]
    held_out = [_separable_sample(rng) for _ in range(200)]
    model = forest.train(train_set, ForestConfig(trees=50, max_depth=3, seed=17))

    noisy = [TrainingSample(rng.random(12),
                            LABELS[rng.integers(0, 3)]) for _ in range(150)]
    noisy_model = forest.train(noisy, ForestConfig(trees=50, max_depth=3, seed=18))
    for m in (model, noisy_model):
        assert all(_depth(t) <= 3 for t in m.trees)

    hits = sum(model.predict(s.features)[0] == s.label for s in held_out)
    assert hits / len(held_out) >= 0.95

    again = forest.train(train_set, ForestConfig(trees=50, max_depth=3, seed=17))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    forest.save(model, a)
    forest.save(again, b)
    assert a.read_bytes() == b.read_bytes()

    loaded = forest.load(a)
    for _ in range(100):
        fv = rng.random(12)
        label, probs = model.predict(fv)
        label2, probs2 = loaded.predict(fv)
        assert label == label2 and probs.tolist() == probs2.tolist()
    report(f"[PASS] random forest: all tree depths <= 3, separable held-out "
           f"accuracy {hits / len(held_out):.1%} (>= 95%), equal seeds "
           f"bit-identical, round-trip preserves 100 predictions")


def test_nli_dataset_generation(report, tmp_path):
    corpus, _ = ingest_dump(DUMP)
    instances = load_claims(CLAIMS)
    assert len(instances) == 30
    by_id = {inst.claim_id: inst for inst in instances}

    examples, manifest = nli_data.build_nli_dataset(instances, corpus, seed=11)
    for ex in examples:
        if ex.label != "Neutral":
            continue
        claim_id, page, line = ex.origin
        assert SentenceRef(page, line) not in by_id[claim_id].all_refs()

    balanced = nli_data.undersample(examples, seed=11)
    counts = {label: sum(ex.label == label for ex in balanced)
              for label in nli_data.NLI_LABELS}
    assert len(set(counts.values())) == 1 and min(counts.values()) > 0

    paths = []
    for name in ("first", "second"):
        ex2, _ = nli_data.build_nli_dataset(instances, corpus, seed=11)
        out = tmp_path / f"{name}.jsonl"
        nli_data.write_examples(out, nli_data.undersample(ex2, seed=11))
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    # full-corpus class totals are out of reach here; the manifest records
    # this run's counts instead so they stay inspectable
    for key in ("entailment", "contradiction", "neutral", "neutral_skipped"):
        assert isinstance(manifest[key], int) and manifest[key] >= 0
    report(f"[PASS] nli generation: neutrals absent from their claim's evidence, "
           f"balanced classes at {min(counts.values())} each, regeneration "
           f"byte-identical, manifest records desk-scale counts")


def test_verdict_overrides(report):
    refuting = [ScoredCandidate(SentenceRef(f"P{i}", i), (0.1, 0.7, 0.2))
                for i in range(4)]
    v = assemble(1, "SUPPORTS", refuting)
    assert (v.label, v.evidence, v.override_applied) == ("NOT ENOUGH INFO", (), True)

    supports = [0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6]
    cands = [ScoredCandidate(SentenceRef(f"P{i}", i),
                             (s, (1 - s) / 2, (1 - s) / 2))
             for i, s in enumerate(supports)]
    v = assemble(2, "SUPPORTS", cands)
    assert len(v.evidence) == 5
    products = [supports[int(ref.page_id[1:])] for ref in v.evidence]
    assert products == sorted(products, reverse=True)
    assert v.evidence == tuple(SentenceRef(f"P{i}", i) for i in range(5))
    report("[PASS] verdict overrides: all-cs-zero flips SUPPORTS to NOT ENOUGH "
           "INFO with empty evidence; evidence sorted by s*cs and capped at 5")


def _random_gold_and_predictions(rng):
    gold, preds = [], []
    for cid in range(int(rng.integers(1, 10))):
        label = LABELS[rng.integers(0, 3)]
        sets = ()
        if label != "NOT ENOUGH INFO":
            sets = tuple(frozenset(SentenceRef(f"P{rng.integers(0, 5)}",
                                               int(rng.integers(0, 8)))
                                   for _ in range(rng.integers(1, 3)))
                         for _ in range(rng.integers(1, 3)))
        gold.append(GoldInstance(cid, label, sets))
        if rng.random() < 0.2:
            continue
        plabel = label if rng.random() < 0.5 else LABELS[rng.integers(0, 3)]
        evidence = tuple({SentenceRef(f"P{rng.integers(0, 5)}", int(rng.integers(0, 8)))
                          for _ in range(rng.integers(0, 5))})
        preds.append(Verdict(cid, plabel, evidence, False))
    return gold, preds


def test_metrics_fixtures_and_bound(report):
    gold = [GoldInstance(1, "SUPPORTS", (frozenset({SentenceRef("A", 0)}),)),
            GoldInstance(2, "NOT ENOUGH INFO", ())]
    perfect = [Verdict(1, "SUPPORTS", (SentenceRef("A", 0),), False),
               Verdict(2, "NOT ENOUGH INFO", (), False)]
    r = metrics.score(gold, perfect)
    assert (r.label_accuracy, r.evidence_precision, r.evidence_recall,
            r.evidence_f1, r.fever_score) == (1.0, 1.0, 1.0, 1.0, 1.0)

    half = [Verdict(1, "SUPPORTS", (SentenceRef("A", 0),), False),
            Verdict(2, "REFUTES", (), False)]
    r = metrics.score(gold, half)
    assert r.label_accuracy == 0.5 and r.fever_score == 0.5

    two_sent = [GoldInstance(1, "SUPPORTS",
                             (frozenset({SentenceRef("A", 0), SentenceRef("B", 0)}),))]
    incomplete = [Verdict(1, "SUPPORTS", (SentenceRef("A", 0),), False)]
    r = metrics.score(two_sent, incomplete)
    assert r.label_accuracy == 1.0 and r.fever_score == 0.0
    assert r.fever_score < r.label_accuracy

    rng = np.random.default_rng(9008)
    for _ in range(100):
        g, p = _random_gold_and_predictions(rng)
        rr = metrics.score(g, p)
        assert rr.fever_score <= rr.label_accuracy + 1e-12
    report("[PASS] metrics: perfect fixture all 1.0, half-correct pair 0.5/0.5, "
           "incomplete evidence set drops fever below accuracy, fever <= "
           "accuracy on 100 random gold/prediction pairs")


def test_end_to_end(report, tmp_path):
    corpus, _ = ingest_dump(DUMP)
    instances = load_claims(CLAIMS)
    index = tfidf.build_document_index(corpus, bin_count=65536)
    table, claims, rows = cli.retrieve_candidates(corpus, index, instances)

    scorer = OracleScorer(instances)
    scored = {inst.claim_id: score_candidates(scorer, inst.claim_id, inst.claim,
                                              table.refs(rows[claims == c]), corpus)
              for c, inst in enumerate(instances)}
    fvs = {cid: features(sc) for cid, sc in scored.items()}
    samples = [TrainingSample(fvs[inst.claim_id], inst.label) for inst in instances]
    model = forest.train(samples, ForestConfig(trees=50, max_depth=3, seed=19))
    verdicts = {inst.claim_id: assemble(inst.claim_id,
                                        model.predict(fvs[inst.claim_id])[0],
                                        scored[inst.claim_id])
                for inst in instances}

    singleton = [inst for inst in instances
                 if any(len(group) == 1 for group in inst.evidence_sets)]
    assert len(singleton) >= 15
    gold = [GoldInstance(i.claim_id, i.label,
                         tuple(frozenset(g) for g in i.evidence_sets))
            for i in singleton]
    r = metrics.score(gold, [verdicts[i.claim_id] for i in singleton])
    assert r.fever_score == 1.0

    started = time.perf_counter()
    out = tmp_path / "pred.jsonl"
    assert cli.main(["-q", "e2e", "--corpus", str(DUMP), "--claims", str(CLAIMS),
                     "--bins", "65536", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    rows = list(parse_rows(out, "prediction", prediction_from_row))
    assert len(rows) == len(instances)
    report(f"[PASS] end-to-end: oracle probabilities give fever 1.0 on the "
           f"{len(singleton)} single-sentence-evidence claims; baseline run "
           f"finished in {elapsed:.2f}s (< 60s) with schema-valid predictions")
