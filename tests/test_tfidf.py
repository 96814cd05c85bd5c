"""Index behavior against a brute-force dense reference implementation."""

import json
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimcheck import cli, ner, tfidf
from claimcheck.corpus import Corpus, Document, SentenceRef, ingest_dump, read_saved
from claimcheck.nli_data import FeverInstance
from claimcheck.tokenizer import hash_ngram, hashed_counts, ngram_bins, tokenize

from conftest import WORDS, make_random_corpus

BINS = 4096  # small enough to force hash collisions


def dense_scores(items, query, bin_count, orders):
    """Straight-line tf-idf cosine over explicit dense vectors."""
    n = len(items)
    df = np.zeros(bin_count)
    counts_per_item = []
    for _, text in items:
        counts = hashed_counts(tokenize(text), orders, bin_count)
        counts_per_item.append(counts)
        for b in counts:
            df[b] += 1
    idf = np.maximum(0.0, np.log((n - df + 0.5) / (df + 0.5)))

    vecs = np.zeros((n, bin_count))
    for i, counts in enumerate(counts_per_item):
        for b in sorted(counts):
            vecs[i, b] = math.log1p(counts[b]) * idf[b]

    q = np.zeros(bin_count)
    q_counts = hashed_counts(tokenize(query), orders, bin_count)
    for b in sorted(q_counts):
        q[b] = math.log1p(q_counts[b]) * idf[b]

    qn = np.linalg.norm(q)
    if qn == 0:
        return []
    norms = np.linalg.norm(vecs, axis=1)
    out = []
    for i in range(n):
        if norms[i] > 0:
            score = float(vecs[i] @ q / (norms[i] * qn))
            if score > 0:
                out.append((items[i][0], score))
    return out


def dense_top_k(items, query, bin_count, orders, k):
    scored = dense_scores(items, query, bin_count, orders)
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def doc_items(corpus):
    return [(d.page_id, d.text) for d in corpus.documents()]


class TestOracleEquivalence:
    def test_documents_match_dense(self):
        rng = np.random.default_rng(20)
        for trial in range(5):
            corpus = make_random_corpus(rng, max_docs=40, max_sents=10)
            index = tfidf.build_document_index(corpus, bin_count=BINS)
            items = doc_items(corpus)
            for _ in range(4):
                query = " ".join(
                    WORDS[w] for w in rng.integers(0, len(WORDS), size=6))
                for k in (1, 5, len(items)):
                    got = tfidf.top_k_documents(index, query, k=k)
                    want = dense_top_k(items, query, BINS, (1, 2), k)
                    assert [g.item for g in got] == [w[0] for w in want]
                    np.testing.assert_allclose([g.score for g in got],
                                               [w[1] for w in want], atol=1e-9)

    def test_sentences_match_dense(self):
        rng = np.random.default_rng(21)
        corpus = make_random_corpus(rng, max_docs=12, max_sents=8)
        docs = list(corpus.documents())
        items = [(SentenceRef(d.page_id, n), d.sentence(n))
                 for d in sorted(docs, key=lambda d: d.page_id)
                 for n in d.lines]
        query = " ".join(WORDS[w] for w in rng.integers(0, len(WORDS), size=8))
        got = tfidf.top_k_sentences(docs, query, k=5, bin_count=BINS)
        want = dense_top_k(items, query, BINS, (2,), 5)
        assert [g.item for g in got] == [w[0] for w in want]
        np.testing.assert_allclose([g.score for g in got],
                                   [w[1] for w in want], atol=1e-9)


class TestWeighting:
    def test_idf_formula_values(self):
        # 10 docs: term in 1 doc -> log(9.5/1.5); term in all -> clamped to 0
        corpus = Corpus()
        for i in range(10):
            text = "shared everywhere" + (" rare" if i == 0 else "")
            corpus.add_document(Document(f"D{i}", text, {0: text}))
        index = tfidf.build_document_index(corpus, bin_count=BINS)
        rare_bin = hash_ngram(["rare"], BINS)
        shared_bin = hash_ngram(["shared"], BINS)
        i_rare = int(np.searchsorted(index.uniq_bins, rare_bin))
        assert index.df[i_rare] == 1
        w = index.post_weights[index.uniq_offsets[i_rare]:index.uniq_offsets[i_rare + 1]]
        np.testing.assert_allclose(w[0], math.log1p(1) * math.log(9.5 / 1.5))
        i_shared = int(np.searchsorted(index.uniq_bins, shared_bin))
        w = index.post_weights[index.uniq_offsets[i_shared]:index.uniq_offsets[i_shared + 1]]
        assert np.all(w == 0.0)

    def test_single_document_corpus_scores_zero(self):
        corpus = Corpus()
        corpus.add_document(Document("Solo", "one lonely page", {0: "one lonely page"}))
        index = tfidf.build_document_index(corpus, bin_count=BINS)
        assert tfidf.top_k_documents(index, "one lonely page", k=5) == []


class TestRanking:
    def test_identical_text_scores_one(self):
        rng = np.random.default_rng(22)
        corpus = make_random_corpus(rng, max_docs=10, max_sents=5)
        index = tfidf.build_document_index(corpus, bin_count=BINS)
        target = corpus.get(corpus.page_ids()[3])
        got = tfidf.top_k_documents(index, target.text, k=1)
        if got:  # a doc whose every term is corpus-wide has a zero vector
            assert got[0].item == target.page_id
            assert got[0].score <= 1 + 1e-9

    def test_no_shared_tokens_gives_empty(self, mini_corpus):
        index = tfidf.build_document_index(mini_corpus, bin_count=BINS)
        assert tfidf.top_k_documents(index, "zzz qqq xxx", k=5) == []

    def test_k_larger_than_corpus(self):
        corpus = Corpus()
        for i, w in enumerate(["alpha beta", "alpha gamma", "delta beta"]):
            corpus.add_document(Document(f"P{i}", w, {0: w}))
        index = tfidf.build_document_index(corpus, bin_count=BINS)
        assert len(tfidf.top_k_documents(index, "alpha beta delta", k=5)) <= 3

    def test_duplicate_doc_takes_top_two(self):
        rng = np.random.default_rng(23)
        corpus = make_random_corpus(rng, max_docs=20, max_sents=6, min_docs=10)
        index = tfidf.build_document_index(corpus, bin_count=BINS)
        query = corpus.get(corpus.page_ids()[0]).text.split(".")[0]
        top = tfidf.top_k_documents(index, query, k=1)
        assert top, "query drawn from a document should match something"
        best = corpus.get(top[0].item)
        dup = Corpus()
        for d in corpus.documents():
            dup.add_document(d)
        dup.add_document(Document("ZZ_copy", best.text, dict(best.lines)))
        index2 = tfidf.build_document_index(dup, bin_count=BINS)
        top2 = tfidf.top_k_documents(index2, query, k=2)
        assert {t.item for t in top2} == {best.page_id, "ZZ_copy"}

    def test_claim_without_bigrams_finds_no_sentences(self, mini_corpus):
        docs = [mini_corpus.get(p) for p in mini_corpus.page_ids()[:5]]
        assert tfidf.top_k_sentences(docs, "archipelago", k=5, bin_count=BINS) == []

    def test_sentence_ties_break_by_ref(self):
        # two identical sentences on different pages score identically;
        # filler sentences keep their bigrams' idf above zero
        corpus = Corpus()
        filler = ["storm chart keeper", "granite reef lantern", "marsh survey stone",
                  "regatta jetty buoy"]
        for pid in ("B_page", "A_page"):
            lines = [(0, "the iron bell rings")] + list(enumerate(filler, start=1))
            corpus.add_document(Document(pid, " ".join(s for _, s in lines), dict(lines)))
        docs = [corpus.get("B_page"), corpus.get("A_page")]
        got = tfidf.top_k_sentences(docs, "the iron bell rings", k=2, bin_count=BINS)
        assert [g.item for g in got] == [SentenceRef("A_page", 0), SentenceRef("B_page", 0)]
        assert got[0].score == got[1].score

    def test_sentence_ties_break_by_page_then_line(self, tmp_path):
        # lines listed out of order in the dump still rank by (page, line)
        same = "the iron bell rings"
        filler = "0\tstorm chart keeper\n1\tgranite reef lantern\n3\tmarsh survey stone"
        dump = tmp_path / "dump.jsonl"
        with open(dump, "w", encoding="utf-8") as fp:
            for pid in ("B_page", "A_page"):
                lines = f"5\t{same}\n{filler}\n2\t{same}"
                fp.write(json.dumps({"id": pid, "text": same, "lines": lines}) + "\n")
        corpus, _ = ingest_dump(dump)
        docs = [corpus.get("B_page"), corpus.get("A_page")]
        got = tfidf.top_k_sentences(docs, same, k=4, bin_count=BINS)
        assert [g.item for g in got] == [SentenceRef("A_page", 2), SentenceRef("A_page", 5),
                                         SentenceRef("B_page", 2), SentenceRef("B_page", 5)]
        assert len({g.score for g in got}) == 1

    def test_streamed_build_equals_built_from_loaded_corpus(self, tmp_path):
        corpus = make_random_corpus(np.random.default_rng(4), max_docs=60, max_sents=8)
        corpus.source_checksums["d.jsonl"] = "0" * 64
        corpus.save(tmp_path / "c.json.gz")
        streamed = tfidf.index_pages(*read_saved(tmp_path / "c.json.gz"), bin_count=BINS)
        built = tfidf.build_document_index(Corpus.load(tmp_path / "c.json.gz"), bin_count=BINS)
        assert streamed.item_ids == built.item_ids == corpus.page_ids()
        assert streamed.source_checksum == built.source_checksum == f"d.jsonl={'0' * 64}"
        for name in tfidf._ARRAYS:
            assert np.array_equal(getattr(streamed, name), getattr(built, name))

    def test_build_peak_memory_bounded_by_its_output(self):
        """A build holds its arrays plus the working set of hashing about
        tokenizer.CHUNK_BYTES bytes of tokens at a time: on 4000 pages (about
        280,000 tokens) its traced peak stays under 4 times the bytes of the
        arrays it returns.  Holding the hashed n-grams of every
        page at once, as a build that hashes the whole corpus in one go does,
        peaks at about 6 times."""
        rng = np.random.default_rng(0)
        vocab = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=rng.integers(2, 11)))
                 for _ in range(5000)]
        items = []
        for i in range(4000):
            ranks = np.minimum(rng.zipf(1.3, size=int(rng.integers(20, 120))), len(vocab)) - 1
            items.append((f"Page_{i:05d}", " ".join(vocab[r] for r in ranks.tolist())))
        tracemalloc.start()
        try:
            index = tfidf.TfidfIndex.build(items, tfidf.DEFAULT_BIN_COUNT, (1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(getattr(index, name).nbytes for name in tfidf._ARRAYS)
        assert peak < 4 * returned, (peak, returned)


def reference_top_k(ids, entries, query, k):
    """One query against a one-claim index, as retrieval ran before block scoring.

    entries and query are ``ngram_bins`` output.  A postings index is built
    over the entries with one np.sum per item norm; the query is looked up
    bin by bin; np.add.at adds each posting in ascending-bin order; a stable
    argsort ranks every positive score.  Returns (ScoredItems, query norm).
    """
    owner, bins, counts = entries
    n = len(ids)
    uniq_bins, inverse, df = np.unique(bins, return_inverse=True, return_counts=True)
    weights = np.log1p(counts) * tfidf._idf(df, n)[inverse]
    ends = np.cumsum(np.bincount(owner, minlength=n))
    item_norms = np.sqrt([np.sum(sq) for sq in np.split(np.square(weights), ends[:-1])])
    order = np.argsort(bins, kind="stable")
    post_items, post_weights = owner[order], weights[order]
    offsets = np.concatenate(([0], np.cumsum(df)))

    _, q_bins, q_counts = query
    pos = np.searchsorted(uniq_bins, q_bins)
    hit = pos < uniq_bins.size
    hit[hit] = uniq_bins[pos[hit]] == q_bins[hit]
    q_df = np.zeros(q_bins.size, dtype=np.int64)
    q_df[hit] = df[pos[hit]]
    q_weights = np.log1p(q_counts) * tfidf._idf(q_df, n)
    nz = q_weights > 0
    q_norm = float(np.sqrt(np.sum(q_weights[nz] * q_weights[nz])))
    if q_norm == 0.0:
        return [], q_norm
    q_pos, q_weights = pos[hit & nz], q_weights[hit & nz]
    lens = offsets[q_pos + 1] - offsets[q_pos]
    span = tfidf.concat_ranges(offsets[q_pos], lens)
    raw = np.zeros(n)
    np.add.at(raw, post_items[span], post_weights[span] * np.repeat(q_weights, lens))
    denom = item_norms * q_norm
    scores = np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)
    keep = np.flatnonzero(scores > 0)
    top = keep[np.argsort(-scores[keep], kind="stable")[:k]]
    return [tfidf.ScoredItem(ids[i], float(scores[i])) for i in top], q_norm


def reference_route(corpus, claim, bin_count):
    """(the claim's TF-IDF sentences, whether its document query has zero
    norm), with each route's index built for this claim alone."""
    pages = list(corpus.documents())
    docs, q_norm = reference_top_k(
        [d.page_id for d in pages],
        ngram_bins((d.text for d in pages), (1, 2), bin_count),
        ngram_bins([claim], (1, 2), bin_count), cli.K_DOCS)
    refs = sorted(ref for hit in docs for ref in corpus.get(hit.item).non_empty_refs())
    if not refs:
        return [], q_norm == 0.0
    sentences = ngram_bins(map(corpus.get_sentence, refs), (2,), bin_count)
    hits, _ = reference_top_k(refs, sentences, ngram_bins([claim], (2,), bin_count), cli.K_SENTS)
    return hits, q_norm == 0.0


def one_claim_tfidf_route(corpus, index, claim):
    """The TF-IDF route for one claim, as perfbench/bench_trace.py composes it."""
    docs = [corpus.get(hit.item) for hit in tfidf.top_k_documents(index, claim, k=cli.K_DOCS)]
    return tfidf.top_k_sentences(docs, claim, k=cli.K_SENTS, bin_count=index.bin_count)


def batched_route(corpus, index, claims):
    """The TF-IDF route for many claims, as cli.retrieve_candidates composes it:
    (each claim's sentences as ScoredItems of refs, the empty-query count)."""
    docs, empty = tfidf.top_documents(index, claims, cli.K_DOCS)
    pages = [sorted(hit.item for hit in hits) for hits in docs]
    table = corpus.sentence_table({p for ps in pages for p in ps})
    rows = tfidf.sentence_route(table.texts, [[table.spans[p] for p in ps] for ps in pages],
                                claims, index.bin_count, cli.K_SENTS)
    refs = table.refs(np.arange(len(table.texts)))
    return [[tfidf.ScoredItem(refs[row], score) for row, score in hits] for hits in rows], empty


def duplicate_sentence_corpus(rng):
    """Pages drawing sentences from a small shared pool, lines listed out of
    order, some lines empty, and a few pages with text but no sentence."""
    pool = [" ".join(WORDS[w] for w in rng.integers(0, len(WORDS), size=rng.integers(1, 7)))
            for _ in range(12)]
    corpus = Corpus()
    for i in range(int(rng.integers(1, 25))):
        numbers = rng.permutation(int(rng.integers(0, 9)))
        lines = [(int(n), "" if rng.random() < 0.15 else pool[rng.integers(len(pool))])
                 for n in numbers]
        text = " ".join(t for _, t in lines) or pool[rng.integers(len(pool))]
        corpus.add_document(Document(f"P{i:02d}", text, dict(lines)))
    claims = [" ".join(WORDS[w] for w in rng.integers(0, len(WORDS), size=rng.integers(0, 9)))
              for _ in range(6)] + [pool[0], "", "!!"]
    return corpus, claims


class TestBatchedRoute:
    """Block scoring must give every claim the items and the scores, to the
    bit, of the reference route that indexes each claim alone, whatever the
    block size: one claim per block (BLOCK_CELLS = 1), blocks of several
    claims next to claims that exceed the budget alone (48), and the default."""

    BUDGETS = (1, 48, tfidf.BLOCK_CELLS)

    def check(self, corpus, claims, bin_count, monkeypatch, blocks):
        index = tfidf.build_document_index(corpus, bin_count=bin_count)
        want = [reference_route(corpus, c, bin_count) for c in claims]
        want_hits = [hits for hits, _ in want]
        for budget in self.BUDGETS:
            with monkeypatch.context() as m:
                m.setattr(tfidf, "BLOCK_CELLS", budget)
                spy = tfidf._blocks

                def recording(costs):
                    for a, b in spy(costs):
                        blocks.setdefault(budget, []).append((b - a, int(costs[a:b].sum())))
                        yield a, b

                m.setattr(tfidf, "_blocks", recording)
                batched, empty = batched_route(corpus, index, claims)
                assert batched == want_hits
                assert empty == sum(is_empty for _, is_empty in want)
                assert [one_claim_tfidf_route(corpus, index, c) for c in claims] == want_hits

        instances = [FeverInstance(i, c, "NOT ENOUGH INFO", ()) for i, c in enumerate(claims)]
        matcher = ner.TitleMatcher(corpus)
        expected = {i: sorted({ref for mention in ner.claim_mentions(c)
                               for ref in corpus.get(matcher.match(mention).page_id)
                               .non_empty_refs()} | {hit.item for hit in hits})
                    for i, (c, hits) in enumerate(zip(claims, want_hits))}
        table, owners, rows = cli.retrieve_candidates(corpus, index, instances)
        refs = table.refs(rows)
        assert {i: [ref for c, ref in zip(owners.tolist(), refs) if c == i]
                for i in expected} == expected
        assert owners.tolist() == sorted(owners.tolist())

    def test_fixture_corpus(self, mini_corpus, mini_instances, monkeypatch):
        self.check(mini_corpus, [inst.claim for inst in mini_instances], 65536, monkeypatch, {})

    def test_random_corpora_with_duplicate_sentences(self, monkeypatch):
        rng = np.random.default_rng(5)
        blocks = {}
        for trial in range(30):
            corpus, claims = duplicate_sentence_corpus(rng)
            self.check(corpus, claims, int(rng.choice([1, 16, BINS, 2**32])), monkeypatch,
                       blocks)
        for budget in self.BUDGETS:  # a block of several claims stays within budget
            assert all(cost <= budget for n, cost in blocks[budget] if n > 1)
        assert any(n > 1 for n, _ in blocks[48])
        assert any(n == 1 and cost > 48 for n, cost in blocks[48])

    def test_each_text_hashed_once(self, mini_corpus, mini_instances, monkeypatch):
        claims = [inst.claim for inst in mini_instances]
        index = tfidf.build_document_index(mini_corpus, bin_count=BINS)
        pages = sorted({hit.item for c in claims
                        for hit in tfidf.top_k_documents(index, c, k=cli.K_DOCS)})
        sentences = [doc.sentence(ref.line_number) for doc in map(mini_corpus.get, pages)
                     for ref in sorted(doc.non_empty_refs())]
        hasher = tfidf.ngram_bins
        for budget in self.BUDGETS:
            calls = []

            def spy(texts, orders, bin_count):
                calls.append((list(texts), tuple(orders)))
                return hasher(calls[-1][0], orders, bin_count)

            with monkeypatch.context() as m:
                m.setattr(tfidf, "BLOCK_CELLS", budget)
                m.setattr(tfidf, "ngram_bins", spy)
                batched_route(mini_corpus, index, claims)
            assert calls == [(claims, (1, 2)), (sentences, (2,)), (claims, (2,))]

    def test_no_claims(self, mini_corpus):
        index = tfidf.build_document_index(mini_corpus, bin_count=BINS)
        assert batched_route(mini_corpus, index, []) == ([], 0)


# raw dot products and norms drawn from a few values, so that rows tie often
RAW = st.sampled_from([0.0, 0.25, 0.5, 1.0])
NORMS = st.sampled_from([0.0, 0.5, 2.0])


@st.composite
def score_blocks(draw):
    """(raw, item norms, query norms, k) of one dense block.  A page or query
    of zero norm (a page without terms, an empty query) has raw 0.0 against
    everything, as block scoring gives it."""
    n_rows, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 7)), draw(st.integers(1, 8))
    raw = np.array(draw(st.lists(RAW, min_size=n_rows * n, max_size=n_rows * n)))
    raw = raw.reshape(n_rows, n)
    item_norms = np.array(draw(st.lists(NORMS, min_size=n, max_size=n)))
    query_norms = np.array(draw(st.lists(NORMS, min_size=n_rows, max_size=n_rows)))
    raw[:, item_norms == 0] = 0.0
    raw[query_norms == 0] = 0.0
    return raw, item_norms, query_norms, k


def block(raw, item_norms, query_norms, k):
    return np.array(raw, dtype=float), np.array(item_norms), np.array(query_norms), k


# pages and claims drawn from a few texts: exact duplicates, a page without
# terms (""), an empty claim, and texts whose terms most pages share
POOL = ["harbor light island", "stone mill", "tern reef chart", "storm", "harbor stone", ""]


class TestDenseSelection:
    """The document route's selection: k argmax passes over a dense block
    pick what a sort of its positive scores picks, ties to the lowest page."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(score_blocks())
    @example(block([[0, 0, 0], [1, 0.5, 0.5]], [1, 1, 1], [1, 1], 2))  # an all-zero row
    @example(block([[0.5, 0, 0.5, 0]], [1, 1, 1, 1], [1], 3))  # fewer than k positive
    @example(block([[0.5, 0.5]], [2, 2], [1], 5))  # n < k
    @example(block([[0.5, 0, 0.5]], [1, 0, 1], [1], 3))  # a zero-norm page
    @example(block([[0, 0], [0.5, 0.5]], [1, 1], [0, 1], 2))  # an empty query
    def test_picks_the_sorted_positive_scores(self, scored):
        raw, item_norms, query_norms, k = scored
        # the route's cosine is the zero-guarded division, bit for bit
        denom = item_norms * query_norms[:, np.newaxis]
        guarded = np.divide(raw, denom, out=np.zeros(raw.shape), where=denom > 0)
        scores = raw / (tfidf._zero_as_inf(item_norms)
                        * tfidf._zero_as_inf(query_norms)[:, np.newaxis])
        assert scores.tobytes() == guarded.tobytes()
        ids = [f"P{i}" for i in range(raw.shape[1])]
        rows, items = np.nonzero(scores > 0)
        values = scores[rows, items]
        top = tfidf.top_k_per_claim(rows, items, values, k)
        want = [[] for _ in range(raw.shape[0])]
        for r, i, s in zip(rows[top].tolist(), items[top].tolist(), values[top].tolist()):
            want[r].append(tfidf.ScoredItem(ids[i], s))
        assert tfidf.top_k_dense(scores, k, ids) == want

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(pages=st.lists(st.sampled_from(POOL), min_size=1, max_size=14),
           claims=st.lists(st.sampled_from([*POOL, "harbor light", "zzz"]), min_size=1,
                           max_size=6),
           k=st.integers(1, 6))
    def test_route_matches_the_reference_on_tied_pages(self, pages, claims, k):
        ids = [f"P{i:02d}" for i in range(len(pages))]
        index = tfidf.TfidfIndex.build(zip(ids, pages), BINS, (1, 2))
        entries = ngram_bins(pages, (1, 2), BINS)
        want = [reference_top_k(ids, entries, ngram_bins([c], (1, 2), BINS), k)
                for c in claims]
        docs, empty = tfidf.top_documents(index, claims, k)
        assert docs == [hits for hits, _ in want]
        assert empty == sum(norm == 0.0 for _, norm in want)

    def test_exact_duplicates_give_the_lowest_page_ids(self):
        rng = np.random.default_rng(7)
        text = "harbor light island"
        others = [w for w in WORDS if w not in text.split()]
        copies = {3, 7, 8, 12, 15, 16, 19}
        pages = [(f"P{i:02d}", text if i in copies
                  else " ".join(rng.choice(others, size=6, replace=False)))
                 for i in range(20)]
        index = tfidf.TfidfIndex.build(pages, BINS, (1, 2))
        docs, _ = tfidf.top_documents(index, ["storm", text, text, "harbor"], 5)
        for hits in docs[1:3]:
            assert [hit.item for hit in hits] == ["P03", "P07", "P08", "P12", "P15"]
            assert len({hit.score for hit in hits}) == 1 and hits[0].score > 0

    def test_peak_memory_bounded_by_a_few_blocks(self):
        """One call holds what hashing the claims holds, a few block matrices
        (BLOCK_CELLS doubles each) and what it returns, never a matrix of
        every claim against every page, over 3 times that bound here."""
        rng = np.random.default_rng(3)
        vocab = [f"w{i}" for i in range(3000)]
        pages = [(f"P{i:05d}", " ".join(rng.choice(vocab, size=40))) for i in range(1500)]
        claims = [" ".join(rng.choice(vocab, size=int(rng.integers(0, 12))))
                  for _ in range(300)]
        index = tfidf.TfidfIndex.build(pages, 2**20, (1, 2))
        assert index.item_count * 4 < tfidf.BLOCK_CELLS  # several claims share a block
        tracemalloc.start()
        try:
            ngram_bins(claims, (1, 2), 2**20)
            hashing = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            docs, _ = tfidf.top_documents(index, claims, cli.K_DOCS)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, docs)) > 1000  # the returned hits are part of held
        bound = hashing + held + 4 * tfidf.BLOCK_CELLS * 8
        assert peak < bound, (peak, hashing, held)
        assert len(claims) * index.item_count * 8 > 3 * bound


class TestRetrieveCandidates:
    """cli.retrieve_candidates hands both routes' pages to one sentence table."""

    def test_each_page_listed_once(self, mini_corpus, mini_instances, monkeypatch):
        index = tfidf.build_document_index(mini_corpus, bin_count=BINS)
        listed = Counter()
        listing = Document.numbered_sentences

        def spy(doc):
            listed[doc.page_id] += 1
            return listing(doc)

        monkeypatch.setattr(Document, "numbered_sentences", spy)
        table, _, rows = cli.retrieve_candidates(mini_corpus, index, mini_instances)
        assert {ref.page_id for ref in table.refs(rows)} <= set(listed)
        assert set(listed.values()) == {1}

    def test_no_title_matcher_alive_in_sentence_route(self, mini_corpus, mini_instances,
                                                      monkeypatch):
        index = tfidf.build_document_index(mini_corpus, bin_count=BINS)
        matchers, routes = [], []
        build, route = ner.TitleMatcher.__init__, tfidf.sentence_route

        def building(self, corpus):
            matchers.append(weakref.ref(self))
            build(self, corpus)

        def routing(*args):
            routes.append([m() for m in matchers])
            return route(*args)

        monkeypatch.setattr(ner.TitleMatcher, "__init__", building)
        monkeypatch.setattr(tfidf, "sentence_route", routing)
        cli.retrieve_candidates(mini_corpus, index, mini_instances)
        assert len(matchers) == 1 and routes == [[None]]


class TestHashDistribution:
    def test_no_heavy_bins(self):
        rng = np.random.default_rng(24)
        seen = set()
        while len(seen) < 10_000:
            a, b = rng.integers(0, len(WORDS), size=2)
            seen.add((f"{WORDS[a]}{rng.integers(0, 10_000)}", WORDS[b]))
        counts = np.zeros(2**20, dtype=np.int64)
        for pair in seen:
            counts[hash_ngram(list(pair), 2**20)] += 1
        assert counts.max() <= 10


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, mini_corpus):
        index = tfidf.build_document_index(mini_corpus, bin_count=BINS)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = tfidf.TfidfIndex.load(path)
        assert np.array_equal(index.uniq_bins, loaded.uniq_bins)
        assert np.array_equal(index.post_items, loaded.post_items)
        assert np.array_equal(index.post_weights, loaded.post_weights)
        assert np.array_equal(index.item_norms, loaded.item_norms)
        assert index.item_ids == loaded.item_ids
        q = "The Korvand Archipelago is a chain of nine islands."
        assert tfidf.top_k_documents(index, q, 5) == tfidf.top_k_documents(loaded, q, 5)

    def test_version_check(self, tmp_path, mini_corpus):
        index = tfidf.build_document_index(mini_corpus, bin_count=BINS)
        path = tmp_path / "index.npz"
        index.save(path)
        import json
        import zipfile
        with np.load(path) as data:
            header = json.loads(str(data["header"]))
        header["format_version"] = 99
        arrays = {k: v for k, v in np.load(path).items() if k != "header"}
        np.savez(path, header=np.array(json.dumps(header)), **arrays)
        with pytest.raises(ValueError, match="unsupported index format version: 99"):
            tfidf.TfidfIndex.load(path)

    def test_unsorted_ids_rejected_by_load(self, tmp_path, mini_corpus):
        index = tfidf.build_document_index(mini_corpus, bin_count=BINS)
        path = tmp_path / "index.npz"
        index.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["item_ids"] = arrays["item_ids"][::-1]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="ascending"):
            tfidf.TfidfIndex.load(path)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            tfidf.build_document_index(Corpus(), bin_count=BINS)
