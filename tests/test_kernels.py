"""The numeric kernels against straight-line Python oracles."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from claimcheck import forest, ner, tfidf

from conftest import best_split


def lev_dp(a: str, b: str) -> int:
    """Two-row DP over Python strings, independent of the kernel."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def batch(titles, query):
    """Edit distances from query to each title, as rows of one kernel call."""
    rows = np.arange(len(titles))
    return ner.edit_distances(*ner.code_points([query]), *ner.code_points(titles),
                              np.zeros_like(rows), rows).tolist()


def random_strings(rng, alphabet, n, max_len):
    return ["".join(rng.choice(alphabet, size=rng.integers(0, max_len + 1)))
            for _ in range(n)]


class TestCodeMatrix:
    def test_rows_are_ord_codes_zero_padded(self):
        strings = ["ab", "", "åж😀", "\ud800x"]
        codes, offsets = ner.code_points(strings)
        assert codes.dtype == np.int32 and codes.tolist() == [ord(c) for c in "".join(strings)]
        assert np.diff(offsets).tolist() == [len(s) for s in strings]
        mat = ner.code_rows(codes, offsets, np.arange(4))
        assert mat.dtype == np.int32 and mat.shape == (4, 3)
        for row, s in zip(mat, strings):
            assert row.tolist() == [ord(c) for c in s] + [0] * (3 - len(s))
        assert ner.code_rows(codes, offsets, np.array([3, 0, 3])).tolist() == \
            [[0xD800, ord("x")], [ord("a"), ord("b")], [0xD800, ord("x")]]


class TestLevenshtein:
    def test_known_values(self):
        for a, b, want in [("abc", "abc", 0), ("", "abc", 3), ("kitten", "sitting", 3)]:
            assert batch([b], a) == [want], (a, b)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        strings = random_strings(rng, list("abcde"), 40, 11)
        singles = [batch([s], "abcad")[0] for s in strings]
        assert batch(strings, "abcad") == singles

    def test_against_python_dp(self):
        rng = np.random.default_rng(11)
        alphabet = list("abcåЖ\U0001f600\ud800")
        for _ in range(60):
            titles = random_strings(rng, alphabet, int(rng.integers(1, 12)), 20)
            query = random_strings(rng, alphabet, 1, 20)[0]
            assert batch(titles, query) == [lev_dp(query, t) for t in titles]

    def test_empty_query_and_empty_titles(self):
        titles = ["", "a", "", "abcdef"]
        assert batch(titles, "") == [0, 1, 0, 6]
        assert batch(titles, "xy") == [2, 2, 2, 6]
        assert batch([""], "") == [0]

    def test_many_queries_in_rows_under_every_budget(self, monkeypatch):
        # rows of many queries of different lengths, in any order, with repeats
        rng = np.random.default_rng(13)
        alphabet = list("abcåЖ\U0001f600\ud800")
        queries = random_strings(rng, alphabet, 9, 14)
        titles = random_strings(rng, alphabet, 30, 40) + ["ab" * 60]
        q_rows = rng.integers(0, len(queries), size=200)
        t_rows = rng.integers(0, len(titles), size=200)
        want = [lev_dp(queries[q], titles[t]) for q, t in zip(q_rows, t_rows)]
        for budget in [1, 7, 40, 130, 2**16]:
            monkeypatch.setattr(ner, "BLOCK_CELLS", budget)
            got = ner.edit_distances(*ner.code_points(queries), *ner.code_points(titles),
                                     q_rows, t_rows)
            assert got.tolist() == want, budget
        assert ner.edit_distances(*ner.code_points(queries), *ner.code_points(titles),
                                  [], []).tolist() == []

    def test_blocks_stay_within_budget(self, monkeypatch):
        monkeypatch.setattr(ner, "BLOCK_CELLS", 40)
        widths = np.array([3, 3, 3, 9, 1, 1, 60, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2])
        blocks = list(ner._blocks(widths))
        assert blocks == [(0, 4), (4, 6), (6, 7), (7, 19)]
        for a, b in blocks:
            cost = (b - a) * (widths[a:b].max() + 1)
            assert cost <= 40 or b - a == 1  # only a row wider than the budget is alone
            if b < len(widths):  # and each block is as long as the budget allows
                assert (b + 1 - a) * (widths[a:b + 1].max() + 1) > 40


class TestCosineAccumulate:
    """block_accumulate: the cosine numerators of a block of queries."""

    def test_matches_python_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n_bins = int(rng.integers(2, 40))
            n_items = int(rng.integers(1, 30))
            counts = rng.integers(1, min(5, n_items + 1), size=n_bins)
            post_items = np.concatenate([
                np.sort(rng.choice(n_items, size=c, replace=False)) for c in counts
            ]).astype(np.int32)
            post_weights = rng.random(post_items.size)
            offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            n_rows = int(rng.integers(1, 5))
            queries = [np.sort(rng.choice(n_bins, size=int(rng.integers(0, min(n_bins, 7) + 1)),
                                          replace=False)) for _ in range(n_rows)]
            q_row = np.repeat(np.arange(n_rows), [q.size for q in queries])
            q_pos = np.concatenate(queries).astype(np.int64)
            q_weights = rng.random(q_pos.size)
            got = tfidf.block_accumulate(q_row, offsets[q_pos], counts[q_pos], q_weights,
                                         post_items, post_weights, n_rows, n_items)
            want = np.zeros((n_rows, n_items))
            for r, i, qw in zip(q_row, q_pos, q_weights):
                for p in range(offsets[i], offsets[i + 1]):
                    want[r, post_items[p]] += post_weights[p] * qw
            assert got.dtype == np.float64 and np.array_equal(got, want)


class TestRowSums:
    def test_equals_np_sum_per_row_bit_for_bit(self):
        rng = np.random.default_rng(14)
        lengths = rng.permutation(np.repeat([0, 1, 7, 8, 9, 127, 128, 129, 300], 5))
        values = rng.random(lengths.sum()) * 10.0 ** rng.integers(-8, 9, size=lengths.sum())
        starts = np.cumsum(lengths) - lengths
        want = np.array([np.sum(values[s:s + n]) for s, n in zip(starts, lengths)])
        got = tfidf.row_sums(values, lengths)
        assert got.tobytes() == want.tobytes()


def split_gain(values, labels, thr, n_classes):
    """Information gain in nats of the split value < thr, by direct counting."""
    def entropy(ys):
        counts = [sum(1 for y in ys if y == c) for c in range(n_classes)]
        return -sum(c / len(ys) * math.log(c / len(ys)) for c in counts if c)

    left = [y for v, y in zip(values, labels) if v < thr]
    right = [y for v, y in zip(values, labels) if v >= thr]
    n = len(labels)
    return entropy(labels) - (len(left) * entropy(left) + len(right) * entropy(right)) / n


class TestBestSplit:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n, k = int(rng.integers(2, 60)), int(rng.integers(1, 5))
            block = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(n, k)) \
                if rng.random() < 0.5 else rng.random((n, k))
            labels = rng.integers(0, 3, size=n).astype(np.int64)
            columns = [self.check_column(block[:, c], labels) for c in range(k)]
            gain, col, thr = best_split(block, labels, 3)
            if all(g == -1.0 for g, _ in columns):
                assert (gain, col) == (-1.0, -1)
                continue
            # the first column with the highest gain, and its threshold
            assert col == next(c for c, (g, _) in enumerate(columns)
                               if g == max(g for g, _ in columns))
            assert (gain, thr) == columns[col]

    @staticmethod
    def check_column(values, labels):
        """best_split of a one-column block, checked against split_gain."""
        gain, col, thr = best_split(values[:, np.newaxis], labels, 3)
        distinct = sorted(set(values.tolist()))
        if len(distinct) < 2:
            assert (gain, col) == (-1.0, -1)
            return gain, thr
        assert col == 0
        # every split between consecutive distinct values, upper value as cut
        gains = [split_gain(values, labels, hi, 3) for hi in distinct[1:]]
        best = max(gains)
        assert math.isclose(gain, best, rel_tol=0.0, abs_tol=1e-12)
        # thr cuts between two consecutive distinct values, at a best split
        cut = next(i for i, hi in enumerate(distinct[1:]) if thr <= hi)
        assert distinct[cut] < thr
        assert math.isclose(gains[cut], best, rel_tol=0.0, abs_tol=1e-12)
        return gain, thr

    def test_batch_matches_brute_force_oracle(self):
        # each node of a padded batch alone, against the oracle; padding holds
        # random values and labels that must not count
        rng = np.random.default_rng(16)
        pair = [1.4166666666666665, 1.4166666666666667]  # midpoint rounds onto the lower
        for _ in range(30):
            m, k = int(rng.integers(1, 61)), int(rng.integers(1, 5))
            sizes = rng.integers(1, 61, size=m)
            blocks = rng.random((m, k, sizes.max())) * 2.0 - 0.5
            labels = rng.integers(0, 3, size=(m, sizes.max()))
            for i, n in enumerate(sizes.tolist()):
                kind = rng.integers(4)
                if kind == 0:  # many ties
                    blocks[i, :, :n] = rng.choice([0.0, 0.25, 0.5, 1.0], size=(k, n))
                elif kind == 1:  # a constant column
                    blocks[i, rng.integers(k), :n] = 0.75
                elif kind == 2:
                    blocks[i, :, :n] = rng.choice(pair, size=(k, n))
                if rng.random() < 0.2:  # one class
                    labels[i, :n] = rng.integers(3)
            gains, cols, thrs = forest.best_splits(blocks, labels, sizes, 3)
            for i, n in enumerate(sizes.tolist()):
                columns = [self.check_column(blocks[i, c, :n], labels[i, :n]) for c in range(k)]
                if all(g == -1.0 for g, _ in columns):
                    assert (gains[i], cols[i]) == (-1.0, -1)
                    continue
                assert cols[i] == next(c for c, (g, _) in enumerate(columns)
                                       if g == max(g for g, _ in columns))
                assert (gains[i], thrs[i]) == columns[cols[i]]

    def test_equal_gains_keep_first_column_then_smallest_threshold(self):
        labels = np.array([0, 1, 1, 0])
        ramp = np.array([0.0, 1.0, 2.0, 3.0])  # cuts at 0.5 and 2.5 tie
        worse = np.array([0.0, 1.0, 0.0, 1.0])  # gain 0
        block = np.column_stack([worse, ramp, 10.0 * ramp])
        gain, col, thr = best_split(block, labels, 3)
        assert (col, thr) == (1, 0.5)
        assert best_split(block[:, [2, 1]], labels, 3) == (gain, 0, 5.0)

    def test_adjacent_doubles_keep_both_sides_non_empty(self):
        values = np.array([1.4166666666666665, 1.4166666666666667])
        gain, col, thr = best_split(values[:, np.newaxis], np.array([0, 1]), 3)
        assert col == 0
        assert (values < thr).tolist() == [True, False]
        assert math.isclose(gain, math.log(2))


def test_bench_kernels_smoke(capsys):
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--titles", "20", "--items", "10", "--postings", "64",
                       "--samples", "30", "--texts", "5", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[2:]] == \
        ["edit_distances", "title_match_exact", "title_match_one_edit", "title_match_far",
         "block_accumulate", "best_split", "row_sums",
         "ngram_bins", "hashed_counts_loop", "score_pairs", "score_claims", "assemble_all",
         "forest_fit", "forest_load", "corpus_save", "corpus_load", "corpus_load_parse",
         "index_build", "tfidf_route", "top_documents", "start_ingest", "start_index",
         "start_e2e", "start_index"]
    build, = (line for line in lines if line.startswith("index_build"))
    assert build.endswith("x")  # the build's traced peak over the bytes it returns
