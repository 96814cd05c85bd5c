import inspect
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck import tokenizer
from claimcheck.tokenizer import (MAX_BIN_COUNT, fnv1a64, hash_ngram, hashed_counts,
                                  ngram_bins, tokenize)


def test_tokenize_examples():
    assert tokenize("Tilda Swinton is a vegan.") == ["tilda", "swinton", "is", "a", "vegan"]
    assert tokenize("") == []
    assert tokenize("Soul_Food (film)") == ["soul", "food", "film"]


def test_tokenize_unicode_compatibility():
    # ﬁ ligature decomposes under NFKC, so both spellings collide
    assert tokenize("ﬁlm") == tokenize("film")
    assert tokenize("CAFÉ") == tokenize("café")


def test_fnv1a64_reference_values():
    # reference values for the 64-bit FNV-1a parameters
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_hash_ngram_stable_and_in_range():
    assert hash_ngram(["a"], 2**24) == hash_ngram(["a"], 2**24)
    for tokens in (["a"], ["a", "b"], ["soul", "food"]):
        assert 0 <= hash_ngram(tokens, 16) < 16


def test_hash_ngram_join_is_unambiguous():
    # tab join keeps ("ab", "c") and ("a", "bc") distinct
    assert hash_ngram(["ab", "c"], 2**32) != hash_ngram(["a", "bc"], 2**32)


def test_hashed_counts_orders():
    tokens = ["a", "b", "a"]
    uni = hashed_counts(tokens, (1,), 2**20)
    assert sum(uni.values()) == 3
    both = hashed_counts(tokens, (1, 2), 2**20)
    assert sum(both.values()) == 3 + 2  # three unigrams, two bigrams
    assert hashed_counts([], (1, 2), 2**20) == {}
    assert hashed_counts(["solo"], (2,), 2**20) == {}


# ASCII letters in both cases, digits, spaces and punctuation; accented,
# Cyrillic and astral letters; a ligature and fullwidth digits that NFKC
# rewrites; a combining acute, final sigma, NUL, tab and underscore
ALPHABET = "aBz09 .,-éÉжЖя\U0001d49c\U00010400ﬁ１２\u0301ςΣ\x00\t_"
TEXTS = st.text(st.sampled_from(ALPHABET), max_size=24) \
    | st.text(st.characters(max_codepoint=127), max_size=24) | st.text(max_size=24)


def reference_bins(texts, orders, bin_count):
    """{text index: {bin: count}} by ``hashed_counts`` of each text's tokens."""
    return {i: counts for i, text in enumerate(texts)
            if (counts := hashed_counts(tokenize(text), orders, bin_count))}


def as_dicts(arrays):
    owner, bins, counts = arrays
    keys = list(zip(owner.tolist(), bins.tolist()))
    assert keys == sorted(set(keys))  # sorted by (owner, bin), no repeats
    got = {}
    for i, b, c in zip(owner.tolist(), bins.tolist(), counts.tolist()):
        got.setdefault(i, {})[b] = c
    return got


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(TEXTS, max_size=6), orders=st.sampled_from([(1,), (2,), (1, 2)]),
       bin_count=st.integers(1, MAX_BIN_COUNT) | st.sampled_from([1, 2, 7, MAX_BIN_COUNT]))
def test_ngram_bins_match_per_occurrence_reference(texts, orders, bin_count):
    assert as_dicts(ngram_bins(iter(texts), orders, bin_count)) == \
        reference_bins(texts, orders, bin_count)


@pytest.mark.parametrize("bin_count", [0, -3, MAX_BIN_COUNT + 1])
def test_ngram_bins_rejects_degenerate_bin_count(bin_count):
    with pytest.raises(ValueError, match="bin count"):
        ngram_bins(["a"], (1, 2), bin_count)


def assert_same_arrays(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


# empty and one-token lists on the first boundaries of chunks of 1 and of 3
# bytes (each text counts its bytes plus one), a list longer than a chunk of
# 3, and tokens that only tokenize reads; each list is hashed as its tokens
# joined by ", "
BOUNDARY_LISTS = [["a"], [], ["B", "a"], ["c"], [], [], ["a", "b", "c", "d", "a"], ["d"], [],
                  ["Été"], ["ﬁ", "e", "a"], ["_"]]


@pytest.mark.parametrize("chunk", [1, 3, 10**6])
@pytest.mark.parametrize("token_lists", [BOUNDARY_LISTS, [], [[]], [["a"]], [["a"], []],
                                         [[], ["a"]], [[" "], ["."]]])
def test_ngram_bins_same_arrays_whatever_the_chunks(monkeypatch, chunk, token_lists):
    texts = [", ".join(tokens) for tokens in token_lists]
    # one chunk at the default size
    expected = {orders: ngram_bins(texts, orders, 2**20) for orders in ((1,), (2,), (1, 2))}
    assert as_dicts(expected[(1, 2)]) == reference_bins(texts, (1, 2), 2**20)
    monkeypatch.setattr(tokenizer, "CHUNK_BYTES", chunk)
    for orders, arrays in expected.items():
        assert_same_arrays(ngram_bins(iter(texts), orders, 2**20), arrays)


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(TEXTS, max_size=8), orders=st.sampled_from([(1,), (2,), (1, 2)]),
       chunk=st.integers(1, 40))
def test_ngram_bins_chunks_join_to_one_chunk(texts, orders, chunk):
    expected = ngram_bins(texts, orders, 97)
    with mock.patch.object(tokenizer, "CHUNK_BYTES", chunk):
        assert_same_arrays(ngram_bins(iter(texts), orders, 97), expected)


def vector_steps(texts, orders):
    """ngram_bins of texts, and how many vector steps its _fnv_continue calls took:
    each execution of the loop's xor line counts one."""
    code = tokenizer._fnv_continue.__code__
    xor_line = next(no for no, line in enumerate(
        inspect.getsourcelines(code)[0], start=code.co_firstlineno) if "^=" in line)
    steps = 0

    def trace(frame, event, arg):
        nonlocal steps
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == xor_line:
            steps += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        arrays = ngram_bins(texts, orders, 2**20)
    finally:
        sys.settrace(previous)
    return arrays, steps


@pytest.mark.parametrize("letters", [tokenizer.LONG_TOKEN_BYTES - 1, tokenizer.LONG_TOKEN_BYTES,
                                     tokenizer.LONG_TOKEN_BYTES + 1, 100_000])
def test_long_token_hashed_on_its_own(letters):
    # a long token alone, first and last in a text, beside short ones, and twice,
    # so its unigram and both bigrams it ends and starts go through both paths
    long = "x" * letters
    texts = [long, f"{long} ab", f"cd {long}", "ef gh", f"{long} {long}", f"É {long}é"]
    for orders in ((1,), (2,), (1, 2)):
        arrays, steps = vector_steps(texts, orders)
        assert as_dicts(arrays) == reference_bins(texts, orders, 2**20)
        # once per order of one chunk; without the bound, a step per letter
        assert steps <= 2 * min(letters, tokenizer.LONG_TOKEN_BYTES)
