"""Text normalization, tokenization, and stable n-gram hashing.

One tokenizer serves both retrieval and the lexical entailment baseline so
their vocabularies agree.  Hashing is FNV-1a over UTF-8 bytes of the
tab-joined n-gram: a fixed algorithm, stable across runs and platforms,
recorded in index headers as HASH_NAME.  ``ngram_bins`` is the hasher the
program uses; ``fnv1a64``, ``hash_ngram`` and ``hashed_counts`` are the
per-occurrence reference it must agree with.
"""

import re
import unicodedata
from array import array

import numpy as np

HASH_NAME = "fnv1a64"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
MAX_BIN_COUNT = 2**32  # keeps ngram_bins' owner * bin_count + bin key in int64
CHUNK_TOKENS = 2**16  # tokens ngram_bins hashes at a time: its working set, whatever the input

# Word characters minus underscore: wiki page ids use underscores as spaces.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased NFKC tokens, split on any non-alphanumeric character."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFKC", text).lower())


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def hash_ngram(tokens: list[str], bin_count: int) -> int:
    """Deterministic bin in [0, bin_count) for a unigram or bigram."""
    return fnv1a64("\t".join(tokens).encode("utf-8")) % bin_count


def hashed_counts(tokens: list[str], orders, bin_count: int) -> dict[int, int]:
    """Raw occurrence counts per hash bin over the requested n-gram orders."""
    counts: dict[int, int] = {}
    for order in orders:
        for i in range(len(tokens) - order + 1):
            b = hash_ngram(tokens[i : i + order], bin_count)
            counts[b] = counts.get(b, 0) + 1
    return counts


def ngram_bins(token_lists, orders, bin_count: int):
    """Hashed n-gram counts of many token lists: (owner, bins, counts).

    One entry per distinct (list index, bin), sorted by (owner, bin), all
    int64; the bins equal ``hash_ngram`` per occurrence.  Tokens get integer
    ids as each list arrives, from a vocabulary that starts afresh every
    CHUNK_TOKENS tokens, when the lists so far are hashed and counted.  In a
    chunk each distinct token and each distinct bigram (a pair of ids) is
    hashed once, in numpy: a bigram continues its first token's FNV-1a state
    with a tab and then the second token's bytes.  No list spans two chunks,
    so the chunks' entries join in (owner, bin) order and where the chunks
    fall does not change them.  Orders 1 and 2 are supported.
    """
    if not 1 <= bin_count <= MAX_BIN_COUNT:
        raise ValueError(f"bin count must be between 1 and 2^32, got {bin_count}")
    if not set(orders) <= {1, 2}:
        raise ValueError(f"unsupported n-gram orders: {tuple(orders)}")
    parts, first = [], 0
    vocab, ids, sizes = {}, array("q"), array("q")
    for tokens in token_lists:
        ids.extend([vocab.setdefault(t, len(vocab)) for t in tokens])
        sizes.append(len(tokens))
        if len(ids) >= CHUNK_TOKENS:
            parts.append(_chunk_bins(vocab, ids, sizes, first, orders, bin_count))
            first += len(sizes)
            vocab, ids, sizes = {}, array("q"), array("q")
    if sizes or not parts:
        parts.append(_chunk_bins(vocab, ids, sizes, first, orders, bin_count))
    if len(parts) == 1:
        return parts[0]
    # join one array at a time, dropping its chunks as it is joined
    columns = [list(arrays) for arrays in zip(*parts)]
    del parts
    return tuple(np.concatenate(columns.pop(0)) for _ in range(3))


def _chunk_bins(vocab, ids, sizes, first, orders, bin_count):
    """``ngram_bins`` of one chunk: token ids in vocab order, tokens per list,
    and the index of the chunk's first list."""
    ids = np.frombuffer(ids, dtype=np.int64)
    tok_owner = np.repeat(np.arange(len(sizes), dtype=np.int64), np.frombuffer(sizes, np.int64))

    encoded = [t.encode("utf-8") for t in vocab]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    starts = np.cumsum(lengths) - lengths
    data = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    states = _fnv_continue(np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64),
                           data, starts, lengths)

    owners, bins = [], []
    if 1 in orders:
        owners.append(tok_owner)
        bins.append((states % np.uint64(bin_count))[ids])
    if 2 in orders:
        same = tok_owner[1:] == tok_owner[:-1]
        width = max(len(encoded), 1)
        pairs, inverse = np.unique(ids[:-1][same] * width + ids[1:][same], return_inverse=True)
        first_ids, second = np.divmod(pairs, width)
        tabbed = (states[first_ids] ^ np.uint64(ord("\t"))) * np.uint64(_FNV_PRIME)
        pair_states = _fnv_continue(tabbed, data, starts[second], lengths[second])
        owners.append(tok_owner[1:][same])
        bins.append((pair_states % np.uint64(bin_count))[inverse])
    keys = np.concatenate(owners) * bin_count + np.concatenate(bins).astype(np.int64)
    keys, counts = np.unique(keys, return_counts=True)
    owner, bins = np.divmod(keys, bin_count)
    return owner + first, bins, counts.astype(np.int64)


def _fnv_continue(states, data, starts, lengths):
    """FNV-1a states continued over data[starts[i] : starts[i] + lengths[i]].

    Rows are visited longest first, so the rows still running at byte j
    are a prefix.
    """
    order = np.argsort(-lengths, kind="stable")
    h, s, n = states[order], starts[order], lengths[order]
    running = np.searchsorted(-n, -np.arange(n[0] if n.size else 0), side="left")
    for j, m in enumerate(running.tolist()):
        h[:m] ^= data[s[:m] + j]
        h[:m] *= np.uint64(_FNV_PRIME)
    out = np.empty_like(h)
    out[order] = h
    return out
