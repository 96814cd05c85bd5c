"""Text normalization, tokenization, and stable n-gram hashing.

One tokenizer serves both retrieval and the lexical entailment baseline so
their vocabularies agree.  Hashing is FNV-1a over UTF-8 bytes of the
tab-joined n-gram: a fixed algorithm, stable across runs and platforms,
recorded in index headers as HASH_NAME.  ``ngram_chunks`` is the hasher
the program uses, and ``ngram_bins`` the join of its chunks: it takes
texts and reads an ASCII text's tokens straight from its bytes
(``token_bytes``, which the baseline scorer splits into its token sets
too), so retrieval makes no per-token string.  ``fnv1a64``,
``hash_ngram`` and ``hashed_counts`` over ``tokenize``'s tokens are the
per-occurrence reference it must agree with.
"""

import re
import unicodedata

import numpy as np

HASH_NAME = "fnv1a64"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
MAX_BIN_COUNT = 2**32  # keeps ngram_bins' owner * bin_count + bin key in int64
CHUNK_BYTES = 2**18  # token bytes ngram_bins hashes at a time: its working set, whatever the input
# a longer token is hashed on its own, so ngram_bins' vector loop takes at
# most this many steps per chunk however long a token the chunk holds
LONG_TOKEN_BYTES = 64

# Word characters minus underscore: wiki page ids use underscores as spaces.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased NFKC tokens, split on any non-alphanumeric character."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFKC", text).lower())


# each ASCII character as tokenize reads it, its lower case if alphanumeric
# and else a space: an ASCII text translated by it is its tokens, space-separated
_ASCII_TOKEN_BYTES = bytes(ord("".join(tokenize(chr(c))) or " ") for c in range(128)) + b" " * 128


def token_bytes(text: str) -> bytes:
    """A text's tokens as their UTF-8 bytes between spaces (one or more): an
    ASCII text through one ``bytes.translate`` (on ASCII, NFKC is the
    identity and the tokens are the lower-cased alphanumeric runs), any other
    text through ``tokenize``.  ``split()`` gives back the tokens."""
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TOKEN_BYTES)
    return " ".join(tokenize(text)).encode("utf-8")


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """FNV-1a of data, continued from the state h."""
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


def ngram_bins(texts, orders, bin_count: int):
    """Hashed n-gram counts of many texts: (owner, bins, counts).

    One entry per distinct (text index, bin), sorted by (owner, bin), all
    int64; the bins equal ``hash_ngram`` per occurrence over ``tokenize``'s
    tokens.  The entries are those of ``ngram_chunks``, joined: no text
    spans two chunks, so the chunks' entries join in (owner, bin) order and
    where the chunks fall does not change them.  The orders are 1, 2 or both.
    """
    parts = [chunk[1:] for chunk in ngram_chunks(texts, orders, bin_count)]
    if len(parts) == 1:
        return parts[0]
    # join one array at a time, dropping its chunks as it is joined
    columns = [list(arrays) for arrays in zip(*parts)]
    del parts
    return tuple(np.concatenate(columns.pop(0)) for _ in range(3))


def ngram_chunks(texts, orders, bin_count: int):
    """Yield ``ngram_bins`` a chunk of texts at a time: (text count, owner,
    bins, counts), owners counted from the first text of all, at least one
    chunk however few the texts.

    Each text becomes its ``token_bytes``.  Texts are hashed and counted a
    chunk of about CHUNK_BYTES at a time, in numpy: every token occurrence
    gets its FNV-1a state, and a bigram continues its first token's state
    with a tab and then the second token's bytes.
    """
    if not 1 <= bin_count <= MAX_BIN_COUNT:
        raise ValueError(f"bin count must be between 1 and 2^32, got {bin_count}")
    first, pieces, size = 0, [], 0
    for text in texts:
        piece = token_bytes(text)
        pieces.append(piece)
        size += len(piece) + 1
        if size >= CHUNK_BYTES:
            yield len(pieces), *_chunk_bins(pieces, first, orders, bin_count)
            first += len(pieces)
            pieces, size = [], 0
    if pieces or not first:
        yield len(pieces), *_chunk_bins(pieces, first, orders, bin_count)


def _chunk_bins(pieces, first, orders, bin_count):
    """``ngram_bins`` of one chunk: each text's space-separated token bytes,
    and the index of the chunk's first text."""
    sizes = np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces)) + 1  # and a space
    data = np.frombuffer(b" ".join(pieces) + b" ", dtype=np.uint8)
    # a token starts where a non-space byte follows a space (or begins the
    # chunk) and ends at the next space; the chunk ends in a space
    edges = np.diff((data != ord(" ")).view(np.int8), prepend=np.int8(0))
    starts = np.flatnonzero(edges == 1)
    lens = np.flatnonzero(edges == -1) - starts
    tok_owner = np.searchsorted(np.cumsum(sizes) - sizes, starts, side="right") - 1
    states = _fnv_continue(np.full(starts.size, _FNV_OFFSET, dtype=np.uint64),
                           data, starts, lens)

    owners, bins = [], []
    if 1 in orders:
        owners.append(tok_owner)
        bins.append(states % np.uint64(bin_count))
    if 2 in orders:
        same = tok_owner[1:] == tok_owner[:-1]
        tabbed = (states[:-1][same] ^ np.uint64(ord("\t"))) * np.uint64(_FNV_PRIME)
        owners.append(tok_owner[1:][same])
        bins.append(_fnv_continue(tabbed, data, starts[1:][same], lens[1:][same])
                    % np.uint64(bin_count))
    keys = np.concatenate(owners) * bin_count + np.concatenate(bins).astype(np.int64)
    keys, counts = np.unique(keys, return_counts=True)
    owner, bins = np.divmod(keys, bin_count)
    return owner + first, bins, counts.astype(np.int64)


def _fnv_continue(states, data, starts, lengths):
    """FNV-1a states continued over data[starts[i] : starts[i] + lengths[i]].

    Rows are visited longest first (in any order among equals).  Those
    longer than LONG_TOKEN_BYTES, a prefix, are hashed one at a time by
    ``fnv1a64``; the rest together, a byte per step, the rows still running
    at byte j being a prefix of them.
    """
    order = np.argsort(-lengths)
    h, s, n = states[order], starts[order], lengths[order]
    long = int(np.searchsorted(-n, -LONG_TOKEN_BYTES, side="left"))
    for i in range(long):
        h[i] = fnv1a64(data[s[i]:s[i] + n[i]].tobytes(), int(h[i]))
    vh, vs, vn = h[long:], s[long:], n[long:]  # views: the steps write into h
    running = np.searchsorted(-vn, -np.arange(vn[0] if vn.size else 0), side="left")
    for j, m in enumerate(running.tolist()):
        vh[:m] ^= data[vs[:m] + j]
        vh[:m] *= np.uint64(_FNV_PRIME)
    out = np.empty_like(h)
    out[order] = h
    return out
