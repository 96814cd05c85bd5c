"""Hot numeric kernels: edit distance, sparse dot products, run sums, split search.

Each kernel is one exact numpy implementation.  Edit distance runs against
a whole zero-padded code matrix at once, so matching a mention against
every page title costs one vectorized pass per query character; split
search runs against a padded batch of tree nodes, one node per tree of a
training step.

Floating-point discipline: dot-product accumulation adds query bins in
ascending order and split search scans classes in ascending index, so
results are reproducible bit for bit.
"""

import numpy as np


def code_matrix(strings) -> tuple[np.ndarray, np.ndarray]:
    """Strings as a zero-padded (n, W) int32 matrix of code points, plus lengths.

    Every Unicode scalar value is kept as ``ord`` gives it, lone surrogates
    included.
    """
    lengths = np.array([len(s) for s in strings], dtype=np.int64)
    mat = np.array(strings, dtype=np.str_).view(np.int32).reshape(len(strings), -1)
    return mat, lengths


def codes(text: str) -> np.ndarray:
    """Unicode scalar values of a string as an int32 array."""
    return np.array([ord(ch) for ch in text], dtype=np.int32)


def batch_levenshtein(mat, lengths, query):
    """Edit distance from query to each row of a zero-padded code matrix.

    Row i holds a string of lengths[i] code points followed by padding.  The
    rolling-row DP runs on all rows at once; the sequential dependency of
    the insertion term is resolved with a running minimum (cur[j] =
    min(t[j], cur[j-1] + 1) equals j + running_min(t - j)).  A cell only
    reads cells to its left and above, so padding never feeds column
    lengths[i], where row i's distance is read.
    """
    n, w = mat.shape
    idx = np.arange(w + 1, dtype=np.int32)
    prev = np.tile(idx, (n, 1))
    t = np.empty((n, w + 1), dtype=np.int32)
    for i, ch in enumerate(query.tolist()):
        t[:, 0] = i + 1
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + (mat != ch), out=t[:, 1:])
        t -= idx
        prev = np.minimum.accumulate(t, axis=1)
        prev += idx
    return prev[np.arange(n), lengths]


def block_accumulate(q_row, q_pos, q_weights, uniq_offsets, post_items, post_weights,
                     n_rows, n_items):
    """Raw dot products between a block of sparse queries and every indexed item.

    The index is a postings layout grouped by bin: uniq_offsets delimits
    each bin's slice of post_items/post_weights.  Query entry j belongs to
    row q_row[j] and names the bin at position q_pos[j]; entries come
    row-major with positions ascending within a row.  One np.bincount over
    row * n_items + item then adds each cell's terms one at a time in
    ascending-bin order, so each dot product has the bits of a per-row
    sequential accumulation.  Returns an (n_rows, n_items) matrix.
    """
    starts = uniq_offsets[q_pos]
    lens = uniq_offsets[q_pos + 1] - starts
    span = concat_ranges(starts, lens)
    cells = np.repeat(q_row * n_items, lens) + post_items[span]
    products = post_weights[span] * np.repeat(q_weights, lens)
    raw = np.bincount(cells, products, minlength=n_rows * n_items)
    return raw.astype(np.float64, copy=False).reshape(n_rows, n_items)  # int64 when empty


def concat_ranges(starts, lens):
    """Concatenation of arange(starts[i], starts[i] + lens[i]) over i."""
    shift = np.cumsum(lens) - lens  # where each range starts in the output
    return np.arange(lens.sum(), dtype=np.int64) + np.repeat(starts - shift, lens)


def row_sums(values, lengths):
    """Sums of consecutive runs of values, run i holding lengths[i] entries.

    Bit for bit the np.sum of each run: runs of one length are stacked into
    a matrix and summed along its rows, which takes the pairwise summation
    np.sum takes on one run (np.add.reduceat rounds differently).
    """
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    sizes, firsts = np.unique(lengths[order], return_index=True)
    out = np.zeros(lengths.size)
    for size, rows in zip(sizes.tolist(), np.split(order, firsts[1:])):
        if size:
            out[rows] = values[starts[rows, np.newaxis] + np.arange(size)].sum(axis=1)
    return out


def best_splits(blocks, labels, sizes, n_classes):
    """Best information-gain split of each node of a batch, over its columns.

    Node i holds sizes[i] >= 1 samples: blocks[i, c, :sizes[i]] are the
    values of its column c and labels[i, :sizes[i]] their classes; later
    positions pad the batch to one width and are ignored.  Thresholds are
    midpoints between consecutive distinct sorted values of a column; left
    branch takes value < threshold.  The midpoint of two adjacent doubles
    can round down onto the lower one; when that is the column minimum the
    left branch would be empty, so the upper value is used.  Returns arrays
    (gains, columns, thresholds), gain in nats; a node with no column of
    two distinct values gets gain -1.0 and column -1.  Ties keep the first
    column, then its smallest threshold.
    """
    m, k, w = blocks.shape
    valid = np.arange(w) < sizes[:, np.newaxis]
    keyed = np.where(valid[:, np.newaxis, :], blocks, np.inf)  # padding sorts last
    order = np.argsort(keyed, axis=2)
    sv = np.take_along_axis(keyed, order, axis=2)
    # padding gets class n_classes, which no count holds
    ranked = np.take_along_axis(np.where(valid, labels, n_classes)[:, np.newaxis, :],
                                order, axis=2)
    counts = [np.cumsum(ranked == c, axis=2, dtype=np.min_scalar_type(w))
              for c in range(n_classes)]
    total = np.stack([cum[:, 0, w - 1] for cum in counts], axis=1)

    # boundary j of a column lies between its sorted values j and j + 1; flat
    # (node, column, j) order makes a node's first maximum its first column,
    # then that column's smallest threshold
    bound = np.zeros((m, k, w), dtype=bool)
    bound[..., :-1] = (sv[..., 1:] != sv[..., :-1]) & valid[:, np.newaxis, 1:]
    at = np.flatnonzero(bound)
    node = at // (k * w)
    cl = np.stack([cum.ravel()[at] for cum in counts], axis=1)  # class counts left of boundary
    n = sizes[node]
    nl = at % w + 1
    nr = n - nl
    hp = _entropy(total, sizes)
    gains = np.full((m, k * w), -np.inf)
    gains.ravel()[at] = hp[node] - (nl * _entropy(cl, nl) + nr * _entropy(total[node] - cl, nr)) / n

    best = np.argmax(gains, axis=1)
    gain = gains[np.arange(m), best]
    split = np.flatnonzero(gain > -np.inf)
    at = best[split]
    sv = sv.reshape(m, k * w)
    lo, hi = sv[split, at], sv[split, at + 1]
    first = sv[split, at - at % w]  # the column minimum
    thr = (lo + hi) / 2.0
    columns, thresholds = np.full(m, -1), np.zeros(m)
    columns[split] = at // w
    thresholds[split] = np.where(thr <= first, hi, thr)
    gain[gain == -np.inf] = -1.0
    return gain, columns, thresholds


def _entropy(counts, sizes):
    """Row-wise entropy in nats of count matrices; zero counts contribute 0."""
    p = counts / sizes[:, np.newaxis]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, p * np.log(p), 0.0)
    return -np.sum(terms, axis=1)
