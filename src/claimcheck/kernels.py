"""Hot numeric kernels: edit distance, sparse dot products, run sums, split search.

Each kernel is one exact numpy implementation.  Edit distance runs against
a whole zero-padded code matrix at once, so matching a mention against
every page title costs one vectorized pass per query character.

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


def best_split(block, labels, n_classes):
    """Best information-gain split over the columns of an (n, k) block.

    Thresholds are midpoints between consecutive distinct sorted values of
    a column; left branch takes value < threshold.  The midpoint of two
    adjacent doubles can round down onto the lower one; when that is the
    column minimum the left branch would be empty, so the upper value is
    used.  Returns (gain, column, threshold), gain in nats; gain is -1.0
    and column -1 when no column has two distinct values.  Ties keep the
    first column, then its smallest threshold.
    """
    n = block.shape[0]
    order = np.argsort(block, axis=0)
    sv = np.take_along_axis(block, order, axis=0)
    # boundaries in column-major order, so argmax breaks ties by column, then position
    cols, rows = np.nonzero((sv[1:] != sv[:-1]).T)
    if cols.size == 0:
        return -1.0, -1, 0.0

    onehot = labels[order][..., np.newaxis] == np.arange(n_classes)
    cl = np.cumsum(onehot, axis=0)[rows, cols]  # class counts left of each boundary
    total = np.bincount(labels, minlength=n_classes)

    hp = _entropy(total[np.newaxis, :], np.array([n], dtype=np.int64))[0]

    nl = rows + 1
    nr = n - nl
    hl = _entropy(cl, nl)
    hr = _entropy(total[np.newaxis, :] - cl, nr)
    gains = hp - (nl * hl + nr * hr) / n

    best = int(np.argmax(gains))
    col, j = int(cols[best]), int(nl[best])
    thr = (sv[j - 1, col] + sv[j, col]) / 2.0
    if thr <= sv[0, col]:
        thr = sv[j, col]
    return float(gains[best]), col, float(thr)


def _entropy(counts, sizes):
    """Row-wise entropy in nats of count matrices; zero counts contribute 0."""
    p = counts / sizes[:, np.newaxis]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, p * np.log(p), 0.0)
    return -np.sum(terms, axis=1)
