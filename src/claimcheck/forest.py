"""Random Forest over claim feature rows (f1..f12, as features computes them).

Fifty depth-limited trees, each grown on a bootstrap resample with a random
subset of features considered at every node and splits chosen by information
gain (entropy in nats, thresholds at midpoints of consecutive distinct
values).  The trees grow together: each step searches the next pending node
of every tree with one batched split search.  Per-tree random streams are
derived from (seed, tree index) and drawn in each tree's own preorder, so a
tree is the one a depth-first grower would make alone.  Trees are grown as
model-file dicts, so trained and loaded forests take one path to the flat
arrays prediction walks, and the JSON model file round-trips bit-exactly.
"""

import json
import logging
import math
from typing import NamedTuple

import numpy as np

from . import DEFAULT_CLASS_COUNTS, LABELS
from .features import FEATURE_NAMES
from .rows import reading

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
FEATURES_PER_SPLIT = math.ceil(math.sqrt(len(FEATURE_NAMES)))  # features drawn at each node
# block cells (nodes x features x samples) one split search call takes; bounds
# the transient memory of a training step
STEP_CELLS = 1 << 14


class _Config(NamedTuple):
    trees: int
    max_depth: int
    seed: int


class ForestConfig(_Config):
    __slots__ = ()

    def __new__(cls, trees=50, max_depth=3, seed=0):
        if trees < 1:
            raise ValueError(f"a forest needs at least 1 tree, got {trees}")
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        if seed < 0:
            raise ValueError(f"the seed must be >= 0, got {seed}")
        return super().__new__(cls, trees, max_depth, seed)


class TrainingSample(NamedTuple):
    features: np.ndarray  # (12,) feature row
    label: str


class RandomForest:
    """Trees in model-file form, and the same nodes as flat arrays to predict with.

    A tree is a nested dict: a leaf is {"dist": class distribution}, a split
    is {"feature", "threshold", "left", "right"} and sends value < threshold
    to the left.  Trained and loaded forests are built the same way: every
    tree is checked against the config and laid out flat, and the dicts are
    kept as they are for save.
    """

    def __init__(self, config: ForestConfig, trees: list):
        self.config = config
        self.trees = trees
        self._nodes = _flatten(trees, config)

    @property
    def node_count(self) -> int:
        return len(self._nodes[1])

    @property
    def depth(self) -> int:
        """The most splits on any root-to-leaf path."""
        return self._nodes[-1]

    def predict_all(self, X) -> tuple:
        """(labels, (m, classes) probabilities) of an (m, 12) feature matrix, in
        one pass.

        Each claim's probabilities add the trees' leaf distributions one at
        a time in tree order; ties in the argmax pick the earlier label.
        """
        roots, feature, threshold, left, right, dist, depth = self._nodes
        X = _feature_rows(X)
        node = np.tile(roots, (len(X), 1))
        rows = np.arange(len(X))[:, np.newaxis]
        for _ in range(depth):  # leaves point to themselves
            go_left = X[rows, feature[node]] < threshold[node]
            node = np.where(go_left, left[node], right[node])
        probs = np.zeros((len(X), len(LABELS)))
        for leaves in node.T:  # tree by tree; _flatten made every leaf -0.0 a 0.0
            probs += dist[leaves]
        probs /= len(roots)
        return [LABELS[i] for i in np.argmax(probs, axis=1).tolist()], probs

    def predict(self, features):
        """(label, class-probability vector) of one (12,) feature row."""
        labels, probs = self.predict_all([features])
        return labels[0], probs[0]


def _feature_rows(X) -> np.ndarray:
    """X as a float64 (m, 12) matrix; anything of another shape is refused."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
        raise ValueError(f"expected an (m, {len(FEATURE_NAMES)}) feature matrix, "
                         f"got shape {X.shape}")
    return X


# Node i of the flat layout splits on feature[i] at threshold[i] and goes to
# left[i] or right[i]; a leaf has feature -1, points to itself and holds
# dist[i].  Each tree takes a run of node ids in preorder from its root (the
# layout of scikit-learn's Tree).  The layout is the tuple (roots, feature,
# threshold, left, right, dist, depth), depth being the most splits on any
# root-to-leaf path.


def _flatten(trees, config: ForestConfig) -> tuple:
    """Check trees in model-file form against config and lay them out flat.

    Nothing is coerced: a feature is an int, a threshold and each leaf entry
    an int or a float, never a bool or a string."""
    if not trees:
        raise ValueError("model has no trees")
    if len(trees) != config.trees:
        raise ValueError(f"model has {len(trees)} trees, its config {config.trees}")
    roots, nodes, dists, depth = [], [], [], 0  # nodes: [feature, threshold, right] each
    for tree in trees:
        roots.append(len(nodes))
        stack = [(tree, 0, None)]  # (node, its depth, the split it is the right child of)
        while stack:
            node, level, parent = stack.pop()
            i = len(nodes)
            if parent is not None:
                nodes[parent][2] = i
            if "dist" in node:
                d = node["dist"]
                if (type(d) is not list or len(d) != len(LABELS)
                        or not all(type(v) in (int, float) for v in d)):
                    raise ValueError(f"bad leaf distribution: {d}")
                nodes.append([-1, 0.0, i])
                dists.append(d)
                depth = max(depth, level)
                continue
            f, t = node["feature"], node["threshold"]
            if type(f) is not int:
                raise ValueError(f"split feature {f!r} is not an integer")
            if not 0 <= f < len(FEATURE_NAMES):
                raise ValueError(f"split feature {f} outside 0..{len(FEATURE_NAMES) - 1}")
            if type(t) not in (int, float):
                raise ValueError(f"split threshold {t!r} is not a number")
            if not math.isfinite(t):
                raise ValueError(f"non-finite split threshold: {t}")
            nodes.append([f, t, -1])
            stack += [(node["right"], level + 1, i), (node["left"], level + 1, None)]
    # + 0.0 turns -0.0 into 0.0, so tree sums keep the bits of sums from zero
    d = np.array(dists, dtype=np.float64) + 0.0
    ok = (d >= 0).all(axis=1) & (np.abs(d.sum(axis=1) - 1.0) <= 1e-9)
    if not ok.all():
        raise ValueError(f"bad leaf distribution: {dists[int(np.argmin(ok))]}")
    if depth > config.max_depth:
        raise ValueError(f"model has a tree of depth {depth}, "
                         f"its config max_depth {config.max_depth}")
    feature, threshold, right = map(np.array, zip(*nodes))  # a leaf's 0.0 makes floats
    ids = np.arange(len(nodes))
    dist = np.zeros((len(nodes), len(LABELS)))
    dist[feature < 0] = d  # leaves in preorder, as dists
    return (np.array(roots), feature, threshold, np.where(feature < 0, ids, ids + 1), right,
            dist, depth)


def train(samples, config: ForestConfig = ForestConfig()) -> RandomForest:
    """A forest on TrainingSamples: fit on their feature rows and labels."""
    X = np.array([s.features for s in samples]).reshape(-1, len(FEATURE_NAMES))
    return fit(X, [s.label for s in samples], config)


def fit(X, labels, config: ForestConfig = ForestConfig()) -> RandomForest:
    """A forest on an (m, 12) feature matrix, row i labelled labels[i]."""
    if len(labels) < 2:
        raise ValueError("need at least 2 training samples")
    X = _feature_rows(X)
    if len(X) != len(labels):
        raise ValueError(f"{len(X)} feature rows for {len(labels)} labels")
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature values in training data")
    try:
        y = np.array([LABELS.index(label) for label in labels], dtype=np.int64)
    except ValueError:
        bad = sorted(set(labels) - set(LABELS))
        raise ValueError(f"unknown labels: {bad}") from None
    if (y == y[0]).all():  # np.unique(y) imports numpy.ma, which costs more than training
        raise ValueError("training data contains a single class")
    return RandomForest(config, _grow(X, y, config))


def _grow(X: np.ndarray, y: np.ndarray, config: ForestConfig) -> list:
    """Grow every tree of the forest in lock step, as model-file dicts.

    Tree t draws from its own SeedSequence([seed, t]) stream: its bootstrap
    sample first, then the features of each node it searches, in preorder.
    A node is a leaf when it is at max_depth, holds one class, or no split
    of it gains; otherwise its samples with value < threshold go left.  Each
    step takes the next node to search from every tree's depth-first walk
    and scores them all with best_splits, STEP_CELLS cells a call.
    Each pending node carries the dict it fills with its class distribution,
    which a split replaces by its feature, threshold and two child dicts.
    """
    n, n_classes = X.shape[0], len(LABELS)
    rngs = [np.random.default_rng(np.random.SeedSequence([config.seed, t]))
            for t in range(config.trees)]
    trees = [{} for _ in rngs]
    # per tree, its pending nodes: (dict to fill, sample rows, class counts, depth)
    stacks = []
    for rng, tree in zip(rngs, trees):
        boot = rng.integers(0, n, size=n)
        stacks.append([(tree, boot, np.bincount(y[boot], minlength=n_classes).tolist(), 0)])
    while True:
        batch = []  # (sample rows, features, dict, depth, stack) of each node to search
        for rng, stack in zip(rngs, stacks):
            while stack:
                node, rows, counts, depth = stack.pop()
                node["dist"] = [c / len(rows) for c in counts]
                if depth < config.max_depth and max(counts) < len(rows):
                    feats = sorted(rng.choice(X.shape[1], size=FEATURES_PER_SPLIT,
                                              replace=False).tolist())
                    batch.append((rows, feats, node, depth, stack))
                    break
        if not batch:
            return trees
        batch.sort(key=lambda item: len(item[0]), reverse=True)
        for chunk in _chunks(batch):
            for (_, _, node, depth, stack), split in zip(chunk, _search(X, y, chunk)):
                if split is not None:
                    del node["dist"]
                    node["feature"], node["threshold"], left, right = split
                    node["left"], node["right"] = {}, {}
                    stack += [(node["right"], *right, depth + 1), (node["left"], *left, depth + 1)]


def _chunks(batch):
    """Runs of a batch sorted by descending node size, each padded block of
    nodes x FEATURES_PER_SPLIT x its first node's size within STEP_CELLS."""
    start = 0
    while start < len(batch):
        stop = start + max(1, STEP_CELLS // (FEATURES_PER_SPLIT * len(batch[start][0])))
        yield batch[start:stop]
        start = stop


def _search(X: np.ndarray, y: np.ndarray, chunk) -> list:
    """Best split of each node of chunk, from one best_splits call.

    A node gets None when no split gains, else (feature, threshold, left,
    right), each side as (sample rows, class counts).
    """
    m, n_classes = len(chunk), len(LABELS)
    sizes = np.array([len(rows) for rows, *_ in chunk])
    padded = np.zeros((m, sizes.max()), dtype=np.int64)
    for r, (rows, *_) in enumerate(chunk):
        padded[r, :len(rows)] = rows
    feats = np.array([feats for _, feats, *_ in chunk])
    labels = y[padded]
    gains, columns, thresholds = best_splits(
        X[padded[:, np.newaxis, :], feats[:, :, np.newaxis]], labels, sizes, n_classes)

    features = feats[np.arange(m), columns]  # column -1 (no split) is dropped below
    valid = np.arange(padded.shape[1]) < sizes[:, np.newaxis]
    go_left = (X[padded, features[:, np.newaxis]] < thresholds[:, np.newaxis]) & valid
    cells = np.arange(m)[:, np.newaxis] * n_classes + labels
    sides = [np.bincount(cells[side], minlength=m * n_classes).reshape(m, n_classes)
             for side in (go_left, valid & ~go_left)]
    # each node's rows, those going left first
    padded = np.take_along_axis(padded, np.argsort(~go_left, axis=1, kind="stable"), axis=1)
    out = []
    for rows, gain, feature, threshold, left, right in zip(
            padded, gains.tolist(), features.tolist(), thresholds.tolist(),
            sides[0].tolist(), sides[1].tolist()):
        if gain <= 0:
            out.append(None)
        else:
            n_left = sum(left)
            out.append((feature, threshold, (rows[:n_left], left),
                        (rows[n_left:n_left + sum(right)], right)))
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


# -- persistence -------------------------------------------------------------


def save(forest: RandomForest, path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "labels": list(LABELS),
        "config": {
            "trees": forest.config.trees,
            "max_depth": forest.config.max_depth,
            "seed": forest.config.seed,
        },
        "trees": forest.trees,
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True)
        fp.write("\n")


def load(path) -> RandomForest:
    with reading(path, "model file"), open(path, encoding="utf-8") as fp:
        payload = json.load(fp)
        if not isinstance(payload, dict) or "format_version" not in payload:
            raise ValueError("not a model file: missing format_version")
        if payload["format_version"] != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format version: {payload['format_version']}"
            )
        if tuple(payload.get("labels", ())) != LABELS:
            raise ValueError(f"label set mismatch: {payload.get('labels')}")
        cfg = payload["config"]  # other keys, as older files carry, only steered training
        values = [cfg[key] for key in ForestConfig._fields]
        for key, value in zip(ForestConfig._fields, values):
            if type(value) is not int:
                raise ValueError(f"config {key} {value!r} is not an integer")
        return RandomForest(ForestConfig(*values), payload["trees"])


# -- per-class claim sampling ------------------------------------------------


def sample_training_claims(instances, seed: int,
                           counts=DEFAULT_CLASS_COUNTS) -> list:
    """Uniform per-class sample without replacement, classes in label order.

    Pools smaller than the requested count are taken whole with a warning.
    """
    rng = np.random.default_rng(seed)
    out = []
    for label, want in zip(LABELS, counts):
        pool = [i for i, inst in enumerate(instances) if inst.label == label]
        if len(pool) <= want:
            if len(pool) < want:
                log.warning("class %s has %d claims, requested %d; taking all",
                            label, len(pool), want)
            chosen = pool
        else:
            picks = rng.choice(len(pool), size=want, replace=False)
            chosen = [pool[i] for i in np.sort(picks)]
        out.extend(instances[i] for i in chosen)
    return out
