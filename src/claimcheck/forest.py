"""Random Forest over claim feature vectors.

Fifty depth-limited trees, each grown on a bootstrap resample with a random
subset of features considered at every node and splits chosen by information
gain (entropy in nats, thresholds at midpoints of consecutive distinct
values).  Per-tree random streams are derived from (seed, tree index), so
training is reproducible regardless of scheduling, and the JSON model file
round-trips bit-exactly.
"""

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .features import FEATURE_NAMES, FeatureVector

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
LABELS = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")
DEFAULT_CLASS_COUNTS = (3000, 3000, 4000)
FEATURES_PER_SPLIT = math.ceil(math.sqrt(len(FEATURE_NAMES)))  # features drawn at each node


class TrainingError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 50
    max_depth: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.trees < 1:
            raise ValueError(f"a forest needs at least 1 tree, got {self.trees}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")


@dataclass(frozen=True)
class TrainingSample:
    features: FeatureVector
    label: str


class RandomForest:
    """Trees in model-file form, and the same nodes as flat arrays to predict with.

    A tree is a nested dict: a leaf is {"dist": class distribution}, a split
    is {"feature", "threshold", "left", "right"} and sends value < threshold
    to the left.  Building a forest validates every tree, trained or loaded.
    """

    def __init__(self, config: ForestConfig, trees: list):
        self.config = config
        self.trees = trees
        self._nodes = _flatten(trees)

    def predict_all(self, features) -> tuple:
        """(labels, (m, classes) probabilities) of m feature vectors, in one pass.

        Each claim's probabilities add the trees' leaf distributions one at
        a time in tree order; ties in the argmax pick the earlier label.
        """
        roots, feature, threshold, left, right, dist, depth = self._nodes
        X = np.array([fv.as_array() for fv in features], dtype=np.float64)
        X = X.reshape(-1, len(FEATURE_NAMES))
        node = np.tile(roots, (len(X), 1))
        rows = np.arange(len(X))[:, np.newaxis]
        for _ in range(depth):  # leaves point to themselves
            go_left = X[rows, feature[node]] < threshold[node]
            node = np.where(go_left, left[node], right[node])
        probs = np.cumsum(dist[node], axis=1)[:, -1] / len(roots)
        return [LABELS[i] for i in np.argmax(probs, axis=1).tolist()], probs

    def predict(self, features: FeatureVector):
        """(label, class-probability vector) of one feature vector."""
        labels, probs = self.predict_all([features])
        return labels[0], probs[0]


def _flatten(trees) -> tuple:
    """Check trees in model-file form and lay their nodes out as flat arrays.

    Node i splits on feature[i] at threshold[i] and goes to left[i] or
    right[i]; a leaf has feature -1, points to itself and holds dist[i].
    Each tree takes a run of node ids in preorder from its root (the layout
    of scikit-learn's Tree).  Returns (roots, feature, threshold, left,
    right, dist, depth), depth being the most splits on any root-to-leaf path.
    """
    if not trees:
        raise ModelFormatError("model has no trees")
    nodes = []  # [feature, threshold, left, right, dist] per node

    def add(node, level) -> int:
        i = len(nodes)
        if "dist" in node:
            # + 0.0 turns -0.0 into 0.0, so tree sums keep the bits of sums from zero
            d = np.array(node["dist"], dtype=np.float64) + 0.0
            if (d.shape != (len(LABELS),) or not (d >= 0).all()
                    or not abs(d.sum() - 1.0) <= 1e-9):
                raise ModelFormatError(f"bad leaf distribution: {node['dist']}")
            nodes.append([-1, 0.0, i, i, d])
            return level
        f, t = int(node["feature"]), float(node["threshold"])
        if not 0 <= f < len(FEATURE_NAMES):
            raise ModelFormatError(f"split feature {f} outside 0..{len(FEATURE_NAMES) - 1}")
        if not math.isfinite(t):
            raise ModelFormatError(f"non-finite split threshold: {t}")
        nodes.append([f, t, i + 1, -1, np.zeros(len(LABELS))])
        depth = add(node["left"], level + 1)
        nodes[i][3] = len(nodes)
        return max(depth, add(node["right"], level + 1))

    roots, depth = [], 0
    for tree in trees:
        roots.append(len(nodes))
        depth = max(depth, add(tree, 0))
    return (np.array(roots), *map(np.array, zip(*nodes)), depth)


def _leaf(y: np.ndarray, n_classes: int) -> dict:
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    return {"dist": (counts / counts.sum()).tolist()}


def _grow(X: np.ndarray, y: np.ndarray, depth: int, config: ForestConfig,
          rng: np.random.Generator) -> dict:
    n_classes = len(LABELS)
    if depth >= config.max_depth or np.all(y == y[0]):
        return _leaf(y, n_classes)
    feats = np.sort(rng.choice(X.shape[1], size=FEATURES_PER_SPLIT, replace=False))
    gain, column, thr = kernels.best_split(X[:, feats], y, n_classes)
    if gain <= 0:
        return _leaf(y, n_classes)
    feat = int(feats[column])
    mask = X[:, feat] < thr
    return {
        "feature": feat,
        "threshold": thr,
        "left": _grow(X[mask], y[mask], depth + 1, config, rng),
        "right": _grow(X[~mask], y[~mask], depth + 1, config, rng),
    }


def train(samples, config: ForestConfig = ForestConfig()) -> RandomForest:
    if len(samples) < 2:
        raise TrainingError("need at least 2 training samples")
    X = np.stack([s.features.as_array() for s in samples])
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature values in training data")
    try:
        y = np.array([LABELS.index(s.label) for s in samples], dtype=np.int64)
    except ValueError:
        bad = sorted({s.label for s in samples} - set(LABELS))
        raise TrainingError(f"unknown labels: {bad}") from None
    if np.unique(y).size < 2:
        raise TrainingError("training data contains a single class")

    n = len(X)
    trees = []
    for t in range(config.trees):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, t]))
        boot = rng.integers(0, n, size=n)
        trees.append(_grow(X[boot], y[boot], 0, config, rng))
    return RandomForest(config, trees)


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
    with open(path, encoding="utf-8") as fp:
        try:
            payload = json.load(fp)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ModelFormatError(f"unreadable model file: {exc}") from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise ModelFormatError("not a model file: missing format_version")
    if payload["format_version"] != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version: {payload['format_version']}"
        )
    if tuple(payload.get("labels", ())) != LABELS:
        raise ModelFormatError(f"label set mismatch: {payload.get('labels')}")
    try:
        cfg = payload["config"]  # other keys, as older files carry, only steered training
        config = ForestConfig(
            trees=int(cfg["trees"]),
            max_depth=int(cfg["max_depth"]),
            seed=int(cfg["seed"]),
        )
        return RandomForest(config, payload["trees"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from exc


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
