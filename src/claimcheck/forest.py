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
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .features import FEATURE_NAMES, FeatureVector

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
LABELS = ("SUPPORTS", "REFUTES", "NOT ENOUGH INFO")
DEFAULT_CLASS_COUNTS = (3000, 3000, 4000)


class TrainingError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


@dataclass
class TreeNode:
    # leaf iff left is None; internal nodes route value < threshold to the left
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    dist: np.ndarray | None = None


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 50
    max_depth: int = 3
    features_per_split: int | None = None  # None -> ceil(sqrt(n_features))
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


@dataclass
class RandomForest:
    config: ForestConfig
    trees: list = field(default_factory=list)

    def predict(self, features: FeatureVector):
        """(label, class-probability vector); ties pick the earlier label."""
        x = features.as_array()
        probs = np.zeros(len(LABELS), dtype=np.float64)
        for tree in self.trees:
            probs += _leaf_for(tree, x).dist
        probs /= len(self.trees)
        return LABELS[int(np.argmax(probs))], probs


def _leaf_for(node: TreeNode, x: np.ndarray) -> TreeNode:
    while node.left is not None:
        node = node.left if x[node.feature] < node.threshold else node.right
    return node


def tree_depth(node: TreeNode) -> int:
    """Internal nodes on the deepest root-to-leaf path."""
    if node.left is None:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def _leaf(y: np.ndarray, n_classes: int) -> TreeNode:
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    return TreeNode(dist=counts / counts.sum())


def _grow(X: np.ndarray, y: np.ndarray, depth: int, config: ForestConfig,
          k: int, rng: np.random.Generator) -> TreeNode:
    n_classes = len(LABELS)
    if depth >= config.max_depth or np.all(y == y[0]):
        return _leaf(y, n_classes)
    feats = np.sort(rng.choice(X.shape[1], size=k, replace=False))
    best_gain, best_feat, best_thr = 0.0, -1, 0.0
    for f in feats:
        gain, thr = kernels.best_split(np.ascontiguousarray(X[:, f]), y, n_classes)
        if gain > best_gain:
            best_gain, best_feat, best_thr = gain, int(f), float(thr)
    if best_feat < 0:
        return _leaf(y, n_classes)
    mask = X[:, best_feat] < best_thr
    return TreeNode(
        feature=best_feat,
        threshold=best_thr,
        left=_grow(X[mask], y[mask], depth + 1, config, k, rng),
        right=_grow(X[~mask], y[~mask], depth + 1, config, k, rng),
    )


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

    n, p = X.shape
    k = config.features_per_split or math.ceil(math.sqrt(p))
    if not 1 <= k <= p:
        raise TrainingError(f"features_per_split must be in 1..{p}, got {k}")

    forest = RandomForest(config=config)
    for t in range(config.trees):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, t]))
        boot = rng.integers(0, n, size=n)
        forest.trees.append(_grow(X[boot], y[boot], 0, config, k, rng))
    return forest


# -- persistence -------------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    if node.left is None:
        return {"dist": node.dist.tolist()}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(payload: dict) -> TreeNode:
    if "dist" in payload:
        dist = np.array(payload["dist"], dtype=np.float64)
        if (dist.shape != (len(LABELS),) or not (dist >= 0).all()
                or not abs(dist.sum() - 1.0) <= 1e-9):
            raise ModelFormatError(f"bad leaf distribution: {payload['dist']}")
        return TreeNode(dist=dist)
    feature, threshold = int(payload["feature"]), float(payload["threshold"])
    if not 0 <= feature < len(FEATURE_NAMES):
        raise ModelFormatError(f"split feature {feature} outside 0..{len(FEATURE_NAMES) - 1}")
    if not math.isfinite(threshold):
        raise ModelFormatError(f"non-finite split threshold: {threshold}")
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_node_from_dict(payload["left"]),
        right=_node_from_dict(payload["right"]),
    )


def save(forest: RandomForest, path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "labels": list(LABELS),
        "config": {
            "trees": forest.config.trees,
            "max_depth": forest.config.max_depth,
            "features_per_split": forest.config.features_per_split,
            "seed": forest.config.seed,
        },
        "trees": [_node_to_dict(t) for t in forest.trees],
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True)
        fp.write("\n")


def load(path) -> RandomForest:
    with open(path, encoding="utf-8") as fp:
        try:
            payload = json.load(fp)
        except json.JSONDecodeError as exc:
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
        cfg = payload["config"]
        config = ForestConfig(
            trees=int(cfg["trees"]),
            max_depth=int(cfg["max_depth"]),
            features_per_split=cfg["features_per_split"],
            seed=int(cfg["seed"]),
        )
        trees = [_node_from_dict(t) for t in payload["trees"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupt model file: {exc}") from exc
    if not trees:
        raise ModelFormatError("model has no trees")
    return RandomForest(config=config, trees=trees)


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
