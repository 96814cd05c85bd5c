import hashlib
import json
import logging
import re

import numpy as np
import pytest

from claimcheck import forest
from claimcheck.forest import (
    ForestConfig,
    TrainingSample,
)

import oracles
from conftest import best_split


def tree_depth(node: dict) -> int:
    """Internal nodes on the deepest root-to-leaf path."""
    if "dist" in node:
        return 0
    return 1 + max(tree_depth(node["left"]), tree_depth(node["right"]))


def grow_reference(X, y, depth, config, rng) -> dict:
    """One tree grown the recursive way: depth first, one split search per node."""
    if depth < config.max_depth and not np.all(y == y[0]):
        feats = np.sort(rng.choice(X.shape[1], size=forest.FEATURES_PER_SPLIT, replace=False))
        gain, column, thr = best_split(X[:, feats], y)
        if gain > 0:
            feat = int(feats[column])
            mask = X[:, feat] < thr
            return {
                "feature": feat,
                "threshold": thr,
                "left": grow_reference(X[mask], y[mask], depth + 1, config, rng),
                "right": grow_reference(X[~mask], y[~mask], depth + 1, config, rng),
            }
    counts = np.bincount(y, minlength=3).astype(np.float64)
    return {"dist": (counts / counts.sum()).tolist()}


def train_reference(X, y, config) -> list:
    trees = []
    for t in range(config.trees):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, t]))
        boot = rng.integers(0, len(X), size=len(X))
        trees.append(grow_reference(X[boot], y[boot], 0, config, rng))
    return trees


def random_tree(rng, depth) -> dict:
    """A model-file tree of at most depth splits: leaves pure, counted as
    training counts them, or drawn from a Dirichlet distribution."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(3)
        if kind == 0:
            dist = np.eye(3)[rng.integers(3)]
        elif kind == 1:
            counts = rng.integers(0, 9, size=3) + np.eye(3, dtype=np.int64)[rng.integers(3)]
            dist = counts / counts.sum()
        else:
            dist = rng.dirichlet(np.ones(3))
        return {"dist": dist.tolist()}
    return {"feature": int(rng.integers(12)), "threshold": float(rng.random()),
            "left": random_tree(rng, depth - 1), "right": random_tree(rng, depth - 1)}


def fv(values) -> np.ndarray:
    """A (12,) feature row."""
    return np.array(values, dtype=np.float64)


def separable_samples(rng, n):
    """Class decided by whether f7 exceeds 0.5; all other features noise."""
    out = []
    for _ in range(n):
        vals = rng.random(12)
        out.append(TrainingSample(fv(vals), "SUPPORTS" if vals[6] > 0.5 else "REFUTES"))
    return out


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(50)
    samples = separable_samples(rng, 200)
    model = forest.train(samples, ForestConfig(seed=51))
    return samples, model


class TestTraining:
    def test_depth_limit_by_traversal(self, trained):
        _, model = trained
        assert len(model.trees) == 50
        assert all(tree_depth(t) <= 3 for t in model.trees)

    def test_separable_heldout_accuracy(self, trained):
        _, model = trained
        rng = np.random.default_rng(52)
        held = separable_samples(rng, 200)
        acc = np.mean([model.predict(s.features)[0] == s.label for s in held])
        assert acc >= 0.95

    def test_equal_seeds_bit_identical(self, trained):
        samples, model = trained
        again = forest.train(samples, ForestConfig(seed=51))
        a = json.dumps(model.trees)
        b = json.dumps(again.trees)
        assert a == b

    def test_all_identical_features_gives_leaves(self):
        samples = [TrainingSample(fv([0.5] * 12), "SUPPORTS")] * 3 + \
                  [TrainingSample(fv([0.5] * 12), "REFUTES")] * 2
        model = forest.train(samples, ForestConfig(trees=7, seed=1))
        for t in model.trees:
            assert set(t) == {"dist"}
            assert sum(t["dist"]) == pytest.approx(1.0)

    def test_rejects_degenerate_input(self):
        one = [TrainingSample(fv(np.arange(12) / 12), "SUPPORTS")]
        with pytest.raises(ValueError, match="need at least 2 training samples"):
            forest.train(one)
        with pytest.raises(ValueError, match="training data contains a single class"):
            forest.train(one * 10)

    def test_chosen_split_maximizes_gain(self, monkeypatch):
        # exhaustively re-rank candidate splits at the root of small trees
        monkeypatch.setattr(forest, "FEATURES_PER_SPLIT", 12)
        rng = np.random.default_rng(53)
        samples = separable_samples(rng, 60)
        X = np.stack([s.features for s in samples])
        y = np.array([forest.LABELS.index(s.label) for s in samples], dtype=np.int64)
        model = forest.train(samples, ForestConfig(trees=20, seed=54))
        for ti, t in enumerate(model.trees):
            if "dist" in t:
                continue
            # bootstrap changes the sample, so re-evaluate on the bootstrap
            tree_rng = np.random.default_rng(np.random.SeedSequence([54, ti]))
            boot = tree_rng.integers(0, len(samples), size=len(samples))
            Xb, yb = X[boot], y[boot]
            best = max(best_split(Xb[:, [f]], yb, 3)[0] for f in range(12))
            gain, _, _ = best_split(Xb[:, [t["feature"]]], yb, 3)
            assert gain == pytest.approx(best, abs=1e-12)


    @pytest.mark.parametrize("step_cells", [forest.STEP_CELLS, 300, 1])
    def test_lock_step_equals_recursive_grower(self, monkeypatch, step_cells):
        monkeypatch.setattr(forest, "STEP_CELLS", step_cells)  # 1: one node a call
        rng = np.random.default_rng(58)
        for _ in range(25):
            n = int(rng.integers(2, 201))
            X = rng.random((n, 12))
            ties = rng.random(12) < 0.5  # many ties in about half the features
            X[:, ties] = rng.integers(0, 4, size=(n, ties.sum())) / 4.0
            if rng.random() < 0.5:  # classes follow a feature, so subsets turn pure
                y = (X[:, 0] > 0.5).astype(np.int64) + (X[:, 1] > 0.75)
            else:
                y = rng.integers(0, 3, size=n)
            y[:2] = [0, 1]
            config = ForestConfig(trees=int(rng.integers(1, 8)),
                                  max_depth=int(rng.integers(0, 6)),
                                  seed=int(rng.integers(0, 1000)))
            samples = [TrainingSample(fv(x), forest.LABELS[c]) for x, c in zip(X, y)]
            model = forest.train(samples, config)
            assert json.dumps(model.trees) == json.dumps(train_reference(X, y, config))

    def test_rejects_degenerate_config(self):
        with pytest.raises(ValueError, match="at least 1 tree"):
            ForestConfig(trees=0)
        with pytest.raises(ValueError, match="max_depth"):
            ForestConfig(max_depth=-1)


class TestPrediction:
    def test_probability_vector_sums_to_one(self, trained):
        _, model = trained
        rng = np.random.default_rng(55)
        for _ in range(20):
            _, probs = model.predict(fv(rng.random(12)))
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_constant_forest(self):
        leaf = {"dist": [1.0, 0.0, 0.0]}
        model = forest.RandomForest(config=ForestConfig(trees=3), trees=[leaf] * 3)
        label, probs = model.predict(fv(np.zeros(12)))
        assert label == "SUPPORTS" and probs.tolist() == [1.0, 0.0, 0.0]
        # a -0.0 leaf entry sums to +0.0, as a sum starting from zero does
        signed = forest.RandomForest(ForestConfig(trees=2), [{"dist": [-0.0, 1.0, 0.0]}] * 2)
        assert not np.signbit(signed.predict(fv(np.zeros(12)))[1]).any()

    def test_argmax_tie_breaks_in_label_order(self):
        half = {"dist": [0.5, 0.5, 0.0]}
        model = forest.RandomForest(config=ForestConfig(trees=2), trees=[half] * 2)
        assert model.predict(fv(np.zeros(12)))[0] == "SUPPORTS"

    def test_batch_equals_one_row_and_tree_walk_bit_for_bit(self, trained):
        _, model = trained
        rng = np.random.default_rng(57)
        X = rng.random((300, 12))
        splits = [t for t in model.trees if "dist" not in t]
        for row in X[::2]:  # half the rows sit exactly on a split threshold
            node = splits[rng.integers(len(splits))]
            row[node["feature"]] = node["threshold"]
        rows = [fv(x) for x in X]
        labels, probs = model.predict_all(np.array(rows))
        for row, label, p in zip(rows, labels, probs):
            one_label, one = model.predict(row)
            assert label == one_label and p.tobytes() == one.tobytes()
            walked = np.zeros(3)
            for node in model.trees:
                while "dist" not in node:
                    left = row[node["feature"]] < node["threshold"]
                    node = node["left"] if left else node["right"]
                walked += node["dist"]
            walked /= len(model.trees)
            assert p.tobytes() == walked.tobytes()
        assert model.predict_all(np.empty((0, 12)))[1].shape == (0, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_probabilities_equal_cumsum_oracle_bit_for_bit(self, seed):
        rng = np.random.default_rng([58, seed])
        trees, depth = int(rng.integers(1, 60)), int(rng.integers(0, 6))
        model = forest.RandomForest(ForestConfig(trees=trees, max_depth=depth),
                                    [random_tree(rng, depth) for _ in range(trees)])
        X = rng.random((int(rng.integers(0, 400)), 12))
        _, probs = model.predict_all(X)
        assert probs.tobytes() == oracles.forest_probs(model.trees, X).tobytes()

    def test_tree_order_permutation_invariant(self, trained):
        _, model = trained
        reversed_model = forest.RandomForest(config=model.config,
                                             trees=list(reversed(model.trees)))
        x = fv(np.linspace(0, 1, 12))
        la, pa = model.predict(x)
        lb, pb = reversed_model.predict(x)
        assert la == lb
        np.testing.assert_allclose(pa, pb, atol=1e-12)


class TestPersistence:
    def test_round_trip_predictions(self, tmp_path, trained):
        _, model = trained
        path = tmp_path / "model.json"
        forest.save(model, path)
        loaded = forest.load(path)
        rng = np.random.default_rng(56)
        for _ in range(100):
            x = fv(rng.random(12))
            la, pa = model.predict(x)
            lb, pb = loaded.predict(x)
            assert la == lb and np.array_equal(pa, pb)

    def test_saved_bytes_pinned(self, tmp_path, trained):
        # sha256 of the model file for a fixed training run; saving a loaded
        # model writes the same bytes
        _, model = trained
        path = tmp_path / "model.json"
        forest.save(model, path)
        saved = path.read_bytes()
        assert hashlib.sha256(saved).hexdigest() == \
            "5ffe84e170eab68f4ef938ba5c7e30d47edb639ac8c468aab4a32bfae61d5f27"
        forest.save(forest.load(path), path)
        assert path.read_bytes() == saved

    def test_truncated_file(self, tmp_path, trained):
        _, model = trained
        path = tmp_path / "model.json"
        forest.save(model, path)
        path.write_text(path.read_text()[:80])
        with pytest.raises(ValueError, match=f"cannot read model file {re.escape(str(path))}: "):
            forest.load(path)

    def test_version_mismatch(self, tmp_path, trained):
        _, model = trained
        path = tmp_path / "model.json"
        forest.save(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            forest.load(path)


    def test_empty_tree_list_rejected(self, tmp_path, trained):
        _, model = trained
        path = tmp_path / "model.json"
        forest.save(model, path)
        payload = json.loads(path.read_text())
        payload["trees"] = []
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="no trees"):
            forest.load(path)

    @pytest.mark.parametrize("field, value, match", [
        ("feature", 99, "feature 99 outside"),
        ("feature", -1, "feature -1 outside"),
        ("threshold", float("nan"), "non-finite"),
        ("threshold", float("inf"), "non-finite"),
        ("dist", [0.0, 0.0, 0.0], "leaf distribution"),
        ("dist", [0.5, 0.5, 0.5], "leaf distribution"),
        ("dist", [float("nan"), 0.5, 0.5], "leaf distribution"),
        ("feature", 2.9, "split feature 2.9 is not an integer"),
        ("feature", True, "split feature True is not an integer"),
        ("threshold", "0.5", "split threshold '0.5' is not a number"),
        ("threshold", False, "split threshold False is not a number"),
        ("threshold", 10**400, "int too large to convert to float"),
        ("dist", ["0.9", "0", "0.1"], "leaf distribution"),
        ("dist", [True, False, False], "leaf distribution"),
        ("dist", [0.5, 0.5], "leaf distribution"),
        ("dist", {"0": 1.0}, "leaf distribution"),
    ])
    def test_invalid_node_rejected(self, tmp_path, trained, field, value, match):
        _, model = trained
        path = tmp_path / "model.json"
        forest.save(model, path)
        payload = json.loads(path.read_text())
        node = payload["trees"][0]
        while field not in node:
            node = node["left"]
        node[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            forest.load(path)


    def test_first_bad_leaf_named_by_its_value(self):
        good, bad = {"dist": [1.0, 0.0, 0.0]}, {"dist": [0.7, 0.7, 0.0]}
        with pytest.raises(ValueError, match=r"distribution: \[0\.7, 0\.7, 0\.0\]"):
            forest.RandomForest(ForestConfig(trees=3), [good, bad, {"dist": [0.0, 0.0, 2.0]}])

    @pytest.mark.parametrize("field, value, match", [
        ("trees", 2, "model has 2 trees, its config 50"),
        ("max_depth", 1, "tree of depth 3, its config max_depth 1"),
        ("trees", 1.7, "config trees 1.7 is not an integer"),
        ("trees", 50.0, "config trees 50.0 is not an integer"),
        ("max_depth", "3", "config max_depth '3' is not an integer"),
        ("seed", True, "config seed True is not an integer"),
    ])
    def test_model_disagreeing_with_config_rejected(self, tmp_path, trained, field, value,
                                                     match):
        _, model = trained
        path = tmp_path / "model.json"
        forest.save(model, path)
        payload = json.loads(path.read_text())
        if field == "trees" and type(value) is int:  # an int cuts the tree list short
            payload["trees"] = payload["trees"][:value]
        else:
            payload["config"][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            forest.load(path)


class Inst:
    def __init__(self, label):
        self.label = label


class TestClassSampling:
    def test_paper_counts(self):
        pool = ([Inst("SUPPORTS")] * 5000 + [Inst("REFUTES")] * 5000 +
                [Inst("NOT ENOUGH INFO")] * 5000)
        out = forest.sample_training_claims(pool, seed=3)
        counts = {}
        for inst in out:
            counts[inst.label] = counts.get(inst.label, 0) + 1
        assert counts == {"SUPPORTS": 3000, "REFUTES": 3000, "NOT ENOUGH INFO": 4000}

    def test_small_pool_taken_whole_with_warning(self, caplog):
        pool = [Inst("SUPPORTS")] * 100 + [Inst("REFUTES")] * 3000 + \
               [Inst("NOT ENOUGH INFO")] * 4000
        with caplog.at_level(logging.WARNING):
            out = forest.sample_training_claims(pool, seed=3)
        assert sum(1 for i in out if i.label == "SUPPORTS") == 100
        assert any("taking all" in r.message for r in caplog.records)

    def test_identical_seed_identical_sample(self):
        pool = [Inst("SUPPORTS") for _ in range(4000)] + \
               [Inst("REFUTES") for _ in range(4000)] + \
               [Inst("NOT ENOUGH INFO") for _ in range(5000)]
        a = forest.sample_training_claims(pool, seed=9)
        b = forest.sample_training_claims(pool, seed=9)
        assert [id(x) for x in a] == [id(y) for y in b]
        c = forest.sample_training_claims(pool, seed=10)
        assert [id(x) for x in a] != [id(z) for z in c]
