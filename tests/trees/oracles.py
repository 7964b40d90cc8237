"""Differential oracles for the tree layer's single production paths.

Production trains with one split engine — the batched search over the
feature-sorted lanes tree growth maintains — and predicts through one
dispatch rule: the compiled engine, or the object graph for small
batches on a model not yet compiled.  The straightforward
implementations those paths replaced live here, so the
bitwise-equivalence tests compare production against an independent
reference:

- :func:`find_best_split` — the node-local split search: one Python
  iteration per candidate feature, each re-sorting the node's values.
  :func:`use_node_local_splits` installs it in tree growth (and stubs
  out the presort it no longer needs).
- :func:`node_local_presorted_dataset` — a stand-in for the dataset
  presort whose ``node_sorted`` stable-argsorts every node afresh;
  :func:`use_node_local_regression_sorts` installs it in
  :class:`~repro.trees.RegressionTree`.
- :func:`object_predict_all`, :func:`object_predict_proba`,
  :func:`object_stage_contributions` — inference by walking the
  ``TreeNode`` graph, never the compiled table.

Test modules under ``tests/trees`` import this file by name; other
callers (``tests/attacks``, ``benchmarks/``) load it by path.
"""

from __future__ import annotations

import numpy as np

from repro.trees.criteria import weighted_class_counts
from repro.trees.node import predict_batch
from repro.trees.splitter import Split

# Two adjacent feature values closer than this are never separated.
_MIN_VALUE_GAP = 1e-12


# ----------------------------------------------------------------------
# Training: the node-local split search
# ----------------------------------------------------------------------


def _class_count_prefixes(
    codes: np.ndarray, weights: np.ndarray, n_classes: int
) -> np.ndarray:
    """Weighted class-count prefix sums: ``prefix[i, c]`` is the weight of
    class ``c`` among the first ``i + 1`` samples in sorted order."""
    one_hot = np.zeros((codes.shape[0], n_classes), dtype=np.float64)
    one_hot[np.arange(codes.shape[0]), codes] = weights
    return np.cumsum(one_hot, axis=0)


def _best_position_for_feature(
    values: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
    n_classes: int,
    criterion,
    min_samples_leaf: int,
    parent_weighted_impurity: float,
) -> tuple[float, float, int] | None:
    """Best split of one feature; returns ``(gain, threshold, position)``.

    ``position`` is the number of sorted samples that go to the left
    child.  Returns ``None`` when the feature admits no valid split.
    """
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    if sorted_values[-1] - sorted_values[0] <= _MIN_VALUE_GAP:
        return None

    prefix = _class_count_prefixes(codes[order], weights[order], n_classes)
    total = prefix[-1]
    n = values.shape[0]

    # Candidate positions i mean "first i sorted samples go left".
    positions = np.arange(1, n)
    distinct = sorted_values[1:] - sorted_values[:-1] > _MIN_VALUE_GAP
    big_enough = (positions >= min_samples_leaf) & (n - positions >= min_samples_leaf)
    valid = distinct & big_enough
    if not valid.any():
        return None
    positions = positions[valid]

    left_counts = prefix[positions - 1]
    right_counts = total[None, :] - left_counts
    left_weight = left_counts.sum(axis=1)
    right_weight = right_counts.sum(axis=1)
    child_weighted = left_weight * criterion(left_counts) + right_weight * criterion(
        right_counts
    )
    gains = parent_weighted_impurity - child_weighted

    best = int(np.argmax(gains))
    position = int(positions[best])
    threshold = 0.5 * (sorted_values[position - 1] + sorted_values[position])
    # Guard against midpoints that collapse onto the left value through
    # floating-point rounding, which would route left-side samples right.
    if threshold <= sorted_values[position - 1]:
        threshold = sorted_values[position - 1]
    return float(gains[best]), float(threshold), position


def _local_best(
    X: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
    index: np.ndarray,
    candidate_features: np.ndarray,
    n_classes: int,
    criterion,
    min_samples_leaf: int,
    parent_weighted_impurity: float,
) -> tuple[float, float, int] | None:
    """Python loop over candidate features; returns ``(gain, threshold, feature)``."""
    node_codes = codes[index]
    node_weights = weights[index]
    best: tuple[float, float, int] | None = None  # gain, threshold, feature
    for feature in candidate_features:
        result = _best_position_for_feature(
            X[index, feature],
            node_codes,
            node_weights,
            n_classes,
            criterion,
            min_samples_leaf,
            parent_weighted_impurity,
        )
        if result is None:
            continue
        gain, threshold, _position = result
        key = (gain, -int(feature))  # deterministic tie-break: lowest feature id
        if best is None or key > (best[0], -best[2]):
            best = (gain, threshold, int(feature))
    return best


def find_best_split(
    X: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
    index: np.ndarray,
    candidate_features: np.ndarray,
    n_classes: int,
    criterion,
    min_samples_leaf: int,
    min_impurity_decrease: float,
    ordering=None,
    lane_positions=None,
) -> Split | None:
    """Drop-in for :func:`repro.trees.splitter.find_best_split`.

    Re-sorts the node from ``X[index]`` and ignores ``ordering`` /
    ``lane_positions`` (the growth-maintained lanes production reads).
    The parent impurity goes through the vectorised criterion, never
    production's scalar Gini shortcut, so that shortcut is checked too.
    """
    node_counts = weighted_class_counts(codes[index], weights[index], n_classes)
    parent_weighted_impurity = float(
        node_counts.sum() * criterion(node_counts[None, :])[0]
    )
    if parent_weighted_impurity <= 0.0:
        return None  # already pure
    best = _local_best(
        X,
        codes,
        weights,
        index,
        np.asarray(candidate_features),
        n_classes,
        criterion,
        min_samples_leaf,
        parent_weighted_impurity,
    )
    if best is None:
        return None
    gain, threshold, feature = best
    if gain < min_impurity_decrease or gain <= 1e-15:
        return None
    go_left = X[index, feature] <= threshold
    return Split(
        feature=feature,
        threshold=threshold,
        gain=gain,
        left_index=index[go_left],
        right_index=index[~go_left],
    )


def use_node_local_splits(monkeypatch) -> None:
    """Make every classification-tree fit use the node-local search.

    The dataset presort and the growth-maintained orderings are stubbed
    out too, so an oracle fit does exactly the work the node-local
    engine did on its own — no production sorting code runs, and timed
    seed baselines pay nothing they did not pay before.
    """
    monkeypatch.setattr("repro.trees.growth.find_best_split", find_best_split)
    monkeypatch.setattr("repro.trees.growth.root_ordering", _no_ordering)
    monkeypatch.setattr("repro.trees.growth.partition_ordering", _no_child_orderings)
    monkeypatch.setattr("repro.trees.tree.presorted_dataset", _no_presort)
    monkeypatch.setattr("repro.ensemble.forest.presorted_dataset", _no_presort)


def _no_presort(X):
    return None


def _no_ordering(presort, index, features, codes, weights):
    return None


def _no_child_orderings(presort, ordering, left, right, want_left, want_right):
    return None, None


class _NodeLocalSorts:
    """Presort stand-in: every node's feature orders come from a fresh
    per-feature stable argsort of the node's own values."""

    def __init__(self, X: np.ndarray) -> None:
        self.X = np.asarray(X, dtype=np.float64)

    def node_sorted(
        self, index: np.ndarray, features: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        rows = np.empty((len(features), index.shape[0]), dtype=np.intp)
        values = np.empty((len(features), index.shape[0]), dtype=np.float64)
        for j, feature in enumerate(features):
            column = self.X[index, feature]
            order = np.argsort(column, kind="stable")
            rows[j] = index[order]
            values[j] = column[order]
        return rows, values


def node_local_presorted_dataset(X: np.ndarray) -> _NodeLocalSorts:
    """Drop-in for :func:`repro.trees.presort.presorted_dataset`."""
    return _NodeLocalSorts(X)


def use_node_local_regression_sorts(monkeypatch) -> None:
    """Make every regression-tree fit re-sort at every node."""
    monkeypatch.setattr(
        "repro.trees.regression.presorted_dataset", node_local_presorted_dataset
    )


# ----------------------------------------------------------------------
# Inference: walk the object graph
# ----------------------------------------------------------------------


def _leaf_of(root, x: np.ndarray):
    node = root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def _leaf_distribution(leaf, class_position: dict[int, int]) -> np.ndarray:
    """Recorded class masses over their total; one-hot on the label when
    the leaf recorded none (hand-built trees)."""
    row = np.zeros(len(class_position), dtype=np.float64)
    total = sum(leaf.class_weights.values())
    if total > 0:
        for label, mass in leaf.class_weights.items():
            row[class_position[label]] = mass / total
    else:
        row[class_position[leaf.prediction]] = 1.0
    return row


def _tree_proba(root, classes: np.ndarray, X: np.ndarray) -> np.ndarray:
    class_position = {int(c): i for i, c in enumerate(classes)}
    out = np.zeros((X.shape[0], len(class_position)), dtype=np.float64)
    for i, x in enumerate(X):
        out[i] = _leaf_distribution(_leaf_of(root, x), class_position)
    return out


def object_predict_all(forest, X: np.ndarray) -> np.ndarray:
    """Per-tree labels of a forest, shape ``(n_trees, n_samples)``."""
    return np.stack([predict_batch(tree.root_, X) for tree in forest.trees_])


def object_predict_proba(model, X: np.ndarray) -> np.ndarray:
    """``predict_proba`` of a tree, or the tree-average of a forest."""
    if not hasattr(model, "trees_"):
        return _tree_proba(model.root_, model.classes_, X)
    class_position = {int(c): i for i, c in enumerate(model.classes_)}
    total = np.zeros((X.shape[0], model.classes_.shape[0]), dtype=np.float64)
    for tree in model.trees_:
        proba = _tree_proba(tree.root_, tree.classes_, X)
        for local, label in enumerate(tree.classes_):
            total[:, class_position[int(label)]] += proba[:, local]
    return total / len(model.trees_)


def object_stage_contributions(model, X: np.ndarray) -> np.ndarray:
    """Per-stage ``learning_rate * tree(x)`` of a gradient-boosted model."""
    return np.stack(
        [model.learning_rate * tree.predict(X) for tree in model.trees_], axis=0
    )
