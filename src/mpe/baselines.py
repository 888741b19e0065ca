"""Classical comparators over a shared day-level feature vector.

Feature layout (fixed order; ablation-excluded blocks are omitted, never
zero-padded): lagged demand (2 x lag_days, oldest first, out then in per
day; deviations under r_i, raw demand under o), target weekday one-hot
(7, Monday first), then per the event-features level an event count (1),
a time-of-day occupancy over time_bins, and a hashed bag-of-words block
(text_dim) for raw text under h. The h' level (LLM-formatted events) has
no classical features.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

import numpy as np

from .events import DayEvents
from .ioutil import atomic_write_text, read_text
from .prompts import AblationConfig, DemandFeatures, EventFeatures, HistoryWindow

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


class SingularSystemError(RuntimeError):
    """Normal equations are singular; retry with ridge_lambda > 0."""


@dataclass(frozen=True)
class FeaturizerConfig:
    lag_days: int = 28
    time_bins: int = 24
    text_dim: int = 32
    ablation: AblationConfig = AblationConfig()

    def __post_init__(self):
        if self.lag_days < 1 or self.time_bins < 1 or self.text_dim < 1:
            raise ValueError("featurizer dimensions must be positive")


def hashed_text_vector(text: str, dim: int) -> np.ndarray:
    """L1-normalized hashed bag of words; stable across processes."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    vec = np.zeros(dim)
    for token in _TOKEN_SPLIT.split(text.lower()):
        if len(token) < 2:
            continue
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        vec[int.from_bytes(digest, "big") % dim] += 1.0
    total = vec.sum()
    if total > 0:
        vec /= total
    return vec


def _time_bin_occupancy(events: DayEvents, bins: int) -> np.ndarray:
    """Each event adds 1 to every bin its start-end span touches."""
    vec = np.zeros(bins)
    for event in events.events:
        start_h = event.start_time.hour + event.start_time.minute / 60.0
        end_h = event.end_time.hour + event.end_time.minute / 60.0
        first = min(int(start_h * bins / 24.0), bins - 1)
        last = min(int(end_h * bins / 24.0), bins - 1)
        vec[first:last + 1] += 1.0
    return vec


def _event_text(events: DayEvents) -> str:
    parts = []
    for event in events.events:
        parts.append(event.title)
        if event.description:
            parts.append(event.description)
    return " ".join(parts)


def featurize_day(
    window: HistoryWindow,
    target_events: DayEvents,
    config: FeaturizerConfig,
) -> np.ndarray:
    """Feature vector for predicting the day after the window.

    Causal by construction: the target day's demand never appears. Raises
    ValueError under the h' ablation, which has no classical features.
    """
    if config.ablation.event_features is EventFeatures.C_T_H_PRIME:
        raise ValueError("classical features have no c_t_h_prime level; use c_t_h")
    if window.t != config.lag_days:
        raise ValueError(
            f"window length {window.t} != configured lag_days {config.lag_days}"
        )
    target_date = target_events.date
    if (target_date - window.end).days != 1:
        raise ValueError("target_events date must follow the window end")

    blocks = []
    lags = np.empty(2 * config.lag_days)
    for i, day in enumerate(window.days):
        d = day.decomposition
        if config.ablation.demand_features is DemandFeatures.R_I:
            lags[2 * i] = d.deviation.outflow
            lags[2 * i + 1] = d.deviation.inflow
        else:
            lags[2 * i] = d.actual.outflow
            lags[2 * i + 1] = d.actual.inflow
    blocks.append(lags)

    weekday = np.zeros(7)
    weekday[target_date.weekday()] = 1.0
    blocks.append(weekday)

    level = config.ablation.event_features
    if level is not EventFeatures.NA:
        blocks.append(np.array([float(len(target_events.events))]))
    if level in (EventFeatures.C_T, EventFeatures.C_T_H):
        blocks.append(_time_bin_occupancy(target_events, config.time_bins))
    if level is EventFeatures.C_T_H:
        blocks.append(hashed_text_vector(_event_text(target_events), config.text_dim))
    return np.concatenate(blocks)


@dataclass(frozen=True)
class LinearModel:
    """Ridge/OLS single-output regressor; intercept is unpenalized."""

    weights: np.ndarray
    intercept: float
    ridge_lambda: float


def fit_linear(X, y, ridge_lambda: float = 0.0) -> LinearModel:
    """Solve the centered normal equations; lambda = 0 gives OLS."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X rows must match y length")
    if X.shape[0] < 1:
        raise ValueError("need at least one sample")
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be non-negative")
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    gram = Xc.T @ Xc + ridge_lambda * np.eye(X.shape[1])
    rhs = Xc.T @ (y - y_mean)
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(gram) < gram.shape[0]:
        raise SingularSystemError(
            "singular normal equations; set ridge_lambda > 0"
        )
    weights = np.linalg.solve(gram, rhs)
    intercept = float(y_mean - weights @ x_mean)
    return LinearModel(weights=weights, intercept=intercept, ridge_lambda=ridge_lambda)


def predict_linear(model: LinearModel, x) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != model.weights.shape:
        raise ValueError(f"feature dimension {x.shape} != {model.weights.shape}")
    return float(model.intercept + model.weights @ x)


# A fitted tree is its JSON document: a leaf is {"value": v}, a split is
# {"feature": f, "threshold": t, "left": Tree, "right": Tree}, and a row
# goes left when x[f] <= t.
Tree = dict


@dataclass(frozen=True)
class GbdtParams:
    n_trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.05
    min_leaf: int = 5

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValueError("n_trees must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")


@dataclass(frozen=True)
class GbdtModel:
    trees: tuple[Tree, ...]
    learning_rate: float
    max_depth: int
    base_prediction: float
    n_features: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _best_split(Xt, residuals, ids, block, min_leaf):
    """Exact greedy variance-reduction split, all features in one pass.

    ``ids`` holds the node's rows in ascending order, and ``block`` is
    (features, order): ascending feature ids, and ``order[i]`` the same rows
    sorted by feature ``features[i]``, ties in ascending row order. Split SSE
    decomposes as sum(r^2) minus the "explained" term L^2/n_L + R^2/n_R, so
    maximizing the latter minimizes the former. Candidates are midpoints
    between distinct consecutive values with at least ``min_leaf`` rows on
    each side. A feature with no candidate is dropped from the block: a
    child's boundaries are its parent's with no more rows on either side,
    so it has none below either. Ties break toward the lowest threshold
    within a feature; across features, in ascending order, a later feature
    wins only if it explains more than 1e-12 beyond the best so far. Returns
    (feature, threshold, kept block), or None when no split beats the leaf.
    """
    features, order = block
    n = ids.size
    window = slice(min_leaf - 1, n - min_leaf)  # sorted position before a boundary
    values = Xt[features[:, None], order]
    ties = values[:, window] == values[:, min_leaf:n - min_leaf + 1]
    kept = ~ties.all(axis=1)
    features, order, ties = features[kept], order[kept], ties[kept]
    if features.size == 0:
        return None
    total = residuals[ids].sum()
    no_split = total * total / n
    k = np.arange(min_leaf, n - min_leaf + 1)  # rows left of each boundary
    left_sum = np.cumsum(residuals[order], axis=1)[:, window]
    right_sum = total - left_sum
    explained = left_sum**2 / k + right_sum**2 / (n - k)
    explained[ties] = -np.inf
    at = np.argmax(explained, axis=1)  # first max: lowest threshold wins ties
    gains = explained[np.arange(features.size), at]
    best = None
    gain_over = no_split
    for i in np.flatnonzero(gains > no_split + 1e-12):
        if gains[i] > gain_over + 1e-12:
            gain_over = gains[i]
            best = i
    if best is None:
        return None
    feature, pos = int(features[best]), k[at[best]]
    lower, upper = Xt[feature, order[best, pos - 1:pos + 1]]
    return feature, _threshold(float(lower), float(upper)), (features, order)


def _threshold(a: float, b: float) -> float:
    """The midpoint of consecutive values a < b, or a where the midpoint
    overflows or rounds up to b and would send every row to one side."""
    t = (a + b) / 2.0
    return t if a <= t < b else a


def _splittable(n, depth, params):
    return depth < params.max_depth and n >= 2 * params.min_leaf


def _build_tree(Xt, residuals, out, ids, block, depth, params):
    """Grow the subtree over ``ids`` and write each row's leaf value to ``out``.

    ``block`` is the node's (features, presorted row ids) pair (see
    `_best_split`), or None when the node cannot split. A stable sort of
    ascending ids equals the presort restricted to them, so children inherit
    the split's kept block by stable filtering and nothing is sorted again.
    """
    split = None
    if block is not None:
        split = _best_split(Xt, residuals, ids, block, params.min_leaf)
    if split is None:
        value = float(residuals[ids].mean())
        out[ids] = value
        return {"value": value}
    feature, threshold, (features, order) = split
    goes_left = Xt[feature, ids] <= threshold
    left_ids = ids[goes_left]
    right_ids = ids[~goes_left]
    left_block = right_block = None
    if depth + 1 < params.max_depth:
        in_left = np.zeros(residuals.size, dtype=bool)
        in_left[left_ids] = True
        flags = in_left[order]
        if _splittable(left_ids.size, depth + 1, params):
            left_block = features, order[flags].reshape(features.size, -1)
        if _splittable(right_ids.size, depth + 1, params):
            right_block = features, order[~flags].reshape(features.size, -1)
    left = _build_tree(Xt, residuals, out, left_ids, left_block, depth + 1, params)
    right = _build_tree(Xt, residuals, out, right_ids, right_block, depth + 1, params)
    return {"feature": feature, "threshold": threshold, "left": left, "right": right}


def fit_gbdt(X, y, params: GbdtParams = GbdtParams()) -> GbdtModel:
    """Boosted regression trees on residuals; training MSE never increases.

    Rows are reordered canonically (lexsort over feature columns, then the
    target) before fitting so the result is exactly independent of the
    input row order. Each column is sorted once per fit (the exact greedy
    method over presorted column blocks of Chen & Guestrin, KDD 2016), and
    residuals are updated from the leaf each row reached while building.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X rows must match y length")
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    if params.min_leaf >= n:
        raise ValueError(f"min_leaf {params.min_leaf} must be < sample count {n}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite (no NaN or infinity)")

    order = np.lexsort((y,) + tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1)))
    X = X[order]
    y = y[order]
    Xt = np.ascontiguousarray(X.T)
    ids = np.arange(n)
    root = None
    if _splittable(n, 0, params):
        root = np.arange(X.shape[1]), np.argsort(Xt, axis=1, kind="stable")

    base = float(y.mean())
    residuals = y - base
    trees = []
    prev_mse = float((residuals ** 2).mean())
    for _ in range(params.n_trees):
        outputs = np.empty(n)
        tree = _build_tree(Xt, residuals, outputs, ids, root, 0, params)
        residuals = residuals - params.learning_rate * outputs
        mse = float((residuals ** 2).mean())
        assert mse <= prev_mse + 1e-9, "training MSE increased during boosting"
        prev_mse = mse
        trees.append(tree)
    return GbdtModel(
        trees=tuple(trees),
        learning_rate=params.learning_rate,
        max_depth=params.max_depth,
        base_prediction=base,
        n_features=X.shape[1],
    )


def predict_gbdt(model: GbdtModel, x):
    """One row's prediction (a float), or each matrix row's (an array); rows go
    down each tree as index sets, adding leaf values in tree order from 0."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != model.n_features:
        raise ValueError(f"feature dimension {x.shape} != ({model.n_features},)")
    X = x.reshape(-1, model.n_features)
    total = np.zeros(len(X))
    for tree in model.trees:
        stack = [(tree, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if "value" in node:
                total[rows] += node["value"]
            else:
                left = X[rows, node["feature"]] <= node["threshold"]
                stack += [(node["left"], rows[left]), (node["right"], rows[~left])]
    out = model.base_prediction + model.learning_rate * total
    return float(out[0]) if x.ndim == 1 else out


_MODEL_KINDS = {"linear": LinearModel, "gbdt": GbdtModel}


def save_model(model: LinearModel | GbdtModel, path) -> None:
    """Persist a model as a self-describing JSON document: the format
    version, the kind and the dataclass fields, an array as a list."""
    kind = next(k for k, cls in _MODEL_KINDS.items() if isinstance(model, cls))
    doc = {"format_version": 1, "kind": kind, **vars(model)}
    atomic_write_text(path, json.dumps(doc, sort_keys=True, default=np.ndarray.tolist))


def load_model(path) -> LinearModel | GbdtModel:
    doc = json.loads(read_text(path))
    version = doc.pop("format_version", None)
    if version != 1:
        raise ValueError(f"unsupported model format: {version!r}")
    kind = doc.pop("kind")
    if kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")
    if kind == "linear":
        doc["weights"] = np.asarray(doc["weights"], dtype=float)
    else:
        doc["trees"] = tuple(doc["trees"])
    return _MODEL_KINDS[kind](**doc)
