"""Featurizer, ridge/OLS, and the from-scratch boosted trees."""

import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from datetime import date, time
from types import SimpleNamespace

import numpy as np
import pytest

from mpe.baselines import (
    FeaturizerConfig,
    GbdtParams,
    LinearModel,
    SingularSystemError,
    featurize_day,
    fit_gbdt,
    fit_linear,
    hashed_text_vector,
    load_model,
    predict_gbdt,
    predict_linear,
    save_model,
)
from mpe.events import DayEvents, EventRecord
from mpe.pipeline import _fit_gbdts
from mpe.prompts import AblationConfig, DemandFeatures, EventFeatures

from oracles import (
    best_stump_variance_gain,
    ols_two_points,
    reference_fit_gbdt,
    ridge_1d,
)
from prompt_fixtures import TARGET_DATE, build_snapshot_window


# --- hashed text ---------------------------------------------------------------


def test_hashed_text_empty_is_zero():
    assert not hashed_text_vector("", 8).any()
    assert not hashed_text_vector("a b c", 8).any()  # all tokens shorter than 2


def test_hashed_text_single_token_mass():
    vec = hashed_text_vector("rock rock rock", 8)
    assert vec.sum() == pytest.approx(1.0)
    assert (vec > 0).sum() == 1
    assert vec.max() == pytest.approx(1.0)


def test_hashed_text_l1_normalized():
    vec = hashed_text_vector("alpha beta gamma delta alpha", 16)
    assert vec.sum() == pytest.approx(1.0)


def test_hashed_text_stable_across_processes():
    sentence = "International superstar Aurora Vale brings her arena tour"
    local = hashed_text_vector(sentence, 32).tolist()
    script = (
        "import json\n"
        "from mpe.baselines import hashed_text_vector\n"
        f"print(json.dumps(hashed_text_vector({sentence!r}, 32).tolist()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == local


# --- featurizer ------------------------------------------------------------------


def _target_events(n_events: int) -> DayEvents:
    events = []
    if n_events >= 1:
        events.append(EventRecord(
            "Aurora Vale Live in Concert", "Arena pop tour.",
            TARGET_DATE, time(19, 30), time(22, 30),
        ))
    if n_events >= 2:
        events.append(EventRecord(
            "Hawks vs. Comets", None, TARGET_DATE, time(13, 0), time(16, 0)
        ))
    return DayEvents(TARGET_DATE, tuple(events))


def _featurize(level: EventFeatures, demand=DemandFeatures.R_I, n_events=1, **kwargs):
    ablation = AblationConfig(level, demand)
    window = build_snapshot_window(AblationConfig(EventFeatures.C_T_H, demand))
    config = FeaturizerConfig(lag_days=28, time_bins=24, text_dim=32, ablation=ablation)
    return featurize_day(window, _target_events(n_events), config, **kwargs)


def test_feature_dimensions_change_per_ablation():
    base = 2 * 28 + 7
    assert _featurize(EventFeatures.NA).size == base
    assert _featurize(EventFeatures.C).size == base + 1
    assert _featurize(EventFeatures.C_T).size == base + 1 + 24
    assert _featurize(EventFeatures.C_T_H).size == base + 1 + 24 + 32
    with pytest.raises(ValueError, match="c_t_h_prime"):
        _featurize(EventFeatures.C_T_H_PRIME)


def test_event_count_and_time_bins():
    vec = _featurize(EventFeatures.C_T, n_events=1)
    base = 2 * 28 + 7
    assert vec[base] == 1.0  # event count
    bins = vec[base + 1: base + 25]
    assert bins[19] == 1.0 and bins[22] == 1.0  # 19:30-22:30 covers bins 19..22
    assert bins[18] == 0.0 and bins[23] == 0.0
    assert bins.sum() == 4.0


def test_no_events_zero_blocks():
    vec = _featurize(EventFeatures.C_T, n_events=0)
    base = 2 * 28 + 7
    assert vec[base] == 0.0
    assert not vec[base + 1:].any()


def test_lag_block_uses_deviations_under_r_i_and_raw_under_o():
    window = build_snapshot_window(AblationConfig())
    config_ri = FeaturizerConfig(ablation=AblationConfig(EventFeatures.NA, DemandFeatures.R_I))
    config_o = FeaturizerConfig(ablation=AblationConfig(EventFeatures.NA, DemandFeatures.O))
    ri = featurize_day(window, _target_events(0), config_ri)
    raw = featurize_day(window, _target_events(0), config_o)
    first_day = window.days[0].decomposition
    assert ri[0] == first_day.deviation.outflow
    assert ri[1] == first_day.deviation.inflow
    assert raw[0] == first_day.actual.outflow
    assert raw[1] == first_day.actual.inflow


def test_weekday_one_hot():
    vec = _featurize(EventFeatures.NA)
    weekday_block = vec[2 * 28: 2 * 28 + 7]
    assert weekday_block.sum() == 1.0
    assert weekday_block[TARGET_DATE.weekday()] == 1.0


def test_featurize_validations():
    window = build_snapshot_window(AblationConfig())
    with pytest.raises(ValueError):
        featurize_day(window, _target_events(1), FeaturizerConfig(lag_days=14))
    with pytest.raises(ValueError):
        featurize_day(
            window,
            DayEvents(TARGET_DATE + np.timedelta64(1, "D").astype(object), ()),
            FeaturizerConfig(lag_days=28),
        )
    with pytest.raises(ValueError):
        _featurize(EventFeatures.C_T_H_PRIME)  # no classical h' features


# --- linear models ----------------------------------------------------------------


def test_exact_line_through_origin():
    model = fit_linear([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], ridge_lambda=0.0)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(0.0, abs=1e-9)


def test_two_point_line():
    model = fit_linear([[0.0], [1.0]], [1.0, 3.0], ridge_lambda=0.0)
    slope, intercept = ols_two_points(0.0, 1.0, 1.0, 3.0)
    assert model.weights[0] == pytest.approx(slope, abs=1e-9)
    assert model.intercept == pytest.approx(intercept, abs=1e-9)


def test_huge_ridge_shrinks_to_mean():
    model = fit_linear([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], ridge_lambda=1e9)
    assert abs(model.weights[0]) < 1e-6
    assert model.intercept == pytest.approx(4.0, abs=1e-3)


def test_ridge_matches_hand_normal_equations():
    xs = [0.0, 1.0, 2.0, 3.0, 5.0]
    ys = [1.0, 2.2, 2.9, 4.3, 5.8]
    for lam in (0.0, 0.5, 3.0):
        model = fit_linear([[x] for x in xs], ys, ridge_lambda=lam)
        w, b = ridge_1d(xs, ys, lam)
        assert model.weights[0] == pytest.approx(w, abs=1e-9)
        assert model.intercept == pytest.approx(b, abs=1e-9)


def test_singular_ols_advises_ridge():
    X = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]  # duplicated column
    with pytest.raises(SingularSystemError):
        fit_linear(X, [1.0, 2.0, 3.0], ridge_lambda=0.0)
    fit_linear(X, [1.0, 2.0, 3.0], ridge_lambda=0.1)  # ridge fixes it


def test_predict_linear():
    model = LinearModel(weights=np.array([2.0]), intercept=0.0, ridge_lambda=0.0)
    assert predict_linear(model, [3.0]) == 6.0
    assert predict_linear(
        LinearModel(np.array([1.0, 1.0]), 5.0, 0.0), np.zeros(2)
    ) == 5.0
    with pytest.raises(ValueError):
        predict_linear(model, [1.0, 2.0])


def test_linear_residuals_match_independent_solver():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    y = X @ np.array([1.5, -2.0, 0.5, 3.0]) + 0.7 + rng.normal(0, 0.1, 60)
    model = fit_linear(X, y, ridge_lambda=0.0)
    ours = np.array([predict_linear(model, row) for row in X])
    augmented = np.hstack([X, np.ones((60, 1))])
    theta, *_ = np.linalg.lstsq(augmented, y, rcond=None)
    independent = augmented @ theta
    assert np.allclose(ours, independent, atol=1e-6)


def test_permuting_rows_leaves_linear_fit_unchanged():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    model = fit_linear(X, y, ridge_lambda=0.3)
    perm = rng.permutation(40)
    permuted = fit_linear(X[perm], y[perm], ridge_lambda=0.3)
    assert np.allclose(model.weights, permuted.weights, atol=1e-9)
    assert model.intercept == pytest.approx(permuted.intercept, abs=1e-9)


# --- gradient-boosted trees ---------------------------------------------------------


def test_empty_ensemble_predicts_mean():
    model = fit_gbdt([[0.0], [1.0]], [3.0, 5.0], GbdtParams(n_trees=0, min_leaf=1))
    assert model.base_prediction == 4.0
    assert predict_gbdt(model, [0.5]) == 4.0


def test_step_data_stump_splits_at_midpoint():
    X = [[-2.0], [-1.0], [1.0], [2.0]]
    y = [0.0, 0.0, 10.0, 10.0]
    model = fit_gbdt(X, y, GbdtParams(n_trees=1, max_depth=1, learning_rate=1.0, min_leaf=1))
    (tree,) = model.trees
    oracle = best_stump_variance_gain([x[0] for x in X], [v - 5.0 for v in y])
    assert tree["threshold"] == oracle[1] == 0.0
    assert predict_gbdt(model, [5.0]) == pytest.approx(10.0)
    assert predict_gbdt(model, [-5.0]) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "column, left_max",
    [
        ([1.0e308, 1.2e308, 1.6e308, 1.7e308], 1.2e308),  # a + b overflows to inf
        ([-1.7e308, -1.6e308, -1.2e308, -1.0e308], -1.6e308),  # ... to -inf
        # adjacent doubles, odd mantissa below: (a + b) / 2 rounds up to b
        ([1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0), 2.0],
         float(np.nextafter(1.0, 2.0))),
    ],
    ids=["overflow", "negative_overflow", "adjacent_floats"],
)
def test_stump_threshold_separates_extreme_values(column, left_max):
    X = [[v] for v in column]
    y = [0.0, 0.0, 1.0, 1.0]
    params = GbdtParams(n_trees=1, max_depth=1, learning_rate=1.0, min_leaf=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_gbdt(X, y, params)
        reference = reference_fit_gbdt(X, y, params)
    (tree,) = model.trees
    assert tree["threshold"] == left_max
    assert (tree["left"]["value"], tree["right"]["value"]) == (-0.5, 0.5)
    assert tree == reference.trees[0]


def test_stump_matches_oracle_on_random_data():
    rng = np.random.default_rng(17)
    for _ in range(20):
        X = rng.normal(size=(30, 1))
        y = rng.normal(size=30)
        model = fit_gbdt(X, y, GbdtParams(n_trees=1, max_depth=1, learning_rate=1.0, min_leaf=1))
        (tree,) = model.trees
        oracle = best_stump_variance_gain(X[:, 0].tolist(), (y - y.mean()).tolist())
        assert tree["threshold"] == pytest.approx(oracle[1], abs=1e-12)


def _nonlinear_fixture(n=200, seed=23):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 5))
    y = (
        np.sin(3 * X[:, 0])
        + X[:, 1] * X[:, 2]
        + 0.5 * X[:, 3] ** 2
        + rng.normal(0, 0.05, n)
    )
    return X, y


def test_training_r2_above_090_on_nonlinear_fixture():
    X, y = _nonlinear_fixture()
    model = fit_gbdt(X, y)  # defaults: 200 trees, depth 3, lr 0.05, min_leaf 5
    preds = np.array([predict_gbdt(model, row) for row in X])
    sse = float(((y - preds) ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    assert 1 - sse / sst > 0.9


def test_training_mse_never_increases():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(20, 60))
        X = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        # the fit itself asserts per-round monotonicity
        fit_gbdt(X, y, GbdtParams(n_trees=30, max_depth=2, learning_rate=0.3, min_leaf=2))


def test_min_leaf_respected_and_validated():
    X = [[float(i)] for i in range(6)]
    y = [0.0, 0.0, 0.0, 10.0, 10.0, 10.0]
    with pytest.raises(ValueError):
        fit_gbdt(X, y, GbdtParams(min_leaf=6))
    model = fit_gbdt(X, y, GbdtParams(n_trees=1, max_depth=3, learning_rate=1.0, min_leaf=3))

    def leaves(node, acc):
        if "value" in node:
            acc.append(node)
        else:
            leaves(node["left"], acc)
            leaves(node["right"], acc)
        return acc

    assert len(leaves(model.trees[0], [])) <= 2  # min_leaf 3 of 6 allows one split


def test_gbdt_needs_two_samples():
    with pytest.raises(ValueError):
        fit_gbdt([[1.0]], [1.0], GbdtParams(min_leaf=1))


def test_deep_trees_approach_training_targets():
    X = [[float(i)] for i in range(16)]
    y = [float(i % 4) for i in range(16)]
    model = fit_gbdt(X, y, GbdtParams(n_trees=300, max_depth=4, learning_rate=0.1, min_leaf=1))
    preds = [predict_gbdt(model, row) for row in X]
    assert np.allclose(preds, y, atol=0.05)


def test_permuting_rows_leaves_gbdt_unchanged_exactly():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    params = GbdtParams(n_trees=20, max_depth=3, learning_rate=0.2, min_leaf=3)
    model = fit_gbdt(X, y, params)
    perm = rng.permutation(50)
    permuted = fit_gbdt(X[perm], y[perm], params)
    probe = rng.normal(size=(25, 4))
    for row in probe:
        assert predict_gbdt(model, row) == predict_gbdt(permuted, row)


def test_max_depth_respected():
    X, y = _nonlinear_fixture(n=100)
    model = fit_gbdt(X, y, GbdtParams(n_trees=10, max_depth=2, learning_rate=0.5, min_leaf=2))

    def depth(node):
        if "value" in node:
            return 0
        return 1 + max(depth(node["left"]), depth(node["right"]))

    assert all(depth(tree) <= 2 for tree in model.trees)


def test_predict_gbdt_dimension_check():
    model = fit_gbdt([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0], GbdtParams(n_trees=1, min_leaf=1))
    with pytest.raises(ValueError):
        predict_gbdt(model, [1.0, 2.0])


def test_matrix_predict_gbdt_equals_per_row_calls_bit_for_bit():
    X, y = _nonlinear_fixture(n=150, seed=5)
    model = fit_gbdt(X, y, GbdtParams(n_trees=25, max_depth=4, learning_rate=0.2, min_leaf=3))
    probe = np.vstack([X[:40], np.random.default_rng(8).uniform(-3, 3, size=(40, 5))])
    matrix = predict_gbdt(model, probe)
    assert isinstance(matrix, np.ndarray) and matrix.shape == (80,)
    per_row = [predict_gbdt(model, row) for row in probe]
    assert all(isinstance(p, float) for p in per_row)
    assert matrix.tobytes() == np.array(per_row).tobytes()

    def walk(row):  # one row down each tree, summing its leaves in order
        total = 0
        for node in model.trees:
            while "value" not in node:
                go_left = row[node["feature"]] <= node["threshold"]
                node = node["left"] if go_left else node["right"]
            total += node["value"]
        return float(model.base_prediction + model.learning_rate * total)

    assert per_row == [walk(row) for row in probe]
    assert predict_gbdt(model, probe[:0]).shape == (0,)
    with pytest.raises(ValueError):
        predict_gbdt(model, probe[:, :4])
    with pytest.raises(ValueError):
        predict_gbdt(model, probe[None])


def test_model_persistence_round_trip(tmp_path):
    X, y = _nonlinear_fixture(n=60)
    gbdt = fit_gbdt(X, y, GbdtParams(n_trees=5, max_depth=2, learning_rate=0.3, min_leaf=2))
    save_model(gbdt, tmp_path / "gbdt.json")
    loaded = load_model(tmp_path / "gbdt.json")
    assert loaded == gbdt
    probe = X[:10]
    for row in probe:
        assert predict_gbdt(loaded, row) == predict_gbdt(gbdt, row)

    linear = fit_linear(X, y, ridge_lambda=0.5)
    save_model(linear, tmp_path / "linear.json")
    loaded_linear = load_model(tmp_path / "linear.json")
    for row in probe:
        assert predict_linear(loaded_linear, row) == predict_linear(linear, row)


@pytest.mark.parametrize("kind", ["linear", "gbdt"])
def test_reloaded_model_saves_the_same_bytes(tmp_path, kind):
    X, y = _nonlinear_fixture(n=60)
    if kind == "linear":
        model = fit_linear(X, y, ridge_lambda=0.5)
    else:
        model = fit_gbdt(X, y, GbdtParams(n_trees=5, max_depth=2, min_leaf=2))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert second.read_bytes() == first.read_bytes()
    doc = json.loads(first.read_bytes())
    assert (doc["format_version"], doc["kind"]) == (1, kind)


def test_load_model_rejects_unknown_version_or_kind(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 2, "kind": "linear"}))
    with pytest.raises(ValueError, match="unsupported model format: 2"):
        load_model(path)
    path.write_text(json.dumps({"format_version": 1, "kind": "forest"}))
    with pytest.raises(ValueError, match="unknown model kind: 'forest'"):
        load_model(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gbdt_rejects_non_finite_features(bad):
    X = [[0.0], [1.0], [bad], [3.0]]
    with pytest.raises(ValueError, match="finite"):
        fit_gbdt(X, [0.0, 1.0, 2.0, 3.0], GbdtParams(n_trees=1, min_leaf=1))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_gbdt_rejects_non_finite_targets(bad):
    X = [[0.0], [1.0], [2.0], [3.0]]
    with pytest.raises(ValueError, match="finite"):
        fit_gbdt(X, [0.0, bad, 2.0, 3.0], GbdtParams(n_trees=1, min_leaf=1))


# --- presorted builder against the re-sorting reference -----------------------------


def pipeline_shaped_matrix(n=333, seed=2021):
    """Training rows shaped like the evaluate stage's 333 x 120 matrix.

    56 lag columns slide a 28-day window over one out/in deviation series
    (so columns are shifted copies of each other, deviations in thirds),
    then a weekday one-hot, an event count, a 24-bin time-of-day occupancy
    and a 32-dim hashed-text block that is zero on event-free days.
    """
    rng = np.random.default_rng(seed)
    lag_days = 28
    days = (n + lag_days, 2)
    series = np.round(rng.normal(0, 30, size=days)) + rng.integers(0, 3, size=days) / 3
    lags = np.stack([series[i:i + lag_days].ravel() for i in range(n)])
    weekday = np.eye(7)[np.arange(n) % 7]
    counts = rng.choice([0, 1, 2], size=n, p=[0.66, 0.3, 0.04])
    bins = np.zeros((n, 24))
    text = np.zeros((n, 32))
    for row, count in enumerate(counts):
        for _ in range(count):
            start = int(rng.choice([13, 19, 20]))
            bins[row, start:start + 4] += 1.0
            slots = rng.integers(0, 32, size=int(rng.integers(2, 6)))
            np.add.at(text[row], slots, 1.0)
        if count:
            text[row] /= text[row].sum()
    X = np.hstack([lags, weekday, counts[:, None].astype(float), bins, text])
    y = np.round(300 + series[lag_days:, 0] + 60 * counts + 5 * bins[:, 19] + rng.normal(0, 8, n))
    return X, y


def _criterion7_cases():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(12, 50))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        y = rng.normal(size=n)
        yield X, y, GbdtParams(
            n_trees=25, max_depth=2,
            learning_rate=float(rng.choice([0.05, 0.3, 1.0])), min_leaf=2,
        )


def _tie_heavy_cases():
    rng = np.random.default_rng(29)
    for i in range(30):
        n = int(rng.integers(8, 60))
        X = rng.integers(0, 3, size=(n, int(rng.integers(1, 6)))).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        yield X, y, GbdtParams(
            n_trees=15, max_depth=1 + i % 4, learning_rate=0.3, min_leaf=1 + (i // 4) % 4,
        )


def _pipeline_shaped_cases():
    X, y = pipeline_shaped_matrix()
    yield X, y, GbdtParams()


def _edge_only_cases():
    """Columns whose distinct values lie only within min_leaf - 1 rows of
    either end, so no boundary has min_leaf rows on both sides."""
    rng = np.random.default_rng(43)
    for _ in range(20):
        n, min_leaf = int(rng.integers(16, 40)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, 5))
        for j in (0, 2, 4):
            rows = rng.permutation(n)[:2 * (min_leaf - 1)]
            X[:, j] = 0.0
            X[rows[:min_leaf - 1], j] = 10.0 + rng.random(min_leaf - 1)
            X[rows[min_leaf - 1:], j] = -10.0 - rng.random(min_leaf - 1)
        yield X, rng.normal(size=n), GbdtParams(
            n_trees=10, max_depth=3, learning_rate=0.3, min_leaf=min_leaf,
        )


def _constant_in_one_child_cases():
    """Column 0 splits the root; column 1 is constant on its left side only,
    column 2 on its right side only."""
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(20, 60))
        side = rng.permutation(np.arange(n) % 2).astype(float)
        left = side == 0
        X = np.column_stack([
            side,
            np.where(left, 3.0, rng.integers(0, 4, size=n)),
            np.where(left, rng.integers(0, 4, size=n), -1.0),
            rng.normal(size=n),
        ])
        y = 50.0 * side + X[:, 1] + X[:, 2] + rng.normal(size=n)
        yield X, y, GbdtParams(n_trees=10, max_depth=3, learning_rate=0.5, min_leaf=2)


def _all_constant_cases():
    yield np.full((12, 3), 2.5), np.arange(12.0), GbdtParams(n_trees=3, min_leaf=2)


def _min_leaf_one_cases():
    """Constant columns beside columns whose only boundary is one row from
    the low end (column 2) or from the high end (column 3)."""
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        X = np.zeros((n, 5))
        X[:, 1] = 7.0
        X[int(rng.integers(n)), 2] = -1.0
        X[int(rng.integers(n)), 3] = 1.0
        X[:, 4] = rng.integers(0, 3, size=n)
        yield X, rng.normal(size=n), GbdtParams(
            n_trees=8, max_depth=3, learning_rate=1.0, min_leaf=1,
        )


@pytest.mark.parametrize("cases", [
    _criterion7_cases, _tie_heavy_cases, _pipeline_shaped_cases, _edge_only_cases,
    _constant_in_one_child_cases, _all_constant_cases, _min_leaf_one_cases,
], ids=[
    "criterion7_random", "tie_heavy", "pipeline_shaped", "edge_only",
    "constant_in_one_child", "all_constant", "min_leaf_one",
])
def test_presorted_trees_match_reference_builder(cases):
    for i, (X, y, params) in enumerate(cases()):
        model = fit_gbdt(X, y, params)
        reference = reference_fit_gbdt(X, y, params)
        assert model.base_prediction == reference.base_prediction, f"case {i}"
        assert model.trees == reference.trees, f"case {i}"


# --- GBDT fits on worker processes ------------------------------------------------


POOL_PARAMS = GbdtParams(n_trees=15, max_depth=3, learning_rate=0.3, min_leaf=3)


def _pool_inputs():
    rng = np.random.default_rng(59)
    X = np.round(rng.normal(size=(90, 6)), 1)
    return X, (X[:, 0] * 3 + rng.normal(size=90), np.abs(X[:, 1]) + rng.normal(size=90))


def _fit_config(concurrency: int) -> SimpleNamespace:
    return SimpleNamespace(concurrency=concurrency, gbdt=POOL_PARAMS)


def test_worker_fits_equal_series_fits_and_the_reference(pools):
    X, targets = _pool_inputs()
    on_workers = _fit_gbdts(_fit_config(2), X, targets)
    assert len(pools) == 1
    in_series = _fit_gbdts(_fit_config(1), X, targets)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    for worker, series, y in zip(on_workers, in_series, targets):
        reference = reference_fit_gbdt(X, y, POOL_PARAMS)
        assert worker == series
        assert worker.trees == reference.trees
        assert worker.base_prediction == reference.base_prediction


FORK_AFTER_SOLVE = """
import json, os, sys
from types import SimpleNamespace
import numpy as np
from mpe.baselines import GbdtParams
from mpe.pipeline import _fit_gbdts
os.sched_getaffinity = lambda pid: {0, 1}  # fork on any host
a = np.random.default_rng(61).normal(size=(200, 200))
np.linalg.solve(a @ a.T + 200 * np.eye(200), np.ones(200))  # wakes the BLAS threads
data = json.load(sys.stdin)
params = GbdtParams(**data["params"])
models = _fit_gbdts(
    SimpleNamespace(concurrency=2, gbdt=params), np.array(data["X"]),
    [np.array(y) for y in data["targets"]],
)
assert "concurrent.futures.process" in sys.modules
print(json.dumps([model.trees for model in models]))
"""


def test_workers_forked_after_a_blas_solve_finish_and_fit_equal_trees():
    X, targets = _pool_inputs()
    data = {
        "X": X.tolist(), "targets": [y.tolist() for y in targets],
        "params": vars(POOL_PARAMS),
    }
    out = subprocess.run(
        [sys.executable, "-c", FORK_AFTER_SOLVE], input=json.dumps(data),
        capture_output=True, text=True, check=True, timeout=120,
    )
    local = [list(fit_gbdt(X, y, POOL_PARAMS).trees) for y in targets]
    assert json.loads(out.stdout) == json.loads(json.dumps(local))


@pytest.mark.parametrize("case", ["concurrency_1", "second_thread", "one_cpu", "one_fit"])
def test_fits_run_in_series_without_two_workers_or_with_a_live_thread(monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was made")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if case == "one_cpu" else {0, 1})
    X, targets = _pool_inputs()
    targets = targets[:1] if case == "one_fit" else targets
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "second_thread":
        thread.start()
    try:
        models = _fit_gbdts(_fit_config(1 if case == "concurrency_1" else 2), X, targets)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert models == tuple(fit_gbdt(X, y, POOL_PARAMS) for y in targets)


def test_a_fit_failing_on_a_worker_raises_its_type_and_leaves_no_worker(pools):
    X, (y, _) = _pool_inputs()
    bad = y.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _fit_gbdts(_fit_config(2), X, (y, bad))
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


# --- layer micro-benchmark ----------------------------------------------------------


def pytest_generate_tests(metafunc):
    """Time the reference builder only under --benchmark-only (about 5 s)."""
    if "gbdt_fit" in metafunc.fixturenames:
        fits = [fit_gbdt]
        if metafunc.config.getoption("benchmark_only", False):
            fits.append(reference_fit_gbdt)
        metafunc.parametrize("gbdt_fit", fits, ids=lambda fit: fit.__name__)


def test_gbdt_fit_benchmark(benchmark, gbdt_fit):
    X, y = pipeline_shaped_matrix()
    benchmark.group = "gbdt fit, 333 x 120 pipeline-shaped"
    model = benchmark.pedantic(gbdt_fit, args=(X, y, GbdtParams()), rounds=3, iterations=1)
    assert model.n_trees == 200
