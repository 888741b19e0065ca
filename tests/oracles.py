"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written on a different path from the code
under test: pure-python loops instead of numpy, the atan2 great-circle
formulation instead of asin, a hand-rolled canonical serializer, a direct
per-trip counting loop, a trip parser over dict rows, and a tree builder
that re-sorts every column at every node. Keep it that way; these are the
oracles.
"""

import csv
import json
import math
import re
from collections import defaultdict
from datetime import date, datetime, timedelta

import numpy as np

from mpe.baselines import GbdtModel, GbdtParams
from mpe.errors import SchemaError
from mpe.geo import GeoPoint
from mpe.trips import REQUIRED_COLUMNS, RejectionNote, TripRecord

EARTH_RADIUS_M = 6_371_000.0


def haversine_atan2(lat1, lon1, lat2, lon2):
    """Great-circle distance via the atan2 form of the haversine formula."""
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def destination_point(lat, lon, bearing, dist_m):
    """(lat, lon) reached from (lat, lon) along `bearing` (radians from north)
    after `dist_m` on the sphere, longitude wrapped into [-180, 180)."""
    p1 = math.radians(lat)
    d = dist_m / EARTH_RADIUS_M
    p2 = math.asin(math.sin(p1) * math.cos(d) + math.cos(p1) * math.sin(d) * math.cos(bearing))
    dl = math.atan2(
        math.sin(bearing) * math.sin(d) * math.cos(p1), math.cos(d) - math.sin(p1) * math.sin(p2)
    )
    return math.degrees(p2), (lon + math.degrees(dl) + 180.0) % 360.0 - 180.0


def brute_force_daily_counts(trips, center_lat, center_lon, radius_m, start, end):
    """Count in-radius pickups/dropoffs per day with a plain loop.

    ``trips`` is a sequence of (pickup_dt, dropoff_dt, plat, plon, dlat, dlon).
    Returns {date: [outflow, inflow]} densely over [start, end].
    """
    counts = {}
    d = start
    while d <= end:
        counts[d] = [0, 0]
        d += timedelta(days=1)
    for pickup_dt, dropoff_dt, plat, plon, dlat, dlon in trips:
        pd = pickup_dt.date()
        dd = dropoff_dt.date()
        if pd in counts and haversine_atan2(plat, plon, center_lat, center_lon) <= radius_m:
            counts[pd][0] += 1
        if dd in counts and haversine_atan2(dlat, dlon, center_lat, center_lon) <= radius_m:
            counts[dd][1] += 1
    return counts


def _reference_parse_timestamp(raw):
    ts = datetime.fromisoformat(raw.strip())
    if ts.tzinfo is not None:
        raise ValueError("timestamps must be naive venue-local")
    return ts


def reference_parse_trip_records(source):
    """The trip CSV parser over ``csv.DictReader`` rows, checking each row
    in turn and validating both ends through GeoPoint before building each
    TripRecord.

    ``mpe.trips.iter_trip_rows`` reads plain ``csv.reader`` rows by column
    index instead and must give the same records and rejects.
    """
    reader = csv.DictReader(source)
    header = reader.fieldnames
    if header is None:
        raise SchemaError("trip CSV has no header row")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"trip CSV header missing columns: {', '.join(missing)}")

    records = []
    rejects = []
    for i, row in enumerate(reader, start=1):
        try:
            pickup_time = _reference_parse_timestamp(row["pickup_datetime"] or "")
            dropoff_time = _reference_parse_timestamp(row["dropoff_datetime"] or "")
        except (ValueError, TypeError):
            rejects.append(RejectionNote(i, "bad timestamp"))
            continue
        try:
            plon = float(row["pickup_longitude"])
            plat = float(row["pickup_latitude"])
            dlon = float(row["dropoff_longitude"])
            dlat = float(row["dropoff_latitude"])
        except (ValueError, TypeError):
            rejects.append(RejectionNote(i, "bad coordinate"))
            continue
        if (plat, plon) == (0.0, 0.0) or (dlat, dlon) == (0.0, 0.0):
            rejects.append(RejectionNote(i, "null-island sentinel"))
            continue
        try:
            GeoPoint(plat, plon)
            GeoPoint(dlat, dlon)
        except ValueError:
            rejects.append(RejectionNote(i, "coordinate out of range"))
            continue
        if dropoff_time < pickup_time:
            rejects.append(RejectionNote(i, "dropoff before pickup"))
            continue
        if dropoff_time - pickup_time > timedelta(hours=12):
            rejects.append(RejectionNote(i, "trip longer than 12 hours"))
            continue
        records.append(TripRecord(pickup_time, dropoff_time, plat, plon, dlat, dlon))
    return records, rejects


def metrics_brute_force(y_true, y_pred):
    """RMSE/MAE/MAPE/R^2 with explicit loops; MAPE skips zero-true terms."""
    n = len(y_true)
    assert n == len(y_pred) and n > 0
    sse = 0.0
    sae = 0.0
    for t, p in zip(y_true, y_pred):
        sse += (t - p) ** 2
        sae += abs(t - p)
    rmse = math.sqrt(sse / n)
    mae = sae / n
    mape_terms = []
    for t, p in zip(y_true, y_pred):
        if t != 0:
            mape_terms.append(abs(t - p) / abs(t))
    mape = sum(mape_terms) / len(mape_terms) if mape_terms else None
    mean_t = sum(y_true) / n
    sst = sum((t - mean_t) ** 2 for t in y_true)
    if sst == 0:
        r2 = 1.0 if sse == 0 else None
    else:
        r2 = 1.0 - sse / sst
    return {"rmse": rmse, "mae": mae, "mape": mape, "r2": r2,
            "mape_excluded": n - len(mape_terms)}


def canonical_digest(model, temperature, messages, max_tokens):
    """Independent canonical serialization + SHA-256, built by hand.

    Messages are (role, content) pairs. Field order is fixed; max_tokens is
    omitted when absent; strings are JSON-escaped with ASCII-only output.
    """
    import hashlib

    def esc(s):
        return json.dumps(s, ensure_ascii=True)

    parts = ['{"model":' + esc(model), '"temperature":' + json.dumps(temperature)]
    msg_parts = []
    for role, content in messages:
        msg_parts.append('{"role":' + esc(role) + ',"content":' + esc(content) + "}")
    parts.append('"messages":[' + ",".join(msg_parts) + "]")
    if max_tokens is not None:
        parts.append('"max_tokens":' + json.dumps(max_tokens))
    blob = ",".join(parts) + "}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def ols_two_points(x0, y0, x1, y1):
    """Exact line through two points: (slope, intercept)."""
    slope = (y1 - y0) / (x1 - x0)
    return slope, y0 - slope * x0


def ridge_1d(xs, ys, lam):
    """Hand normal equations for one feature with unpenalized intercept."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    w = sxy / (sxx + lam)
    return w, my - w * mx


def best_stump_variance_gain(xs, ys):
    """Exhaustive depth-1 split by SSE over midpoint thresholds (1 feature)."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    xs = [xs[i] for i in order]
    ys = [ys[i] for i in order]
    best = None
    for i in range(len(xs) - 1):
        if xs[i] == xs[i + 1]:
            continue
        thr = (xs[i] + xs[i + 1]) / 2
        left = [y for x, y in zip(xs, ys) if x <= thr]
        right = [y for x, y in zip(xs, ys) if x > thr]
        lm = sum(left) / len(left)
        rm = sum(right) / len(right)
        sse = sum((y - lm) ** 2 for y in left) + sum((y - rm) ** 2 for y in right)
        if best is None or sse < best[0]:
            best = (sse, thr, lm, rm)
    return best


FORMATTED_REPLY_RE = re.compile(
    r"\[\s*category\s*\](?P<cat>.*?)\[\s*summary\s*\](?P<summ>.*)",
    re.IGNORECASE | re.DOTALL,
)


def parse_formatted_reply_regex(reply):
    """Single-regex reference parser for `[Category] ... [Summary] ...`."""
    m = FORMATTED_REPLY_RE.search(reply)
    if not m:
        return None
    cat = m.group("cat").strip()
    summ = m.group("summ").strip()
    if not cat or not summ:
        return None
    return cat, summ


def word_tokens(text):
    """Lowercase alphanumeric word tokens; the prompt-property tokenizer."""
    return set(re.findall(r"[a-z0-9']+", text.lower()))


def planted_effect_bounds(truth_rows):
    """Achievable event-day MAE with and without event knowledge, by brute force.

    ``truth_rows`` is the synthetic generator's ground truth: a list of
    (date, outflow, inflow, base_out, base_in, categories) where categories
    is a tuple of planted category names (empty on non-event days).

    Returns (mae_blind, mae_informed) over pooled out/in samples on event
    days of the second half: blind predicts the planted weekday base,
    informed adds the category-mean effect estimated from the first half.
    """
    half = len(truth_rows) // 2
    train, test = truth_rows[:half], truth_rows[half:]

    effect_sums = defaultdict(lambda: [0.0, 0.0, 0])
    for _, out, inn, bout, binn, cats in train:
        if len(cats) == 1:
            acc = effect_sums[cats[0]]
            acc[0] += out - bout
            acc[1] += inn - binn
            acc[2] += 1
    effects = {c: (s[0] / s[2], s[1] / s[2]) for c, s in effect_sums.items() if s[2] > 0}

    blind_err = []
    informed_err = []
    for _, out, inn, bout, binn, cats in test:
        if not cats:
            continue
        blind_err += [abs(out - bout), abs(inn - binn)]
        eo = sum(effects.get(c, (0.0, 0.0))[0] for c in cats)
        ei = sum(effects.get(c, (0.0, 0.0))[1] for c in cats)
        informed_err += [abs(out - (bout + eo)), abs(inn - (binn + ei))]
    mae_blind = sum(blind_err) / len(blind_err)
    mae_informed = sum(informed_err) / len(informed_err)
    return mae_blind, mae_informed


def _reference_best_split(X, residuals, indices, min_leaf):
    """Greedy variance-reduction split over midpoints between distinct values.

    Split SSE decomposes as sum(r^2) minus the "explained" term
    L^2/n_L + R^2/n_R, so maximizing the latter minimizes the former.
    Ties break toward the lowest feature index, then the lowest threshold.
    """
    n = indices.size
    res = residuals[indices]
    total = res.sum()
    no_split = total * total / n
    best = None  # (explained, feature, threshold)
    for feature in range(X.shape[1]):
        values = X[indices, feature]
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        csum = np.cumsum(res[order])
        # candidate boundaries between distinct consecutive values
        boundary = np.nonzero(sorted_vals[1:] != sorted_vals[:-1])[0] + 1
        positions = boundary[(boundary >= min_leaf) & (n - boundary >= min_leaf)]
        if positions.size == 0:
            continue
        left_sum = csum[positions - 1]
        right_sum = total - left_sum
        explained = left_sum**2 / positions + right_sum**2 / (n - positions)
        i = int(np.argmax(explained))  # first max: lowest threshold wins ties
        gain_over = best[0] if best is not None else no_split
        if explained[i] > gain_over + 1e-12:
            a = float(sorted_vals[positions[i] - 1])
            b = float(sorted_vals[positions[i]])
            threshold = (a + b) / 2.0
            if not a <= threshold < b:  # overflowed, or rounded up to b
                threshold = a
            best = (float(explained[i]), feature, threshold)
    return best


def _reference_build_tree(X, residuals, indices, depth, params):
    n = indices.size
    mean = float(residuals[indices].mean())
    if depth >= params.max_depth or n < 2 * params.min_leaf:
        return {"value": mean}
    split = _reference_best_split(X, residuals, indices, params.min_leaf)
    if split is None:
        return {"value": mean}
    _, feature, threshold = split
    mask = X[indices, feature] <= threshold
    left = _reference_build_tree(X, residuals, indices[mask], depth + 1, params)
    right = _reference_build_tree(X, residuals, indices[~mask], depth + 1, params)
    return {"feature": feature, "threshold": float(threshold), "left": left, "right": right}


def _reference_tree_value(node, row):
    while "value" not in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


def reference_fit_gbdt(X, y, params=GbdtParams()):
    """Boosting with a per-node re-sort and per-row residual updates.

    The straightforward builder that ``mpe.baselines.fit_gbdt`` must match
    tree for tree: same canonical row order, split rule and tie breaks.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    order = np.lexsort((y,) + tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1)))
    X = X[order]
    y = y[order]

    base = float(y.mean())
    residuals = y - base
    trees = []
    indices = np.arange(n)
    for _ in range(params.n_trees):
        tree = _reference_build_tree(X, residuals, indices, 0, params)
        outputs = np.array([_reference_tree_value(tree, row) for row in X])
        residuals = residuals - params.learning_rate * outputs
        trees.append(tree)
    return GbdtModel(
        trees=tuple(trees),
        learning_rate=params.learning_rate,
        max_depth=params.max_depth,
        base_prediction=base,
        n_features=X.shape[1],
    )
