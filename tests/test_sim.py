"""Tests for the synthetic benchmark generator and recovery-error counts."""

import csv
import io
import math

import numpy as np
import pytest

from sgl.model import build_problem, load_problem_csv
from sgl.sim import (
    SimConfig,
    SimDataset,
    coef_misclassification,
    generate,
    group_misclassification,
    write_dataset,
)


# ----------------------------------------------------------------- SimConfig

def test_default_config_dimensions():
    config = SimConfig()
    assert config.n == 200
    assert config.blocks == (10,) * 10
    assert config.p == 100
    assert config.nonzero_counts == (10, 8, 6, 4, 2, 0, 0, 0, 0, 0)


def test_counts_padded_with_zeros():
    config = SimConfig(blocks=(3, 3, 3), nonzero_counts=(2,))
    assert config.nonzero_counts == (2, 0, 0)


def test_six_block_counts_accepted():
    config = SimConfig(nonzero_counts=(10, 8, 6, 4, 2, 1))
    assert config.nonzero_counts == (10, 8, 6, 4, 2, 1, 0, 0, 0, 0)
    assert sum(np.asarray(generate(config).beta_true) != 0.0) == 31


@pytest.mark.parametrize(
    "kwargs",
    [
        {"blocks": ()},
        {"blocks": (5, 0)},
        {"blocks": (5, -1)},
        {"n": 0},
        {"rho": 1.0},
        {"rho": -0.1},
        {"noise_sd": -1.0},
        {"noise_sd": float("nan")},
        {"coef_magnitude": float("inf")},
        {"blocks": (3, 3), "nonzero_counts": (1, 1, 1)},
        {"blocks": (3, 3), "nonzero_counts": (4,)},
    ],
)
def test_config_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_config_takes_integers_only():
    # a cast used to make n=30.7, seed=2.9, blocks=(5.9, 5) into 30, 2 and
    # (5, 5) without a word
    for field, bad in (("n", 30.7), ("seed", 2.9), ("seed", None), ("blocks", (5.9, 5)),
                       ("nonzero_counts", (2.0, 1)), ("n", "30")):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: bad})
    config = SimConfig(n=np.int64(30), seed=np.int32(2), blocks=(np.int64(5), 5),
                       nonzero_counts=(np.int64(2), 1))
    assert (config.n, config.seed, config.blocks, config.nonzero_counts) == (30, 2, (5, 5), (2, 1))
    assert all(type(v) is int for v in (config.n, config.seed, *config.blocks))


# ------------------------------------------------------------------ generate

def test_generate_shapes_and_support():
    data = generate(SimConfig(seed=3))
    assert data.X.shape == (200, 100)
    assert data.y.shape == (200,)
    assert data.beta_true.shape == (100,)
    # active entries sit at the front of each block, unit magnitude
    expected_active = np.zeros(100, dtype=bool)
    for start, count in zip(range(0, 100, 10), (10, 8, 6, 4, 2)):
        expected_active[start : start + count] = True
    assert np.array_equal(data.beta_true != 0.0, expected_active)
    assert np.all(np.abs(data.beta_true[expected_active]) == 1.0)
    assert int(expected_active.sum()) == 30


def test_generate_is_deterministic_per_seed():
    a = generate(SimConfig(seed=11))
    b = generate(SimConfig(seed=11))
    c = generate(SimConfig(seed=12))
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.beta_true, b.beta_true)
    assert not np.array_equal(a.X, c.X)
    assert not np.array_equal(a.y, c.y)


def test_generate_magnitude_scales_support():
    data = generate(SimConfig(seed=5, coef_magnitude=2.5))
    active = data.beta_true != 0.0
    assert np.all(np.abs(data.beta_true[active]) == 2.5)


def test_generate_noiseless_response_is_exact_linear_combination():
    data = generate(SimConfig(seed=7, noise_sd=0.0))
    assert np.array_equal(data.y, data.X @ data.beta_true)


def test_arrays_are_read_only():
    data = generate(SimConfig(seed=9))
    for arr in (data.X, data.y, data.beta_true):
        with pytest.raises((ValueError, RuntimeError)):
            arr[0] = 0.0


def _pair_correlations(X, blocks):
    """Empirical column correlations split into within-block and cross-block."""
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    corr = (Z.T @ Z) / X.shape[0]
    p = X.shape[1]
    same = np.zeros((p, p), dtype=bool)
    start = 0
    for size in blocks:
        same[start : start + size, start : start + size] = True
        start += size
    upper = np.triu(np.ones((p, p), dtype=bool), k=1)
    return corr[same & upper], corr[~same & upper]


def test_zero_rho_leaves_columns_uncorrelated():
    config = SimConfig(rho=0.0, seed=2)
    data = generate(config)
    within, _ = _pair_correlations(np.asarray(data.X), config.blocks)
    bound = 3.0 / math.sqrt(config.n)
    assert np.abs(within).mean() <= bound
    assert np.abs(within).max() <= 4.0 / math.sqrt(config.n)


def test_large_sample_correlations_match_target():
    config = SimConfig(n=20000, rho=0.2, seed=0)
    data = generate(config)
    within, across = _pair_correlations(np.asarray(data.X), config.blocks)
    assert within.min() >= 0.17 and within.max() <= 0.23
    assert across.min() >= -0.03 and across.max() <= 0.03


# ---------------------------------------------------- misclassification counts

def test_group_misclassification_all_zero_estimate():
    data = generate(SimConfig(seed=1))
    sizes = data.config.blocks
    est = np.zeros(100)
    assert group_misclassification(data.beta_true, est, sizes) == 5
    assert coef_misclassification(data.beta_true, est) == 30


def test_group_misclassification_dense_estimate():
    data = generate(SimConfig(seed=1))
    sizes = data.config.blocks
    est = np.ones(100)
    assert group_misclassification(data.beta_true, est, sizes) == 5
    assert coef_misclassification(data.beta_true, est) == 70


def test_misclassification_zero_when_supports_match():
    data = generate(SimConfig(seed=4))
    est = np.where(data.beta_true != 0.0, 0.125, 0.0)
    assert group_misclassification(data.beta_true, est, data.config.blocks) == 0
    assert coef_misclassification(data.beta_true, est) == 0


def test_misclassification_bounds():
    rng = np.random.default_rng(8)
    data = generate(SimConfig(seed=8))
    sizes = data.config.blocks
    for _ in range(5):
        est = rng.standard_normal(100) * (rng.random(100) < 0.5)
        assert 0 <= group_misclassification(data.beta_true, est, sizes) <= len(sizes)
        assert 0 <= coef_misclassification(data.beta_true, est) <= 100


def test_misclassification_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        coef_misclassification(np.zeros(5), np.zeros(6))
    with pytest.raises(ValueError):
        group_misclassification(np.zeros(5), np.zeros(5), [2, 2])
    with pytest.raises(ValueError):
        group_misclassification(np.zeros(4), np.zeros(4), [4, 0])


# -------------------------------------------------------------- write_dataset

def _csv_writer_data_file(data: SimDataset) -> bytes:
    """data.csv as csv.writer writes it, every number its float's repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["y"] + [f"x{i + 1:03d}" for i in range(data.config.p)])
    for y_i, row in zip(data.y, data.X):
        writer.writerow([repr(float(y_i))] + [repr(float(v)) for v in row])
    return buf.getvalue().encode()


def test_write_dataset_round_trips_through_loader(tmp_path):
    data = generate(SimConfig(seed=6))
    # subnormal, near-overflow, ordinary and near-underflow columns, a
    # response near 1e299 and a few values that need all 17 digits
    scale = np.tile([1e-310, 1e300, 1.0, 3e-308], 25)
    X = data.X * scale
    X[:3, 2] = [0.1 + 0.2, 1.0 / 3.0, 5e-324]
    extreme = SimDataset(X=X, y=data.y * 1e299, beta_true=data.beta_true, config=data.config)
    for name, draw in [("plain", data), ("extreme", extreme)]:
        paths = write_dataset(draw, tmp_path / name)
        with open(paths["data"], "rb") as fh:
            assert fh.read() == _csv_writer_data_file(draw)
        loaded = load_problem_csv(paths["data"], paths["groups"])
        prob = loaded.problem
        assert prob.n == 200 and prob.p == 100 and prob.n_groups == 10
        assert loaded.feature_names[0] == "x001" and loaded.feature_names[-1] == "x100"
        assert loaded.group_ids == tuple(f"g{k:02d}" for k in range(1, 11))
        # repr-precision text reproduces every float bit-for-bit
        direct = build_problem(draw.y, draw.X, draw.config.blocks)
        assert prob.X.tobytes() == direct.X.tobytes()
        assert prob.y.tobytes() == direct.y.tobytes()
        assert prob.x_means.tobytes() == direct.x_means.tobytes()
        assert prob.y_mean == direct.y_mean
        assert np.array_equal(loaded.data_positions, np.arange(100))


def test_write_dataset_writes_csv_writer_bytes_row_by_row(tmp_path):
    # data.csv is written one row at a time, never as one list of every
    # value; its bytes are csv.writer's on a one-row draw, a one-column
    # draw, signed zeros, subnormals, 17-digit values and exponents
    for n, blocks in ((1, (3, 2)), (4, (1,)), (6, (2, 2))):
        data = generate(SimConfig(seed=8, n=n, blocks=blocks, nonzero_counts=(1,)))
        X = np.array(data.X)
        X.flat[:4] = [-0.0, 5e-324, 0.1 + 0.2, -1.5e300][:X.size]
        y = np.array(data.y)
        y[0] = -0.0
        draw = SimDataset(X=X, y=y, beta_true=data.beta_true, config=data.config)
        paths = write_dataset(draw, tmp_path / f"n{n}")
        with open(paths["data"], "rb") as fh:
            written = fh.read()
        # the rows after the header, whose names narrow with p
        rows = written.split(b"\r\n", 1)[1]
        assert rows == _csv_writer_data_file(draw).split(b"\r\n", 1)[1]


def test_write_dataset_truth_file(tmp_path):
    data = generate(SimConfig(seed=6))
    paths = write_dataset(data, tmp_path / "out")
    with open(paths["truth"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "group", "beta_true"]
    assert len(rows) == 101
    values = np.array([float(r[2]) for r in rows[1:]])
    assert np.array_equal(values, data.beta_true)
    assert [int(r[0]) for r in rows[1:]] == list(range(100))
    assert rows[1][1] == "g01" and rows[-1][1] == "g10"
