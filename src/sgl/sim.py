"""Synthetic regression benchmark: block-correlated Gaussian designs with
sparse, unit-magnitude, random-sign coefficients, plus support-recovery
error counts."""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SimConfig",
    "SimDataset",
    "generate",
    "group_misclassification",
    "coef_misclassification",
    "write_dataset",
]


def _integers(name: str, values) -> tuple[int, ...]:
    # a cast would truncate a value that is not an integer: refuse it by name
    if not all(isinstance(v, numbers.Integral) for v in values):
        raise ValueError(f"{name} must hold integers, got {values!r}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class SimConfig:
    """Generator settings.

    ``nonzero_counts`` may be shorter than the block list; missing entries
    are zero. Within a block, entries share pairwise correlation ``rho``;
    across blocks they are independent.
    """

    n: int = 200
    blocks: tuple[int, ...] = (10,) * 10
    nonzero_counts: tuple[int, ...] = (10, 8, 6, 4, 2)
    coef_magnitude: float = 1.0
    rho: float = 0.2
    noise_sd: float = 4.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        blocks = _integers("blocks", self.blocks)
        counts = _integers("nonzero_counts", self.nonzero_counts)
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("blocks must be a nonempty list of positive sizes")
        if len(counts) > len(blocks):
            raise ValueError(
                f"{len(counts)} nonzero counts for {len(blocks)} blocks"
            )
        counts = counts + (0,) * (len(blocks) - len(counts))
        for ell, (size, count) in enumerate(zip(blocks, counts)):
            if not 0 <= count <= size:
                raise ValueError(
                    f"block {ell + 1} has size {size} but nonzero count {count}"
                )
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.noise_sd < 0.0 or not math.isfinite(self.noise_sd):
            raise ValueError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        if not math.isfinite(self.coef_magnitude):
            raise ValueError("coef_magnitude must be finite")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "nonzero_counts", counts)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def p(self) -> int:
        return sum(self.blocks)


@dataclass(frozen=True)
class SimDataset:
    """One draw: design, response, and the ground-truth coefficients."""

    X: np.ndarray
    y: np.ndarray
    beta_true: np.ndarray
    config: SimConfig = field(repr=False)

    def __post_init__(self):
        for name in ("X", "y", "beta_true"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def generate(config: SimConfig | None = None) -> SimDataset:
    """Draw one dataset. Deterministic given the seed: the draw order is
    coefficient signs, then each block's shared and idiosyncratic factors,
    then the response noise."""
    config = config or SimConfig()
    rng = np.random.default_rng(config.seed)
    p = config.p
    beta = np.zeros(p)
    start = 0
    for size, count in zip(config.blocks, config.nonzero_counts):
        signs = rng.integers(0, 2, size=count) * 2 - 1
        beta[start : start + count] = config.coef_magnitude * signs
        start += size
    columns = []
    for size in config.blocks:
        shared = rng.standard_normal((config.n, 1))
        idio = rng.standard_normal((config.n, size))
        columns.append(
            math.sqrt(config.rho) * shared + math.sqrt(1.0 - config.rho) * idio
        )
    X = np.hstack(columns)
    y = X @ beta + config.noise_sd * rng.standard_normal(config.n)
    return SimDataset(X=X, y=y, beta_true=beta, config=config)


def _split(beta, group_sizes) -> list[np.ndarray]:
    arr = np.asarray(beta, dtype=float)
    sizes = [int(s) for s in group_sizes]
    if arr.ndim != 1 or sum(sizes) != arr.size or any(s < 1 for s in sizes):
        raise ValueError(
            f"group sizes {sizes} do not partition a vector of length {arr.size}"
        )
    ends = np.cumsum(sizes)
    return [arr[e - s : e] for s, e in zip(sizes, ends)]


def group_misclassification(beta_true, beta_est, group_sizes) -> int:
    """Count blocks whose zero/nonzero status disagrees: a truly active block
    estimated all-zero, or a truly null block with any nonzero estimate."""
    true_blocks = _split(beta_true, group_sizes)
    est_blocks = _split(beta_est, group_sizes)
    return sum(
        int(bool(np.any(t != 0.0)) != bool(np.any(e != 0.0)))
        for t, e in zip(true_blocks, est_blocks)
    )


def coef_misclassification(beta_true, beta_est) -> int:
    """Count coordinates whose zero/nonzero status disagrees (magnitudes ignored)."""
    t = np.asarray(beta_true, dtype=float)
    e = np.asarray(beta_est, dtype=float)
    if t.shape != e.shape or t.ndim != 1:
        raise ValueError(f"coefficient vectors differ in shape: {t.shape} vs {e.shape}")
    return int(np.count_nonzero((t != 0.0) != (e != 0.0)))


def _column_labels(config: SimConfig) -> tuple[list[str], list[str]]:
    p = config.p
    cwidth = len(str(p))
    gwidth = len(str(len(config.blocks)))
    names = [f"x{i + 1:0{cwidth}d}" for i in range(p)]
    groups = []
    for ell, size in enumerate(config.blocks):
        groups.extend([f"g{ell + 1:0{gwidth}d}"] * size)
    return names, groups


def write_dataset(dataset: SimDataset, out_dir) -> dict[str, str]:
    """Write data.csv (y plus features), groups.csv (column,group), and
    truth.csv (index,group,beta_true) under ``out_dir``; returns the paths.
    Numbers are written with full round-trip precision."""
    os.makedirs(out_dir, exist_ok=True)
    names, groups = _column_labels(dataset.config)
    paths = {
        "data": os.path.join(out_dir, "data.csv"),
        "groups": os.path.join(out_dir, "groups.csv"),
        "truth": os.path.join(out_dir, "truth.csv"),
    }
    with open(paths["data"], "w", newline="") as fh:
        csv.writer(fh).writerow(["y"] + names)
        # the bytes csv.writer would write: a float's repr needs no quoting.
        # Row by row, so no list of every value is ever held
        for y_i, row in zip(dataset.y.tolist(), dataset.X):
            fh.write(",".join(map(repr, [y_i] + row.tolist())) + "\r\n")
    with open(paths["groups"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["column", "group"])
        for name, gid in zip(names, groups):
            writer.writerow([name, gid])
    with open(paths["truth"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "group", "beta_true"])
        for i, (gid, v) in enumerate(zip(groups, dataset.beta_true)):
            writer.writerow([i, gid, repr(float(v))])
    return paths
