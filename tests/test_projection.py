"""Exact-equality oracles for the Monte Carlo projection onto a statistic's columns.

The full (trials, C(n, r)) matrix path is the oracle: a statistic read on
its projection, projected planting and the projected null copy must all
agree with it bit for bit.
"""

import itertools

import numpy as np
import pytest

from plantedsub import kernels, models
from plantedsub.distinguishers import STATISTIC_FACTORIES, make_statistic
from plantedsub.hypercore import binom, subset_table
from plantedsub.models import (ModelParams, make_rng, sample_embedding_targets_batch,
                               sample_H, sample_null_bits, sample_planted_bits)

# r in {2, 3}, ell from r - 1 upward
SHAPES = [
    (9, 5, 2, (0,)), (9, 5, 2, (0, 2, 3)), (12, 7, 2, (1, 2, 4, 6)),
    (8, 5, 3, (0, 1)), (10, 6, 3, (1, 2, 4)), (9, 6, 3, (0, 1, 2, 3)),
]
STATS = sorted(STATISTIC_FACTORIES)


def _statistic(name, h, params):
    return make_statistic(name, h, params, **({"m": 3} if name == "subgraph" else {}))


def _stem_columns(params, stem):
    """Sorted ranks of the r-subsets made of an (r-1)-subset of ``stem``
    and one vertex outside L."""
    leaked = set(params.L)
    return [j for j, f in enumerate(itertools.combinations(range(params.n), params.r))
            if len(set(f) & leaked) == params.r - 1 and set(f) & leaked <= set(stem)]


@pytest.mark.parametrize("n,k,r,L", SHAPES)
def test_columns_are_what_each_statistic_reads(n, k, r, L):
    params = ModelParams(n=n, k=k, r=r, L=L)
    h = sample_H(k, r, make_rng(n * k))
    expect = {"edgecount": None, "subgraph": None,
              "leakmatch": _stem_columns(params, L),
              "linear": _stem_columns(params, L[: r - 1])}
    for name in STATS:
        columns = _statistic(name, h, params).columns
        if expect[name] is None:
            assert columns is None
        else:
            assert columns.dtype == np.int64 and columns.tolist() == expect[name]
            stems = binom(len(L), r - 1) if name == "leakmatch" else 1
            assert columns.size == stems * (n - len(L))


@pytest.mark.parametrize("n,k,r,L", SHAPES)
def test_batch_on_projection_equals_batch_on_full_matrix(n, k, r, L):
    params = ModelParams(n=n, k=k, r=r, L=L)
    m = binom(n, r)
    rng = make_rng(n + 10 * k + 100 * r)
    h = sample_H(k, r, rng)
    # fair coins and planted draws, so the match statistics see both values
    full = np.concatenate([rng.integers(0, 2, size=(300, m), dtype=np.uint8),
                           sample_planted_bits(h, params, 300, rng)])
    for name in STATS:
        stat = _statistic(name, h, params)
        values = stat.batch(full)
        if stat.columns is None:
            continue
        np.testing.assert_array_equal(stat.batch(full[:, stat.columns]), values)
        # no bit outside the columns ever moves a value
        outside = np.setdiff1d(np.arange(m), stat.columns)
        for col in outside:
            flipped = full.copy()
            flipped[:, col] ^= 1
            np.testing.assert_array_equal(stat.batch(flipped), values)
        scrambled = full.copy()
        scrambled[:, outside] = rng.integers(0, 2, size=(full.shape[0], outside.size))
        np.testing.assert_array_equal(stat.batch(scrambled), values)


@pytest.mark.parametrize("n,k,r,L", SHAPES)
@pytest.mark.parametrize("trials", [1, 500])
def test_projected_planting_equals_full_planting_on_columns(n, k, r, L, trials):
    params = ModelParams(n=n, k=k, r=r, L=L)
    rng = make_rng(7 * n + k)
    h = sample_H(k, r, rng)
    phis = sample_embedding_targets_batch(params, trials, rng)
    base = rng.integers(0, 2, size=(trials, binom(n, r)), dtype=np.uint8)
    subsets = np.asarray(subset_table(k, r))
    full = base.copy()
    kernels.plant_batch(full, phis, subsets, h.bits, n)
    for name in ("leakmatch", "linear"):
        cols = _statistic(name, h, params).columns
        projected = base[:, cols].copy()
        kernels.plant_batch(projected, phis, subsets, h.bits, n, columns=cols)
        np.testing.assert_array_equal(projected, full[:, cols])


@pytest.mark.parametrize("n,k,r,L", SHAPES)
def test_projected_samplers_equal_full_samplers_on_columns(monkeypatch, n, k, r, L):
    """Same rng and the same base coins: the projected planted and null
    matrices are the full ones' columns."""
    params = ModelParams(n=n, k=k, r=r, L=L)
    h = sample_H(k, r, make_rng(n * r))
    m, trials = binom(n, r), 400
    base = make_rng(3).integers(0, 2, size=(trials, m), dtype=np.uint8)
    for name in ("leakmatch", "linear"):
        cols = _statistic(name, h, params).columns
        monkeypatch.setattr(models, "_batch_coins", lambda t, width, rng: (
            base.copy() if width == m else base[:, cols].copy()))
        for sampler in (sample_planted_bits, sample_null_bits):
            full = sampler(h, params, trials, make_rng(5))
            projected = sampler(h, params, trials, make_rng(5), columns=cols)
            assert projected.shape == (trials, cols.size)
            np.testing.assert_array_equal(projected, full[:, cols])
