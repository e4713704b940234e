import itertools
import math

import numpy as np
import pytest

from plantedsub import kernels
from plantedsub.hypercore import binom, subset_table
from plantedsub.models import ModelParams, make_rng, sample_embedding_targets_batch, sample_H


@pytest.mark.parametrize("n,k,r", [(8, 4, 2), (10, 6, 2), (7, 5, 3)])
def test_plant_batch_backends_agree(n, k, r):
    rng = make_rng(17)
    params = ModelParams(n=n, k=k, r=r)
    h = sample_H(k, r, rng)
    phis = sample_embedding_targets_batch(params, 64, rng)
    base = rng.integers(0, 2, size=(64, binom(n, r)), dtype=np.uint8)
    subsets = np.asarray(subset_table(k, r))

    out_np = base.copy()
    kernels.plant_batch(out_np, phis, subsets, h.bits, n)

    # every covered coordinate carries the template bit
    from plantedsub.hypercore import rank_subset

    for t in range(8):
        for j in range(subsets.shape[0]):
            target = sorted(int(phis[t, v]) for v in subsets[j])
            assert out_np[t, rank_subset(target, n)] == h.bits[j]


def test_match_any_backends_agree():
    rng = make_rng(3)
    bits = rng.integers(0, 2, size=(500, 28), dtype=np.uint8)
    cand = rng.integers(0, 28, size=(9, 4)).astype(np.int64)
    patterns = rng.integers(0, 2, size=4, dtype=np.uint8)
    ref = kernels.match_any_batch(bits, cand, patterns)
    # oracle: direct per-row scan
    for t in range(50):
        expect = any(all(bits[t, cand[v, p]] == patterns[p] for p in range(4))
                     for v in range(9))
        assert bool(ref[t]) == expect


def test_match_any_edge_shapes():
    bits = np.zeros((5, 4), dtype=np.uint8)
    none = kernels.match_any_batch(bits, np.empty((0, 2), np.int64), np.empty(0, np.uint8))
    assert none.tolist() == [0] * 5
    empty_width = kernels.match_any_batch(bits, np.empty((3, 0), np.int64),
                                          np.empty(0, np.uint8))
    assert empty_width.tolist() == [1] * 5


def test_rank_lut_matches_rank_subset_in_every_order():
    from plantedsub.hypercore import rank_lut, rank_subset

    for n, r in [(5, 2), (6, 3), (6, 4), (7, 3)]:
        lut = rank_lut(n, r)
        assert lut.shape == (n,) * r and lut.dtype == np.int64
        for combo in itertools.combinations(range(n), r):
            for order in itertools.permutations(combo):
                assert lut[order] == rank_subset(combo, n)
        # every entry with a repeated vertex is -1
        assert (lut == -1).sum() == n ** r - binom(n, r) * math.factorial(r)


@pytest.mark.parametrize("n,k,r,L", [
    (8, 4, 2, ()), (8, 4, 2, (0, 1)), (7, 5, 3, ()), (7, 5, 3, (0, 2)),
    (8, 5, 4, ()), (8, 5, 4, (1,)),
])
@pytest.mark.parametrize("trials", [1, 1000])
def test_plant_batch_matches_rank_subset_oracle(monkeypatch, n, k, r, L, trials):
    from plantedsub import ensemble
    from plantedsub.hypercore import rank_subset

    lut_calls = []
    real_lut = ensemble.rank_lut
    monkeypatch.setattr(ensemble, "rank_lut",
                        lambda *a: lut_calls.append(a) or real_lut(*a))
    rng = make_rng(29)
    params = ModelParams(n=n, k=k, r=r, L=L)
    h = sample_H(k, r, rng)
    phis = sample_embedding_targets_batch(params, trials, rng)
    base = rng.integers(0, 2, size=(trials, binom(n, r)), dtype=np.uint8)
    subsets = np.asarray(subset_table(k, r))

    out = base.copy()
    kernels.plant_batch(out, phis, subsets, h.bits, n)

    expect = base.copy()
    for t in range(trials):
        for j, f in enumerate(subsets):
            expect[t, rank_subset(sorted(int(phis[t, u]) for u in f), n)] = h.bits[j]
    np.testing.assert_array_equal(out, expect)
    # the table is used when its n**r entries do not outnumber the ranks asked
    # for: here one trial takes the sort-and-rank branch, a thousand the table
    assert bool(lut_calls) == (n ** r <= trials * subsets.shape[0]) == (trials == 1000)


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 500])
def test_match_any_matches_direct_scan(trials):
    rng = make_rng(trials)
    bits = rng.integers(0, 2, size=(trials, 12), dtype=np.uint8)
    # 12 columns for 8 x 3 entries: candidates share columns; row 7 repeats row 0's
    cand = rng.integers(0, 12, size=(8, 3)).astype(np.int64)
    cand[7] = cand[0][::-1]
    for patterns in (rng.integers(0, 2, size=3, dtype=np.uint8),
                     np.zeros(3, dtype=np.uint8), np.ones(3, dtype=np.uint8)):
        got = kernels.match_any_batch(bits, cand, patterns)
        assert got.dtype == np.uint8 and got.shape == (trials,)
        expect = [int(any(all(bits[t, cand[c, p]] == patterns[p] for p in range(3))
                          for c in range(8))) for t in range(trials)]
        assert got.tolist() == expect


@pytest.mark.parametrize("size", [5, 200])
def test_column_positions_match_direct_lookup(size):
    # 5 ranks take the binary search, 200 the inverse table (m = 45)
    rng = make_rng(size)
    m = 45
    columns = np.sort(rng.choice(m, size=12, replace=False)).astype(np.int64)
    ranks = rng.integers(0, m, size=(size // 5, 5)).astype(np.int64)
    ranks[0, 0], ranks[-1, -1] = columns[0], m - 1
    got = kernels.column_positions(ranks, columns, m)
    where = {int(c): i for i, c in enumerate(columns)}
    assert got.dtype == np.int32 and got.shape == ranks.shape
    assert got.tolist() == [[where.get(int(v), -1) for v in row] for row in ranks]
