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
    kernels._plant_batch_np(out_np, phis, subsets, h.bits, n)

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
    ref = kernels._match_any_np(bits, cand, patterns)
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
