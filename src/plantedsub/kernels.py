"""Hot numeric kernels of the Monte Carlo harness, vectorized in numpy.

The harness spends nearly all of its time planting template bits into
batches of sampled adjacency maps and scanning candidate match
patterns; both loops live here.
"""

from __future__ import annotations

import numpy as np

from .hypercore import rank_rows


def _plant_batch_np(bits, phis, h_subsets, h_bits, n):
    for j in range(h_subsets.shape[0]):
        images = np.sort(phis[:, h_subsets[j]], axis=1)
        bits[np.arange(bits.shape[0]), rank_rows(images, n)] = h_bits[j]


def _match_any_np(bits, cand_ranks, patterns):
    hits = bits[:, cand_ranks] == patterns[None, None, :]
    return hits.all(axis=2).any(axis=1).astype(np.uint8)


def plant_batch(bits: np.ndarray, phis: np.ndarray, h_subsets: np.ndarray,
                h_bits: np.ndarray, n: int) -> None:
    """Overwrite, in place, each trial's covered coordinates with template bits.

    ``bits`` is (trials, C(n, r)) uint8; ``phis`` is (trials, k) int64 giving
    each trial's embedding targets; ``h_subsets`` lists the template's
    r-subsets of [0, k) and ``h_bits`` the template bit per subset.
    """
    if h_subsets.shape[0] == 0:
        return
    _plant_batch_np(bits, phis, h_subsets, h_bits, n)


def match_any_batch(bits: np.ndarray, cand_ranks: np.ndarray,
                    patterns: np.ndarray) -> np.ndarray:
    """Per trial, 1 iff some candidate row matches the required bit pattern.

    ``cand_ranks`` is (candidates, width) int64 of coordinate ranks and
    ``patterns`` the (width,) uint8 bits every matching candidate must show.
    """
    if cand_ranks.shape[0] == 0:
        return np.zeros(bits.shape[0], dtype=np.uint8)
    if cand_ranks.shape[1] == 0:
        return np.ones(bits.shape[0], dtype=np.uint8)
    return _match_any_np(bits, cand_ranks, patterns)
