"""Hot numeric kernels of the Monte Carlo harness, vectorized in numpy.

The harness spends nearly all of its time planting template bits into
batches of sampled adjacency maps and scanning candidate match
patterns; both loops live here.
"""

from __future__ import annotations

import numpy as np

from .ensemble import covered_ranks
from .hypercore import binom

_ONES = np.uint64(2 ** 64 - 1)


def column_positions(ranks: np.ndarray, columns: np.ndarray, m: int) -> np.ndarray:
    """Each host rank's int32 position in the sorted ``columns`` (a subset of
    [0, m)), or -1 where it is not one of them.

    Looked up in an inverse-rank table of m entries when the table is no
    bigger than ``ranks``; otherwise each rank is binary-searched in
    ``columns``, so a large host never allocates a C(n, r) table per call.
    """
    if m <= ranks.size:
        inverse = np.full(m, -1, dtype=np.int32)
        inverse[columns] = np.arange(columns.size, dtype=np.int32)
        return inverse[ranks]
    pos = np.searchsorted(columns, ranks).astype(np.int32)
    found = columns.take(pos, mode="clip") == ranks
    return np.where(found, pos, np.int32(-1))


def plant_batch(bits: np.ndarray, phis: np.ndarray, h_subsets: np.ndarray,
                h_bits: np.ndarray, n: int, columns: np.ndarray | None = None) -> None:
    """Overwrite, in place, each trial's covered coordinates with template bits.

    ``bits`` is (trials, C(n, r)) uint8, or (trials, len(columns)) when
    ``columns`` lists the sorted host ranks its columns hold; ``phis`` is
    (trials, k) int64 giving each trial's embedding targets; ``h_subsets``
    lists the template's r-subsets of [0, k) and ``h_bits`` the template
    bit per subset.  The covered ranks come from
    :func:`~plantedsub.ensemble.covered_ranks` and are written in one
    scatter; with ``columns`` they go through :func:`column_positions` and
    those outside the columns are dropped.
    """
    if h_subsets.shape[0] == 0:
        return
    ranks = covered_ranks(phis, h_subsets, n)
    if columns is None:
        bits[np.arange(bits.shape[0])[:, None], ranks] = h_bits
        return
    local = column_positions(ranks, columns, binom(n, h_subsets.shape[1]))
    rows, subsets = np.nonzero(local >= 0)
    bits[rows, local[rows, subsets]] = h_bits[subsets]


def match_any_batch(bits: np.ndarray, cand_ranks: np.ndarray,
                    patterns: np.ndarray) -> np.ndarray:
    """Per trial, 1 iff some candidate row matches the required bit pattern.

    ``cand_ranks`` is (candidates, width) int64 of coordinate ranks and
    ``patterns`` the (width,) uint8 bits every matching candidate must show.
    The scan is bit-sliced: the columns the candidates use are packed along
    trials into uint64 words, each compared with its pattern bit by XOR,
    ANDed across the width and ORed across candidates.
    """
    if cand_ranks.shape[0] == 0:
        return np.zeros(bits.shape[0], dtype=np.uint8)
    if cand_ranks.shape[1] == 0:
        return np.ones(bits.shape[0], dtype=np.uint8)
    # Bit-sliced: word row i holds column cols[i]'s bit for 64 trials per word.
    trials = bits.shape[0]
    cols, inverse = np.unique(cand_ranks, return_inverse=True)
    inverse = inverse.reshape(cand_ranks.shape)
    packed = np.packbits(bits[:, cols].T, axis=1)
    words = np.zeros((cols.size, -(-trials // 64) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    words = words.view(np.uint64)
    flip = np.where(np.asarray(patterns) == 1, np.uint64(0), _ONES)  # all ones where bit 0
    match = words[inverse[:, 0]] ^ flip[0]
    for j in range(1, inverse.shape[1]):
        match &= words[inverse[:, j]] ^ flip[j]
    hits = np.bitwise_or.reduce(match, axis=0)
    return np.unpackbits(hits.view(np.uint8), count=trials)
