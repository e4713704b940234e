"""The four concrete distinguishers and the advantage-estimation harness.

A statistic is a deterministic function of the observed hypergraph
(with the template and leaked set baked in at construction); its
advantage is the planted-vs-null mean gap normalized by the null
standard deviation.  The harness computes that advantage exactly via
the enumeration oracle at desk scale, where both ensembles are integer
state counts over uint64 keys and the moments are exact integer sums,
and by seeded Monte Carlo otherwise.  Boolean statistics return {0, 1}
reals so the advantage formula is uniform across statistics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels
from .ensemble import Ensemble, covered_ranks, injection_table, union_keys, unpack
from .errors import DegenerateNullVariance, GuardExceeded, ValidationError
from .hypercore import Hypergraph, binom, induced, subset_table
from .models import (ModelParams, Pmf, _check_shapes, exact_pmf, sample_H, sample_null_bits,
                     sample_planted_bits, trial_rng)

SUBGRAPH_WORK_GUARD = 5_000_000
_CHUNK = 8192
CHUNK_BYTE_BUDGET = 1 << 26


@dataclass(frozen=True)
class Statistic:
    """A named test statistic with a vectorized evaluation path.

    ``columns`` is the sorted int64 array of host ranks the statistic
    reads, or None when it reads every coordinate; it holds fewer than
    C(n, r) ranks.  ``batch`` maps a uint8 bit matrix to float values and
    accepts two widths: the full (trials, C(n, r)) matrix, or its
    (trials, len(columns)) projection onto ``columns``, which is what the
    Monte Carlo samplers draw for it.  ``declared_degree`` is the
    polynomial degree the statistic is accounted at when compared against
    the degree-capped likelihood ratio.
    """

    name: str
    declared_degree: int
    batch: Callable[[np.ndarray], np.ndarray]
    columns: np.ndarray | None = field(default=None, compare=False)

    def evaluate(self, g: Hypergraph) -> float:
        return float(self.batch(g.bits[None, :])[0])


def _columns_read(ranks: np.ndarray, m: int) -> np.ndarray | None:
    """The sorted distinct host ranks in ``ranks``, or None when they are
    all m coordinates: a statistic's ``columns``."""
    columns = np.unique(ranks)
    return None if columns.size == m else columns


def _indices(bits: np.ndarray, ranks: np.ndarray, columns: np.ndarray | None) -> np.ndarray:
    """``ranks`` as column indices of ``bits``: unchanged in a full
    (trials, C(n, r)) matrix, renumbered into ``columns`` in its
    (trials, len(columns)) projection.  Every ``batch`` reads through
    here, so both widths give the same values."""
    if columns is None or bits.shape[1] != columns.size:
        return ranks
    return np.searchsorted(columns, ranks)


def make_edge_count(params: ModelParams) -> Statistic:
    """Sum of all C(n, r) spins; degree 1."""
    m = binom(params.n, params.r)
    # a row sum never passes m, so below 2**16 it accumulates in uint16
    acc = np.uint16 if m < 1 << 16 else np.int64

    def batch(bits):
        return (m - 2 * bits.sum(axis=1, dtype=acc).astype(np.int64)).astype(np.float64)

    return Statistic("edgecount", 1, batch)


def default_pattern_size(params: ModelParams) -> int:
    """Default number of template vertices the presence scan looks for."""
    return min(params.k, math.ceil(3 * math.log2(params.n) ** (1.0 / (params.r - 1))))


def make_subgraph_presence(h: Hypergraph, params: ModelParams, m: int | None = None) -> Statistic:
    """1 iff some injective placement of the template's first m vertices
    reproduces their induced sub-hypergraph inside the observed graph."""
    _check_shapes(h, params)
    if m is None:
        m = default_pattern_size(params)
    if m > params.k or m < 0:
        raise ValidationError(f"pattern size m={m} must lie in [0, k]")
    width = binom(m, params.r)
    if width == 0:
        return Statistic("subgraph", 0, lambda bits: np.ones(bits.shape[0], np.float64))
    n_maps = math.perm(params.n, m)
    if n_maps * width > SUBGRAPH_WORK_GUARD:
        raise GuardExceeded(f"{n_maps} placements x {width} coordinates exceed the scan guard")
    pattern = induced(h, list(range(m))).bits
    cand = covered_ranks(injection_table(params.n, m, ()), subset_table(m, params.r), params.n)
    columns = _columns_read(cand, binom(params.n, params.r))

    def batch(bits):
        return kernels.match_any_batch(bits, _indices(bits, cand, columns),
                                       pattern).astype(np.float64)

    return Statistic("subgraph", width, batch, columns)


def default_probe_vertex(params: ModelParams) -> int:
    """Smallest template vertex outside the leaked set."""
    leaked = set(params.L)
    for u in range(params.k):
        if u not in leaked:
            return u
    raise ValidationError("no template vertex outside the leaked set (k = ell)")


def _outside(leaked, n: int) -> list[int]:
    """The vertices of [0, n) outside the leaked set, in increasing order."""
    leaked = set(leaked)
    return [v for v in range(n) if v not in leaked]


def _stem_ranks(prefix, vertices, subsets: np.ndarray, n: int) -> np.ndarray:
    """Ranks among the r-subsets of [0, n): entry (i, j) ranks the vertices
    of ``prefix + (vertices[i],)`` at the positions listed in ``subsets[j]``."""
    rows = np.array([tuple(prefix) + (v,) for v in vertices], dtype=np.int64)
    return covered_ranks(rows.reshape(len(vertices), len(prefix) + 1), subsets, n)


def make_leakage_match(h: Hypergraph, params: ModelParams, w: int | None = None) -> Statistic:
    """1 iff some observed vertex's adjacencies into the leaked set match the
    template adjacencies of probe vertex w."""
    _check_shapes(h, params)
    r, ell = params.r, params.ell
    if ell < r - 1:
        raise ValidationError(f"need ell >= r - 1, got ell={ell}")
    if params.k <= ell:
        raise ValidationError("need k > ell")
    if w is None:
        w = default_probe_vertex(params)
    if w in params.L or not (0 <= w < params.k):
        raise ValidationError(f"probe vertex w={w} must lie in [0, k) outside L")
    # subsets of positions in the row (L..., probe): each stem plus the probe
    stems = np.array([t + (ell,) for t in itertools.combinations(range(ell), r - 1)])
    pattern = h.bits[_stem_ranks(params.L, [w], stems, params.k)[0]]
    cand = _stem_ranks(params.L, _outside(params.L, params.n), stems, params.n)
    columns = _columns_read(cand, binom(params.n, r))

    def batch(bits):
        return kernels.match_any_batch(bits, _indices(bits, cand, columns),
                                       pattern).astype(np.float64)

    return Statistic("leakmatch", binom(ell, r - 1), batch, columns)


def make_linear_leakage(h: Hypergraph, params: ModelParams) -> Statistic:
    """1 iff the observed and template leaked-stem degree sums share a sign.

    The stem is the first r - 1 leaked vertices; sign(0) = +1 on both
    sides.  The underlying score is linear, but the shipped {0, 1}
    sign-match indicator is a function of the n - ell stem coordinates,
    so that is its declared polynomial degree.
    """
    _check_shapes(h, params)
    r = params.r
    if params.ell < r - 1:
        raise ValidationError(f"need ell >= r - 1, got ell={params.ell}")
    stem, edge = params.L[: r - 1], np.arange(r)[None, :]
    h_pos = _stem_ranks(stem, _outside(params.L, params.k), edge, params.k)[:, 0]
    target = 1 if h.spins[h_pos].sum() >= 0 else -1
    g_pos = _stem_ranks(stem, _outside(params.L, params.n), edge, params.n)[:, 0]
    columns = _columns_read(g_pos, binom(params.n, r))

    def batch(bits):
        stem_bits = bits[:, _indices(bits, g_pos, columns)]
        sums = g_pos.size - 2 * stem_bits.sum(axis=1, dtype=np.int64)
        return (np.where(sums >= 0, 1, -1) == target).astype(np.float64)

    return Statistic("linear", params.n - params.ell, batch, columns)


def edge_count_stat(g: Hypergraph) -> float:
    """Sum of all spins of the observed hypergraph."""
    return float(g.num_coords - 2 * g.num_present)


def subgraph_presence_stat(g: Hypergraph, h: Hypergraph, m: int) -> int:
    params = ModelParams(n=g.n, k=h.n, r=g.r)
    return int(make_subgraph_presence(h, params, m).evaluate(g))


def leakage_match_stat(g: Hypergraph, h: Hypergraph, L, w: int | None = None) -> int:
    params = ModelParams(n=g.n, k=h.n, r=g.r, L=tuple(L))
    return int(make_leakage_match(h, params, w).evaluate(g))


def linear_leakage_stat(g: Hypergraph, h: Hypergraph, L) -> int:
    params = ModelParams(n=g.n, k=h.n, r=g.r, L=tuple(L))
    return int(make_linear_leakage(h, params).evaluate(g))


STATISTIC_FACTORIES = {
    "edgecount": lambda h, params, **kw: make_edge_count(params),
    "subgraph": lambda h, params, **kw: make_subgraph_presence(h, params, kw.get("m")),
    "leakmatch": lambda h, params, **kw: make_leakage_match(h, params, kw.get("w")),
    "linear": lambda h, params, **kw: make_linear_leakage(h, params),
}


def make_statistic(name: str, h: Hypergraph, params: ModelParams, **options) -> Statistic:
    if name not in STATISTIC_FACTORIES:
        raise ValidationError(f"unknown statistic {name!r}; choose from {sorted(STATISTIC_FACTORIES)}")
    return STATISTIC_FACTORIES[name](h, params, **options)


@dataclass(frozen=True)
class AdvantageReport:
    """Planted and null moments of a statistic plus the normalized advantage."""

    statistic: str
    mean_planted: float
    mean_null: float
    var_null: float
    advantage: float
    stderr: float
    mode: str
    trials: int

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "mean_planted": self.mean_planted,
            "mean_null": self.mean_null,
            "var_null": self.var_null,
            "advantage": self.advantage,
            "stderr": self.stderr,
            "mode": self.mode,
            "trials": self.trials,
        }


def _moment_sums(values: np.ndarray, depth: int) -> list[float]:
    return [float(np.sum(values ** (i + 1))) for i in range(depth)]


def estimate_advantage(stat: Statistic, h: Hypergraph, params: ModelParams,
                       trials: int, seed: int | None = None) -> AdvantageReport:
    """Monte Carlo advantage over independent planted and null batches.

    Trials are drawn in fixed-size chunks with substream seeds derived
    from (seed, side, chunk index) and reduced in chunk order, so the
    result does not depend on scheduling.  The samplers draw only the
    statistic's ``columns`` (every coordinate when it has none), so one
    trial's uint8 row is len(columns) or C(n, r) bytes; a chunk holds
    ``_CHUNK`` trials, or fewer when their rows would pass
    ``CHUNK_BYTE_BUDGET`` bytes.  The standard error comes from the
    first-order delta method on the normalized mean gap.
    """
    if trials < 2:
        raise ValidationError("need at least 2 trials")
    if stat.columns is None:
        row, what = binom(params.n, params.r), "C(n, r)"
    else:
        row, what = stat.columns.size, f"{stat.name}'s projection"
    if row > CHUNK_BYTE_BUDGET:
        raise GuardExceeded(f"one trial's bit matrix row needs {what} = {row} bytes; "
                            f"the chunk budget is {CHUNK_BYTE_BUDGET} bytes")
    chunk = min(_CHUNK, CHUNK_BYTE_BUDGET // row)
    seed = params.seed if seed is None else seed
    sums_p = [0.0, 0.0]
    sums_q = [0.0, 0.0, 0.0, 0.0]
    for side, sums, sampler, depth in (
        (0, sums_p, sample_planted_bits, 2),
        (1, sums_q, sample_null_bits, 4),
    ):
        done = 0
        chunk_idx = 0
        while done < trials:
            size = min(chunk, trials - done)
            bits = sampler(h, params, size, trial_rng(seed, side, chunk_idx),
                           columns=stat.columns)
            vals = stat.batch(bits)
            for i, s in enumerate(_moment_sums(vals, depth)):
                sums[i] += s
            done += size
            chunk_idx += 1

    t = float(trials)
    mu_p = sums_p[0] / t
    var_p = max(sums_p[1] / t - mu_p ** 2, 0.0)
    mu_q = sums_q[0] / t
    m2 = sums_q[1] / t - mu_q ** 2
    if m2 <= 0:
        raise DegenerateNullVariance(
            f"statistic {stat.name!r} has zero sample variance under the null"
        )
    m3 = sums_q[2] / t - 3 * mu_q * sums_q[1] / t + 2 * mu_q ** 3
    m4 = (sums_q[3] / t - 4 * mu_q * sums_q[2] / t
          + 6 * mu_q ** 2 * sums_q[1] / t - 3 * mu_q ** 4)
    var_q = m2 * t / (t - 1)
    adv = (mu_p - mu_q) / math.sqrt(var_q)
    stderr_sq = (var_p / (t * var_q) + 1.0 / t
                 + adv ** 2 * max(m4 - m2 ** 2, 0.0) / (4 * m2 ** 2 * t)
                 + adv * m3 / (m2 ** 1.5 * t))
    return AdvantageReport(
        statistic=stat.name, mean_planted=mu_p, mean_null=mu_q, var_null=var_q,
        advantage=adv, stderr=math.sqrt(max(stderr_sq, 0.0)), mode="montecarlo",
        trials=trials,
    )


def exact_advantage(stat: Statistic, h: Hypergraph, params: ModelParams,
                    pmfs: tuple[Pmf, Pmf] | None = None) -> AdvantageReport:
    """Advantage under the exact enumeration oracle; stderr is zero.

    The statistic is evaluated once, through the batch path, on the union
    of the two supports.  For integer-valued statistics the moments are
    exact integer sums over the ensembles' state counts and each reported
    float is the correctly rounded rational value; other statistics fall
    back to float sums.  ``pmfs`` lets a caller evaluating several
    statistics on one instance reuse the (planted, null) enumeration.
    """
    if pmfs is not None:
        planted, null = pmfs
    else:
        planted = exact_pmf(h, params, "planted", rational=True)
        null = exact_pmf(h, params, "null", rational=True)
    p, q = planted.ensemble, null.ensemble
    keys = union_keys(p.keys, q.keys)
    raw = stat.batch(unpack(keys, binom(params.n, params.r)))
    rounded = np.rint(raw)
    if np.array_equal(raw, rounded) and np.abs(rounded).max(initial=0) < 2 ** 31:
        values, moment = rounded.astype(np.int64), Ensemble.weighted_sum
    else:
        values, moment = raw, lambda ens, v: float(np.dot(ens.counts, v))
    vp = values[np.searchsorted(keys, p.keys)]
    vq = values[np.searchsorted(keys, q.keys)]
    sum_p, sum_q, sum_q2 = moment(p, vp), moment(q, vq), moment(q, vq * vq)
    dp, dq = p.denom, q.denom
    var_num = sum_q2 * dq - sum_q * sum_q
    if var_num <= 0:
        raise DegenerateNullVariance(
            f"statistic {stat.name!r} has zero variance under the null"
        )
    var_q = var_num / (dq * dq)
    adv = ((sum_p * dq - sum_q * dp) / (dp * dq)) / math.sqrt(var_q)
    return AdvantageReport(
        statistic=stat.name, mean_planted=sum_p / dp, mean_null=sum_q / dq,
        var_null=var_q, advantage=adv, stderr=0.0, mode="exact", trials=0,
    )


def edge_count_advantage_formula(h: Hypergraph, params: ModelParams) -> float:
    """Closed-form exact advantage of the spin-sum statistic.

    The planted mean is the total template spin sum, the null mean the
    leaked-internal part, and the null variance counts the free
    coordinates; agreement with the enumeration oracle is exercised in
    the test suite.
    """
    _check_shapes(h, params)
    n_free = binom(params.n, params.r) - binom(params.ell, params.r)
    if n_free == 0:
        raise DegenerateNullVariance("no free coordinates; null variance is zero")
    leaked = set(params.L)
    gap = 0
    for j, f in enumerate(subset_table(params.k, params.r)):
        if not set(int(v) for v in f) <= leaked:
            gap += int(h.spin(j))
    return gap / math.sqrt(n_free)


def mean_abs_edge_count_advantage(n: int, k: int, r: int, h_samples: int,
                                  seed: int) -> tuple[float, float]:
    """Mean of |advantage| of the spin-sum statistic over random templates.

    Returns (mean, standard error of the mean).
    """
    if h_samples < 2:
        raise ValidationError("need at least 2 template samples")
    params = ModelParams(n=n, k=k, r=r)
    rng = trial_rng(seed, n, k)
    vals = np.empty(h_samples)
    for i in range(h_samples):
        vals[i] = abs(edge_count_advantage_formula(sample_H(k, r, rng), params))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(h_samples))
