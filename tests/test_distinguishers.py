import math

import numpy as np
import pytest

from plantedsub.distinguishers import (AdvantageReport, edge_count_advantage_formula,
                                       edge_count_stat, estimate_advantage,
                                       exact_advantage, leakage_match_stat,
                                       linear_leakage_stat, make_edge_count,
                                       make_leakage_match, make_linear_leakage,
                                       make_statistic, make_subgraph_presence,
                                       mean_abs_edge_count_advantage,
                                       subgraph_presence_stat)
from plantedsub.errors import (DegenerateNullVariance, GuardExceeded,
                               ValidationError)
from plantedsub.hypercore import Hypergraph, binom
from plantedsub.lowdegree import lr_squared_exact
from plantedsub.models import (ModelParams, make_rng, sample_H,
                               sample_null_bits, sample_planted_bits,
                               trial_rng)

TRIANGLE = Hypergraph.from_present(3, 2, [[0, 1], [0, 2], [1, 2]])


def test_edge_count_extremes():
    assert edge_count_stat(Hypergraph.empty(4, 2)) == 6
    assert edge_count_stat(Hypergraph.from_mask(4, 2, (1 << 6) - 1)) == -6


def test_edge_count_exact_triangle():
    p = ModelParams(n=4, k=3, r=2)
    rep = exact_advantage(make_edge_count(p), TRIANGLE, p)
    assert rep.advantage == pytest.approx(-3 / math.sqrt(6), abs=1e-12)
    assert (rep.mean_planted, rep.mean_null, rep.var_null) == (-3.0, 0.0, 6.0)
    assert rep.stderr == 0.0 and rep.mode == "exact"


def test_edge_count_formula_matches_oracle():
    for (n, k, r, L, seed) in [(4, 3, 2, (), 0), (5, 4, 2, (0, 1), 1), (5, 3, 3, (0,), 2)]:
        p = ModelParams(n=n, k=k, r=r, L=L)
        h = sample_H(k, r, make_rng(seed))
        rep = exact_advantage(make_edge_count(p), h, p)
        assert edge_count_advantage_formula(h, p) == pytest.approx(rep.advantage, abs=1e-12)


def test_subgraph_presence_planted_always_accepts():
    p = ModelParams(n=6, k=4, r=2, L=(0,))
    h = sample_H(4, 2, make_rng(3))
    stat = make_subgraph_presence(h, p, 3)
    bits = sample_planted_bits(h, p, 500, make_rng(4))
    assert stat.batch(bits).min() == 1.0


def test_subgraph_presence_examples():
    # pattern = single present edge, null host on 6 free coordinates
    h = Hypergraph.from_present(2, 2, [[0, 1]])
    p = ModelParams(n=4, k=2, r=2)
    rep = exact_advantage(make_subgraph_presence(h, p, 2), h, p)
    assert rep.mean_null == pytest.approx(63 / 64, abs=1e-15)
    assert rep.mean_planted == 1.0
    # all-absent host cannot contain a present edge
    assert subgraph_presence_stat(Hypergraph.empty(4, 2), h, 2) == 0


def test_subgraph_presence_guard_and_validation():
    p = ModelParams(n=30, k=8, r=2)
    h = sample_H(8, 2, make_rng(5))
    with pytest.raises(GuardExceeded):
        make_subgraph_presence(h, p, 8)
    with pytest.raises(ValidationError):
        make_subgraph_presence(h, p, 9)


def test_leakage_match_planted_complete():
    p = ModelParams(n=8, k=4, r=2, L=(0, 1, 2))
    h = sample_H(4, 2, make_rng(6))
    stat = make_leakage_match(h, p)
    assert stat.declared_degree == binom(3, 1)
    bits = sample_planted_bits(h, p, 2000, make_rng(7))
    assert stat.batch(bits).min() == 1.0


def test_leakage_match_null_accept_single_candidate():
    # one candidate vertex, one pattern bit: null accepts with probability 1/2
    p = ModelParams(n=2, k=2, r=2, L=(0,))
    h = sample_H(2, 2, make_rng(8))
    rep = exact_advantage(make_leakage_match(h, p, 1), h, p)
    assert rep.mean_null == 0.5


def test_leakage_match_null_accept_rate():
    p = ModelParams(n=8, k=4, r=2, L=(0, 1, 2))
    h = sample_H(4, 2, make_rng(9))
    stat = make_leakage_match(h, p)
    draws = 10000
    accept = stat.batch(sample_null_bits(h, p, draws, make_rng(10))).mean()
    exact = 1 - (7 / 8) ** 5
    assert abs(accept - exact) <= 4 * math.sqrt(exact * (1 - exact) / draws)


def test_leakage_match_validation():
    h = sample_H(4, 2, make_rng(11))
    with pytest.raises(ValidationError):
        make_leakage_match(h, ModelParams(n=8, k=4, r=2))  # ell < r - 1
    with pytest.raises(ValidationError):
        make_leakage_match(h, ModelParams(n=8, k=4, r=2, L=(0, 1, 2, 3)))  # k = ell
    with pytest.raises(ValidationError):
        make_leakage_match(h, ModelParams(n=8, k=4, r=2, L=(0, 1)), w=1)  # w in L
    assert leakage_match_stat is not None


def test_linear_leakage_planted_full_size():
    p = ModelParams(n=5, k=5, r=2, L=(0,))
    h = sample_H(5, 2, make_rng(12))
    stat = make_linear_leakage(h, p)
    bits = sample_planted_bits(h, p, 300, make_rng(13))
    assert stat.batch(bits).min() == 1.0


def test_linear_leakage_zero_sums_match():
    # template stem sum 0 and host stem sum 0 agree through sign(0) = +1
    h = Hypergraph.from_present(3, 2, [[0, 1]])  # spins at (0,1), (0,2): -1, +1
    g = Hypergraph.from_present(5, 2, [[0, 1], [0, 2]])  # two of four stem edges present
    assert linear_leakage_stat(g, h, (0,)) == 1


def test_linear_leakage_declared_degree_covers_indicator():
    p = ModelParams(n=6, k=4, r=2, L=(0,))
    h = sample_H(4, 2, make_rng(14))
    assert make_linear_leakage(h, p).declared_degree == 5


def test_linear_leakage_planted_null_gap():
    # all-present template: stem sum is strongly negative under planting
    p = ModelParams(n=32, k=8, r=2, L=(0,))
    h = Hypergraph.from_mask(8, 2, (1 << binom(8, 2)) - 1)
    stat = make_linear_leakage(h, p)
    draws = 40000
    acc_p = stat.batch(sample_planted_bits(h, p, draws, trial_rng(15, 0))).mean()
    acc_q = stat.batch(sample_null_bits(h, p, draws, trial_rng(15, 1))).mean()
    sigma = math.sqrt(acc_p * (1 - acc_p) / draws + acc_q * (1 - acc_q) / draws)
    assert acc_p - acc_q > 4 * sigma


def test_estimate_degenerate_variance():
    p = ModelParams(n=4, k=3, r=2)
    h = sample_H(3, 2, make_rng(16))
    from plantedsub.distinguishers import Statistic

    const = Statistic("const", 1, lambda bits: np.ones(bits.shape[0]))
    with pytest.raises(DegenerateNullVariance):
        estimate_advantage(const, h, p, 100, seed=0)
    with pytest.raises(ValidationError):
        estimate_advantage(make_edge_count(p), h, p, 1, seed=0)


def test_estimate_zero_gap_when_fully_leaked():
    p = ModelParams(n=4, k=2, r=2, L=(0, 1))
    h = sample_H(2, 2, make_rng(17))
    rep = estimate_advantage(make_edge_count(p), h, p, 20000, seed=18)
    assert abs(rep.advantage) <= 4 * rep.stderr


def test_estimate_matches_exact():
    p = ModelParams(n=4, k=3, r=2)
    mc = estimate_advantage(make_edge_count(p), TRIANGLE, p, 100000, seed=19)
    exact = exact_advantage(make_edge_count(p), TRIANGLE, p)
    assert abs(mc.advantage - exact.advantage) <= 4 * mc.stderr
    assert mc.mode == "montecarlo" and mc.trials == 100000


def test_estimate_deterministic():
    p = ModelParams(n=5, k=3, r=2, L=(0,))
    h = sample_H(3, 2, make_rng(20))
    a = estimate_advantage(make_edge_count(p), h, p, 5000, seed=21)
    b = estimate_advantage(make_edge_count(p), h, p, 5000, seed=21)
    assert a == b


def test_exact_advantage_requires_null_variance():
    # fully-determined host: every statistic is constant under the null
    p = ModelParams(n=3, k=3, r=2, L=(0, 1, 2))
    h = sample_H(3, 2, make_rng(22))
    with pytest.raises(DegenerateNullVariance):
        exact_advantage(make_edge_count(p), h, p)


def test_advantage_bounded_by_lr_at_declared_degree():
    p = ModelParams(n=4, k=3, r=2, L=(0,))
    h = sample_H(3, 2, make_rng(23))
    lr = lr_squared_exact(h, p)
    for name in ("edgecount", "subgraph", "leakmatch", "linear"):
        stat = make_statistic(name, h, p)
        rep = exact_advantage(stat, h, p)
        assert abs(rep.advantage) <= math.sqrt(float(lr.at_degree(stat.declared_degree))) + 1e-9


def test_make_statistic_unknown():
    p = ModelParams(n=4, k=3, r=2)
    with pytest.raises(ValidationError):
        make_statistic("spectral", sample_H(3, 2, make_rng(24)), p)


def test_mean_abs_advantage_increasing_in_k():
    values = [mean_abs_edge_count_advantage(64, k, 2, 400, seed=25)[0] for k in (4, 8, 16)]
    assert values[0] < values[1] < values[2]


def test_report_serialization():
    rep = AdvantageReport("edgecount", -3.0, 0.0, 6.0, -1.22, 0.0, "exact", 0)
    out = rep.to_json_dict()
    assert out["statistic"] == "edgecount" and out["mode"] == "exact"


def test_estimate_advantage_chunks_within_byte_budget(monkeypatch):
    import plantedsub.distinguishers as dist
    from plantedsub.distinguishers import CHUNK_BYTE_BUDGET, Statistic

    sizes = []

    def stub_sampler(h, params, trials, rng, columns=None):
        sizes.append(trials)
        return np.zeros((trials, 1), dtype=np.uint8)  # stands in for (trials, C(n, r))

    monkeypatch.setattr(dist, "sample_planted_bits", stub_sampler)
    monkeypatch.setattr(dist, "sample_null_bits", stub_sampler)
    stat = Statistic("alternating", 1, lambda bits: np.arange(bits.shape[0]) % 2.0)
    h = sample_H(4, 2, make_rng(0))

    params = ModelParams(n=2000, k=4, r=2)  # C(2000, 2) = 1999000 bytes per trial
    per_chunk = CHUNK_BYTE_BUDGET // binom(2000, 2)
    assert 1 < per_chunk < 100
    estimate_advantage(stat, h, params, trials=100, seed=1)
    assert max(sizes) * binom(2000, 2) <= CHUNK_BYTE_BUDGET
    assert sizes == 2 * ([per_chunk] * (100 // per_chunk) + [100 % per_chunk])

    sizes.clear()
    estimate_advantage(stat, h, ModelParams(n=64, k=4, r=2), trials=20000, seed=1)
    assert sizes == 2 * [8192, 8192, 3616]

    sizes.clear()
    wide = ModelParams(n=12000, k=4, r=2)  # C(12000, 2) = 71994000 bytes per trial
    with pytest.raises(GuardExceeded, match=f"71994000 bytes.*{CHUNK_BYTE_BUDGET} bytes"):
        estimate_advantage(stat, h, wide, trials=100, seed=1)
    assert sizes == []


def test_estimate_advantage_chunks_by_projected_width(monkeypatch):
    import dataclasses

    import plantedsub.distinguishers as dist

    calls = []

    def stub_sampler(h, params, trials, rng, columns=None):
        calls.append((trials, columns))
        width = binom(params.n, params.r) if columns is None else columns.size
        return np.zeros((trials, min(width, 1)), dtype=np.uint8)

    monkeypatch.setattr(dist, "sample_planted_bits", stub_sampler)
    monkeypatch.setattr(dist, "sample_null_bits", stub_sampler)
    alternating = lambda bits: np.arange(bits.shape[0]) % 2.0  # noqa: E731
    params = ModelParams(n=2000, k=6, r=2, L=(0, 1, 2, 3))
    h = sample_H(6, 2, make_rng(0))
    leak = make_leakage_match(h, params)
    assert leak.columns.size == 4 * 1996 == 7984
    stat = dataclasses.replace(leak, batch=alternating)
    estimate_advantage(stat, h, params, trials=20000, seed=1)
    assert [t for t, _ in calls] == 2 * [8192, 8192, 3616]  # 33 per chunk over C(n, r)
    assert all(c is leak.columns for _, c in calls)

    # a statistic that reads every coordinate keeps the C(n, r) chunking
    calls.clear()
    full = dataclasses.replace(make_edge_count(params), batch=alternating)
    estimate_advantage(full, h, params, trials=100, seed=1)
    assert [t for t, _ in calls] == 2 * [33, 33, 33, 1]
    assert all(c is None for _, c in calls)

    # past the coordinate count the budget allows, a projected row still fits
    calls.clear()
    wide = ModelParams(n=12000, k=6, r=2, L=(0, 1, 2, 3))
    wide_stat = dataclasses.replace(make_leakage_match(h, wide), batch=alternating)
    estimate_advantage(wide_stat, h, wide, trials=100, seed=1)
    assert [t for t, _ in calls] == [100, 100]

    # the guard fires only when one projected row passes the budget
    calls.clear()
    monkeypatch.setattr(dist, "CHUNK_BYTE_BUDGET", 2 * 7984)
    estimate_advantage(stat, h, params, trials=6, seed=1)
    assert [t for t, _ in calls] == 2 * [2, 2, 2]
    calls.clear()
    monkeypatch.setattr(dist, "CHUNK_BYTE_BUDGET", 7983)
    with pytest.raises(GuardExceeded, match="7984 bytes.*7983 bytes"):
        estimate_advantage(stat, h, params, trials=3, seed=1)
    assert calls == []


@pytest.mark.parametrize("n", [362, 363])
def test_edge_count_sum_does_not_wrap(n):
    # C(362, 2) = 65341 sums in uint16, C(363, 2) = 65703 >= 2**16 in int64
    m = binom(n, 2)
    assert (m < 2 ** 16) == (n == 362)
    stat = make_edge_count(ModelParams(n=n, k=3, r=2))
    bits = np.zeros((3, m), dtype=np.uint8)
    bits[1] = 1
    bits[2, ::2] = 1
    assert stat.batch(bits).tolist() == [m, -m, m - 2 * ((m + 1) // 2)]
