import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from plantedsub.errors import GuardExceeded, ValidationError
from plantedsub.hypercore import Hypergraph, binom, rank_subset, relabel
from plantedsub.models import (ModelParams, chi_square, exact_pmf, make_rng,
                               sample_H, sample_embedding,
                               sample_embedding_targets_batch, sample_null,
                               sample_null_bits, sample_planted,
                               sample_planted_bits, trial_rng, tv_distance,
                               tv_dict)


def test_params_validation():
    ModelParams(n=5, k=3, r=2, L=(0, 2))
    with pytest.raises(ValidationError):
        ModelParams(n=5, k=6, r=2)
    with pytest.raises(ValidationError):
        ModelParams(n=5, k=3, r=1)
    with pytest.raises(ValidationError):
        ModelParams(n=5, k=3, r=2, L=(0, 3))  # outside [0, k)
    with pytest.raises(ValidationError):
        ModelParams(n=5, k=3, r=2, L=(1, 0))  # unsorted
    with pytest.raises(ValidationError):
        ModelParams(n=3, k=2, r=4)


def test_params_json_roundtrip():
    p = ModelParams(n=6, k=4, r=3, L=(0, 1), seed=42)
    assert ModelParams.from_json_dict(p.to_json_dict()) == p


def test_sample_h_shapes():
    rng = make_rng(0)
    single = sample_H(2, 2, rng)
    assert single.num_coords == 1 and single.spin(0) in (-1, 1)
    empty = sample_H(2, 3, rng)
    assert empty.num_coords == 0


def test_sample_h_coordinate_means():
    rng = make_rng(1)
    total = np.zeros(binom(4, 2))
    draws = 10000
    for _ in range(draws):
        total += sample_H(4, 2, rng).spins
    assert np.all(np.abs(total / draws) <= 5 / math.sqrt(draws))


def test_embedding_fully_constrained_and_permutation():
    rng = make_rng(2)
    p_fixed = ModelParams(n=5, k=2, r=2, L=(0, 1))
    for _ in range(10):
        emb = sample_embedding(p_fixed, rng)
        assert emb.targets == (0, 1)
    p_perm = ModelParams(n=4, k=4, r=2)
    for _ in range(10):
        emb = sample_embedding(p_perm, rng)
        assert sorted(emb.targets) == [0, 1, 2, 3]


def test_embedding_frequencies_uniform():
    # n=3, k=2, no leakage: six injections, each 1/6 +- 3 sigma
    rng = make_rng(3)
    p = ModelParams(n=3, k=2, r=2)
    counts = {}
    draws = 12000
    for _ in range(draws):
        emb = sample_embedding(p, rng)
        counts[emb.targets] = counts.get(emb.targets, 0) + 1
    assert len(counts) == 6
    sigma = math.sqrt((1 / 6) * (5 / 6) / draws)
    for c in counts.values():
        assert abs(c / draws - 1 / 6) <= 3 * sigma


@pytest.mark.parametrize("n,k,L", [(5, 3, (0,)), (4, 4, ())])
def test_batch_embedding_draw_is_uniform(n, k, L):
    # every constrained injection within 5 sigma of 1 / count; (4, 4, ())
    # shuffles every free target, so the last step swaps a position with itself
    p = ModelParams(n=n, k=k, r=2, L=L)
    draws = 120_000
    phis = sample_embedding_targets_batch(p, draws, make_rng(31))
    assert phis.shape == (draws, k) and phis.dtype == np.int64
    assert (phis[:, list(L)] == np.array(L, dtype=np.int64)).all()
    assert (np.sort(phis, axis=1)[:, 1:] != np.sort(phis, axis=1)[:, :-1]).all()
    assert ((0 <= phis) & (phis < n)).all()
    free = [u for u in range(k) if u not in L]
    assert np.isin(phis[:, free], list(L)).sum() == 0
    count = math.perm(n - len(L), k - len(L))
    rows, freq = np.unique(phis, axis=0, return_counts=True)
    assert rows.shape[0] == count == (12 if L else 24)
    sigma = math.sqrt((1 / count) * (1 - 1 / count) / draws)
    assert np.abs(freq / draws - 1 / count).max() <= 5 * sigma


def test_planted_embeds_template():
    rng = make_rng(4)
    p = ModelParams(n=6, k=4, r=2, L=(0, 1))
    h = sample_H(4, 2, rng)
    state = np.random.default_rng(np.random.SeedSequence(99))
    g = sample_planted(h, p, state)
    # the planted copy fixes leaked vertices, so leaked-internal bits agree
    assert g.edge_bit((0, 1)) == h.edge_bit((0, 1))


def test_planted_full_size_is_relabeling():
    rng = make_rng(5)
    p = ModelParams(n=4, k=4, r=2)
    h = sample_H(4, 2, rng)
    for _ in range(10):
        g = sample_planted(h, p, rng)
        assert g.num_present == h.num_present  # relabeling preserves edge count


def test_planted_degenerate_small_template():
    p = ModelParams(n=4, k=2, r=3)
    h = sample_H(2, 3, make_rng(0))
    g = sample_planted(h, p, make_rng(1))
    assert g.num_coords == binom(4, 3)


def test_planted_marginals_uniform():
    # every host coordinate is marginally a fair coin once the template is
    # itself drawn fresh (for one fixed template the covered coordinates are
    # biased toward its bits; uniformity is a statement about the pair law)
    p = ModelParams(n=4, k=3, r=2)
    rng = make_rng(7)
    draws = 20000
    total = np.zeros(binom(4, 2))
    for _ in range(draws):
        h = sample_H(3, 2, rng)
        total += sample_planted(h, p, rng).spins
    assert np.all(np.abs(total / draws) <= 3 / math.sqrt(draws))


def test_null_agreement_and_degenerate():
    rng = make_rng(8)
    p = ModelParams(n=5, k=4, r=2, L=(0, 1, 2))
    h = sample_H(4, 2, rng)
    for _ in range(20):
        g = sample_null(h, p, rng)
        for f in itertools.combinations(p.L, 2):
            assert g.edge_bit(f) == h.edge_bit(f)
    p_all = ModelParams(n=3, k=3, r=2, L=(0, 1, 2))
    h3 = sample_H(3, 2, rng)
    assert sample_null(h3, p_all, rng) == h3


def test_determinism():
    p = ModelParams(n=6, k=4, r=2, L=(0,), seed=11)
    h = sample_H(4, 2, make_rng(11))
    a = sample_planted(h, p, trial_rng(11, 5))
    b = sample_planted(h, p, trial_rng(11, 5))
    assert a == b
    ba = sample_planted_bits(h, p, 7, trial_rng(11, 6))
    bb = sample_planted_bits(h, p, 7, trial_rng(11, 6))
    assert np.array_equal(ba, bb)


def test_exact_pmf_normalization_and_support():
    p = ModelParams(n=4, k=3, r=2, L=(0, 1))
    h = sample_H(3, 2, make_rng(12))
    for which in ("planted", "null"):
        pmf = exact_pmf(h, p, which)
        assert pmf.total() == 1
        for key in pmf.mass:
            got = (key >> rank_subset((0, 1), 4)) & 1
            assert got == h.edge_bit((0, 1))


def test_exact_pmf_planted_equals_null_when_fully_leaked():
    p = ModelParams(n=4, k=2, r=2, L=(0, 1))
    h = sample_H(2, 2, make_rng(13))
    assert exact_pmf(h, p, "planted").mass == exact_pmf(h, p, "null").mass


def test_exact_pmf_forced_edge_example():
    # single present edge template: the all-absent host has zero planted mass
    h = Hypergraph.from_present(2, 2, [[0, 1]])
    p = ModelParams(n=3, k=2, r=2)
    pmf = exact_pmf(h, p, "planted")
    assert pmf.prob(0) == 0
    assert exact_pmf(h, p, "null").prob(0) == Fraction(1, 8)


def test_exact_pmf_marginal_uniformity():
    # null: exact for every template; planted: exact once averaged over all
    # templates (a fixed unbalanced template biases its covered coordinates)
    for (n, k, r, L) in [(4, 3, 2, ()), (5, 3, 2, (0,)), (4, 4, 3, (0, 1)), (5, 4, 2, (0, 1))]:
        p = ModelParams(n=n, k=k, r=r, L=L)
        internal = {rank_subset(f, n) for f in itertools.combinations(L, r)}
        free = [pos for pos in range(binom(n, r)) if pos not in internal]

        h = sample_H(k, r, make_rng(n + k))
        null = exact_pmf(h, p, "null")
        for pos in free:
            assert sum(m for key, m in null.mass.items() if (key >> pos) & 1) == Fraction(1, 2)

        m_k = binom(k, r)
        averaged = {pos: Fraction(0) for pos in free}
        for mask in range(1 << m_k):
            pmf = exact_pmf(Hypergraph.from_mask(k, r, mask), p, "planted")
            for pos in free:
                averaged[pos] += sum(m for key, m in pmf.mass.items() if (key >> pos) & 1)
        for pos in free:
            assert averaged[pos] / (1 << m_k) == Fraction(1, 2)


def test_exact_pmf_relabeling_symmetry():
    # permuting non-leaked host vertices leaves the planted law unchanged
    p = ModelParams(n=4, k=3, r=2, L=(0,))
    h = sample_H(3, 2, make_rng(14))
    pmf = exact_pmf(h, p, "planted")
    pi = [0, 2, 3, 1]
    relabeled = {}
    for key, m in pmf.mass.items():
        new_key = relabel(Hypergraph.from_mask(4, 2, key), pi).mask
        relabeled[new_key] = relabeled.get(new_key, Fraction(0)) + m
    assert relabeled == pmf.mass


def test_sampler_pmf_agreement():
    p = ModelParams(n=3, k=2, r=2, L=(0,))
    h = sample_H(2, 2, make_rng(15))
    draws = 50000
    for which, sampler in (("planted", sample_planted_bits), ("null", sample_null_bits)):
        pmf = exact_pmf(h, p, which)
        bits = sampler(h, p, draws, make_rng(16))
        weights = 1 << np.arange(bits.shape[1], dtype=np.uint64)
        keys = (bits.astype(np.uint64) * weights).sum(axis=1)
        counts = dict(zip(*np.unique(keys, return_counts=True)))
        for key, prob in pmf.mass.items():
            freq = counts.get(key, 0) / draws
            sigma = math.sqrt(float(prob) * (1 - float(prob)) / draws)
            assert abs(freq - float(prob)) <= 4 * sigma + 1e-12


def test_pmf_guard():
    p = ModelParams(n=10, k=3, r=2)
    h = sample_H(3, 2, make_rng(17))
    with pytest.raises(GuardExceeded):
        exact_pmf(h, p, "null")


def test_tv_examples():
    p = ModelParams(n=4, k=2, r=2, L=(0, 1))
    h = sample_H(2, 2, make_rng(18))
    planted = exact_pmf(h, p, "planted")
    assert tv_distance(planted, planted) == 0
    assert tv_distance(planted, exact_pmf(h, p, "null")) == 0
    from plantedsub.models import Pmf

    a = Pmf(2, 2, {0: Fraction(1)})
    b = Pmf(2, 2, {1: Fraction(1)})
    assert tv_distance(a, b) == 1
    with pytest.raises(ValidationError):
        tv_distance(a, Pmf(3, 2, {0: Fraction(1)}))


def test_tv_dict():
    assert tv_dict({"a": Fraction(1)}, {"a": Fraction(1)}) == 0
    assert tv_dict({"a": Fraction(1)}, {"b": Fraction(1)}) == 1


def test_chi_square_requires_support():
    from plantedsub.models import Pmf

    p = Pmf(2, 2, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    q = Pmf(2, 2, {0: Fraction(1)})
    with pytest.raises(ValidationError):
        chi_square(p, q)
    assert chi_square(q, p) == 1


@pytest.mark.parametrize("n,r", [(7, 2), (12, 2), (8, 3)])
def test_batch_coins_packed(n, r):
    # 21, 66 and 56 coordinates: two are not a whole number of bytes
    params = ModelParams(n=n, k=3, r=r)
    h = sample_H(3, r, make_rng(0))
    m = binom(n, r)
    first = sample_null_bits(h, params, 13, make_rng(5))
    assert first.shape == (13, m) and first.dtype == np.uint8
    np.testing.assert_array_equal(first, sample_null_bits(h, params, 13, make_rng(5)))
    bits = sample_null_bits(h, params, 20000, make_rng(6))
    assert set(np.unique(bits).tolist()) <= {0, 1}
    sigma = 0.5 / math.sqrt(20000)
    assert np.abs(bits.mean(axis=0) - 0.5).max() < 5 * sigma
    planted = sample_planted_bits(h, params, 20000, make_rng(7))
    assert planted.shape == (20000, m) and planted.dtype == np.uint8


def test_single_draw_samplers_match_rank_subset_reference():
    for (n, k, r, L) in [(9, 5, 2, ()), (9, 5, 2, (0, 1, 2)), (7, 4, 3, (0, 1, 3))]:
        params = ModelParams(n=n, k=k, r=r, L=L)
        h = sample_H(k, r, make_rng(n + k))
        rng, ref_rng = make_rng(3), make_rng(3)
        for _ in range(5):
            emb = sample_embedding(params, ref_rng)
            bits = ref_rng.integers(0, 2, size=binom(n, r), dtype=np.uint8)
            for j, f in enumerate(itertools.combinations(range(k), r)):
                bits[rank_subset(emb.apply(f), n)] = h.bits[j]
            assert sample_planted(h, params, rng) == Hypergraph.from_bits(n, r, bits)
        for _ in range(5):
            bits = ref_rng.integers(0, 2, size=binom(n, r), dtype=np.uint8)
            for f in itertools.combinations(L, r):
                bits[rank_subset(f, n)] = h.bit(rank_subset(f, k))
            assert sample_null(h, params, rng) == Hypergraph.from_bits(n, r, bits)
