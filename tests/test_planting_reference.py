"""The planting step, the PSM and dealer setups and the vectorised rank
tables against per-subset reference loops.

Each ``reference_*`` function walks its subsets one ``rank_subset`` call
at a time, drawing from the rng in the same order as the package.  The
package plants through ``models.plant`` and ranks whole tables at once;
both must agree exactly, and the package must not fall back on the
scalar ranker for these tables.
"""

import inspect
import itertools
import sys

import numpy as np
import pytest

from plantedsub import hypercore
from plantedsub.distinguishers import make_leakage_match, make_linear_leakage
from plantedsub.errors import ValidationError
from plantedsub.hypercore import Hypergraph, binom, rank_subset, subset_table
from plantedsub.models import ModelParams, make_rng, sample_embedding, sample_H
from plantedsub.psm import (FunctionTable, cross_set, embed_function, psm_setup,
                            template_to_table)
from plantedsub.secretshare import AccessStructure, deal, lift


def reference_plant(h_bits, n: int, k: int, r: int, rng):
    """Embedding, host coins, then one template bit per subset of [0, k)."""
    emb = sample_embedding(ModelParams(n=n, k=k, r=r), rng)
    bits = rng.integers(0, 2, size=binom(n, r), dtype=np.uint8)
    for j, sub in enumerate(subset_table(k, r)):
        bits[rank_subset(emb.apply(sub), n)] = h_bits[j]
    return Hypergraph.from_bits(n, r, bits), emb


def reference_embed_function(f: FunctionTable, rng) -> Hypergraph:
    n_v = f.r * f.k
    bits = rng.integers(0, 2, size=binom(n_v, f.r), dtype=np.uint8)
    for inputs in itertools.product(range(f.k), repeat=f.r):
        bits[rank_subset(cross_set(inputs, f.k), n_v)] = f.bit(inputs)
    return Hypergraph.from_bits(n_v, f.r, bits)


def reference_template_to_table(h: Hypergraph, k: int) -> FunctionTable:
    spins = [h.spin(rank_subset(cross_set(inputs, k), h.n))
             for inputs in itertools.product(range(k), repeat=h.r)]
    return FunctionTable(k, h.r, tuple(spins))


def reference_psm_setup(f: FunctionTable, n: int, rng):
    fbar = reference_embed_function(f, rng)
    g, emb = reference_plant(fbar.bits, n, f.r * f.k, f.r, rng)
    return fbar, g, emb


def reference_deal(access: AccessStructure, s: int, n: int, rng):
    k, r = access.k, access.r
    h = sample_H(k, r, rng)
    g, emb = reference_plant(h.bits, n, k, r, rng)
    in_r = {rank_subset(sorted(a), k) for a in access.sets}
    hs_bits = np.empty(binom(k, r), dtype=np.uint8)
    for j in range(hs_bits.size):
        hs_bits[j] = h.bits[j] ^ s if j in in_r else rng.integers(0, 2)
    return Hypergraph.from_bits(k, r, hs_bits), g, emb.targets


def reference_leakmatch_tables(h: Hypergraph, params: ModelParams, w: int):
    stems = list(itertools.combinations(params.L, params.r - 1))
    pattern = [h.bit(rank_subset(sorted(t + (w,)), params.k)) for t in stems]
    cand = [[rank_subset(sorted(t + (v,)), params.n) for t in stems]
            for v in range(params.n) if v not in params.L]
    return pattern, cand


def reference_linear_tables(h: Hypergraph, params: ModelParams):
    stem = params.L[: params.r - 1]
    h_sum = sum(h.spin(rank_subset(sorted(stem + (v,)), params.k))
                for v in range(params.k) if v not in params.L)
    g_pos = [rank_subset(sorted(stem + (v,)), params.n)
             for v in range(params.n) if v not in params.L]
    return (1 if h_sum >= 0 else -1), g_pos


def reference_from_json_dict(obj: dict) -> Hypergraph:
    n, r = obj["n"], obj["r"]
    bits = np.zeros(binom(n, r), dtype=np.uint8)
    for e in obj["present"]:
        bits[rank_subset(sorted(e), n)] = 1
    return Hypergraph.from_bits(n, r, bits)


def _tables(stat):
    return inspect.getclosurevars(stat.batch).nonlocals


ACCESS = [
    (AccessStructure(k=3, r=2, sets=[frozenset({0, 1})], l=2), 5),
    (AccessStructure(k=4, r=2, sets=[frozenset({0, 1}), frozenset({2, 3}),
                                     frozenset({1, 2})], l=1), 7),
    (AccessStructure(k=5, r=3, sets=[frozenset({0, 1, 2}), frozenset({2, 3, 4})], l=1), 9),
    (lift(AccessStructure(k=3, r=3, sets=[frozenset({0, 1}), frozenset({2})], l=1)), 8),
    (AccessStructure(k=3, r=2, sets=[], l=1), 4),
]


@pytest.mark.parametrize("k,r,n", [(1, 2, 2), (2, 2, 5), (3, 2, 9), (1, 3, 4), (2, 3, 8)])
def test_psm_setup_matches_reference(k, r, n):
    for seed in range(6):
        f = FunctionTable.random(k, r, make_rng(seed))
        inst = psm_setup(f, n, make_rng(seed + 100))
        fbar, g, emb = reference_psm_setup(f, n, make_rng(seed + 100))
        assert (inst.fbar, inst.g, inst.phi) == (fbar, g, emb)


@pytest.mark.parametrize("k,r", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_embed_function_and_table_match_reference(k, r):
    for seed in range(6):
        f = FunctionTable.random(k, r, make_rng(seed))
        fbar = embed_function(f, make_rng(seed + 1))
        assert fbar == reference_embed_function(f, make_rng(seed + 1))
        assert template_to_table(fbar, k) == reference_template_to_table(fbar, k) == f
        noise = sample_H(r * k, r, make_rng(seed + 2))
        assert template_to_table(noise, k) == reference_template_to_table(noise, k)


@pytest.mark.parametrize("case", range(len(ACCESS)))
def test_deal_matches_reference(case):
    access, n = ACCESS[case]
    for seed, s in itertools.product(range(6), (0, 1)):
        bundle = deal(access, s, n, make_rng(seed))
        h_s, g, shares = reference_deal(access, s, n, make_rng(seed))
        assert (bundle.h_s, bundle.g, bundle.shares) == (h_s, g, shares)


@pytest.mark.parametrize("n,k,r,L", [(9, 5, 2, (0,)), (9, 5, 2, (0, 2, 3)),
                                     (64, 16, 2, (0, 1, 2, 3)), (8, 5, 3, (0, 1)),
                                     (10, 6, 3, (1, 2, 4)), (7, 4, 3, (0, 1, 2, 3))])
def test_leakage_tables_match_reference(n, k, r, L):
    params = ModelParams(n=n, k=k, r=r, L=L)
    for seed in range(4):
        h = sample_H(k, r, make_rng(seed))
        target, g_pos = reference_linear_tables(h, params)
        linear = _tables(make_linear_leakage(h, params))
        assert linear["target"] == target
        assert linear["g_pos"].dtype == np.int64 and linear["g_pos"].tolist() == g_pos
        if k == len(L):
            continue
        for w in (u for u in range(k) if u not in L):
            pattern, cand = reference_leakmatch_tables(h, params, w)
            got = _tables(make_leakage_match(h, params, w))
            assert got["pattern"].dtype == np.uint8 and got["pattern"].tolist() == pattern
            assert got["cand"].dtype == np.int64 and got["cand"].tolist() == cand


@pytest.mark.parametrize("n,r", [(6, 2), (9, 2), (64, 2), (5, 3), (8, 3), (2, 3)])
def test_from_json_dict_matches_reference(n, r):
    rng = make_rng(n * r)
    subsets = subset_table(n, r).tolist()
    for density in (0.0, 0.3, 0.7, 1.0):
        keep = [e for e in subsets if rng.random() < density]
        present = [list(rng.permutation(e)) for e in keep]
        rng.shuffle(present)
        obj = {"n": n, "r": r, "present": [[int(v) for v in e] for e in present]}
        g = Hypergraph.from_json_dict(obj)
        assert g == reference_from_json_dict(obj)


def test_from_present_refuses_what_the_json_parse_refuses():
    for edges in ([[0, 1], [1, 0]], [[0, 1, 2]], [[0, 0]], [[0, 4]], [[0, 1], [2]]):
        with pytest.raises(ValidationError):
            Hypergraph.from_present(4, 2, edges)


@pytest.fixture
def rank_subset_calls(monkeypatch):
    """Every call to ``hypercore.rank_subset``, wherever the package bound it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return rank_subset(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("plantedsub") and getattr(module, "rank_subset", None) is rank_subset:
            monkeypatch.setattr(module, "rank_subset", spy)
    return calls


def test_planting_and_table_builders_do_not_rank_one_subset_at_a_time(rank_subset_calls):
    host = sample_H(64, 2, make_rng(1))
    assert Hypergraph.from_json_dict(host.to_json_dict()) == host
    f = FunctionTable.random(2, 2, make_rng(2))
    psm_setup(f, 12, make_rng(3))
    access = AccessStructure(k=4, r=2, sets=[frozenset({0, 1}), frozenset({2, 3})], l=1)
    deal(access, 1, 12, make_rng(4))
    for r, L in ((2, (0, 1, 2, 3)), (3, (0, 1, 2))):
        params = ModelParams(n=20, k=8, r=r, L=L)
        h = sample_H(8, r, make_rng(5))
        make_leakage_match(h, params)
        make_linear_leakage(h, params)
    assert rank_subset_calls == []
    host.edge_bit((0, 1))  # the scalar lookup stays, and the spy sees it
    assert len(rank_subset_calls) == 1
    assert hypercore.rank_subset is not rank_subset
