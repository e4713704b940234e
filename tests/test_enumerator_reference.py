"""The PSM and secret-sharing enumerators against per-state reference loops.

``reference_real``, ``reference_simulated`` and ``reference_deal`` walk
every state of the process they describe in Python, one Fraction (or
one count) per state: template coins, private injection, host coins,
selector atoms, published coins.  The package builds the same laws as
integer-count ensembles; both must agree exactly, key for key.
"""

import itertools
import math
from fractions import Fraction

import pytest

from plantedsub.hypercore import binom, rank_subset, subset_table
from plantedsub.models import make_rng, tv_dict
from plantedsub.psm import (ConstantSelector, FunctionTable, TableSelector, UniformSelector,
                            cross_set, enumerate_protocol_ensemble, enumerate_real_ensemble,
                            enumerate_simulated_ensemble, part_vertex)
from plantedsub.secretshare import AccessStructure, deal_ensemble_pmf, secrecy_tv

EDGE01 = AccessStructure(k=3, r=2, sets=[frozenset({0, 1})], l=2)


def _add(states: dict, key, weight) -> None:
    states[key] = states.get(key, 0) + weight


def _masks(base: int, free):
    """Every mask equal to ``base`` off ``free``, one per coin pattern on it."""
    for pat in range(1 << len(free)):
        mask = base
        for idx, pos in enumerate(free):
            if (pat >> idx) & 1:
                mask |= 1 << pos
        yield mask


def reference_real(f: FunctionTable, selector, n: int) -> dict:
    """(messages, host) law: template coins x private injections x host coins x atoms."""
    n_v = f.r * f.k
    m_t, m_n = binom(n_v, f.r), binom(n, f.r)
    cross = {rank_subset(cross_set(xs, f.k), n_v): f.bit(xs)
             for xs in itertools.product(range(f.k), repeat=f.r)}
    coin_pos = [j for j in range(m_t) if j not in cross]
    n_inj = math.perm(n, n_v)
    tmpl_subsets = subset_table(n_v, f.r)
    states: dict = {}
    for pat in range(1 << len(coin_pos)):
        t_bits = dict(cross)
        for idx, j in enumerate(coin_pos):
            t_bits[j] = (pat >> idx) & 1
        for targets in itertools.permutations(range(n), n_v):
            covered = {}
            for j in range(m_t):
                pos = rank_subset(sorted(targets[int(v)] for v in tmpl_subsets[j]), n)
                covered[pos] = t_bits[j]
            base = sum(b << pos for pos, b in covered.items())
            free = [pos for pos in range(m_n) if pos not in covered]
            w = Fraction(1, (1 << len(coin_pos)) * n_inj * (1 << len(free)))
            for g_mask in _masks(base, free):
                for xs, sel_w in selector.distribution(f):
                    u = tuple(targets[part_vertex(x, i, f.k)] for i, x in enumerate(xs))
                    _add(states, (u, g_mask), w * sel_w)
    return states


def reference_simulated(f: FunctionTable, selector, n: int) -> dict:
    """The simulator's (labels, host) law: atoms x distinct labels x host coins."""
    m_n = binom(n, f.r)
    n_lab = math.perm(n, f.r)
    states: dict = {}
    for xs, sel_w in selector.distribution(f):
        y = f.bit(xs)
        for labels in itertools.permutations(range(n), f.r):
            forced = rank_subset(sorted(labels), n)
            free = [pos for pos in range(m_n) if pos != forced]
            w = sel_w * Fraction(1, n_lab * (1 << len(free)))
            for g_mask in _masks(y << forced, free):
                _add(states, (labels, g_mask), w)
    return states


def reference_planted_states(access: AccessStructure, n: int, fixed):
    """Yield (h_mask, g_mask, targets) uniformly over embedding x template x host coins."""
    k, r = access.k, access.r
    m_n, m_k = binom(n, r), binom(k, r)
    avail = [v for v in range(n) if v not in fixed]
    free_src = [u for u in range(k) if u not in fixed]
    k_subsets = subset_table(k, r)
    for sel in itertools.permutations(avail, len(free_src)):
        targets = list(range(k))
        for u, t in zip(free_src, sel):
            targets[u] = t
        covered = [rank_subset(sorted(targets[int(u)] for u in k_subsets[j]), n)
                   for j in range(m_k)]
        free = sorted(set(range(m_n)) - set(covered))
        for h_mask in range(1 << m_k):
            base = sum(1 << pos for j, pos in enumerate(covered) if (h_mask >> j) & 1)
            for g_mask in _masks(base, free):
                yield h_mask, g_mask, tuple(targets)


def reference_deal(access: AccessStructure, s: int, n: int, leaked, *,
                   tie_public: bool, fix_leaked: bool) -> dict:
    """(published template, host, shares of the leaked set) law of the dealer."""
    group = tuple(sorted(leaked))
    m_k = binom(access.k, access.r)
    in_r = {rank_subset(sorted(a), access.k) for a in access.sets}
    non_r = [j for j in range(m_k) if j not in in_r]
    states: dict = {}
    count = 0
    for h_mask, g_mask, targets in reference_planted_states(
            access, n, group if fix_leaked else ()):
        pub_base = 0
        for j in range(m_k):
            if ((h_mask >> j) & 1) ^ (s if j in in_r else 0):
                pub_base |= 1 << j
        if tie_public:
            pubs = [pub_base]
        else:
            pubs = _masks(pub_base & ~sum(1 << j for j in non_r), non_r)
        for pub in pubs:
            _add(states, (pub, g_mask, tuple(targets[i] for i in group)), 1)
            count += 1
    return {key: Fraction(c, count) for key, c in states.items()}


PSM_CASES = [(1, 2, 2), (1, 2, 3), (2, 2, 4), (2, 2, 5), (1, 3, 4), (1, 3, 5)]


def _selectors(f: FunctionTable):
    last = tuple(range(f.r))[::-1]
    inputs = tuple(min(x, f.k - 1) for x in last)
    return {"uniform": UniformSelector(), "constant": ConstantSelector(inputs),
            "table": TableSelector({f.bits: inputs})}


@pytest.mark.parametrize("selector", ["uniform", "constant", "table"])
@pytest.mark.parametrize("k,r,n", PSM_CASES)
def test_psm_ensembles_match_reference(k, r, n, selector):
    f = FunctionTable.random(k, r, make_rng(10 * k + r + n))
    sel = _selectors(f)[selector]
    real, sim = enumerate_real_ensemble(f, sel, n), enumerate_simulated_ensemble(f, sel, n)
    ref_real, ref_sim = reference_real(f, sel, n), reference_simulated(f, sel, n)
    assert real == ref_real and len(real) == len(ref_real)
    assert sim == ref_sim and len(sim) == len(ref_sim)
    assert tv_dict(real, sim) == tv_dict(dict(ref_real), dict(ref_sim))


def test_protocol_ensemble_mixes_real_ensembles():
    sel = UniformSelector()
    protocol = enumerate_protocol_ensemble(1, 2, 3, sel)
    for bits in ((0,), (1,)):
        f = FunctionTable.from_bits(1, 2, bits)
        inner = {key[1:]: 2 * w for key, w in protocol.items() if key[0] == bits}
        assert inner == reference_real(f, sel, 3)


@pytest.mark.parametrize("fix_leaked", [True, False])
@pytest.mark.parametrize("tie_public", [True, False])
@pytest.mark.parametrize("leaked", [(), (2,), (1, 2)])
@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("n", [3, 4])
def test_deal_ensemble_matches_reference(n, s, leaked, tie_public, fix_leaked):
    got = deal_ensemble_pmf(EDGE01, s, n, leaked, tie_public=tie_public,
                            fix_leaked=fix_leaked)
    ref = reference_deal(EDGE01, s, n, leaked, tie_public=tie_public, fix_leaked=fix_leaked)
    assert got == ref and len(got) == len(ref)


@pytest.mark.parametrize("leaked", [(), (2,), (1, 2), (0, 1)])
def test_secrecy_tv_matches_reference_dealer(leaked):
    views = [reference_deal(EDGE01, s, 4, leaked, tie_public=False, fix_leaked=False)
             for s in (0, 1)]
    assert secrecy_tv(EDGE01, leaked, 4) == tv_dict(*views)
