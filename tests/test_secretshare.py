import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from plantedsub.errors import GuardExceeded, ValidationError
from plantedsub.hypercore import Hypergraph, rank_subset
from plantedsub.models import make_rng, tv_dict
from plantedsub.secretshare import (SECRECY_STATE_GUARD, AccessStructure, CsirmazReport,
                                    ShareBundle, csirmaz_check, csirmaz_f,
                                    deal, deal_ensemble_pmf, encode_share,
                                    lift, mask_template,
                                    masked_null_ensemble_pmf,
                                    masked_planted_ensemble_pmf,
                                    published_template_ensemble_pmf,
                                    reconstruct, secrecy_reduction_map,
                                    secrecy_tv, share_bit_width)

EDGE01 = AccessStructure(k=3, r=2, sets=[frozenset({0, 1})], l=2)


def test_access_structure_validation():
    with pytest.raises(ValidationError):
        AccessStructure(k=3, r=2, sets=[frozenset({0, 1, 2})], l=1)
    with pytest.raises(ValidationError):
        AccessStructure(k=3, r=2, sets=[frozenset({0, 3})], l=1)
    with pytest.raises(ValidationError):
        AccessStructure(k=3, r=2, sets=[frozenset({0}), frozenset({0, 1})], l=1)
    acc = AccessStructure(k=4, r=3, sets=[frozenset({0, 1}), frozenset({2, 3})], l=2)
    assert not acc.uniform
    assert acc.qualifies({0, 1, 3}) and acc.is_independent({0, 2})


def test_access_structure_json_roundtrip():
    acc = AccessStructure(k=4, r=2, sets=[frozenset({0, 1}), frozenset({2, 3})], l=1)
    assert AccessStructure.from_json_dict(acc.to_json_dict()) == acc


def test_unqualified_sets():
    got = set(EDGE01.unqualified_sets())
    assert frozenset({0, 1}) not in got
    assert frozenset({1, 2}) in got and frozenset() in got
    assert all(len(s) <= 2 for s in got)


def test_deal_requires_uniform_sets_and_bit():
    acc = AccessStructure(k=3, r=2, sets=[frozenset({0})], l=1)
    with pytest.raises(ValidationError):
        deal(acc, 0, 5, make_rng(0))
    with pytest.raises(ValidationError):
        deal(EDGE01, 2, 5, make_rng(0))


def test_deal_reconstruct_exhaustive_small():
    for s in (0, 1):
        for seed in range(40):
            bundle = deal(EDGE01, s, 5, make_rng(seed))
            shares = (bundle.shares[0], bundle.shares[1])
            assert reconstruct(bundle.h_s, bundle.g, (0, 1), shares, EDGE01) == s


def test_deal_reconstruct_sampled_large_host():
    acc = AccessStructure(k=4, r=2, sets=[frozenset({0, 1}), frozenset({2, 3})], l=2)
    rng = make_rng(7)
    for i in range(10000):
        s = i & 1
        bundle = deal(acc, s, 64, rng)
        for group in ((0, 1), (2, 3)):
            shares = tuple(bundle.shares[p] for p in group)
            assert reconstruct(bundle.h_s, bundle.g, group, shares, acc) == s


def test_reconstruct_refuses_unqualified():
    bundle = deal(EDGE01, 0, 5, make_rng(1))
    with pytest.raises(ValidationError):
        reconstruct(bundle.h_s, bundle.g, (1, 2),
                    (bundle.shares[1], bundle.shares[2]), EDGE01)


def test_share_encoding_width():
    bundle = deal(EDGE01, 1, 11, make_rng(2))
    obj = bundle.to_json_dict()
    assert obj["share_bits"] == math.ceil(math.log2(11))
    assert all(len(e) == obj["share_bits"] for e in obj["encoded_shares"])
    assert ShareBundle.from_json_dict(obj).shares == bundle.shares
    with pytest.raises(ValidationError):
        encode_share(11, 11)


def test_mask_template_xor_identity():
    rng = make_rng(3)
    h = Hypergraph.from_bits(3, 2, rng.integers(0, 2, 3, dtype=np.uint8))
    assert mask_template(h, 0, EDGE01) == h
    flipped = mask_template(h, 1, EDGE01)
    pos = rank_subset((0, 1), 3)
    assert flipped.bit(pos) == 1 - h.bit(pos)
    others = [j for j in range(3) if j != pos]
    assert all(flipped.bit(j) == h.bit(j) for j in others)


def test_deal_hs_bit_follows_xor_rule():
    # the published bit on a qualifying set is the hidden bit XOR the secret
    for seed in range(30):
        rng = make_rng(seed)
        bundle = deal(EDGE01, 1, 6, rng)
        pos = rank_subset((0, 1), 3)
        covered = bundle.g.bit(rank_subset(sorted(bundle.shares[:2]), 6))
        assert bundle.h_s.bit(pos) == covered ^ 1


def test_deal_public_noise_uniform():
    # bits outside the qualifying sets are fair coins
    rng = make_rng(4)
    counts = np.zeros(3)
    draws = 20000
    for _ in range(draws):
        counts += deal(EDGE01, 0, 5, rng).h_s.bits
    non_r = [j for j in range(3) if j != rank_subset((0, 1), 3)]
    for j in non_r:
        assert abs(counts[j] / draws - 0.5) <= 4 * math.sqrt(0.25 / draws)


def test_lift_example_and_reconstruction():
    acc = AccessStructure(k=3, r=2, sets=[frozenset({0}), frozenset({1, 2})], l=2)
    lifted = lift(acc)
    assert lifted.k == 4 and lifted.public_parties == (3,)
    assert lifted.sets == frozenset([frozenset({0, 3}), frozenset({1, 2})])
    for s in (0, 1):
        bundle = deal(lifted, s, 7, make_rng(10 + s))
        # party 0 alone plus the public auxiliary share recovers the secret
        shares = (bundle.shares[0], bundle.public_shares[3])
        assert reconstruct(bundle.h_s, bundle.g, (0, 3), shares, lifted) == s


def test_lift_noop_on_uniform_structure():
    lifted = lift(EDGE01)
    assert lifted.sets == EDGE01.sets
    assert lifted.public_parties == (3,)
    assert lifted.k == 4


def test_lift_preserves_independence_of_real_coalitions():
    acc = AccessStructure(k=4, r=3, sets=[frozenset({0, 1}), frozenset({1, 2, 3})], l=3)
    lifted = lift(acc)
    for size in range(acc.l - acc.r + 2):
        for group in itertools.combinations(range(acc.k), size):
            if acc.is_independent(group):
                assert lifted.is_independent(group)


def test_reduction_map_contract():
    rng = make_rng(5)
    h = Hypergraph.from_bits(3, 2, rng.integers(0, 2, 3, dtype=np.uint8))
    g = Hypergraph.from_bits(4, 2, rng.integers(0, 2, 6, dtype=np.uint8))
    out_h, out_g, leaked = secrecy_reduction_map(h, g, (2, 1), 0, EDGE01)
    assert out_h == h and out_g is g and leaked == (1, 2)
    masked, _, _ = secrecy_reduction_map(h, g, (1, 2), 1, EDGE01)
    assert masked == mask_template(h, 1, EDGE01)
    with pytest.raises(ValidationError):
        secrecy_reduction_map(h, g, (0, 1), 1, EDGE01)


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("leaked", [(1, 2), (2,)])
def test_pushforward_identities(s, leaked):
    # planted side: the masked planted ensemble is exactly the dealer's law
    # when the published copy carries the template's own non-qualifying bits
    mp = masked_planted_ensemble_pmf(EDGE01, s, 4, leaked)
    de = deal_ensemble_pmf(EDGE01, s, 4, leaked, tie_public=True, fix_leaked=True)
    assert mp == de
    # null side: the masked null ensemble is the published-template hybrid
    assert masked_null_ensemble_pmf(EDGE01, s, 4, leaked) == \
        published_template_ensemble_pmf(3, 2, 4, leaked)


def test_fresh_noise_is_postprocessing_of_tied_deal():
    tied = deal_ensemble_pmf(EDGE01, 1, 4, (1, 2), tie_public=True)
    fresh = deal_ensemble_pmf(EDGE01, 1, 4, (1, 2), tie_public=False)
    non_r = [j for j in range(3) if j != rank_subset((0, 1), 3)]
    resampled = {}
    for (pub, g_mask, shares), w in tied.items():
        for pat in range(1 << len(non_r)):
            out = pub
            for idx, j in enumerate(non_r):
                if ((pat >> idx) & 1) != ((out >> j) & 1):
                    out ^= 1 << j
            key = (out, g_mask, shares)
            resampled[key] = resampled.get(key, Fraction(0)) + w / (1 << len(non_r))
    assert resampled == fresh


def test_secrecy_tv_matches_bruteforce_dealer_enumeration():
    # independent oracle: unconstrained-dealer ensembles with fresh noise,
    # restricted to the published and host parts plus the coalition's shares
    leaked = (1, 2)
    ensembles = [deal_ensemble_pmf(EDGE01, s, 4, leaked, tie_public=False,
                                   fix_leaked=False) for s in (0, 1)]
    assert secrecy_tv(EDGE01, leaked, 4) == tv_dict(*ensembles)


def test_secrecy_tv_extremes_and_trend():
    assert secrecy_tv(EDGE01, (0, 1), 4) == 1
    # the public pair alone already shows a small planted-content trace; it
    # fades as the host grows
    empty4 = secrecy_tv(EDGE01, (), 4)
    empty6 = secrecy_tv(EDGE01, (), 6)
    assert 0 < empty6 < empty4 < 1
    tv4 = secrecy_tv(EDGE01, (1, 2), 4)
    tv6 = secrecy_tv(EDGE01, (1, 2), 6)
    assert tv6 < tv4


def test_secrecy_tv_guard():
    with pytest.raises(GuardExceeded):
        secrecy_tv(EDGE01, (1, 2), 12)
    # n=8: 336 embeddings x 2^28 host patterns, within the 64-bit key width
    with pytest.raises(GuardExceeded, match=f"{336 << 28} dealer states exceed "
                                            f"the guard {SECRECY_STATE_GUARD}"):
        secrecy_tv(EDGE01, (1, 2), 8)


def test_csirmaz_f_values():
    assert csirmaz_f(0, 5) == 0
    assert csirmaz_f(2, 3) == 5
    assert all(csirmaz_f(a, 3) == 6 for a in range(3, 9))
    with pytest.raises(ValidationError):
        csirmaz_f(-1, 2)


def test_csirmaz_check_passes():
    rep = csirmaz_check(4, [(0, 1)], 2)
    assert rep.passed and rep.singleton_value == 2
    rep5 = csirmaz_check(5, [(0, 1), (2, 3, 4)], 3)
    assert rep5.submodular_ok and rep5.extramodular_ok and rep5.monotone_ok
    assert isinstance(rep5, CsirmazReport)
    assert rep5.to_json_dict()["passed"]


def test_csirmaz_check_guard():
    with pytest.raises(GuardExceeded):
        csirmaz_check(13, [(0, 1)], 2)
    with pytest.raises(ValidationError):
        csirmaz_check(4, [(0, 9)], 2)


def test_share_bit_width_bounds():
    assert share_bit_width(2) == 1
    assert share_bit_width(64) == 6
    assert share_bit_width(65) == 7
