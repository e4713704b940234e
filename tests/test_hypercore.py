import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedsub.errors import ValidationError
from plantedsub.hypercore import (Embedding, Hypergraph, binom, bit_to_spin,
                                  induced, rank_rows, rank_subset, relabel,
                                  spin_to_bit, subset_table, unrank_subset)


def test_binom_examples():
    assert binom(5, 2) == 10
    assert binom(4, 0) == 1
    assert binom(3, 5) == 0


def test_spin_bit_conversion():
    assert bit_to_spin(0) == 1 and bit_to_spin(1) == -1
    assert spin_to_bit(1) == 0 and spin_to_bit(-1) == 1
    with pytest.raises(ValidationError):
        spin_to_bit(0)


def test_rank_examples():
    assert rank_subset((0, 1), 4) == 0
    assert rank_subset((2, 3), 4) == 5
    assert rank_subset((1, 3), 4) == 4


def test_unrank_examples():
    assert unrank_subset(0, 4, 2) == (0, 1)
    assert unrank_subset(5, 4, 2) == (2, 3)
    assert unrank_subset(3, 4, 3) == (1, 2, 3)


def test_rank_unrank_bijection_exhaustive():
    # oracle: position in the lexicographic enumeration
    for n in range(2, 9):
        for r in range(2, 5):
            for i, combo in enumerate(itertools.combinations(range(n), r)):
                assert rank_subset(combo, n) == i
                assert unrank_subset(i, n, r) == combo


def test_rank_rows_matches_scalar():
    rows = np.asarray(subset_table(7, 3))
    expect = [rank_subset(tuple(row), 7) for row in rows]
    assert rank_rows(rows, 7).tolist() == expect


def test_rank_validation():
    with pytest.raises(ValidationError):
        rank_subset((1, 0), 4)
    with pytest.raises(ValidationError):
        rank_subset((0, 4), 4)
    with pytest.raises(ValidationError):
        rank_subset((1, 1), 4)
    with pytest.raises(ValidationError):
        unrank_subset(6, 4, 2)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rank_unrank_roundtrip_property(data):
    n = data.draw(st.integers(2, 12))
    r = data.draw(st.integers(2, min(n, 5)))
    rank = data.draw(st.integers(0, binom(n, r) - 1))
    assert rank_subset(unrank_subset(rank, n, r), n) == rank


def _random_graph(rng, n, r):
    return Hypergraph.from_bits(n, r, rng.integers(0, 2, binom(n, r), dtype=np.uint8))


def test_relabel_identity_and_inverse():
    rng = np.random.default_rng(0)
    g = _random_graph(rng, 5, 2)
    assert relabel(g, list(range(5))) == g
    pi = rng.permutation(5).tolist()
    inv = [0] * 5
    for i, v in enumerate(pi):
        inv[v] = i
    assert relabel(relabel(g, pi), inv) == g


def test_relabel_rotation_example():
    g = Hypergraph.from_present(3, 2, [[0, 1]])
    assert relabel(g, [1, 2, 0]).present_edges() == [(1, 2)]


def test_relabel_group_action_and_edge_count():
    rng = np.random.default_rng(3)
    g = _random_graph(rng, 6, 3)
    for _ in range(10):
        sigma = rng.permutation(6).tolist()
        tau = rng.permutation(6).tolist()
        composed = [tau[sigma[i]] for i in range(6)]
        assert relabel(relabel(g, sigma), tau) == relabel(g, composed)
        assert relabel(g, sigma).num_present == g.num_present


def test_relabel_rejects_non_bijection():
    g = Hypergraph.empty(4, 2)
    with pytest.raises(ValidationError):
        relabel(g, [0, 0, 1, 2])


def test_induced_full_and_triangle():
    rng = np.random.default_rng(1)
    g = _random_graph(rng, 4, 2)
    assert induced(g, list(range(4))) == g
    tri = Hypergraph.from_present(4, 2, [[0, 1], [0, 2], [1, 2]])
    assert induced(tri, [0, 1, 2]).num_present == 3
    assert induced(tri, [0, 1, 2]) == Hypergraph.from_present(3, 2, [[0, 1], [0, 2], [1, 2]])


def test_induced_composition():
    rng = np.random.default_rng(2)
    g = _random_graph(rng, 7, 2)
    a = [0, 2, 3, 5, 6]
    b = [2, 3, 6]
    positions = [a.index(v) for v in b]
    assert induced(induced(g, a), positions) == induced(g, b)


def test_induced_validation():
    g = Hypergraph.empty(4, 3)
    with pytest.raises(ValidationError):
        induced(g, [0, 1])
    with pytest.raises(ValidationError):
        induced(g, [2, 1, 0])


def test_json_roundtrip_canonical():
    g = Hypergraph.from_present(5, 2, [[3, 4], [0, 1], [1, 4]])
    obj = g.to_json_dict()
    # present list is emitted in rank order
    ranks = [rank_subset(e, 5) for e in obj["present"]]
    assert ranks == sorted(ranks)
    assert Hypergraph.from_json(g.to_json()) == g
    assert Hypergraph.from_json(g.to_json()).to_json() == g.to_json()


def test_json_validation():
    with pytest.raises(ValidationError):
        Hypergraph.from_json_dict({"n": 4, "r": 2, "present": [[0, 1], [1, 0]]})
    with pytest.raises(ValidationError):
        Hypergraph.from_json_dict({"n": 4, "r": 2, "present": [[0, 1, 2]]})
    with pytest.raises(ValidationError):
        Hypergraph.from_json_dict({"n": 4, "r": 2})
    for present in ([["a", 1]], [[0.5, 1]], [[0, None]], 5, "01", {"0": 1}, None,
                    [[0, 1], [2]], [[0, 1], [1, 2, 3]], [0, 1]):
        with pytest.raises(ValidationError):
            Hypergraph.from_json_dict({"n": 4, "r": 2, "present": present})
    assert Hypergraph.from_json_dict({"n": 4, "r": 2, "present": []}).num_present == 0
    assert Hypergraph.from_json_dict({"n": 4, "r": 2, "present": [[3, 1], [2, 0]]}) == \
        Hypergraph.from_present(4, 2, [[0, 2], [1, 3]])
    assert Hypergraph.from_json_dict({"n": 2, "r": 3, "present": []}).num_coords == 0


def test_mask_and_bit_views():
    g = Hypergraph.from_present(4, 2, [[0, 1], [2, 3]])
    assert g.mask == (1 << 0) | (1 << 5)
    assert Hypergraph.from_mask(4, 2, g.mask) == g
    assert g.bit(0) == 1 and g.bit(1) == 0
    assert g.spin(0) == -1 and g.spin(1) == 1
    assert g.edge_bit((2, 3)) == 1
    assert list(g.spins) == [bit_to_spin(int(b)) for b in g.bits]


def test_zero_coordinate_space():
    g = Hypergraph.empty(2, 3)
    assert g.num_coords == 0
    assert g.present_edges() == []


def test_embedding_validation():
    Embedding(5, 3, (0, 3, 4), frozenset({0}))
    with pytest.raises(ValidationError):
        Embedding(5, 3, (1, 3, 4), frozenset({0}))
    with pytest.raises(ValidationError):
        Embedding(5, 3, (0, 3, 3), frozenset())
    with pytest.raises(ValidationError):
        Embedding(3, 4, (0, 1, 2, 3), frozenset())


def test_embedding_apply_sorted():
    emb = Embedding(6, 3, (4, 1, 5), frozenset())
    assert emb.apply((0, 2)) == (4, 5)
    assert emb(1) == 1
    assert emb.image() == frozenset({1, 4, 5})


def test_rank_prefix_tables_refuse_int64_overflow():
    from plantedsub.errors import GuardExceeded
    from plantedsub.hypercore import _rank_prefix_tables

    with pytest.raises(GuardExceeded, match=r"n=100 vertices with r=30"):
        _rank_prefix_tables(100, 30)
    assert _rank_prefix_tables(66, 33)[32][66] == binom(66, 33)


def test_to_json_matches_per_edge_path():
    rng = np.random.default_rng(12)
    graphs = [Hypergraph.from_bits(9, 2, rng.integers(0, 2, size=36)),
              Hypergraph.from_bits(7, 3, rng.integers(0, 2, size=35)),
              Hypergraph.empty(6, 3), Hypergraph.empty(1, 2)]
    for g in graphs:
        old = {"n": g.n, "r": g.r, "present": [list(e) for e in g.present_edges()]}
        assert g.to_json() == json.dumps(old, sort_keys=True, separators=(",", ":"))
        assert Hypergraph.from_json(g.to_json()) == g
