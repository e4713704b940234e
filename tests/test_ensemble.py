"""The integer-count ensemble core against a per-state reference enumerator.

``reference_pmf`` and ``reference_moments`` walk every state in Python
and keep one Fraction (or float) per state; the package's oracles must
reproduce them exactly.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from plantedsub import cli
from plantedsub.distinguishers import exact_advantage, make_statistic
from plantedsub.ensemble import count_states
from plantedsub.errors import DegenerateNullVariance, GuardExceeded, ValidationError
from plantedsub.hypercore import Hypergraph, binom, rank_subset, subset_table
from plantedsub.models import (STATE_GUARD, ModelParams, chi_square, exact_pmf, make_rng,
                               sample_H, tv_distance)


def reference_pmf(h, params, which, rational=True) -> dict:
    """key -> mass, accumulated one state at a time."""
    m = binom(params.n, params.r)
    one = Fraction(1) if rational else 1.0
    mass = {}
    if which == "null":
        base, covered = 0, []
        for f in itertools.combinations(params.L, params.r):
            pos = rank_subset(f, params.n)
            covered.append(pos)
            if h.bit(rank_subset(f, params.k)):
                base |= 1 << pos
        free = sorted(set(range(m)) - set(covered))
        weight = one / (1 << len(free))
        for pat in range(1 << len(free)):
            key = base
            for idx, pos in enumerate(free):
                if (pat >> idx) & 1:
                    key |= 1 << pos
            mass[key] = mass.get(key, 0) + weight
        return mass

    leaked = set(params.L)
    avail = [v for v in range(params.n) if v not in leaked]
    free_src = [u for u in range(params.k) if u not in leaked]
    n_emb = math.perm(len(avail), len(free_src))
    n_free = m - binom(params.k, params.r)
    weight = one / (n_emb * (1 << n_free))
    k_subsets = subset_table(params.k, params.r)
    targets = [0] * params.k
    for u in params.L:
        targets[u] = u
    for sel in itertools.permutations(avail, len(free_src)):
        for u, t in zip(free_src, sel):
            targets[u] = t
        base, covered = 0, []
        for j in range(k_subsets.shape[0]):
            pos = rank_subset(sorted(targets[int(u)] for u in k_subsets[j]), params.n)
            covered.append(pos)
            if h.bit(j):
                base |= 1 << pos
        free = sorted(set(range(m)) - set(covered))
        for pat in range(1 << n_free):
            key = base
            for idx, pos in enumerate(free):
                if (pat >> idx) & 1:
                    key |= 1 << pos
            mass[key] = mass.get(key, 0) + weight
    return mass


def reference_tv(p: dict, q: dict):
    return sum(abs(p.get(key, 0) - q.get(key, 0)) for key in p.keys() | q.keys()) / 2


def reference_chi_square(p: dict, q: dict):
    return sum(pk * pk / q[key] for key, pk in p.items()) - 1


def reference_moments(stat, planted: dict, null: dict, m: int):
    """(mean_planted, mean_null, var_null) as Fractions, one state at a time."""
    def moments(pmf, depth):
        out = [Fraction(0)] * depth
        for key, mass in pmf.items():
            bits = np.array([[(key >> pos) & 1 for pos in range(m)]], dtype=np.uint8)
            v, acc = int(stat.batch(bits)[0]), 1
            for i in range(depth):
                acc *= v
                out[i] += mass * acc
        return out

    (mu_p,) = moments(planted, 1)
    mu_q, raw2 = moments(null, 2)
    return mu_p, mu_q, raw2 - mu_q ** 2


# r in {2, 3}; L empty, partial, and all of [0, k) (no free sources)
GRID = [ModelParams(n=5, k=3, r=2, L=L) for L in ((), (0,), (0, 1, 2))] + [
    ModelParams(n=5, k=4, r=3, L=L) for L in ((), (0, 1), (0, 1, 2, 3))]


@pytest.mark.parametrize("params", GRID, ids=lambda p: f"r{p.r}-L{len(p.L)}")
def test_oracles_match_reference_enumerator(params):
    h = sample_H(params.k, params.r, make_rng(100 + params.r + params.ell))
    ref = {which: reference_pmf(h, params, which) for which in ("planted", "null")}
    pmfs = {which: exact_pmf(h, params, which) for which in ("planted", "null")}
    floats = {which: exact_pmf(h, params, which, rational=False) for which in ref}
    for which in ref:
        assert pmfs[which].mass == ref[which]
        assert len(pmfs[which].mass) == len(ref[which])
        # float mode: the correctly rounded value of each exact mass, within a
        # few ulps of the running float sum the reference keeps
        assert floats[which].mass == {key: float(v) for key, v in ref[which].items()}
        running = reference_pmf(h, params, which, rational=False)
        for key, v in running.items():
            assert floats[which].mass[key] == pytest.approx(v, rel=1e-12)

    tv = reference_tv(ref["planted"], ref["null"])
    chi = reference_chi_square(ref["planted"], ref["null"])
    assert tv_distance(pmfs["planted"], pmfs["null"]) == tv
    assert chi_square(pmfs["planted"], pmfs["null"]) == chi
    assert tv_distance(floats["planted"], floats["null"]) == float(tv)
    assert chi_square(floats["planted"], floats["null"]) == float(chi)

    m = binom(params.n, params.r)
    seen = set()
    for name in ("edgecount", "subgraph", "leakmatch", "linear"):
        options = {"m": min(params.k, 3)} if name == "subgraph" else {}
        try:
            stat = make_statistic(name, h, params, **options)
        except ValidationError:
            continue
        mu_p, mu_q, var_q = reference_moments(stat, ref["planted"], ref["null"], m)
        for pair in ((pmfs["planted"], pmfs["null"]), (floats["planted"], floats["null"])):
            if var_q == 0:
                with pytest.raises(DegenerateNullVariance):
                    exact_advantage(stat, h, params, pmfs=pair)
                continue
            rep = exact_advantage(stat, h, params, pmfs=pair)
            assert (rep.mean_planted, rep.mean_null, rep.var_null) == (
                float(mu_p), float(mu_q), float(var_q))
            assert rep.advantage == float(mu_p - mu_q) / math.sqrt(float(var_q))
        seen.add(name)
    assert "edgecount" in seen


def test_grid_covers_every_statistic():
    names = set()
    for params in GRID:
        h = sample_H(params.k, params.r, make_rng(0))
        for name in ("edgecount", "subgraph", "leakmatch", "linear"):
            try:
                make_statistic(name, h, params, m=min(params.k, 3))
                names.add(name)
            except ValidationError:
                pass
    assert names == {"edgecount", "subgraph", "leakmatch", "linear"}


def test_dict_pmfs_reduce_exactly():
    from plantedsub.models import Pmf

    p = Pmf(2, 2, {0: Fraction(1, 3), 1: Fraction(2, 3)})
    q = Pmf(2, 2, {0: Fraction(1, 2), 1: Fraction(1, 4), 3: Fraction(1, 4)})
    assert tv_distance(p, q) == reference_tv(p.mass, q.mass)
    assert chi_square(p, q) == reference_chi_square(p.mass, q.mass)
    huge = Pmf(2, 2, {0: Fraction(1, 3 ** 40), 1: 1 - Fraction(1, 3 ** 40)})
    assert tv_distance(huge, q) == reference_tv(huge.mass, q.mass)
    assert chi_square(huge, q) == reference_chi_square(huge.mass, q.mass)


def test_state_guard_states_its_numbers():
    # n=6, r=3: 120 embeddings x 2^19 free-coordinate patterns
    params = ModelParams(n=6, k=3, r=3)
    h = sample_H(3, 3, make_rng(1))
    with pytest.raises(GuardExceeded) as exc:
        exact_pmf(h, params, "planted")
    states = 120 * 2 ** 19
    assert f"120 embeddings x 2^19 = {states} states" in str(exc.value)
    assert str(STATE_GUARD) in str(exc.value)


def test_key_width_guard_states_its_numbers():
    covered = np.array([[0, 64]], dtype=np.int64)
    with pytest.raises(GuardExceeded, match="needs 65 bits; the limit is 64"):
        count_states(np.array([1, 0], dtype=np.uint8), covered, 65)


def test_distinguish_exact_over_guard_exits_3(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"n": 6, "k": 3, "r": 3, "L": [], "seed": 1}))
    template = tmp_path / "h.json"
    template.write_text(Hypergraph.empty(3, 3).to_json())
    code = cli.main(["distinguish", "--stat", "edgecount", "--exact",
                     "--params", str(params), "--H", str(template)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 3 and error["type"] == "GuardExceeded"
    assert str(STATE_GUARD) in error["message"]


def test_union_keys_matches_union1d():
    from plantedsub.ensemble import union_keys

    rng = make_rng(4)
    some = np.unique(rng.integers(0, 1 << 40, size=300).astype(np.uint64))
    empty = np.empty(0, dtype=np.uint64)
    pairs = [(empty, empty), (empty, some), (some[::2], some[1::2]), (some, some),
             (some[:200], some[100:])]
    for a, b in pairs:
        got = union_keys(a, b)
        expect = np.union1d(a, b)
        assert got.dtype == expect.dtype == np.uint64
        np.testing.assert_array_equal(got, expect)
