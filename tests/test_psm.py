import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from plantedsub import psm
from plantedsub.errors import GuardExceeded, ValidationError
from plantedsub.hypercore import Embedding, Hypergraph, binom, rank_subset
from plantedsub.models import make_rng
from plantedsub.psm import (ConstantSelector, FunctionTable, PsmInstance,
                            TableSelector, Transcript, UniformSelector,
                            cross_set, embed_function,
                            enumerate_protocol_ensemble,
                            enumerate_real_ensemble,
                            enumerate_reduction_pushforward,
                            enumerate_simulated_ensemble,
                            enumerate_simulated_protocol_ensemble,
                            psm_evaluate, psm_message, psm_reduction,
                            psm_setup, psm_simulate, real_vs_sim_tv,
                            run_protocol, template_to_table)


def test_function_table_roundtrip_and_validation():
    f = FunctionTable.from_bits(2, 2, [0, 1, 1, 0])
    assert FunctionTable.from_json_dict(f.to_json_dict()) == f
    assert f.value((0, 1)) == -1 and f.bit((0, 1)) == 1
    with pytest.raises(ValidationError):
        FunctionTable(2, 2, (1, -1, 1))
    with pytest.raises(ValidationError):
        f.value((0, 2))


def test_embed_function_smallest_case():
    f = FunctionTable(1, 2, (-1,))
    fbar = embed_function(f, make_rng(0))
    assert fbar.num_coords == 1 and fbar.spin(0) == -1


def test_embed_function_reproduces_table():
    for seed in range(5):
        rng = make_rng(seed)
        f = FunctionTable.random(3, 2, rng)
        fbar = embed_function(f, rng)
        assert template_to_table(fbar, 3) == f


def test_embed_function_noncross_uniform():
    f = FunctionTable(2, 2, (1, 1, 1, 1))
    rng = make_rng(1)
    cross = {rank_subset(cross_set(xs, 2), 4) for xs in itertools.product(range(2), repeat=2)}
    others = [j for j in range(binom(4, 2)) if j not in cross]
    draws = 20000
    total = np.zeros(binom(4, 2))
    for _ in range(draws):
        total += embed_function(f, rng).bits
    for j in others:
        assert abs(total[j] / draws - 0.5) <= 4 * math.sqrt(0.25 / draws)
    for j in cross:
        assert total[j] == 0  # all-absent table


def test_setup_at_minimum_host_is_relabeling():
    f = FunctionTable.random(2, 2, make_rng(2))
    inst = psm_setup(f, 4, make_rng(3))
    assert inst.g.num_present == inst.fbar.num_present
    with pytest.raises(ValidationError):
        psm_setup(f, 3, make_rng(3))


def test_message_identity_instance_and_distinctness():
    f = FunctionTable.random(2, 2, make_rng(4))
    fbar = embed_function(f, make_rng(5))
    phi = Embedding(4, 4, (0, 1, 2, 3), frozenset())
    inst = PsmInstance(f=f, fbar=fbar, g=fbar, phi=phi)
    for i in range(2):
        for x in range(2):
            assert psm_message(inst, i, x) == i * 2 + x
    assert psm_message(inst, 0, 1) != psm_message(inst, 1, 1)
    with pytest.raises(ValidationError):
        psm_message(inst, 2, 0)
    with pytest.raises(ValidationError):
        psm_message(inst, 0, 2)


def test_protocol_correctness_all_inputs():
    for (k, r) in [(2, 2), (3, 2), (2, 3)]:
        for seed in range(3):
            rng = make_rng(100 * k + 10 * r + seed)
            f = FunctionTable.random(k, r, rng)
            inst = psm_setup(f, r * k + 2, rng)
            for xs in itertools.product(range(k), repeat=r):
                t = run_protocol(inst, xs)
                assert t.output == f.bit(xs)
                assert len(set(t.messages)) == r


def test_evaluate_rejects_collisions():
    g = Hypergraph.empty(4, 2)
    with pytest.raises(ValidationError):
        psm_evaluate(g, (1, 1))
    with pytest.raises(ValidationError):
        psm_evaluate(g, (1,))


def test_instance_validation_and_json():
    f = FunctionTable.random(2, 2, make_rng(6))
    inst = psm_setup(f, 5, make_rng(7))
    again = PsmInstance.from_json_dict(inst.to_json_dict())
    assert again.g == inst.g and again.phi.targets == inst.phi.targets
    public = inst.to_json_dict(public_only=True)
    assert "phi" not in public and "fbar" not in public
    bad = inst.to_json_dict()
    bad["phi"] = list(reversed(bad["phi"]))
    with pytest.raises(ValidationError):
        PsmInstance.from_json_dict(bad)


def test_simulator_forces_output_and_label_law():
    f = FunctionTable.random(2, 2, make_rng(8))
    rng = make_rng(9)
    counts = {}
    draws = 20000
    for i in range(draws):
        g, labels = psm_simulate(f, i & 1, 5, rng)
        assert psm_evaluate(g, labels) == (i & 1)
        counts[labels] = counts.get(labels, 0) + 1
    # labels uniform over ordered distinct pairs of [0, 5)
    assert len(counts) == 20
    sigma = math.sqrt((1 / 20) * (19 / 20) / draws)
    for c in counts.values():
        assert abs(c / draws - 1 / 20) <= 4 * sigma


def test_simulator_collision_variant():
    f = FunctionTable.random(2, 2, make_rng(10))
    rng = make_rng(11)
    seen_collision = False
    for _ in range(200):
        g, labels = psm_simulate(f, 1, 3, rng, allow_collisions=True)
        if len(set(labels)) < len(labels):
            seen_collision = True
        else:
            assert psm_evaluate(g, labels) == 1
    assert seen_collision


def test_simulator_ignores_table_beyond_output():
    # same selector target and output bit: identical simulated ensembles for
    # two tables that differ elsewhere
    sel = ConstantSelector((0, 0))
    f1 = FunctionTable.from_bits(2, 2, [1, 0, 0, 1])
    f2 = FunctionTable.from_bits(2, 2, [1, 1, 1, 0])
    assert f1.bit((0, 0)) == f2.bit((0, 0))
    assert enumerate_simulated_ensemble(f1, sel, 3) == enumerate_simulated_ensemble(f2, sel, 3)


def test_reduction_preserves_table():
    rng = make_rng(12)
    h = Hypergraph.from_bits(4, 2, rng.integers(0, 2, 6, dtype=np.uint8))
    g = Hypergraph.from_bits(5, 2, rng.integers(0, 2, 10, dtype=np.uint8))
    f, g2, labels = psm_reduction(h, g, (0, 3), rng)
    assert f == template_to_table(h, 2)
    assert g2.num_present == g.num_present
    assert len(set(labels)) == 2
    with pytest.raises(ValidationError):
        psm_reduction(h, g, (0, 0), rng)


def test_reduction_pushforward_identities():
    sel = UniformSelector()
    assert enumerate_reduction_pushforward("planted", 1, 2, 3, sel) == \
        enumerate_protocol_ensemble(1, 2, 3, sel)
    assert enumerate_reduction_pushforward("null", 1, 2, 3, sel) == \
        enumerate_simulated_protocol_ensemble(1, 2, 3, sel)


def test_real_vs_sim_tv_values():
    sel = UniformSelector()
    assert real_vs_sim_tv(FunctionTable(1, 2, (1,)), sel, 2) == 0
    f = FunctionTable.random(2, 2, make_rng(13))
    tv4 = real_vs_sim_tv(f, sel, 4)
    tv5 = real_vs_sim_tv(f, sel, 5)
    assert 0 < tv5 < tv4 <= 1


def test_selector_invariance_for_symmetric_table():
    # symmetric table: constant and uniform selectors induce the same law
    f = FunctionTable.from_bits(2, 2, [0, 1, 1, 0])
    tv_uniform = real_vs_sim_tv(f, UniformSelector(), 4)
    tv_constant = real_vs_sim_tv(f, ConstantSelector((0, 0)), 4)
    tv_constant2 = real_vs_sim_tv(f, ConstantSelector((1, 1)), 4)
    assert tv_uniform == tv_constant == tv_constant2


def test_table_selector():
    f = FunctionTable.from_bits(2, 2, [0, 1, 1, 0])
    sel = TableSelector({f.bits: (1, 0)})
    assert sel.distribution(f) == [((1, 0), Fraction(1))]
    assert sel.sample(f, make_rng(14)) == (1, 0)
    other = FunctionTable.from_bits(2, 2, [1, 1, 1, 1])
    with pytest.raises(ValidationError):
        sel.distribution(other)


def test_transcript_serialization():
    t = Transcript(messages=(3, 1), output=1)
    assert t.to_json_dict() == {"messages": [3, 1], "output": 1}


@pytest.mark.parametrize("build,states", [
    # 120 injections x 4 atoms x 2^6 free host coordinates
    (lambda f, sel: enumerate_real_ensemble(f, sel, 5), 120 * 4 * 2 ** 6),
    # 20 label tuples x 4 atoms x 2^9 free host coordinates
    (lambda f, sel: enumerate_simulated_ensemble(f, sel, 5), 20 * 4 * 2 ** 9),
    # 2^6 templates x 4 atoms x 4! relabellings x 2 embeddings x 2^0
    (lambda f, sel: enumerate_reduction_pushforward("planted", 2, 2, 4, sel),
     2 ** 6 * 4 * 24 * 2),
], ids=["real", "simulated", "pushforward"])
def test_guard_counts_materialised_states(monkeypatch, build, states):
    f = FunctionTable.random(2, 2, make_rng(15))
    sel = UniformSelector()
    assert build(f, sel).ensemble.denom == states
    monkeypatch.setattr(psm, "PSM_STATE_GUARD", states)
    build(f, sel)
    monkeypatch.setattr(psm, "PSM_STATE_GUARD", states - 1)
    with pytest.raises(GuardExceeded,
                       match=f"{states} enumeration states exceed the guard {states - 1}"):
        build(f, sel)
