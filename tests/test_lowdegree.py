import itertools
from fractions import Fraction

import pytest

from plantedsub.ensemble import covered_ranks, injection_table
from plantedsub.errors import GuardExceeded, ValidationError
from plantedsub.hypercore import Hypergraph, binom, relabel, subset_table, unrank_subset
from plantedsub.lowdegree import (BoundInputs, combinatorial_bound,
                                  corollary_bound, count_nvd,
                                  count_nvd_bound, count_nvd_exact_table,
                                  fourier_coefficient, index_vertices,
                                  lr_squared_exact, moment_exact,
                                  theorem_bound, validate_fourier_index)
from plantedsub.models import (ModelParams, _check_shapes, _embedding_count, chi_square,
                               exact_pmf, make_rng, sample_H)


def reference_lr_squared(h, params, degree=None, rational=True):
    """The per-subset enumerator: every subset (up to the degree cap) of
    each embedding's covered, non-leaked-internal coordinates adds the
    product of its template spins to that character's integer sum.

    Returns ``(cumulative, coefficients)``; ``coefficients`` maps each
    character (a frozenset of host ranks) with a nonzero coefficient to
    that coefficient.
    """
    _check_shapes(h, params)
    m = binom(params.n, params.r)
    d_max = m - binom(params.ell, params.r)
    if degree is None:
        degree = max(d_max, 1)
    if degree < 1:
        raise ValidationError("degree must be >= 1")

    leaked = set(params.L)
    n_emb = _embedding_count(params)

    k_subsets = subset_table(params.k, params.r)
    keep = [j for j in range(k_subsets.shape[0])
            if not set(int(v) for v in k_subsets[j]) <= leaked]
    h_spins = [int(s) for s in h.spins]
    depth = min(degree, len(keep))

    targets = injection_table(params.n, params.k, params.L)
    ranks = covered_ranks(targets, subset_table(params.k, params.r), params.n)[:, keep].tolist()
    spins = [h_spins[j] for j in keep]
    acc: dict[frozenset[int], int] = {}
    for row in ranks:
        cov = list(zip(row, spins))
        for size in range(1, depth + 1):
            for combo in itertools.combinations(cov, size):
                prod = 1
                key = []
                for rank, spin in combo:
                    prod *= spin
                    key.append(rank)
                fkey = frozenset(key)
                acc[fkey] = acc.get(fkey, 0) + prod

    sumsq_by_degree = [0] * max(degree, 1)
    for key, s in acc.items():
        sumsq_by_degree[len(key) - 1] += s * s
    denom = n_emb * n_emb
    cumulative = []
    running = 0
    for d in range(1, degree + 1):
        running += sumsq_by_degree[d - 1]
        cumulative.append(Fraction(running, denom) if rational else running / denom)
    coefficients = {
        key: (Fraction(s, n_emb) if rational else s / n_emb)
        for key, s in acc.items() if s
    }
    return cumulative, coefficients


def test_coefficient_single_edge_instance():
    # one template edge with spin h; each host edge is covered by 2 of the 6
    # injections, so the single-edge coefficient is h/3 and pairs vanish
    p = ModelParams(n=3, k=2, r=2)
    for mask in (0, 1):
        h = Hypergraph.from_mask(2, 2, mask)
        spin = h.spin(0)
        for a in range(3):
            assert fourier_coefficient(h, p, [a]) == Fraction(spin, 3)
        assert fourier_coefficient(h, p, [0, 1]) == 0


def test_coefficient_vanishes_beyond_embedding_reach():
    p = ModelParams(n=5, k=3, r=2, L=(0,))
    h = sample_H(3, 2, make_rng(0))
    # alpha spanning 4 vertices outside L cannot be covered by k - l = 2
    alpha = [0, 9]  # edges (0,1) and (3,4): V \ L = {1, 3, 4}
    assert len(index_vertices(alpha, 5, 2) - {0}) == 3
    assert fourier_coefficient(h, p, alpha) == 0


def test_fourier_index_validation():
    with pytest.raises(ValidationError):
        validate_fourier_index([], 4, 2, ())
    with pytest.raises(ValidationError):
        validate_fourier_index([0], 4, 2, (0, 1))  # edge (0,1) inside L
    with pytest.raises(ValidationError):
        validate_fourier_index([99], 4, 2, ())
    p = ModelParams(n=4, k=3, r=2, L=(0, 1))
    with pytest.raises(ValidationError):
        fourier_coefficient(sample_H(3, 2, make_rng(1)), p, [0])


def test_one_pass_matches_per_alpha_reference():
    for (n, k, r, L, seed) in [(4, 3, 2, (), 0), (5, 3, 2, (0,), 1), (4, 4, 3, (0, 1), 2)]:
        p = ModelParams(n=n, k=k, r=r, L=L)
        h = sample_H(k, r, make_rng(seed))
        _, coefficients = reference_lr_squared(h, p)
        leaked = set(L)
        m = binom(n, r)
        candidates = [a for a in range(m)
                      if not set(unrank_subset(a, n, r)) <= leaked]
        for size in (1, 2):
            for alpha in itertools.combinations(candidates, size):
                ref = fourier_coefficient(h, p, alpha)
                got = coefficients.get(frozenset(alpha), Fraction(0))
                assert got == ref, (n, k, r, L, alpha)


LR_SHAPES = [(4, 3, 2), (5, 4, 2), (6, 4, 2), (6, 5, 2), (4, 4, 3), (5, 4, 3), (6, 5, 3)]


@pytest.mark.parametrize("n,k,r", LR_SHAPES)
def test_lr_matches_enumerative_reference(n, k, r):
    for ell in range(min(k, 3) + 1):
        rng = make_rng(1000 * n + 100 * k + 10 * ell)
        L = tuple(sorted(rng.choice(k, size=ell, replace=False).tolist()))
        p = ModelParams(n=n, k=k, r=r, L=L)
        h = sample_H(k, r, rng)
        for degree in (None, 1, 2, 3):
            for rational in (True, False):
                rep = lr_squared_exact(h, p, degree, rational=rational)
                ref, _ = reference_lr_squared(h, p, degree, rational=rational)
                assert rep.cumulative == ref, (n, k, r, L, degree, rational)
                assert all(type(x) is type(y) for x, y in zip(rep.cumulative, ref))
                assert rep.degree == len(ref)


def test_lr_work_guard_counts_overlap_entries():
    # 9!/3! = 60480 embeddings x C(6, 2) = 15 coordinates: 907200 overlap
    # entries, inside the guard, although the full-degree enumeration
    # would walk 60480 * (2^15 - 1) character terms
    p = ModelParams(n=9, k=6, r=2)
    h = sample_H(6, 2, make_rng(21))
    rep = lr_squared_exact(h, p)
    assert rep.degree == binom(9, 2) and rep.n_embeddings == 60480
    assert rep.at_degree(1) == reference_lr_squared(h, p, 1)[0][0]
    for lo, hi in zip(rep.cumulative, rep.cumulative[1:]):
        assert lo <= hi


def test_lr_single_edge_value_and_monotonicity():
    p = ModelParams(n=3, k=2, r=2)
    for mask in (0, 1):
        rep = lr_squared_exact(Hypergraph.from_mask(2, 2, mask), p, 3)
        assert rep.cumulative == [Fraction(1, 3)] * 3
    h = sample_H(4, 2, make_rng(3))
    rep = lr_squared_exact(h, ModelParams(n=5, k=4, r=2, L=(0,)))
    for lo, hi in zip(rep.cumulative, rep.cumulative[1:]):
        assert lo <= hi


def test_lr_zero_when_fully_leaked():
    p = ModelParams(n=4, k=2, r=2, L=(0, 1))
    h = sample_H(2, 2, make_rng(4))
    assert lr_squared_exact(h, p).total == 0


def test_lr_full_degree_equals_chi_square():
    for (n, k, r, L, seed) in [(4, 3, 2, (), 5), (5, 4, 2, (0, 1), 6), (5, 4, 3, (0,), 7)]:
        p = ModelParams(n=n, k=k, r=r, L=L)
        h = sample_H(k, r, make_rng(seed))
        rep = lr_squared_exact(h, p)
        assert rep.total == chi_square(exact_pmf(h, p, "planted"), exact_pmf(h, p, "null"))


def test_lr_invariant_under_permuting_hidden_template_vertices():
    p = ModelParams(n=5, k=4, r=2, L=(0,))
    h = sample_H(4, 2, make_rng(8))
    base = lr_squared_exact(h, p).cumulative
    for pi in ([0, 2, 1, 3], [0, 3, 1, 2], [0, 1, 3, 2]):
        assert lr_squared_exact(relabel(h, pi), p).cumulative == base


def test_lr_guard():
    p = ModelParams(n=40, k=12, r=2)
    with pytest.raises(GuardExceeded):
        lr_squared_exact(sample_H(12, 2, make_rng(9)), p, 1)


def test_nvd_examples():
    assert count_nvd(3, 2, 0, 2, 2).value == 3
    assert count_nvd(3, 2, 0, 3, 2).value == 3
    assert count_nvd(3, 2, 0, 3, 3).value == 4
    assert count_nvd(3, 2, 0, 0, 3) == (0, True)


def test_nvd_exact_never_exceeds_bound():
    for n in range(3, 7):
        for ell in range(0, 3):
            table = count_nvd_exact_table(n, 2, ell, 3)
            for v, exact in table.items():
                assert exact <= count_nvd_bound(n, 2, ell, v)


def test_nvd_bound_mode_flag_and_guard():
    res = count_nvd(30, 3, 0, 5, 9, mode="auto")
    assert not res.exact
    assert res.value == count_nvd_bound(30, 3, 0, 5)
    with pytest.raises(GuardExceeded):
        count_nvd(30, 3, 0, 5, 9, mode="exact")


def test_combinatorial_bound_example():
    bi = BoundInputs(n=3, k=2, r=2, l=0, D=1)
    assert combinatorial_bound(bi, "exactN") == Fraction(48, 81)
    assert combinatorial_bound(BoundInputs(n=4, k=2, r=2, l=2, D=2), "exactN") == 0
    assert combinatorial_bound(bi, "boundN") >= combinatorial_bound(bi, "exactN")


def test_combinatorial_bound_dominates_template_average():
    bi = BoundInputs(n=3, k=2, r=2, l=0, D=1)
    avg = moment_exact(ModelParams(n=3, k=2, r=2), 1, 1)
    assert avg == Fraction(1, 3)
    assert combinatorial_bound(bi, "exactN") >= avg


def test_moment_exact_examples():
    assert moment_exact(ModelParams(n=4, k=2, r=2, L=(0, 1)), 2, 1) == 0
    assert moment_exact(ModelParams(n=3, k=2, r=2), 1, 1) == Fraction(1, 3)
    assert abs(moment_exact(ModelParams(n=3, k=2, r=2), 1, 2) - 1 / 3) < 1e-12
    with pytest.raises(GuardExceeded):
        moment_exact(ModelParams(n=8, k=6, r=2), 1, 1)


def test_theorem_bound_reference_value():
    bi = BoundInputs(n=2 ** 20, k=4, r=2, l=0, D=3, p=1, epsilon=0.5, delta=0.125)
    tb = theorem_bound(bi)
    expected_low = 2 ** -10 / (1 - 2 ** -7.5)
    assert tb.low == pytest.approx(expected_low, abs=1e-15)
    assert abs(tb.low - 9.820e-4) < 1e-6
    assert tb.total == tb.low + tb.high
    assert not tb.high_vacuous
    assert set(tb.conditions) == {"size", "leakage", "degree", "density"}


def test_theorem_bound_leading_factor_and_leakage_ratio():
    base = BoundInputs(n=4096, k=8, r=2, l=0, D=2, epsilon=0.5, delta=0.1)
    assert theorem_bound(base).low == pytest.approx(
        4096 ** -0.5 / (1 - 4096 ** -0.4), rel=1e-12)
    for ell in range(0, 3):
        lo = theorem_bound(BoundInputs(n=4096, k=8, r=2, l=ell, D=2,
                                       epsilon=0.5, delta=0.1)).low
        hi = theorem_bound(BoundInputs(n=4096, k=8, r=2, l=ell + 1, D=2,
                                       epsilon=0.5, delta=0.1)).low
        ratio = 2 ** (binom(ell + 1, 1) - binom(ell, 1))
        assert hi / lo == pytest.approx(ratio, rel=1e-12)


def test_theorem_bound_vacuous_high_part():
    tb = theorem_bound(BoundInputs(n=8, k=4, r=2, l=3, D=1, epsilon=0.5, delta=0.01))
    assert tb.t <= 0 and tb.high_vacuous


def test_corollary_examples():
    bi = BoundInputs(n=2 ** 20, k=4, r=2, l=0, D=3, p=1, epsilon=0.5, delta=0.125)
    total = theorem_bound(bi).total
    assert corollary_bound(bi, 0.25) == total / 0.25
    assert corollary_bound(bi, 0.5) == 2 * corollary_bound(bi, 1.0)
    bi2 = BoundInputs(n=100, k=4, r=2, l=1, D=2, p=2, epsilon=0.5, delta=0.1)
    assert corollary_bound(bi2, 1.0) == pytest.approx(
        100 * theorem_bound(bi2).total ** 2, rel=1e-12)
    with pytest.raises(ValidationError):
        corollary_bound(bi, 0.0)


def test_bound_inputs_validation():
    with pytest.raises(ValidationError):
        BoundInputs(n=10, k=4, r=2, l=0, D=0)
    with pytest.raises(ValidationError):
        BoundInputs(n=10, k=4, r=2, l=0, D=1, epsilon=0.5, delta=0.6)
    assert BoundInputs(n=10, k=4, r=2, l=0, D=1, epsilon=0.4).delta_resolved == 0.1
