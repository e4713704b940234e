"""Exact degree-D likelihood-ratio machinery and closed-form bound evaluators.

The best advantage of any polynomial distinguisher of degree at most D
between the planted and null ensembles has squared value

    LR_D^2  =  sum over characters alpha, 1 <= |alpha| <= D, of  coef(alpha)^2

where alpha ranges over nonempty sets of hyperedge coordinates with no
member fully inside the leaked set, and coef(alpha) is the planted
expectation of the product of spins over alpha.  Coordinates not
covered by the hidden embedding integrate to zero, so coef(alpha) is an
average over embeddings covering every member of alpha.

Squaring that average pairs two embeddings (the second moment of
Kunisky, Wein and Bandeira, arXiv:1907.11636), and the degree-j
characters on the non-leaked-internal coordinates both cover sum to
[x^j] (1 + x)^a (1 - x)^b, where a (b) counts those coordinates whose
template spins agree (differ).  Relabelling host vertices outside L
carries any embedding to any other, so one phi0 stands for all N:

    LR_D^2 = (1/N) sum_{phi'} sum_{j=1..D} [x^j] (1 + x)^a (1 - x)^b.

Grouping characters by v = |V(alpha) \\ L|, the count N(v, D) of
characters with exactly v vertices outside the leaked set controls the
averaged squared ratio through

    E LR_D^2  <=  sum_v N(v, D) * (v (k - l) / (n - l)^2)^v,

and N(v, D) itself is at most C(n - l, v) * 2^(C(v + l, r) - C(l, r)).
The closed-form evaluators below compute the low/high vertex-count
parts of that sum and the union-bound tail over leakage sets, exactly
as displayed, without inventing constants for any asymptotic form.

Integer products of +-1 spins are accumulated exactly; rational mode
reports Fractions, float mode divides at the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .ensemble import injection_table
from .errors import GuardExceeded, ValidationError
from .hypercore import Hypergraph, binom, rank_lut, rank_subset, subset_table, unrank_subset
# EMBEDDING_GUARD is re-exported as the guard both LR paths enforce.
from .models import EMBEDDING_GUARD, ModelParams, _check_shapes, _embedding_count  # noqa: F401

LR_WORK_GUARD = 40_000_000
NVD_COORD_GUARD = 24
NVD_SUBSET_GUARD = 4_000_000


def validate_fourier_index(alpha, n: int, r: int, L) -> frozenset[int]:
    """Check a character index: nonempty hyperedge ranks, none inside L."""
    idx = frozenset(int(a) for a in alpha)
    if not idx:
        raise ValidationError("a Fourier index must contain at least one hyperedge")
    m = binom(n, r)
    leaked = set(L)
    for a in idx:
        if a < 0 or a >= m:
            raise ValidationError(f"hyperedge rank {a} out of range [0, {m})")
        if set(unrank_subset(a, n, r)) <= leaked:
            raise ValidationError(
                f"hyperedge {unrank_subset(a, n, r)} lies entirely inside the leaked set"
            )
    return idx


def index_vertices(alpha, n: int, r: int) -> frozenset[int]:
    """V(alpha): all vertices spanned by the member hyperedges."""
    vs: set[int] = set()
    for a in alpha:
        vs.update(unrank_subset(int(a), n, r))
    return frozenset(vs)


def fourier_coefficient(h: Hypergraph, params: ModelParams, alpha, rational: bool = True):
    """Planted expectation of the spin product over one character.

    Reference path: re-enumerates all constrained embeddings for this
    single alpha.  An embedding contributes the product of template spins
    when it covers every member hyperedge, and zero otherwise.
    """
    _check_shapes(h, params)
    idx = validate_fourier_index(alpha, params.n, params.r, params.L)
    n_emb = _embedding_count(params)
    edges = [unrank_subset(a, params.n, params.r) for a in sorted(idx)]
    acc = 0
    for targets in injection_table(params.n, params.k, params.L).tolist():
        inv = {t: u for u, t in enumerate(targets)}
        prod = 1
        for e in edges:
            if any(v not in inv for v in e):
                prod = 0
                break
            prod *= h.spin(rank_subset(sorted(inv[v] for v in e), params.k))
        acc += prod
    return Fraction(acc, n_emb) if rational else acc / n_emb


@dataclass(frozen=True)
class LrReport:
    """Squared likelihood-ratio advantage, cumulative by degree.

    ``cumulative[d - 1]`` is the squared value at degree d; the final
    entry equals the total, which at full degree coincides with the
    chi-square divergence between the two ensembles.
    """

    degree: int
    cumulative: list
    n_embeddings: int
    mode: str

    @property
    def total(self):
        return self.cumulative[-1]

    def at_degree(self, d: int):
        if d < 1:
            raise ValidationError("degree must be >= 1")
        return self.cumulative[min(d, self.degree) - 1]


def _pair_term(a: int, b: int, depth: int) -> list[int]:
    """[x^j] (1 + x)^a (1 - x)^b for j = 1..depth."""
    return [sum((-1) ** i * binom(b, i) * binom(a, j - i) for i in range(j + 1))
            for j in range(1, depth + 1)]


def lr_squared_exact(h: Hypergraph, params: ModelParams, degree: int | None = None,
                     rational: bool = True) -> LrReport:
    """Exact squared degree-D advantage from one pair-of-embeddings overlap
    histogram, by the identity in the module docstring.

    Relabelling host vertices outside L carries any embedding to any
    other, so phi0, the identity on [0, k) (row 0 of the injection
    table), stands for the first of every pair; phi' shares a coordinate
    with it exactly when its image lies inside [0, k).  The degree is
    capped at C(n, r) - C(l, r), the most hyperedges a character can
    have.  :func:`fourier_coefficient` is the per-character reference.
    """
    _check_shapes(h, params)
    # a fully-leaked coordinate space has no characters; keep one (empty)
    # degree slot so the report still carries a zero total
    d_max = max(binom(params.n, params.r) - binom(params.ell, params.r), 1)
    if degree is not None and degree < 1:
        raise ValidationError("degree must be >= 1")
    degree = d_max if degree is None else min(degree, d_max)

    n_emb = _embedding_count(params)
    k_subsets = subset_table(params.k, params.r)
    keep = np.flatnonzero(~np.isin(k_subsets, params.L).all(axis=1))
    work = n_emb * keep.size
    if work > LR_WORK_GUARD:
        raise GuardExceeded(f"{work} overlap entries exceed the guard {LR_WORK_GUARD}")

    targets = injection_table(params.n, params.k, params.L)
    spins = h.spins
    lut = rank_lut(params.k, params.r)
    agree = np.zeros(n_emb, dtype=np.int64)
    differ = np.zeros(n_emb, dtype=np.int64)
    for j in keep.tolist():
        image = targets[:, k_subsets[j]]
        rows = np.flatnonzero((image < params.k).all(axis=1))
        same = spins[lut[tuple(image[rows].T)]] == spins[j]
        agree[rows] += same
        differ[rows] += ~same

    depth = min(degree, keep.size)
    sums = [0] * degree
    pairs, mult = np.unique(np.stack([agree, differ], axis=1), axis=0, return_counts=True)
    for (a, b), c in zip(pairs.tolist(), mult.tolist()):
        for j, term in enumerate(_pair_term(a, b, depth)):
            sums[j] += c * term
    cumulative = [Fraction(s, n_emb) if rational else s / n_emb
                  for s in itertools.accumulate(sums)]
    return LrReport(degree=degree, cumulative=cumulative, n_embeddings=n_emb,
                    mode="rational" if rational else "float")


class NvdCount(NamedTuple):
    """A character count, flagged exact or an upper bound."""

    value: int
    exact: bool


def _nvd_exact_feasible(n: int, r: int, l: int, D: int) -> bool:
    m = binom(n, r)
    if m > NVD_COORD_GUARD:
        return False
    ground = m - binom(l, r)
    return sum(binom(ground, j) for j in range(1, min(D, ground) + 1)) <= NVD_SUBSET_GUARD


@lru_cache(maxsize=256)
def count_nvd_exact_table(n: int, r: int, l: int, D: int) -> dict[int, int]:
    """Exact N(v, D) for every v, by enumerating all characters of size <= D."""
    if not _nvd_exact_feasible(n, r, l, D):
        raise GuardExceeded("character enumeration too large; use bound mode")
    leaked = set(range(l))
    m = binom(n, r)
    outside = []
    for j in range(m):
        vs = set(unrank_subset(j, n, r))
        if not vs <= leaked:
            outside.append(frozenset(vs - leaked))
    counts: dict[int, int] = {}
    for size in range(1, min(D, len(outside)) + 1):
        for combo in itertools.combinations(outside, size):
            v = len(frozenset.union(*combo))
            counts[v] = counts.get(v, 0) + 1
    return counts


def count_nvd_bound(n: int, r: int, l: int, v: int) -> int:
    """The counting bound C(n - l, v) * 2^(C(v + l, r) - C(l, r))."""
    return binom(n - l, v) * (1 << (binom(v + l, r) - binom(l, r)))


def count_nvd(n: int, r: int, l: int, v: int, D: int, mode: str = "auto") -> NvdCount:
    """Number of characters with <= D hyperedges spanning exactly v vertices
    outside the leaked set; exact by enumeration when feasible, otherwise
    the counting bound (flagged)."""
    if mode not in ("auto", "exact", "bound"):
        raise ValidationError(f"unknown nvd mode {mode!r}")
    if v < 1:
        if mode == "bound":
            return NvdCount(count_nvd_bound(n, r, l, max(v, 0)), False)
        return NvdCount(0, True)
    if mode == "bound":
        return NvdCount(count_nvd_bound(n, r, l, v), False)
    if mode == "exact" and not _nvd_exact_feasible(n, r, l, D):
        raise GuardExceeded("exact character enumeration infeasible at these sizes")
    if mode == "auto" and not _nvd_exact_feasible(n, r, l, D):
        return NvdCount(count_nvd_bound(n, r, l, v), False)
    return NvdCount(count_nvd_exact_table(n, r, l, D).get(v, 0), True)


@dataclass(frozen=True)
class BoundInputs:
    """Parameters for the closed-form bound evaluators."""

    n: int
    k: int
    r: int
    l: int
    D: int
    p: int = 1
    epsilon: float = 0.5
    delta: float | None = None

    def __post_init__(self):
        if self.r < 2:
            raise ValidationError("uniformity r must be >= 2")
        if not (0 <= self.l <= self.k <= self.n):
            raise ValidationError("need 0 <= l <= k <= n")
        if self.D < 1 or self.p < 1:
            raise ValidationError("need D >= 1 and p >= 1")
        if self.epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        if self.delta is not None and not (0 < self.delta < self.epsilon):
            raise ValidationError("need 0 < delta < epsilon")

    @property
    def delta_resolved(self) -> float:
        return self.epsilon / 4 if self.delta is None else self.delta

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BoundInputs":
        try:
            return cls(
                n=int(obj["n"]), k=int(obj["k"]), r=int(obj["r"]), l=int(obj["l"]),
                D=int(obj["D"]), p=int(obj.get("p", 1)),
                epsilon=float(obj["epsilon"]),
                delta=None if obj.get("delta") is None else float(obj["delta"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed bound inputs JSON: {exc}") from exc


def combinatorial_bound(inputs: BoundInputs, mode: str = "exactN") -> Fraction:
    """sum_{v=1}^{rD} N(v, D) * (v (k - l) / (n - l)^2)^v, exactly in rationals.

    ``exactN`` enumerates the character counts, ``boundN`` uses the
    counting bound for them.
    """
    if mode not in ("exactN", "boundN"):
        raise ValidationError(f"mode must be exactN or boundN, got {mode!r}")
    if inputs.k == inputs.l:
        return Fraction(0)
    ratio = Fraction(inputs.k - inputs.l, (inputs.n - inputs.l) ** 2)
    if mode == "exactN":
        table = count_nvd_exact_table(inputs.n, inputs.r, inputs.l, inputs.D)
    total = Fraction(0)
    for v in range(1, inputs.r * inputs.D + 1):
        n_v = table.get(v, 0) if mode == "exactN" else count_nvd_bound(
            inputs.n, inputs.r, inputs.l, v)
        total += n_v * (v * ratio) ** v
    return total


@dataclass(frozen=True)
class TheoremBound:
    """Closed-form evaluation of the averaged squared-advantage bound.

    ``low`` covers characters with few vertices outside the leakage,
    ``high`` the rest; ``total`` is their sum.  ``t`` is the crossover
    vertex count; when t <= 0 the high part is vacuous at these
    parameters and is flagged rather than suppressed.
    """

    low: float
    high: float
    total: float
    t: float
    delta: float
    high_vacuous: bool
    conditions: dict = field(default_factory=dict)


def theorem_bound(inputs: BoundInputs) -> TheoremBound:
    """Evaluate the explicit low/high-part bound on the averaged squared advantage.

    low  = 2^C(l, r-1) * n^-eps / (1 - n^(-eps + delta))
    high = 8 r * n^(-eps t) * exp(eps delta^2 (log n)^(r/(r-1)))
    t    = (r - 1) (delta log n)^(1/(r-1)) / e  -  l

    Natural logarithms throughout.  Hypothesis violations are reported in
    ``conditions``, never fatal.
    """
    if inputs.n < 3:
        raise ValidationError("bound evaluation needs n >= 3 (log log n must exist)")
    n, k, r, l = inputs.n, inputs.k, inputs.r, inputs.l
    d_cap, p = inputs.D, inputs.p
    eps = inputs.epsilon
    delta = inputs.delta_resolved
    ln_n = math.log(n)

    t = (r - 1) * (delta * ln_n) ** (1.0 / (r - 1)) / math.e - l
    low = (2 ** binom(l, r - 1)) * n ** (-eps) / (1 - n ** (-eps + delta))
    high = 8 * r * n ** (-eps * t) * math.exp(eps * delta ** 2 * ln_n ** (r / (r - 1)))

    conditions = {
        "size": k <= (n - l) * n ** (-eps) / (24 * p ** 2 * d_cap ** 2) + l,
        "leakage": l <= min(k, eps ** (1.0 / (r - 1)) * r * ln_n ** (1.0 / (r - 1)) / 40),
        "degree": d_cap <= eps ** 3 * ln_n ** (r / (r - 1)) / ((r / (r - 1)) * math.log(ln_n)),
        "density": n > l and math.e * (k - l) / (n - l) <= n ** (-eps),
    }
    return TheoremBound(low=low, high=high, total=low + high, t=t, delta=delta,
                        high_vacuous=t <= 0, conditions=conditions)


def corollary_bound(inputs: BoundInputs, eta: float) -> float:
    """Union-bound tail over all leakage sets of one size:
    C(n, l) * eta^-p * (single-moment bound)^p."""
    if eta <= 0:
        raise ValidationError("eta must be positive")
    tb = theorem_bound(inputs)
    return binom(inputs.n, inputs.l) * tb.total ** inputs.p / eta ** inputs.p


MOMENT_TEMPLATE_GUARD = 12


def moment_exact(params: ModelParams, degree: int, p: int = 1):
    """(E_H LR_D^(2p))^(1/p), averaging over every template exhaustively.

    Exact Fraction for p = 1; float root otherwise.
    """
    if p < 1:
        raise ValidationError("p must be >= 1")
    m_k = binom(params.k, params.r)
    if m_k > MOMENT_TEMPLATE_GUARD:
        raise GuardExceeded(
            f"C(k, r) = {m_k} exceeds the exhaustive-template guard {MOMENT_TEMPLATE_GUARD}"
        )
    acc = Fraction(0)
    for mask in range(1 << m_k):
        h = Hypergraph.from_mask(params.k, params.r, mask)
        lr2 = lr_squared_exact(h, params, degree, rational=True).total
        acc += lr2 ** p
    mean = acc / (1 << m_k)
    if p == 1:
        return mean
    return float(mean) ** (1.0 / p)
