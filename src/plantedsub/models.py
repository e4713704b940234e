"""Samplers and exact mass oracles for the planted and null ensembles.

The planted ensemble hides a k-vertex template inside an n-vertex
r-uniform hypergraph through a uniform injective embedding that fixes
every leaked vertex; coordinates not covered by the embedding are
independent uniform spins.  The null ensemble copies only the
template's restriction to the leaked set and is uniform elsewhere.  In
both, the marginal law of the big hypergraph is uniform; the template
and the leaked positions are what an observer gets to use.

Desk-scale instances admit exact enumeration of either ensemble, which
the rest of the package uses as the ground truth oracle for advantages
and total-variation distances.  An enumerated ensemble is an
integer-count :class:`~plantedsub.ensemble.Ensemble` (uint64 state
keys, int64 counts, one common denominator); total variation and
chi-square reduce exactly on those counts, and a :class:`Pmf` shows
them as a key -> Fraction mapping only when asked.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .ensemble import (CountMass, Ensemble, count_states, covered_ranks,
                       injection_count, injection_table)
from .errors import GuardExceeded, ValidationError
from .hypercore import SAMPLE_COORD_GUARD, Embedding, Hypergraph, binom, subset_table

PMF_COORD_GUARD = 20
EMBEDDING_GUARD = 10_000_000
STATE_GUARD = 30_000_000


@dataclass(frozen=True)
class ModelParams:
    """Instance shape: host size n, template size k, uniformity r, leakage L."""

    n: int
    k: int
    r: int
    L: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "L", tuple(int(v) for v in self.L))
        if self.r < 2 or self.r > self.n:
            raise ValidationError(f"need 2 <= r <= n, got r={self.r}, n={self.n}")
        if not (0 <= self.ell <= self.k <= self.n):
            raise ValidationError(
                f"need ell <= k <= n, got ell={self.ell}, k={self.k}, n={self.n}"
            )
        if list(self.L) != sorted(set(self.L)) or any(
            v < 0 or v >= self.k for v in self.L
        ):
            raise ValidationError(f"L must be a sorted subset of [0, k), got {self.L}")

    @property
    def ell(self) -> int:
        return len(self.L)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "r": self.r, "L": list(self.L), "seed": self.seed}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelParams":
        try:
            return cls(
                n=int(obj["n"]),
                k=int(obj["k"]),
                r=int(obj["r"]),
                L=tuple(obj.get("L", ())),
                seed=int(obj.get("seed", 0)),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed params JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        return cls.from_json_dict(json.loads(text))


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def trial_rng(seed: int, *path: int) -> np.random.Generator:
    """Substream for a trial or chunk: derived from (seed, *path), so parallel
    work is reproducible independent of scheduling."""
    return np.random.default_rng(np.random.SeedSequence((seed,) + path))


def sample_H(k: int, r: int, rng: np.random.Generator) -> Hypergraph:
    """Uniform template: each of the C(k, r) spins is an independent fair coin."""
    m = binom(k, r)
    return Hypergraph.from_bits(k, r, rng.integers(0, 2, size=m, dtype=np.uint8))


def sample_embedding(params: ModelParams, rng: np.random.Generator) -> Embedding:
    """Uniform injection [0, k) -> [0, n) with every leaked vertex fixed.

    Drawn as a uniform ordered sample of k - ell targets from the
    non-leaked vertices, assigned to the non-leaked sources in increasing
    order; this matches the subset-then-bijection decomposition.
    """
    leaked = set(params.L)
    avail = np.array([v for v in range(params.n) if v not in leaked], dtype=np.int64)
    free_src = [u for u in range(params.k) if u not in leaked]
    targets = [0] * params.k
    for u in params.L:
        targets[u] = u
    if free_src:
        chosen = rng.choice(avail, size=len(free_src), replace=False)
        for u, t in zip(free_src, chosen):
            targets[u] = int(t)
    return Embedding(params.n, params.k, tuple(targets), frozenset(params.L))


def _check_shapes(h: Hypergraph, params: ModelParams) -> None:
    if h.n != params.k or h.r != params.r:
        raise ValidationError(
            f"template shape ({h.n}, r={h.r}) does not match params (k={params.k}, r={params.r})"
        )


def _host_coords(params: ModelParams) -> int:
    """C(n, r), refusing a host too large to draw as one bit vector."""
    m = binom(params.n, params.r)
    if m > SAMPLE_COORD_GUARD:
        raise GuardExceeded(f"C(n, r) = C({params.n}, {params.r}) = {m} coordinates "
                            f"exceed the sampling guard {SAMPLE_COORD_GUARD}")
    return m


def _embedding_count(params: ModelParams) -> int:
    """Number of constrained embeddings, refused past ``EMBEDDING_GUARD``."""
    n_emb = injection_count(params.n, params.k, params.ell)
    if n_emb > EMBEDDING_GUARD:
        raise GuardExceeded(f"{n_emb} embeddings exceed the guard {EMBEDDING_GUARD}")
    return n_emb


def plant(h: Hypergraph, params: ModelParams,
          rng: np.random.Generator) -> tuple[Hypergraph, Embedding]:
    """The planting step: hide the template in a fair-coin host; returns
    the host and the embedding.

    Draw order: the embedding first, then all C(n, r) base coordinates in
    rank order (covered ones are then overwritten), so a fixed rng state
    yields a fixed output.  :func:`sample_planted`, the PSM setup and the
    secret-sharing dealer all plant through here.
    """
    _check_shapes(h, params)
    emb = sample_embedding(params, rng)
    bits = rng.integers(0, 2, size=_host_coords(params), dtype=np.uint8)
    targets = np.array([emb.targets], dtype=np.int64)
    bits[covered_ranks(targets, subset_table(params.k, params.r), params.n)[0]] = h.bits
    return Hypergraph.from_bits(params.n, params.r, bits), emb


def sample_planted(h: Hypergraph, params: ModelParams, rng: np.random.Generator) -> Hypergraph:
    """One planted draw: embed the template, fill the rest with fair coins
    (:func:`plant`'s host)."""
    return plant(h, params, rng)[0]


def _leaked_internal(h: Hypergraph, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Host ranks of the r-subsets inside the leaked set, and the template
    bits the null ensemble copies onto them."""
    leaked = np.array([params.L], dtype=np.int64)
    internal = subset_table(params.ell, params.r)
    return (covered_ranks(leaked, internal, params.n)[0],
            h.bits[covered_ranks(leaked, internal, params.k)[0]])


def sample_null(h: Hypergraph, params: ModelParams, rng: np.random.Generator) -> Hypergraph:
    """One null draw: copy the template on leaked-internal subsets, coins elsewhere."""
    _check_shapes(h, params)
    bits = rng.integers(0, 2, size=_host_coords(params), dtype=np.uint8)
    covered, h_bits = _leaked_internal(h, params)
    bits[covered] = h_bits
    return Hypergraph.from_bits(params.n, params.r, bits)


def sample_embedding_targets_batch(params: ModelParams, trials: int,
                                   rng: np.random.Generator) -> np.ndarray:
    """(trials, k) int64 matrix of embedding targets, one uniform constrained
    injection per row.

    A partial Fisher-Yates shuffle of each row's non-leaked vertices: step
    i swaps position i with a uniform position in [i, n - ell), one
    ``rng.integers`` draw of ``trials`` values per step, and after k - ell
    steps the first k - ell positions are a uniform ordered sample.
    """
    leaked = set(params.L)
    avail = np.array([v for v in range(params.n) if v not in leaked], dtype=np.int64)
    free_src = np.array([u for u in range(params.k) if u not in leaked], dtype=np.int64)
    phis = np.empty((trials, params.k), dtype=np.int64)
    for u in params.L:
        phis[:, u] = u
    if free_src.size:
        width = avail.size
        pos = np.tile(np.arange(width, dtype=np.min_scalar_type(width - 1)), (trials, 1))
        flat = pos.ravel()
        row_start = np.arange(trials) * width
        for i in range(free_src.size):
            swap = rng.integers(i, width, size=trials) + row_start
            head = pos[:, i].copy()
            pos[:, i] = flat[swap]
            flat[swap] = head
        phis[:, free_src] = avail[pos[:, : free_src.size]]
    return phis


def sample_planted_bits(h: Hypergraph, params: ModelParams, trials: int,
                        rng: np.random.Generator,
                        columns: np.ndarray | None = None) -> np.ndarray:
    """Batch planted sampler: (trials, C(n, r)) uint8 bit matrix, or
    (trials, len(columns)) holding only the sorted host ranks ``columns``.

    The embedding is drawn before the base coordinate matrix, whose
    coins are drawn packed, eight to a random byte (:func:`_batch_coins`),
    one per column; batch draws are deterministic for a fixed rng state
    but follow their own draw order, distinct from repeated single-draw
    calls.  Given ``columns``, the result equals the full matrix's
    ``columns`` for the same embedding and base coins.
    """
    _check_shapes(h, params)
    m = _host_coords(params)
    phis = sample_embedding_targets_batch(params, trials, rng)
    bits = _batch_coins(trials, m if columns is None else columns.size, rng)
    kernels.plant_batch(bits, phis, np.asarray(subset_table(params.k, params.r)),
                        h.bits, params.n, columns)
    return bits


def sample_null_bits(h: Hypergraph, params: ModelParams, trials: int,
                     rng: np.random.Generator,
                     columns: np.ndarray | None = None) -> np.ndarray:
    """Batch null sampler: (trials, C(n, r)) uint8 bit matrix, or
    (trials, len(columns)) holding only the sorted host ranks ``columns``.

    The coins are drawn packed, eight to a random byte
    (:func:`_batch_coins`), one per column, so the stream differs from
    repeated single-draw calls.
    """
    _check_shapes(h, params)
    m = _host_coords(params)
    bits = _batch_coins(trials, m if columns is None else columns.size, rng)
    covered, h_bits = _leaked_internal(h, params)
    if columns is not None:
        local = kernels.column_positions(covered, columns, m)
        covered, h_bits = local[local >= 0], h_bits[local >= 0]
    bits[:, covered] = h_bits
    return bits


def _batch_coins(trials: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """(trials, m) uint8 fair coins, unpacked from ceil(m / 8) uniform
    bytes per trial."""
    packed = rng.integers(0, 256, size=(trials, -(-m // 8)), dtype=np.uint8)
    return np.unpackbits(packed, axis=1, count=m)


@dataclass(frozen=True)
class Pmf:
    """Exact distribution over full spin vectors, keyed by the packed bit view.

    Key bit i is coordinate i's bit (1 = present).  ``mass`` maps keys to
    Fractions in rational mode, floats otherwise; :func:`exact_pmf` backs
    it with the integer counts in ``ensemble`` and builds the mapping only
    when it is read.
    """

    n: int
    r: int
    mass: Mapping

    @property
    def ensemble(self) -> Ensemble:
        """The masses as exact integer counts over one denominator."""
        if isinstance(self.mass, CountMass):
            return self.mass.ensemble
        return Ensemble.from_mass(self.mass)

    @property
    def num_coords(self) -> int:
        return binom(self.n, self.r)

    def total(self):
        return sum(self.mass.values())

    def prob(self, mask: int):
        return self.mass.get(mask, Fraction(0) if self.is_rational else 0.0)

    @property
    def is_rational(self) -> bool:
        if isinstance(self.mass, CountMass):
            return self.mass.rational
        return not self.mass or isinstance(next(iter(self.mass.values())), Fraction)


def exact_pmf(h: Hypergraph, params: ModelParams, which: str, rational: bool = True) -> Pmf:
    """Exhaustively enumerate one ensemble as integer state counts.

    Null mass is uniform over the spin vectors agreeing with the template
    on leaked-internal subsets; planted mass averages, over every
    constrained embedding, the uniform law on the free coordinates.
    """
    _check_shapes(h, params)
    m = binom(params.n, params.r)
    if m > PMF_COORD_GUARD:
        raise GuardExceeded(f"C(n, r) = {m} exceeds the enumeration guard {PMF_COORD_GUARD}")
    if which not in ("planted", "null"):
        raise ValidationError(f"which must be 'planted' or 'null', got {which!r}")

    if which == "null":
        covered, bits = _leaked_internal(h, params)
        covered = covered[None, :]
    else:
        n_emb = _embedding_count(params)
        n_free = m - binom(params.k, params.r)
        if n_emb << n_free > STATE_GUARD:
            raise GuardExceeded(
                "embedding x free-coordinate state space too large to enumerate: "
                f"{n_emb} embeddings x 2^{n_free} = {n_emb << n_free} states exceed "
                f"the guard {STATE_GUARD}")
        targets = injection_table(params.n, params.k, params.L)
        covered = covered_ranks(targets, subset_table(params.k, params.r), params.n)
        bits = h.bits
    return Pmf(params.n, params.r, CountMass(count_states(bits, covered, m), rational))


def _same_shape(p: Pmf, q: Pmf) -> None:
    if (p.n, p.r) != (q.n, q.r):
        raise ValidationError("pmf shapes differ")


def tv_distance(p: Pmf, q: Pmf):
    """(1/2) sum |p - q| on the integer counts; a float unless both pmfs are rational."""
    _same_shape(p, q)
    value = p.ensemble.tv(q.ensemble)
    return value if p.is_rational and q.is_rational else float(value)


def tv_dict(p: Mapping, q: Mapping) -> Fraction:
    """Total variation between two Fraction-valued pmf mappings; exact on
    the integer counts when both are count views over one key layout."""
    if isinstance(p, CountMass) and isinstance(q, CountMass) and p.layout == q.layout:
        return p.ensemble.tv(q.ensemble)
    acc = Fraction(0)
    for key in p.keys() | q.keys():
        acc += abs(p.get(key, Fraction(0)) - q.get(key, Fraction(0)))
    return acc / 2


def chi_square(p: Pmf, q: Pmf):
    """chi^2(p || q) = sum p(x)^2 / q(x) - 1 over q's support, on the
    integer counts; a float unless both pmfs are rational.

    Requires p's support to lie inside q's.
    """
    _same_shape(p, q)
    value = p.ensemble.chi_square(q.ensemble)
    return value if p.is_rational and q.is_rational else float(value)
