"""Canonical hypergraph combinatorics: subset ranking, storage, relabeling.

An r-uniform hypergraph on vertex set {0, ..., n-1} is an adjacency map
over all C(n, r) r-subsets, ordered lexicographically.  Each coordinate
is a spin in {-1, +1}, with -1 marking a present hyperedge and +1 an
absent one.  Wherever a Boolean view is needed, bit b corresponds to
spin (-1)**b, so bit 1 means present; this module owns that conversion
pair and every other module imports it from here.

Vertices are 0-indexed throughout.  Spins are stored bit-packed (one
bit per coordinate) and the +-1 view is computed on access.  All values
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import GuardExceeded, ValidationError

# The most coordinates a hypergraph may have: it is one bit vector of them.
SAMPLE_COORD_GUARD = 100_000_000


def binom(a: int, b: int) -> int:
    """C(a, b) as an exact big integer; 0 when b > a."""
    return math.comb(a, b)


def bit_to_spin(b: int) -> int:
    """Map bit b in {0, 1} to spin (-1)**b: 0 -> +1 (absent), 1 -> -1 (present)."""
    return 1 - 2 * b


def spin_to_bit(s: int) -> int:
    """Inverse of :func:`bit_to_spin`."""
    if s not in (-1, 1):
        raise ValidationError(f"spin must be -1 or +1, got {s}")
    return (1 - s) // 2


def label_bit_width(n: int) -> int:
    """Bits needed to encode one vertex label in [0, n)."""
    return max(1, math.ceil(math.log2(n)))


def encode_label(v: int, n: int) -> str:
    """Fixed-width binary encoding of a vertex label; the wire form of a
    share or a protocol message."""
    if not 0 <= v < n:
        raise ValidationError(f"label {v} out of range [0, {n})")
    return format(v, f"0{label_bit_width(n)}b")


def rank_subset(vertices: Sequence[int], n: int) -> int:
    """Lexicographic rank of a sorted r-subset among all r-subsets of [0, n).

    Raises if the vertices are not strictly increasing or fall outside
    [0, n).
    """
    vs = list(vertices)
    r = len(vs)
    if any(v < 0 or v >= n for v in vs):
        raise ValidationError(f"vertices {vs} out of range for n={n}")
    if any(vs[i] >= vs[i + 1] for i in range(r - 1)):
        raise ValidationError(f"vertices {vs} not strictly increasing")
    rank = 0
    prev = -1
    for i, v in enumerate(vs):
        for c in range(prev + 1, v):
            rank += binom(n - 1 - c, r - 1 - i)
        prev = v
    return rank


def unrank_subset(rank: int, n: int, r: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_subset`: the r-subset of [0, n) at a given rank."""
    total = binom(n, r)
    if rank < 0 or rank >= total:
        raise ValidationError(f"rank {rank} out of range [0, {total})")
    out = []
    prev = -1
    for i in range(r):
        c = prev + 1
        while True:
            block = binom(n - 1 - c, r - 1 - i)
            if rank < block:
                break
            rank -= block
            c += 1
        out.append(c)
        prev = c
    return tuple(out)


@lru_cache(maxsize=None)
def subset_table(n: int, r: int) -> np.ndarray:
    """All r-subsets of [0, n) in lexicographic order, as an (M, r) int64 array."""
    m = binom(n, r)
    table = np.empty((m, r), dtype=np.int64)
    for i, combo in enumerate(itertools.combinations(range(n), r)):
        table[i] = combo
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _rank_prefix_tables(n: int, r: int) -> np.ndarray:
    """Prefix sums used by the vectorized ranker.

    tables[j][c] = sum_{c' < c} C(n-1-c', j), for 0 <= c <= n; the
    largest entry, tables[j][n], is C(n, j + 1), and every one must fit in
    int64.
    """
    top = max((binom(n, j + 1) for j in range(r)), default=0)
    if top >= 1 << 63:
        raise GuardExceeded(f"ranking r-subsets of n={n} vertices with r={r} needs "
                            f"C(n, j) up to {top}, beyond the int64 limit 2^63 - 1")
    tables = np.zeros((r, n + 1), dtype=np.int64)
    for j in range(r):
        acc = 0
        for c in range(n):
            tables[j][c] = acc
            acc += binom(n - 1 - c, j)
        tables[j][n] = acc
    tables.setflags(write=False)
    return tables


@lru_cache(maxsize=16)
def rank_lut(n: int, r: int) -> np.ndarray:
    """Order-free rank table: an (n,)*r int64 array whose entry at any
    ordering of an r-subset's vertices is that subset's rank; entries
    with a repeated vertex are -1.  It holds n**r entries, so callers
    use it only where their output is at least that large."""
    table = subset_table(n, r)
    lut = np.full((n,) * r, -1, dtype=np.int64)
    for order in itertools.permutations(range(r)):
        lut[tuple(table[:, list(order)].T)] = np.arange(table.shape[0])
    lut.setflags(write=False)
    return lut


def rank_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Vectorized lexicographic rank of many sorted r-subsets.

    ``rows`` is an (N, r) integer array with strictly increasing rows.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2:
        raise ValidationError("rank_rows expects a 2-d array")
    _, r = rows.shape
    tables = _rank_prefix_tables(n, r)
    ranks = np.zeros(rows.shape[0], dtype=np.int64)
    prev = np.full(rows.shape[0], -1, dtype=np.int64)
    for i in range(r):
        v = rows[:, i]
        j = r - 1 - i
        ranks += tables[j][v] - tables[j][prev + 1]
        prev = v
    return ranks


def _coords(n: int, r: int) -> int:
    """C(n, r) for r >= 2, n >= 0 and at most ``SAMPLE_COORD_GUARD`` coordinates."""
    if r < 2:
        raise ValidationError(f"uniformity r must be >= 2, got {r}")
    if n < 0:
        raise ValidationError(f"vertex count must be >= 0, got {n}")
    m = binom(n, r)
    if m > SAMPLE_COORD_GUARD:
        raise GuardExceeded(f"C(n, r) = C({n}, {r}) = {m} coordinates "
                            f"exceed the guard {SAMPLE_COORD_GUARD}")
    return m


@dataclass(frozen=True)
class Hypergraph:
    """Immutable r-uniform hypergraph on n vertices.

    The adjacency map is stored as packed bits (little-endian bit order),
    one bit per r-subset in lexicographic rank order.  Bit 1 means the
    hyperedge is present (spin -1).  More than ``SAMPLE_COORD_GUARD``
    coordinates are refused.
    """

    n: int
    r: int
    packed: bytes

    def __post_init__(self):
        m = _coords(self.n, self.r)
        if len(self.packed) != (m + 7) // 8:
            raise ValidationError(
                f"packed length {len(self.packed)} does not match C({self.n},{self.r})={m}"
            )
        if m % 8 and self.packed and self.packed[-1] >> (m % 8):
            raise ValidationError("padding bits past the last coordinate must be zero")

    @property
    def num_coords(self) -> int:
        return binom(self.n, self.r)

    @classmethod
    def from_bits(cls, n: int, r: int, bits: Iterable[int]) -> "Hypergraph":
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits, dtype=np.uint8)
        m = binom(n, r)
        if arr.shape != (m,):
            raise ValidationError(f"expected {m} bits, got shape {arr.shape}")
        if arr.size and arr.max() > 1:
            raise ValidationError("bits must be 0 or 1")
        return cls(n, r, np.packbits(arr, bitorder="little").tobytes())

    @classmethod
    def from_spins(cls, n: int, r: int, spins: Iterable[int]) -> "Hypergraph":
        return cls.from_bits(n, r, [spin_to_bit(int(s)) for s in spins])

    @classmethod
    def from_mask(cls, n: int, r: int, mask: int) -> "Hypergraph":
        """Build from an integer whose i-th bit is the i-th coordinate's bit."""
        m = binom(n, r)
        if mask < 0 or mask >> m:
            raise ValidationError(f"mask out of range for {m} coordinates")
        return cls(n, r, mask.to_bytes((m + 7) // 8, "little"))

    @classmethod
    def from_present(cls, n: int, r: int, edges: Iterable[Sequence[int]]) -> "Hypergraph":
        """Build from the present hyperedges, each r distinct integer
        vertices of [0, n) in any order.  This is where hyperedge lists are
        validated: ragged or wrong-length rows, non-integer or out-of-range
        vertices, repeated vertices and repeated hyperedges are refused."""
        m = _coords(n, r)
        rows = list(edges)
        try:
            arr = np.array(rows) if rows else np.empty((0, r), dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"hyperedges must be lists of r={r} vertices") from exc
        if arr.ndim != 2 or arr.shape[1] != r:
            raise ValidationError(f"hyperedges must be lists of r={r} vertices, got {rows[0]}")
        if arr.dtype.kind not in "iu" or arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValidationError(f"hyperedge vertices must be integers in [0, {n})")
        arr = np.sort(arr.astype(np.int64), axis=1)
        if (arr[:, 1:] == arr[:, :-1]).any():
            raise ValidationError(f"a hyperedge repeats a vertex (r={r})")
        ranks = np.sort(rank_rows(arr, n))
        dup = ranks[1:][ranks[1:] == ranks[:-1]]
        if dup.size:
            raise ValidationError(f"duplicate hyperedge {list(unrank_subset(int(dup[0]), n, r))}")
        bits = np.zeros(m, dtype=np.uint8)
        bits[ranks] = 1
        return cls.from_bits(n, r, bits)

    @classmethod
    def empty(cls, n: int, r: int) -> "Hypergraph":
        return cls.from_mask(n, r, 0)

    @property
    def bits(self) -> np.ndarray:
        """0/1 view, one entry per coordinate in rank order."""
        raw = np.frombuffer(self.packed, dtype=np.uint8)
        out = np.unpackbits(raw, bitorder="little")[: self.num_coords]
        out.setflags(write=False)
        return out

    @property
    def spins(self) -> np.ndarray:
        """The +-1 view: spin = (-1)**bit."""
        return (1 - 2 * self.bits.astype(np.int8)).astype(np.int8)

    @property
    def mask(self) -> int:
        """The bit view packed into one integer (bit i = coordinate i)."""
        return int.from_bytes(self.packed, "little")

    def bit(self, rank: int) -> int:
        if rank < 0 or rank >= self.num_coords:
            raise ValidationError(f"coordinate rank {rank} out of range")
        return (self.packed[rank >> 3] >> (rank & 7)) & 1

    def spin(self, rank: int) -> int:
        return bit_to_spin(self.bit(rank))

    def edge_bit(self, vertices: Sequence[int]) -> int:
        return self.bit(rank_subset(sorted(vertices), self.n))

    def edge_spin(self, vertices: Sequence[int]) -> int:
        return bit_to_spin(self.edge_bit(vertices))

    @property
    def num_present(self) -> int:
        return sum(bin(b).count("1") for b in self.packed)

    def present_edges(self) -> list[tuple[int, ...]]:
        """Present hyperedges as sorted vertex tuples, ordered by rank."""
        bits = self.bits
        return [tuple(int(v) for v in row) for row in subset_table(self.n, self.r)[bits == 1]]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "present": subset_table(self.n, self.r)[self.bits == 1].tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Hypergraph":
        try:
            n, r, present = int(obj["n"]), int(obj["r"]), obj["present"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed hypergraph JSON: {exc}") from exc
        if not isinstance(present, list):
            raise ValidationError("malformed hypergraph JSON: 'present' must be a list")
        return cls.from_present(n, r, present)

    @classmethod
    def from_json(cls, text: str) -> "Hypergraph":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Embedding:
    """Injective map from [0, k) into [0, n) fixing every vertex in `fixed`."""

    n: int
    k: int
    targets: tuple[int, ...]
    fixed: frozenset[int]

    def __post_init__(self):
        if len(self.targets) != self.k or self.k > self.n:
            raise ValidationError(f"embedding needs k={self.k} targets with k <= n={self.n}")
        if len(set(self.targets)) != self.k:
            raise ValidationError("embedding is not injective")
        if any(t < 0 or t >= self.n for t in self.targets):
            raise ValidationError("embedding target out of range")
        for u in self.fixed:
            if u >= self.k or self.targets[u] != u:
                raise ValidationError(f"embedding must fix vertex {u}")

    def __call__(self, u: int) -> int:
        return self.targets[u]

    def apply(self, subset: Sequence[int]) -> tuple[int, ...]:
        """Image of a vertex subset, returned sorted."""
        return tuple(sorted(self.targets[u] for u in subset))

    def image(self) -> frozenset[int]:
        return frozenset(self.targets)


def relabel(g: Hypergraph, pi: Sequence[int]) -> Hypergraph:
    """Apply a vertex permutation: the output spin at {pi(u_1), ..., pi(u_r)}
    equals the input spin at {u_1, ..., u_r}."""
    pi_arr = np.asarray(pi, dtype=np.int64)
    if pi_arr.shape != (g.n,) or sorted(pi_arr.tolist()) != list(range(g.n)):
        raise ValidationError("pi is not a bijection on [0, n)")
    table = subset_table(g.n, g.r)
    new_bits = np.zeros(g.num_coords, dtype=np.uint8)
    if g.num_coords:
        images = np.sort(pi_arr[table], axis=1)
        new_bits[rank_rows(images, g.n)] = g.bits
    return Hypergraph.from_bits(g.n, g.r, new_bits)


def induced(g: Hypergraph, vertices: Sequence[int]) -> Hypergraph:
    """Restriction to a vertex subset, reindexed by position within the subset."""
    vs = list(vertices)
    if sorted(vs) != vs or len(set(vs)) != len(vs):
        raise ValidationError("vertices must be sorted and distinct")
    if any(v < 0 or v >= g.n for v in vs):
        raise ValidationError("vertices out of range")
    m = len(vs)
    if m < g.r:
        raise ValidationError(f"need at least r={g.r} vertices, got {m}")
    vs_arr = np.asarray(vs, dtype=np.int64)
    sub = subset_table(m, g.r)
    ranks = rank_rows(vs_arr[sub], g.n)
    return Hypergraph.from_bits(m, g.r, g.bits[ranks])
