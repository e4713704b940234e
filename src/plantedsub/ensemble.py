"""Exact ensembles as integer counts over packed uint64 state keys.

Every exact oracle in the package enumerates the same kind of state
space: the constrained injections [0, k) -> [0, n), the host
coordinates each one covers, and fair coins on the coordinates left
free.  This module builds that space once, as arrays, and holds the
result as an :class:`Ensemble` ``(keys, counts, denom)``: sorted
distinct uint64 state keys (bit i is coordinate i's bit), their
multiplicities, and the number of equally likely states enumerated, so
the mass of ``keys[i]`` is exactly ``counts[i] / denom``.  Distances
and moments are integer sums over ``counts``; a Fraction is made once
per result, never per state.

Side information (labels, shares, a published template, a function
table) rides in key bits above the host coordinates, as a
:class:`KeyLayout` places it; a :class:`CountMass` shows an ensemble as
the key -> mass mapping that layout reads back.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import GuardExceeded, ValidationError
from .hypercore import rank_lut, rank_rows

KEY_BITS = 64
_INT64_LIMIT = 1 << 63


def _wide(a: np.ndarray, bound: int) -> np.ndarray:
    """``a`` unchanged when every intermediate stays below ``bound`` and
    int64 holds it, otherwise as an array of Python ints."""
    return a if bound < _INT64_LIMIT and a.dtype != object else a.astype(object)


@dataclass(frozen=True)
class Ensemble:
    """A finite law as ``counts[i] / denom`` on the sorted uint64 ``keys``.

    Enumerated ensembles carry int64 counts summing to ``denom``;
    :meth:`from_mass` carries Python-int counts, which never overflow.
    """

    keys: np.ndarray
    counts: np.ndarray
    denom: int

    @classmethod
    def from_mass(cls, mass) -> "Ensemble":
        """Exact counts for a key -> Fraction (or float) mapping, over the
        least common denominator of its masses."""
        items = sorted((key, Fraction(value)) for key, value in mass.items())
        if any(key < 0 or key >> KEY_BITS for key, _ in items):
            raise ValidationError(f"pmf keys must fit in {KEY_BITS} bits")
        denom = math.lcm(*(v.denominator for _, v in items))
        counts = [v.numerator * (denom // v.denominator) for _, v in items]
        return cls(np.array([key for key, _ in items], dtype=np.uint64),
                   np.array(counts, dtype=object), denom)

    def on(self, keys: np.ndarray) -> np.ndarray:
        """Counts aligned to ``keys``, a sorted superset of this support."""
        out = np.zeros(keys.size, dtype=self.counts.dtype)
        out[np.searchsorted(keys, self.keys)] = self.counts
        return out

    def weighted_sum(self, values: np.ndarray) -> int:
        """Exact sum of ``counts * values`` for integer values aligned with ``keys``."""
        bound = int(np.abs(values).max(initial=0)) * self.denom
        return int((_wide(self.counts, bound) * _wide(values, bound)).sum())

    def tv(self, other: "Ensemble") -> Fraction:
        """Total variation distance (1/2) sum |p - q|."""
        keys = union_keys(self.keys, other.keys)
        scale = 2 * self.denom * other.denom
        p = _wide(self.on(keys), scale) * other.denom
        q = _wide(other.on(keys), scale) * self.denom
        return Fraction(int(np.abs(p - q).sum()), scale)

    def chi_square(self, other: "Ensemble") -> Fraction:
        """chi^2(self || other) = sum p^2 / q - 1; self's support must lie
        inside other's."""
        pos = np.searchsorted(other.keys, self.keys)
        if not np.isin(self.keys, other.keys).all() or (other.counts[pos] <= 0).any():
            raise ValidationError("p has mass outside q's support; chi-square diverges")
        # sum (p/dp)^2 / (q/dq) = dq / dp^2 * sum p^2 / q, over q's common multiple
        lcm = math.lcm(*np.unique(other.counts[pos]).tolist())
        bound = lcm * self.denom ** 2
        p, q = _wide(self.counts, bound), _wide(other.counts[pos], bound)
        total = int((p * p * (lcm // q)).sum())
        return Fraction(total * other.denom, bound) - 1


def check_key_width(width: int) -> None:
    """Refuse a state key wider than the uint64 it is packed into."""
    if width > KEY_BITS:
        raise GuardExceeded(f"a state key needs {width} bits; the limit is {KEY_BITS}")


def injection_count(n: int, k: int, n_fixed: int) -> int:
    """Number of injections [0, k) -> [0, n) fixing ``n_fixed`` given points."""
    return math.perm(n - n_fixed, k - n_fixed)


def injection_table(n: int, k: int, fixed) -> np.ndarray:
    """(E, k) int64 table of every injection [0, k) -> [0, n) fixing each
    vertex of ``fixed``; rows follow the lexicographic order of the free
    sources' targets."""
    fixed = sorted(set(int(u) for u in fixed))
    avail = [v for v in range(n) if v not in fixed]
    free_src = [u for u in range(k) if u not in fixed]
    rows = injection_count(n, k, len(fixed))
    table = np.empty((rows, k), dtype=np.int64)
    table[:, fixed] = fixed
    flat = itertools.chain.from_iterable(itertools.permutations(avail, len(free_src)))
    table[:, free_src] = np.fromiter(flat, dtype=np.int64, count=rows * len(free_src)
                                     ).reshape(rows, len(free_src))
    return table


def covered_ranks(targets: np.ndarray, subsets: np.ndarray, n: int) -> np.ndarray:
    """(E, S) host ranks of the image of each row of ``subsets``, an (S, r)
    table of r-subsets of [0, k), under each row of ``targets``, an (E, k)
    table of injections [0, k) -> [0, n).

    Looked up in the order-free :func:`~plantedsub.hypercore.rank_lut`
    when its n**r entries are no more than the E * S ranks asked for, by
    one flat index ``((t0 * n) + t1) * n + ...`` into the raveled table;
    otherwise each image is sorted and ranked.
    """
    rows, (cols, r) = targets.shape[0], subsets.shape
    if n ** r <= rows * cols:
        # one int32 index per rank is half the traffic of r int64 indices;
        # np.take keeps the (E, S) result in row order, so a caller
        # scattering by trial row walks each row's memory in turn
        narrow = targets.astype(np.int32 if n ** r < 1 << 31 else np.int64)
        flat = np.take(narrow, subsets[:, 0], axis=1)
        for i in range(1, r):
            flat *= n
            flat += np.take(narrow, subsets[:, i], axis=1)
        return rank_lut(n, r).ravel()[flat]
    images = np.sort(targets[:, subsets], axis=2).reshape(-1, r)
    return rank_rows(images, n).reshape(rows, cols)


def union_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct keys of two key arrays (``np.union1d``, by one sort)."""
    keys = np.sort(np.concatenate([a, b]))
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def pack(bits, positions: np.ndarray) -> np.ndarray:
    """One uint64 key per row of ``positions``, with ``bits`` set there."""
    shifted = np.asarray(bits, dtype=np.uint64) << positions.astype(np.uint64)
    return np.bitwise_or.reduce(shifted, axis=-1)


def unpack(keys: np.ndarray, m: int) -> np.ndarray:
    """(N, m) uint8 bit rows of uint64 keys; column i is coordinate i."""
    return (keys[:, None] >> np.arange(m, dtype=np.uint64) & np.uint64(1)).astype(np.uint8)


def scatter_table(free) -> np.ndarray:
    """Keys of every fair-coin pattern over the ``free`` coordinates."""
    pattern = np.arange(1 << len(free), dtype=np.uint64)
    out = np.zeros_like(pattern)
    for idx, pos in enumerate(free):
        out |= (pattern >> np.uint64(idx) & np.uint64(1)) << np.uint64(pos)
    return out


def patterns(m: int) -> np.ndarray:
    """(2^m, m) uint8 table of every bit pattern over m coordinates; row t
    holds the bits of t."""
    return unpack(scatter_table(range(m)), m)


def count_states(bits, covered: np.ndarray, m: int, high=None) -> Ensemble:
    """Count every state ``head | coins`` over m coordinates.

    Row i of ``covered`` lists the coordinates it forces, to ``bits`` (row
    i, or one row for all); every other coordinate in [0, m) takes each
    fair-coin pattern.  ``high`` adds per-row key bits above m.  Rows
    forcing the same coordinate set share one scatter table.
    """
    check_key_width(m)
    heads = pack(bits, covered)
    if high is not None:
        heads = heads | high
    masks, inverse, sizes = np.unique(pack(1, covered), return_inverse=True,
                                      return_counts=True)
    groups = np.split(heads[np.argsort(inverse, kind="stable")], np.cumsum(sizes)[:-1])
    chunks = []
    for mask, group in zip(masks.tolist(), groups):
        free = [pos for pos in range(m) if not mask >> pos & 1]
        chunks.append((group[:, None] | scatter_table(free)).ravel())
    states = np.concatenate(chunks)
    keys, counts = np.unique(states, return_counts=True)
    return Ensemble(keys, counts.astype(np.int64), states.size)


@dataclass(frozen=True)
class KeyLayout:
    """Where a state key keeps each part of the tuple a view shows.

    Bits [0, m) are the host coordinates, shown as an int mask.  The next
    ``side`` bits carry side information (a published template or a
    function table), shown as an int mask, or as a tuple of bits when
    ``side_as_bits``.  The bits above carry ``digits`` base-``base``
    digits (labels or shares), shown as a tuple, first digit most
    significant.  ``order`` lists the parts shown, from "side", "host"
    and "digits".
    """

    m: int
    side: int = 0
    digits: int = 0
    base: int = 2
    side_as_bits: bool = False
    order: tuple[str, ...] = ("side", "host", "digits")

    @property
    def width(self) -> int:
        return self.m + self.side + (self.base ** self.digits - 1).bit_length()

    def high(self, digits, side=None) -> np.ndarray:
        """Key bits above the host coordinates for each row of ``digits``
        (and of ``side``, the side-information bits)."""
        check_key_width(self.width)
        digits = np.asarray(digits, dtype=np.uint64)
        code = np.zeros(digits.shape[0], dtype=np.uint64)
        for column in digits.T:
            code = code * np.uint64(self.base) + column
        out = code << np.uint64(self.m + self.side)
        if side is not None:
            out |= pack(side, np.arange(self.m, self.m + self.side))
        return out

    def __call__(self, key: int) -> tuple:
        code, digits = key >> (self.m + self.side), []
        for _ in range(self.digits):
            code, digit = divmod(code, self.base)
            digits.append(digit)
        side = key >> self.m & ((1 << self.side) - 1)
        parts = {"host": key & ((1 << self.m) - 1), "digits": tuple(reversed(digits)),
                 "side": tuple(side >> i & 1 for i in range(self.side))
                 if self.side_as_bits else side}
        return tuple(parts[name] for name in self.order)


class CountMass(Mapping):
    """Read-only key -> mass view of an :class:`Ensemble`, built on first lookup.

    ``layout`` reads each packed key back as the key shown (the packed
    int itself when None).  Masses are Fractions, or correctly rounded
    floats when ``rational`` is false; the length is the support size
    and costs nothing.
    """

    def __init__(self, ensemble: Ensemble, rational: bool = True, layout=None):
        self.ensemble = ensemble
        self.rational = rational
        self.layout = layout

    @cached_property
    def _dict(self) -> dict:
        d = self.ensemble.denom
        to_mass = (lambda c: Fraction(c, d)) if self.rational else (lambda c: c / d)
        keys = self.ensemble.keys.tolist()
        if self.layout is not None:
            keys = map(self.layout, keys)
        return {key: to_mass(c) for key, c in zip(keys, self.ensemble.counts.tolist())}

    def __len__(self) -> int:
        return self.ensemble.keys.size

    def __iter__(self):
        return iter(self._dict)

    def __getitem__(self, key):
        return self._dict[key]

    def __repr__(self) -> str:
        return repr(self._dict)
