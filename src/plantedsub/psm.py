"""The r-party single-round private evaluation protocol.

A public function table over [0, k)^r is written onto the cross
hyperedges of an r-partite template (one part per party, part i's
input x sitting at vertex i*k + x); all remaining template coordinates
are coins.  The template is hidden inside a published host graph by a
private injection.  Each party forwards its input vertex's host label,
and the evaluator reads the host coordinate at the r labels, which is
the function value by construction.

Security is simulation-based against input selectors that may read the
function table: the simulator fabricates a host and r distinct labels
forcing only the output coordinate, and a label-shuffling reduction
maps planted-vs-null ensembles onto real-vs-simulated transcripts.
Both directions of that map are exposed as exact ensemble enumerators
so the distributional identities can be checked outright at desk
scale.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .ensemble import (CountMass, KeyLayout, count_states, covered_ranks, injection_count,
                       injection_table, patterns)
from .errors import GuardExceeded, ValidationError
from .hypercore import (Embedding, Hypergraph, binom, bit_to_spin, rank_rows, rank_subset,
                        relabel, spin_to_bit, subset_table)
from .models import ModelParams, plant

PSM_STATE_GUARD = 5_000_000


@dataclass(frozen=True)
class FunctionTable:
    """Total function [0, k)^r -> {-1, +1}, stored row-major."""

    k: int
    r: int
    spins: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1 or self.r < 2:
            raise ValidationError("need k >= 1 and r >= 2")
        if len(self.spins) != self.k ** self.r:
            raise ValidationError(f"table needs {self.k ** self.r} entries")
        if any(s not in (-1, 1) for s in self.spins):
            raise ValidationError("table values must be spins in {-1, +1}")

    def index(self, inputs) -> int:
        idx = 0
        for x in inputs:
            if not 0 <= x < self.k:
                raise ValidationError(f"input {x} out of range [0, {self.k})")
            idx = idx * self.k + x
        return idx

    def value(self, inputs) -> int:
        """The spin F(x_1, ..., x_r)."""
        if len(inputs) != self.r:
            raise ValidationError(f"expected {self.r} inputs")
        return self.spins[self.index(inputs)]

    def bit(self, inputs) -> int:
        return spin_to_bit(self.value(inputs))

    @classmethod
    def random(cls, k: int, r: int, rng) -> "FunctionTable":
        bits = rng.integers(0, 2, size=k ** r)
        return cls(k, r, tuple(bit_to_spin(int(b)) for b in bits))

    @classmethod
    def from_bits(cls, k: int, r: int, bits) -> "FunctionTable":
        return cls(k, r, tuple(bit_to_spin(int(b)) for b in bits))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(spin_to_bit(s) for s in self.spins)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "r": self.r, "bits": list(self.bits)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FunctionTable":
        try:
            return cls.from_bits(int(obj["k"]), int(obj["r"]), obj["bits"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed function table JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "FunctionTable":
        return cls.from_json_dict(json.loads(text))


def part_vertex(x: int, i: int, k: int) -> int:
    """Vertex index of input x at party i: parts are consecutive blocks of k."""
    return i * k + x


def cross_set(inputs, k: int) -> tuple[int, ...]:
    """The hyperedge carrying F at one input tuple; already sorted by part."""
    return tuple(part_vertex(x, i, k) for i, x in enumerate(inputs))


@lru_cache(maxsize=None)
def _cross(k: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k^r, r) cross hyperedges in table order, and their ranks among
    the r-subsets of the r*k template vertices."""
    table = np.array(list(itertools.product(range(k), repeat=r))) + k * np.arange(r)
    ranks = rank_rows(table, r * k)
    table.setflags(write=False)
    ranks.setflags(write=False)
    return table, ranks


def embed_function(f: FunctionTable, rng) -> Hypergraph:
    """Template on r*k vertices: cross hyperedges carry the table, all other
    coordinates are independent coins."""
    n_v = f.r * f.k
    bits = rng.integers(0, 2, size=binom(n_v, f.r), dtype=np.uint8)
    bits[_cross(f.k, f.r)[1]] = f.bits
    return Hypergraph.from_bits(n_v, f.r, bits)


def template_to_table(h: Hypergraph, k: int) -> FunctionTable:
    """Read the function table back off a template's cross hyperedges."""
    r = h.r
    if h.n != r * k:
        raise ValidationError(f"template has {h.n} vertices, expected r*k = {r * k}")
    return FunctionTable(k, r, tuple(h.spins[_cross(k, r)[1]].tolist()))


@dataclass(frozen=True)
class PsmInstance:
    """One protocol setup: the table, its template, the host, the private map."""

    f: FunctionTable
    fbar: Hypergraph
    g: Hypergraph
    phi: Embedding

    def __post_init__(self):
        if template_to_table(self.fbar, self.f.k) != self.f:
            raise ValidationError("template cross hyperedges disagree with the table")
        covered = covered_ranks(np.array([self.phi.targets]),
                                subset_table(self.fbar.n, self.fbar.r), self.g.n)[0]
        if self.g.r != self.fbar.r or (self.g.bits[covered] != self.fbar.bits).any():
            raise ValidationError("host does not agree with the template under phi")

    def to_json_dict(self, public_only: bool = False) -> dict:
        out = {"f": self.f.to_json_dict(), "g": self.g.to_json_dict()}
        if not public_only:
            out["fbar"] = self.fbar.to_json_dict()
            out["phi"] = list(self.phi.targets)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PsmInstance":
        try:
            f = FunctionTable.from_json_dict(obj["f"])
            g = Hypergraph.from_json_dict(obj["g"])
            fbar = Hypergraph.from_json_dict(obj["fbar"])
            targets = tuple(int(v) for v in obj["phi"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed instance JSON: {exc}") from exc
        phi = Embedding(g.n, fbar.n, targets, frozenset())
        return cls(f=f, fbar=fbar, g=g, phi=phi)


def psm_setup(f: FunctionTable, n: int, rng) -> PsmInstance:
    """Setup phase: embed the (randomized) template into a host of size n."""
    n_v = f.r * f.k
    _check_host(n, n_v)
    fbar = embed_function(f, rng)
    g, phi = plant(fbar, ModelParams(n=n, k=n_v, r=f.r), rng)
    return PsmInstance(f=f, fbar=fbar, g=g, phi=phi)


def psm_message(inst: PsmInstance, party: int, x: int) -> int:
    """Party's single message: the host label of its input vertex."""
    if not 0 <= party < inst.f.r:
        raise ValidationError(f"party index {party} out of range [0, {inst.f.r})")
    if not 0 <= x < inst.f.k:
        raise ValidationError(f"input {x} out of range [0, {inst.f.k})")
    return inst.phi(part_vertex(x, party, inst.f.k))


def psm_evaluate(g: Hypergraph, messages) -> int:
    """The evaluator's output: the host bit at the r received labels."""
    labels = [int(u) for u in messages]
    if len(labels) != g.r:
        raise ValidationError(f"expected {g.r} messages, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValidationError("messages must be distinct vertices")
    return g.bit(rank_subset(sorted(labels), g.n))


@dataclass(frozen=True)
class Transcript:
    """What the evaluator sees in one run, plus its output."""

    messages: tuple[int, ...]
    output: int

    def to_json_dict(self) -> dict:
        return {"messages": list(self.messages), "output": self.output}


def run_protocol(inst: PsmInstance, inputs) -> Transcript:
    """Scripted three-role run: messages from every party, then evaluation."""
    xs = [int(x) for x in inputs]
    if len(xs) != inst.f.r:
        raise ValidationError(f"expected {inst.f.r} inputs")
    messages = tuple(psm_message(inst, i, x) for i, x in enumerate(xs))
    return Transcript(messages=messages, output=psm_evaluate(inst.g, messages))


def psm_simulate(f: FunctionTable, y: int, n: int, rng,
                 allow_collisions: bool = False):
    """Simulator: random labels, the output coordinate forced to y, coins elsewhere.

    Labels are drawn distinct by default, matching real transcripts whose
    private map is injective.  With ``allow_collisions`` the labels are
    drawn independently and no coordinate is forced when they collide.
    """
    if y not in (0, 1):
        raise ValidationError("output must be the bit 0 or 1")
    if n < f.r:
        raise ValidationError(f"need n >= r = {f.r}")
    if allow_collisions:
        labels = tuple(int(v) for v in rng.integers(0, n, size=f.r))
    else:
        labels = tuple(int(v) for v in rng.choice(n, size=f.r, replace=False))
    bits = rng.integers(0, 2, size=binom(n, f.r), dtype=np.uint8)
    if len(set(labels)) == f.r:
        bits[rank_subset(sorted(labels), n)] = y
    return Hypergraph.from_bits(n, f.r, bits), labels


def psm_reduction(h: Hypergraph, g: Hypergraph, leaked, rng):
    """Map a (template, host, leaked labels) triple to a transcript-shaped one.

    Reads the function table off the template's cross hyperedges and
    shuffles the host and labels by one uniform relabeling, which turns
    the identity-normalized leak into uniform protocol messages.
    """
    r = h.r
    if h.n % r:
        raise ValidationError(f"template vertex count {h.n} is not r*k")
    k = h.n // r
    f = template_to_table(h, k)
    labels = [int(u) for u in leaked]
    if len(labels) != r or len(set(labels)) != r:
        raise ValidationError(f"need {r} distinct leaked labels")
    if any(u < 0 or u >= g.n for u in labels):
        raise ValidationError("leaked label out of host range")
    pi = [int(v) for v in rng.permutation(g.n)]
    return f, relabel(g, pi), tuple(pi[u] for u in labels)


class UniformSelector:
    """Inputs drawn uniformly from [0, k)^r, ignoring the table."""

    name = "uniform"

    def distribution(self, f: FunctionTable):
        w = Fraction(1, f.k ** f.r)
        return [(xs, w) for xs in itertools.product(range(f.k), repeat=f.r)]

    def sample(self, f: FunctionTable, rng):
        return tuple(int(v) for v in rng.integers(0, f.k, size=f.r))


class ConstantSelector:
    """A fixed input tuple."""

    name = "constant"

    def __init__(self, inputs):
        self.inputs = tuple(int(x) for x in inputs)

    def distribution(self, f: FunctionTable):
        f.value(self.inputs)
        return [(self.inputs, Fraction(1))]

    def sample(self, f: FunctionTable, rng):
        f.value(self.inputs)
        return self.inputs


class TableSelector:
    """Adversarial selector: input tuple chosen by the table's bit string."""

    name = "table"

    def __init__(self, mapping, default=None):
        self.mapping = {tuple(key): tuple(val) for key, val in mapping.items()}
        self.default = None if default is None else tuple(default)

    def _pick(self, f: FunctionTable):
        choice = self.mapping.get(f.bits, self.default)
        if choice is None:
            raise ValidationError("selector table has no entry for this function")
        return choice

    def distribution(self, f: FunctionTable):
        xs = self._pick(f)
        f.value(xs)
        return [(xs, Fraction(1))]

    def sample(self, f: FunctionTable, rng):
        return self.distribution(f)[0][0]


def _guard_states(count: int) -> None:
    if count > PSM_STATE_GUARD:
        raise GuardExceeded(f"{count} enumeration states exceed the guard {PSM_STATE_GUARD}")


def _check_host(n: int, n_v: int) -> None:
    if n < n_v:
        raise ValidationError(f"host size n={n} must be at least r*k={n_v}")


def _atoms(tables, selector) -> list:
    """Each table's selector atoms as (inputs, multiplicity), the weights
    scaled to integers over one common denominator."""
    dists = [selector.distribution(f) for f in tables]
    denom = math.lcm(*(Fraction(w).denominator for dist in dists for _, w in dist))
    return [[(xs, int(w * denom)) for xs, w in dist] for dist in dists]


def _all_tables(k: int, r: int) -> list:
    return [FunctionTable.from_bits(k, r, bits) for bits in patterns(k ** r)]


def _layout(k: int, r: int, n: int, with_table: bool) -> KeyLayout:
    """Host mask, then the table bits when shown, then the r labels as base-n digits."""
    if with_table:
        return KeyLayout(binom(n, r), k ** r, r, n, side_as_bits=True,
                         order=("side", "digits", "host"))
    return KeyLayout(binom(n, r), digits=r, base=n, order=("digits", "host"))


def _transcripts(tables, selector, n: int, simulated: bool, with_table: bool) -> CountMass:
    """Exact law of ([table,] messages, host) over ``tables``, equally likely.

    Real runs force the cross coordinates' images under every private
    injection of the r*k template vertices to the table; the template's
    other coins land on host coordinates and join the host's coins.  The
    simulator forces the output coordinate at every r distinct labels.
    Every row is repeated by its selector atom's multiplicity.
    """
    k, r = tables[0].k, tables[0].r
    layout = _layout(k, r, n, with_table)
    if simulated:
        if n < r:
            raise ValidationError(f"need n >= r = {r}")
        maps = injection_table(n, r, ())
        forced = covered_ranks(maps, subset_table(r, r), n)
    else:
        _check_host(n, r * k)
        maps = injection_table(n, r * k, ())
        forced = covered_ranks(maps, _cross(k, r)[0], n)
    atoms = _atoms(tables, selector)
    rows = maps.shape[0] * sum(w for dist in atoms for _, w in dist)
    _guard_states(rows << (layout.m - forced.shape[1]))
    bits, high = [], []
    for f, dist in zip(tables, atoms):
        table = np.broadcast_to(np.array(f.bits, dtype=np.uint8), (maps.shape[0], k ** r))
        for xs, w in dist:
            if simulated:
                block = np.full((maps.shape[0], 1), f.bit(xs), dtype=np.uint8)
                labels = maps
            else:
                block, labels = table, maps[:, cross_set(xs, k)]
            bits += [block] * w
            high += [layout.high(labels, table if with_table else None)] * w
    covered = np.tile(forced, (len(bits), 1))
    ensemble = count_states(np.concatenate(bits), covered, layout.m, np.concatenate(high))
    return CountMass(ensemble, layout=layout)


def enumerate_real_ensemble(f: FunctionTable, selector, n: int) -> CountMass:
    """Exact law of (messages, host) for a fixed public table, mixing
    inputs by the selector's distribution."""
    return _transcripts([f], selector, n, False, False)


def enumerate_simulated_ensemble(f: FunctionTable, selector, n: int) -> CountMass:
    """Exact law of the simulator's (labels, host) for a fixed public table."""
    return _transcripts([f], selector, n, True, False)


def real_vs_sim_tv(f: FunctionTable, selector, n: int) -> Fraction:
    """Exact total variation between real and simulated transcript ensembles."""
    from .models import tv_dict

    return tv_dict(enumerate_real_ensemble(f, selector, n),
                   enumerate_simulated_ensemble(f, selector, n))


def enumerate_reduction_pushforward(which: str, k: int, r: int, n: int,
                                    selector) -> CountMass:
    """Exact law of the reduction's output on one model ensemble.

    The input ensemble draws a uniform template on r*k vertices, fixes
    the leaked vertices chosen by the selector from the template's own
    table, then samples the host from the planted or the null model with
    that leaked set.  Every vertex relabelling is then applied to every
    enumerated state, as a permutation of its forced coordinates (the
    coins on the rest stay uniform).  Keys are (table bits, labels, host
    mask).
    """
    if which not in ("planted", "null"):
        raise ValidationError("which must be 'planted' or 'null'")
    n_v, m_t = r * k, binom(r * k, r)
    _check_host(n, n_v)
    layout = _layout(k, r, n, True)
    templates = patterns(m_t)
    tables = [template_to_table(Hypergraph.from_bits(n_v, r, t), k) for t in templates]
    atoms = _atoms(tables, selector)
    n_emb, width = (injection_count(n, n_v, r), m_t) if which == "planted" else (1, 1)
    weight = sum(w for dist in atoms for _, w in dist)
    _guard_states(math.factorial(n) * n_emb * weight << (layout.m - width))
    perms = injection_table(n, n, ())
    moved = covered_ranks(perms, subset_table(n, r), n)  # coordinate j -> its image
    bits, covered, high = [], [], []
    for h_bits, f, dist in zip(templates, tables, atoms):
        side = np.broadcast_to(np.array(f.bits, dtype=np.uint8),
                               (perms.shape[0] * n_emb, k ** r))
        for xs, w in dist:
            leak = cross_set(xs, k)
            if which == "planted":
                forced = covered_ranks(injection_table(n, n_v, leak), subset_table(n_v, r), n)
                block = h_bits
            else:
                forced = np.array([[rank_subset(leak, n)]])
                block = h_bits[[rank_subset(leak, n_v)]]
            bits += [np.broadcast_to(block, (side.shape[0], width))] * w
            covered += [moved[:, forced].reshape(-1, width)] * w
            labels = np.repeat(perms[:, leak], n_emb, axis=0)
            high += [layout.high(labels, side)] * w
    ensemble = count_states(np.concatenate(bits), np.concatenate(covered), layout.m,
                            np.concatenate(high))
    return CountMass(ensemble, layout=layout)


def enumerate_protocol_ensemble(k: int, r: int, n: int, selector) -> CountMass:
    """Exact law of (table bits, messages, host) over a uniform table."""
    return _transcripts(_all_tables(k, r), selector, n, False, True)


def enumerate_simulated_protocol_ensemble(k: int, r: int, n: int, selector) -> CountMass:
    """Exact law of (table bits, simulator labels, simulator host)."""
    return _transcripts(_all_tables(k, r), selector, n, True, True)
