"""Forbidden hypergraph secret sharing and the Csirmaz bound checker.

The dealer hides a uniform template hypergraph inside a public host
graph and publishes, alongside the host, a masked copy of the template:
on qualifying r-sets the template bit is XORed with the secret, and the
remaining published bits carry no information about it.  Each party's
share is its template vertex's location inside the host, so any
qualifying set can reconstruct by XORing its published bit with the
host bit sitting at its shares.

Secrecy for an unqualified coalition reduces to distinguishing the
planted ensemble from the null ensemble with the coalition as the
leaked set.  The executable form of that reduction is a masking map on
published templates together with exact ensemble enumerators, so the
distributional identities behind it can be checked bit for bit at desk
scale.

Everything here operates on the bit view; spins never appear on the
wire.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensemble import (CountMass, KeyLayout, check_key_width, count_states, covered_ranks,
                       injection_count, injection_table, patterns)
from .errors import GuardExceeded, ValidationError
from .hypercore import (Hypergraph, binom, encode_label, label_bit_width, rank_rows,
                        rank_subset, subset_table)
from .models import ModelParams, plant, sample_H

CSIRMAZ_GROUND_GUARD = 12
SECRECY_STATE_GUARD = 40_000_000


@dataclass(frozen=True)
class AccessStructure:
    """Qualifying sets R over parties [0, k); secrecy target threshold l.

    ``sets`` are the minimal qualifying subsets (each of size <= r).
    Unqualified coalitions are derived, never stored: the independent
    sets of R of size at most l.  ``public_parties`` lists auxiliary
    parties whose shares are published (nonempty only after lifting).
    """

    k: int
    r: int
    sets: frozenset[frozenset[int]]
    l: int
    public_parties: tuple[int, ...] = ()

    def __post_init__(self):
        if self.k < 1 or self.r < 2 or self.l < 0:
            raise ValidationError("need k >= 1, r >= 2, l >= 0")
        object.__setattr__(
            self, "sets", frozenset(frozenset(int(v) for v in a) for a in self.sets)
        )
        for a in self.sets:
            if not a or len(a) > self.r:
                raise ValidationError(f"qualifying set {sorted(a)} must have size in [1, r]")
            if any(v < 0 or v >= self.k for v in a):
                raise ValidationError(f"qualifying set {sorted(a)} out of party range")
        for a in self.sets:
            if any(b < a for b in self.sets):
                raise ValidationError(f"qualifying set {sorted(a)} is not minimal")

    @property
    def uniform(self) -> bool:
        return all(len(a) == self.r for a in self.sets)

    def qualifies(self, parties) -> bool:
        group = frozenset(parties)
        return any(a <= group for a in self.sets)

    def is_independent(self, parties) -> bool:
        return not self.qualifies(parties)

    def unqualified_sets(self):
        """All independent coalitions of size at most l, smallest first."""
        for size in range(self.l + 1):
            for combo in itertools.combinations(range(self.k), size):
                if self.is_independent(combo):
                    yield frozenset(combo)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "r": self.r,
            "R": sorted(sorted(a) for a in self.sets),
            "l": self.l,
            "public_parties": list(self.public_parties),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AccessStructure":
        try:
            return cls(
                k=int(obj["k"]), r=int(obj["r"]),
                sets=frozenset(frozenset(a) for a in obj["R"]),
                l=int(obj["l"]),
                public_parties=tuple(obj.get("public_parties", ())),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed access structure JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "AccessStructure":
        return cls.from_json_dict(json.loads(text))


share_bit_width = label_bit_width
encode_share = encode_label


@dataclass(frozen=True)
class ShareBundle:
    """Public pair (masked template, host graph) plus per-party shares."""

    access: AccessStructure
    h_s: Hypergraph
    g: Hypergraph
    shares: tuple[int, ...]

    @property
    def public_shares(self) -> dict[int, int]:
        return {p: self.shares[p] for p in self.access.public_parties}

    def to_json_dict(self) -> dict:
        return {
            "access": self.access.to_json_dict(),
            "h_s": self.h_s.to_json_dict(),
            "g": self.g.to_json_dict(),
            "shares": list(self.shares),
            "share_bits": share_bit_width(self.g.n),
            "encoded_shares": [encode_share(v, self.g.n) for v in self.shares],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ShareBundle":
        try:
            return cls(
                access=AccessStructure.from_json_dict(obj["access"]),
                h_s=Hypergraph.from_json_dict(obj["h_s"]),
                g=Hypergraph.from_json_dict(obj["g"]),
                shares=tuple(int(v) for v in obj["shares"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed share bundle JSON: {exc}") from exc


def _r_ranks(access: AccessStructure) -> np.ndarray:
    """Sorted template ranks of the qualifying sets, which must all have size r."""
    if not access.uniform:
        raise ValidationError("qualifying sets must all have size r; lift the structure first")
    rows = np.array([sorted(a) for a in access.sets], dtype=np.int64).reshape(-1, access.r)
    return np.sort(rank_rows(rows, access.k))


def deal(access: AccessStructure, s: int, n: int, rng) -> ShareBundle:
    """Deal one secret bit.

    Requires every qualifying set to have size exactly r (apply
    :func:`lift` first otherwise).  Draw order is fixed so transcripts
    are reproducible: template, then embedding, then host coordinates,
    then the published bits outside the qualifying sets.
    """
    if s not in (0, 1):
        raise ValidationError("secret must be the bit 0 or 1")
    r_ranks = _r_ranks(access)
    _check_host(n, access.k)
    h = sample_H(access.k, access.r, rng)
    g, emb = plant(h, ModelParams(n=n, k=access.k, r=access.r), rng)
    hs_bits = h.bits ^ np.uint8(s)
    coins = np.ones(hs_bits.size, dtype=bool)
    coins[r_ranks] = False
    # one int64 draw per published coin, in rank order
    hs_bits[coins] = rng.integers(0, 2, size=int(coins.sum()))
    return ShareBundle(access=access, h_s=Hypergraph.from_bits(access.k, access.r, hs_bits),
                       g=g, shares=emb.targets)


def reconstruct(h_s: Hypergraph, g: Hypergraph, parties, shares, access: AccessStructure) -> int:
    """XOR the published bit at a qualifying set with the host bit at its shares.

    Refuses non-qualifying sets: correctness is only guaranteed on R.
    """
    group = tuple(sorted(int(p) for p in parties))
    if frozenset(group) not in access.sets:
        raise ValidationError(f"{list(group)} is not a qualifying set; refusing to reconstruct")
    vals = [int(v) for v in shares]
    if len(vals) != access.r or len(set(vals)) != access.r:
        raise ValidationError("need the r distinct shares of the qualifying set")
    return h_s.bit(rank_subset(group, access.k)) ^ g.bit(rank_subset(sorted(vals), g.n))


def lift(access: AccessStructure) -> AccessStructure:
    """Pad sub-r qualifying sets with auxiliary public parties.

    Adds r - 1 parties k, ..., k + r - 2 whose shares are public; each
    qualifying set of size below r absorbs the first missing auxiliaries.
    Coalitions of real parties that were independent stay independent;
    the secrecy threshold effectively drops to l - r + 1 because a
    coalition can always adjoin the public auxiliaries.
    """
    aux = tuple(range(access.k, access.k + access.r - 1))
    lifted = frozenset(
        a | frozenset(aux[: access.r - len(a)]) for a in access.sets
    )
    return AccessStructure(
        k=access.k + access.r - 1,
        r=access.r,
        sets=lifted,
        l=access.l,
        public_parties=aux,
    )


def mask_template(h: Hypergraph, s: int, access: AccessStructure) -> Hypergraph:
    """Flip the bits on qualifying sets when s = 1; identity when s = 0."""
    if s not in (0, 1):
        raise ValidationError("secret must be the bit 0 or 1")
    if h.n != access.k or h.r != access.r:
        raise ValidationError("template does not live on the party set")
    if s == 0:
        return h
    bits = h.bits.copy()
    bits[_r_ranks(access)] ^= 1
    return Hypergraph.from_bits(h.n, h.r, bits)


def secrecy_reduction_map(h_prime: Hypergraph, g: Hypergraph, leaked, s: int,
                          access: AccessStructure):
    """The distinguisher-side map of the secrecy reduction.

    XORs the secret into the qualifying bits of the received template and
    passes the host graph and leaked positions through.  Only defined for
    independent leaked coalitions; on qualifying sets the reduction's
    premise fails.
    """
    group = tuple(sorted(int(p) for p in leaked))
    if access.qualifies(group):
        raise ValidationError(f"leaked set {list(group)} is qualified; reduction undefined")
    return mask_template(h_prime, s, access), g, group


def _check_host(n: int, k: int) -> None:
    if n < k:
        raise ValidationError(f"host size n={n} must be at least k={k}")


def _view_layout(access: AccessStructure, n: int, group) -> KeyLayout:
    """Host mask, the published template above it, the coalition's shares on top."""
    return KeyLayout(binom(n, access.r), binom(access.k, access.r), len(group), n)


def _planted_rows(access: AccessStructure, n: int, fixed):
    """Every template, and one row per (embedding, template) pair with
    templates varying fastest: the host ranks the embedding covers and the
    embedding's targets."""
    k, r = access.k, access.r
    _check_host(n, k)
    templates = patterns(binom(k, r))
    targets = injection_table(n, k, fixed)
    covered = covered_ranks(targets, subset_table(k, r), n)
    return (templates, np.repeat(covered, templates.shape[0], axis=0),
            np.repeat(targets, templates.shape[0], axis=0))


def _tile(rows: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``rows`` (one per template) repeated once per embedding of ``like``."""
    return np.tile(rows, (like.shape[0] // rows.shape[0], 1))


def _masked(templates: np.ndarray, s: int, access: AccessStructure) -> np.ndarray:
    """Each template row as :func:`mask_template` publishes it."""
    return np.array([mask_template(Hypergraph.from_bits(access.k, access.r, t), s,
                                   access).bits for t in templates], dtype=np.uint8)


def masked_planted_ensemble_pmf(access: AccessStructure, s: int, n: int,
                                leaked) -> CountMass:
    """Pushforward of the planted ensemble (leaked set embedded identically)
    under the reduction map: keys (published mask, host mask, shares of I)."""
    group = sorted(leaked)
    templates, covered, targets = _planted_rows(access, n, group)
    layout = _view_layout(access, n, group)
    high = layout.high(targets[:, group], _tile(_masked(templates, s, access), targets))
    ensemble = count_states(_tile(templates, targets), covered, layout.m, high)
    return CountMass(ensemble, layout=layout)


def _null_view(k: int, r: int, n: int, group, publish) -> CountMass:
    """A uniform template published as ``publish`` maps it, and a host
    copying it only inside the leaked set, which is embedded identically."""
    _check_host(n, k)
    templates = patterns(binom(k, r))
    leaked = np.array([group], dtype=np.int64)
    internal = subset_table(len(group), r)
    covered = np.tile(covered_ranks(leaked, internal, n), (templates.shape[0], 1))
    layout = KeyLayout(binom(n, r), templates.shape[1], len(group), n)
    high = layout.high(np.tile(leaked, (templates.shape[0], 1)), publish(templates))
    bits = templates[:, covered_ranks(leaked, internal, k)[0]]
    return CountMass(count_states(bits, covered, layout.m, high), layout=layout)


def masked_null_ensemble_pmf(access: AccessStructure, s: int, n: int, leaked) -> CountMass:
    """Pushforward of the null ensemble under the reduction map."""
    return _null_view(access.k, access.r, n, sorted(leaked),
                      lambda templates: _masked(templates, s, access))


def published_template_ensemble_pmf(k: int, r: int, n: int, leaked) -> CountMass:
    """The hybrid the null pushforward must match: a fully published uniform
    template, a host copying it only inside the leaked set, identity leak."""
    return _null_view(k, r, n, sorted(leaked), lambda templates: templates)


def deal_ensemble_pmf(access: AccessStructure, s: int, n: int, leaked, *,
                      tie_public: bool = False, fix_leaked: bool = True) -> CountMass:
    """Exact law of (published template, host, shares of the leaked set).

    ``tie_public=True`` publishes the template's own bits outside the
    qualifying sets instead of fresh coins; the fresh-coin scheme is the
    randomized post-processing of this one that overwrites those
    positions.  ``fix_leaked`` conditions the dealer's embedding on
    sending each leaked party to its own label, the normalization under
    which the reduction identities are stated.

    The published bits are key coordinates above the host's: the dealer
    forces the qualifying ones to the template bit XOR the secret (and,
    tied, the rest to the template bit); fresh coins stay free.
    """
    r_ranks = _r_ranks(access)
    group = sorted(leaked)
    templates, covered, targets = _planted_rows(access, n, group if fix_leaked else ())
    layout = _view_layout(access, n, group)
    published = templates.copy()
    published[:, r_ranks] ^= s
    shown = np.arange(layout.side) if tie_public else r_ranks
    bits = _tile(np.hstack([templates, published[:, shown]]), targets)
    forced = np.hstack([covered, np.tile(layout.m + shown, (covered.shape[0], 1))])
    ensemble = count_states(bits, forced, layout.m + layout.side,
                            layout.high(targets[:, group]))
    return CountMass(ensemble, layout=layout)


def secrecy_tv(access: AccessStructure, leaked, n: int) -> Fraction:
    """Exact total variation between the coalition's views under the two secrets.

    The view is (published template, host, shares of the coalition).
    Published bits outside the qualifying sets are fresh coins shared by
    both ensembles, so they are marginalized out; the distance is
    unchanged.  Each secret's views are counted as one integer-count
    ensemble, and the distance is exact on those counts.
    """
    r_ranks = _r_ranks(access)
    group = sorted(int(p) for p in leaked)
    if any(p < 0 or p >= access.k for p in group) or len(set(group)) != len(group):
        raise ValidationError(f"leaked coalition {group} out of party range")
    k, r = access.k, access.r
    _check_host(n, k)
    layout = KeyLayout(binom(n, r), len(r_ranks), len(group), n)
    check_key_width(layout.width)

    total = injection_count(n, k, 0) << layout.m
    if total > SECRECY_STATE_GUARD:
        raise GuardExceeded(f"{total} dealer states exceed the guard {SECRECY_STATE_GUARD}")

    templates, covered, targets = _planted_rows(access, n, ())
    bits = _tile(templates, targets)
    views = [count_states(bits, covered, layout.m, layout.high(targets[:, group],
                                                               bits[:, r_ranks] ^ s))
             for s in (0, 1)]
    return views[0].tv(views[1])


def csirmaz_f(a_size: int, l: int) -> int:
    """sum_{t=1}^{a} max(l - t + 1, 0): the entropy-profile witness function."""
    if a_size < 0 or l < 0:
        raise ValidationError("sizes must be nonnegative")
    return sum(max(l - t + 1, 0) for t in range(1, a_size + 1))


@dataclass(frozen=True)
class CsirmazReport:
    """Outcome of the exhaustive witness-function checks."""

    ground_size: int
    l: int
    monotone_ok: bool
    submodular_ok: bool
    extramodular_ok: bool
    minimal_ok: bool
    singleton_value: int
    pairs_checked: int
    violations: tuple = ()

    @property
    def passed(self) -> bool:
        return (self.monotone_ok and self.submodular_ok
                and self.extramodular_ok and self.minimal_ok)

    def to_json_dict(self) -> dict:
        return {
            "ground_size": self.ground_size, "l": self.l,
            "monotone_ok": self.monotone_ok, "submodular_ok": self.submodular_ok,
            "extramodular_ok": self.extramodular_ok, "minimal_ok": self.minimal_ok,
            "singleton_value": self.singleton_value,
            "pairs_checked": self.pairs_checked, "passed": self.passed,
            "violations": [list(map(list, v)) for v in self.violations],
        }


def csirmaz_check(ground_size: int, r_sets, l: int, s_sets=None) -> CsirmazReport:
    """Exhaustively verify the witness function over a partial access structure.

    Checks monotonicity and submodularity over all subset pairs of the
    ground set, the strengthened inequality on pairs of unqualified sets
    whose union qualifies, and the singleton cap with s = l.  Violating
    pairs are reported, not raised.
    """
    if ground_size < 1 or ground_size > CSIRMAZ_GROUND_GUARD:
        raise GuardExceeded(f"ground size must lie in [1, {CSIRMAZ_GROUND_GUARD}]")
    r_masks = []
    for a in r_sets:
        vs = sorted(int(v) for v in a)
        if any(v < 0 or v >= ground_size for v in vs):
            raise ValidationError(f"qualifying set {vs} outside the ground set")
        r_masks.append(sum(1 << v for v in vs))

    size = 1 << ground_size
    pop = np.zeros(size, dtype=np.int64)
    for m in range(1, size):
        pop[m] = pop[m >> 1] + (m & 1)
    ftab = np.array([csirmaz_f(int(a), l) for a in range(ground_size + 1)], dtype=np.int64)
    fval = ftab[pop]

    def qualifies(mask: int) -> bool:
        return any(mask & rm == rm for rm in r_masks)

    violations = []
    all_masks = np.arange(size, dtype=np.int64)
    monotone_ok = True
    submodular_ok = True
    pairs = 0
    for a in range(size):
        union = all_masks | a
        inter = all_masks & a
        bad = fval[a] + fval < fval[union] + fval[inter]
        mono_bad = (inter == a) & (fval[a] > fval)
        pairs += size
        if bad.any():
            submodular_ok = False
            b = int(np.nonzero(bad)[0][0])
            violations.append((_mask_to_set(a), _mask_to_set(b)))
        if mono_bad.any():
            monotone_ok = False
            b = int(np.nonzero(mono_bad)[0][0])
            violations.append((_mask_to_set(a), _mask_to_set(b)))

    if s_sets is None:
        s_masks = [m for m in range(size)
                   if pop[m] <= l and not qualifies(m)]
    else:
        s_masks = [sum(1 << int(v) for v in a) for a in s_sets]
    extramodular_ok = True
    for a in s_masks:
        for b in s_masks:
            if qualifies(a | b):
                pairs += 1
                if fval[a] + fval[b] < fval[a | b] + fval[a & b] + 1:
                    extramodular_ok = False
                    violations.append((_mask_to_set(a), _mask_to_set(b)))

    singleton = csirmaz_f(1, l)
    minimal_ok = singleton <= l
    return CsirmazReport(
        ground_size=ground_size, l=l, monotone_ok=monotone_ok,
        submodular_ok=submodular_ok, extramodular_ok=extramodular_ok,
        minimal_ok=minimal_ok, singleton_value=singleton,
        pairs_checked=pairs, violations=tuple(violations[:16]),
    )


def _mask_to_set(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)
