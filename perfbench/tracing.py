"""Span and count recording around the package's public functions.

The benchmark installs these wrappers from its own files; nothing in the
package changes.  Each wrapped name is patched wherever callers look it
up: on its module, on every package module that bound it with
``from .x import y``, on its class for methods, and, for
``Statistic.batch``, on each statistic that ``make_statistic`` returns.

A span records its name, start, end, parent span and operation id.
Counts are computed from the call's arguments and the module's guard
constants, so they repeat exactly for the same inputs.  Wrappers only
record while :attr:`Tracer.active` is set, which the harness sets around
each timed CLI call; the output checks run untraced.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

from plantedsub.hypercore import binom


def _n_embeddings(n: int, k: int, ell: int) -> int:
    return math.perm(n - ell, k - ell)


def _exact_pmf_counts(result, a, mod):
    p = a["params"]
    m, ell = binom(p.n, p.r), len(p.L)
    if a["which"] == "planted":
        n_emb = _n_embeddings(p.n, p.k, ell)
        states = n_emb * (1 << (m - binom(p.k, p.r)))
        guard = {"models.exact_pmf.embedding_guard_share": n_emb / mod.EMBEDDING_GUARD}
    else:
        states, guard = 1 << (m - binom(ell, p.r)), {}
    return {"models.exact_pmf.states": states,
            "models.exact_pmf.support": len(result.mass), **guard}


def _lr_counts(result, a, mod):
    p = a["params"]
    ell = len(p.L)
    keep = binom(p.k, p.r) - binom(ell, p.r)
    degree = a["degree"]
    if degree is None:
        degree = max(binom(p.n, p.r) - binom(ell, p.r), 1)
    n_emb = _n_embeddings(p.n, p.k, ell)
    terms = n_emb * sum(binom(keep, j) for j in range(1, min(degree, keep) + 1))
    return {"lowdegree.lr_squared_exact.terms": terms,
            "lowdegree.lr_squared_exact.guard_share": terms / mod.LR_WORK_GUARD,
            "lowdegree.lr_squared_exact.embedding_guard_share":
                n_emb / mod.EMBEDDING_GUARD}


def _secrecy_counts(result, a, mod):
    access, n = a["access"], a["n"]
    m_k = binom(access.k, access.r)
    states = (1 << m_k) * math.perm(n, access.k) * (1 << (binom(n, access.r) - m_k))
    return {"secretshare.secrecy_tv.states": states,
            "secretshare.secrecy_tv.guard_share": states / mod.SECRECY_STATE_GUARD}


def _psm_real_counts(result, a, mod):
    f, n = a["f"], a["n"]
    m_t = binom(f.r * f.k, f.r)
    states = ((1 << (m_t - f.k ** f.r)) * math.perm(n, f.r * f.k)
              * (1 << (binom(n, f.r) - m_t)))
    return {"psm.enumerate_real_ensemble.states": states,
            "psm.enumerate_real_ensemble.guard_share": states / mod.PSM_STATE_GUARD}


def _psm_sim_counts(result, a, mod):
    f, n = a["f"], a["n"]
    states = math.perm(n, f.r) * (1 << (binom(n, f.r) - 1))
    return {"psm.enumerate_simulated_ensemble.states": states,
            "psm.enumerate_simulated_ensemble.guard_share": states / mod.PSM_STATE_GUARD}


def _subgraph_counts(result, a, mod):
    p, m = a["params"], a["m"]
    if m is None:
        m = mod.default_pattern_size(p)
    work = math.perm(p.n, m) * binom(m, p.r)
    return {"distinguishers.make_subgraph_presence.guard_share":
                work / mod.SUBGRAPH_WORK_GUARD}


# (module, attribute, count hook); a hook maps (result, bound arguments,
# module) to counts.
TARGETS = [
    ("cli", "main", None),
    ("hypercore", "Hypergraph.to_json_dict", None),
    ("hypercore", "Hypergraph.from_json_dict", None),
    ("models", "sample_planted", None),
    ("models", "sample_null", None),
    ("models", "sample_planted_bits", None),
    ("models", "sample_null_bits", None),
    ("models", "sample_embedding_targets_batch", None),
    ("models", "exact_pmf", _exact_pmf_counts),
    ("models", "tv_dict", None),
    ("kernels", "plant_batch", lambda res, a, mod: {
        "kernels.plant_batch.writes": a["phis"].shape[0] * a["h_subsets"].shape[0]}),
    ("kernels", "match_any_batch", lambda res, a, mod: {
        "kernels.match_any_batch.gather_bytes": a["bits"].shape[0] * a["cand_ranks"].size}),
    ("distinguishers", "make_statistic", None),
    ("distinguishers", "make_subgraph_presence", _subgraph_counts),
    ("distinguishers", "estimate_advantage", lambda res, a, mod: {
        "distinguishers.trials": a["trials"]}),
    ("distinguishers", "exact_advantage", None),
    ("lowdegree", "lr_squared_exact", _lr_counts),
    ("secretshare", "deal", None),
    ("secretshare", "reconstruct", None),
    ("secretshare", "secrecy_tv", _secrecy_counts),
    ("psm", "psm_setup", None),
    ("psm", "run_protocol", None),
    ("psm", "enumerate_real_ensemble", _psm_real_counts),
    ("psm", "enumerate_simulated_ensemble", _psm_sim_counts),
    ("hypercore", "rank_subset", None),  # counted, not spanned: called in hot loops
]
RANKER = "hypercore.rank_subset"


def merge(counts: dict[str, float], name: str, value: float) -> None:
    """Add a count in place: guard shares keep their maximum, the rest add up."""
    if name.endswith("guard_share"):
        counts[name] = max(counts.get(name, 0), value)
    else:
        counts[name] = counts.get(name, 0) + value


class Tracer:
    """In-memory spans and per-operation counts; patches on :meth:`install`."""

    def __init__(self):
        self.active = False
        self.op_id = None
        self.spans: list = []
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self._stack: list[int] = []
        self._patches: list = []

    def add(self, name: str, value: float) -> None:
        merge(self.counts[self.op_id], name, value)

    def wrap(self, name: str, fn, hook=None, module=None):
        """``fn`` with a span (and the hook's counts) while the tracer is active."""
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in hook(result, bound.arguments, module).items():
                    self.add(key, value)
            return result

        return traced

    def _count_calls(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.add(name + ".calls", 1)
            return fn(*args, **kwargs)

        return counted

    def _wrap_statistics(self, fn):
        @functools.wraps(fn)
        def make(*args, **kwargs):
            stat = fn(*args, **kwargs)
            return dataclasses.replace(
                stat, batch=self.wrap("distinguishers.Statistic.batch", stat.batch))

        return make

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` undoes it."""
        package = [m for key, m in sys.modules.items()
                   if key == "plantedsub" or key.startswith("plantedsub.")]
        for module_name, attr, hook in TARGETS:
            module = importlib.import_module("plantedsub." + module_name)
            owner = module
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(leaf)
            if raw is None:  # renamed or removed: its metrics read 0
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            name = f"{module_name}.{attr}"
            if name == RANKER:
                new = self._count_calls(name, fn)
            elif name == "distinguishers.make_statistic":
                new = self.wrap(name, self._wrap_statistics(fn))
            else:
                new = self.wrap(name, fn, hook, module)
            self._set(owner, leaf, classmethod(new) if isinstance(raw, classmethod) else new)
            if owner is module:
                for other in package:
                    for key, value in list(vars(other).items()):
                        if value is fn and other is not module:
                            self._set(other, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return total, own

    def write_jsonl(self, path: str, header: dict, ops: dict) -> None:
        """One header line, one line per operation, one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for op_id, op in ops.items():
                fh.write(json.dumps({"op": op_id, **op, "counts": self.counts.get(op_id, {})})
                         + "\n")
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
