"""Input generation for the benchmark workloads.

A workload is a round of CLI operations repeated until the run's time is
up.  Every operation in every round draws a fresh template, access
structure, function table and program seed from
``(workload seed, round, slot)``, so no cache can serve a repeat, and the
program sees only the files written here and its argv.  The draws come
from this module's own generator, never from the library's samplers, so
a change to the library's draw streams leaves the inputs unchanged.

A round is a generator of :class:`Op`.  The harness sends each
operation's stdout back into the generator, which is how ``ss
reconstruct`` and ``psm run`` read the bundle and instance the previous
operation printed.  The warm-up round (``warm_up=True``) calls every code
path of the workload once at a tenth of the Monte Carlo trials and
without the heaviest exact shapes, so set-up time is mostly imports,
lazy caches and first calls rather than a repeat of the measured work.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator

import numpy as np

from perfbench import checks


@dataclass(frozen=True)
class Op:
    """One CLI call and the check its stdout must pass."""

    kind: str
    argv: list[str]
    check: Callable[[str], None]


class Inputs:
    """Writes one round's input files and hands out its random generators."""

    def __init__(self, directory: str, seed: int, round_index: int):
        self.directory = directory
        self.seed = seed
        self.round_index = round_index

    def rng(self, slot: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.round_index, slot])

    def write(self, name: str, content) -> str:
        """Write a JSON object (or raw text) and return its path."""
        path = os.path.join(self.directory, name + ".json")
        with open(path, "w") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))
        return path


def random_template(k: int, r: int, rng: np.random.Generator) -> dict:
    """Uniform template in the CLI's hypergraph JSON form."""
    subsets = list(itertools.combinations(range(k), r))
    bits = rng.integers(0, 2, size=len(subsets))
    return {"n": k, "r": r, "present": [list(f) for f, b in zip(subsets, bits) if b]}


def program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


Round = Generator[Op, str, None]

# --- mc: the Monte Carlo path -------------------------------------------------

MC_TRIALS = 20000
SAMPLE_COUNT = 50
WARM_UP_TRIALS = 2000
WARM_UP_COUNT = 5
# L has four vertices, not three: with L = {0, 1, 2} the leakmatch null
# misses only (7/8)^61 of the time, so about 0.3% of 20000-trial runs
# draw no miss, hit the zero-variance error and would fail the op.
MC_LEAK = (0, 1, 2, 3)
MC_DISTINGUISH = [
    # stat, n, k, r, L, extra argv
    ("edgecount", 64, 16, 2, MC_LEAK, []),
    ("leakmatch", 64, 16, 2, MC_LEAK, []),
    ("linear", 64, 16, 2, MC_LEAK, []),
    ("edgecount", 64, 32, 2, (), []),
    ("leakmatch", 24, 8, 3, (0, 1, 2), []),
    ("subgraph", 7, 6, 2, (0, 1, 2), ["--m", "5"]),
]


def mc_round(inputs: Inputs, warm_up: bool = False) -> Round:
    trials = WARM_UP_TRIALS if warm_up else MC_TRIALS
    count = WARM_UP_COUNT if warm_up else SAMPLE_COUNT
    for slot, (stat, n, k, r, leak, extra) in enumerate(MC_DISTINGUISH):
        rng = inputs.rng(slot)
        h = random_template(k, r, rng)
        params = {"n": n, "k": k, "r": r, "L": list(leak), "seed": program_seed(rng)}
        argv = ["distinguish", "--stat", stat,
                "--params", inputs.write(f"params{slot}", params),
                "--H", inputs.write(f"template{slot}", h),
                "--trials", str(trials), *extra]
        yield Op(f"distinguish {stat} n={n} k={k}", argv,
                 partial(checks.check_mc, stat, h, params, trials))
    for slot, model in enumerate(("planted", "null"), start=len(MC_DISTINGUISH)):
        rng = inputs.rng(slot)
        h = random_template(16, 2, rng)
        params = {"n": 64, "k": 16, "r": 2, "L": list(MC_LEAK), "seed": program_seed(rng)}
        argv = ["sample", "--model", model,
                "--params", inputs.write(f"params{slot}", params),
                "--H", inputs.write(f"template{slot}", h), "--count", str(count)]
        yield Op(f"sample {model}", argv, partial(checks.check_sample, h, params, count))


# --- exact: the enumeration oracles -------------------------------------------

# The last column says whether the warm-up round runs the shape too.
LR_SHAPES = [(6, 5, 2, (), False), (5, 4, 3, (0,), True)]
EXACT_DISTINGUISH = [
    (stat, (0, 1), True) for stat in ("edgecount", "subgraph", "leakmatch", "linear")
] + [("edgecount", (), False)]


def exact_round(inputs: Inputs, warm_up: bool = False) -> Round:
    for slot, (n, k, r, leak, warm) in enumerate(LR_SHAPES):
        if warm_up and not warm:
            continue
        rng = inputs.rng(slot)
        h = random_template(k, r, rng)
        params = {"n": n, "k": k, "r": r, "L": list(leak), "seed": program_seed(rng)}
        argv = ["lr", "exact", "--H", inputs.write(f"template{slot}", h),
                "--params", inputs.write(f"params{slot}", params), "--rational"]
        yield Op(f"lr exact n={n} k={k} r={r}", argv,
                 partial(checks.check_lr_exact, h, params))
    for slot, (stat, leak, warm) in enumerate(EXACT_DISTINGUISH, start=len(LR_SHAPES)):
        if warm_up and not warm:
            continue
        rng = inputs.rng(slot)
        h = random_template(4, 2, rng)
        params = {"n": 6, "k": 4, "r": 2, "L": list(leak), "seed": program_seed(rng)}
        argv = ["distinguish", "--stat", stat, "--exact",
                "--params", inputs.write(f"params{slot}", params),
                "--H", inputs.write(f"template{slot}", h)]
        yield Op(f"distinguish --exact {stat} L={list(leak)}", argv,
                 partial(checks.check_exact_advantage, stat, h, params))


# --- crypto: secret sharing and PSM -------------------------------------------

HOST_N = 64
DEAL_PARTIES = 6
DEAL_SETS = 2
PSM_TABLE = (3, 2)
# (parties k, host n, in warm-up).  Three parties at n = 6 would take 2-4 s
# and 700 MB as the round's lone slowest op, which left the latency tail
# jumping between it and psm tv as the number of rounds in a run changed;
# two parties at n = 6 cost about as much as psm tv.
SECRECY_SHAPES = [(3, 5, True), (2, 6, False)]
PSM_TV_SHAPES = [(2, 2), (1, 3)]


def _pairs(k: int, count: int, rng: np.random.Generator) -> list[list[int]]:
    pairs = list(itertools.combinations(range(k), 2))
    picks = rng.choice(len(pairs), size=count, replace=False)
    return [list(pairs[i]) for i in sorted(picks)]


def _table(k: int, r: int, rng: np.random.Generator) -> dict:
    return {"k": k, "r": r, "bits": [int(b) for b in rng.integers(0, 2, size=k ** r)]}


def crypto_round(inputs: Inputs, warm_up: bool = False) -> Round:
    rng = inputs.rng(0)
    access = {"k": DEAL_PARTIES, "r": 2, "R": _pairs(DEAL_PARTIES, DEAL_SETS, rng), "l": 2}
    secret = int(rng.integers(0, 2))
    bundle = yield Op("ss deal", [
        "ss", "deal", "--R", inputs.write("access", access), "--s", str(secret),
        "--n", str(HOST_N), "--seed", str(program_seed(rng))],
        partial(checks.check_deal, access))
    bundle_path = inputs.write("bundle", bundle)
    for group in access["R"]:
        yield Op("ss reconstruct", [
            "ss", "reconstruct", "--bundle", bundle_path,
            "--set", ",".join(map(str, group))],
            partial(checks.check_reconstruct, secret))

    rng = inputs.rng(1)
    table = _table(*PSM_TABLE, rng)
    instance = yield Op("psm setup", [
        "psm", "setup", "--F", inputs.write("table", table), "--n", str(HOST_N),
        "--seed", str(program_seed(rng))],
        partial(checks.check_psm_setup, table))
    instance_path = inputs.write("instance", instance)
    k, r = PSM_TABLE
    for index, xs in enumerate(itertools.product(range(k), repeat=r)):
        yield Op("psm run", [
            "psm", "run", "--instance", instance_path, "--inputs", ",".join(map(str, xs))],
            partial(checks.check_psm_run, table["bits"][index]))

    for slot, (k, n, warm) in enumerate(SECRECY_SHAPES, start=2):
        if warm_up and not warm:
            continue
        rng = inputs.rng(slot)
        # one qualifying pair, so the work does not depend on the seed
        qualifying = _pairs(k, 1, rng)
        coalitions = [list(c) for c in itertools.combinations(range(k), 2)
                      if list(c) not in qualifying] or [[v] for v in range(k)]
        coalition = coalitions[int(rng.integers(0, len(coalitions)))]
        access = {"k": k, "r": 2, "R": qualifying, "l": 2}
        yield Op(f"ss secrecy k={k} n={n}", [
            "ss", "secrecy", "--R", inputs.write(f"secrecy{slot}", access),
            "--set", ",".join(map(str, coalition)), "--n", str(n)], checks.check_tv)

    for slot, (k, r) in enumerate(PSM_TV_SHAPES, start=2 + len(SECRECY_SHAPES)):
        table = _table(k, r, inputs.rng(slot))
        yield Op(f"psm tv k={k} r={r}", [
            "psm", "tv", "--F", inputs.write(f"tv{slot}", table), "--n", "5"],
            partial(checks.check_tv, zero=k == 1))


WORKLOADS = {"mc": mc_round, "exact": exact_round, "crypto": crypto_round}
