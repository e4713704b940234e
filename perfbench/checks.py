"""Output checks for the benchmark's operations.

Each check takes what the input generator knows about one operation and
the CLI's stdout, and raises :class:`CheckFailed` when the output is
wrong.  No check reads the library's random draw streams: Monte Carlo
results are compared with closed forms or with properties every draw
must have, and exact results with an independent exact path (Parseval
closure, the degree-D likelihood-ratio bound).
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from plantedsub.distinguishers import make_statistic
from plantedsub.hypercore import Hypergraph
from plantedsub.lowdegree import lr_squared_exact
from plantedsub.models import ModelParams, chi_square, exact_pmf


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _json(stdout: str) -> dict:
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc
    _require(isinstance(out, dict) and "error" not in out, f"error output: {stdout[:200]}")
    return out


def _exact_value(out: dict) -> Fraction:
    _require("value_exact" in out, "output has no exact value")
    return Fraction(out["value_exact"])


def _edges(template: dict) -> set[tuple[int, ...]]:
    return {tuple(sorted(e)) for e in template["present"]}


def edge_count_formula(template: dict, params: dict) -> float:
    """Exact spin-sum advantage: template spins outside L over sqrt(free coords)."""
    k, r, leaked = params["k"], params["r"], set(params["L"])
    present = _edges(template)
    gap = sum(-1 if f in present else 1
              for f in itertools.combinations(range(k), r) if not set(f) <= leaked)
    return gap / math.sqrt(math.comb(params["n"], r) - math.comb(len(leaked), r))


def check_mc(stat: str, template: dict, params: dict, trials: int, stdout: str) -> None:
    """Monte Carlo advantage: edgecount within 5 stderr of the closed form;
    planted always matches for leakmatch/subgraph; indicator means in [0, 1]."""
    out = _json(stdout)
    _require(out.get("mode") == "montecarlo" and out.get("trials") == trials,
             "wrong mode or trial count")
    if stat == "edgecount":
        expected = edge_count_formula(template, params)
        _require(abs(out["advantage"] - expected) <= 5 * out["stderr"],
                 f"advantage {out['advantage']} is more than 5 stderr from {expected}")
    elif stat in ("leakmatch", "subgraph"):
        _require(out["mean_planted"] == 1, f"planted mean {out['mean_planted']} != 1")
    else:
        _require(0 <= out["mean_planted"] <= 1 and 0 <= out["mean_null"] <= 1,
                 "indicator mean outside [0, 1]")


def check_sample(template: dict, params: dict, count: int, stdout: str) -> None:
    """Every draw has the right shape and copies the template inside L."""
    lines = stdout.splitlines()
    _require(len(lines) == count, f"{len(lines)} draws, expected {count}")
    n, r = params["n"], params["r"]
    leaked_edges = list(itertools.combinations(params["L"], r))
    want = {f for f in leaked_edges if f in _edges(template)}
    for line in lines:
        g = _json(line)
        _require((g["n"], g["r"]) == (n, r), "draw has the wrong shape")
        present = _edges(g)
        _require(all(len(e) == r and 0 <= e[0] and e[-1] < n for e in present),
                 "draw has an edge out of range")
        _require({f for f in leaked_edges if f in present} == want,
                 "draw disagrees with the template inside the leaked set")


def _hypergraph_and_params(template: dict, params: dict):
    return Hypergraph.from_json_dict(template), ModelParams.from_json_dict(params)


def check_lr_exact(template: dict, params: dict, stdout: str) -> None:
    """Full-degree LR^2 equals the chi-square divergence of the two exact pmfs."""
    h, p = _hypergraph_and_params(template, params)
    expected = chi_square(exact_pmf(h, p, "planted"), exact_pmf(h, p, "null"))
    got = _exact_value(_json(stdout))
    _require(got == expected, f"LR^2 {got} != chi-square {expected}")


def check_exact_advantage(stat: str, template: dict, params: dict, stdout: str) -> None:
    """|advantage| is at most sqrt(LR^2 at the statistic's declared degree)."""
    out = _json(stdout)
    _require(out.get("mode") == "exact", "wrong mode")
    h, p = _hypergraph_and_params(template, params)
    degree = make_statistic(stat, h, p).declared_degree
    bound = math.sqrt(float(lr_squared_exact(h, p, degree).at_degree(degree)))
    _require(abs(out["advantage"]) <= bound + 1e-9,
             f"|advantage| {abs(out['advantage'])} exceeds sqrt(LR_{degree}^2) = {bound}")


def check_deal(access: dict, stdout: str) -> None:
    out = _json(stdout)
    _require(sorted(map(sorted, out["access"]["R"])) == sorted(map(sorted, access["R"])),
             "bundle carries another access structure")
    shares = out["shares"]
    _require(len(shares) == access["k"] and len(set(shares)) == access["k"],
             "bundle needs k distinct shares")


def check_reconstruct(secret: int, stdout: str) -> None:
    got = _json(stdout)["value"]
    _require(got == secret, f"reconstructed {got}, dealt {secret}")


def check_psm_setup(table: dict, stdout: str) -> None:
    out = _json(stdout)
    _require(out["f"] == table, "instance carries another function table")
    _require(len(out["phi"]) == table["r"] * table["k"], "private map has the wrong size")


def check_psm_run(bit: int, stdout: str) -> None:
    got = _json(stdout)["output"]
    _require(got == bit, f"protocol output {got}, table bit {bit}")


def check_tv(stdout: str, zero: bool = False) -> None:
    """A total variation lies in [0, 1]; ``zero`` demands exactly 0."""
    tv = _exact_value(_json(stdout))
    _require(0 <= tv <= 1, f"total variation {tv} outside [0, 1]")
    _require(not zero or tv == 0, f"total variation {tv}, expected 0")
