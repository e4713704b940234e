"""Command-line workbench tying the modules together.

Verbs emit machine-readable JSON on stdout (the two table verbs emit
CSV) and exit 0 on success, 2 on contract violations, 3 when an exact
oracle's size guard is exceeded.  ``experiment run`` executes a
config-driven parameter grid into a resumable JSONL file;
``experiment table`` turns such a file into a plot-ready CSV.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from fractions import Fraction

from . import distinguishers, lowdegree, psm, secretshare
from .errors import GuardExceeded, PlantedSubError, ValidationError
from .hypercore import Hypergraph
from .models import ModelParams, sample_H, sample_null, sample_planted, trial_rng


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _fraction_fields(value) -> dict:
    if isinstance(value, Fraction):
        return {"value": float(value), "value_exact": f"{value.numerator}/{value.denominator}"}
    return {"value": float(value)}


def _load_params(args) -> ModelParams:
    params = ModelParams.from_json_dict(_load_json(args.params))
    if getattr(args, "seed", None) is not None:
        params = ModelParams(n=params.n, k=params.k, r=params.r, L=params.L, seed=args.seed)
    return params


def _load_template(args, params: ModelParams) -> Hypergraph:
    if getattr(args, "H", None):
        return Hypergraph.from_json_dict(_load_json(args.H))
    return sample_H(params.k, params.r, trial_rng(params.seed, 0))


def _cmd_sample(args) -> int:
    params = _load_params(args)
    which = args.model
    h = _load_template(args, params)
    sampler = sample_planted if which == "planted" else sample_null
    lines = []
    for i in range(args.count):
        g = sampler(h, params, trial_rng(params.seed, 1, i))
        lines.append(g.to_json())
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_lr_exact(args) -> int:
    params = _load_params(args)
    h = Hypergraph.from_json_dict(_load_json(args.H))
    rep = lowdegree.lr_squared_exact(h, params, args.degree, rational=args.rational)
    payload = {
        "quantity": "lr_squared",
        "mode": rep.mode,
        "degree": rep.degree,
        "cumulative": [float(v) for v in rep.cumulative],
        "n_embeddings": rep.n_embeddings,
        "conditions": {},
    }
    payload.update(_fraction_fields(rep.total))
    _emit(_dump(payload), args.out)
    return 0


def _cmd_lr_bound(args) -> int:
    inputs = lowdegree.BoundInputs.from_json_dict(_load_json(args.inputs))
    value = lowdegree.combinatorial_bound(inputs, args.mode)
    payload = {"quantity": "combinatorial_bound", "mode": args.mode, "conditions": {}}
    payload.update(_fraction_fields(value))
    _emit(_dump(payload), args.out)
    return 0


def _cmd_lr_theorem(args) -> int:
    inputs = lowdegree.BoundInputs.from_json_dict(_load_json(args.inputs))
    tb = lowdegree.theorem_bound(inputs)
    payload = {
        "quantity": "theorem_bound",
        "value": tb.total,
        "low": tb.low,
        "high": tb.high,
        "t": tb.t,
        "delta": tb.delta,
        "high_vacuous": tb.high_vacuous,
        "mode": "closed-form",
        "conditions": tb.conditions,
    }
    _emit(_dump(payload), args.out)
    return 0


def _cmd_lr_corollary(args) -> int:
    inputs = lowdegree.BoundInputs.from_json_dict(_load_json(args.inputs))
    value = lowdegree.corollary_bound(inputs, args.eta)
    tb = lowdegree.theorem_bound(inputs)
    payload = {
        "quantity": "corollary_bound",
        "value": value,
        "eta": args.eta,
        "mode": "closed-form",
        "conditions": tb.conditions,
    }
    _emit(_dump(payload), args.out)
    return 0


def _cmd_lr_nvd(args) -> int:
    res = lowdegree.count_nvd(args.n, args.r, args.l, args.v, args.D, mode=args.mode)
    payload = {
        "quantity": "nvd",
        "value": res.value,
        "mode": "exact" if res.exact else "bound",
        "conditions": {},
    }
    _emit(_dump(payload), args.out)
    return 0


def _cmd_distinguish(args) -> int:
    params = _load_params(args)
    h = _load_template(args, params)
    options = {}
    if args.m is not None:
        options["m"] = args.m
    if args.w is not None:
        options["w"] = args.w
    stat = distinguishers.make_statistic(args.stat, h, params, **options)
    if args.exact:
        rep = distinguishers.exact_advantage(stat, h, params)
    else:
        rep = distinguishers.estimate_advantage(stat, h, params, args.trials)
    _emit(_dump(rep.to_json_dict()), args.out)
    return 0


def _cmd_distinguish_sweep(args) -> int:
    params = _load_params(args)
    values = _int_list(args.values)
    rows = []
    for value in values:
        n = value if args.vary == "n" else params.n
        k = value if args.vary == "k" else params.k
        if args.mode == "exact":
            if args.stat != "edgecount":
                raise ValidationError("exact sweep mode supports only the edgecount statistic")
            mean, sem = distinguishers.mean_abs_edge_count_advantage(
                n, k, params.r, args.h_samples, params.seed)
            rows.append((n, k, mean, sem))
        else:
            point = ModelParams(n=n, k=k, r=params.r, L=params.L, seed=params.seed)
            h = sample_H(point.k, point.r, trial_rng(point.seed, 7, n, k))
            stat = distinguishers.make_statistic(args.stat, h, point)
            rep = distinguishers.estimate_advantage(stat, h, point, args.trials)
            rows.append((n, k, rep.advantage, rep.stderr))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "k", "advantage", "stderr"])
    for row in rows:
        writer.writerow(row)
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_ss_deal(args) -> int:
    access = secretshare.AccessStructure.from_json_dict(_load_json(args.R))
    bundle = secretshare.deal(access, args.s, args.n, trial_rng(args.seed or 0, 2))
    _emit(_dump(bundle.to_json_dict()), args.out)
    return 0


def _cmd_ss_reconstruct(args) -> int:
    bundle = secretshare.ShareBundle.from_json_dict(_load_json(args.bundle))
    parties = _int_list(args.set)
    shares = [bundle.shares[p] for p in parties]
    secret = secretshare.reconstruct(bundle.h_s, bundle.g, parties, shares, bundle.access)
    _emit(_dump({"quantity": "reconstructed_secret", "value": secret, "parties": parties}),
          args.out)
    return 0


def _cmd_ss_secrecy(args) -> int:
    access = secretshare.AccessStructure.from_json_dict(_load_json(args.R))
    tv = secretshare.secrecy_tv(access, _int_list(args.set), args.n)
    payload = {"quantity": "secrecy_tv", "mode": "exact", "conditions": {}}
    payload.update(_fraction_fields(tv))
    _emit(_dump(payload), args.out)
    return 0


def _cmd_ss_csirmaz(args) -> int:
    r_sets = []
    if args.R:
        access = secretshare.AccessStructure.from_json_dict(_load_json(args.R))
        r_sets = [sorted(a) for a in access.sets]
    rep = secretshare.csirmaz_check(args.ground, r_sets, args.l)
    _emit(_dump(rep.to_json_dict()), args.out)
    return 0


def _cmd_psm_setup(args) -> int:
    f = psm.FunctionTable.from_json_dict(_load_json(args.F))
    inst = psm.psm_setup(f, args.n, trial_rng(args.seed or 0, 3))
    _emit(_dump(inst.to_json_dict(public_only=args.public_only)), args.out)
    return 0


def _cmd_psm_run(args) -> int:
    inst = psm.PsmInstance.from_json_dict(_load_json(args.instance))
    transcript = psm.run_protocol(inst, _int_list(args.inputs))
    _emit(_dump(transcript.to_json_dict()), args.out)
    return 0


def _cmd_psm_simulate(args) -> int:
    f = psm.FunctionTable.from_json_dict(_load_json(args.F))
    g, labels = psm.psm_simulate(f, args.y, args.n, trial_rng(args.seed or 0, 4),
                                 allow_collisions=args.allow_collisions)
    _emit(_dump({"g": g.to_json_dict(), "messages": list(labels), "output": args.y}),
          args.out)
    return 0


def _parse_selector(text: str):
    if text == "uniform":
        return psm.UniformSelector()
    if text.startswith("constant:"):
        return psm.ConstantSelector(_int_list(text.split(":", 1)[1]))
    raise ValidationError(f"unknown selector {text!r}; use 'uniform' or 'constant:x1,...,xr'")


def _cmd_psm_tv(args) -> int:
    f = psm.FunctionTable.from_json_dict(_load_json(args.F))
    tv = psm.real_vs_sim_tv(f, _parse_selector(args.selector), args.n)
    payload = {"quantity": "real_vs_sim_tv", "mode": "exact",
               "selector": args.selector, "conditions": {}}
    payload.update(_fraction_fields(tv))
    _emit(_dump(payload), args.out)
    return 0


# --- experiment orchestration -------------------------------------------------

def _op_lr_exact(point: dict, seed: int):
    params = ModelParams(n=point["n"], k=point["k"], r=point["r"],
                         L=tuple(point.get("L", ())), seed=seed)
    h = sample_H(params.k, params.r, trial_rng(seed, 0))
    rep = lowdegree.lr_squared_exact(h, params, point.get("degree"))
    return [("lr_squared", float(rep.total), None, rep.mode)]


def _op_lr_bound(point: dict, seed: int):
    inputs = lowdegree.BoundInputs.from_json_dict(point)
    mode = point.get("mode", "exactN")
    return [("combinatorial_bound", float(lowdegree.combinatorial_bound(inputs, mode)),
             None, mode)]


def _op_lr_theorem(point: dict, seed: int):
    inputs = lowdegree.BoundInputs.from_json_dict(point)
    tb = lowdegree.theorem_bound(inputs)
    return [
        ("theorem_low", tb.low, None, "closed-form"),
        ("theorem_high", tb.high, None, "closed-form"),
        ("theorem_total", tb.total, None, "closed-form"),
    ]


def _op_lr_corollary(point: dict, seed: int):
    inputs = lowdegree.BoundInputs.from_json_dict(point)
    value = lowdegree.corollary_bound(inputs, float(point["eta"]))
    return [("corollary_bound", value, None, "closed-form")]


def _op_lr_nvd(point: dict, seed: int):
    res = lowdegree.count_nvd(point["n"], point["r"], point["l"], point["v"],
                              point["D"], mode=point.get("mode", "auto"))
    return [("nvd", float(res.value), None, "exact" if res.exact else "bound")]


def _op_distinguish(point: dict, seed: int):
    params = ModelParams(n=point["n"], k=point["k"], r=point["r"],
                         L=tuple(point.get("L", ())), seed=seed)
    h = sample_H(params.k, params.r, trial_rng(seed, 0))
    stat = distinguishers.make_statistic(point["stat"], h, params)
    rep = distinguishers.estimate_advantage(stat, h, params, int(point["trials"]))
    return [("advantage", rep.advantage, rep.stderr, rep.mode)]


def _op_edgecount_scaling(point: dict, seed: int):
    mean, sem = distinguishers.mean_abs_edge_count_advantage(
        point["n"], point["k"], point["r"], int(point["h_samples"]), seed)
    return [("mean_abs_advantage", mean, sem, "exact-per-template")]


# operation name -> (function, the metric names each of its points records)
OPERATIONS = {
    "lr_exact": (_op_lr_exact, ["lr_squared"]),
    "lr_bound": (_op_lr_bound, ["combinatorial_bound"]),
    "lr_theorem": (_op_lr_theorem, ["theorem_low", "theorem_high", "theorem_total"]),
    "lr_corollary": (_op_lr_corollary, ["corollary_bound"]),
    "lr_nvd": (_op_lr_nvd, ["nvd"]),
    "distinguish": (_op_distinguish, ["advantage"]),
    "edgecount_scaling": (_op_edgecount_scaling, ["mean_abs_advantage"]),
}


def config_hash(config: dict) -> str:
    """Stable digest of the value-affecting config fields, independent of
    field order and of the output path."""
    core = {key: config[key] for key in sorted(config) if key != "output"}
    return hashlib.sha256(_dump(core).encode()).hexdigest()[:16]


def _grid_points(config: dict) -> list[dict]:
    grid = config.get("grid", {})
    if not grid:
        raise ValidationError("experiment grid must be non-empty")
    fixed = config.get("fixed", {})
    names = sorted(grid)
    points = [dict(fixed)]
    for name in names:
        values = grid[name]
        if not isinstance(values, list) or not values:
            raise ValidationError(f"grid entry {name!r} must be a non-empty list")
        points = [dict(p, **{name: v}) for p in points for v in values]
    return points


def _point_seed(seed: int, point: dict) -> int:
    digest = hashlib.sha256((_dump(point) + str(seed)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def run_experiment(config: dict) -> dict:
    """Execute a parameter grid, one JSONL record per (point, metric).

    Existing records under the same config hash are skipped, so an
    interrupted run resumes.  Points run in order and records land in
    point order; wall time is recorded but not part of the determinism
    contract.
    """
    for field in ("name", "operation", "grid", "output"):
        if field not in config:
            raise ValidationError(f"experiment config is missing {field!r}")
    if config["operation"] not in OPERATIONS:
        raise ValidationError(
            f"unknown operation {config['operation']!r}; choose from {sorted(OPERATIONS)}")
    op, metric_names = OPERATIONS[config["operation"]]
    digest = config_hash(config)
    seed = int(config.get("seed", 0))
    points = _grid_points(config)

    done = set()
    try:
        with open(config["output"]) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec.get("config") == digest:
                    done.add((_dump(rec["point"]), rec["metric"]))
    except FileNotFoundError:
        pass

    todo = [p for p in points
            if any((_dump(p), m) not in done for m in metric_names)]
    records = []
    for point in todo:
        start = time.monotonic()
        metrics = op(point, _point_seed(seed, point))
        elapsed = round(time.monotonic() - start, 6)
        records += [{"config": digest, "point": point, "metric": metric, "value": value,
                     "stderr": stderr, "mode": mode, "walltime": elapsed}
                    for metric, value, stderr, mode in metrics
                    if (_dump(point), metric) not in done]

    with open(config["output"], "a") as fh:
        for rec in records:
            fh.write(_dump(rec) + "\n")
    return {"config": digest, "points": len(points), "written": len(records),
            "skipped": len(points) - len(todo), "output": config["output"]}


def emit_table(results_path: str, x: str, y: str) -> str:
    """CSV with one row per record of metric ``y``, sorted by point field ``x``."""
    rows = []
    any_stderr = False
    try:
        fh = open(results_path)
    except OSError as exc:
        raise ValidationError(f"cannot read {results_path}: {exc}") from exc
    with fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("metric") != y:
                continue
            if x not in rec.get("point", {}):
                raise ValidationError(f"point field {x!r} missing from record")
            rows.append((rec["point"][x], rec["value"], rec.get("stderr")))
            any_stderr = any_stderr or rec.get("stderr") is not None
    rows.sort(key=lambda row: row[0])
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = [x, y] + (["stderr"] if any_stderr else [])
    writer.writerow(header)
    for xv, yv, se in rows:
        writer.writerow([xv, yv] + ([se] if any_stderr else []))
    return buf.getvalue()


def _cmd_experiment_run(args) -> int:
    config = _load_json(args.config)
    summary = run_experiment(config)
    _emit(_dump(summary), args.out)
    return 0


def _cmd_experiment_table(args) -> int:
    _emit(emit_table(args.results, args.x, args.y), args.out)
    return 0


# --- argument wiring ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors (a missing flag, a bad value) raise ValidationError, so
    they print as JSON with exit code 2 like every other contract violation."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--out", default=None, help="also write output to this path")


def _build_parser(group: str, verb: str | None) -> tuple[argparse.ArgumentParser, callable]:
    prog = f"plantedsub {group}" + (f" {verb}" if verb else "")
    p = _Parser(prog=prog)
    _add_common(p)
    if (group, verb) == ("sample", None):
        p.add_argument("--model", choices=["planted", "null"], required=True)
        p.add_argument("--params", required=True)
        p.add_argument("--count", type=int, default=1)
        p.add_argument("--H", default=None, help="template JSON (default: sampled from seed)")
        return p, _cmd_sample
    if (group, verb) == ("lr", "exact"):
        p.add_argument("--H", required=True)
        p.add_argument("--params", required=True)
        p.add_argument("--degree", type=int, default=None)
        p.add_argument("--rational", action="store_true")
        return p, _cmd_lr_exact
    if (group, verb) == ("lr", "bound"):
        p.add_argument("--inputs", required=True)
        p.add_argument("--mode", choices=["exactN", "boundN"], default="exactN")
        return p, _cmd_lr_bound
    if (group, verb) == ("lr", "theorem"):
        p.add_argument("--inputs", required=True)
        return p, _cmd_lr_theorem
    if (group, verb) == ("lr", "corollary"):
        p.add_argument("--inputs", required=True)
        p.add_argument("--eta", type=float, required=True)
        return p, _cmd_lr_corollary
    if (group, verb) == ("lr", "nvd"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--v", type=int, required=True)
        p.add_argument("--D", type=int, required=True)
        p.add_argument("--mode", choices=["auto", "exact", "bound"], default="auto")
        return p, _cmd_lr_nvd
    if (group, verb) == ("distinguish", None):
        p.add_argument("--stat", choices=sorted(distinguishers.STATISTIC_FACTORIES),
                       required=True)
        p.add_argument("--params", required=True)
        p.add_argument("--H", default=None)
        p.add_argument("--trials", type=int, default=10000)
        p.add_argument("--exact", action="store_true")
        p.add_argument("--m", type=int, default=None, help="subgraph pattern size")
        p.add_argument("--w", type=int, default=None, help="leakage-match probe vertex")
        return p, _cmd_distinguish
    if (group, verb) == ("distinguish", "sweep"):
        p.add_argument("--stat", choices=sorted(distinguishers.STATISTIC_FACTORIES),
                       required=True)
        p.add_argument("--params", required=True)
        p.add_argument("--vary", choices=["n", "k"], required=True)
        p.add_argument("--values", required=True, help="comma-separated sweep values")
        p.add_argument("--trials", type=int, default=10000)
        p.add_argument("--h-samples", type=int, default=200, dest="h_samples")
        p.add_argument("--mode", choices=["mc", "exact"], default="mc")
        return p, _cmd_distinguish_sweep
    if (group, verb) == ("ss", "deal"):
        p.add_argument("--R", required=True)
        p.add_argument("--s", type=int, choices=[0, 1], required=True)
        p.add_argument("--n", type=int, required=True)
        return p, _cmd_ss_deal
    if (group, verb) == ("ss", "reconstruct"):
        p.add_argument("--bundle", required=True)
        p.add_argument("--set", required=True, help="comma-separated party ids")
        return p, _cmd_ss_reconstruct
    if (group, verb) == ("ss", "secrecy"):
        p.add_argument("--R", required=True)
        p.add_argument("--set", required=True, help="comma-separated party ids")
        p.add_argument("--n", type=int, required=True)
        return p, _cmd_ss_secrecy
    if (group, verb) == ("ss", "csirmaz"):
        p.add_argument("--ground", type=int, required=True)
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--R", default=None)
        return p, _cmd_ss_csirmaz
    if (group, verb) == ("psm", "setup"):
        p.add_argument("--F", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--public-only", action="store_true", dest="public_only")
        return p, _cmd_psm_setup
    if (group, verb) == ("psm", "run"):
        p.add_argument("--instance", required=True)
        p.add_argument("--inputs", required=True, help="comma-separated party inputs")
        return p, _cmd_psm_run
    if (group, verb) == ("psm", "simulate"):
        p.add_argument("--F", required=True)
        p.add_argument("--y", type=int, choices=[0, 1], required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--allow-collisions", action="store_true", dest="allow_collisions")
        return p, _cmd_psm_simulate
    if (group, verb) == ("psm", "tv"):
        p.add_argument("--F", required=True)
        p.add_argument("--selector", default="uniform")
        p.add_argument("--n", type=int, required=True)
        return p, _cmd_psm_tv
    if (group, verb) == ("experiment", "run"):
        p.add_argument("--config", required=True)
        return p, _cmd_experiment_run
    if (group, verb) == ("experiment", "table"):
        p.add_argument("--results", required=True)
        p.add_argument("--x", required=True)
        p.add_argument("--y", required=True)
        return p, _cmd_experiment_table
    raise ValidationError(f"unknown command {prog!r}")


_VERB_GROUPS = {
    "lr": {"exact", "bound", "theorem", "corollary", "nvd"},
    "ss": {"deal", "reconstruct", "secrecy", "csirmaz"},
    "psm": {"setup", "run", "simulate", "tv"},
    "experiment": {"run", "table"},
    "distinguish": {"sweep"},
}

_USAGE = """usage: plantedsub <command> [options]

commands:
  sample                  draw planted or null hypergraphs as JSON lines
  lr exact|bound|theorem|corollary|nvd
  distinguish [sweep]     advantage of one statistic, or a CSV sweep
  ss deal|reconstruct|secrecy|csirmaz
  psm setup|run|simulate|tv
  experiment run|table    config-driven grids and plot-ready CSV
"""


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    group = argv[0]
    rest = argv[1:]
    verb = None
    if group in _VERB_GROUPS:
        if rest and rest[0] in _VERB_GROUPS[group]:
            verb = rest[0]
            rest = rest[1:]
        elif group != "distinguish":
            sys.stdout.write(_dump({"error": {
                "type": "ValidationError",
                "message": f"{group} needs a sub-command from {sorted(_VERB_GROUPS[group])}",
            }}) + "\n")
            return 2
    elif group != "sample":
        sys.stdout.write(_dump({"error": {
            "type": "ValidationError", "message": f"unknown command {group!r}"}}) + "\n")
        return 2
    try:
        parser, handler = _build_parser(group, verb)
        args = parser.parse_args(rest)
        return handler(args)
    except PlantedSubError as exc:
        sys.stdout.write(_dump({"error": {
            "type": type(exc).__name__, "message": str(exc)}}) + "\n")
        return 3 if isinstance(exc, GuardExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())
