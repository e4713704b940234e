"""Self-checks of the benchmark: its output checks reject corrupted
results, its span wrappers leave every output unchanged, every
workload's warm-up round passes its checks, and each operation's time
is scaled by the reference speed measured around it."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, tracing, workloads  # noqa: E402
from plantedsub import cli  # noqa: E402


def call(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def write(tmp_path, name, obj) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def edited(stdout: str, **changes) -> str:
    out = json.loads(stdout)
    out.update(changes)
    return json.dumps(out)


TEMPLATE = {"n": 4, "r": 2, "present": [[0, 1], [1, 3], [2, 3]]}


@pytest.fixture
def small(tmp_path):
    """Argv builders for small instances of every checked verb."""
    def params(n, k, L, seed=3):
        return write(tmp_path, f"p{n}{k}{L}", {"n": n, "k": k, "r": 2, "L": L, "seed": seed})
    return params, write(tmp_path, "h", TEMPLATE)


def test_lr_exact_check_rejects_perturbed_fraction(small):
    params, h = small
    p = {"n": 5, "k": 4, "r": 2, "L": [0], "seed": 3}
    out = call(["lr", "exact", "--H", h, "--params", params(5, 4, [0]), "--rational"])
    checks.check_lr_exact(TEMPLATE, p, out)
    value = Fraction(json.loads(out)["value_exact"]) + Fraction(1, 10**9)
    with pytest.raises(checks.CheckFailed):
        checks.check_lr_exact(TEMPLATE, p, edited(out, value_exact=str(value)))


def test_exact_advantage_check_rejects_advantage_above_lr_bound(small):
    params, h = small
    p = {"n": 5, "k": 4, "r": 2, "L": [0, 1], "seed": 3}
    for stat in ("edgecount", "leakmatch", "linear"):
        out = call(["distinguish", "--stat", stat, "--exact", "--params",
                    params(5, 4, [0, 1]), "--H", h])
        checks.check_exact_advantage(stat, TEMPLATE, p, out)
        with pytest.raises(checks.CheckFailed):
            checks.check_exact_advantage(stat, TEMPLATE, p, edited(out, advantage=10.0))


def test_mc_check_rejects_moved_advantage_and_missed_plant(small):
    params, h = small
    p = {"n": 12, "k": 4, "r": 2, "L": [0, 1], "seed": 3}
    path = params(12, 4, [0, 1])
    out = call(["distinguish", "--stat", "edgecount", "--params", path, "--H", h,
                "--trials", "2000"])
    checks.check_mc("edgecount", TEMPLATE, p, 2000, out)
    rep = json.loads(out)
    expected = checks.edge_count_formula(TEMPLATE, p)
    moved = edited(out, advantage=expected + 6 * rep["stderr"])
    with pytest.raises(checks.CheckFailed):
        checks.check_mc("edgecount", TEMPLATE, p, 2000, moved)
    with pytest.raises(checks.CheckFailed):
        checks.check_mc("edgecount", TEMPLATE, p, 1000, out)

    out = call(["distinguish", "--stat", "leakmatch", "--params", path, "--H", h,
                "--trials", "2000"])
    checks.check_mc("leakmatch", TEMPLATE, p, 2000, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_mc("leakmatch", TEMPLATE, p, 2000, edited(out, mean_planted=0.999))

    out = call(["distinguish", "--stat", "linear", "--params", path, "--H", h,
                "--trials", "2000"])
    checks.check_mc("linear", TEMPLATE, p, 2000, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_mc("linear", TEMPLATE, p, 2000, edited(out, mean_null=1.5))


def test_sample_check_rejects_flipped_leaked_edge(small):
    params, h = small
    p = {"n": 12, "k": 4, "r": 2, "L": [0, 1], "seed": 3}
    out = call(["sample", "--model", "null", "--params", params(12, 4, [0, 1]),
                "--H", h, "--count", "3"])
    checks.check_sample(TEMPLATE, p, 3, out)
    lines = out.splitlines()
    g = json.loads(lines[0])
    g["present"] = [e for e in g["present"] if e != [0, 1]]  # template has {0, 1}
    with pytest.raises(checks.CheckFailed):
        checks.check_sample(TEMPLATE, p, 3, "\n".join([json.dumps(g)] + lines[1:]))
    with pytest.raises(checks.CheckFailed):
        checks.check_sample(TEMPLATE, p, 4, out)


def test_crypto_checks_reject_flipped_bits(tmp_path):
    access = {"k": 4, "r": 2, "R": [[0, 1], [2, 3]], "l": 2}
    out = call(["ss", "deal", "--R", write(tmp_path, "R", access), "--s", "1",
                "--n", "12", "--seed", "5"])
    checks.check_deal(access, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_deal({**access, "R": [[0, 2]]}, out)
    bundle = write(tmp_path, "bundle", out)
    out = call(["ss", "reconstruct", "--bundle", bundle, "--set", "2,3"])
    checks.check_reconstruct(1, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_reconstruct(0, out)

    table = {"k": 2, "r": 2, "bits": [0, 1, 1, 1]}
    out = call(["psm", "setup", "--F", write(tmp_path, "F", table), "--n", "8", "--seed", "2"])
    checks.check_psm_setup(table, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_psm_setup({**table, "bits": [1, 1, 1, 1]}, out)
    instance = write(tmp_path, "instance", out)
    out = call(["psm", "run", "--instance", instance, "--inputs", "0,1"])
    checks.check_psm_run(1, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_psm_run(0, out)


def test_tv_check_rejects_out_of_range_and_nonzero():
    good = json.dumps({"value": 0.375, "value_exact": "3/8"})
    checks.check_tv(good)
    with pytest.raises(checks.CheckFailed):
        checks.check_tv(json.dumps({"value": 1.5, "value_exact": "3/2"}))
    with pytest.raises(checks.CheckFailed):
        checks.check_tv(good, zero=True)
    with pytest.raises(checks.CheckFailed):
        checks.check_tv(json.dumps({"error": {"type": "GuardExceeded", "message": "x"}}))


def test_tracing_leaves_outputs_unchanged(small, tmp_path):
    params, h = small
    path = params(12, 4, [0, 1])
    access = write(tmp_path, "R", {"k": 3, "r": 2, "R": [[0, 1]], "l": 2})
    table = write(tmp_path, "F", {"k": 1, "r": 2, "bits": [1]})
    argvs = [
        ["distinguish", "--stat", stat, "--params", path, "--H", h, "--trials", "500"]
        for stat in ("edgecount", "leakmatch", "linear")
    ] + [
        ["distinguish", "--stat", "subgraph", "--m", "4", "--params",
         params(6, 4, [0, 1]), "--H", h, "--trials", "200"],
        ["distinguish", "--stat", "edgecount", "--exact", "--params",
         params(5, 4, [0, 1]), "--H", h],
        ["lr", "exact", "--H", h, "--params", params(5, 4, [0]), "--rational"],
        ["sample", "--model", "planted", "--params", path, "--H", h, "--count", "2"],
        ["sample", "--model", "null", "--params", path, "--H", h, "--count", "2"],
        ["ss", "deal", "--R", access, "--s", "1", "--n", "6", "--seed", "4"],
        ["ss", "secrecy", "--R", access, "--set", "1,2", "--n", "4"],
        ["psm", "setup", "--F", table, "--n", "4", "--seed", "1"],
        ["psm", "tv", "--F", table, "--n", "3"],
    ]
    plain = [call(argv) for argv in argvs]
    original = cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        tracer.active = True
        traced = []
        for op_id, argv in enumerate(argvs):
            tracer.op_id = op_id
            traced.append(call(argv))
    finally:
        tracer.active = False
        tracer.uninstall()
    assert traced == plain
    assert cli.main is original
    names = {span[0] for span in tracer.spans}
    for name in ("cli.main", "kernels.plant_batch", "kernels.match_any_batch",
                 "distinguishers.Statistic.batch", "models.exact_pmf",
                 "lowdegree.lr_squared_exact", "secretshare.secrecy_tv",
                 "psm.enumerate_real_ensemble", "models.tv_dict"):
        assert name in names
    assert tracer.counts[0]["kernels.plant_batch.writes"] == 500 * 6
    assert tracer.counts[0]["distinguishers.trials"] == 500
    assert all(span[3] is None for span in tracer.spans if span[0] == "cli.main")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_warm_up_round_passes_its_checks(workload, tmp_path):
    runner = run.Runner(workload, seed=7, directory=str(tmp_path))
    runner.reference = [run.reference_seconds()]
    runner.run_round(warm_up=True)
    assert runner.ops
    assert [op for op in runner.ops.values() if op["error"]] == []
    assert len(runner.reference) == len(runner.ops) + 1
    assert all(op["speed"] > 0 for op in runner.ops.values())


def test_end_to_end_scales_each_operation_by_its_speed():
    records = [{"seconds": 0.2, "speed": 0.5, "error": None},
               {"seconds": 0.1, "speed": 1.0, "error": None},
               {"seconds": 0.4, "speed": 1.0, "error": "check failed"}]
    scaled, _ = run.end_to_end(records, 1.0, scaled=True)
    raw, _ = run.end_to_end(records, 1.0, scaled=False)
    assert scaled["throughput_ops_s"] == pytest.approx(3 / 0.6)
    assert raw["throughput_ops_s"] == pytest.approx(3 / 0.7)
    assert (scaled["latency_p50_ms"], raw["latency_p50_ms"]) == pytest.approx((100, 200))
    assert scaled["success_ratio"] == pytest.approx(2 / 3)


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
