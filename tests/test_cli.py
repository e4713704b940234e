import json
import math

import pytest

from plantedsub import cli, lowdegree, models
from plantedsub.hypercore import Hypergraph
from plantedsub.lowdegree import lr_squared_exact
from plantedsub.models import ModelParams, sample_H, trial_rng


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def params_file(tmp_path):
    return write(tmp_path, "params.json", {"n": 4, "k": 3, "r": 2, "L": [0], "seed": 7})


def test_usage_and_unknown(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    code, out = run_cli(capsys, "frobnicate")
    assert code == 2 and "error" in json.loads(out)
    code, out = run_cli(capsys, "lr")
    assert code == 2


def test_sample_deterministic(capsys, params_file):
    code, out1 = run_cli(capsys, "sample", "--model", "planted",
                         "--params", params_file, "--count", "3")
    assert code == 0 and len(out1.strip().splitlines()) == 3
    _, out2 = run_cli(capsys, "sample", "--model", "planted",
                      "--params", params_file, "--count", "3")
    assert out1 == out2
    for line in out1.strip().splitlines():
        g = Hypergraph.from_json(line)
        assert (g.n, g.r) == (4, 2)


def test_sample_null_respects_leak(capsys, tmp_path):
    params = write(tmp_path, "p.json", {"n": 4, "k": 3, "r": 2, "L": [0, 1], "seed": 3})
    h_file = write(tmp_path, "h.json", {"n": 3, "r": 2, "present": [[0, 1]]})
    _, out = run_cli(capsys, "sample", "--model", "null", "--params", params,
                     "--H", h_file, "--count", "5")
    for line in out.strip().splitlines():
        assert Hypergraph.from_json(line).edge_bit((0, 1)) == 1


def test_lr_exact_matches_library(capsys, tmp_path, params_file):
    params = ModelParams(n=4, k=3, r=2, L=(0,), seed=7)
    h = sample_H(3, 2, trial_rng(7, 0))
    h_file = write(tmp_path, "h.json", h.to_json_dict())
    code, out = run_cli(capsys, "lr", "exact", "--H", h_file, "--params", params_file,
                        "--rational")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(float(lr_squared_exact(h, params).total))


def test_lr_bound_and_nvd(capsys, tmp_path):
    inputs = write(tmp_path, "b.json",
                   {"n": 3, "k": 2, "r": 2, "l": 0, "D": 1, "p": 1, "epsilon": 0.5})
    code, out = run_cli(capsys, "lr", "bound", "--inputs", inputs, "--mode", "exactN")
    assert code == 0 and json.loads(out)["value_exact"] == "16/27"
    code, out = run_cli(capsys, "lr", "nvd", "--n", "3", "--r", "2", "--l", "0",
                        "--v", "3", "--D", "3")
    assert code == 0 and json.loads(out) == {
        "conditions": {}, "mode": "exact", "quantity": "nvd", "value": 4}


def test_lr_theorem_and_corollary(capsys, tmp_path):
    inputs = write(tmp_path, "b.json",
                   {"n": 2 ** 20, "k": 4, "r": 2, "l": 0, "D": 3, "p": 1,
                    "epsilon": 0.5, "delta": 0.125})
    code, out = run_cli(capsys, "lr", "theorem", "--inputs", inputs)
    payload = json.loads(out)
    assert code == 0 and abs(payload["low"] - 9.820e-4) < 1e-6
    code, out2 = run_cli(capsys, "lr", "corollary", "--inputs", inputs, "--eta", "0.5")
    assert code == 0
    assert json.loads(out2)["value"] == pytest.approx(payload["value"] / 0.5)


def test_distinguish_exact_and_mc(capsys, tmp_path):
    params = write(tmp_path, "p.json", {"n": 4, "k": 3, "r": 2, "L": [], "seed": 1})
    h_file = write(tmp_path, "h.json",
                   {"n": 3, "r": 2, "present": [[0, 1], [0, 2], [1, 2]]})
    code, out = run_cli(capsys, "distinguish", "--stat", "edgecount",
                        "--params", params, "--H", h_file, "--exact")
    assert code == 0
    assert json.loads(out)["advantage"] == pytest.approx(-3 / math.sqrt(6))
    code, out = run_cli(capsys, "distinguish", "--stat", "edgecount",
                        "--params", params, "--H", h_file, "--trials", "4000")
    payload = json.loads(out)
    assert code == 0 and payload["mode"] == "montecarlo" and payload["trials"] == 4000


def test_distinguish_sweep_csv(capsys, tmp_path):
    params = write(tmp_path, "p.json", {"n": 16, "k": 4, "r": 2, "L": [], "seed": 2})
    code, out = run_cli(capsys, "distinguish", "sweep", "--stat", "edgecount",
                        "--params", params, "--vary", "k", "--values", "2,4",
                        "--mode", "exact", "--h-samples", "64")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,k,advantage,stderr"
    assert len(lines) == 3


def test_ss_workflow(capsys, tmp_path):
    acc = write(tmp_path, "r.json", {"k": 3, "r": 2, "R": [[0, 1]], "l": 2})
    code, out = run_cli(capsys, "ss", "deal", "--R", acc, "--s", "1", "--n", "6",
                        "--seed", "5")
    assert code == 0
    bundle_file = write(tmp_path, "bundle.json", json.loads(out))
    code, out = run_cli(capsys, "ss", "reconstruct", "--bundle", bundle_file,
                        "--set", "0,1")
    assert code == 0 and json.loads(out)["value"] == 1
    code, out = run_cli(capsys, "ss", "reconstruct", "--bundle", bundle_file,
                        "--set", "1,2")
    assert code == 2
    code, out = run_cli(capsys, "ss", "secrecy", "--R", acc, "--set", "1,2", "--n", "4")
    assert code == 0 and json.loads(out)["value_exact"] == "1/2"
    code, out = run_cli(capsys, "ss", "csirmaz", "--ground", "5", "--l", "3", "--R", acc)
    assert code == 0 and json.loads(out)["passed"]


def test_psm_workflow(capsys, tmp_path):
    f_file = write(tmp_path, "f.json", {"k": 2, "r": 2, "bits": [0, 1, 1, 0]})
    code, out = run_cli(capsys, "psm", "setup", "--F", f_file, "--n", "5", "--seed", "2")
    assert code == 0
    inst = json.loads(out)
    inst_file = write(tmp_path, "inst.json", inst)
    code, out = run_cli(capsys, "psm", "run", "--instance", inst_file, "--inputs", "0,1")
    assert code == 0 and json.loads(out)["output"] == 1
    code, out = run_cli(capsys, "psm", "setup", "--F", f_file, "--n", "5",
                        "--seed", "2", "--public-only")
    assert code == 0 and "phi" not in json.loads(out)
    code, out = run_cli(capsys, "psm", "simulate", "--F", f_file, "--y", "1", "--n", "5")
    payload = json.loads(out)
    assert code == 0 and payload["output"] == 1
    code, out = run_cli(capsys, "psm", "tv", "--F", f_file, "--selector",
                        "constant:0,0", "--n", "4")
    assert code == 0 and 0 < json.loads(out)["value"] < 1


def test_exit_codes(capsys, tmp_path):
    code, out = run_cli(capsys, "lr", "nvd", "--n", "30", "--r", "3", "--l", "0",
                        "--v", "2", "--D", "9", "--mode", "exact")
    assert code == 3 and json.loads(out)["error"]["type"] == "GuardExceeded"
    bad = write(tmp_path, "bad.json", {"n": 4, "k": 9, "r": 2, "L": []})
    code, out = run_cli(capsys, "sample", "--model", "null", "--params", bad)
    assert code == 2 and json.loads(out)["error"]["type"] == "ValidationError"


def test_experiment_wraps_direct_call(capsys, tmp_path):
    out_path = tmp_path / "res.jsonl"
    config = {
        "name": "single", "operation": "lr_exact",
        "grid": {"n": [4]}, "fixed": {"k": 3, "r": 2, "L": [0]},
        "seed": 9, "output": str(out_path),
    }
    config_file = write(tmp_path, "config.json", config)
    code, out = run_cli(capsys, "experiment", "run", "--config", config_file)
    assert code == 0 and json.loads(out)["written"] == 1
    rec = json.loads(out_path.read_text())
    point = {"k": 3, "r": 2, "L": [0], "n": 4}
    seed = cli._point_seed(9, point)
    params = ModelParams(n=4, k=3, r=2, L=(0,), seed=seed)
    h = sample_H(3, 2, trial_rng(seed, 0))
    assert rec["value"] == pytest.approx(float(lr_squared_exact(h, params).total))
    assert rec["metric"] == "lr_squared"


def _strip_walltime(text):
    out = []
    for line in text.strip().splitlines():
        rec = json.loads(line)
        rec.pop("walltime")
        out.append(json.dumps(rec, sort_keys=True))
    return out


def test_experiment_determinism_and_resume(capsys, tmp_path):
    config = {
        "name": "det", "operation": "lr_theorem",
        "grid": {"n": [1024, 4096]},
        "fixed": {"k": 4, "r": 2, "l": 0, "D": 2, "p": 1, "epsilon": 0.5},
        "seed": 1, "output": None,
    }
    runs = []
    for tag in ("a", "b"):
        path = tmp_path / f"res_{tag}.jsonl"
        config["output"] = str(path)
        run_cli(capsys, "experiment", "run", "--config",
                write(tmp_path, f"cfg_{tag}.json", config))
        runs.append(_strip_walltime(path.read_text()))
    assert runs[0] == runs[1]
    # resume: second run over the same output writes nothing new
    code, out = run_cli(capsys, "experiment", "run", "--config",
                        str(tmp_path / "cfg_b.json"))
    assert json.loads(out)["written"] == 0
    assert _strip_walltime((tmp_path / "res_b.jsonl").read_text()) == runs[1]


def test_experiment_table(capsys, tmp_path):
    path = tmp_path / "res.jsonl"
    config = {
        "name": "tab", "operation": "lr_theorem",
        "grid": {"n": [1024, 4096, 16384]},
        "fixed": {"k": 4, "r": 2, "l": 0, "D": 2, "p": 1, "epsilon": 0.5},
        "seed": 1, "output": str(path),
    }
    run_cli(capsys, "experiment", "run", "--config", write(tmp_path, "cfg.json", config))
    code, out = run_cli(capsys, "experiment", "table", "--results", str(path),
                        "--x", "n", "--y", "theorem_low")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "n,theorem_low" and len(lines) == 4
    xs = [int(line.split(",")[0]) for line in lines[1:]]
    assert xs == sorted(xs)
    # empty results file: header only
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out = run_cli(capsys, "experiment", "table", "--results", str(empty),
                        "--x", "n", "--y", "whatever")
    assert code == 0 and out.strip() == "n,whatever"


def test_experiment_validation(capsys, tmp_path):
    cfg = write(tmp_path, "cfg.json", {"name": "x", "operation": "nope",
                                       "grid": {"n": [2]}, "output": "o.jsonl"})
    code, out = run_cli(capsys, "experiment", "run", "--config", cfg)
    assert code == 2
    cfg2 = write(tmp_path, "cfg2.json", {"name": "x", "operation": "lr_exact",
                                         "grid": {}, "output": "o.jsonl"})
    code, _ = run_cli(capsys, "experiment", "run", "--config", cfg2)
    assert code == 2


def test_config_hash_stable_under_reordering():
    a = {"name": "x", "operation": "op", "grid": {"n": [1]}, "seed": 3, "output": "a"}
    b = {"output": "b", "seed": 3, "grid": {"n": [1]}, "operation": "op", "name": "x"}
    assert cli.config_hash(a) == cli.config_hash(b)


def test_sample_oversized_host_fails_with_json(capsys, tmp_path):
    params = write(tmp_path, "p.json", {"n": 100, "k": 30, "r": 30, "L": [], "seed": 1})
    for model in ("null", "planted"):
        code, out = run_cli(capsys, "sample", "--model", model, "--params", params)
        error = json.loads(out)["error"]
        assert code == 3 and error["type"] == "GuardExceeded"
        assert "C(100, 30)" in error["message"]


def test_small_hosts_fail_with_json(capsys, tmp_path):
    table = write(tmp_path, "f.json", {"k": 2, "r": 2, "bits": [0, 1, 1, 0]})
    code, out = run_cli(capsys, "psm", "tv", "--F", table, "--n", "3")
    error = json.loads(out)["error"]
    assert code == 2 and error["type"] == "ValidationError"
    assert error["message"] == "host size n=3 must be at least r*k=4"
    acc = write(tmp_path, "r.json", {"k": 3, "r": 2, "R": [[0, 1]], "l": 2})
    code, out = run_cli(capsys, "ss", "secrecy", "--R", acc, "--set", "1,2", "--n", "2")
    error = json.loads(out)["error"]
    assert code == 2 and error["type"] == "ValidationError"
    assert error["message"] == "host size n=2 must be at least k=3"


def test_malformed_template_json_exits_2(capsys, tmp_path, params_file):
    for present in ([["a", 1]], [[0.5, 1]], {"0": 1}, [[0, 1], [2]]):
        h_file = write(tmp_path, "h.json", {"n": 3, "r": 2, "present": present})
        code, out = run_cli(capsys, "lr", "exact", "--H", h_file, "--params", params_file)
        assert code == 2 and json.loads(out)["error"]["type"] == "ValidationError"


def test_deal_and_setup_refuse_oversized_host(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(models, "SAMPLE_COORD_GUARD", 1000)
    acc = write(tmp_path, "r.json", {"k": 3, "r": 2, "R": [[0, 1]], "l": 2})
    table = write(tmp_path, "f.json", {"k": 2, "r": 2, "bits": [0, 1, 1, 0]})
    for argv in (("ss", "deal", "--R", acc, "--s", "1"), ("psm", "setup", "--F", table)):
        code, out = run_cli(capsys, *argv, "--n", "50")
        error = json.loads(out)["error"]
        assert code == 3 and error["type"] == "GuardExceeded"
        assert "C(50, 2) = 1225" in error["message"]
        assert run_cli(capsys, *argv, "--n", "45")[0] == 0  # C(45, 2) = 990


def test_parser_errors_print_json(capsys, params_file):
    for argv in (("lr", "exact", "--params", params_file),
                 ("distinguish", "--stat", "edgecount", "--params", params_file,
                  "--trials", "x"),
                 ("sample", "--model", "planted", "--params", params_file, "--bogus")):
        code, out = run_cli(capsys, *argv)
        error = json.loads(out)["error"]
        assert code == 2 and error["type"] == "ValidationError"
    assert "--H" in json.loads(run_cli(capsys, "lr", "exact")[1])["error"]["message"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["lr", "exact", "--help"])
    assert exc.value.code == 0 and "--H" in capsys.readouterr().out


def test_hypergraph_json_with_negative_n_exits_2(capsys, tmp_path, params_file):
    h_file = write(tmp_path, "h.json", {"n": -1, "r": 2, "present": []})
    code, out = run_cli(capsys, "lr", "exact", "--H", h_file, "--params", params_file)
    error = json.loads(out)["error"]
    assert code == 2 and error["type"] == "ValidationError"
    assert error["message"] == "vertex count must be >= 0, got -1"


def test_hypergraph_json_past_the_coordinate_guard_exits_3(capsys, tmp_path, params_file):
    h_file = write(tmp_path, "h.json", {"n": 1000000, "r": 3, "present": []})
    code, out = run_cli(capsys, "lr", "exact", "--H", h_file, "--params", params_file)
    error = json.loads(out)["error"]
    assert code == 3 and error["type"] == "GuardExceeded"
    assert f"C(1000000, 3) = {math.comb(1000000, 3)}" in error["message"]


def test_lr_exact_caps_degree(capsys, tmp_path, params_file):
    h_file = write(tmp_path, "h.json", sample_H(3, 2, trial_rng(7, 0)).to_json_dict())
    argv = ("lr", "exact", "--H", h_file, "--params", params_file, "--rational")
    code, capped = run_cli(capsys, *argv, "--degree", "5")  # C(4, 2) - C(1, 2) = 6
    assert code == 0 and len(json.loads(capped)["cumulative"]) == 5
    code, full = run_cli(capsys, *argv)
    assert code == 0 and json.loads(full)["degree"] == 6
    for degree in ("10000000000", "7", "6"):
        assert run_cli(capsys, *argv, "--degree", degree) == (0, full)
    assert run_cli(capsys, *argv, "--degree", "0")[0] == 2


def test_lr_exact_work_guard_exits_3_before_enumerating(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the injection table was built before the guard check")

    monkeypatch.setattr(lowdegree, "injection_table", refuse)
    params = write(tmp_path, "p.json", {"n": 12, "k": 7, "r": 2})
    h_file = write(tmp_path, "h.json", sample_H(7, 2, trial_rng(8, 0)).to_json_dict())
    code, out = run_cli(capsys, "lr", "exact", "--H", h_file, "--params", params,
                        "--degree", "1")
    error = json.loads(out)["error"]
    assert code == 3 and error["type"] == "GuardExceeded"
    assert "83825280 overlap entries" in error["message"]
