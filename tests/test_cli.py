"""Config schema, file formats, subcommand behavior, exit codes."""

import ast
import csv
import importlib.util
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fwsd.cli
import fwsd.sparse_net
from fwsd.cli import (
    REPORT_THETAS,
    ConfigError,
    ExperimentConfig,
    build_parser,
    config_echo_lines,
    load_config,
    main,
    parse_config_text,
    smoothed_series,
)
from fwsd.optimizer import BatchSchedule, OptimizerConfig, run
from fwsd.problems import QuadraticInstance
from fwsd.sparse_net import (
    Activation,
    Dataset,
    EpochSampling,
    LayerParams,
    Loss,
    MLPProblem,
    MLPSpec,
    ParamLayout,
    evaluate,
    init_params,
    load_checkpoint,
    load_dataset_bin,
    load_net_checkpoint,
    save_checkpoint,
    save_dataset_bin,
    save_dataset_csv,
    save_net_checkpoint,
)


def run_cli(*argv):
    return main(list(argv))


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


# ---------------------------------------------------------------- config


def test_parse_config_text():
    pairs = parse_config_text(
        "# comment\n"
        "method = sfw-if   # trailing comment\n"
        "\n"
        "batch_size = 4\n"
    )
    assert pairs == {"method": "sfw-if", "batch_size": "4"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_text("seed = 1\nseed = 2\n")


def test_load_config_types_and_defaults(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "method = sgd\n"
        "seed = 7\n"
        "l_nabla = 2.5\n"
        "bias = false\n"
        "layer_sizes = 6,5,1\n"
        "deltas = 0.5,1.5\n"
    )
    config = load_config(str(path), {})
    assert config.method == "sgd"
    assert config.seed == 7
    assert config.l_nabla == 2.5
    assert config.bias is False
    assert config.layer_sizes == (6, 5, 1)
    assert config.deltas == (0.5, 1.5)
    assert config.batch_size == 1, "untouched keys keep their defaults"


def test_load_config_overrides_win(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 1\n")
    config = load_config(str(path), {"seed": "9", "method": None})
    assert config.seed == 9
    assert config.method == "sfw"


def test_load_config_rejections(tmp_path):
    path = tmp_path / "exp.cfg"
    for text in (
        "mystery = 1\n",
        "seed = notanint\n",
        "method = adam\n",
        "bias = yes\n",
        "alpha_clamp = true\n",
        "epochs = 2\n",
        "c_bar_scale = 1.0\n",
        "away_tol = 1e-12\n",
        "batch_size = 0\n",
        "smoothing_window = 0\n",
        "layer_sizes = 4\n",
        "deltas = -1,1\n",
    ):
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(str(path), {})


def test_config_echo_round_trips():
    config = ExperimentConfig(method="sfw-if", seed=3, iterations=40,
                              deltas=(0.25, 4.0), bias=False)
    lines = [l.removeprefix("config.") for l in config_echo_lines(config)]
    again = load_config(None, dict(parse_config_text("\n".join(lines))))
    assert again == config


# ---------------------------------------------------------------- formats


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "c.ckpt"
    arrays = [("a", np.arange(6.0).reshape(2, 3)), ("b", np.array([1.5]))]
    save_checkpoint(path, "quadratic", {"block_dims": [3]}, {"seed": 1}, arrays)
    header, back = load_checkpoint(path)
    assert header["kind"] == "quadratic"
    assert header["meta"]["seed"] == 1
    assert np.array_equal(back["a"], arrays[0][1])
    assert np.array_equal(back["b"], arrays[1][1])


def test_net_checkpoint_round_trip(tmp_path):
    spec = MLPSpec(layer_sizes=(3, 2, 1), fw_layers=(0,), deltas=(1.25,))
    rng = np.random.default_rng(0)
    params = [
        LayerParams(w=rng.standard_normal((2, 3)), b=rng.standard_normal(2)),
        LayerParams(w=rng.standard_normal((1, 2)), b=rng.standard_normal(1)),
    ]
    path = tmp_path / "n.ckpt"
    save_net_checkpoint(path, spec, params, {"method": "sfw"})
    spec2, params2, meta = load_net_checkpoint(path)
    assert spec2 == spec
    assert meta["method"] == "sfw"
    for a, b in zip(params, params2):
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.b, b.b)


def test_net_checkpoint_is_checked_once_per_load(tmp_path, monkeypatch):
    calls, inner = [], fwsd.sparse_net._net_from
    monkeypatch.setattr(fwsd.sparse_net, "_net_from", lambda *a: calls.append(a) or inner(*a))
    spec = MLPSpec(layer_sizes=(3, 2, 1), fw_layers=(0,), deltas=(1.25,))
    save_net_checkpoint(tmp_path / "n.ckpt", spec, init_params(spec, 0), {"m": 2})
    with pytest.raises(ValueError, match="in-degree 2"):  # the one pass is the full check
        load_net_checkpoint(tmp_path / "n.ckpt")
    save_net_checkpoint(tmp_path / "n.ckpt", spec, init_params(spec, 0), {"method": "sfw"})
    calls.clear()
    assert load_net_checkpoint(tmp_path / "n.ckpt")[0] == spec
    assert len(calls) == 1


def _small_net_checkpoint(path):
    spec = MLPSpec(layer_sizes=(2, 2, 1), fw_layers=(0,), deltas=(1.0,))
    params = [LayerParams(w=np.ones((2, 2)), b=np.zeros(2)),
              LayerParams(w=np.ones((1, 2)), b=np.zeros(1))]
    save_net_checkpoint(path, spec, params, {"method": "sfw"})
    return path.read_bytes()


def test_checkpoint_rejects_every_truncation(tmp_path):
    path = tmp_path / "c.ckpt"
    full = _small_net_checkpoint(path)
    for length in range(len(full)):
        path.write_bytes(full[:length])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated at "):
            load_checkpoint(path)


def test_checkpoint_rejects_inflated_header_counts(tmp_path):
    path = tmp_path / "c.ckpt"
    full = _small_net_checkpoint(path)
    (length,) = struct.unpack_from("<I", full, 9)
    header = json.loads(full[13:13 + length])
    for inflated in (length + len(full), 2**32 - 1):
        path.write_bytes(full[:9] + struct.pack("<I", inflated) + full[13:])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated at header"):
            load_checkpoint(path)
    for i, entry in enumerate(header["arrays"]):
        for axis in range(len(entry["shape"])):
            for count in (entry["shape"][axis] + 1, 2**40):
                bigger = json.loads(json.dumps(header))
                bigger["arrays"][i]["shape"][axis] = count
                blob = json.dumps(bigger, sort_keys=True).encode()
                path.write_bytes(full[:9] + struct.pack("<I", len(blob)) + blob
                                 + full[13 + length:])
                with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated at "):
                    load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("kind", "absent"), ("spec", "absent"),
                                          ("meta", "absent"), ("kind", 3), ("spec", []),
                                          ("meta", [])],
                         ids=["no-kind", "no-spec", "no-meta", "kind-number", "spec-list",
                              "meta-list"])
def test_checkpoint_header_names_the_file(tmp_path, field, value):
    path = tmp_path / "c.ckpt"
    full = _small_net_checkpoint(path)
    (length,) = struct.unpack_from("<I", full, 9)
    header = json.loads(full[13:13 + length])
    if value == "absent":
        del header[field]
    else:
        header[field] = value
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(full[:9] + struct.pack("<I", len(blob)) + blob + full[13 + length:])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed checkpoint header$"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [[-1, 2], [2.5, 2]], ids=["negative", "fraction"])
def test_checkpoint_rejects_an_invalid_array_shape(tmp_path, shape):
    path = tmp_path / "c.ckpt"
    full = _small_net_checkpoint(path)
    (length,) = struct.unpack_from("<I", full, 9)
    header = json.loads(full[13:13 + length])
    header["arrays"][0]["shape"] = shape
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(full[:9] + struct.pack("<I", len(blob)) + blob + full[13 + length:])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: layer0_w has invalid shape "
                                         rf"\({re.escape(str(shape)[1:-1])}\)$"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTCKPT!" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_validates_stored_in_degree(tmp_path):
    spec = MLPSpec(layer_sizes=(4, 3, 1), bias=False)
    params = [
        LayerParams(w=np.zeros((3, 4)), b=np.zeros(3)),
        LayerParams(w=np.ones((1, 3)), b=np.zeros(1)),
    ]
    params[0].w[0, 0] = 1.0
    params[0].w[1, 1] = 1.0
    params[0].w[2, 2] = 1.0
    path = tmp_path / "t.ckpt"
    save_net_checkpoint(path, spec, params, {"m": 1})
    load_net_checkpoint(path)
    save_net_checkpoint(path, spec, params, {"m": 2})
    with pytest.raises(ValueError):
        load_net_checkpoint(path)


def test_checkpoint_names_missing_spec_field_and_array(tmp_path, capsys):
    full = {"layer_sizes": [4, 3, 1], "activation": "sigmoid", "loss": "mse",
            "fw_layers": [], "deltas": [], "bias": False}
    arrays = [("layer0_b", np.zeros(3)), ("layer1_w", np.ones((1, 3))),
              ("layer1_b", np.zeros(1))]
    path = tmp_path / "n.ckpt"
    save_checkpoint(path, "net", {}, {"m": 1}, [("layer0_w", np.eye(3, 4))] + arrays)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'layer_sizes'"):
        load_checkpoint(path)
    assert run_cli("threshold-eval", "--checkpoint", str(path),
                   "--dataset", str(tmp_path / "unread.bin")) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "layer_sizes" in err
    for meta in ({"m": 1}, {}):
        save_checkpoint(path, "net", full, meta, arrays)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'layer0_w'"):
            load_net_checkpoint(path)
    save_checkpoint(path, "net", {}, {}, arrays)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'layer_sizes'"):
        load_net_checkpoint(path)
    save_checkpoint(path, "net", full, {"m": 2}, [("layer0_w", np.eye(3, 4))] + arrays)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: layer 0 does not have"):
        load_net_checkpoint(path)


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("loss", list(Loss))
@pytest.mark.parametrize("activation", list(Activation))
def test_net_checkpoint_header_holds_the_spec_fields(tmp_path, activation, loss, bias):
    spec = MLPSpec(layer_sizes=(3, 2, 2), activation=activation, loss=loss, fw_layers=(0,),
                   deltas=(1.25,), bias=bias)
    params = init_params(spec, 0)
    path = tmp_path / "n.ckpt"
    save_net_checkpoint(path, spec, params, {"method": "sfw"})
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 9)
    # MLPSpec's fields as JSON: tuples as lists, enums by value, bias as a bool
    spec_meta = {"layer_sizes": [3, 2, 2], "activation": activation.value, "loss": loss.value,
                 "fw_layers": [0], "deltas": [1.25], "bias": bias}
    arrays = [{"name": f"layer{l}_{part}", "shape": shape} for l, (w, b) in
              enumerate([([2, 3], [2]), ([2, 2], [2])]) for part, shape in (("w", w), ("b", b))]
    header = {"kind": "net", "spec": spec_meta, "meta": {"method": "sfw"}, "arrays": arrays}
    assert blob[13:13 + length] == json.dumps(header, sort_keys=True).encode("utf-8")
    back, params_back, meta = load_net_checkpoint(path)
    assert back == spec and meta == {"method": "sfw"}
    assert all(np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
               for a, b in zip(params, params_back))


NET_SPEC = {"layer_sizes": [4, 3, 2], "activation": "sigmoid", "loss": "mse",
            "fw_layers": [0], "deltas": [1.0], "bias": True}
NET_ARRAYS = {"layer0_w": np.zeros((3, 4)), "layer0_b": np.zeros(3),
              "layer1_w": np.zeros((2, 3)), "layer1_b": np.zeros(2)}
# fault -> (spec edits, array edits where None deletes, the field or array named)
NET_FAULTS = {
    "wrong-shape": ({}, {"layer1_w": np.zeros((1, 3))}, "layer1_w"),
    "missing-array": ({}, {"layer1_b": None}, "layer1_b"),
    "extra-array": ({}, {"layer2_w": np.zeros((2, 2))}, "layer2_w"),
    "unknown-field": ({"width": 3}, {}, "width"),
    "tanh": ({"activation": "tanh"}, {}, "activation"),
    "bias-number": ({"bias": 1}, {}, "bias"),
}


@pytest.mark.parametrize("fault", NET_FAULTS)
def test_net_checkpoint_is_checked_against_its_spec(tmp_path, capsys, fault):
    spec_edits, array_edits, named = NET_FAULTS[fault]
    arrays = {name: a for name, a in {**NET_ARRAYS, **array_edits}.items() if a is not None}
    path = tmp_path / "n.ckpt"
    save_checkpoint(path, "net", {**NET_SPEC, **spec_edits}, {}, list(arrays.items()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*\\b{named}\\b"):
        load_checkpoint(path)
    assert run_cli("threshold-eval", "--checkpoint", str(path),
                   "--dataset", str(tmp_path / "unread.bin")) == 2
    err = capsys.readouterr().err
    assert str(path) in err and named in err


@pytest.mark.parametrize("field, text", [("layer_sizes", "432"), ("fw_layers", "0"),
                                         ("deltas", "1")])
def test_net_checkpoint_spec_rejects_a_string_for_a_sequence(tmp_path, field, text):
    # each string spells NET_SPEC's value character by character, so the arrays still fit
    with pytest.raises(ValueError, match=f"^{field}: "):
        MLPSpec(**{**NET_SPEC, field: text})
    path = tmp_path / "n.ckpt"
    save_checkpoint(path, "net", {**NET_SPEC, field: text}, {}, list(NET_ARRAYS.items()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: spec {field}: "):
        load_net_checkpoint(path)


def test_cli_keeps_the_names_the_benchmark_reaches(tmp_path, capsys):
    # perfbench/tracer.py patches fwsd.cli's names, so each format call the CLI makes must go
    # through a name of its own; perfbench/worker.py calls fwsd.cli.load_net_checkpoint
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", bench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = {attr for module, _, attr, _ in tracer.HOOKS if module == "fwsd.cli"}
    formats = {"save_checkpoint", "save_net_checkpoint", "load_dataset_bin"}
    assert formats <= patched
    assert sorted(patched - set(vars(fwsd.cli))) == []
    # every attribute the worker looks up on a `<something>.cli` object
    called = {node.attr for node in ast.walk(ast.parse((bench / "worker.py").read_text()))
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and node.value.attr == "cli"}
    assert "load_net_checkpoint" in called
    assert all(callable(vars(fwsd.cli).get(name)) for name in called)
    # one span per name: synth (the teacher), a network trained on its three files and a
    # quadratic run make every format call through the CLI
    spans = tracer.Tracer()
    with spans.installed([("fwsd.cli", None, attr, attr) for attr in sorted(formats)]):
        assert run_cli(*synth_args(tmp_path)) == 0
        assert run_cli(*dataset_train_args(tmp_path)) == 0
        assert run_cli(*quad_args(tmp_path)) == 0
    capsys.readouterr()
    assert spans.missing == []
    assert {name: stats.calls for name, stats in spans.stats.items()} == {
        "save_net_checkpoint": 2, "load_dataset_bin": 3, "save_checkpoint": 1}


def test_smoothed_series():
    assert smoothed_series([0.0, 2.0], 2) == [0.0, 1.0]
    values = [3.0, 1.0, 4.0, 1.0]
    assert smoothed_series(values, 1) == values
    assert smoothed_series([5.0] * 6, 3) == [5.0] * 6
    assert smoothed_series([1.0, 2.0, 3.0, 4.0], 2) == [1.0, 1.5, 2.5, 3.5]
    with pytest.raises(ConfigError, match="^window must be at least 1$"):
        smoothed_series([1.0], 0)


# ---------------------------------------------------------------- train


def quad_args(tmp_path, *extra):
    return [
        "train", "--problem", "quadratic", "--quad-blocks", "3,2", "--quad-y", "2",
        "--deltas", "1,1", "--iterations", "8", "--seed", "5",
        "--out-prefix", str(tmp_path / "q"), *extra,
    ]


def test_train_quadratic_writes_artifacts(tmp_path, capsys):
    assert run_cli(*quad_args(tmp_path)) == 0
    capsys.readouterr()
    trace = (tmp_path / "q.trace.csv").read_text().splitlines()
    header = trace[0].split(",")
    assert header == ["k", "objective_estimate", "gap_hat", "gap_hat_smoothed",
                      "alpha_bar_0", "alpha_bar_1", "alpha_sd",
                      "nnz_block_0", "nnz_block_1"]
    assert len(trace) == 1 + 8
    report = read_report(tmp_path / "q.report.txt")
    assert report["command"] == "train"
    assert report["config.method"] == "sfw"
    assert report["seed"] == "5"
    assert "final_objective_exact" in report
    assert "wall_clock_seconds" not in report, "timing stays out of the artifact"
    header, arrays = load_checkpoint(tmp_path / "q.ckpt")
    assert header["spec"]["block_dims"] == [3, 2]
    assert arrays["y"].shape == (2,)


def test_train_rerun_is_bit_identical(tmp_path, capsys):
    assert run_cli(*quad_args(tmp_path)) == 0
    first = {name: (tmp_path / f"q.{name}").read_bytes()
             for name in ("trace.csv", "ckpt", "report.txt")}
    assert run_cli(*quad_args(tmp_path)) == 0
    capsys.readouterr()
    for name, blob in first.items():
        assert (tmp_path / f"q.{name}").read_bytes() == blob, name


def test_train_gradient_call_accounting(tmp_path, capsys):
    assert run_cli(*quad_args(tmp_path, "--method", "sfw-if")) == 0
    capsys.readouterr()
    trace = (tmp_path / "q.trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 4, "two gradient batches per iteration halve the count"
    report = read_report(tmp_path / "q.report.txt")
    assert report["iterations_run"] == "4"
    assert report["gradient_batches"] == "8"


def test_train_sfw_if_needs_two_batches(tmp_path, capsys):
    code = run_cli("train", "--problem", "quadratic", "--quad-blocks", "2",
                   "--deltas", "1", "--iterations", "1", "--method", "sfw-if",
                   "--out-prefix", str(tmp_path / "x"))
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("problem, owner, args", [
    ("quadratic", QuadraticInstance, ("--quad-blocks", "", "--deltas", "")),
    ("synthetic-net", MLPProblem, ("--layer-sizes", "3,2,1", "--fw-layers", "", "--deltas", "",
                                   "--train-size", "20", "--val-size", "4", "--test-size", "4",
                                   "--synth-m", "1")),
], ids=["quadratic", "synthetic-net"])
def test_sfw_if_without_constrained_block_spends_one_batch_per_iteration(
        tmp_path, capsys, monkeypatch, problem, owner, args):
    # run() draws its away-step batch only when there is a constrained block
    calls = []
    gradient_mean = owner.gradient_mean

    def counted(self, *call_args):
        calls.append(call_args)
        return gradient_mean(self, *call_args)

    monkeypatch.setattr(owner, "gradient_mean", counted)
    assert run_cli("train", "--problem", problem, "--method", "sfw-if", "--iterations", "20",
                   *args, "--out-prefix", str(tmp_path / "r")) == 0
    capsys.readouterr()
    report = read_report(tmp_path / "r.report.txt")
    assert report["iterations_run"] == report["gradient_batches"] == "20"
    assert len(calls) == 20


def net_args(tmp_path, *extra):
    return [
        "train", "--problem", "synthetic-net", "--layer-sizes", "5,4,1",
        "--fw-layers", "0", "--deltas", "2", "--train-size", "40",
        "--val-size", "10", "--test-size", "10", "--synth-m", "2",
        "--iterations", "10", "--batch-size", "4", "--l-nabla", "2",
        "--seed", "11", "--out-prefix", str(tmp_path / "n"), *extra,
    ]


def test_train_synthetic_net(tmp_path, capsys):
    assert run_cli(*net_args(tmp_path)) == 0
    capsys.readouterr()
    trace = (tmp_path / "n.trace.csv").read_text().splitlines()
    assert trace[0].split(",")[:4] == ["k", "objective_estimate", "gap_hat",
                                       "gap_hat_smoothed"]
    assert trace[0].split(",")[-1] == "nnz_layer_0"
    assert len(trace[0].split(",")) == 4 + 4 + 1 + 1, "one alpha per node block"
    report = read_report(tmp_path / "n.report.txt")
    assert report["eval_split"] == "test"
    assert "nnz_layer_0" in report
    assert "threshold_100_loss" in report
    assert "threshold_5_loss" in report
    spec, params, meta = load_net_checkpoint(tmp_path / "n.ckpt")
    assert spec.fw_layers == (0,)
    assert meta["output_index"] == int(report["output_index"])
    # every constrained block respects its radius
    for row in params[0].w:
        assert np.sum(np.abs(row)) <= 2.0 + 1e-9


def test_train_sgd_has_no_block_columns(tmp_path, capsys):
    assert run_cli(*net_args(tmp_path, "--method", "sgd")) == 0
    capsys.readouterr()
    header = (tmp_path / "n.trace.csv").read_text().splitlines()[0].split(",")
    assert header == ["k", "objective_estimate", "gap_hat", "gap_hat_smoothed",
                      "alpha_sd"]
    report = read_report(tmp_path / "n.report.txt")
    assert "nnz_layer_0" in report, "reports keep the configured layer metrics"
    spec, _, _ = load_net_checkpoint(tmp_path / "n.ckpt")
    assert spec.fw_layers == (0,), "checkpoint keeps the metric layout"


@pytest.mark.parametrize("case", ["train", "grid", "dataset"])
def test_budget_is_checked_before_data_is_made(tmp_path, capsys, monkeypatch, case):
    for name in ("generate_synthetic", "load_dataset_bin", "load_dataset_csv"):
        monkeypatch.setattr(fwsd.cli, name, lambda *args: pytest.fail("data made or read"))
    # opening the absent dataset file would be a different error
    problem = (("--problem", "dataset", "--dataset", str(tmp_path / "absent.bin"))
               if case == "dataset" else ("--problem", "synthetic-net"))
    grid = ("--grid-l-nabla", "1", "--grid-delta", "1") if case == "grid" else ()
    code = run_cli("grid" if case == "grid" else "train", *problem, "--iterations", "0",
                   "--train-size", "200000", "--val-size", "2", "--test-size", "2", *grid,
                   "--out-prefix", str(tmp_path / "r"))
    assert code == 1
    assert capsys.readouterr().err == "error: a positive iteration budget is required\n"
    assert not list(tmp_path.iterdir()), "nothing written"


def test_train_epoch_sampling_mode(tmp_path, capsys):
    assert run_cli(*net_args(tmp_path, "--epoch-sampling", "true")) == 0
    first = (tmp_path / "n.trace.csv").read_bytes()
    assert run_cli(*net_args(tmp_path, "--epoch-sampling", "true")) == 0
    capsys.readouterr()
    assert (tmp_path / "n.trace.csv").read_bytes() == first


def test_epoch_sampling_walks_permutations():
    spec = MLPSpec(layer_sizes=(2, 1), fw_layers=(), deltas=(), bias=False)
    data = Dataset(features=np.zeros((6, 2)), targets=np.zeros((6, 1)))
    problem = EpochSampling(MLPProblem(spec=spec, data=data))
    rng = np.random.default_rng(3)
    drawn = np.concatenate([problem.draw(rng, 4), problem.draw(rng, 4), problem.draw(rng, 4)])
    assert sorted(drawn[:6]) == list(range(6)), "first pass covers every sample once"
    assert sorted(drawn[6:12]) == list(range(6)), "second pass reshuffles"
    assert problem.y_dim == 2, "wrapped attributes pass through"


def test_epoch_sampling_keeps_one_cursor_per_generator():
    spec = MLPSpec(layer_sizes=(2, 1), fw_layers=(), deltas=(), bias=False)
    data = Dataset(features=np.zeros((6, 2)), targets=np.zeros((6, 1)))
    alone = EpochSampling(MLPProblem(spec=spec, data=data))
    shared = EpochSampling(MLPProblem(spec=spec, data=data))
    rng, rng_again, other = (np.random.default_rng(s) for s in (3, 3, 4))
    expected, drawn = [], []
    for _ in range(4):
        expected.append(alone.draw(rng, 4))
        drawn.append(shared.draw(rng_again, 4))
        shared.draw(other, 5)
    assert np.array_equal(np.concatenate(drawn), np.concatenate(expected)), \
        "draws from a second generator leave the first one's sequence unchanged"


class _RecordDraws:
    """Delegates to a problem and records each batch under the generator it came from."""

    def __init__(self, problem):
        self._problem, self.draws = problem, {}

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def draw(self, rng, n):
        batch = self._problem.draw(rng, n)
        self.draws.setdefault(rng, []).append(np.asarray(batch).tolist())
        return batch


@pytest.mark.parametrize("epoch_sampling", [False, True])
def test_away_steps_leave_the_data_stream_alone(epoch_sampling):
    # every iteration draws its data batch first, so the first generator recorded
    # is the data stream; the away steps' fresh batches come from a stream of their own
    spec = MLPSpec(layer_sizes=(3, 4, 1), fw_layers=(0,), deltas=(1.0,))
    rng = np.random.default_rng(5)
    data = Dataset(features=rng.standard_normal((7, 3)), targets=rng.standard_normal((7, 1)))
    layout = ParamLayout(spec)
    x0, y0 = layout.pack(init_params(spec, 0))
    data_draws = []
    for away in (False, True):
        problem = MLPProblem(spec=spec, data=data)
        problem = _RecordDraws(EpochSampling(problem) if epoch_sampling else problem)
        config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(10.0,) * 4, iterations=20, seed=3,
                                 batch_schedule=BatchSchedule.constant(3),
                                 alternative_directions=away)
        run(problem, layout.balls(), y0, x0, config)
        streams = list(problem.draws.values())
        assert len(streams) == 1 + away
        data_draws.append(streams[0])
    assert len(data_draws[0]) == 20 and data_draws[1] == data_draws[0]


# ---------------------------------------------------------------- synth


def synth_args(tmp_path, *extra):
    return [
        "synth", "--layer-sizes", "4,3,1", "--synth-m", "2", "--snr", "5",
        "--train-size", "30", "--val-size", "8", "--test-size", "9",
        "--seed", "21", "--out-prefix", str(tmp_path / "d"), *extra,
    ]


def test_synth_writes_splits_and_teacher(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    capsys.readouterr()
    from fwsd.sparse_net import load_dataset_bin

    train = load_dataset_bin(tmp_path / "d.train.bin")
    assert train.features.shape == (30, 4)
    assert load_dataset_bin(tmp_path / "d.val.bin").features.shape == (8, 4)
    assert load_dataset_bin(tmp_path / "d.test.bin").features.shape == (9, 4)
    spec, teacher, meta = load_net_checkpoint(tmp_path / "d.teacher.ckpt")
    assert meta["m"] == 2
    assert np.all(np.count_nonzero(teacher[0].w, axis=1) == 2)
    assert spec.layer_sizes == (4, 3, 1)


def test_synth_is_deterministic(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    blob = (tmp_path / "d.train.bin").read_bytes()
    assert run_cli(*synth_args(tmp_path)) == 0
    capsys.readouterr()
    assert (tmp_path / "d.train.bin").read_bytes() == blob


def test_synth_csv_format(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path, "--dataset-format", "csv")) == 0
    capsys.readouterr()
    header = (tmp_path / "d.train.csv").read_text().splitlines()[0]
    assert header == "x0,x1,x2,x3,y0"


# ---------------------------------------------------------------- threshold-eval


SPLIT_FLAGS = {"--dataset": "train", "--val-dataset": "val", "--test-dataset": "test"}


def dataset_train_args(tmp_path, *extra, splits=tuple(SPLIT_FLAGS)):
    """`train` on the `synth_args` files named by the flags in ``splits``."""
    files = [a for flag in splits for a in (flag, str(tmp_path / f"d.{SPLIT_FLAGS[flag]}.bin"))]
    return ["train", "--problem", "dataset", *files, "--layer-sizes", "4,3,1",
            "--fw-layers", "0", "--deltas", "2", "--iterations", "6", "--seed", "2",
            "--out-prefix", str(tmp_path / "n"), *extra]


def misfit_copy(tmp_path, split, kind):
    """A CSV copy of a `synth_args` split with a fifth feature or a second target column."""
    x, t = load_dataset_bin(tmp_path / f"d.{split}.bin")
    if kind == "features":
        x = np.hstack([x, x[:, :1]])
    else:
        t = np.hstack([t, t])
    path = tmp_path / f"{split}-{kind}.csv"
    save_dataset_csv(path, Dataset(x, t))
    return path


def test_threshold_eval_matches_report(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    assert run_cli(*dataset_train_args(tmp_path)) == 0
    capsys.readouterr()
    out = tmp_path / "table.csv"
    assert run_cli("threshold-eval", "--checkpoint", str(tmp_path / "n.ckpt"),
                   "--dataset", str(tmp_path / "d.test.bin"),
                   "--thetas", ",".join(f"{t:g}" for t in REPORT_THETAS),
                   "--out", str(out)) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,loss"
    report = read_report(tmp_path / "n.report.txt")
    assert report["eval_split"] == "test"
    assert [line.split(",") for line in lines[1:]] == [
        [f"{t:.17g}", report[f"threshold_{t:g}_loss"]] for t in REPORT_THETAS]
    assert lines[1].split(",")[1] == report["eval_loss"], "theta=100 is a no-op"


@pytest.mark.parametrize("splits, passes", [(tuple(SPLIT_FLAGS), 6),
                                            (("--dataset", "--val-dataset"), 5)],
                         ids=["val-and-test", "val-is-eval"])
def test_train_scores_each_distinct_network_once(tmp_path, capsys, monkeypatch, splits, passes):
    # five cuts on the eval split, the first (theta = 100) being the trained
    # network itself, plus the trained network on val when val is not the eval split
    assert run_cli(*synth_args(tmp_path)) == 0
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(fwsd.cli, "evaluate", counting)
    assert run_cli(*dataset_train_args(tmp_path, "--method", "sfw-if", splits=splits)) == 0
    capsys.readouterr()
    assert len(calls) == passes
    eval_split = read_report(tmp_path / "n.report.txt")["eval_split"]
    assert eval_split == ("test" if passes == 6 else "val")


@pytest.mark.parametrize("method", ["sfw", "sfw-if"])
def test_report_nnz_equals_the_output_iterates_trace_row(tmp_path, capsys, method):
    checked = 0
    for seed in range(4):
        assert run_cli(*net_args(tmp_path, "--method", method, "--layer-sizes", "5,4,3,1",
                                 "--fw-layers", "0,1", "--deltas", "2,1",
                                 "--seed", str(seed))) == 0
        capsys.readouterr()
        report = read_report(tmp_path / "n.report.txt")
        k = int(report["output_index"])
        if k == 0:  # the starting point has no trace row
            continue
        with open(tmp_path / "n.trace.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[k - 1]
        for name in ("nnz_layer_0", "nnz_layer_1"):
            assert report[name] == row[name], (seed, name)
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize("kind", ["features", "targets"])
@pytest.mark.parametrize("flag", list(SPLIT_FLAGS))
def test_train_checks_every_split_width_before_training(tmp_path, capsys, monkeypatch,
                                                        flag, kind):
    assert run_cli(*synth_args(tmp_path)) == 0
    capsys.readouterr()
    bad = misfit_copy(tmp_path, SPLIT_FLAGS[flag], kind)
    monkeypatch.setattr(fwsd.cli, "run", lambda *args: pytest.fail("training started"))
    code = run_cli(*dataset_train_args(tmp_path, flag, str(bad)))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: features ")


@pytest.mark.parametrize("kind", ["features", "targets"])
def test_threshold_eval_checks_dataset_widths(tmp_path, capsys, monkeypatch, kind):
    assert run_cli(*synth_args(tmp_path)) == 0
    assert run_cli(*dataset_train_args(tmp_path)) == 0
    capsys.readouterr()
    bad = misfit_copy(tmp_path, "test", kind)
    monkeypatch.setattr(fwsd.cli, "evaluate", lambda *args: pytest.fail("scored"))
    code = run_cli("threshold-eval", "--checkpoint", str(tmp_path / "n.ckpt"),
                   "--dataset", str(bad))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: features ")


def non_finite_copy(tmp_path, split, fmt, value):
    """A ``fmt`` copy of a `synth_args` split whose third row holds ``value``: a NaN
    among the features or an inf among the targets."""
    x, t = load_dataset_bin(tmp_path / f"d.{split}.bin")
    (x if value == "nan" else t)[2, 0] = float(value)
    path = tmp_path / f"{split}-{value}.{fmt}"
    (save_dataset_bin if fmt == "bin" else save_dataset_csv)(path, Dataset(x, t))
    return path


@pytest.mark.parametrize("fmt", ["bin", "csv"])
@pytest.mark.parametrize("flag", list(SPLIT_FLAGS))
def test_train_rejects_non_finite_dataset_values_before_training(tmp_path, capsys, monkeypatch,
                                                                 flag, fmt):
    assert run_cli(*synth_args(tmp_path)) == 0
    capsys.readouterr()
    monkeypatch.setattr(fwsd.cli, "run", lambda *args: pytest.fail("training started"))
    for value in ("nan", "inf"):
        bad = non_finite_copy(tmp_path, SPLIT_FLAGS[flag], fmt, value)
        files = sorted(tmp_path.iterdir())
        assert run_cli(*dataset_train_args(tmp_path, flag, str(bad))) == 2
        assert capsys.readouterr().err == f"error: {bad}: row 3 holds a non-finite value\n"
        assert sorted(tmp_path.iterdir()) == files, "nothing written"


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_grid_and_threshold_eval_reject_non_finite_dataset_values(tmp_path, capsys, monkeypatch,
                                                                  fmt):
    assert run_cli(*synth_args(tmp_path)) == 0
    assert run_cli(*dataset_train_args(tmp_path)) == 0
    capsys.readouterr()
    monkeypatch.setattr(fwsd.cli, "run", lambda *args: pytest.fail("training started"))
    monkeypatch.setattr(fwsd.cli, "evaluate", lambda *args: pytest.fail("scored"))
    for value in ("nan", "inf"):
        bad = non_finite_copy(tmp_path, "val", fmt, value)
        files = sorted(tmp_path.iterdir())
        grid = dataset_train_args(tmp_path, "--val-dataset", str(bad), "--grid-l-nabla", "1",
                                  "--grid-delta", "1")
        for argv in (["grid", *grid[1:]],
                     ["threshold-eval", "--checkpoint", str(tmp_path / "n.ckpt"),
                      "--dataset", str(bad), "--out", str(tmp_path / "table.csv")]):
            assert run_cli(*argv) == 2, argv[0]
            assert capsys.readouterr().err == f"error: {bad}: row 3 holds a non-finite value\n"
            assert sorted(tmp_path.iterdir()) == files, "nothing written"


def test_threshold_eval_rejects_a_quadratic_checkpoint(tmp_path, capsys):
    assert run_cli(*quad_args(tmp_path)) == 0
    capsys.readouterr()
    files = sorted(tmp_path.iterdir())
    code = run_cli("threshold-eval", "--checkpoint", str(tmp_path / "q.ckpt"),
                   "--dataset", str(tmp_path / "absent.bin"), "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'q.ckpt'}: expected a network "
                                       "checkpoint, found kind 'quadratic'\n")
    assert sorted(tmp_path.iterdir()) == files, "nothing written"


def test_threshold_eval_shape_mismatch_is_runtime_error(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    assert run_cli(
        "train", "--problem", "dataset", "--dataset", str(tmp_path / "d.train.bin"),
        "--layer-sizes", "4,3,1", "--fw-layers", "0", "--deltas", "2",
        "--iterations", "4", "--out-prefix", str(tmp_path / "n"),
    ) == 0
    wide = tmp_path / "wide.csv"
    wide.write_text("x0,x1,x2,x3,x4,y0\n" + "0,0,0,0,0,1\n")
    code = run_cli("threshold-eval", "--checkpoint", str(tmp_path / "n.ckpt"),
                   "--dataset", str(wide))
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("thetas", ["150", "nan"])
def test_threshold_eval_rejects_thetas_out_of_range_before_reading(tmp_path, capsys, thetas):
    # a configuration error (exit 1), raised before the missing files are looked at
    code = run_cli("threshold-eval", "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--dataset", str(tmp_path / "absent.bin"), "--thetas", f"50,{thetas}")
    assert code == 1
    assert "within [0, 100]" in capsys.readouterr().err


@pytest.mark.parametrize("thetas, message", [("50,x", "comma-separated numbers"),
                                             (",", "at least one value")],
                         ids=["not-a-number", "none"])
def test_threshold_eval_rejects_malformed_thetas_before_reading(tmp_path, capsys, thetas,
                                                                message):
    code = run_cli("threshold-eval", "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--dataset", str(tmp_path / "absent.bin"), "--thetas", thetas,
                   "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert capsys.readouterr().err == f"error: --thetas expects {message}\n"
    assert not list(tmp_path.iterdir()), "nothing written"


# ---------------------------------------------------------------- gap-trace


def test_gap_trace_window(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("k,objective_estimate,gap_hat\n0,9,0\n1,9,2\n")
    out = tmp_path / "s.csv"
    assert run_cli("gap-trace", "--trace", str(trace), "--window", "2",
                   "--out", str(out)) == 0
    capsys.readouterr()
    assert out.read_text().splitlines() == ["k,gap_hat,gap_hat_smoothed",
                                            "0,0,0", "1,2,1"]


def test_gap_trace_window_one_is_identity(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("k,gap_hat\n0,3\n1,1\n2,4\n")
    assert run_cli("gap-trace", "--trace", str(trace), "--window", "1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["0,3,3", "1,1,1", "2,4,4"]


def test_gap_trace_error_codes(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("nope\n")
    assert run_cli("gap-trace", "--trace", str(trace), "--window", "0") == 1
    assert run_cli("gap-trace", "--trace", str(trace), "--window", "2") == 2
    capsys.readouterr()


# ---------------------------------------------------------------- grid


def test_grid_selects_by_validation_loss(tmp_path, capsys):
    args = [
        "grid", "--problem", "quadratic", "--quad-blocks", "3", "--quad-y", "2",
        "--deltas", "1", "--iterations", "30", "--seed", "4",
        "--grid-l-nabla", "1,4", "--grid-delta", "0.5,2",
        "--out-prefix", str(tmp_path / "g"),
    ]
    assert run_cli(*args) == 0
    capsys.readouterr()
    report = read_report(tmp_path / "g.grid.txt")
    cells = [k for k in report if k.startswith("grid.")]
    assert len(cells) == 4
    assert {"selected_l_nabla", "selected_delta", "selected_val_loss"} <= set(report)
    best = min(cells, key=lambda k: float(report[k]))
    assert f"l_nabla_{report['selected_l_nabla']}" in best
    assert f"delta_{report['selected_delta']}" in best


def test_grid_requires_grids(tmp_path, capsys):
    assert run_cli("grid", "--problem", "quadratic", "--quad-blocks", "2",
                   "--deltas", "1", "--iterations", "4",
                   "--out-prefix", str(tmp_path / "g")) == 1
    capsys.readouterr()


def test_grid_rejects_bad_grid_values_as_config_errors(tmp_path, capsys):
    base = ["grid", "--problem", "quadratic", "--quad-blocks", "2", "--deltas", "1",
            "--iterations", "4", "--out-prefix", str(tmp_path / "g")]
    for bad in ("-1", "0", "1,0", "nan", "inf", "2,1,2"):
        assert run_cli(*base, "--grid-l-nabla", bad, "--grid-delta", "1") == 1
        assert "grid_l_nabla" in capsys.readouterr().err
        assert run_cli(*base, "--grid-l-nabla", "1", "--grid-delta", bad) == 1
        assert "grid_delta" in capsys.readouterr().err
    assert not list(tmp_path.iterdir()), "no cell ran"


GRID_BASES = {
    "quadratic": ["--problem", "quadratic", "--quad-blocks", "3", "--quad-y", "2",
                  "--deltas", "1", "--quad-sigma", "0.3", "--iterations", "6"],
    "synthetic-net": ["--problem", "synthetic-net", "--layer-sizes", "4,3,1", "--fw-layers", "0",
                      "--deltas", "1", "--synth-m", "2", "--train-size", "30", "--val-size", "8",
                      "--test-size", "9", "--iterations", "6"],
}


@pytest.mark.parametrize("problem, name, calls", [("quadratic", "make_quadratic", 1),
                                                  ("synthetic-net", "generate_synthetic", 1),
                                                  ("dataset", "load_dataset_bin", 3)],
                         ids=["quadratic", "synthetic-net", "dataset"])
def test_grid_builds_its_inputs_once(tmp_path, capsys, monkeypatch, problem, name, calls):
    # every cell trains and validates on the command's own seed, data and instance
    if problem == "dataset":
        assert run_cli(*synth_args(tmp_path)) == 0
    base = GRID_BASES.get(problem) or dataset_train_args(tmp_path)[1:]
    made, seeds = [], []
    build = getattr(fwsd.cli, name)

    def counted(*args, **kwargs):
        made.append((args, kwargs))
        return build(*args, **kwargs)

    def seeded(*args):  # run(problem, balls, y0, x0_blocks, config)
        seeds.append(args[-1].seed)
        return run(*args)

    monkeypatch.setattr(fwsd.cli, name, counted)
    monkeypatch.setattr(fwsd.cli, "run", seeded)
    assert run_cli("grid", *base, "--seed", "7", "--l-nabla", "3", "--grid-l-nabla", "1,2",
                   "--grid-delta", "0.5,2", "--out-prefix", str(tmp_path / "g")) == 0
    capsys.readouterr()
    assert len(made) == calls
    assert seeds == [7] * 4
    if problem == "quadratic":  # drawn with the command's l_nabla, not a cell's
        assert made[0][0][0] == 7 and made[0][1]["l_nabla"] == 3.0
    if problem == "synthetic-net":
        assert made[0][0][0].seed == 7


def test_one_cell_quadratic_grid_reports_the_train_run(tmp_path, capsys):
    args = ["--problem", "quadratic", "--quad-blocks", "3,2", "--quad-y", "2",
            "--quad-sigma", "0.3", "--method", "sfw-if", "--iterations", "20", "--seed", "5",
            "--l-nabla", "2", "--deltas", "0.5,0.5"]
    assert run_cli("train", *args, "--out-prefix", str(tmp_path / "t")) == 0
    assert run_cli("grid", *args, "--grid-l-nabla", "2", "--grid-delta", "0.5",
                   "--out-prefix", str(tmp_path / "g")) == 0
    capsys.readouterr()
    report = read_report(tmp_path / "g.grid.txt")
    assert report["grid.l_nabla_2.delta_0.5.val_loss"] == read_report(
        tmp_path / "t.report.txt")["final_objective_exact"]


@pytest.mark.parametrize("problem", ["synthetic-net", "dataset"])
def test_grid_cells_need_not_fit_the_command_deltas(tmp_path, capsys, problem):
    # every cell replaces deltas, so the default deltas = 1,1 may not fit one constrained layer
    if problem == "dataset":
        assert run_cli(*synth_args(tmp_path)) == 0
    base = GRID_BASES.get(problem) or dataset_train_args(tmp_path)[1:]
    assert run_cli("grid", *base, "--fw-layers", "0", "--deltas", "1,1", "--grid-l-nabla", "1",
                   "--grid-delta", "1", "--out-prefix", str(tmp_path / "g")) == 0
    capsys.readouterr()
    assert "grid.l_nabla_1.delta_1.val_loss" in read_report(tmp_path / "g.grid.txt")


UNCONSTRAINED_GRIDS = {
    "sgd-quadratic": ["--problem", "quadratic", "--method", "sgd", "--quad-blocks", "3",
                      "--grid-l-nabla", "1,2", "--iterations", "30"],
    "sgd-synthetic-net": ["--problem", "synthetic-net", "--method", "sgd", "--layer-sizes",
                          "4,3,1", "--synth-m", "2", "--train-size", "30", "--val-size", "8",
                          "--test-size", "9", "--iterations", "6", "--grid-l-nabla", "1,2"],
    "block-free-quadratic": ["--problem", "quadratic", "--quad-blocks", "", "--quad-y", "3",
                             "--deltas", "", "--grid-l-nabla", "1,2", "--iterations", "30"],
}


def _refuse_to_make_data(monkeypatch):
    def made(*args, **kwargs):
        raise AssertionError("data made")

    monkeypatch.setattr(fwsd.cli, "make_quadratic", made)
    monkeypatch.setattr(fwsd.cli, "generate_synthetic", made)


@pytest.mark.parametrize("grid, deltas", [("sgd-quadratic", "0.5,1,2"),
                                          ("sgd-synthetic-net", "0.5,1,2"),
                                          ("block-free-quadratic", "0.5,1")],
                         ids=list(UNCONSTRAINED_GRIDS))
def test_grid_that_constrains_nothing_takes_one_delta(tmp_path, capsys, monkeypatch, grid,
                                                      deltas):
    # no cell reads a radius, so every delta of an l_nabla row would be the same run
    _refuse_to_make_data(monkeypatch)
    assert run_cli("grid", *UNCONSTRAINED_GRIDS[grid], "--grid-delta", deltas,
                   "--out-prefix", str(tmp_path / "g")) == 1
    assert "grid_delta" in capsys.readouterr().err
    assert not list(tmp_path.iterdir()), "no cell ran"


@pytest.mark.parametrize("grid, losses", [
    ("sgd-quadratic", ("0.011427610160711558", "0.025117421736215013")),
    ("sgd-synthetic-net", ("4.9588230695105278", "0.1024866754723343")),
    ("block-free-quadratic", ("0.00102473587170592", "0.015145318379947875"))],
    ids=list(UNCONSTRAINED_GRIDS))
def test_one_delta_grid_that_constrains_nothing_keeps_its_losses(tmp_path, capsys, grid,
                                                                 losses):
    # the losses each cell of the row reported when every grid_delta value trained a cell
    assert run_cli("grid", *UNCONSTRAINED_GRIDS[grid], "--grid-delta", "0.5",
                   "--out-prefix", str(tmp_path / "g")) == 0
    capsys.readouterr()
    report = read_report(tmp_path / "g.grid.txt")
    assert [report[f"grid.l_nabla_{ln}.delta_0.5.val_loss"] for ln in (1, 2)] == list(losses)
    assert len([key for key in report if key.startswith("grid.")]) == 2


def test_dense_net_grid_with_one_delta_runs(tmp_path, capsys):
    assert run_cli("grid", *GRID_BASES["synthetic-net"], "--fw-layers=", "--deltas=",
                   "--grid-l-nabla", "1,2", "--grid-delta", "1",
                   "--out-prefix", str(tmp_path / "g")) == 0
    capsys.readouterr()
    report = read_report(tmp_path / "g.grid.txt")
    assert [key for key in report if key.startswith("grid.")] == [
        "grid.l_nabla_1.delta_1.val_loss", "grid.l_nabla_2.delta_1.val_loss"]


@pytest.mark.parametrize("command", ["train", "grid"])
def test_quadratic_without_a_variable_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    _refuse_to_make_data(monkeypatch)
    grid = ("--grid-l-nabla", "1", "--grid-delta", "1") if command == "grid" else ()
    assert run_cli(command, "--problem", "quadratic", "--quad-blocks", "", "--quad-y", "0",
                   "--deltas", "", "--iterations", "4", *grid,
                   "--out-prefix", str(tmp_path / "q")) == 1
    err = capsys.readouterr().err
    assert "quad_blocks" in err and "quad_y" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("blocks", [(), ("--quad-blocks", "3")], ids=["default", "one-block"])
def test_sgd_quadratic_ignores_deltas(tmp_path, capsys, blocks):
    # the default deltas = 1,1 need not fit quad_blocks: sgd gives no block a radius
    assert run_cli("train", "--problem", "quadratic", "--method", "sgd", *blocks,
                   "--iterations", "4", "--out-prefix", str(tmp_path / "s")) == 0
    capsys.readouterr()
    assert read_report(tmp_path / "s.report.txt")["config.deltas"] == "1,1"


_ONE_LAYER_NET = ("--problem", "synthetic-net", "--fw-layers", "0", "--layer-sizes", "4,3,1",
                  "--synth-m", "2", "--train-size", "30", "--val-size", "8", "--test-size", "9")


@pytest.mark.parametrize("args, code", [
    ((*_ONE_LAYER_NET, "--method", "sgd"), 0),
    ((*_ONE_LAYER_NET, "--method", "sfw"), 1),
    (("--problem", "quadratic", "--method", "sfw", "--quad-blocks", "", "--quad-y", "3"), 0),
    (("--problem", "quadratic", "--method", "sfw", "--quad-blocks", "3"), 1),
], ids=["sgd-net", "sfw-net", "block-free-quadratic", "one-block-quadratic"])
def test_run_that_constrains_nothing_ignores_deltas(tmp_path, capsys, args, code):
    # the default deltas = 1,1 give two radii where one or none is taken: a run that
    # constrains a block checks them, and one that constrains nothing reads none
    assert run_cli("train", *args, "--iterations", "6", "--out-prefix", str(tmp_path / "s")) == code
    if code:
        assert "deltas" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        return
    capsys.readouterr()
    report = read_report(tmp_path / "s.report.txt")
    assert report["config.deltas"] == "1,1"
    if "synthetic-net" in args:
        assert report["nnz_layer_0"] == "100"
        spec, _, _ = load_net_checkpoint(tmp_path / "s.ckpt")
        assert (spec.fw_layers, spec.deltas) == ((0,), (1.0,))


def test_non_finite_values_are_config_errors(tmp_path, capsys):
    base = ["train", "--problem", "quadratic", "--quad-blocks", "2,2", "--deltas", "1,1",
            "--iterations", "4", "--out-prefix", str(tmp_path / "q")]
    cases = [("--l-nabla", "nan"), ("--l-nabla", "inf"), ("--deltas", "nan,1"),
             ("--deltas", "1,inf"), ("--snr", "nan"), ("--quad-sigma", "nan"),
             ("--quad-sigma", "inf")]
    for flag, bad in cases:
        assert run_cli(*base, f"{flag}={bad}") == 1, (flag, bad)
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not list(tmp_path.iterdir()), "nothing ran"
    # an infinite snr means noiseless targets
    assert run_cli("train", "--snr", "inf", "--iterations", "2", "--train-size", "20",
                   "--val-size", "5", "--test-size", "5",
                   "--out-prefix", str(tmp_path / "n")) == 0
    capsys.readouterr()


def test_out_of_range_values_exit_1_and_write_nothing(tmp_path, capsys):
    # each case breaks one rule, of _validate_config, MLPSpec, SynthSpec or the command
    # itself, in a base that runs; every command that reads the rule exits 1 and writes no file
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir(), out.mkdir()
    assert run_cli(*synth_args(data)) == 0
    net = ["--layer-sizes", "4,3,1", "--fw-layers", "0,1", "--deltas", "1,1", "--synth-m", "2",
           "--train-size", "30", "--val-size", "8", "--test-size", "9", "--iterations", "4"]
    bases = {
        "train-quadratic": ["train", "--problem", "quadratic", "--quad-blocks", "2,2",
                            "--deltas", "1,1", "--iterations", "4"],
        "train-synthetic-net": ["train", "--problem", "synthetic-net", *net],
        "train-dataset": ["train", "--problem", "dataset", "--dataset", str(data / "d.train.bin"),
                          "--val-dataset", str(data / "d.val.bin"), *net],
        "synth": ["synth", *net],
        "grid": ["grid", "--problem", "synthetic-net", *net, "--grid-l-nabla", "1",
                 "--grid-delta", "1"],
    }
    every = list(bases)
    networks = ["train-synthetic-net", "train-dataset", "grid"]
    teachers = ["train-synthetic-net", "synth", "grid"]
    trainers = [command for command in every if command != "synth"]
    cases = [(every, (f"--{key.replace('_', '-')}={bad}",), key) for key, bad in (
        ("iterations", "-1"), ("batch_size", "0"), ("l_nabla", "0"), ("smoothing_window", "0"),
        ("layer_sizes", "4"), ("layer_sizes", "4,0,1"), ("deltas", "1,-1"), ("deltas", "1,0"),
        ("snr", "0"), ("snr", "-1"), ("synth_m", "0"), ("train_size", "1"), ("val_size", "1"),
        ("test_size", "1"), ("quad_blocks", "2,0"), ("quad_y", "-1"), ("quad_sigma", "-1"),
        ("grid_l_nabla", "0"), ("grid_delta", "-1"), ("method", "adam"), ("seed", "x"))]
    cases += [
        (networks, ("--fw-layers=1,0",), "fw_layers"),
        (networks, ("--fw-layers=0,2",), "fw_layers"),
        # the teacher's in-degree must fit layer 0's fan-in of 4, and then layer 1's of 3
        (teachers, ("--synth-m=5",), "in-degree m"),
        (teachers, ("--layer-sizes=4,3,3,1", "--fw-layers=0", "--deltas=1", "--synth-m=4"),
         "in-degree m"),
        (every, (f"--config={tmp_path / 'absent.cfg'}",), "cannot read config file: "),
        (trainers, ("--iterations=0",), "a positive iteration budget is required"),
        (["train-synthetic-net", "grid"], ("--loss=softmax-ce",), "use loss = mse"),
        (["train-dataset"], ("--dataset=",), "problem = dataset requires a dataset path"),
        (["train-quadratic"], ("--deltas=1",), "quadratic problems need one delta per block"),
        (["train-quadratic"], ("--epoch-sampling=true",), "epoch_sampling needs a dataset"),
        (["grid"], ("--fw-layers=", "--deltas=", "--grid-delta=1,2"), "grid_delta"),
        (["grid"], ("--problem=dataset", f"--dataset={data / 'd.train.bin'}"),
         "grid selection on datasets needs val_dataset"),
    ]
    for commands, args, word in cases:
        for command in commands:
            code = run_cli(*bases[command], *args, "--out-prefix", str(out / "r"))
            assert code == 1, (command, args, code)
            assert word in capsys.readouterr().err, (command, args)
    assert not list(out.iterdir()), "nothing ran"
    for command, base in bases.items():  # the bases themselves run
        assert run_cli(*base, "--out-prefix", str(tmp_path / command)) == 0, command
    capsys.readouterr()


# ---------------------------------------------------------------- exit codes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow the test provokes
def test_diverged_step_names_block_step_and_iteration(tmp_path, capsys):
    # with l_nabla near zero the steps are huge, relu activations overflow,
    # and the away step's fresh gradient is the first non-finite value
    code = run_cli("train", "--problem", "synthetic-net", "--method", "sfw-if",
                   "--activation", "relu", "--l-nabla", "1e-12", "--iterations", "200",
                   "--out-prefix", str(tmp_path / "d"))
    err = capsys.readouterr().err
    assert code == 2
    assert ("error: g_check contains non-finite entries (block 0, in alt_step) "
            "at iteration 2\n") in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow the test provokes
@pytest.mark.parametrize("iterations", ["1", "3"])
def test_overflowing_descent_step_fails_in_its_own_iteration(tmp_path, capsys, iterations):
    # ||h|| / (2 l_nabla) overflows at iteration 0; a one-iteration run would end with it
    code = run_cli("train", "--problem", "synthetic-net", "--method", "sgd",
                   "--l-nabla", "1e-320", "--iterations", iterations, "--layer-sizes", "4,3,1",
                   "--synth-m", "2", "--train-size", "20", "--val-size", "5",
                   "--test-size", "5", "--out-prefix", str(tmp_path / "s"))
    assert code == 2
    assert capsys.readouterr().err == ("error: y contains non-finite entries (in sd_step) "
                                       "at iteration 0\n")
    assert not list(tmp_path.iterdir()), "nothing written"


def test_usage_errors_exit_one(capsys):
    assert run_cli("train", "--no-such-flag", "1") == 1
    assert run_cli("no-such-command") == 1
    assert run_cli("threshold-eval") == 1, "missing required flags"
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "train" in capsys.readouterr().out


def test_missing_dataset_is_config_error(tmp_path, capsys):
    code = run_cli("train", "--problem", "dataset",
                   "--dataset", str(tmp_path / "missing.bin"),
                   "--layer-sizes", "4,3,1", "--fw-layers", "0", "--deltas", "1",
                   "--iterations", "2", "--out-prefix", str(tmp_path / "x"))
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("command, what", [("threshold-eval", "checkpoint"),
                                           ("gap-trace", "trace")],
                         ids=["threshold-eval", "gap-trace"])
def test_missing_input_file_is_config_error(tmp_path, capsys, command, what):
    assert run_cli(*synth_args(tmp_path)) == 0
    capsys.readouterr()
    files = sorted(tmp_path.iterdir())
    absent = tmp_path / "absent"
    dataset = ("--dataset", str(tmp_path / "d.test.bin")) if command == "threshold-eval" else ()
    code = run_cli(command, f"--{what}", str(absent), *dataset, "--out", str(tmp_path / "out.csv"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read {what}: ") and str(absent) in err
    assert sorted(tmp_path.iterdir()) == files, "nothing written"


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    code = run_cli(*quad_args(tmp_path, "--out-prefix",
                              str(tmp_path / "no" / "such" / "dir" / "q")))
    capsys.readouterr()
    assert code == 2


def test_main_calls_in_one_process_match_separate_processes(tmp_path, capsys):
    # `main` parses with one parser per process; no flag of one call reaches the next
    assert build_parser() is build_parser()
    calls = [net_args(tmp_path / "a", "--method", "sfw-if", "--batch-size", "8"),
             ["train", "--no-such-flag", "1"],
             net_args(tmp_path / "b")]
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
    codes = [run_cli(*argv) for argv in calls]
    capsys.readouterr()
    assert codes == [0, 1, 0]
    artifacts = sorted(p for p in tmp_path.rglob("n.*") if p.suffix != ".bin")
    together = {p: p.read_bytes() for p in artifacts}
    for p in artifacts:
        p.unlink()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv in calls:
        subprocess.run([sys.executable, "-m", "fwsd", *argv], env=env, capture_output=True,
                       timeout=120)
    assert {p: p.read_bytes() for p in artifacts} == together
    assert {p.parent.name for p in artifacts} == {"a", "b"}
