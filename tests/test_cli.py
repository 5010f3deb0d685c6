import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qpolar import cli
from qpolar.channel import bec, channel_to_dict
from qpolar.cli import main, render_json
from qpolar.codec import construct, simulate
from qpolar.gf import arikan_kernel, field_make
from qpolar.kernsearch import FixedKernel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- rendering


def test_render_json_is_deterministic_and_roundtrips():
    doc = {"a": 0.1, "b": [1, 2.5, True, None, "x"], "c": {"d": 0.375}, "e": []}
    text = render_json(doc)
    assert text == render_json(doc)
    back = json.loads(text)
    assert back["a"] == 0.1 and back["c"]["d"] == 0.375
    assert '"d": 0.375' in text  # dyadic floats print short
    assert render_json(np.float64(0.5)) == "0.5"
    assert render_json(np.bool_(True)) == "true"
    with pytest.raises(TypeError):
        render_json(object())
    for bad in (float("nan"), np.float64("inf"), {"theta": [-math.inf]}):
        with pytest.raises(ValueError, match="non-finite"):
            render_json(bad)


# ---- basic subcommands


def test_params_bec(capsys):
    code, out, _ = run_cli(capsys, "params", "--bec", "0.5", "--holder")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["H"] == 0.5
    assert doc["holder"]["ok"]


def test_transform_single_child(capsys):
    code, out, _ = run_cli(capsys, "transform", "--bec", "0.5", "--arikan", "--index", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["H"] == 0.25


def test_transform_all_children(capsys):
    code, out, _ = run_cli(capsys, "transform", "--bec", "0.5", "--arikan")
    doc = json.loads(out)
    assert code == 0
    hs = [c["params"]["H"] for c in doc["children"]]
    assert hs == [0.75, 0.25]
    assert doc["parent"]["H"] == 0.5


def test_kernel_weights_and_certify(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--arikan")
    assert code == 0
    doc = json.loads(out)
    assert [r["min_weight"] for r in doc["positions"]] == [1, 2]
    code, out, _ = run_cli(capsys, "kernel", "--arikan", "--certify", "0.1", "0.1")
    assert code == 0
    assert json.loads(out)["pass"]


def test_kernel_search_emits_loadable_kernel(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "kernel", "--search", "--bec", "0.3", "--ell", "2", "--budget", "50",
        "--seed", "5",
    )
    assert code == 0
    doc = json.loads(out)
    kfile = tmp_path / "kern.json"
    kfile.write_text(out)
    code2, out2, _ = run_cli(
        capsys, "transform", "--bec", "0.5", "--kernel", str(kfile), "--index", "1"
    )
    assert code2 == 0
    assert doc["ell"] == 2


# ---- codec pipeline through files


@pytest.fixture()
def spec_file(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--bec", "0.5", "--arikan", "--ell", "2", "--depth", "3",
        "--pi", "0.2", "--seed", "42",
    )
    assert code == 0
    path = tmp_path / "spec.json"
    path.write_text(out)
    return path


def test_construct_with_nan_pi_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "construct", "--bec", "0.5", "--arikan", "--ell", "2", "--depth", "2",
        "--pi", "nan", "--seed", "1", "--summary",
    )
    assert code == 1 and out == ""
    assert err == "error: pi must be finite, got nan\n"


@pytest.mark.parametrize(
    "point, message", [(["nan", "0.3"], "z must be finite, got nan"),
                       (["0.3", "inf"], "s must be finite, got inf")],
    ids=["z-nan", "s-inf"],
)
def test_kernel_certify_non_finite_point_exits_one(capsys, point, message):
    code, out, err = run_cli(capsys, "kernel", "--certify", *point, "--arikan")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "point, message", [(["1e300", "0.3"], "z must lie in [0, 1], got 1e+300"),
                       (["-0.5", "0.3"], "z must lie in [0, 1], got -0.5"),
                       (["0.3", "1.5"], "s must lie in [0, 1], got 1.5")],
    ids=["z-huge", "z-negative", "s-above-one"],
)
def test_kernel_certify_point_outside_the_unit_interval_exits_one(capsys, point, message):
    code, out, err = run_cli(capsys, "kernel", "--certify", *point, "--arikan")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_construct_summary(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--bec", "0.5", "--arikan", "--ell", "2", "--depth", "3",
        "--pi", "0.2", "--seed", "42", "--summary",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rate"] == 0.375
    assert doc["union_bound"] == pytest.approx(0.158203125)
    assert doc["shaping_leaves"] == 0


def test_encode_decode_roundtrip(capsys, spec_file):
    code, out, _ = run_cli(
        capsys, "encode", "--spec", str(spec_file), "--message", "1,0,1", "--seed", "7"
    )
    assert code == 0
    cw = json.loads(out)["codeword"]
    assert len(cw) == 8
    code, out, _ = run_cli(
        capsys, "decode", "--spec", str(spec_file), "--received", ",".join(map(str, cw)),
        "--bec", "0.5", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["message"] == [1, 0, 1]
    assert doc["du_activations"] == 12
    assert not doc["failed"]


def test_decode_posterior_file(capsys, spec_file, tmp_path):
    code, out, _ = run_cli(
        capsys, "encode", "--spec", str(spec_file), "--message", "0,1,1", "--seed", "3"
    )
    cw = json.loads(out)["codeword"]
    pfile = tmp_path / "post.json"
    pfile.write_text(json.dumps([[1.0, 0.0] if s == 0 else [0.0, 1.0] for s in cw]))
    code, out, _ = run_cli(
        capsys, "decode", "--spec", str(spec_file), "--posteriors", str(pfile), "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["message"] == [0, 1, 1]


def test_simulate_matches_library_and_jobs_invariant(capsys, spec_file):
    code, out1, _ = run_cli(
        capsys, "simulate", "--spec", str(spec_file), "--bec", "0.5", "--trials", "60",
        "--seed", "11",
    )
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "simulate", "--spec", str(spec_file), "--bec", "0.5", "--trials", "60",
        "--seed", "11", "--jobs", "3",
    )
    assert code == 0
    assert out1 == out2  # byte-identical regardless of sharding
    lib = simulate(
        construct(bec(0.5), 2, 3, 0.2, FixedKernel(arikan_kernel(field_make(2))), seed=42),
        bec(0.5),
        60,
        11,
    )
    doc = json.loads(out1)
    assert doc["bler"] == lib["bler"]
    assert doc["union_bound"] == lib["union_bound"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_without_trials_exits_one(capsys, spec_file, jobs):
    code, out, err = run_cli(
        capsys, "simulate", "--spec", str(spec_file), "--bec", "0.5", "--trials", "0",
        "--seed", "1", "--jobs", jobs,
    )
    assert code == 1 and out == ""
    assert err == "error: need at least one trial\n"


def test_simulate_where_every_block_fails_exits_zero(capsys, spec_file):
    code, out, _ = run_cli(
        capsys, "simulate", "--spec", str(spec_file), "--bec", "0.99", "--trials", "1",
        "--seed", "0",
    )
    assert code == 0
    assert '"mdp_ratio": 0' in out
    assert json.loads(out)["bler"] == 1


@pytest.mark.parametrize(
    "content", ['{"a": 1}', '[{"a": 1}, [0.5, 0.5]]'], ids=["object", "row-object"]
)
def test_decode_posteriors_not_numbers_exits_one(capsys, spec_file, tmp_path, content):
    pfile = tmp_path / "post.json"
    pfile.write_text(content)
    code, out, err = run_cli(
        capsys, "decode", "--spec", str(spec_file), "--posteriors", str(pfile), "--seed", "3"
    )
    assert code == 1 and out == ""
    assert err == "error: a posteriors file must hold an (N, q) array of numbers\n"


# ---- process

def test_process_stats(capsys):
    code, out1, _ = run_cli(
        capsys, "process", "--bec", "0.5", "--arikan", "--depth", "6", "--paths", "200",
        "--seed", "2",
    )
    assert code == 0
    doc = json.loads(out1)
    assert doc["frac_low"] + doc["frac_high"] + doc["frac_middle"] == pytest.approx(1.0)
    assert "final_entropies" not in doc
    code, out2, _ = run_cli(
        capsys, "process", "--bec", "0.5", "--arikan", "--depth", "6", "--paths", "200",
        "--seed", "2",
    )
    assert out1 == out2


def test_process_without_paths_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "process", "--bec", "0.5", "--arikan", "--depth", "2", "--paths", "0",
        "--seed", "1",
    )
    assert code == 1 and out == ""
    assert err == "error: need at least one path, got 0\n"


@pytest.mark.parametrize(
    "extra, message",
    [(["--depth", "-1"], "depth must be at least 0, got -1"),
     (["--depth", "2", "--quantize", "-5"], "quantize resolution must be at least 1, got -5"),
     (["--depth", "2", "--quantize", str(2**64)],
      f"quantize resolution must be at most 2^53, got {2**64}"),
     (["--depth", "2", "--quantize", str(2**63 - 1)],
      f"quantize resolution must be at most 2^53, got {2**63 - 1}"),
     (["--depth", "2", "--low", "0.9", "--high", "0.1"],
      "thresholds must satisfy 0 <= low < high <= 1, got 0.9 and 0.1"),
     (["--depth", "-1", "--trace"], "depth must be at least 0, got -1")],
    ids=["depth-negative", "quantize-negative", "quantize-2^64", "quantize-2^63-1",
         "thresholds-swapped", "trace-depth-negative"],
)
def test_process_bad_input_exits_one(capsys, extra, message):
    code, out, err = run_cli(
        capsys, "process", "--bec", "0.5", "--arikan", "--paths", "3", "--seed", "1", *extra
    )
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_process_trace_csv(capsys):
    code, out, _ = run_cli(
        capsys, "process", "--bec", "0.5", "--arikan", "--depth", "4", "--seed", "9",
        "--trace",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "depth,position,H,Zmad,Smax,output_size,exact"
    assert len(lines) == 6  # header + root + 4 steps
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "0.5" and first[-1] == "1"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]


# ---- verify battery

def test_verify_battery_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines)
    assert any("conservation" in line for line in lines)
    assert any("symmetrization-identities" in line for line in lines)


# ---- failure modes

def test_usage_errors_exit_one(capsys, spec_file):
    assert run_cli(capsys, "params")[0] == 1  # no channel
    assert run_cli(capsys, "transform", "--bec", "0.5")[0] == 1  # no kernel
    assert run_cli(capsys, "decode", "--spec", str(spec_file), "--seed", "1")[0] == 1
    assert run_cli(capsys, "encode", "--spec", "/does/not/exist", "--message", "1",
                   "--seed", "1")[0] == 1
    assert run_cli(capsys, "encode", "--spec", str(spec_file), "--message", "1,x,1",
                   "--seed", "1")[0] == 1
    code, _, err = run_cli(capsys, "construct", "--bec", "0.5", "--ell", "2")
    assert code == 1 and "error" in err


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: doc.update(n=2), "8 leaf_stats entries, not one per leaf"),
        (lambda doc: doc["kernels"].pop(), "6 kernels for the 7 expected"),
    ],
    ids=["n-edited", "kernel-deleted"],
)
def test_malformed_spec_exits_one(capsys, spec_file, edit, match):
    doc = json.loads(spec_file.read_text())
    edit(doc)
    spec_file.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "encode", "--spec", str(spec_file), "--message", "1,0,1", "--seed", "7"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: spec has ") and match in err


def _wrong_typed_kernel_path(doc):
    doc["kernels"][0]["path"] = [[1]]


def _wrong_typed_leaf_value(doc):
    doc["leaf_stats"][0]["H_w"] = None


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda doc: doc.update(n=None), "n"),
        (_wrong_typed_kernel_path, "kernels[0].path"),
        (_wrong_typed_leaf_value, "leaf_stats[0].H_w"),
        (lambda doc: doc.update(input_dist=[None, 0.5]), "input_dist"),
        (lambda doc: doc.update(input_dist="10"), "input_dist"),
        (lambda doc: doc["leaf_stats"][1].update(exact="no"), "leaf_stats[1].exact"),
    ],
    ids=["n-null", "kernel-path-nested", "H_w-null", "input-dist-entry-null",
         "input-dist-string", "exact-string"],
)
def test_wrong_typed_spec_field_exits_one(capsys, spec_file, edit, name):
    doc = json.loads(spec_file.read_text())
    edit(doc)
    spec_file.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "encode", "--spec", str(spec_file), "--message", "1,0,1", "--seed", "5"
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: spec field {name} has the wrong type")


def test_unknown_frozen_class_exits_one(capsys, spec_file):
    doc = json.loads(spec_file.read_text())
    key = sorted(doc["frozen_class"])[0]
    doc["frozen_class"][key] = "X"
    spec_file.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "encode", "--spec", str(spec_file), "--message", "1,0,1", "--seed", "5"
    )
    assert code == 1 and out == ""
    assert err.startswith(f'error: spec field frozen_class[{key}] must be "B" or "C"')


def test_two_channels_exit_one(capsys, spec_file):
    code, out, err = run_cli(
        capsys, "decode", "--spec", str(spec_file), "--received", "0,1,2,0,1,1,0,1",
        "--bec", "0.5", "--bsc", "0.1", "--seed", "7",
    )
    assert code == 1 and out == ""
    assert "not allowed with argument" in err
    code, _, err = run_cli(
        capsys, "kernel", "--search", "--bec", "0.3", "--zchan", "0.3", "--seed", "5"
    )
    assert code == 1 and "not allowed with argument" in err


def test_decode_out_of_range_symbol_exits_one(capsys, spec_file):
    code, out, err = run_cli(
        capsys, "decode", "--spec", str(spec_file), "--received", "0,1,2,0,1,5,0,1",
        "--bec", "0.5", "--seed", "7",
    )
    assert code == 1 and out == ""
    assert "output symbols must lie in 0..2" in err


def test_params_non_finite_channel_file_exits_one(capsys, tmp_path):
    cfile = tmp_path / "chan.json"
    cfile.write_text('{"p": 2, "transition": [[NaN, 0.5], [0.5, 0.5]]}')
    code, out, err = run_cli(capsys, "params", "--channel", str(cfile))
    assert code == 1 and out == ""
    assert "NaN or infinite" in err


@pytest.mark.parametrize(
    "edit, name",
    [({"p": None}, "p"), ({"output_size": None}, "output_size"), ({"m": 1.5}, "m"),
     ({"input_dist": {"x": 1}}, "input_dist")],
    ids=["p-null", "output-size-null", "m-fractional", "input-dist-object"],
)
def test_params_wrong_typed_channel_field_exits_one(capsys, tmp_path, edit, name):
    cfile = tmp_path / "chan.json"
    cfile.write_text(json.dumps(dict(channel_to_dict(bec(0.5)), **edit)))
    code, out, err = run_cli(capsys, "params", "--channel", str(cfile))
    assert code == 1 and out == ""
    assert err.startswith(f"error: channel field {name} has the wrong type")


@pytest.mark.parametrize(
    "field", [{"p": 1000000000000000003}, {"p": 3, "m": 100000000}], ids=["huge-p", "huge-m"]
)
def test_huge_field_in_a_channel_file_exits_one_at_once(capsys, tmp_path, field):
    # trial division of p, or p**m, would run for minutes before the size check
    cfile = tmp_path / "chan.json"
    cfile.write_text(json.dumps({**field, "transition": [[1.0], [1.0], [1.0]]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "params", "--channel", str(cfile))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "exceeds supported limit 65536" in err


@pytest.mark.parametrize(
    "edit, name",
    [({"p": None}, "p"), ({"p": 2.7}, "p"), ({"m": "x"}, "m")],
    ids=["p-null", "p-fractional", "m-string"],
)
def test_kernel_wrong_typed_field_exits_one(capsys, tmp_path, edit, name):
    kfile = tmp_path / "kernel.json"
    kfile.write_text(json.dumps(dict({"p": 2, "m": 1, "matrix": [[1, 0], [1, 1]]}, **edit)))
    code, out, err = run_cli(capsys, "kernel", "--kernel", str(kfile))
    assert code == 1 and out == ""
    assert err.startswith(f"error: kernel field {name} has the wrong type")


@pytest.mark.parametrize("command", ["construct", "process", "transform"])
@pytest.mark.parametrize("kernel_p, channel_p", [(3, 2), (2, 3)], ids=["gf3-kernel", "gf3-channel"])
def test_kernel_over_another_field_exits_one(capsys, tmp_path, command, kernel_p, channel_p):
    kfile, cfile = tmp_path / "kernel.json", tmp_path / "chan.json"
    kfile.write_text(json.dumps({"p": kernel_p, "m": 1, "matrix": [[1, 0], [1, 1]]}))
    trans = np.full((channel_p, 2), 0.5).tolist()
    cfile.write_text(json.dumps({"p": channel_p, "m": 1, "transition": trans}))
    extra = {
        "construct": ["--ell", "2", "--depth", "2", "--pi", "0.2", "--seed", "1"],
        "process": ["--depth", "2", "--paths", "3", "--seed", "1"],
        "transform": [],
    }[command]
    code, out, err = run_cli(
        capsys, command, "--channel", str(cfile), "--kernel", str(kfile), *extra
    )
    assert code == 1 and out == ""
    assert err == f"error: the kernel is over GF({kernel_p}) but the channel over GF({channel_p})\n"


@pytest.mark.parametrize(
    "argv, kind",
    [(["kernel", "--kernel"], "kernel"), (["params", "--channel"], "channel"),
     (["encode", "--message", "1", "--seed", "1", "--spec"], "spec")],
    ids=["kernel", "params", "encode"],
)
def test_json_list_file_exits_one(capsys, tmp_path, argv, kind):
    path = tmp_path / "list.json"
    path.write_text("[2, 1]")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err == f"error: a {kind} file must hold a JSON object, got list\n"


def test_verify_reports_the_exception_on_stderr(capsys, monkeypatch):
    def broken(seed):
        raise ZeroDivisionError("pivot vanished")

    monkeypatch.setattr(cli, "_suite_holder", broken)
    for name in ("_suite_conservation", "_suite_ftpc", "_suite_quadratic",
                 "_suite_symmetrization", "_suite_local", "_suite_gadget"):
        monkeypatch.setattr(cli, name, lambda seed: None)
    code, out, err = run_cli(capsys, "verify", "--seed", "0")
    assert code == 2
    assert out.splitlines() == [
        "PASS conservation", "PASS coset-identities", "FAIL parameter-inequalities",
        "PASS exponent-curvature", "PASS symmetrization-identities", "PASS one-step-laws",
        "PASS distance-average-bound",
    ]
    assert err == "parameter-inequalities: ZeroDivisionError: pivot vanished\n"


def test_verify_names_the_failing_check_on_stderr(capsys, monkeypatch):
    # one library check turned to a failure: its suite's first failing case
    # goes to stderr, and stdout keeps its verdict lines
    real, failed = cli.holder_report, []

    def broken(W):
        report = real(W)
        check = report["checks"]["entropy_upper_fano"]
        check["ok"] = report["ok"] = False
        failed.append(check)
        return report

    monkeypatch.setattr(cli, "holder_report", broken)
    code, out, err = run_cli(capsys, "verify", "--seed", "0")
    assert code == 2
    assert out.splitlines() == [
        "PASS conservation", "PASS coset-identities", "FAIL parameter-inequalities",
        "PASS exponent-curvature", "PASS symmetrization-identities", "PASS one-step-laws",
        "PASS distance-average-bound",
    ]
    assert len(failed) == 1  # the suite stops at its first failing case
    lhs, rhs = failed[0]["lhs"], failed[0]["rhs"]
    assert err == f"parameter-inequalities: case 0: entropy_upper_fano: lhs {lhs!r}, rhs {rhs!r}\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qpolar", "params", "--bec", "0.25"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["params"]["H"] == 0.25
