import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidcoord.arbitrary
import bidcoord.cli
import bidcoord.discretize
import bidcoord.limited
import bidcoord.mechanisms
from bidcoord.cli import build_parser, canonical_json, main
from bidcoord.core import instance_to_raw, validate_and_normalize
from bidcoord.discretize import build_grid, max_bits, pruned_grid
from conftest import (
    cent_bids_raw,
    example1_raw,
    example3_raw,
    fixed_external,
    load_workloads,
    random_instance,
    random_levels,
)
from oracles import prune_levels, recursive_split

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
EXAMPLE3 = str(INSTANCES / "example3.json")
GOLDEN = Path(__file__).resolve().parent / "golden"
GRID_SCALARS = {"p", "eta", "max_bits", "k_star", "rec_calls", "flat_size", "pruned_size"}


def write_instance(tmp_path, raw, name="instance.json"):
    path = tmp_path / name
    path.write_text(canonical_json(raw), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: A valid instance with a byte that is not UTF-8 inside a JSON string.
FF_IN_A_STRING = canonical_json(example1_raw()).encode().replace(b"{", b'{"note": "\xff", ', 1)


def bytes_stdin(data: bytes) -> io.TextIOWrapper:
    """Stdin as the interpreter opens it in UTF-8 mode: text over a byte
    buffer, with undecodable bytes kept as surrogates."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def run_raw(raw, command, *options):
    """Run ``command`` on the raw instance document ``raw``, written to a
    temporary file, and return (exit code, stdout, stderr).  Unlike
    ``run_cli`` it needs no fixture, so hypothesis tests can call it."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "instance.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *options])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def grid_builds(monkeypatch):
    """Names ``build_grid`` and ``pruned_grid`` once per call made through
    any of the modules that bind them."""
    calls = []
    for name in ("build_grid", "pruned_grid"):
        original = getattr(bidcoord.discretize, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (bidcoord.cli, bidcoord.arbitrary, bidcoord.limited):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


class TestValidate:
    def test_valid_instance(self, tmp_path, capsys):
        path = write_instance(tmp_path, example1_raw())
        code, out, _ = run_cli(capsys, "validate", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["n_colluders"] == 2
        assert doc["mechanism"] == "vcg"

    def test_schema_broken_reports_field_path(self, tmp_path, capsys):
        raw = example1_raw()
        raw["slots"] = [1.5]
        path = write_instance(tmp_path, raw)
        code, out, _ = run_cli(capsys, "validate", path)
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["error"]["path"] == "slots[0]"

    def test_integer_too_large_for_a_double(self, tmp_path, capsys):
        raw = example1_raw()
        raw["colluders"][0]["v"] = 10**400
        path = write_instance(tmp_path, raw)
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 1
        assert err == ""
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["error"] == {
            "path": "colluders[0].v", "message": "integer too large for a double"
        }

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", bytes_stdin(canonical_json(example1_raw()).encode()))
        code, out, _ = run_cli(capsys, "validate", "-")
        assert code == 0
        assert json.loads(out)["valid"] is True

    @pytest.mark.parametrize("data, message", [
        pytest.param(b"\xff\xfe{}", "not valid UTF-8: ", id="latin-1"),
        pytest.param("{}".encode("utf-16"), "not valid UTF-8: ", id="utf-16"),
        pytest.param(b"\xef\xbb\xbf{}", "not valid JSON: Unexpected UTF-8 BOM", id="bom"),
    ])
    def test_file_that_is_not_utf8_json(self, tmp_path, capsys, data, message):
        path = tmp_path / "instance.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["error"]["path"] == str(path)
        assert doc["error"]["message"].startswith(message)

    def test_stdin_that_is_not_utf8(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, "validate", "-")
        assert (code, err) == (1, "")
        error = json.loads(out)["error"]
        assert error["path"] == "-" and error["message"].startswith("not valid UTF-8: ")

    @pytest.mark.parametrize("data", [
        pytest.param(canonical_json(example1_raw()).encode(), id="valid"),
        pytest.param(canonical_json(example1_raw()).encode().replace(b"\n", b"\r\n"), id="crlf"),
        pytest.param(FF_IN_A_STRING, id="ff-in-a-string"),
        pytest.param(b"\xff\xfe{}", id="latin-1"),
        pytest.param("{}".encode("utf-16"), id="utf-16"),
        pytest.param(b"\xef\xbb\xbf{}", id="bom"),
    ])
    def test_stdin_reads_as_a_file(self, tmp_path, capsys, monkeypatch, data):
        path = tmp_path / "instance.json"
        path.write_bytes(data)
        file_code, file_out, file_err = run_cli(capsys, "validate", str(path))
        monkeypatch.setattr("sys.stdin", bytes_stdin(data))
        stdin_code, stdin_out, stdin_err = run_cli(capsys, "validate", "-")
        # the same report, apart from the path an error names
        file_doc = json.loads(file_out)
        if "error" in file_doc and file_doc["error"]["path"] == str(path):
            file_doc["error"]["path"] = "-"
        assert (stdin_code, json.loads(stdin_out), stdin_err) == (file_code, file_doc, file_err)

    def test_stdin_reads_as_a_file_in_the_c_locale(self, tmp_path):
        path = tmp_path / "instance.json"
        path.write_bytes(FF_IN_A_STRING)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, LC_ALL="C", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        command = [sys.executable, "-m", "bidcoord.cli", "validate"]
        from_stdin = subprocess.run(
            [*command, "-"], input=FF_IN_A_STRING, env=env, capture_output=True
        )
        from_file = subprocess.run([*command, str(path)], env=env, capture_output=True)
        assert from_stdin.returncode == from_file.returncode == 1, from_stdin.stderr
        messages = [json.loads(done.stdout)["error"]["message"] for done in (from_stdin, from_file)]
        assert messages[0] == messages[1] and messages[0].startswith("not valid UTF-8: ")

    def test_closed_stdin(self, capsys, monkeypatch):
        # the interpreter sets sys.stdin to None when fd 0 is closed
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run_cli(capsys, "validate", "-")
        assert (code, err) == (1, "")
        assert json.loads(out)["error"] == {"path": "-", "message": "cannot read file: stdin is closed"}

    def test_closed_stdin_in_a_subprocess(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        done = subprocess.run(
            ["sh", "-c", 'exec "$0" -m bidcoord.cli validate - <&-', sys.executable],
            env=env, capture_output=True,
        )
        assert (done.returncode, done.stderr) == (1, b"")
        assert json.loads(done.stdout)["error"]["path"] == "-"

    def test_round_trip_byte_identical(self, tmp_path, capsys):
        path = write_instance(tmp_path, example1_raw())
        original = open(path, encoding="utf-8").read()
        code, out, _ = run_cli(capsys, "validate", path)
        doc = json.loads(out)
        assert canonical_json(doc["normalized"]) == original


#: Dyadic bids on a 2^-10 grid and cent bids (eta = 2^-53), 0 and 1 included.
DYADIC_BIDS = st.integers(0, 2**10).map(lambda i: i / 2**10)
CENT_BIDS = st.integers(0, 100).map(lambda c: c / 100)


@st.composite
def split_instances(draw) -> dict:
    """A raw instance whose at most 4 support entries of at most 3 bids
    are all dyadic, all cents or mixed; zero-probability entries occur."""
    bid = draw(st.sampled_from((DYADIC_BIDS, CENT_BIDS, DYADIC_BIDS | CENT_BIDS)))
    n_e = draw(st.integers(0, 3))
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
    support = [
        {"bids": draw(st.lists(bid, min_size=n_e, max_size=n_e)), "prob": w / sum(weights)}
        for w in weights
    ]
    return dict(example3_raw(), external={"support": support})


class TestDiscretize:
    def test_example3_grid(self, tmp_path, capsys):
        path = write_instance(tmp_path, example3_raw())
        code, out, _ = run_cli(capsys, "discretize", path, "--p", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["levels"] == [0.0, 0.5, 0.75]
        assert doc["eta"] == 0.25
        assert doc["max_bits"] == 2
        assert doc["k_star"] == 3
        assert doc["rec_calls"] <= 2 * doc["k_star"]

    def test_full_split(self, tmp_path, capsys):
        raw = example3_raw()
        path = write_instance(tmp_path, raw)
        code, out, _ = run_cli(capsys, "discretize", path, "--p", "0.05")
        assert code == 0
        doc = json.loads(out)
        instance = validate_and_normalize(raw)
        _, grid = build_grid(instance, 0.05)
        leaves, _ = recursive_split(0.0, 1.0, 0.05, doc["eta"], instance.external)
        assert set(doc) == GRID_SCALARS | {"pruned_levels", "levels", "intervals"}
        assert doc["levels"] == list(grid.levels)
        assert doc["intervals"] == [{"lower": lower, "upper": upper} for lower, upper in leaves]

    def test_pruned_size(self, tmp_path, capsys):
        # only 0.75 keeps its level: no external bid lies in (0, 0.5]
        path = write_instance(tmp_path, example3_raw())
        code, out, _ = run_cli(capsys, "discretize", path, "--p", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["levels"] == [0.0, 0.5, 0.75]
        assert doc["pruned_size"] == 2

    @pytest.mark.parametrize(
        "raw, bits",
        [
            (example1_raw(), 0),
            (example3_raw(), 2),
            (dict(example3_raw(), external={"support": [{"bids": [0.625], "prob": 1.0}]}), 3),
            (dict(example3_raw(), external={"support": [{"bids": [0.01], "prob": 1.0}]}), 53),
        ],
    )
    def test_max_bits_read_off_eta(self, tmp_path, capsys, raw, bits):
        path = write_instance(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run_cli(capsys, "discretize", path)
            expected = max_bits(validate_and_normalize(raw).external)
        assert code == 0
        assert json.loads(out)["max_bits"] == expected == bits

    @pytest.mark.parametrize(
        "argv",
        [("discretize",), ("solve",), ("solve", "--mode", "limited-liability")],
    )
    def test_capped_bits_warn_once(self, tmp_path, capsys, argv):
        raw = dict(example3_raw(), external={"support": [{"bids": [0.01], "prob": 1.0}]})
        path = write_instance(tmp_path, raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 0
        # the command prints the warning as its own line; none escapes it
        assert caught == []
        assert err == "warning: support bid needs 59 fractional bits; capping at 53\n"

    def test_capped_bits_note_on_cent_bids(self, tmp_path, capsys):
        path = write_instance(tmp_path, cent_bids_raw())
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "discretize", path)
        assert code == 0
        assert err == "warning: support bid needs 55 fractional bits; capping at 53\n"

    @settings(max_examples=200)
    @given(raw=split_instances(), p=st.sampled_from(("1", "0.05", "1e-300")))
    def test_report_matches_recursive_definition(self, raw, p):
        # the reported levels and intervals are the leaves of the split as
        # the paper defines it, bit for bit
        code, out, _ = run_raw(raw, "discretize", "--p", p)
        assert code == 0
        doc = json.loads(out)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            external = validate_and_normalize(raw).external
            eta = 2.0 ** -max_bits(external)
        leaves, calls = recursive_split(0.0, 1.0, float(p), eta, external)
        assert [float.hex(x) for x in doc["levels"]] == [
            float.hex(lower) for lower, _ in leaves
        ]
        assert [(float.hex(iv["lower"]), float.hex(iv["upper"])) for iv in doc["intervals"]] == [
            (float.hex(lower), float.hex(upper)) for lower, upper in leaves
        ]
        assert (doc["k_star"], doc["rec_calls"]) == (len(leaves), calls)


class TestSolve:
    def test_example1_arbitrary(self, tmp_path, capsys):
        path = write_instance(tmp_path, example1_raw())
        code, out, _ = run_cli(capsys, "solve", path, "--mode", "arbitrary",
                               "--epsilon", "0.05")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["solution"]["objective"] - 0.6) < 1e-9
        assert abs(doc["baseline"]["ratio"] - 6.0) < 1e-6
        assert doc["checks"]["assumption_violated"] is False

    def test_example3_limited_liability(self, tmp_path, capsys):
        path = write_instance(tmp_path, example3_raw())
        code, out, _ = run_cli(capsys, "solve", path, "--mode", "limited-liability",
                               "--epsilon", "0.01")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["solution"]["objective"] - 1.0) < 1e-6
        assert len(doc["solution"]["distribution"]) >= 2
        assert doc["solution"]["transfers"] == [0.0, 0.0]

    def test_mechanism_override(self, tmp_path, capsys):
        path = write_instance(tmp_path, example1_raw())
        code, out, _ = run_cli(capsys, "solve", path, "--mechanism", "gsp")
        assert code == 0
        doc = json.loads(out)
        assert doc["mechanism"] == "gsp"
        assert abs(doc["solution"]["objective"] - 0.6) < 1e-9

    def test_infeasible_exit_code(self, tmp_path, capsys):
        raw = {
            "mechanism": "gsp",
            "slots": [0.5],
            "colluders": [{"v": 1.0, "t": 1.0}],
            "external": {"support": [{"bids": [], "prob": 1.0}]},
        }
        path = write_instance(tmp_path, raw)
        code, out, _ = run_cli(capsys, "solve", path, "--mode", "limited-liability")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "infeasible"

    def test_infeasible_text_format(self, tmp_path, capsys):
        raw = {
            "mechanism": "gsp",
            "slots": [1.0],
            "colluders": [{"v": 0.9, "t": 0.95}],
            "external": {"support": [{"bids": [0.5], "prob": 1.0}]},
        }
        path = write_instance(tmp_path, raw)
        argv = ("solve", path, "--mode", "limited-liability")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        message = json.loads(out)["error"]["message"]
        code, out, err = run_cli(capsys, *argv, "--format", "text")
        assert code == 2
        assert (out, err) == (f"infeasible: {message}\n", "")

    def test_payment_verdict_names_the_payment(self, tmp_path, capsys):
        # winning covers t - p = 0.65 out of revenue 1.0, so every outside
        # option can be met; what fails is the agency's payment of 0.5,
        # against at most 0.35 of transfers
        raw = {
            "mechanism": "gsp",
            "slots": [1.0],
            "colluders": [{"v": 1.0, "t": 0.7}],
            "external": {"support": [{"bids": [0.5], "prob": 1.0}]},
        }
        path = write_instance(tmp_path, raw)
        argv = ("solve", path, "--mode", "limited-liability")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert message == (
            "transfers of at most 0.3500000000000001 cannot cover the agency payment 0.5"
        )
        code, out, err = run_cli(capsys, *argv, "--format", "text")
        assert (code, out, err) == (2, f"infeasible: {message}\n", "")

    def test_assumption_violated_exit_code(self, tmp_path, capsys):
        raw = {
            "mechanism": "gsp",
            "slots": [0.5],
            "colluders": [{"v": 1.0, "t": 1.0}],
            "external": {"support": [{"bids": [], "prob": 1.0}]},
        }
        path = write_instance(tmp_path, raw)
        code, out, _ = run_cli(capsys, "solve", path, "--mode", "arbitrary")
        assert code == 2
        assert json.loads(out)["checks"]["assumption_violated"] is True

    def test_out_file_and_text_format(self, tmp_path, capsys):
        path = write_instance(tmp_path, example1_raw())
        report = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "solve", path, "--out", str(report))
        assert code == 0
        assert out == ""
        assert "objective" in json.loads(report.read_text())["solution"]
        code, out, _ = run_cli(capsys, "solve", path, "--format", "text")
        assert code == 0
        assert "objective: 0.6" in out

    @pytest.mark.parametrize("target", ["directory", "missing/report.json"])
    def test_unwritable_out_is_an_option_error(self, tmp_path, capsys, target):
        # a directory, or a file in a directory that does not exist
        (tmp_path / "directory").mkdir()
        path = write_instance(tmp_path, example1_raw())
        code, out, err = run_cli(capsys, "solve", path, "--out", str(tmp_path / target))
        assert (code, out) == (1, "")
        assert err.startswith("invalid option: --out ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"invalid instance: {path}: not valid UTF-8: ")
        assert err.count("\n") == 1

    def test_crlf_file_gives_the_same_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bidcoord.cli.time, "perf_counter", lambda: 0.0)
        text = canonical_json(example3_raw())
        reports = []
        for name, newline in (("lf.json", "\n"), ("crlf.json", "\r\n")):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", newline).encode())
            code, out, _ = run_cli(capsys, "solve", str(path), "--mode", "limited-liability")
            assert code == 0
            reports.append(out)
        assert b"\r\n" in (tmp_path / "crlf.json").read_bytes()
        assert reports[0] == reports[1]

    def test_invalid_file_exit_one(self, tmp_path, capsys):
        raw = example1_raw()
        del raw["slots"]
        path = write_instance(tmp_path, raw)
        code, _, err = run_cli(capsys, "solve", path)
        assert code == 1
        assert "slots" in err

    def test_integer_too_large_for_a_double(self, tmp_path, capsys):
        raw = example1_raw()
        raw["colluders"][0]["v"] = 10**400
        path = write_instance(tmp_path, raw)
        code, out, err = run_cli(capsys, "solve", path)
        assert code == 1
        assert out == ""
        assert err == (
            "invalid instance: colluders[0].v: integer too large for a double\n"
        )

    @pytest.mark.parametrize("command", [
        pytest.param(("solve", "--mode", "arbitrary"), id="arbitrary"),
        pytest.param(("solve", "--mode", "limited-liability"), id="limited-liability"),
        pytest.param(("discretize",), id="discretize"),
        pytest.param(("wup", "--p", "0.05"), id="wup-p"),
    ])
    def test_grid_built_once(self, tmp_path, capsys, grid_builds, command):
        # one walk of the split for every command that reports a grid
        name, *options = command
        if name == "wup":
            weights = tmp_path / "weights.json"
            weights.write_text(json.dumps({"revenue_weights": [1.0, 1.0], "payment_weight": 1.0}))
            options += ["--weights-file", str(weights)]
        code, out, _ = run_cli(capsys, name, EXAMPLE3, *options)
        assert code == 0
        assert grid_builds == ["pruned_grid"]
        doc = json.loads(out)
        assert doc.get("grid", doc)["pruned_size"] == 2

    @pytest.mark.parametrize("mode", ["arbitrary", "limited-liability"])
    @pytest.mark.parametrize("raw", [example1_raw(), example3_raw(), cent_bids_raw()])
    def test_grid_section_is_lean(self, tmp_path, capsys, mode, raw):
        path = write_instance(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run_cli(capsys, "solve", path, "--mode", mode, "--epsilon", "0.1")
            inst = validate_and_normalize(raw)
            pruned, grid = build_grid(inst, 0.1 / inst.n_colluders)
        assert code == 0
        grid_doc = json.loads(out)["grid"]
        assert set(grid_doc) == GRID_SCALARS | {"pruned_levels"}
        assert grid_doc["k_star"] == pruned.k_star == len(grid.levels)
        assert grid_doc["rec_calls"] == pruned.rec_calls
        assert grid_doc["flat_size"] == len(grid.levels) * inst.n_colluders
        assert grid_doc["pruned_levels"] == list(prune_levels(grid.levels, inst.external))
        assert grid_doc["pruned_size"] == len(grid_doc["pruned_levels"])

    def test_cent_bid_report_lists_only_pruned_levels(self, tmp_path, capsys):
        raw = cent_bids_raw()
        path = write_instance(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run_cli(capsys, "solve", path)
            _, grid = build_grid(validate_and_normalize(raw), 0.05 / 2)
        assert code == 0
        assert len(grid.levels) > 1000
        grid_doc = json.loads(out)["grid"]
        listed = sum(len(v) for v in grid_doc.values() if isinstance(v, list))
        assert listed == grid_doc["pruned_size"] <= 1 + 25

    def test_no_option_carries_over_between_calls(self, tmp_path, capsys):
        path = write_instance(tmp_path, example3_raw())
        code, out, _ = run_cli(capsys, "solve", path, "--mechanism", "vcg")
        assert code == 0
        assert json.loads(out)["mechanism"] == "vcg"
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0
        assert json.loads(out)["mechanism"] == "gsp"

    def test_tolerance_breach_exit_three(self, tmp_path, capsys, monkeypatch):
        import bidcoord.cli as cli_mod
        from bidcoord.core import ToleranceError

        def boom(instance, epsilon, levels=None):
            raise ToleranceError("synthetic breach")

        monkeypatch.setattr(cli_mod, "solve_ll", boom)
        path = write_instance(tmp_path, example1_raw())
        code, _, err = run_cli(capsys, "solve", path, "--mode", "limited-liability")
        assert code == 3
        assert "synthetic breach" in err


    @staticmethod
    def count_outcomes(capsys, monkeypatch, *argv):
        """How many times ``solve`` with ``argv`` evaluates ``expected_outcome``."""
        calls = []
        original = bidcoord.mechanisms.expected_outcome

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("bidcoord"):
                if vars(module).get("expected_outcome") is original:
                    monkeypatch.setattr(module, "expected_outcome", counting)
        code, _, _ = run_cli(capsys, "solve", *argv)
        assert code == 0
        return len(calls)

    def test_arbitrary_solve_evaluates_outcomes_twice(self, capsys, monkeypatch):
        # once to certify the solution, once for the baseline: the report
        # restates the certified numbers and recomputes none of them
        assert self.count_outcomes(capsys, monkeypatch, str(INSTANCES / "example1.json")) == 2

    @pytest.mark.parametrize("instance, epsilon, calls", [
        ("example1.json", "0.05", 2),
        ("example3.json", "0.01", 4),
    ])
    def test_ll_solve_evaluates_each_column_once(self, capsys, monkeypatch, instance, epsilon, calls):
        # once per master column and once for the baseline: certify sums
        # the kept columns' outcomes and recomputes none of them
        argv = (str(INSTANCES / instance), "--mode", "limited-liability", "--epsilon", epsilon)
        assert self.count_outcomes(capsys, monkeypatch, *argv) == calls


class TestWup:
    def _weights(self, tmp_path, doc):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_expected_mode(self, tmp_path, capsys):
        inst = write_instance(tmp_path, example3_raw())
        weights = self._weights(
            tmp_path, {"revenue_weights": [1.0, 1.0], "payment_weight": 1.0}
        )
        code, out, _ = run_cli(capsys, "wup", inst, "--weights-file", weights,
                               "--p", "0.05")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - 1.0) < 1e-9
        assert doc["expected"] is True
        assert doc["grid"]["pruned_size"] == 2

    def test_p_grid_reports_levels_solved_over(self, tmp_path, capsys, monkeypatch):
        seen = []
        original = bidcoord.cli.expected_tables

        def recording(instance, levels, *args):
            seen.append(list(levels))
            return original(instance, levels, *args)

        monkeypatch.setattr(bidcoord.cli, "expected_tables", recording)
        inst = write_instance(tmp_path, example3_raw())
        weights = self._weights(
            tmp_path, {"revenue_weights": [1.0, 1.0], "payment_weight": 1.0}
        )
        code, out, _ = run_cli(capsys, "wup", inst, "--weights-file", weights,
                               "--p", "0.05")
        assert code == 0
        grid_doc = json.loads(out)["grid"]
        grid = pruned_grid(validate_and_normalize(example3_raw()), 0.05)
        assert set(grid_doc) == GRID_SCALARS | {"pruned_levels"}
        assert seen == [grid_doc["pruned_levels"]] == [list(grid.levels)]

    def test_unit_weights_state_the_arbitrary_objective(self, tmp_path, capsys):
        # at p = eps/n_c the unit-weight query finds the profile that
        # ``solve --mode arbitrary`` plays, and states its certified
        # utility: the solve's objective, bit for bit
        workloads = load_workloads()
        raws = [cent_bids_raw(), example1_raw(), example3_raw()] + [
            json.loads(workloads.pool_instance("arb-grid", slot, 0))
            for slot in range(len(workloads.WORKLOADS["arb-grid"].shapes))
        ]
        for raw in raws:
            n_c = len(raw["colluders"])
            weights = self._weights(
                tmp_path, {"revenue_weights": [1.0] * n_c, "payment_weight": 1.0}
            )
            inst = write_instance(tmp_path, raw)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # cent bids warn about their bit count
                _, solved, _ = run_cli(capsys, "solve", inst, "--epsilon", "0.05")
                code, out, _ = run_cli(capsys, "wup", inst, "--weights-file", weights,
                                       "--p", repr(0.05 / n_c))
            assert code == 0
            objective = json.loads(solved)["solution"]["objective"]
            assert json.loads(out)["value"].hex() == objective.hex()

    def test_fixed_external_index(self, tmp_path, capsys):
        inst = write_instance(tmp_path, example3_raw())
        weights = self._weights(
            tmp_path,
            {"revenue_weights": [1.0, 1.0], "payment_weight": 1.0, "levels": [0.0, 0.75]},
        )
        code, out, _ = run_cli(capsys, "wup", inst, "--weights-file", weights,
                               "--external-index", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["fixed_external_index"] == 0
        assert doc["grid"]["levels"] == [0.0, 0.75]

    def test_external_index_is_the_one_entry_distribution(self, tmp_path, capsys):
        # --external-index k answers the query of the same instance file
        # with its support replaced by entry k at probability 1
        rng = random.Random(2101)
        for _ in range(40):
            inst = random_instance(rng)
            k = rng.randrange(len(inst.external.support))
            weights = self._weights(tmp_path, {
                "revenue_weights": [rng.random() * 2 for _ in range(inst.n_colluders)],
                "payment_weight": rng.random() * 2,
                "levels": random_levels(rng),
            })
            whole = write_instance(tmp_path, instance_to_raw(inst))
            entry = fixed_external(inst, inst.external.support[k][0])
            one = write_instance(tmp_path, instance_to_raw(entry), "entry.json")
            docs = []
            for argv in ((whole, "--external-index", str(k)), (one,)):
                code, out, _ = run_cli(capsys, "wup", argv[0], "--weights-file", weights,
                                       *argv[1:])
                assert code == 0
                doc = json.loads(out)
                docs.append((doc["profile"], doc["value"].hex(), doc["colluder_order"],
                             doc["grid"]))
            assert docs[0] == docs[1]

    @pytest.mark.parametrize("field, value", [
        pytest.param("payment_weight", float("nan"), id="payment-nan"),
        pytest.param("revenue_weights", [float("inf"), 1.0], id="revenue-inf"),
        pytest.param("revenue_weights", [10**400, 1.0], id="revenue-huge-int"),
        pytest.param("payment_weight", -(10**400), id="payment-huge-int"),
        pytest.param("levels", [], id="levels-empty"),
        pytest.param("levels", [0.0, 2.0], id="levels-above-one"),
        pytest.param("levels", [0.0, float("nan")], id="levels-nan"),
        pytest.param("levels", [0.0, True], id="levels-bool"),
    ])
    def test_invalid_weights_file_rejected(self, tmp_path, capsys, field, value):
        # one line naming the field; never a traceback, a non-JSON value
        # in the report, or a bool read as a number
        inst = write_instance(tmp_path, example3_raw())
        doc = {"revenue_weights": [1.0, 1.0], "payment_weight": 1.0, field: value}
        weights = self._weights(tmp_path, doc)
        code, out, err = run_cli(capsys, "wup", inst, "--weights-file", weights)
        assert code == 1
        assert out == ""
        assert err.startswith("invalid instance: ") and err.count("\n") == 1
        assert f"weights.json:{field}" in err

    def test_weights_whose_value_overflows_rejected(self, tmp_path, capsys):
        # the query's value would overflow to inf, which JSON cannot hold
        doc = {"revenue_weights": [1e308, 1e308], "payment_weight": 0}
        weights = self._weights(tmp_path, doc)
        code, out, err = run_cli(capsys, "wup", EXAMPLE3, "--weights-file", weights)
        assert (code, out) == (1, "")
        assert err.startswith(f"invalid instance: {weights}: ") and err.count("\n") == 1

    def test_ragged_weights_rejected(self, tmp_path, capsys):
        inst = write_instance(tmp_path, example3_raw())
        weights = self._weights(tmp_path, {"revenue_weights": [1.0], "payment_weight": 1.0})
        code, _, err = run_cli(capsys, "wup", inst, "--weights-file", weights)
        assert code == 1
        assert "expected 2 entries" in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1

    def test_weights_file_that_is_not_utf8_rejected(self, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "wup", EXAMPLE3, "--weights-file", str(weights))
        assert (code, out) == (1, "")
        assert err.startswith(f"invalid instance: {weights}: not valid UTF-8: ")
        assert err.count("\n") == 1

    def test_missing_file_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/instance.json")
        assert code == 1
        assert "cannot read file" in err


class TestOptionRange:
    """Out-of-range option values exit 1 with one line naming the option;
    2 would read as infeasible."""

    @pytest.mark.parametrize("mode", ["arbitrary", "limited-liability"])
    @pytest.mark.parametrize("epsilon", ["0", "1.5"])
    def test_solve_epsilon(self, capsys, grid_builds, mode, epsilon):
        code, out, err = run_cli(capsys, "solve", EXAMPLE3, "--mode", mode,
                                 "--epsilon", epsilon)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "--epsilon" in err
        assert grid_builds == []

    def test_baseline_epsilon(self, capsys):
        code, out, err = run_cli(capsys, "baseline", EXAMPLE3, "--epsilon", "0")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "--epsilon" in err

    def test_discretize_p(self, capsys):
        code, out, err = run_cli(capsys, "discretize", EXAMPLE3, "--p", "0")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "--p" in err

    @pytest.mark.parametrize("levels", [
        pytest.param(None, id="no-levels"),
        pytest.param([0.0, 0.75], id="levels"),
    ])
    def test_wup_p(self, tmp_path, capsys, levels):
        # checked before the weights file is read, so its levels cannot skip it
        doc = {"revenue_weights": [1.0, 1.0], "payment_weight": 1.0}
        if levels is not None:
            doc["levels"] = levels
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "wup", EXAMPLE3, "--weights-file", str(weights),
                                 "--p", "1.5")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "--p" in err

    @pytest.mark.parametrize("argv", [
        pytest.param(("solve", "--mode", "arbitrary"), id="arbitrary"),
        pytest.param(("solve", "--mode", "limited-liability"), id="limited-liability"),
        pytest.param(("baseline",), id="baseline"),
    ])
    def test_epsilon_whose_p_underflows(self, capsys, grid_builds, argv):
        # 5e-324 lies in (0, 1], but p = 5e-324 / 2 rounds to 0.0
        name, *options = argv
        code, out, err = run_cli(capsys, name, EXAMPLE3, *options, "--epsilon", "5e-324")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "--epsilon" in err and "2 colluders" in err
        assert grid_builds == []


class TestUsageErrors:
    """A usage error that argparse finds exits 1 with one line, as an
    option value out of range does; argparse's own 2 would read as
    infeasible."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(("solve", EXAMPLE3, "--epsilon", "abc"),
                     "argument --epsilon: invalid float value: 'abc'", id="epsilon-abc"),
        pytest.param(("solve", EXAMPLE3, "--mode", "bogus"),
                     "argument --mode: invalid choice: 'bogus'", id="mode-bogus"),
        pytest.param(("solve", EXAMPLE3, "--bogus"),
                     "unrecognized arguments: --bogus", id="unknown-option"),
        pytest.param(("solve",),
                     "the following arguments are required: instance", id="no-instance"),
        pytest.param(("bogus", EXAMPLE3),
                     "argument command: invalid choice: 'bogus'", id="unknown-command"),
        pytest.param((), "the following arguments are required: command", id="no-command"),
    ])
    def test_exits_1_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"invalid option: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, usage", [
        (("-h",), "usage: bidcoord [-h] {"),
        (("solve", "-h"), "usage: bidcoord solve [-h] "),
    ])
    def test_help_exits_0(self, capsys, monkeypatch, argv, usage):
        # main() reads sys.argv when given no list
        monkeypatch.setattr(sys, "argv", ["bidcoord", *argv])
        with pytest.raises(SystemExit) as done:
            main()
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith(usage)


#: Argument lists of every command: defaults, every option, ``--opt=value``,
#: abbreviated options and options before the instance.
PARSE_ARGVS = (
    ("validate", "x.json"),
    ("validate", "-"),
    ("discretize", "x.json"),
    ("discretize", "--p=0.1", "x.json", "--out", "r.json"),
    ("solve", "x.json"),
    ("solve", "x.json", "--mode", "limited-liability", "--epsilon", "0.1",
     "--mechanism", "vcg", "--format", "text", "--out", "r.json"),
    ("solve", "--eps", "0.1", "--mode=arbitrary", "--mech", "gsp", "x.json", "--o=r.json"),
    ("wup", "x.json", "--weights-file", "w.json"),
    ("wup", "x.json", "--weights", "w.json", "--p", "0.2", "--external-index", "1",
     "--out", "r.json"),
    ("wup", "--weights-file=w.json", "--ext=0", "x.json"),
    ("baseline", "x.json"),
    ("baseline", "x.json", "--eps=0.2", "--out", "r.json"),
)


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
def test_one_parser_pass_gives_the_parsers_namespace(monkeypatch, argv):
    # the command function is looked up on the module per call, so a
    # rebound one runs; it receives what the full parser would give
    received = []
    monkeypatch.setattr(bidcoord.cli, f"cmd_{argv[0]}", lambda args: received.append(args) or 0)
    passes = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert main(list(argv)) == 0
    assert passes == [f"bidcoord {argv[0]}"]
    assert vars(received[0]) == vars(build_parser().parse_args(argv))


def strict_json(text: str):
    """The document in ``text``, failing on the NaN and Infinity that
    ``json.loads`` accepts but JSON does not."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


#: Numbers the fuzz draws bids, rates and valuations from: the ends of
#: [0, 1], dyadic and non-dyadic values, and few enough of them that bids
#: repeat within and across support entries.
FUZZ_NUMBERS = st.sampled_from((0.0, 1.0, 0.5, 0.75, 0.1, 0.3, 1 / 3, 0.99)) | st.floats(0.0, 1.0)

#: Weights from 0 through subnormals and the doubles' upper range.
WEIGHTS = st.one_of(
    st.sampled_from((0.0, 5e-324, 2.0**-1022, 1.0, 1e154, 5e307, 1e308)), st.floats(0.0, 1e308)
)


@st.composite
def fuzz_instances(draw) -> dict:
    """A raw instance document with at most 4 colluders and 4 support
    entries: zero-probability entries, no externals, more slots than
    colluders (or than agents), all-zero valuations and t_i = 1 all occur."""
    n_c = draw(st.integers(1, 4))
    n_e = draw(st.integers(0, 3))
    slots = draw(st.lists(FUZZ_NUMBERS, min_size=1, max_size=n_c + n_e + 1))
    if draw(st.booleans()):
        values = [0.0] * n_c
    else:
        values = draw(st.lists(FUZZ_NUMBERS, min_size=n_c, max_size=n_c))
    outside = draw(st.lists(st.sampled_from((0.0, 1.0)) | FUZZ_NUMBERS, min_size=n_c, max_size=n_c))
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
    support = [
        {"bids": draw(st.lists(FUZZ_NUMBERS, min_size=n_e, max_size=n_e)), "prob": w / sum(weights)}
        for w in weights
    ]
    return {
        "mechanism": draw(st.sampled_from(("gsp", "vcg"))),
        "slots": slots,
        "colluders": [{"v": v, "t": t} for v, t in zip(values, outside)],
        "external": {"support": support},
    }


#: Documents that ``json.loads`` refuses with an error other than a
#: JSONDecodeError: nesting past the recursion limit, and integer
#: literals past the 4300-digit limit on int-string conversion.
UNPARSEABLE_DOCS = st.one_of(
    st.builds(
        lambda pair, depth: pair[0] * depth + b"0" + pair[1] * depth,
        st.sampled_from(((b"[", b"]"), (b'{"a": ', b"}"))),
        st.integers(10_000, 100_000),
    ),
    st.builds(
        lambda sign, digits: b'{"revenue_weights": [%s%s], "slots": [1]}' % (sign, b"1" * digits),
        st.sampled_from((b"", b"-")),
        st.integers(4_301, 20_000),
    ),
)


class TestFuzz:
    @settings(max_examples=300)
    @given(
        raw=fuzz_instances(),
        mode=st.sampled_from(("arbitrary", "limited-liability")),
        epsilon=st.sampled_from(("1", "0.05", "1e-300", "5e-324")),
    )
    def test_solve_ends_in_a_documented_exit_code(self, raw, mode, epsilon):
        # an exception escaping main fails the test by itself
        code, out, err = run_raw(raw, "solve", "--mode", mode, "--epsilon", epsilon)
        assert code in (0, 1, 2, 3)
        if code in (1, 3):
            assert out == ""
            assert err.splitlines()[-1].startswith(
                "tolerance breach: " if code == 3 else ("invalid instance: ", "invalid option: ")
            )
        else:
            report = strict_json(out)
            if "solution" in report:
                probs = [e["probability"] for e in report["solution"]["distribution"]]
                assert abs(sum(probs) - 1.0) < 1e-9

    @settings(max_examples=200)
    @given(
        data=st.binary(max_size=64)
        | st.text(max_size=16).map(lambda text: text.encode("utf-16"))
        | st.sampled_from((b"\xff\xfe{}", b"\xef\xbb\xbf{}", b'{"slots": "\xe9"}')),
        command=st.sampled_from(("validate", "solve")),
    )
    def test_random_bytes_end_in_exit_1(self, data, command):
        # an exception escaping main fails the test by itself; a valid
        # instance takes about 100 bytes, more than any draw, so every
        # draw is an invalid one
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "instance.json"
            path.write_bytes(data)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
        assert code == 1
        if command == "validate":
            assert err.getvalue() == ""
            assert strict_json(out.getvalue())["valid"] is False
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("invalid instance: ")
            assert err.getvalue().count("\n") == 1

    @settings(max_examples=60)
    @given(
        data=UNPARSEABLE_DOCS,
        source=st.sampled_from(("file", "stdin", "weights")),
        command=st.sampled_from(("validate", "solve")),
    )
    def test_deep_or_long_documents_end_in_exit_1(self, data, source, command):
        # an exception escaping main fails the test by itself
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "document.json"
            path.write_bytes(data)
            argv = {
                "file": [command, str(path)],
                "stdin": [command, "-"],
                "weights": ["wup", str(INSTANCES / "example1.json"), "--weights-file", str(path)],
            }[source]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    mock.patch("sys.stdin", bytes_stdin(data)):
                code = main(argv)
        assert code == 1
        if argv[0] == "validate":
            assert err.getvalue() == ""
            error = strict_json(out.getvalue())["error"]
            assert error["message"].startswith("not valid JSON: ")
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("invalid instance: ")
            assert ": not valid JSON: " in err.getvalue()
            assert err.getvalue().count("\n") == 1

    @settings(max_examples=200)
    @given(
        instance=st.sampled_from(("example1.json", "example3.json")),
        revenue=st.lists(WEIGHTS, min_size=2, max_size=2),
        payment=WEIGHTS,
    )
    def test_wup_weights_end_in_exit_1_or_strict_json(self, instance, revenue, payment):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as scratch:
            weights = Path(scratch) / "weights.json"
            doc = {"revenue_weights": revenue, "payment_weight": payment}
            weights.write_text(json.dumps(doc), encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["wup", str(INSTANCES / instance), "--weights-file", str(weights)])
        assert code in (0, 1)
        if code == 1:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("invalid instance: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert math.isfinite(strict_json(out.getvalue())["value"])

    @settings(max_examples=200)
    @given(
        raw=fuzz_instances(),
        command=st.sampled_from(("discretize", "baseline")),
        value=st.sampled_from(("1", "0.05", "1e-300", "5e-324")),
    )
    def test_discretize_and_baseline_end_in_exit_0_or_1(self, raw, command, value):
        # an exception escaping main fails the test by itself
        option = "--p" if command == "discretize" else "--epsilon"
        code, out, err = run_raw(raw, command, option, value)
        assert code in (0, 1)
        if code == 1:
            assert out == ""
            assert err.splitlines()[-1].startswith(("invalid instance: ", "invalid option: "))
        else:
            strict_json(out)


class TestBaseline:
    def test_example1(self, tmp_path, capsys):
        path = write_instance(tmp_path, example1_raw())
        code, out, _ = run_cli(capsys, "baseline", path)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["baseline"]["cumulative"] - 0.1) < 1e-9
        assert abs(doc["baseline"]["ratio"] - 6.0) < 1e-6
        assert abs(doc["with_agency"]["objective"] - 0.6) < 1e-9

    def test_cent_bids_skip_full_grid(self, tmp_path, capsys, grid_builds):
        path = write_instance(tmp_path, cent_bids_raw())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, _ = run_cli(capsys, "baseline", path)
        assert code == 0
        assert grid_builds == ["pruned_grid"]


class TestDeterminism:
    @pytest.mark.parametrize("raw,mode,eps", [
        (example1_raw(), "arbitrary", "0.05"),
        (example3_raw(), "limited-liability", "0.01"),
        (example3_raw(), "limited-liability", "0.1"),
    ])
    def test_repeated_reports_identical(self, tmp_path, capsys, raw, mode, eps):
        path = write_instance(tmp_path, raw)
        docs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "solve", path, "--mode", mode,
                                   "--epsilon", eps)
            assert code == 0
            doc = json.loads(out)
            doc.pop("timings")
            docs.append(canonical_json(doc))
        assert docs[0] == docs[1]


#: Floats at the edges of what JSON and a double can spell.
EDGE_FLOATS = (-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1,
               float("nan"), float("inf"), float("-inf"))
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from((10**400, -(10**400)))
    | st.floats()
    | st.sampled_from(EDGE_FLOATS)
    | st.floats().map(np.float64)  # a float subclass that repr() spells differently
    | st.text()
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.lists(st.floats() | st.sampled_from(EDGE_FLOATS))
        | st.lists(st.floats().map(np.float64))
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=40,
)


class TestCanonicalJson:
    @settings(max_examples=300)
    @given(JSON_DOCS)
    def test_matches_json_dumps(self, doc):
        assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [{1, 2}, b"bytes", object()])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            canonical_json({"key": [value]})


def run_probe(probe: str) -> str:
    """Stdout of ``python -c probe`` with the package's source on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_out_scipy():
    # scipy, the test references' LP solver, stays off the command path
    probe = (
        "import sys, bidcoord.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_probe(probe) == "[]\n"


def test_package_imports_with_declared_dependencies_only():
    # every module imports with numpy alone: the brute-force references,
    # which need scipy, live in tests/oracles.py, not in the package
    probe = """
import importlib, importlib.util, pkgutil, sys
for blocked in ("scipy", "pytest", "hypothesis"):
    sys.modules[blocked] = None
import bidcoord
names = [m.name for m in pkgutil.walk_packages(bidcoord.__path__, "bidcoord.")]
for name in names:
    importlib.import_module(name)
print(importlib.util.find_spec("bidcoord.oracles"), names)
"""
    modules = ["arbitrary", "cli", "core", "discretize", "limited", "mechanisms", "simplex", "wup"]
    assert run_probe(probe) == f"None {[f'bidcoord.{name}' for name in modules]}\n"


#: The golden reports cover every report-printing command except
#: ``validate`` (which echoes its input) on the two worked instances and
#: the cent-bid instance, whose full grid runs past 1000 levels.
GOLDEN_INSTANCES = ("example1", "example3", "cent-bids")
GOLDEN_COMMANDS = {
    "solve-arbitrary": ("solve", "--mode", "arbitrary"),
    "solve-limited-liability": ("solve", "--mode", "limited-liability"),
    "baseline": ("baseline",),
    "discretize": ("discretize",),
    "wup-p": ("wup", "--p", "0.05"),
}


def golden_argv(directory, instance: str, command: str) -> list[str]:
    """The arguments of ``command`` on ``instance``; the files they name
    that are not in ``instances/`` are written to ``directory``."""
    if instance == "cent-bids":
        path = write_instance(directory, cent_bids_raw())
    else:
        path = str(INSTANCES / f"{instance}.json")
    name, *options = GOLDEN_COMMANDS[command]
    if name == "wup":
        weights = Path(directory) / "weights.json"
        # every golden instance has two colluders
        weights.write_text(json.dumps({"revenue_weights": [1.0, 1.0], "payment_weight": 1.0}))
        options += ["--weights-file", str(weights)]
    return [name, path, *options]


def golden_report(directory, instance: str, command: str) -> str:
    """The report ``command`` prints for ``instance``, ``timings`` removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(golden_argv(directory, instance, command))
    assert code == 0
    doc = json.loads(out.getvalue())
    doc.pop("timings", None)
    return canonical_json(doc)


@pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
@pytest.mark.parametrize("instance", GOLDEN_INSTANCES)
def test_golden_report(tmp_path, instance, command):
    # byte for byte: a refactor that changes any reported bit fails here
    expected = (GOLDEN / f"{instance}-{command}.json").read_text(encoding="utf-8")
    assert golden_report(tmp_path, instance, command) == expected


def assert_out_file_holds_stdout(tmp_path, capsys, argv, expected_code):
    """``argv`` with ``--out`` writes exactly the bytes it prints without."""
    code, printed, _ = run_cli(capsys, *argv)
    assert code == expected_code
    # ASCII, so the bytes stdout writes are the same in any encoding
    assert printed.isascii()
    report = tmp_path / "report.out"
    report.write_bytes(b"x" * 100_000)  # a longer file is truncated, not patched
    code, out, _ = run_cli(capsys, *argv, "--out", str(report))
    assert (code, out) == (expected_code, "")
    assert report.read_bytes() == printed.encode()


@pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
@pytest.mark.parametrize("instance", GOLDEN_INSTANCES)
def test_out_file_holds_the_printed_report(tmp_path, capsys, monkeypatch, instance, command):
    monkeypatch.setattr(bidcoord.cli.time, "perf_counter", lambda: 0.0)
    assert_out_file_holds_stdout(tmp_path, capsys, golden_argv(tmp_path, instance, command), 0)


#: An instance whose limited-liability solve is infeasible.
INFEASIBLE_LL = {
    "mechanism": "gsp",
    "slots": [1.0],
    "colluders": [{"v": 0.9, "t": 0.95}],
    "external": {"support": [{"bids": [0.5], "prob": 1.0}]},
}


@pytest.mark.parametrize("raw, options, code", [
    pytest.param(example1_raw(), ("--format", "text"), 0, id="text"),
    pytest.param(INFEASIBLE_LL, ("--mode", "limited-liability"), 2, id="infeasible"),
    pytest.param(INFEASIBLE_LL, ("--mode", "limited-liability", "--format", "text"), 2,
                 id="infeasible-text"),
])
def test_out_file_holds_the_printed_solve(tmp_path, capsys, monkeypatch, raw, options, code):
    monkeypatch.setattr(bidcoord.cli.time, "perf_counter", lambda: 0.0)
    path = write_instance(tmp_path, raw)
    assert_out_file_holds_stdout(tmp_path, capsys, ("solve", path, *options), code)


if __name__ == "__main__":
    # Re-record tests/golden/ after a deliberate change to a report:
    #   PYTHONPATH=src python tests/test_cli.py
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for instance in GOLDEN_INSTANCES:
            for command in GOLDEN_COMMANDS:
                report = golden_report(Path(scratch), instance, command)
                (GOLDEN / f"{instance}-{command}.json").write_text(report, encoding="utf-8")
