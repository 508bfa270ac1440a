import io
import json
import warnings
from pathlib import Path

import pytest

import bidcoord.arbitrary
import bidcoord.cli
import bidcoord.limited
from bidcoord.cli import canonical_json, main
from bidcoord.core import validate_and_normalize
from bidcoord.discretize import max_bits
from conftest import example1_raw, example3_raw

EXAMPLE3 = str(Path(__file__).resolve().parent.parent / "instances" / "example3.json")


def write_instance(tmp_path, raw, name="instance.json"):
    path = tmp_path / name
    path.write_text(canonical_json(raw), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def grid_builds(monkeypatch):
    """Counts ``build_grid`` calls made through every module that binds it."""
    calls = []
    original = bidcoord.cli.build_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (bidcoord.cli, bidcoord.arbitrary, bidcoord.limited):
        monkeypatch.setattr(module, "build_grid", counting)
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

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(canonical_json(example1_raw())))
        code, out, _ = run_cli(capsys, "validate", "-")
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_round_trip_byte_identical(self, tmp_path, capsys):
        path = write_instance(tmp_path, example1_raw())
        original = open(path, encoding="utf-8").read()
        code, out, _ = run_cli(capsys, "validate", path)
        doc = json.loads(out)
        assert canonical_json(doc["normalized"]) == original


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
            code, _, _ = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 0
        assert [str(w.message) for w in caught] == [
            "support bid needs 59 fractional bits; capping at 53"
        ]


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

    def test_invalid_file_exit_one(self, tmp_path, capsys):
        raw = example1_raw()
        del raw["slots"]
        path = write_instance(tmp_path, raw)
        code, _, err = run_cli(capsys, "solve", path)
        assert code == 1
        assert "slots" in err

    @pytest.mark.parametrize("mode", ["arbitrary", "limited-liability"])
    def test_grid_built_once(self, capsys, grid_builds, mode):
        code, out, _ = run_cli(capsys, "solve", EXAMPLE3, "--mode", mode)
        assert code == 0
        assert len(grid_builds) == 1
        assert json.loads(out)["grid"]["pruned_size"] == 2

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

        def boom(instance, epsilon, grid=None):
            raise ToleranceError("synthetic breach")

        monkeypatch.setattr(cli_mod, "solve_ll", boom)
        path = write_instance(tmp_path, example1_raw())
        code, _, err = run_cli(capsys, "solve", path, "--mode", "limited-liability")
        assert code == 3
        assert "synthetic breach" in err


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

    def test_wup_p(self, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"revenue_weights": [1.0, 1.0], "payment_weight": 1.0}))
        code, out, err = run_cli(capsys, "wup", EXAMPLE3, "--weights-file", str(weights),
                                 "--p", "1.5")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "--p" in err


class TestBaseline:
    def test_example1(self, tmp_path, capsys):
        path = write_instance(tmp_path, example1_raw())
        code, out, _ = run_cli(capsys, "baseline", path)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["baseline"]["cumulative"] - 0.1) < 1e-9
        assert abs(doc["baseline"]["ratio"] - 6.0) < 1e-6
        assert abs(doc["with_agency"]["objective"] - 0.6) < 1e-9


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
