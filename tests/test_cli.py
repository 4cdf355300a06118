import io
import json

import pytest

from fidmod.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_tsv(capsys):
    code, out, _ = run_cli(capsys, "dim", "--d", "2", "--gen", "M(0)", "--range", "0..4")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[0] == ["n", "dim"]
    assert [r[1] for r in rows[1:]] == ["1", "2", "4", "8", "16"]


def test_dim_d1_generator_degree_one(capsys):
    code, out, _ = run_cli(capsys, "dim", "--d", "1", "--gen", "M(1)", "--range", "1..3")
    assert code == 0
    assert [line.split("\t")[1] for line in out.strip().splitlines()[1:]] == ["1", "2", "3"]


def test_dim_below_generation_degree(capsys):
    code, out, _ = run_cli(capsys, "dim", "--d", "2", "--gen", "[1]", "--range", "0..1")
    assert code == 0
    assert [line.split("\t")[1] for line in out.strip().splitlines()[1:]] == ["0", "1"]


def test_dim_json(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--d", "2", "--gen", "M(0)", "--range", "0..3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][-1] == {"n": 3, "dim": "8"}


def test_decompose_json_schema(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--d", "2", "--gen", "M(0)", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 2,
        "terms": [
            {"multiplicity": "3", "partition": [2]},
            {"multiplicity": "1", "partition": [1, 1]},
        ],
    }


def test_decompose_degree_zero(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--d", "2", "--gen", "M(0)", "--n", "0")
    assert json.loads(out) == {"n": 0, "terms": [{"multiplicity": "1", "partition": []}]}
    assert code == 0


def test_decompose_single_strip(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--d", "1", "--gen", "[1]", "--n", "3")
    payload = json.loads(out)
    assert [t["partition"] for t in payload["terms"]] == [[3], [2, 1]]
    assert code == 0


def test_decompose_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--d", "2", "--gen", "M(0)", "--n", "2", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines() == ["partition\tmultiplicity", "[2]\t3", "[1,1]\t1"]


def test_determinism(capsys):
    args = ("decompose", "--d", "3", "--gen", "M(2)", "--n", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_stabilize(capsys):
    code, out, _ = run_cli(
        capsys, "stabilize", "--d", "2", "--gen", "[1]", "--lambda", "[]", "--pads", "2,2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2" and payload["onset"] == 0


def test_stabilize_m0(capsys):
    code, out, _ = run_cli(
        capsys, "stabilize", "--d", "2", "--gen", "M(0)", "--lambda", "[]", "--pads", "1,1"
    )
    assert json.loads(out)["value"] == "1"
    assert code == 0


def test_stabilize_trivial_d1(capsys):
    code, out, _ = run_cli(
        capsys, "stabilize", "--d", "1", "--gen", "M(0)", "--lambda", "[]", "--pads", "0"
    )
    payload = json.loads(out)
    assert payload["value"] == "1" and payload["onset"] == 0
    assert code == 0


def test_stabilize_horizon_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "stabilize", "--d", "1", "--gen", "[2]", "--lambda", "[]", "--pads", "0",
        "--horizon", "1",
    )
    assert code == 3 and "horizon" in err


def test_fit_dims(capsys):
    code, out, _ = run_cli(capsys, "fit", "--mode", "dims", "--d", "2", "--gen", "M(0)")
    assert code == 0
    payload = json.loads(out)
    assert payload["bases"] == 2 and payload["exact"] is True
    assert payload["polynomials"] == [[], ["1"]]


def test_fit_mult_m0_trivial(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--mode", "mult", "--lambda", "[]", "--d", "2", "--gen", "M(0)"
    )
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "1"] and payload["degree"] == 1
    assert code == 0


def test_fit_mult_one_box(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--mode", "mult", "--lambda", "[1]", "--d", "2", "--gen", "M(0)"
    )
    payload = json.loads(out)
    assert payload["coefficients"] == ["-1", "1"]
    assert code == 0


def test_fit_mult_d1(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--mode", "mult", "--lambda", "[]", "--d", "1", "--gen", "M(0)"
    )
    payload = json.loads(out)
    assert payload["coefficients"] == ["1"] and payload["degree"] == 0
    assert code == 0


def test_fit_stdin_series(capsys, monkeypatch):
    series = {str(n): str(2**n) for n in range(9)}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"series": series})))
    code, out, _ = run_cli(
        capsys, "fit", "--mode", "dims", "--d", "2", "--degree-bound", "0", "--stdin"
    )
    assert code == 0
    assert json.loads(out)["polynomials"] == [[], ["1"]]


def test_fit_stdin_corrupted_series_exits_3(capsys, monkeypatch):
    values = {n: 2**n for n in range(9)}
    values[7] += 1
    series = {str(n): str(v) for n, v in values.items()}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"series": series})))
    code, _, err = run_cli(
        capsys, "fit", "--mode", "dims", "--d", "2", "--degree-bound", "0", "--stdin"
    )
    assert code == 3 and "fit" in err


def test_fit_requires_gen_or_stdin(capsys):
    code, _, err = run_cli(capsys, "fit", "--mode", "dims", "--d", "2")
    assert code == 2


def test_oracle_check_pass(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--max", "3")
    assert code == 0 and out.startswith("PASS")


def test_oracle_check_json(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--max", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["pass"] is True and payload["counterexample"] is None
    assert code == 0


def test_oracle_check_respects_limit(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--max", "11")
    assert code == 2 and "limit" in err


def test_parse_errors_exit_2(capsys):
    code, _, _ = run_cli(capsys, "decompose", "--d", "2", "--gen", "[1,2]", "--n", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "dim", "--d", "2", "--gen", "M(0)", "--range", "5..1")
    assert code == 2
    code, _, _ = run_cli(capsys, "dim", "--d", "2", "--gen", "Q(0)", "--range", "0..2")
    assert code == 2


def test_usage_error_exit_2(capsys):
    assert main(["dim", "--d", "2"]) == 2  # missing --gen/--range
    capsys.readouterr()


def test_bad_pads_exit_2(capsys):
    code, _, _ = run_cli(
        capsys, "stabilize", "--d", "2", "--gen", "M(0)", "--lambda", "[]", "--pads", "1,2"
    )
    assert code == 2


def test_decompose_negative_level_exit_2(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--d", "2", "--gen", "M(0)", "--n", "-3")
    assert code == 2 and out == ""


def test_oracle_check_negative_max_exit_2(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--max", "-2")
    assert code == 2 and out == ""


def test_stabilize_negative_horizon_exit_2(capsys):
    args = ("stabilize", "--d", "2", "--gen", "M(0)", "--lambda", "[]", "--pads", "1,1")
    code, out, _ = run_cli(capsys, *args, "--horizon", "-1")
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("dim", "--d", "2", "--gen", "M(0)", "--range=-3..1"),
        ("fit", "--mode", "mult", "--d", "2", "--gen", "M(0)", "--lambda", "[1]", "--window=-3..4"),
    ],
)
def test_negative_degree_range_exit_2(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2 and out == ""


def test_fit_negative_degree_bound_exit_2(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--mode", "mult", "--d", "2", "--gen", "M(0)", "--degree-bound", "-1"
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "payload",
    [
        {"series": ["1", "2", "4"]},
        ["1", "2"],
        {"series": {"0": None, "1": "2"}},
        {"series": {str(n): True for n in range(8)}},
        {"series": {str(n): "1" for n in range(-3, 5)}},
    ],
)
@pytest.mark.parametrize("mode", ["dims", "mult"])
def test_fit_stdin_malformed_series_exit_2(capsys, monkeypatch, payload, mode):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(
        capsys, "fit", "--mode", mode, "--d", "2", "--degree-bound", "0", "--stdin"
    )
    assert code == 2 and out == "" and "internal error" not in err


@pytest.mark.parametrize("d", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("fit", "--mode", "dims", "--stdin", "--degree-bound", "0"),
        ("fit", "--mode", "mult", "--stdin", "--lambda", "[1]"),
        ("fit", "--mode", "dims", "--gen", "M(0)"),
        ("fit", "--mode", "mult", "--gen", "M(0)", "--lambda", "[1]"),
        ("dim", "--gen", "M(0)", "--range", "0..3"),
        ("decompose", "--gen", "M(0)", "--n", "2"),
        ("stabilize", "--gen", "M(0)", "--lambda", "[]", "--pads", "1,1"),
    ],
)
def test_non_positive_color_count_exit_2(capsys, monkeypatch, argv, d):
    series = {"series": {str(n): str(2**n) for n in range(8)}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(series)))
    code, out, err = run_cli(capsys, *argv, "--d", d)
    assert code == 2 and out == "" and "--d" in err
