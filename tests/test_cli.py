import contextlib
import io
import json
import re
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fidmod import cli
from fidmod.characters import decompose, induce_trivial_product
from fidmod.cli import MAX_DEGREE, main
from fidmod.partitions import compositions, partitions_of
from fidmod.pieri import Decomposition


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


@pytest.mark.parametrize(
    "d,gen,n,terms,row_multiplicity",
    [("1", "M(0)", 5000, 1, 1), ("2", "M(0)", 995, 498, 996), ("2", "[1]", 1000, 1000, 1000)],
)
def test_decompose_level_past_recursion_limit(capsys, d, gen, n, terms, row_multiplicity):
    argv = ("decompose", "--d", d, "--gen", gen, "--n", str(n), "--format", "tsv")
    code, out, err = run_cli(capsys, *argv)
    rows = out.splitlines()[1:]
    assert (code, err, len(rows), rows[0]) == (0, "", terms, f"[{n}]\t{row_multiplicity}")


def _partition_text(*blocks):
    """The partition with `count` rows of `size` per (size, count) block, as
    `--gen` reads it and the TSV output prints it."""
    return "[" + ",".join(str(size) for size, count in blocks for _ in range(count)) + "]"


@pytest.mark.parametrize(
    "d,n,expected",
    [
        ("1", 1201, [((2, 1), (1, 1199), 1), ((1, 1201), 1)]),
        ("2", 1202, [((3, 1), (1, 1199), 3), ((2, 2), (1, 1198), 1),
                     ((2, 1), (1, 1200), 4), ((1, 1202), 1)]),
    ],
)
def test_decompose_generator_with_more_rows_than_the_recursion_limit(capsys, d, n, expected):
    # 1,200 equal rows: strips recurse once per block of equal rows, not per row.
    gen = _partition_text((1, 1200))
    argv = ("decompose", "--d", d, "--gen", gen, "--n", str(n), "--format", "tsv")
    code, out, err = run_cli(capsys, *argv)
    rows = [f"{_partition_text(*blocks)}\t{mult}" for *blocks, mult in expected]
    assert (code, err, out.splitlines()[1:]) == (0, "", rows)


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


def test_stabilize_runs_to_the_structural_bound(capsys):
    # guarantee_shift is 30 + 30 - 0 = 60: the plateau from shift 30 is
    # checked at shift 60 against its closed form.
    code, out, _ = run_cli(
        capsys, "stabilize", "--d", "1", "--gen", "[30]", "--lambda", "[]", "--pads", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["onset"], payload["guarantee_shift"]) == ("1", 30, 60)


def test_stabilize_at_the_generator_degree_bound(capsys):
    # guarantee_shift 20,000 at d = 7: the onset is bisected, not walked to.
    code, out, _ = run_cli(
        capsys, "stabilize", "--d", "7", "--gen", "[10000]", "--lambda", "[]",
        "--pads", "0,0,0,0,0,0,0",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["onset"], payload["guarantee_shift"]) == (
        "1391807987132170024501", 10000, 20000
    )


def test_stabilize_kernel_fault_exit_4(capsys, monkeypatch):
    # A kernel that answers the size of the padded label, (l,) at shift l,
    # gives 2 at guarantee_shift 2, not the closed-form plateau 1: an
    # invariant breach, not "no exact fit".
    monkeypatch.setattr("fidmod.free_modules._multiplicity", lambda spec, label: sum(label))
    code, out, err = run_cli(
        capsys, "stabilize", "--d", "1", "--gen", "[1]", "--lambda", "[]", "--pads", "0"
    )
    assert code == 4 and out == "" and "internal error: NoStabilization" in err


def test_internal_key_error_exit_4(capsys, monkeypatch):
    def broken(spec, n):
        raise KeyError(n)

    monkeypatch.setattr(cli, "dim_at", broken)
    code, out, err = run_cli(capsys, "dim", "--d", "2", "--gen", "M(0)", "--range", "0..1")
    assert code == 4 and out == "" and err.startswith("internal error: KeyError")


@pytest.mark.parametrize(
    "gen, bound",
    [
        (f"M({cli.MAX_REGULAR_DEGREE + 1})", cli.MAX_REGULAR_DEGREE),
        (f"M({10**20})", cli.MAX_REGULAR_DEGREE),
        (f"[{cli.MAX_GENERATOR_DEGREE + 1}]", cli.MAX_GENERATOR_DEGREE),
        ("[" + ",".join(["1"] * (cli.MAX_GENERATOR_DEGREE + 1)) + "]", cli.MAX_GENERATOR_DEGREE),
    ],
    ids=["M(max+1)", "M(10^20)", "[max+1]", "[1^(max+1)]"],
)
def test_generator_above_bound_exit_2_before_build(capsys, monkeypatch, gen, bound):
    # A started build would raise here and exit 4; the bound refuses first.
    def unbuilt(*args):
        raise AssertionError("generator built")

    monkeypatch.setattr(cli.FreeModuleSpec, "regular", unbuilt)
    monkeypatch.setattr(cli.FreeModuleSpec, "of_irreducible", unbuilt)
    code, out, err = run_cli(capsys, "dim", "--d", "2", "--gen", gen, "--range", "0..1")
    assert code == 2 and out == "" and f"<= {bound}," in err


def test_negative_pads_exit_2_before_build(capsys, monkeypatch):
    # `pad` checks the pads (and the core) before M(40) is built.
    def unbuilt(*args):
        raise AssertionError("generator built")

    monkeypatch.setattr(cli.FreeModuleSpec, "regular", unbuilt)
    code, out, err = run_cli(
        capsys, "stabilize", "--d", "2", "--gen", "M(40)", "--lambda", "[]", "--pads=-5,-9"
    )
    assert code == 2 and out == "" and "pads must be >= 0" in err


def _column(rows: int) -> str:
    return "[" + ",".join(["1"] * rows) + "]"


CORE_AT_BOUND = _column(cli.MAX_DETERMINANT_ROWS - 2)  # the longest core at d = 2
SHORTEST_PAD = str(cli.MAX_DETERMINANT_ROWS - 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("stabilize", "--gen", CORE_AT_BOUND, "--pads", f"{SHORTEST_PAD},{SHORTEST_PAD}"),
        ("fit", "--mode", "mult", "--gen", CORE_AT_BOUND),
    ],
    ids=["stabilize", "fit-mult"],
)
def test_core_at_length_bound_runs(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--d", "2", "--lambda", CORE_AT_BOUND)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["lambda"] == [1] * (cli.MAX_DETERMINANT_ROWS - 2)
    if argv[0] == "stabilize":
        assert payload["value"] == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ("stabilize", "--gen", "[1]", "--pads", "99,99"),
        ("fit", "--mode", "mult", "--gen", "[1]"),
    ],
    ids=["stabilize", "fit-mult"],
)
def test_core_past_length_bound_exit_2_before_any_determinant(capsys, monkeypatch, argv):
    def unreached(*args):
        raise AssertionError("work started")

    for name in ("stabilized_padded_multiplicity", "multiplicity_series", "fit_polynomial"):
        monkeypatch.setattr(cli, name, unreached)
    rows = cli.MAX_DETERMINANT_ROWS - 1
    code, out, err = run_cli(capsys, *argv, "--d", "2", "--lambda", _column(rows))
    assert code == 2 and out == "" and f"<= {cli.MAX_DETERMINANT_ROWS}, got {rows} + 2" in err


#: Where each command looks up its determinants: a stabilization computes one
#: per probed shift, a multiplicity series the first-row cofactors of each
#: constituent.
_DETERMINANT_BINDING = {
    "stabilize": "fidmod.free_modules.bounded_chain_count",
    "fit-mult": "fidmod.stability.first_row_cofactors",
}


@pytest.mark.parametrize("command", ["stabilize", "fit-mult"])
@pytest.mark.parametrize(
    "rows, expected",
    [(cli.MAX_DETERMINANT_ROWS - cli.MAX_COLORS, 4), (cli.MAX_DETERMINANT_ROWS - 2, 2)],
    ids=["at-bound", "d2-longest-core"],
)
def test_joint_row_count_exit_2_before_any_determinant(
    capsys, monkeypatch, command, rows, expected
):
    # At d = MAX_COLORS the longest core d = 2 admits passes MAX_DETERMINANT_ROWS.
    # At the bound the stubbed determinant is reached (exit 4); past it, exit 2
    # means the refusal came first.
    def unreached(*args):
        raise AssertionError("determinant started")

    monkeypatch.setattr(_DETERMINANT_BINDING[command], unreached)
    d = cli.MAX_COLORS
    argv = ("--d", str(d), "--gen", "[10000]", "--lambda", _column(rows))
    if command == "stabilize":
        argv = ("stabilize", *argv, "--pads", ",".join(["0"] * d))
    else:
        argv = ("fit", "--mode", "mult", *argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == expected and out == "", err
    if expected == 2:
        assert f"<= {cli.MAX_DETERMINANT_ROWS}, got {rows} + {d}" in err


def test_fit_mult_stdin_parses_its_core_but_builds_no_determinant(capsys, monkeypatch):
    core = _column(cli.MAX_DETERMINANT_ROWS)
    monkeypatch.setattr(sys, "stdin", io.StringIO(_series_payload(range(8))))
    code, out, err = run_cli(
        capsys, "fit", "--mode", "mult", "--d", "2", "--stdin", "--lambda", core
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["lambda"] == [1] * cli.MAX_DETERMINANT_ROWS
    assert payload["coefficients"] == ["1"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(_series_payload(range(8))))
    code, out, err = run_cli(
        capsys, "fit", "--mode", "mult", "--d", "2", "--stdin", "--lambda", "[garbage"
    )
    assert code == 2 and out == ""


def _color_argv(command: str, d: int) -> tuple[str, ...]:
    if command == "stabilize":
        return ("stabilize", "--gen", "[1]", "--lambda", "[1]", "--pads", ",".join(["2"] * d))
    return ("fit", "--mode", "mult", "--gen", "[1]", "--lambda", "[1]")


@pytest.mark.parametrize("command", ["stabilize", "fit-mult"])
@pytest.mark.parametrize(
    "d, stubbed, expected",
    [(cli.MAX_COLORS, False, 0), (cli.MAX_COLORS, True, 4), (cli.MAX_COLORS + 1, True, 2)],
    ids=["at-bound", "at-bound-stubbed", "past-bound-stubbed"],
)
def test_color_count_bound_exit_2_before_any_determinant(
    capsys, monkeypatch, command, d, stubbed, expected
):
    # At the bound the command runs, and reaches the stubbed determinant
    # (exit 4); past it, exit 2 means the refusal came first.
    def unreached(*args):
        raise AssertionError("determinant started")

    if stubbed:
        monkeypatch.setattr(_DETERMINANT_BINDING[command], unreached)
    code, out, err = run_cli(capsys, *_color_argv(command, d), "--d", str(d))
    assert code == expected, err
    assert bool(out) == (expected == 0)
    if expected == 2:
        assert f"--d must be <= {cli.MAX_COLORS}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dim", "--gen", "M(0)", "--range", "0..2"),
        ("decompose", "--gen", "M(0)", "--n", "2"),
        ("fit", "--mode", "dims", "--gen", "M(0)", "--degree-bound", "0"),
    ],
    ids=["dim", "decompose", "fit-dims"],
)
def test_color_count_unbounded_where_no_determinant_grows_with_it(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--d", str(cli.MAX_COLORS + 1))
    assert code == 0, err


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
    assert "(--gen GEN | --stdin)" in " ".join(err.split())


def test_fit_gen_and_stdin_are_exclusive(capsys, monkeypatch):
    series = {str(n): str(2**n) for n in range(8)}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"series": series})))
    code, out, err = run_cli(
        capsys, "fit", "--mode", "dims", "--d", "2", "--gen", "M(0)", "--degree-bound", "0",
        "--stdin",
    )
    assert code == 2 and out == "" and "not allowed with" in err


@pytest.mark.parametrize("lam", ["[garbage", "[1]", "[]"])
def test_fit_dims_refuses_lambda(capsys, lam):
    code, out, err = run_cli(
        capsys, "fit", "--mode", "dims", "--d", "2", "--gen", "M(0)", "--lambda", lam
    )
    assert code == 2 and out == "" and "--lambda" in err


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
        # two keys that name one degree: the later value would silently win
        {"series": {**{str(n): str(2**n) for n in range(8)}, "01": "3"}},
        {"series": {**{str(n): str(2**n) for n in range(12)}, "1_0": "5"}},
        pytest.param(
            '{"series": {"1": "9", ' + ", ".join(f'"{n}": "{2**n}"' for n in range(8)) + "}}",
            id="payload7",
        ),
    ],
)
@pytest.mark.parametrize("mode", ["dims", "mult"])
def test_fit_stdin_malformed_series_exit_2(capsys, monkeypatch, payload, mode):
    text = payload if isinstance(payload, str) else json.dumps(payload)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
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


def test_int_str_limit_exit_2_with_empty_stdout(capsys):
    # 10^4300 has 4,301 digits, one past Python's int -> str limit; the
    # header and the 4,300-digit row before it are formatted first.
    code, out, err = run_cli(capsys, "dim", "--d", "10", "--gen", "M(0)", "--range", "4299..4300")
    assert code == 2 and out == "" and "4300 digits" in err


def test_oracle_check_failure_text_reaches_stdout(capsys, monkeypatch):
    monkeypatch.setattr(cli, "pieri_product", lambda mu, a: Decomposition(sum(mu) + sum(a), {}))
    code, out, _ = run_cli(capsys, "oracle-check", "--max", "1")
    assert code == 4 and out.startswith("FAIL at case 1: mu=[] a=[0]")


def _oracle_scan_order(max_total):
    """(mu, a) in the order oracle_scan visits them, one per case."""
    for msize in range(max_total + 1):
        for mu in partitions_of(msize):
            for total in range(max_total - msize + 1):
                for length in (1, 2, 3):
                    for a in compositions(total, length):
                        yield mu, a


def _nonzero_parts(a):
    return tuple(sorted(k for k in a if k))


@pytest.mark.parametrize("bad", [(2, 1), (1, 2), (0, 2, 1)])
def test_oracle_scan_compares_every_ordering(monkeypatch, bad):
    # For mu = (1) the parts {1, 2} first appear as a = (2, 1); (1, 2) and
    # (0, 2, 1) come later and reuse its character.  A wrong chain count on
    # any one ordering must still fail at that ordering's own case number.
    mu = (1,)
    order = list(_oracle_scan_order(4))
    first_seen = next(a for m, a in order if m == mu and _nonzero_parts(a) == (1, 2))
    assert first_seen == (2, 1)
    real = cli.pieri_product

    def corrupted(m, a):
        return real(m, (sum(a),)) if (m, a) == (mu, bad) else real(m, a)

    monkeypatch.setattr(cli, "pieri_product", corrupted)
    cases, witness = cli.oracle_scan(4)
    assert cases == order.index((mu, bad)) + 1
    assert witness == {
        "mu": [1],
        "a": list(bad),
        "chain_counts": real(mu, (3,)).to_json_dict(),
        "character_oracle": decompose(induce_trivial_product(mu, bad)).to_json_dict(),
    }


@pytest.mark.parametrize("max_total, cases, characters", [(6, 605, 127), (7, 1061, 219), (8, 1793, 366)])
def test_oracle_scan_builds_each_character_once(monkeypatch, max_total, cases, characters):
    calls = Counter()

    def counted(name):
        inner = getattr(cli, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in ("induce_trivial_product", "decompose"):
        monkeypatch.setattr(cli, name, counted(name))
    assert cli.oracle_scan(max_total) == (cases, None)
    assert calls == {"induce_trivial_product": characters, "decompose": characters}
    keys = {(mu, _nonzero_parts(a)) for mu, a in _oracle_scan_order(max_total)}
    assert len(keys) == characters


def _series_payload(degrees):
    return json.dumps({"series": {str(n): "1" for n in degrees}})


def test_fit_stdin_degree_above_bound_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(_series_payload(range(10**6, 10**6 + 9))))
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "fit", "--mode", "dims", "--d", "3", "--degree-bound", "1", "--stdin"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and str(MAX_DEGREE) in err


def test_fit_stdin_degree_at_bound_fits(capsys, monkeypatch):
    degrees = range(MAX_DEGREE - 8, MAX_DEGREE + 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(_series_payload(degrees)))
    code, out, _ = run_cli(
        capsys, "fit", "--mode", "dims", "--d", "3", "--degree-bound", "1", "--stdin"
    )
    assert code == 0
    assert json.loads(out)["polynomials"] == [["1"], [], []]


def test_fit_work_above_bound_exit_2_before_elimination(capsys, monkeypatch):
    # d = 8, degree bound 3: 32 unknowns on ~30,000-bit entries, over two
    # minutes of elimination if it were started.
    degrees = range(MAX_DEGREE - 40, MAX_DEGREE + 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(_series_payload(degrees)))
    monkeypatch.setattr(cli, "fit_exponential_polynomial", None)  # never reached
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "fit", "--mode", "dims", "--d", "8", "--degree-bound", "3", "--stdin"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "too large" in err


def test_fit_work_bound_sits_between_the_measured_cases():
    # At degree 10^4, d = 4 with degree bound 2 fits in under a second; d = 8
    # with degree bound 3 ran over two minutes.
    cli._check_fit_work(MAX_DEGREE, 4, 3)
    with pytest.raises(ValueError, match="too large"):
        cli._check_fit_work(MAX_DEGREE, 8, 4)
    # The bound is inclusive: 100 unknowns (d = 2, degree bound 49) up to
    # degree 2 sit on 49 * 2 + 2 = 100-bit entries, work exactly 100^5 * 100^2.
    assert 100**5 * 100**2 == cli.MAX_FIT_WORK
    cli._check_fit_work(2, 2, 50)


def test_fit_window_above_bound_exit_2(capsys):
    window = f"{MAX_DEGREE + 1}..{MAX_DEGREE + 10}"
    code, out, _ = run_cli(
        capsys, "fit", "--mode", "mult", "--d", "2", "--gen", "M(0)", "--window", window
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize("gen", ["M(40)", "[3000]"])
def test_generator_fit_refused_before_any_series_term(capsys, monkeypatch, gen):
    # Both default windows pass MAX_FIT_WORK; computing their series took
    # 64 s (M(40)) and 93 s ([3000]) when the work check came after it.
    def unreached(*args):
        raise AssertionError("series started")

    monkeypatch.setattr(cli, "dim_at", unreached)
    monkeypatch.setattr(cli, "multiplicity_series", unreached)
    code, out, err = run_cli(capsys, "fit", "--mode", "dims", "--d", "2", "--gen", gen)
    assert code == 2 and out == "" and "too large" in err


def test_regular_generator_fit_refused_before_it_is_built(capsys, monkeypatch):
    # The degree bound, the default window and the work check read only d
    # and k; building M(40) first took a second before the same refusal.
    def unbuilt(*args):
        raise AssertionError("generator built")

    monkeypatch.setattr(cli.FreeModuleSpec, "regular", unbuilt)
    code, out, err = run_cli(capsys, "fit", "--mode", "dims", "--d", "2", "--gen", "M(40)")
    assert code == 2 and out == "" and "too large" in err


def test_dim_range_above_bound_exit_2_before_any_row(capsys, monkeypatch):
    # 0..3000000 used to build every row first: 10 s and 1.27 GB.
    def unreached(*args):
        raise AssertionError("row computed")

    monkeypatch.setattr(cli, "dim_at", unreached)
    argv = ("dim", "--d", "2", "--gen", "M(0)", "--range", f"0..{MAX_DEGREE + 1}")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and str(MAX_DEGREE) in err


def test_dim_range_at_bound_answers(capsys):
    argv = ("dim", "--d", "2", "--gen", "M(0)", "--range", f"0..{MAX_DEGREE}")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    rows = out.splitlines()
    assert len(rows) == MAX_DEGREE + 2 and rows[-1] == f"{MAX_DEGREE}\t{2**MAX_DEGREE}"


def test_default_window_is_admitted_by_the_work_check_alone(capsys):
    # The default window of [10000] ends past MAX_DEGREE; the same degrees
    # given as --window are refused.
    argv = ("fit", "--mode", "mult", "--d", "2", "--gen", "[10000]", "--lambda", "[]")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["coefficients"] == ["-9999", "1"]
    code, out, err = run_cli(capsys, *argv, "--window", "10004..10009")
    assert code == 2 and out == "" and str(MAX_DEGREE) in err


def test_fit_dims_stdin_needs_degree_bound(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(_series_payload(range(8))))
    code, out, err = run_cli(capsys, "fit", "--mode", "dims", "--d", "2", "--stdin")
    assert code == 2 and out == "" and "--degree-bound is required" in err


def test_negative_pads_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "stabilize", "--d", "2", "--gen", "[1]", "--lambda", "[]", "--pads=-5,-9"
    )
    assert code == 2 and out == "" and "pads" in err


# --- malformed arguments and payloads, generated ---------------------------


def _run_quiet(argv, stdin=""):
    """cli.main on argv with stdin text; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _assert_usage_error(argv, stdin=""):
    code, out, err = _run_quiet(argv, stdin)
    assert (code, out) == (2, ""), (argv, stdin, code, err)
    assert "internal error" not in err


#: Tokens that int() rejects.
_GARBAGE = st.sampled_from(["", "x", "1.5", "1e3", "--1", "0x1", "1 1", "[1]", "None"])

_not_a_partition = st.one_of(
    # integers, but a part <= 0 or a part larger than the one before it
    st.lists(st.integers(-9, 9), min_size=1, max_size=5)
    .filter(lambda p: min(p) <= 0 or any(a < b for a, b in zip(p, p[1:])))
    .map(lambda p: "[" + ",".join(map(str, p)) + "]"),
    # bracketed, with at least one token that is not an integer ("[]" alone is ())
    st.tuples(st.lists(st.integers(1, 5).map(str), max_size=3), _GARBAGE, st.integers(0, 3))
    .map(lambda t: "[" + ",".join(t[0][: t[2]] + [t[1]] + t[0][t[2] :]) + "]")
    .filter(lambda text: text != "[]"),
    # integers without both brackets
    st.lists(st.integers(1, 5).map(str), max_size=3)
    .map(",".join)
    .flatmap(lambda body: st.sampled_from([body, "[" + body, body + "]", f"({body})"])),
)

_not_a_generator = st.one_of(
    _not_a_partition,
    st.integers(max_value=-1).map(lambda k: f"M({k})"),
    st.sampled_from(["M()", "M(1", "M1)", "m(1)", "M(1.5)", "M(x)", "M[1]", "M(1)(2)"]),
)

_not_pads = st.one_of(
    # weakly decreasing, length d = 2, at least one negative row length
    st.tuples(st.integers(-50, 50), st.integers(-50, 50))
    .map(sorted)
    .filter(lambda p: p[0] < 0)
    .map(lambda p: f"{p[1]},{p[0]}"),
    st.lists(st.one_of(_GARBAGE, st.integers(0, 5).map(str)), min_size=1, max_size=3)
    .filter(lambda toks: not all(re.fullmatch(r"\s*\d+\s*", t) for t in toks))
    .map(",".join),
)

_not_a_range = st.one_of(
    st.tuples(st.integers(0, 50), st.integers(1, 50)).map(lambda t: f"{t[0] + t[1]}..{t[0]}"),
    st.tuples(st.integers(max_value=-1), st.integers(0, 50)).map(lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from(["", "1", "1..", "..3", "1...3", "a..b", "1-3", "1..3..5", "1.5..3", "0.. 2x"]),
)

_series_entries = st.dictionaries(
    st.integers(0, 12).map(str), st.integers(0, 99).map(str), max_size=10
)
_bad_entry = st.one_of(
    st.tuples(
        st.sampled_from(["x", "-1", "1.5", "", "1e2", str(MAX_DEGREE + 1)]), st.just("1")
    ),
    st.tuples(st.just("0"), st.sampled_from([None, 1.5, True, False, [1], {}, "x", "1.5", ""])),
)

_not_a_series_payload = st.one_of(
    st.sampled_from(["", "{", "[1,", '{"series": {"0": 1,}}', "[" * 10**4 + "]" * 10**4]),
    st.one_of(st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=3))
    .map(json.dumps),
    st.one_of(st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=3))
    .map(lambda series: json.dumps({"series": series})),
    st.tuples(_series_entries, _bad_entry).map(
        lambda t: json.dumps({"series": {**t[0], t[1][0]: t[1][1]}})
    ),
)

_GENERATED = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_GENERATED
@given(_not_a_generator)
def test_generated_bad_generator_exit_2(text):
    _assert_usage_error(["dim", "--d", "2", f"--gen={text}", "--range", "0..2"])


@_GENERATED
@given(_not_a_partition)
def test_generated_bad_lambda_exit_2(text):
    _assert_usage_error(
        ["stabilize", "--d", "2", "--gen", "M(0)", f"--lambda={text}", "--pads", "1,1"]
    )


@_GENERATED
@given(_not_pads)
def test_generated_bad_pads_exit_2(text):
    _assert_usage_error(
        ["stabilize", "--d", "2", "--gen", "[1]", "--lambda", "[]", f"--pads={text}"]
    )


@_GENERATED
@given(_not_a_range, st.booleans())
def test_generated_bad_range_exit_2(text, as_window):
    if as_window:
        argv = ["fit", "--mode", "mult", "--d", "2", "--gen", "M(0)", f"--window={text}"]
    else:
        argv = ["dim", "--d", "2", "--gen", "M(0)", f"--range={text}"]
    _assert_usage_error(argv)


@_GENERATED
@given(_not_a_series_payload, st.sampled_from(["dims", "mult"]))
def test_generated_bad_stdin_series_exit_2(payload, mode):
    _assert_usage_error(
        ["fit", "--mode", mode, "--d", "2", "--degree-bound", "0", "--stdin"], payload
    )
