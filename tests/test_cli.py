"""CLI contract: exit codes, JSON schema, build round-trip, verify."""
import json
import math

import numpy as np
import pytest

import blockenc.encoding
from blockenc.circuit import count_resources, parse_circuit_text
from blockenc.cli import main

REPORT_KEYS = {"config", "qubits", "t_count", "t_depth", "breakdown",
               "formula", "match", "ledger_refs"}


@pytest.fixture
def matrix_csv(tmp_path):
    def write(a, name="matrix.csv"):
        path = tmp_path / name
        path.write_text("\n".join(",".join(f"{x:.12g}" for x in row)
                                  for row in np.atleast_2d(a)))
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_estimate_prerotated_example(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--n", "4", "--epsilon", "0.01",
                           "--alpha", "993.8", "--method", "prerotated",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == REPORT_KEYS
    # 10n + 8 R_y - 4 with R_y = 62
    assert payload["t_depth"] == 532
    assert payload["config"]["ry"] == 62


def test_estimate_constraint_error(capsys):
    code, _, err = run_cli(capsys, "estimate", "--method", "prerotated",
                           "--qram", "ss", "--n", "2", "--alpha", "5")
    assert code == 2
    assert "pre-rotated" in err


def test_estimate_table4_evaluation(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--n", "2", "--lambda", "1",
                           "--t", "8", "--ry", "30", "--method", "fixed",
                           "--qram", "ss", "--alpha", "5.0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    from blockenc.resources import evaluate
    want = evaluate("be_ss", n=2, t=8, lam=1, ry=30)
    assert payload["qubits"] == want.qubits
    assert payload["t_count"] == want.t_count


def test_estimate_qnorm_report(capsys, matrix_csv):
    path = matrix_csv(np.array([[3.0, 0.0], [0.0, 4.0]]))
    code, out, _ = run_cli(capsys, "estimate", "--matrix", path,
                           "--norm", "qnorm:1.0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["mu_p"] - 4.0) < 1e-9


def test_estimate_qnorm_report_rectangular(capsys, matrix_csv):
    a = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -0.25]])
    p = 0.5
    code, out, _ = run_cli(capsys, "estimate", "--matrix", matrix_csv(a),
                           "--norm", f"qnorm:{p}", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # mu_p and chi from their definitions, in plain numpy
    row_pow = (np.abs(a) ** (2 * p)).sum(axis=1)
    col_pow = (np.abs(a) ** (2 * (1 - p))).sum(axis=0)
    mu = np.sqrt(row_pow.max() * col_pow.max())
    assert abs(payload["mu_p"] - mu) < 1e-12 * mu
    assert np.allclose(payload["chi_row"],
                       np.arccos(np.sqrt(row_pow / row_pow.max())), atol=1e-12)
    assert np.allclose(payload["chi_col"],
                       np.arccos(np.sqrt(col_pow / col_pow.max())), atol=1e-12)


@pytest.mark.parametrize("a", [[[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
                               [[1.0, 0.0, 2.0], [3.0, 0.0, 4.0]]])
def test_estimate_qnorm_zero_row_or_column_exits_2(capsys, matrix_csv, a):
    code, out, err = run_cli(capsys, "estimate", "--matrix",
                             matrix_csv(np.array(a)), "--norm", "qnorm:0.5")
    assert code == 2
    assert out == ""
    assert "degenerate" in err


def test_build_round_trip(capsys, matrix_csv, tmp_path):
    path = matrix_csv(np.eye(2))
    out_path = tmp_path / "circuit.txt"
    code, out, _ = run_cli(capsys, "build", "--matrix", path, "--method",
                           "fixed", "--qram", "ss", "--lambda", "1",
                           "--t", "4", "--out", str(out_path))
    assert code == 0
    parsed = parse_circuit_text(out_path.read_text())
    report = json.loads(out_path.with_suffix(".report.json").read_text())
    assert set(report) >= REPORT_KEYS
    counted = count_resources(parsed, ry_cost=report["config"]["ry"])
    assert counted.qubits == report["qubits"]
    assert counted.t_count == report["t_count"]
    assert counted.t_depth == report["t_depth"]
    assert report["match"] is True


def test_build_out_text_matches_report(capsys, matrix_csv, tmp_path):
    rng = np.random.default_rng(7)
    path = matrix_csv(rng.uniform(5, 105, (4, 4)))
    out_path = tmp_path / "circuit.txt"
    code, out, _ = run_cli(capsys, "build", "--matrix", path, "--t", "6",
                           "--ry", "20", "--out", str(out_path))
    assert code == 0
    parsed = parse_circuit_text(out_path.read_text())
    # The message counts the built circuit's ops, one line each.
    assert f"({parsed.total_qubits} qubits, {len(parsed.ops)} ops)" in out
    report = json.loads(out_path.with_suffix(".report.json").read_text())
    counted = count_resources(parsed, ry_cost=20)
    assert counted.as_tuple() == (report["qubits"], report["t_count"],
                                  report["t_depth"])
    assert counted.to_dict()["breakdown"] == report["breakdown"]
    assert len(report["breakdown"]) > 1


def test_build_padding_report(capsys, matrix_csv):
    rng = np.random.default_rng(0)
    path = matrix_csv(rng.standard_normal((3, 5)))
    code, out, _ = run_cli(capsys, "build", "--matrix", path, "--t", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["original_shape"] == [3, 5]
    assert payload["config"]["padded_shape"] == [8, 8]


def test_build_prerotated_qubits_match_table5(capsys, matrix_csv):
    rng = np.random.default_rng(1)
    path = matrix_csv(rng.standard_normal((4, 4)))
    code, out, _ = run_cli(capsys, "build", "--matrix", path, "--method",
                           "prerotated", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["qubits"] == 4 * 16 - 3 * 4 + 2 * 2 - 1
    assert payload["match"] is True


def test_prerotated_report_quotes_the_capped_depth_rule(capsys, matrix_csv):
    """At R_y = 7 < 3n - 2 = 10 the ledger offsets the 16x16 pre-rotated
    T-depth by -7, and the report quotes that capped rule."""
    path = matrix_csv(np.random.default_rng(0).uniform(5, 105, (16, 16)))
    code, out, _ = run_cli(capsys, "build", "--matrix", path, "--method",
                           "prerotated", "--ry", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["t_depth"], payload["formula"]["t_depth"]) == (85, 92)
    assert payload["match"] is True
    (ref,) = payload["ledger_refs"]
    assert ref.startswith("be_prerotated.t_depth [all n] -min(3n-2, R_y) (")


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("extra", [("--qram", "ss"), ("--lambda", "1")])
def test_prerotated_with_another_loader_or_lambda_exits_2(
        capsys, matrix_csv, command, extra):
    path = matrix_csv(np.random.default_rng(2).standard_normal((4, 4)))
    code, _, err = run_cli(capsys, command, "--matrix", path, "--method",
                           "prerotated", *extra)
    assert code == 2
    assert err == ("error: the pre-rotated method is only available with "
                   "the flags access model and lambda = n\n")


@pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
def test_prerotated_on_non_power_of_two_matrix(capsys, matrix_csv, shape):
    rng = np.random.default_rng(2)
    path = matrix_csv(rng.uniform(5, 105, shape))
    code, out, err = run_cli(capsys, "build", "--matrix", path, "--method",
                             "prerotated", "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["config"]["n"] == 2
    assert payload["config"]["lambda"] == 2
    assert payload["match"] is True
    code, out, err = run_cli(capsys, "verify", "--matrix", path, "--method",
                             "prerotated", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["passed"] is True


def test_build_ragged_csv_rejected(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    code, _, err = run_cli(capsys, "build", "--matrix", str(path))
    assert code == 2
    assert "ragged" in err


def test_verify_pass_fixed(capsys, matrix_csv):
    rng = np.random.default_rng(2)
    path = matrix_csv(rng.standard_normal((4, 4)))
    code, out, _ = run_cli(capsys, "verify", "--matrix", path, "--method",
                           "fixed", "--qram", "ss", "--lambda", "2",
                           "--t", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["error"] <= payload["bound"]
    assert payload["bound_kind"].startswith("rounding")


@pytest.mark.parametrize("variant", ["standard", "symmetric"])
@pytest.mark.parametrize("entry", [1e12, 1e15])
def test_verify_large_entry_passes(capsys, matrix_csv, entry, variant):
    """The fixed-precision bound is floored at 1e-9 * alpha, which the
    simulator's rounding error at this alpha stays under."""
    path = matrix_csv(np.array([[1.0, 2.0], [3.0, entry]]))
    code, out, _ = run_cli(capsys, "verify", "--matrix", path, "--variant",
                           variant, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True
    assert payload["bound"] == 1e-9 * payload["config"]["alpha"]
    assert payload["bound_kind"] == "simulation floor: 1e-9 * alpha"


def test_verify_pass_prerotated(capsys, matrix_csv):
    rng = np.random.default_rng(3)
    path = matrix_csv(rng.standard_normal((4, 4)))
    code, out, _ = run_cli(capsys, "verify", "--matrix", path, "--method",
                           "prerotated", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_controlled_passes_with_control_on(capsys, matrix_csv):
    rng = np.random.default_rng(5)
    path = matrix_csv(rng.uniform(5, 105, (4, 4)))
    code, out, _ = run_cli(capsys, "verify", "--matrix", path, "--variant",
                           "controlled", "--t", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["error"] <= payload["bound"]


def test_verify_reports_simulator_support(capsys, matrix_csv):
    rng = np.random.default_rng(6)
    path = matrix_csv(rng.standard_normal((2, 2)))
    code, out, _ = run_cli(capsys, "verify", "--matrix", path, "--method",
                           "prerotated", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # Two columns enter the batched state, and the H layers widen it.
    assert isinstance(payload["peak_support"], int)
    assert payload["peak_support"] > 2
    assert 0.0 <= payload["pruned_weight"] < 1e-20
    assert len(payload["column_leak_weights"]) == 2


def test_verify_corrupted_angle_fails(capsys, matrix_csv, monkeypatch):
    rng = np.random.default_rng(4)
    path = matrix_csv(rng.standard_normal((4, 4)))
    original = blockenc.encoding.fixed_rows_for_trees

    def corrupted(trees, t):
        rows = [list(row) for row in original(trees, t)]
        rows[0][0] ^= 1     # flip the leading bit of one loaded angle
        return [tuple(row) for row in rows]

    monkeypatch.setattr(blockenc.encoding, "fixed_rows_for_trees", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--matrix", path, "--method",
                           "fixed", "--qram", "ss", "--lambda", "1",
                           "--t", "8", "--format", "json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_rejects_large_n(capsys, matrix_csv):
    path = matrix_csv(np.eye(16))
    code, _, err = run_cli(capsys, "verify", "--matrix", path, "--t", "4")
    assert code == 2
    assert "desk-scale" in err


def test_tables_command(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    assert "all 18 match" in out


def test_sweep_command(capsys):
    """The full n <= 2 grid, block encodings included: the totals that
    perfbench pins."""
    code, out, _ = run_cli(capsys, "sweep", "--n-max", "2", "--format",
                           "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["verdicts"], payload["ledger_explained"],
            payload["unexplained"]) == (122, 99, 0)


def test_build_qnorm_rejected(capsys, matrix_csv):
    path = matrix_csv(np.eye(2))
    code, _, err = run_cli(capsys, "build", "--matrix", path,
                           "--norm", "qnorm:0.5")
    assert code == 2
    assert "classical report" in err


@pytest.mark.parametrize("norm, message", [
    ("qnorm:0.5", "classical report"), ("bogus", "unknown normalization")])
def test_verify_honours_norm(capsys, matrix_csv, norm, message):
    path = matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]))
    code, out, err = run_cli(capsys, "verify", "--matrix", path,
                             "--norm", norm)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["build", "verify", "estimate"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_matrix_exits_2(capsys, tmp_path, command, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,2\n3,{value}\n")
    code, _, err = run_cli(capsys, command, "--matrix", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "verify", "estimate"])
def test_overflowing_norm_exits_2(capsys, matrix_csv, command):
    path = matrix_csv(np.full((2, 2), 1e308))
    code, out, err = run_cli(capsys, command, "--matrix", path)
    assert code == 2
    assert out == ""
    assert "overflows a float" in err


def _counts(out):
    payload = json.loads(out)
    return payload["qubits"], payload["t_count"], payload["t_depth"]


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_tiny_and_huge_entries(capsys, matrix_csv, scale):
    """Entries whose squares under- or overflow encode like ordinary ones,
    with epsilon on the same scale."""
    ordinary = np.array([[1.0, 0.0], [0.0, 2.0]])
    plain = matrix_csv(ordinary, "plain.csv")
    path = matrix_csv(ordinary * scale)
    eps = ("--epsilon", repr(0.01 * scale))
    for extra in ((), ("--method", "prerotated")):
        code, out, _ = run_cli(capsys, "build", "--matrix", path, *eps,
                               *extra, "--format", "json")
        assert code == 0
        assert json.loads(out)["match"] is True
        assert json.loads(out)["config"]["alpha"] == \
            pytest.approx(math.sqrt(5) * scale, rel=1e-12)
        code, want, _ = run_cli(capsys, "build", "--matrix", plain, *extra,
                                "--format", "json")
        assert _counts(out) == _counts(want)
        code, out, _ = run_cli(capsys, "verify", "--matrix", path, *eps,
                               *extra, "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True
    code, out, _ = run_cli(capsys, "estimate", "--matrix", path, *eps,
                           "--format", "json")
    assert code == 0
    code, want, _ = run_cli(capsys, "estimate", "--matrix", plain,
                            "--format", "json")
    assert _counts(out) == _counts(want)


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("entries, epsilon", [((1.0, 4.0), "1000"),
                                              ((1e-200, 2e-200), "0.01")])
def test_epsilon_above_alpha_exits_2(capsys, matrix_csv, command, entries,
                                     epsilon):
    path = matrix_csv(np.diag(entries))
    code, out, err = run_cli(capsys, command, "--matrix", path, "--epsilon",
                             epsilon)
    assert code == 2
    assert out == ""
    assert err.startswith("error: epsilon") and "t must be >= 1" in err


@pytest.mark.parametrize("argv, message", [
    (("build", "--t", "1024"), "t must be >= 1 and <= 1023"),
    (("build", "--epsilon", "1e-320"), "overflows a float"),
    (("estimate", "--alpha", "1e300", "--epsilon", "1e-10", "--n", "2"),
     "overflows a float"),
])
def test_values_outside_the_float_range_exit_2(capsys, matrix_csv, argv,
                                               message):
    if argv[0] == "build":
        argv += ("--matrix", matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]])))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_estimate_refuses_the_t_that_build_refuses(capsys, matrix_csv):
    big = np.zeros((4, 4))
    big[0, 0] = 1e300
    errors = []
    for argv in (("estimate", "--n", "2", "--alpha", "1e300"),
                 ("build", "--matrix", matrix_csv(big))):
        code, out, err = run_cli(capsys, *argv, "--epsilon", "1e-8")
        assert code == 2
        assert out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert "chooses t = 1027" in errors[0] and "<= 1023" in errors[0]


def test_estimate_qnorm_of_entries_far_apart(capsys, matrix_csv):
    path = matrix_csv(np.array([[1.0, 0.0], [0.0, 1e-200]]))
    code, out, _ = run_cli(capsys, "estimate", "--matrix", path,
                           "--norm", "qnorm:1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu_p"] == 1.0
    assert payload["chi_row"] == [0.0, pytest.approx(math.pi / 2)]
    assert payload["chi_col"] == [0.0, 0.0]


@pytest.mark.parametrize("flags", [("--n", "frobenius"), ("--form", "json")])
def test_abbreviated_flags_exit_2(capsys, matrix_csv, flags):
    path = matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(SystemExit) as exc:
        main(["build", "--matrix", path, "--t", "3", *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--alpha", "--epsilon"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_estimate_parameter_exits_2(capsys, flag, value):
    argv = {"--n": "2", "--alpha": "5", "--epsilon": "0.01", flag: value}
    code, _, err = run_cli(capsys, "estimate",
                           *(x for kv in argv.items() for x in kv))
    assert code == 2
    assert err.startswith("error:")


def test_estimate_compares_nothing(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--n", "2", "--alpha", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == REPORT_KEYS
    assert payload["match"] is None


@pytest.mark.parametrize("variant", ["controlled", "symmetric"])
def test_build_without_formula_reports_no_match(capsys, matrix_csv, variant):
    path = matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]))
    code, out, _ = run_cli(capsys, "build", "--matrix", path, "--variant",
                           variant, "--t", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == REPORT_KEYS
    assert payload["match"] is None
    assert payload["formula"] == {
        "reason": f"the paper gives no closed form for the {variant} variant"}


def test_build_symmetric_rejects_flags_loader(capsys, matrix_csv):
    path = matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]))
    code, _, err = run_cli(capsys, "build", "--matrix", path, "--variant",
                           "symmetric", "--qram", "flags", "--lambda", "2",
                           "--t", "3")
    assert code == 2
    assert "ss or bb" in err


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("config", [(), ("--variant", "controlled"),
                                    ("--variant", "symmetric"),
                                    ("--qram", "bb")])
@pytest.mark.parametrize("t", ["0", "-1", "-3"])
def test_non_positive_t_exits_2(capsys, matrix_csv, command, config, t):
    path = matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]))
    code, out, err = run_cli(capsys, command, "--matrix", path, *config,
                             "--t", t)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "t must be >= 1" in err


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_sweep_comparing_nothing_exits_2(capsys, n_max):
    code, out, err = run_cli(capsys, "sweep", "--n-max", n_max,
                             "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "compares nothing" in err


@pytest.mark.parametrize("variant", ["standard", "controlled", "symmetric"])
@pytest.mark.parametrize("ry", ["0", "-5"])
def test_ry_below_one_exits_2(capsys, matrix_csv, variant, ry):
    path = matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]))
    code, out, err = run_cli(capsys, "build", "--matrix", path, "--variant",
                             variant, "--ry", ry, "--t", "4")
    assert code == 2
    assert out == ""
    assert err == "error: ry must be >= 1\n"


@pytest.mark.parametrize("variant, extra", [
    ("controlled", ()), ("symmetric", ()),
    ("controlled", ("--method", "prerotated"))])
def test_estimate_without_formula_exits_2(capsys, variant, extra):
    code, out, err = run_cli(capsys, "estimate", "--n", "3", "--alpha", "2",
                             "--variant", variant, *extra)
    assert code == 2
    assert out == ""
    assert err == (f"error: the paper gives no closed form for the {variant} "
                   "variant\n")


@pytest.mark.parametrize("command, flags", [
    ("build", ("--n", "9")), ("build", ("--alpha", "-4")),
    ("verify", ("--n", "2")), ("verify", ("--alpha", "3")),
    ("verify", ("--ry", "10"))])
def test_flags_a_command_ignores_are_rejected(capsys, matrix_csv, command,
                                              flags):
    # argparse exits 2 on an unknown flag, and takes no prefix of a longer
    # one.
    path = matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]))
    try:
        code = main([command, "--matrix", path, *flags])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("variant", ["standard", "controlled"])
def test_one_by_one_matrix_exits_2(capsys, matrix_csv, command, variant):
    path = matrix_csv(np.array([[2.0]]))
    code, out, err = run_cli(capsys, command, "--matrix", path, "--variant",
                             variant, "--t", "4")
    assert code == 2
    assert out == ""
    assert err == "error: need a matrix of at least 2x2 after padding\n"


# alpha / epsilon = 0.1 at n = 1: the fixed-precision choice is t = 0 and
# R_y = 0.
_SMALL_ALPHA = [[0.001, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("argv", [
    ("build", "--matrix"), ("verify", "--matrix"),
    ("estimate", "--n", "1", "--alpha", "0.001")])
def test_chosen_t_of_zero_exits_2(capsys, matrix_csv, argv):
    if argv[-1] == "--matrix":
        argv += (matrix_csv(np.array(_SMALL_ALPHA)),)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: epsilon 0.01 chooses t = 0 for alpha 0.001")
    assert "t must be >= 1" in err


def test_small_alpha_with_t_given_builds_and_verifies(capsys, matrix_csv):
    path = matrix_csv(np.array(_SMALL_ALPHA))
    code, out, _ = run_cli(capsys, "verify", "--matrix", path, "--t", "4",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run_cli(capsys, "build", "--matrix", path, "--t", "4",
                           "--ry", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["match"] is True


@pytest.mark.parametrize("argv", [
    ("build", "--matrix"), ("estimate", "--n", "1", "--alpha", "1e-300")])
def test_chosen_ry_below_one_exits_2(capsys, matrix_csv, argv):
    if argv[-1] == "--matrix":
        argv += (matrix_csv(np.array([[1e-300, 0.0], [0.0, 0.0]])),)
    code, out, err = run_cli(capsys, *argv, "--t", "4")
    assert code == 2
    assert out == ""
    assert err == ("error: epsilon 0.01 chooses R_y = -2960 for alpha "
                   "1e-300; ry must be >= 1: set --ry or another epsilon\n")
