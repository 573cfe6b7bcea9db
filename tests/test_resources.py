"""Formula sets, headline-table reproduction, ledger, cross-validation."""
import numpy as np
import pytest

from blockenc.resources import (
    LEDGER,
    ParameterError,
    cross_validate,
    evaluate,
    reproduce_headline_table,
    round_to_sigfig,
    sweep_cross_validation,
    uniform_entry_alpha,
)
from blockenc.circuit import ResourceReport, count_resources_at
from blockenc.encoding import BlockEncodingConfig, Method, build_block_encoding
from blockenc.qram import QramModel
from blockenc.stateprep import build_sp_prerotated


def test_evaluate_min_depth_qubits_example():
    rep = evaluate("be_min_depth", n=4, ry=62)
    assert rep.qubits == 4 * 256 - 48 + 8 - 1 == 983
    assert round_to_sigfig(rep.qubits) == 1e3


def test_evaluate_load_ss_example():
    rep = evaluate("load_ss", n=2, d=3, lam=1)
    assert rep.as_tuple() == (8, 16, 8)


def test_evaluate_min_count_qubits_example():
    rep = evaluate("be_min_count", n=12, t=31, ry=94)
    assert rep.qubits == 4096 * 32 + 36 - 31 + 1 == 131078
    assert round_to_sigfig(rep.qubits) == 1e5


def test_evaluate_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        evaluate("load_ss", n=2, d=3, lam=5)
    with pytest.raises(ParameterError):
        evaluate("unknown_formula", n=1)
    with pytest.raises(ParameterError):
        evaluate("sp_fixed", n=2)


def test_round_to_sigfig():
    assert round_to_sigfig(983) == 1e3
    assert round_to_sigfig(70912) == 7e4
    assert round_to_sigfig(532) == 5e2
    assert round_to_sigfig(2.26e6) == 2e6
    assert round_to_sigfig(149) == 1e2


def test_uniform_entry_alpha():
    # E[a^2] for U[5, 105] = (105^3 - 5^3) / 300
    assert abs(uniform_entry_alpha(16) - 16 * np.sqrt(1157500 / 300)) < 1e-9
    assert abs(uniform_entry_alpha(16) - 993.8) < 0.1


def test_reproduce_headline_table_all_entries():
    rows = reproduce_headline_table(0.01)
    assert len(rows) == 18
    assert all(row["match"] for row in rows)


def test_headline_specific_values():
    rows = {(r["column"], r["N"], r["metric"]): r for r in reproduce_headline_table()}
    assert rows[("min_depth", 4096, "t_depth")]["value"] == 844
    assert rows[("min_depth", 16, "qubits")]["value"] == 983
    assert rows[("min_count", 256, "t_count")]["rounded"] == 2e5


def test_min_depth_identity_with_prerotated():
    for n in (1, 2, 3, 4, 8, 12):
        for ry in (10, 30, 91):
            a = evaluate("be_min_depth", n=n, ry=ry)
            b = evaluate("be_prerotated", n=n, ry=ry)
            assert a.as_tuple() == b.as_tuple()


def test_min_count_identity_with_be_ss_lambda0():
    for n in (1, 2, 3, 4, 8):
        for t in (3, 5, 8, 31):
            for ry in (10, 30):
                a = evaluate("be_min_count", n=n, t=t, ry=ry)
                b = evaluate("be_ss", n=n, t=t, lam=0, ry=ry)
                assert (a.t_count, a.t_depth) == (b.t_count, b.t_depth)
                assert a.qubits == b.qubits


def test_formulas_monotone_in_d_and_t():
    for n in (2, 3):
        for lam in range(n + 1):
            for metric in ("qubits", "t_count", "t_depth"):
                ss = [getattr(evaluate("load_ss", n=n, d=d, lam=lam), metric)
                      for d in (1, 2, 3)]
                assert ss == sorted(ss)
                bb = [getattr(evaluate("load_bb", n=n, d=d, lam=lam), metric)
                      for d in (1, 2, 3)]
                assert bb == sorted(bb)
        for ry in (10,):
            sp = [getattr(evaluate("sp_fixed", n=n, t=t, ry=ry), "t_count")
                  for t in (3, 5, 8)]
            assert sp == sorted(sp)


def test_cross_validate_exact_pass():
    rep = evaluate("load_ss", n=2, d=1, lam=1)
    verdict = cross_validate(rep, "load_ss", {"n": 2, "d": 1, "lam": 1})
    assert verdict.passed and not verdict.ledger_refs


def test_cross_validate_ledgered_offset():
    want = evaluate("load_ss", n=2, d=1, lam=2)
    counted = ResourceReport(want.qubits + 1, want.t_count, want.t_depth)
    verdict = cross_validate(counted, "load_ss", {"n": 2, "d": 1, "lam": 2})
    assert verdict.passed
    assert verdict.ledger_refs


def test_cross_validate_rejects_unexplained():
    want = evaluate("load_ss", n=2, d=1, lam=1)
    counted = ResourceReport(want.qubits + 5, want.t_count, want.t_depth)
    verdict = cross_validate(counted, "load_ss", {"n": 2, "d": 1, "lam": 1})
    assert not verdict.passed
    assert "qubits" in verdict.diffs


def test_ledger_entries_carry_dual_citations():
    for entry in LEDGER:
        assert len(entry.citations) == 2
        assert all(entry.citations)


_SMALL_RY = (1, 2, 4, 10, 30)


def test_prerotated_depth_offsets_are_capped_by_ry():
    """Counted minus formula T-depth is -min(n-1, R_y) for the pre-rotated
    state preparation (n >= 2) and -min(3n-2, R_y) for the block encoding,
    also where R_y is below the uncapped offset (11 points at n <= 4)."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        side = 1 << n
        encoding = build_block_encoding(
            rng.standard_normal((side, side)),
            BlockEncodingConfig(method=Method.PRE_ROTATED,
                                qram=QramModel.FLAGS, lam=n)).circuit
        for name, circuit, cap in (
                ("sp_prerotated", build_sp_prerotated(rng.standard_normal(side)),
                 n - 1),
                ("be_prerotated", encoding, 3 * n - 2)):
            for ry, counted in zip(_SMALL_RY,
                                   count_resources_at(circuit, _SMALL_RY)):
                point = {"n": n, "ry": ry}
                verdict = cross_validate(counted, name, point)
                assert verdict.passed, (name, point, verdict.diffs)
                assert (counted.t_depth - evaluate(name, **point).t_depth
                        == -min(cap, ry))


def test_sweep_small_grid_clean():
    verdicts = sweep_cross_validation(n_values=(1, 2), d_values=(1, 2),
                                      t_values=(3,), ry_values=(10,))
    assert verdicts
    assert all(v.passed for v in verdicts)


def test_sweep_grid_may_be_given_as_iterators():
    grid = {"n_values": (1,), "d_values": (1, 2), "t_values": (3, 5),
            "ry_values": (10, 30)}
    expected = sweep_cross_validation(**grid)
    got = sweep_cross_validation(**{k: iter(v) for k, v in grid.items()})
    assert got == expected
