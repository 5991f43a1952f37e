"""Tests for the command-line front end: parsing, exit codes, determinism."""

import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from copula_ot.cli import main, read_csv_columns, InputError
from copula_ot.copulas import MAX_LATTICE_POINTS, default_resolution
from helpers import SUBPROCESS_ENV, strict_json


@pytest.fixture
def sample_files(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("0\n1\n")
    b.write_text("0\n2\n")
    return str(a), str(b)


def overflow_pair(tmp_path, columns):
    """Two 100-row samples at scale 1e160, whose W_2^2 overflows double precision."""
    rng = np.random.default_rng(1)
    paths = tmp_path / "huge_a.csv", tmp_path / "huge_b.csv"
    for path in paths:
        np.savetxt(path, np.repeat(rng.normal(size=(100, 1)) * 1e160, columns, axis=1), delimiter=",")
    return tuple(map(str, paths))


OVERFLOW_AT_ORDER_2 = "error: W_p^p at order p = 2 overflows double precision"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCsvIngestion:
    def test_plain_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.5\n2\n-3e-1\n")
        assert read_csv_columns(str(path)).ravel().tolist() == [1.5, 2.0, -0.3]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("value\n1\n2\n")
        assert read_csv_columns(str(path)).ravel().tolist() == [1.0, 2.0]

    def test_multi_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("x,y\n1, 2\n3,4\n")
        assert read_csv_columns(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_garbage_mid_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1\noops\n")
        with pytest.raises(InputError):
            read_csv_columns(str(path))

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(InputError):
            read_csv_columns(str(path))

    def test_missing_file(self):
        with pytest.raises(InputError):
            read_csv_columns("/nonexistent/samples.csv")

    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param("\n\n \t\nvalue\n1\n2\n", [[1.0], [2.0]], id="blank-lines-before-header"),
            pytest.param("value\r\n1\r\n\r\n2\r\n", [[1.0], [2.0]], id="crlf"),
            pytest.param(" 1 , 2 \n3,\t4\n", [[1.0, 2.0], [3.0, 4.0]], id="spaces-around-tokens"),
            pytest.param("1\n2", [[1.0], [2.0]], id="no-trailing-newline"),
            pytest.param("1\n   \n2\n  ", [[1.0], [2.0]], id="whitespace-only-lines-are-blank"),
            pytest.param("1,2\n1,,2\n", "bad.csv:2: non-numeric value in '1,,2'", id="empty-field"),
            pytest.param("1\n#1\n", "bad.csv:2: non-numeric value in '#1'", id="hash-is-data"),
            pytest.param("1\nnan\n", "bad.csv: non-finite value in data", id="nan"),
            pytest.param("1\n-inf\n", "bad.csv: non-finite value in data", id="inf"),
            pytest.param("value\n\n", "bad.csv: no numeric rows", id="header-only"),
            pytest.param("1\n\n3\nbad\n", "bad.csv:4: non-numeric value in 'bad'", id="line-number-counts-blanks"),
            pytest.param("1\n  \n3\nbad\n", "bad.csv:4: non-numeric value in 'bad'", id="line-number-counts-whitespace"),
            pytest.param("x\ny\n1\n", "bad.csv:2: non-numeric value in 'y'", id="only-one-header"),
            pytest.param("1,2\n3,4\n5\n", "bad.csv: rows have inconsistent column counts", id="ragged"),
            pytest.param("\ufeffvalue\n1\n", [[1.0]], id="byte-order-mark-header"),
            # Chosen with the np.loadtxt reader: BOM dropped, 1_000 rejected, first fault reported.
            pytest.param("\ufeff5\n1\n2\n", [[5.0], [1.0], [2.0]], id="byte-order-mark"),
            pytest.param("1\n1_000\n", "bad.csv:2: non-numeric value in '1_000'", id="digit-separator"),
            pytest.param("1,2\n3\nabc\n", "bad.csv: rows have inconsistent column counts", id="first-fault-wins"),
        ],
    )
    def test_corpus(self, tmp_path, text, expected):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(InputError, match=re.escape(expected)):
                read_csv_columns(str(path))
        else:
            assert read_csv_columns(str(path)).tolist() == expected

    @pytest.mark.parametrize(
        "lead",
        [b"", b"1\n" * 100_000, b"  \n" + b"1\n" * 100_000],
        ids=["first-block", "deep", "deep-after-whitespace-line"],
    )
    def test_undecodable_file(self, tmp_path, lead):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1\n" + lead + b"\xe9\n")
        with pytest.raises(InputError, match="not UTF-8 text"):
            read_csv_columns(str(path))


class TestDist1d:
    def test_known_w1(self, capsys, sample_files):
        a, b = sample_files
        code, out, _ = run_cli(capsys, "dist1d", a, b, "--p", "1")
        assert code == 0
        payload = strict_json(out)
        assert payload["w_p"] == pytest.approx(0.5, abs=1e-12)
        assert payload["methods"]["cdf_area"] == pytest.approx(0.5, abs=1e-12)
        assert payload["methods"]["oracle_lp"] == pytest.approx(0.5, abs=1e-12)
        assert payload["max_method_disagreement"] <= 1e-12

    def test_identical_files(self, capsys, tmp_path):
        path = tmp_path / "same.csv"
        path.write_text("1\n2\n3\n")
        code, out, _ = run_cli(capsys, "dist1d", str(path), str(path), "--p", "2")
        payload = strict_json(out)
        assert code == 0
        assert payload["w_p"] == 0.0
        assert payload["max_method_disagreement"] == 0.0

    def test_no_cdf_area_above_order_one(self, capsys, sample_files):
        a, b = sample_files
        _, out, _ = run_cli(capsys, "dist1d", a, b, "--p", "2")
        assert "cdf_area" not in strict_json(out)["methods"]

    def test_oracle_runs_whenever_the_lp_guard_admits(self, capsys, tmp_path, rng):
        a = tmp_path / "thin.csv"
        b = tmp_path / "wide.csv"
        a.write_text("\n".join(str(v) for v in rng.normal(size=30)) + "\n")
        b.write_text("\n".join(str(v) for v in rng.normal(size=90)) + "\n")
        code, out, _ = run_cli(capsys, "dist1d", str(a), str(b), "--p", "2")
        payload = strict_json(out)
        assert code == 0
        assert "oracle_lp" in payload["methods"]
        assert payload["notices"] == []

    def test_certificate_scales_with_the_cost(self, capsys, tmp_path):
        # costs near 1e8: an absolute 1e-9 dual slack is below float resolution
        rng = np.random.default_rng(0)
        a = tmp_path / "wide_a.csv"
        b = tmp_path / "wide_b.csv"
        np.savetxt(a, rng.normal(0.0, 1e4, 30))
        np.savetxt(b, rng.normal(0.0, 1e4, 30))
        code, out, err = run_cli(capsys, "dist1d", str(a), str(b), "--p", "2")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert "oracle_lp" in payload["methods"]
        assert payload["max_method_disagreement"] <= payload["tolerance"]

    def test_oracle_omitted_beyond_guard(self, capsys, tmp_path, rng):
        a = tmp_path / "big_a.csv"
        b = tmp_path / "big_b.csv"
        a.write_text("\n".join(str(v) for v in rng.normal(size=1000)) + "\n")
        b.write_text("\n".join(str(v) for v in rng.normal(size=1000) + 1.0) + "\n")
        code, out, _ = run_cli(capsys, "dist1d", str(a), str(b), "--p", "1")
        payload = strict_json(out)
        assert code == 0
        assert "oracle_lp" not in payload["methods"]
        assert any("oracle omitted" in note for note in payload["notices"])
        assert payload["w_p"] == pytest.approx(1.0, abs=0.2)

    def test_overflowing_distance_is_input_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "dist1d", *overflow_pair(tmp_path, 1), "--p", "2")
        assert (code, out) == (2, "")
        assert OVERFLOW_AT_ORDER_2 in err

    def test_overflowing_cost_inside_the_lp_guard(self, capsys, tmp_path):
        a, b = tmp_path / "up.csv", tmp_path / "down.csv"
        a.write_text("x\n0\n1e200\n")
        b.write_text("x\n0\n-1e200\n")
        code, out, err = run_cli(capsys, "dist1d", str(a), str(b), "--p", "2")
        assert (code, out) == (2, "")
        assert OVERFLOW_AT_ORDER_2 in err

    def test_parse_failure_exit_code(self, capsys, tmp_path, sample_files):
        bad = tmp_path / "bad.csv"
        bad.write_text("1\nnot-a-number\n")
        code, _, err = run_cli(capsys, "dist1d", str(bad), sample_files[1])
        assert code == 2
        assert "non-numeric" in err
        assert "bad.csv:2:" in err

    def test_env_var_tolerance(self, capsys, sample_files, monkeypatch):
        monkeypatch.setenv("COPULA_OT_TOLERANCE", "0.5")
        a, b = sample_files
        _, out, _ = run_cli(capsys, "dist1d", a, b)
        assert strict_json(out)["tolerance"] == 0.5

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
    def test_invalid_tolerance_flag(self, capsys, sample_files, value):
        code, out, err = run_cli(capsys, "dist1d", *sample_files, f"--tolerance={value}")
        assert code == 2
        assert out == ""
        assert "--tolerance must be finite and >= 0" in err

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_invalid_tolerance_env_var(self, capsys, sample_files, monkeypatch, value):
        monkeypatch.setenv("COPULA_OT_TOLERANCE", value)
        code, out, err = run_cli(capsys, "dist1d", *sample_files)
        assert code == 2
        assert out == ""
        assert f"COPULA_OT_TOLERANCE='{value}' must be finite and >= 0" in err

    def test_zero_tolerance_accepted(self, capsys, sample_files):
        code, out, _ = run_cli(capsys, "dist1d", *sample_files, "--tolerance", "0")
        assert code == 0
        assert strict_json(out)["tolerance"] == 0.0


class TestDistNd:
    @pytest.fixture
    def nd_files(self, tmp_path):
        a = tmp_path / "a2.csv"
        b = tmp_path / "b2.csv"
        a.write_text("0,0\n1,1\n")
        b.write_text("0,0\n2,2\n")
        return str(a), str(b)

    def test_refuses_without_hypothesis_flag(self, capsys, nd_files):
        code, _, err = run_cli(capsys, "distnd", *nd_files, "--p", "2")
        assert code == 3
        assert "shared" in err and "copula" in err

    def test_coordinate_table_and_total(self, capsys, nd_files):
        code, out, _ = run_cli(
            capsys, "distnd", *nd_files, "--p", "2", "--assume-shared-copula"
        )
        payload = strict_json(out)
        assert code == 0
        assert payload["per_coordinate_w_p_pow_p"] == [pytest.approx(0.5)] * 2
        assert payload["w_p_pow_p"] == pytest.approx(1.0, abs=1e-12)
        assert payload["oracle_lp"] == pytest.approx(1.0, abs=1e-9)

    def test_identical_files_give_zero(self, capsys, tmp_path):
        path = tmp_path / "same2.csv"
        path.write_text("0,5\n1,6\n")
        code, out, _ = run_cli(
            capsys, "distnd", str(path), str(path), "--p", "1", "--assume-shared-copula"
        )
        assert code == 0
        assert strict_json(out)["w_p"] == 0.0

    def test_point_mass_rows(self, capsys, tmp_path):
        a = tmp_path / "pa.csv"
        b = tmp_path / "pb.csv"
        a.write_text("0,0\n")
        b.write_text("3,4\n")
        code, out, _ = run_cli(
            capsys, "distnd", str(a), str(b), "--p", "1", "--assume-shared-copula"
        )
        assert code == 0
        assert strict_json(out)["w_p"] == pytest.approx(7.0, abs=1e-12)

    def test_ragged_rows(self, capsys, tmp_path, nd_files):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("x,y\n0,0\n1\n")
        code, out, err = run_cli(
            capsys, "distnd", nd_files[0], str(ragged), "--assume-shared-copula"
        )
        assert code == 2
        assert out == ""
        assert "ragged.csv: rows have inconsistent column counts" in err

    def test_width_mismatch(self, capsys, tmp_path, nd_files):
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("0\n1\n")
        code, _, err = run_cli(
            capsys, "distnd", nd_files[0], str(narrow), "--assume-shared-copula"
        )
        assert code == 2
        assert "width mismatch" in err

    def test_bracket_when_orders_differ(self, capsys, nd_files):
        code, out, _ = run_cli(
            capsys,
            "distnd", *nd_files, "--p", "2", "--q", "1", "--assume-shared-copula",
        )
        payload = strict_json(out)
        assert code == 0
        lower, upper = payload["bracket_pow_p"]
        assert lower == pytest.approx(1.0, rel=1e-12)
        assert upper == pytest.approx(2.0, rel=1e-12)
        assert "w_p" not in payload
        assert lower - 1e-9 <= payload["oracle_lp"] <= upper + 1e-9

    def test_one_column_bracket_when_orders_differ(self, capsys, sample_files):
        # at d = 1 the bracket's ends meet, but q != p still reports a bracket
        code, out, _ = run_cli(
            capsys, "distnd", *sample_files, "--p", "2", "--q", "1", "--assume-shared-copula",
        )
        payload = strict_json(out)
        assert code == 0
        assert payload["bracket_pow_p"] == [0.5, 0.5]
        assert "w_p" not in payload and "max_method_disagreement" not in payload
        assert payload["oracle_lp"] == pytest.approx(0.5, abs=1e-12)

    def test_bracket_holds_oracle_when_q_below_p(self, capsys, tmp_path):
        a = tmp_path / "pa.csv"
        b = tmp_path / "pb.csv"
        a.write_text("0,0\n")
        b.write_text("1,1\n")
        code, out, _ = run_cli(
            capsys, "distnd", str(a), str(b), "--p", "3", "--q", "1", "--assume-shared-copula"
        )
        payload = strict_json(out)
        assert code == 0
        assert payload["bracket_pow_p"] == [pytest.approx(2.0), pytest.approx(8.0)]
        assert payload["oracle_lp"] == pytest.approx(8.0)

    def test_bracket_check_is_relative(self, capsys, tmp_path):
        # every coupling of two point masses costs the lower end of the
        # bracket; at this scale the LP lands 1.2e-16 relative below it
        a = tmp_path / "origin.csv"
        b = tmp_path / "far.csv"
        a.write_text("0,0\n")
        b.write_text("17511.107893000564,17511.107893000564\n")
        code, out, _ = run_cli(
            capsys, "distnd", str(a), str(b), "--p", "2", "--q", "3", "--assume-shared-copula"
        )
        payload = strict_json(out)
        assert code == 0
        assert payload["oracle_lp"] == pytest.approx(payload["bracket_pow_p"][0], rel=1e-12)
        assert payload["tolerance"] == 1e-8
        assert not any("contradict" in n for n in payload["notices"])

    def test_oracle_runs_on_the_rows(self, capsys, tmp_path):
        # (x, x) has copula M and (y, -y) copula W: the margins alone cannot
        # tell, the rows can
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=20), rng.normal(size=20)
        a = tmp_path / "upward.csv"
        b = tmp_path / "downward.csv"
        np.savetxt(a, np.c_[x, x], delimiter=",")
        np.savetxt(b, np.c_[y, -y], delimiter=",")
        code, out, _ = run_cli(capsys, "distnd", str(a), str(b), "--p", "2", "--assume-shared-copula")
        payload = strict_json(out)
        assert code == 1
        assert payload["oracle_lp"] > 10 * payload["w_p_pow_p"]
        assert any("contradict the shared-copula declaration" in n for n in payload["notices"])

    @pytest.mark.parametrize("orders", [("--p", "2"), ("--p", "2", "--q", "1")])
    def test_rows_sharing_a_copula_agree(self, capsys, tmp_path, orders):
        # B applies an increasing map to each coordinate of A's rows
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(25, 2))
        a = tmp_path / "base.csv"
        b = tmp_path / "mapped.csv"
        np.savetxt(a, rows, delimiter=",")
        np.savetxt(b, np.c_[np.exp(rows[:, 0]), rows[:, 1] ** 3], delimiter=",")
        code, out, _ = run_cli(capsys, "distnd", str(a), str(b), *orders, "--assume-shared-copula")
        assert code == 0
        assert not any("contradict" in n for n in strict_json(out)["notices"])

    @pytest.mark.parametrize("orders", [("--p", "2"), ("--p", "2", "--q", "1")])
    def test_overflowing_distance_is_input_error(self, capsys, tmp_path, orders):
        code, out, err = run_cli(capsys, "distnd", *overflow_pair(tmp_path, 2), *orders, "--assume-shared-copula")
        assert (code, out) == (2, "")
        assert OVERFLOW_AT_ORDER_2 in err

    @pytest.mark.parametrize("orders", [("--p", "2"), ("--p", "2", "--q", "1")])
    def test_each_coordinate_computed_once(self, capsys, nd_files, monkeypatch, orders):
        import copula_ot.distances

        original = copula_ot.distances.wasserstein_1d
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(copula_ot.distances, "wasserstein_1d", counting)
        monkeypatch.setattr("copula_ot.cli.wasserstein_1d", counting)
        code, _, _ = run_cli(capsys, "distnd", *nd_files, *orders, "--assume-shared-copula")
        assert code == 0
        assert len(calls) == 2


class TestCheckCopula:
    def test_comonotonicity_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-copula", "M", "--dim", "3")
        payload = strict_json(out)
        assert code == 0
        assert payload["passed"] is True

    def test_lower_bound_fails_in_3d(self, capsys):
        code, out, _ = run_cli(capsys, "check-copula", "W", "--dim", "3", "--resolution", "4")
        payload = strict_json(out)
        assert code == 0
        assert payload["passed"] is False
        axiom = payload["axioms"]["d_increasing"]
        assert axiom["passed"] is False
        assert axiom["witnesses"]

    def test_independence_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-copula", "Pi", "--dim", "2")
        assert code == 0
        assert strict_json(out)["passed"] is True

    def test_unknown_label(self, capsys):
        code, _, err = run_cli(capsys, "check-copula", "Clayton", "--dim", "2")
        assert code == 2
        assert "unknown copula label" in err

    def test_capacity_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "check-copula", "M", "--dim", "11")
        assert code == 4

    @pytest.mark.parametrize("size", [("--dim", "10"), ("--dim", "9"), ("--dim", "2", "--resolution", "10000")])
    def test_lattice_budget_refuses_before_allocating(self, capsys, size):
        # 7^10 lattice points at dim 10 would need about 42 GiB
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "check-copula", "M", *size)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (4, "")
        assert "lattice of" in err and f"budget of {MAX_LATTICE_POINTS}" in err

    def test_lattice_budget_admits_dim_8_at_the_default_resolution(self):
        assert (default_resolution(8) + 1) ** 8 <= MAX_LATTICE_POINTS


class TestOracleCompare:
    def test_two_by_two(self, capsys, sample_files):
        code, out, _ = run_cli(capsys, "oracle-compare", *sample_files, "--p", "2")
        payload = strict_json(out)
        assert code == 0
        assert len(payload["couplings"]) == 2
        assert payload["comonotone_is_minimal"] is True
        assert payload["couplings"][0]["is_comonotone"] is True

    def test_single_cell(self, capsys, tmp_path):
        a = tmp_path / "one_a.csv"
        b = tmp_path / "one_b.csv"
        a.write_text("1\n")
        b.write_text("4\n")
        code, out, _ = run_cli(capsys, "oracle-compare", str(a), str(b), "--p", "2")
        payload = strict_json(out)
        assert code == 0
        assert len(payload["couplings"]) == 1
        assert payload["comonotone_cost"] == pytest.approx(9.0)

    def test_three_by_three_permutations(self, capsys, tmp_path):
        a = tmp_path / "tri_a.csv"
        b = tmp_path / "tri_b.csv"
        a.write_text("1\n2\n3\n")
        b.write_text("2\n3\n4\n")
        code, out, _ = run_cli(capsys, "oracle-compare", str(a), str(b), "--p", "2")
        payload = strict_json(out)
        assert code == 0
        assert len(payload["couplings"]) == 6
        assert payload["comonotone_cost"] == pytest.approx(1.0, abs=1e-12)

    def test_guard_exit_code(self, capsys, tmp_path):
        a = tmp_path / "wide.csv"
        a.write_text("\n".join(str(float(k)) for k in range(5)) + "\n")
        code, _, err = run_cli(capsys, "oracle-compare", str(a), str(a), "--p", "2")
        assert code == 4


class TestDiagnoseTails:
    def test_zeros_beyond_support(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("-1\n1\n")
        code, out, _ = run_cli(
            capsys, "diagnose-tails", str(path), "--r", "1", "--grid", "2,4"
        )
        payload = strict_json(out)
        assert code == 0
        assert all(row["upper_tail_term"] == 0.0 for row in payload["rows"])
        assert all(row["lower_tail_term"] == 0.0 for row in payload["rows"])

    def test_three_atom_row(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1\n2\n3\n")
        code, out, _ = run_cli(
            capsys, "diagnose-tails", str(path), "--r", "1", "--grid", "2.5"
        )
        [row] = strict_json(out)["rows"]
        assert row["x"] == 2.5
        assert row["upper_tail_term"] == pytest.approx(2.5 / 3)
        assert row["lower_tail_term"] == 0.0

    def test_zeros_beyond_support_at_huge_x(self, capsys, tmp_path):
        # x^r overflows to inf there, but the tail probabilities are 0
        path = tmp_path / "s.csv"
        path.write_text("1\n2\n")
        code, out, _ = run_cli(capsys, "diagnose-tails", str(path), "--r", "2", "--grid", "1e200,1e300")
        assert code == 0
        assert strict_json(out)["rows"] == [
            {"x": x, "upper_tail_term": 0.0, "lower_tail_term": 0.0} for x in (1e200, 1e300)
        ]

    def test_bad_grid_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1\n")
        code, _, _ = run_cli(capsys, "diagnose-tails", str(path), "--r", "1", "--grid", "3,2")
        assert code == 2

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_grid_is_input_error(self, capsys, tmp_path, bad):
        path = tmp_path / "s.csv"
        path.write_text("1\n")
        code, out, err = run_cli(capsys, "diagnose-tails", str(path), "--r", "1", "--grid", f"1,{bad}")
        assert code == 2
        assert out == ""
        assert "grid" in err and bad in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dist1d", "A", "B", "--p", "nan"),
        ("dist1d", "A", "B", "--p", "inf"),
        ("distnd", "A", "B", "--q", "inf", "--assume-shared-copula"),
        ("diagnose-tails", "A", "--r", "nan", "--grid", "1"),
        ("diagnose-tails", "A", "--r", "inf", "--grid", "1"),
    ],
)
def test_non_finite_order_is_input_error(capsys, sample_files, argv):
    argv = [sample_files[0] if a == "A" else sample_files[1] if a == "B" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("check-copula", "M"),
        ("oracle-compare", "A", "B"),
        ("diagnose-tails", "A", "--r", "1", "--grid", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_tolerance_only_where_read(capsys, sample_files, argv):
    # only dist1d and distnd compare methods against a tolerance
    argv = [sample_files[0] if a == "A" else sample_files[1] if a == "B" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tolerance", "-5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --tolerance" in captured.err


class TestImportBudget:
    """The CLI's discrete paths never need scipy, so they must not load it."""

    @staticmethod
    def scipy_modules_after(code: str) -> list[str]:
        probe = code + "\nimport json\nprint(json.dumps(sorted(k for k in sys.modules if k.startswith('scipy'))))"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=SUBPROCESS_ENV, check=True
        )
        return json.loads(proc.stdout.splitlines()[-1])

    @pytest.mark.parametrize("module", ["copula_ot", "copula_ot.cli"])
    def test_import_loads_no_scipy(self, module):
        assert self.scipy_modules_after(f"import sys, {module}") == []

    def test_dist1d_past_the_lp_guard_loads_no_scipy(self, tmp_path, rng):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("\n".join(str(v) for v in rng.normal(size=100)) + "\n")
        b.write_text("\n".join(str(v) for v in rng.normal(size=100)) + "\n")
        run = (
            "import sys\nfrom copula_ot.cli import main\n"
            f"assert main(['dist1d', {str(a)!r}, {str(b)!r}, '--p', '2']) == 0"
        )
        assert self.scipy_modules_after(run) == []


class TestDeterminismAndRoundTrip:
    def test_repeated_runs_byte_identical(self, sample_files):
        cmd = [
            sys.executable, "-m", "copula_ot",
            "dist1d", *sample_files, "--p", "1.5",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True, env=SUBPROCESS_ENV)
        second = subprocess.run(cmd, capture_output=True, check=True, env=SUBPROCESS_ENV)
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty

    def test_json_floats_round_trip(self, capsys, sample_files):
        _, out, _ = run_cli(capsys, "dist1d", *sample_files, "--p", "1.5")
        payload = strict_json(out)
        assert json.loads(json.dumps(payload)) == payload

    def test_formats_share_content(self, capsys, sample_files):
        _, json_out, _ = run_cli(capsys, "dist1d", *sample_files, "--p", "1")
        _, csv_out, _ = run_cli(capsys, "dist1d", *sample_files, "--p", "1", "--format", "csv")
        _, plain_out, _ = run_cli(capsys, "dist1d", *sample_files, "--p", "1", "--format", "plain")
        w_p = strict_json(json_out)["w_p"]
        assert f"w_p,{w_p}" in csv_out
        assert f"w_p = {w_p}" in plain_out
