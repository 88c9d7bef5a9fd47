import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringtasep import chain, cli, perms
from ringtasep.poly import Poly


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestCount:
    def test_default_text(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "6")
        assert code == 0
        assert out.strip() == "1 2 6 20 68 232"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "count", "--max-n", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["counts"] == [1, 2, 6, 20, 68, 232, 792, 2704]

    def test_mismatch_is_internal_check_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(perms, "count_evil_avoiding_closed_form",
                            lambda n: 0)
        code, out, err = run(capsys, "count", "--max-n", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("internal check failed: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestPsi:
    def test_y_zero_point(self, capsys):
        code, out, _ = run(capsys, "psi", "--n", "3", "--y-zero",
                           "--eval", "x1=2,x2=1,x3=1")
        assert code == 0
        rows = dict(ln.split("\t") for ln in out.strip().splitlines())
        assert rows == {"1,2,3": "2", "1,3,2": "3", "2,1,3": "3",
                        "2,3,1": "2", "3,1,2": "2", "3,2,1": "3"}

    def test_params_file(self, capsys, tmp_path):
        f = tmp_path / "params.txt"
        f.write_text("7\n5\n4\n1\n2\n3\n")
        code, out, _ = run(capsys, "--json", "psi", "--n", "3",
                           "--params", str(f))
        assert code == 0
        psi = json.loads(out)["psi"]
        assert psi["1,2,3"] == "6"  # x1 - y1 at the point
        assert set(psi) == {"1,2,3", "1,3,2", "2,1,3",
                            "2,3,1", "3,1,2", "3,2,1"}

    def test_params_file_lines_with_spaces(self, capsys, tmp_path):
        f = tmp_path / "params.txt"
        f.write_text(" 7 \n\t5\n4\t\n 1/1\n2\n  3\n")
        code, out, _ = run(capsys, "--json", "psi", "--n", "3",
                           "--params", str(f))
        assert code == 0
        assert json.loads(out)["psi"]["1,2,3"] == "6"

    def test_missing_params_is_usage_error(self, capsys):
        code, _, err = run(capsys, "psi", "--n", "3")
        assert code == 2
        assert "provide --params" in err

    def test_nonpositive_rate_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "psi", "--n", "3", "--y-zero",
                         "--eval", "x1=0,x2=1,x3=1")
        assert code == 2


class TestFormula:
    def test_1432_text(self, capsys):
        code, out, _ = run(capsys, "formula", "--state", "1,4,3,2")
        assert code == 0
        assert "state:      1,4,3,2" in out
        assert "partitions: (2,) (1, 1)" in out
        assert "factor 1,4,2,3" in out
        assert "prefactor:  1" in out

    def test_1432_json_matches_schubert(self, capsys):
        code, out, _ = run(capsys, "--json", "formula", "--state", "1,4,3,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["partitions"] == [[2], [1, 1]]
        assert payload["factors"] == ["1,4,2,3", "1,3,4,2"]
        assert payload["prefactor"] == "1"

    def test_y_zero_identity_n5(self, capsys):
        code, out, _ = run(capsys, "--json", "formula",
                           "--state", "1,2,3,4,5", "--y-zero")
        assert code == 0
        payload = json.loads(out)
        assert payload["prefactor"] == "x1^6*x2^3*x3"
        assert payload["factors"] == []

    def test_non_special_state_is_usage_error(self, capsys):
        code, _, err = run(capsys, "formula", "--state", "2,1,3")
        assert code == 2
        assert err.strip()

    def test_malformed_state_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "formula", "--state", "1,1,2")
        assert code == 2


class TestMlq:
    def test_sum_n3(self, capsys):
        code, out, _ = run(capsys, "mlq", "--state", "1,3,2")
        assert code == 0
        assert out.strip() == "x1 + x2"

    def test_list_counts_queues(self, capsys):
        code, out, _ = run(capsys, "mlq", "--state", "1,2,3", "--list")
        assert code == 0
        assert out.strip().endswith("queues")

    def test_list_draws_classes(self, capsys):
        code, out, err = run(capsys, "mlq", "--state", "1,3,2", "--list")
        assert code == 0
        assert err == ""
        assert out.strip() == (".1.\n2.1\nweight: x2\n\n..1\n2.1\n"
                               "weight: x1\n\n2 queues")

    def test_list_json_grids(self, capsys):
        code, out, _ = run(capsys, "--json", "mlq", "--state", "1,3,2",
                           "--list")
        assert code == 0
        assert json.loads(out)["queues"] == [
            {"grid": ".1.\n2.1", "weight": "x2"},
            {"grid": "..1\n2.1", "weight": "x1"}]

    def test_n_mismatch_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "mlq", "--state", "1,3,2", "--n", "4")
        assert code == 2


class TestSchubert:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "schubert", "--perm", "1,3,2", "--single")
        assert code == 0
        assert out.strip() == "x1 + x2"

    def test_double(self, capsys):
        code, out, _ = run(capsys, "schubert", "--perm", "2,1")
        assert code == 0
        assert out.strip() == "x1 - y1"


class TestVerify:
    def test_counts_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--suite", "counts")
        assert code == 0
        assert "all passed" in out
        assert all(ln.startswith(("PASS", "counts:"))
                   for ln in out.strip().splitlines())

    def test_main_suite_n3_json(self, capsys):
        code, out, _ = run(capsys, "--json", "verify", "--n", "3",
                           "--suite", "main")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["schema"] == 1
        assert len(payload["cases"]) == 2  # states with first entry 1

    def test_main_suite_reads_symbolic_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(chain, "SYMBOLIC_MAX_N", 3)
        code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "main")
        assert code == 0
        assert "(5 points)" in out and "(symbolic)" not in out

    def test_flags_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "flags")
        assert code == 0
        assert "all passed" in out

    def test_mlq_suite_solves_each_point_once(self, capsys, monkeypatch):
        solve = chain.solve_renormalized
        points = []

        def counted(n, params):
            points.append(params)
            return solve(n, params)
        monkeypatch.setattr(chain, "solve_renormalized", counted)
        code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "mlq")
        assert code == 0
        assert "6 cases, all passed" in out
        assert len(points) == 3  # one per seeded point, not per state

    def test_mlq_suite_n5(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--suite", "mlq")
        assert code == 0
        assert "mlq: 120 cases, all passed" in out

    def test_internal_check_failure_is_exit_1(self, capsys, monkeypatch):
        cofactors = chain._cofactors

        def off_by_identity(A):
            v = cofactors(A)
            v[1] = v[1] + v[0]
            return v
        monkeypatch.setattr(chain, "_cofactors", off_by_identity)
        code, out, err = run(capsys, "verify", "--n", "3", "--suite", "main")
        assert code == 1
        assert out == ""
        assert err.startswith("internal check failed: ")
        assert "balance certificate" in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_inexact_symbolic_division_is_exit_1(self, capsys, monkeypatch):
        cofactors = chain._cofactors

        def off_by_one(A):
            v = cofactors(A)
            v[1] = v[1] + Poly.const(4, 1)
            return v
        monkeypatch.setattr(chain, "_cofactors", off_by_one)
        code, out, err = run(capsys, "verify", "--n", "4", "--suite", "main")
        assert code == 1
        assert out == ""
        assert err.startswith("internal check failed: ")
        assert "does not divide exactly" in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_zero_symbolic_divisor_is_exit_1(self, capsys, monkeypatch):
        cofactors = chain._cofactors

        def zero_identity(A):
            v = cofactors(A)
            v[0] = Poly.zero(3)
            return v
        monkeypatch.setattr(chain, "_cofactors", zero_identity)
        code, out, err = run(capsys, "verify", "--n", "3", "--suite", "main")
        assert code == 1
        assert out == ""
        assert err.startswith("internal check failed: symbolic null vector")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_per_case_timings(self, capsys, monkeypatch):
        # the clock reads 100, 100.25, 101, 102.25, 104: gaps 0.25 apart
        ticks = (100 + k * k / 4 for k in itertools.count())
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(ticks))
        code, out, _ = run(capsys, "--json", "--timings", "verify",
                           "--n", "2", "--suite", "counts")
        assert code == 0
        cases = json.loads(out)["cases"]
        assert [c["seconds"] for c in cases] == [0.25, 0.75, 1.25, 1.75]

    @pytest.mark.parametrize("n", [3, 4])
    def test_eta_suite_reads_queue_sums(self, capsys, monkeypatch, n):
        def refuse(*_):
            raise AssertionError("the eta suite must not solve symbolically")
        monkeypatch.setattr(chain, "symbolic_stationary", refuse)
        code, out, _ = run(capsys, "verify", "--n", str(n), "--suite", "eta")
        assert code == 0
        assert out.count("PASS") == math.factorial(n)

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "verify", "--n", n, "--suite", "counts")
        assert code == 2
        assert out == ""
        assert "--n must be at least 1" in err


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        a = run(capsys, "verify", "--n", "4", "--suite", "eta")
        b = run(capsys, "verify", "--n", "4", "--suite", "eta")
        assert a == b

    def test_timings_flag_only_changes_timed_lines(self, capsys):
        _, plain, _ = run(capsys, "verify", "--n", "5", "--suite", "counts")
        _, timed, _ = run(capsys, "--timings", "verify", "--n", "5",
                          "--suite", "counts")
        assert plain != timed
        stripped = "\n".join(ln.split("  (")[0]
                             for ln in timed.strip().splitlines())
        assert stripped == plain.strip()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("psi", "--n", "0", "--y-zero"),
        ("psi", "--n", "2", "--params", "{missing}"),
        ("psi", "--n", "2", "--y-zero", "--eval", "x1=1/0,x2=1"),
        ("mlq", "--state", "1"),
        ("mlq", "--state", "1", "--list"),
        ("verify", "--n", "1", "--suite", "mlq"),
        ("count", "--max-n", "0"),
    ])
    def test_bad_input_is_usage_error(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(capsys, *(a.format(missing=missing)
                                       for a in argv))
        assert code == 2
        assert out == ""
        assert err.strip()
        assert "Traceback" not in err

    @pytest.mark.parametrize("item", ["xa=1", "x=1", "x1=a"])
    def test_bad_eval_item_named(self, capsys, item):
        code, _, err = run(capsys, "psi", "--n", "2", "--y-zero",
                           "--eval", item)
        assert code == 2
        assert repr(item) in err

    @pytest.mark.parametrize("items,message", [
        ("x1=1,x1=2,x2=3", "x1 assigned twice in 'x1=2'"),
        ("x2=1,x1=1,x02=5", "x2 assigned twice in 'x02=5'"),
    ])
    def test_repeated_eval_variable_rejected(self, capsys, items, message):
        code, out, err = run(capsys, "psi", "--n", "2", "--y-zero",
                             "--eval", items)
        assert code == 2
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("argv,text", [
        (("formula", "--state", "a"), "a"),
        (("schubert", "--perm", ""), ""),
        (("mlq", "--state", "1,,2"), "1,,2"),
    ])
    def test_bad_perm_text_named(self, capsys, argv, text):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"not comma-separated integers: {text!r}\n"

    def test_zero_denominator_in_params_file(self, capsys, tmp_path):
        f = tmp_path / "params.txt"
        f.write_text("1/0\n1\n1\n1\n")
        code, out, err = run(capsys, "psi", "--n", "2", "--params", str(f))
        assert code == 2
        assert "zero denominator" in err

    @pytest.mark.parametrize("text,message", [
        ("abc", "bad value in 'abc'"),
        ("1/0", "zero denominator in '1/0'"),
    ])
    def test_bad_params_file_line_named(self, capsys, tmp_path, text,
                                        message):
        f = tmp_path / "params.txt"
        f.write_text(f"{text}\n1\n1\n1\n")
        code, out, err = run(capsys, "psi", "--n", "2", "--params", str(f))
        assert code == 2
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("argv", [
        ("psi", "--n", "0", "--y-zero"),
        ("psi", "--n", "2", "--params", "{missing}"),
        ("psi", "--n", "2", "--y-zero", "--eval", "x1=1/0,x2=1"),
        ("mlq", "--state", "1"),
        ("mlq", "--state", "1", "--list"),
        ("verify", "--n", "1", "--suite", "mlq"),
        ("count", "--max-n", "0"),
        ("formula", "--state", "2,1,3"),
    ])
    def test_subcommand_usage_error_returns_2(self, capsys, tmp_path, argv):
        # main returns the code; a SystemExit would escape and fail the test
        missing = str(tmp_path / "missing.txt")
        assert cli.main([a.format(missing=missing) for a in argv]) == 2
        assert capsys.readouterr().err.strip()

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "3", "--suite", "nope")
        assert code == 2


@pytest.mark.parametrize("argv", [
    ("psi", "--n", "2", "--y-zero", "--eval", "x1=2,x2=1"),
    ("formula", "--state", "1,3,2"),
    ("count", "--max-n", "3"),
    ("mlq", "--state", "1,3,2"),
    ("mlq", "--state", "1,3,2", "--list"),
    ("schubert", "--perm", "2,1"),
    ("verify", "--n", "2", "--suite", "counts"),
])
def test_json_schema_comes_first(capsys, argv):
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert next(iter(json.loads(out).items())) == ("schema", 1)


def test_module_entry_point_runs_cleanly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "ringtasep.cli", "count", "--max-n", "3"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "1 2 6\n"
    assert proc.stderr == ""
