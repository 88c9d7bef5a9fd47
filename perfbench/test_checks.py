"""The benchmark's own checkers: each accepts real output and rejects a
corrupted copy.  Run with `python3 -m pytest perfbench/test_checks.py`;
the whole file takes a few seconds and runs no workload.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
from source import use_checkout_source
from tracing import Tracer

use_checkout_source()
from ringtasep import chain, formulas, mlq, perms  # noqa: E402

HERE = Path(__file__).resolve().parent


def off_by_one(values: dict, key) -> dict:
    out = dict(values)
    out[key] += 1
    return out


@pytest.fixture(scope="module")
def solved_n4():
    x, y = (61, 83, 97, 55), (4, 17, 29, 0)
    return x, y, chain.solve_renormalized(4, chain.RateParams(x, y))


def test_chain_checker_accepts_solver_output(solved_n4):
    x, y, psi = solved_n4
    assert checks.check_chain_values(psi, x, y) == []


@pytest.mark.parametrize("state", [(1, 2, 3, 4), (1, 3, 4, 2), (4, 1, 3, 2)])
def test_chain_checker_rejects_one_value_off_by_one(solved_n4, state):
    x, y, psi = solved_n4
    assert checks.check_chain_values(off_by_one(psi, state), x, y)


def test_chain_checker_rejects_a_rescaled_vector(solved_n4):
    x, y, psi = solved_n4
    doubled = {w: 2 * v for w, v in psi.items()}
    assert checks.check_chain_values(doubled, x, y)


def load_reference():
    data = json.loads((HERE / "reference_n5.json").read_text())
    for pt in data["points"]:
        yield ([Fraction(v) for v in pt["x"]], [Fraction(v) for v in pt["y"]],
               {tuple(map(int, k.split(","))): Fraction(v)
                for k, v in pt["psi"].items()})


def test_stored_reference_is_certified():
    points = list(load_reference())
    assert len(points) >= 2
    for x, y, psi in points:
        assert checks.check_chain_values(psi, x, y) == []
    x, y, psi = points[0]
    assert checks.check_chain_values(off_by_one(psi, (1, 3, 2, 5, 4)), x, y)


def test_formula_checker_against_chain_values():
    x, y = checks.rational_point(4, random.Random(7))
    psi = chain.solve_renormalized(4, chain.RateParams(x, y))
    assert checks.check_chain_values(psi, x, y) == []
    special = perms.enumerate_states(4)
    reference = {w: psi[w] for w in special}
    got = {w: formulas.main_formula(w).evaluate(x, y) for w in special}
    assert checks.check_formula_values(got, reference) == []
    assert checks.check_formula_values(off_by_one(got, special[-1]), reference)
    del got[special[0]]
    assert checks.check_formula_values(got, reference)


@pytest.fixture(scope="module")
def queue_sums_n5():
    return {w: p.to_json_terms() for w, p in mlq.all_psi_via_mlq(5).items()}


def check_queues(sums, n=5, seed=3):
    point = checks.queue_point(n, random.Random(seed))
    return checks.check_queue_sums(list(sums), sums.__getitem__, n, point)


def test_queue_checker_accepts_queue_sums(queue_sums_n5):
    assert check_queues(queue_sums_n5) == []


@pytest.mark.parametrize("state", [(1, 2, 3, 4, 5), (1, 3, 2, 5, 4),
                                   (5, 4, 3, 2, 1)])
def test_queue_checker_rejects_a_dropped_queue_weight(queue_sums_n5, state):
    sums = dict(queue_sums_n5)
    terms = [dict(t) for t in sums[state]]
    terms[-1]["coef"] -= 1
    sums[state] = [t for t in terms if t["coef"]]
    assert check_queues(sums)


def test_queue_checker_rejects_a_missing_state(queue_sums_n5):
    sums = dict(queue_sums_n5)
    del sums[(2, 1, 3, 4, 5)]
    assert check_queues(sums)


@pytest.fixture(scope="module")
def verify_n3():
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_entry.py"), "--seed", "1", "verify",
         "--n", "3", "--suite", "mlq"], capture_output=True, text=True,
        timeout=120)
    return proc.returncode, proc.stdout


def test_verify_checker_accepts_a_passing_run(verify_n3):
    code, stdout = verify_n3
    assert checks.check_verify_report(code, stdout, "mlq", 6) == []


def test_verify_checker_rejects_fail_line_exit_code_and_count(verify_n3):
    code, stdout = verify_n3
    failing = stdout.replace("PASS", "FAIL", 1)
    assert checks.check_verify_report(code, failing, "mlq", 6)
    assert checks.check_verify_report(1, stdout, "mlq", 6)
    assert checks.check_verify_report(code, stdout, "mlq", 24)
    assert checks.check_verify_report(code, stdout, "main", 6)
    assert checks.check_verify_report(code, "", "mlq", 6)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.start.extend([0, 10, 20])
    tracer.end.extend([100, 50, 30])
    tracer.parent.extend([-1, 0, 1])
    tracer.nested.extend([0, 0, 1])
    a, b = tracer._id("a"), tracer._id("b")
    tracer.name.extend([a, b, b])
    incl, own, calls = tracer.layer_totals()
    assert own["a"] * 1e9 == pytest.approx(60)
    assert own["b"] * 1e9 == pytest.approx(40)
    assert incl["b"] * 1e9 == pytest.approx(40)  # the nested b is inside
    assert calls["b"] == 2


def test_run_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-n5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
