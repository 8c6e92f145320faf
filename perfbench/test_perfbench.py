"""Tests of the benchmark itself: the verifiers reject corrupted output, the
digest repeats and survives tracing, the traced self times add up, and
BENCHMARK.json matches the metrics the code prints.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from pcsm import continuous, forbidden_dp, greedy_dp, kmedian, lp  # noqa: E402
from pcsm.core import LinearOracle, make_instance, normalize  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SEED = 7


def _corrupting(op, corrupt):
    return workloads.Op(op.solver, op.label + ".corrupt",
                        lambda: corrupt(op.call()), op.check)


def _small_instance():
    # optimum {0, 1} with value 5; element 2 alone breaks the packing row
    inst = make_instance([[2, 2, 5]], [[1, 1, 1]], [4], [2], LinearOracle([3, 2, 1]))
    return inst, 0b011


def test_verifier_counts_corrupted_results():
    inst, planted = _small_instance()
    rnd = workloads.Round()
    workloads._set_solver_ops(rnd, "tiny", inst, planted, True,
                              workloads.rational_twin(random.Random(0), inst))
    by_solver = {op.solver: op for op in rnd.ops}
    vanilla = by_solver["vanilla_dp"]
    completion = by_solver["dp_with_completion"]
    forbidden = by_solver["forbidden_dp_solve"]

    def extra_element(res):       # a set that breaks packing, value kept honest
        mask = res.best_set | 0b100
        return dataclasses.replace(res, best_set=mask, best_value=inst.objective.eval(mask))

    def off_by_one(res):
        return dataclasses.replace(res, best_value=res.best_value + 1)

    def wrong_support(res):
        return dataclasses.replace(res, support=res.support | 0b100)

    lp_op = workloads.Op("simplex:lp", "m5", lambda: lp.simplex_solve(lp.build_lp(5)),
                         lambda s: checks.check_lp_optimum(s, float(lp.closed_form_optimum(5))))

    def wrong_optimum(sol):
        return dataclasses.replace(sol, objective=sol.objective + 1e-3)

    km_inst = workloads.two_distance_instance(random.Random(3), 6, 7)
    km_op = workloads.Op("solve_two_distance", "km",
                         lambda: kmedian.solve_two_distance(km_inst),
                         lambda r: checks.check_kmedian(km_inst, r))

    def cost_off(res):
        return dataclasses.replace(res, cost=res.cost - 1)

    corrupted = [
        _corrupting(vanilla, extra_element),
        _corrupting(vanilla, off_by_one),
        _corrupting(completion, wrong_support),
        _corrupting(forbidden, extra_element),
        _corrupting(lp_op, wrong_optimum),
        _corrupting(km_op, cost_off),
    ]
    honest = rnd.ops + [lp_op, km_op]
    mixed = workloads.Round(ops=honest + corrupted)
    records, best, _, _, passes = harness.run_passes(mixed.ops, 0)
    failed = [r for r in records if r.reason is not None]
    assert [r.label for r in failed] == [op.label for op in corrupted] * passes
    assert all(r.reason for r in failed)
    metrics = harness.end_to_end(records, best, 1.0, records[:len(mixed.ops)])
    assert metrics["verified_frac"] == 1 - len(corrupted) / len(mixed.ops)


def test_output_that_changes_between_passes_fails():
    calls = []

    def drifting():
        calls.append(None)
        return len(calls)
    op = workloads.Op("vanilla_dp", "drift", drifting,
                      lambda r: checks.Verdict(None, str(r), None))
    records, best, _, _, passes = harness.run_passes([op], 0, min_passes=3)
    assert passes == 3 and len(best) == 1
    assert [r.reason for r in records] == [None] + ["output differs from the first pass"] * 2


def test_main_verifier_rejects_packing_violation():
    inst, _ = _small_instance()
    norm = normalize(inst)
    res = continuous.solve_main(inst, workloads.MAIN_EPS, seed=1,
                                params=workloads.MAIN_PARAMS, **workloads.MAIN_KNOBS)
    assert checks.check_main(inst, norm, res, workloads.MAIN_EPS).reason is None
    bad = dataclasses.replace(res, solution=0b111, value=inst.objective.eval(0b111))
    assert "packing" in checks.check_main(inst, norm, bad, workloads.MAIN_EPS).reason


def test_solver_exception_is_a_failed_op():
    def boom():
        raise ValueError("refused")
    op = workloads.Op("vanilla_dp", "boom", boom, lambda r: None)
    record = harness.run_op(op)
    assert record.reason == "solver raised ValueError: refused"


def _rounds(name):
    workload = workloads.WORKLOADS[name]
    return [workloads.make_round(workload, SEED, 0)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_repeats_and_tracing_is_pass_through(name):
    first, _ = harness.run_rounds(_rounds(name))
    assert not [r.reason for r in first if r.reason]

    rounds = _rounds(name)
    originals = (greedy_dp.vanilla_dp, lp.simplex_solve, kmedian.match_value)
    second, _, traced, wall, tracer = harness.run_paired(rounds)
    assert harness.digest(second) == harness.digest(first)
    assert harness.digest(traced) == harness.digest(first)
    assert (greedy_dp.vanilla_dp, lp.simplex_solve, kmedian.match_value) == originals
    assert all("eval" not in vars(o) for rnd in rounds for o in rnd.oracles)

    metrics = tracer.layer_metrics(wall, 1.0)
    assert set(metrics) == {m[0] for m in LAYER_METRICS}
    assert abs(metrics["trace.accounted_frac"] - 1) < 0.01
    assert tracer.calls["harness.op"] == len(traced)
    ops = {s[4] for s in tracer.spans if s[0] == "harness.op"}
    assert ops == set(range(len(traced)))


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in LAYER_METRICS]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_dp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_polynomial_verifier_checks_ratios():
    inst = make_instance([[Fraction(3, 2), 2]], [[1, Fraction(1, 3)]], [2], [1],
                         LinearOracle([1, 1]))
    res = forbidden_dp.solve_polynomial(inst, Fraction(1, 2))
    assert checks.check_polynomial(inst, res, Fraction(1, 2)).reason is None
    bad = dataclasses.replace(res, best_set=0b11, best_value=2,
                              pack_ratio=Fraction(7, 4), cover_ratio=Fraction(4, 3))
    assert "pack ratio" in checks.check_polynomial(inst, bad, Fraction(1, 2)).reason


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quota_gives_enough_ops_for_the_p90(name):
    workload = workloads.WORKLOADS[name]
    rounds = [workloads.make_round(workload, SEED, i) for i in range(workload.quota)]
    assert sum(len(r.ops) for r in rounds) >= harness.MIN_OPS


def test_calibration_scales_by_the_best_kernel_time():
    import calibrate
    assert calibrate.dp_kernel() == calibrate.dp_kernel()      # fixed work
    assert calibrate.sample() > 0
    ref = calibrate.REFERENCE_S
    assert calibrate.scale([2 * ref, ref / 2, ref / 2]) == 2
    assert calibrate.every(216) == 9 and calibrate.every(5) == 1
    records, best, kernel_best, _, _ = harness.run_passes(_rounds("verify_dp")[0].ops, 0)
    assert len(kernel_best) == -(-len(best) // calibrate.every(len(best)))
    plain = harness.end_to_end(records, best, 1.0, records)
    doubled = harness.end_to_end(records, best, 1.0, records, scale=2.0)
    assert doubled["solve_s.p50"] == 2 * plain["solve_s.p50"]
    assert doubled["setup_s"] == 1.0
    assert doubled["solves_per_s"] == plain["solves_per_s"] / 2
