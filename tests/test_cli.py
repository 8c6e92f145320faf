import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from pcsm import cli
from pcsm import continuous as cont
from pcsm.brute import brute_optimum
from pcsm.cli import (
    CSV_FIELDS,
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_INFEASIBLE,
    EXIT_OK,
    bench,
    generate_instance,
    instance_digest,
    main,
    write_reports_csv,
)
from pcsm.core import BudgetExceededError, InfeasibleError, instance_to_json_obj, load_instance

# covering bound no subset reaches
INFEASIBLE = {
    "n": 2, "packing": [[1, 1]], "covering": [[1, 1]],
    "pack_bound": [2], "cover_bound": [99],
    "objective": {"kind": "linear", "weights": [1, 1]},
}


def test_gen_deterministic():
    a = generate_instance(n=7, p=2, c=1, family="coverage", seed=5)
    b = generate_instance(n=7, p=2, c=1, family="coverage", seed=5)
    assert (json.dumps(instance_to_json_obj(a), sort_keys=True)
            == json.dumps(instance_to_json_obj(b), sort_keys=True))
    c = generate_instance(n=7, p=2, c=1, family="coverage", seed=6)
    assert instance_digest(a) != instance_digest(c)


def test_gen_planted_feasible():
    for seed in range(10):
        inst = generate_instance(n=9, p=1, c=2, family="linear", seed=seed)
        assert brute_optimum(inst).feasible_count >= 1


def test_gen_empty_instance():
    inst = generate_instance(n=0, p=1, c=1, seed=0)
    assert inst.n == 0
    assert brute_optimum(inst).feasible_count in (0, 1)


def test_gen_rational_mode():
    inst = generate_instance(n=5, p=1, c=1, seed=3, integer=False)
    assert not inst.is_integer()
    assert brute_optimum(inst).feasible_count >= 1


def test_cli_round_trip(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "--n", "6", "--p", "1", "--c", "1", "--seed", "3",
                 "--out", str(path), "--quiet"]) == EXIT_OK
    assert main(["brute", "--instance", str(path), "--quiet"]) == EXIT_OK
    assert main(["dp", "--instance", str(path), "--quiet"]) == EXIT_OK
    assert main(["forbidden", "--instance", str(path), "--epsilon", "1/4",
                 "--quiet"]) == EXIT_OK
    assert main(["forbidden", "--instance", str(path), "--poly",
                 "--epsilon", "1/2", "--quiet"]) == EXIT_OK
    capsys.readouterr()


def test_cli_gen_outputs_identical_bytes(tmp_path, capsys):
    args = ["gen", "--n", "5", "--p", "1", "--c", "1", "--seed", "11", "--json"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


def test_cli_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(INFEASIBLE))
    assert main(["brute", "--instance", str(path), "--quiet"]) == EXIT_INFEASIBLE
    assert main(["dp", "--instance", str(path), "--quiet"]) == EXIT_INFEASIBLE
    capsys.readouterr()


def test_cli_budget_exit_code(tmp_path, capsys):
    n = 24
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "n": n,
        "packing": [[10000] * n, [10000] * n],
        "covering": [[10000] * n, [10000] * n],
        "pack_bound": [100000, 100000], "cover_bound": [100000, 100000],
        "objective": {"kind": "linear", "weights": [1] * n},
    }))
    assert main(["dp", "--instance", str(path), "--exact-keys",
                 "--quiet"]) == EXIT_BUDGET
    capsys.readouterr()


def test_cli_bad_input_exit_code(capsys):
    assert main(["brute", "--instance", "/nonexistent/x.json",
                 "--quiet"]) == EXIT_BAD_INPUT
    capsys.readouterr()


_KM_TEXT = ('{"facilities": [{"cap": 2}, {"cap": 2}], "clients": 3, '
            '"dist_a_pairs": [[0, 0], [1, 0], [2, 1]], "a": 1, "b": %s, "k": 2}')


_CARD_TEXT = ('{"n": 5, "packing": [[1, 1, 1, 1, 1]], "covering": [[2, 0, 3, 1, 2]], '
              '"pack_bound": [2], "cover_bound": [3], '
              '"objective": {"kind": "linear", "weights": [3, 1, 4, 1, 5]}}')
_GUARD_TEXT = ('{"n": 10, "packing": [[1, 1, 1, 1, 1, 1, 1, 1, 1, 1]], '
               '"covering": [[1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000], '
               '[1, 1, 1, 1, 1, 1, 1, 1, 1, 1]], "pack_bound": [5], "cover_bound": [2000, 2], '
               '"objective": {"kind": "linear", "weights": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}}')
_INST = ["--n", "6", "--seed", "3"]


# The exit codes of the subcommands that take --instance (brute force, the
# DPs, k-median and the continuous pipeline), each on a file written (or
# generated) for it.
@pytest.mark.parametrize("command, extra, name, source, code", [
    ("brute", [], "inst.json", _INST, EXIT_OK),
    # a 12-item coverage universe: two blocks of the oracle's tables
    ("brute", [], "hash_cov.json", ["--n", "12", "--family", "coverage", "--seed", "4"], EXIT_OK),
    ("brute", [], "zero_den.json",
     '{"n": 2, "packing": [[1, 1]], "covering": [], "pack_bound": ["1/0"], '
     '"cover_bound": [], "objective": {"kind": "linear", "weights": [1, 2]}}',
     EXIT_BAD_INPUT),
    ("kmedian", [], "km.json", _KM_TEXT % "3", EXIT_OK),
    # Python's json reads Infinity; a distance must be finite
    ("kmedian", [], "km_inf.json", _KM_TEXT % "Infinity", EXIT_BAD_INPUT),
    ("dp", [], "inst.json", _INST, EXIT_OK),
    ("dp", ["--completion"], "inst.json", _INST, EXIT_OK),
    ("forbidden", [], "inst.json", _INST, EXIT_OK),
    ("forbidden", ["--poly"], "inst.json", _INST, EXIT_OK),
    ("forbidden", ["--cardinality", "2"], "card.json", _CARD_TEXT, EXIT_OK),
    # exact keys: each covering row's coordinate is bounded by its own sum
    ("dp", ["--exact-keys"], "guard.json", _GUARD_TEXT, EXIT_OK),
    # the forbidden-set DP's epsilon lies in (0, 1], as solve_polynomial's does
    ("forbidden", ["--epsilon", "2"], "inst.json", _INST, EXIT_BAD_INPUT),
    ("forbidden", ["--poly", "--epsilon", "2"], "inst.json", _INST, EXIT_BAD_INPUT),
    ("continuous", ["--relaxed", "--trials", "3", "--steps", "4", "--budget", "600",
                    "--samples", "5"], "inst.json", _INST, EXIT_OK),
    ("continuous", ["--samples", "0"], "inst.json", _INST, EXIT_BAD_INPUT),
    ("continuous", ["--epsilon", "0"], "inst.json", _INST, EXIT_BAD_INPUT),
    # the analysis schedule is refused before any pair when its guess
    # stream exceeds the budget: the defaults (eps 1/10), and eps 1/2 on
    # n = 7 (945 grid points times 128 chosen sets)
    ("continuous", [], "inst.json", _INST, EXIT_BUDGET),
    ("continuous", ["--epsilon", "1/2", "--trials", "2", "--steps", "2"], "hash.json",
     ["--n", "7", "--seed", "2"], EXIT_BUDGET),
], ids=["brute-inst", "brute-hash-cov", "brute-zero-den", "kmedian-km", "kmedian-km-inf",
        "dp-inst", "dp-completion-inst", "forbidden-inst", "forbidden-poly-inst",
        "forbidden-cardinality-card", "dp-exact-keys-guard", "forbidden-epsilon-2",
        "forbidden-poly-epsilon-2", "continuous-relaxed-inst", "continuous-samples-0",
        "continuous-epsilon-0", "continuous-analysis-inst", "continuous-analysis-hash"])
def test_ci_console_exit_codes(tmp_path, capsys, command, extra, name, source, code):
    path = tmp_path / name
    if isinstance(source, list):
        assert main(["gen", *source, "--out", str(path), "--quiet"]) == EXIT_OK
    else:
        path.write_text(source)
    assert main([command, *extra, "--instance", str(path)]) == code
    capsys.readouterr()


# The exit codes of the subcommands that take no --instance.  Each
# command's last argument is a file: ``gen`` writes it, ``bench`` reads the
# text given here.
@pytest.mark.parametrize("argv, name, text, code", [
    (["gen", "--n", "6", "--seed", "3", "--out"], "inst.json", None, EXIT_OK),
    (["gen", "--n", "12", "--family", "coverage", "--seed", "4", "--out"], "hash_cov.json",
     None, EXIT_OK),
    (["gen", "--n", "7", "--seed", "2", "--out"], "hash.json", None, EXIT_OK),
    (["lp", "--m", "2", "4", "--verify-analytic", "--verify-upper-bound"], None, None, EXIT_OK),
    (["bench", "--solvers", "brute,dp,dp_completion,forbidden,poly,continuous", "--suite"],
     "suite.json", '[{"gen": {"n": 6, "seed": 2}}, {"lp": {"variant": "lpf", "m": 3}}]',
     EXIT_OK),
    (["bench", "--suite"], "bad_suite.json", '[{"n": "x"}]', EXIT_BAD_INPUT),
], ids=["gen-inst", "gen-hash-cov", "gen-hash", "lp-verify", "bench-suite", "bench-bad-suite"])
def test_ci_console_exit_codes_without_an_instance(tmp_path, capsys, argv, name, text, code):
    if name is not None:
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        argv = [*argv, str(path)]
    assert main(argv) == code
    if text is None and name is not None:
        assert path.is_file()
    capsys.readouterr()


def _first_weight_a_list():
    obj = instance_to_json_obj(generate_instance(n=4, p=1, c=1, seed=1))
    obj["objective"]["weights"][0] = [1]
    return obj


def _instance_with(family="linear", objective=(), **fields):
    obj = instance_to_json_obj(generate_instance(n=4, p=1, c=1, family=family, seed=1))
    obj.update(fields)
    obj["objective"].update(objective)
    return obj


def _kmedian_with(**fields):
    return {"facilities": [{"cap": 2}, {"cap": 2}], "clients": 3,
            "dist_a_pairs": [[0, 0], [1, 0], [2, 1]], "a": 1, "b": 3, "k": 2, **fields}


@pytest.mark.parametrize("command, payload", [
    ("kmedian", _kmedian_with(k=2.5)),
    ("brute", _first_weight_a_list()),
    ("kmedian", _kmedian_with(a="1")),
    ("kmedian", _kmedian_with(dist_a_pairs=[5])),
    ("brute", _instance_with(packing=5)),
    ("brute", _instance_with("coverage", objective={"element_sets": [1, 2, 3, 4]})),
    ("kmedian", _kmedian_with(dist_a_pairs=[[0.0, 0]])),
    ("brute", {**_instance_with(), "objective": [1]}),
    ("kmedian", _kmedian_with(clients=-1, dist_a_pairs=[], a=0)),
    ("kmedian", _kmedian_with(clients=-1, dist_a_pairs=[], b=4)),
    ("kmedian", _kmedian_with(clients=-1, dist_a_pairs=[])),
    ("kmedian", _kmedian_with(k=True)),
    ("kmedian", _kmedian_with(facilities=[{"cap": True}, {"cap": 2}])),
    ("kmedian", _kmedian_with(dist_a_pairs=[[0, 0], [True, 0], [2, 1]])),
    ("brute", _instance_with(pack_bound=[True])),
    ("brute", _instance_with("concave_of_modular", objective={"cap": True})),
    ("kmedian", _kmedian_with(b=math.inf)),
    ("kmedian", _kmedian_with(a=math.inf, b=math.inf)),
    ("brute", _instance_with(objective={"weights": ["1/0", 1, 2, 3]})),
    ("dp", _instance_with(pack_bound=["3/0"])),
], ids=["kmedian-fractional-k", "brute-list-weight", "kmedian-string-a",
        "kmedian-int-pair", "brute-int-packing", "brute-int-element-sets",
        "kmedian-float-pair", "brute-list-objective", "kmedian-negative-clients-a0",
        "kmedian-negative-clients-far-b", "kmedian-negative-clients",
        "kmedian-boolean-k", "kmedian-boolean-cap", "kmedian-boolean-pair",
        "brute-boolean-pack-bound", "brute-boolean-cap", "kmedian-infinite-b",
        "kmedian-infinite-a-and-b", "brute-zero-denominator-weight",
        "dp-zero-denominator-bound"])
def test_cli_malformed_json_is_bad_input(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--instance", str(path), "--quiet"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("bad input:")


def test_cli_lp_csv(tmp_path, capsys):
    out = tmp_path / "lp.csv"
    assert main(["lp", "--variant", "lpf", "--m", "2", "5",
                 "--csv", str(out), "--quiet"]) == EXIT_OK
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["m", "optimum"]
    assert abs(float(rows[1][1]) - 0.25) < 1e-6
    assert abs(float(rows[2][1]) - 0.31727598) < 1e-6
    capsys.readouterr()


def test_cli_lp_verify_analytic(capsys):
    assert main(["lp", "--variant", "lp", "--m", "3", "--verify-analytic",
                 "--json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["analytic"][0]["primal_feasible"]
    assert out["analytic"][0]["dual_value_matches"]


def test_cli_kmedian(tmp_path, capsys):
    path = tmp_path / "km.json"
    path.write_text(json.dumps({
        "facilities": [{"cap": 2}, {"cap": 2}], "clients": 3,
        "dist_a_pairs": [[0, 0], [1, 0], [2, 1]], "a": 1, "b": 3, "k": 2,
    }))
    assert main(["kmedian", "--instance", str(path), "--json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["found"] and out["matched"] == 3


def test_cli_continuous(tmp_path, capsys):
    path = tmp_path / "inst.json"
    main(["gen", "--n", "5", "--p", "1", "--c", "1", "--seed", "4",
          "--out", str(path), "--quiet"])
    code = main(["continuous", "--instance", str(path), "--epsilon", "1/10",
                 "--relaxed", "--delta", "1/5", "--trials", "3", "--steps", "4",
                 "--budget", "600", "--samples", "5", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["found"]
    assert float(out["pack_ratio"]) <= 1.0


def test_cli_continuous_prints_records_only_with_diagnostics(tmp_path, capsys):
    path = tmp_path / "inst.json"
    main(["gen", "--n", "5", "--seed", "4", "--out", str(path), "--quiet"])
    outs = []
    for flags in ([], ["--diagnostics"]):
        assert main(["continuous", "--instance", str(path), "--relaxed", "--trials", "3",
                     "--steps", "4", "--budget", "600", "--samples", "5", "--json",
                     *flags]) == EXIT_OK
        outs.append(json.loads(capsys.readouterr().out))
    plain, detailed = outs
    assert "guess_diagnostics" not in plain
    records = detailed.pop("guess_diagnostics")
    assert detailed == plain
    counts = plain["guess_counts"]
    assert counts["examined"] == plain["guesses_enumerated"]
    assert len(records) == counts["examined"] - counts["repeat"] - counts["pruned"] > 0


def test_cli_continuous_refuses_the_analysis_schedule_before_any_pair(tmp_path, capsys,
                                                                     monkeypatch):
    # the default settings on n = 6: 4,340 cover grid points times 64
    # chosen sets, far over the budget of 100,000 pairs
    path = tmp_path / "inst.json"
    main(["gen", "--n", "6", "--seed", "3", "--out", str(path), "--quiet"])

    def too_late(*args, **kw):
        raise AssertionError("the cover grid was built before the refusal")

    with monkeypatch.context() as m:
        # the grid's exact powers alone take seconds at small epsilon
        m.setattr(cont, "_target_grid", too_late)
        assert main(["continuous", "--instance", str(path)]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget refused: the analysis schedule")
    assert "100000 pairs" in captured.err
    # explicit params keep the flagged truncation
    assert main(["continuous", "--instance", str(path), "--relaxed", "--trials", "2",
                 "--steps", "2", "--samples", "3", "--budget", "40", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["truncated"] is True


@pytest.mark.parametrize("error, kind, label, code", [
    (BudgetExceededError, "budget", "budget refused", EXIT_BUDGET),
    (InfeasibleError, "infeasible", "infeasible", EXIT_INFEASIBLE),
    (ValueError, "bad_input", "bad input", EXIT_BAD_INPUT),
])
def test_cli_refusals_keep_their_reason_in_json(tmp_path, capsys, monkeypatch, error, kind,
                                                label, code):
    # under --json a refusal prints one JSON object on stdout; stderr, and
    # stdout without --json or under --quiet, stay as they were
    path = tmp_path / "inst.json"
    main(["gen", "--n", "5", "--seed", "4", "--out", str(path), "--quiet"])

    def refuse(*args):
        raise error("no such set")

    monkeypatch.setattr(cli, "_brute", refuse)
    argv = ["brute", "--instance", str(path)]
    for flags, out in ((["--json"], {"error": kind, "reason": "no such set", "exit": code}),
                       ([], None), (["--json", "--quiet"], None)):
        assert main([*argv, *flags]) == code
        captured = capsys.readouterr()
        assert captured.err == f"{label}: no such set\n"
        assert (json.loads(captured.out) if captured.out else None) == out


@pytest.mark.parametrize("flags, refused", [
    (["--samples", "0"], "samples"),
    (["--steps", "-1"], "steps"),
    (["--trials", "-2"], "trials"),
    (["--budget", "-3"], "budget"),
    (["--steps", "0"], None),
    (["--trials", "0"], None),
    (["--budget", "0"], None),
    (["--delta", "0"], "delta"),
    (["--delta", "1/0"], "zero denominator"),
    (["--epsilon", "0"], "epsilon"),
])
def test_cli_continuous_option_ranges(tmp_path, capsys, flags, refused):
    path = tmp_path / "inst.json"
    main(["gen", "--n", "5", "--seed", "4", "--out", str(path), "--quiet"])
    # the later copy of a repeated flag wins
    code = main(["continuous", "--instance", str(path), "--relaxed",
                 "--trials", "2", "--steps", "2", "--samples", "3",
                 "--budget", "200", *flags, "--json"])
    err = capsys.readouterr().err
    if refused:
        assert code == EXIT_BAD_INPUT
        assert err.startswith("bad input:") and refused in err
    else:
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        assert err == ""


@pytest.mark.parametrize("argv, refused", [
    (["forbidden", "--epsilon", "1/0"], "zero denominator"),
    (["forbidden", "--poly", "--epsilon", "1/0"], "zero denominator"),
    # the analysis schedule: epsilon 0 would give delta 0
    (["continuous", "--epsilon", "0"], "epsilon"),
    (["continuous", "--epsilon", "1/0"], "zero denominator"),
    # the forbidden-set DP's epsilon lies in (0, 1], as solve_polynomial's does
    (["forbidden", "--epsilon", "2"], "epsilon must lie in (0, 1]"),
    (["forbidden", "--poly", "--epsilon", "2"], "epsilon must lie in (0, 1]"),
    # --delta is checked on every run, not only under --relaxed
    (["continuous", "--delta", "0"], "delta must lie in (0, 1)"),
    (["continuous", "--delta", "1/0"], "zero denominator"),
    (["continuous", "--delta", "1"], "delta must lie in (0, 1)"),
])
def test_cli_zero_parameters_are_bad_input(tmp_path, capsys, argv, refused):
    path = tmp_path / "inst.json"
    main(["gen", "--n", "5", "--seed", "4", "--out", str(path), "--quiet"])
    assert main([*argv, "--instance", str(path), "--quiet"]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("bad input:") and refused in err


def test_bench_empty_suite():
    stream = io.StringIO()
    write_reports_csv(bench([], ["dp"]), stream)
    rows = list(csv.reader(io.StringIO(stream.getvalue())))
    assert len(rows) == 1
    assert rows[0][0] == "instance_digest"


def test_bench_dp_vs_forbidden_ratios():
    suite = [{"gen": {"n": 7, "p": 1, "c": 1, "seed": s}} for s in range(6)]
    reports = bench(suite, ["dp", "forbidden"])
    assert len(reports) == 12
    for r in reports:
        assert not r.error
        if r.ratio is not None:
            assert float(r.ratio) >= 0.25


def test_bench_lp_rows_match_table():
    suite = [{"lp": {"variant": "lpf", "m": m}} for m in (2, 5, 10, 50)]
    reports = bench(suite, [])
    want = {2: 0.25, 5: 0.31727598, 10: 0.33592079, 50: 0.34990649}
    for r in reports:
        m = int(r.instance_digest.split("=")[1])
        assert abs(r.value - want[m]) < 1e-6


def test_bench_records_failures():
    # covering bound no subset reaches: solver reports, bench keeps going
    suite = [{"gen": {"n": 4, "p": 1, "c": 1, "seed": 1}}]
    reports = bench(suite, ["brute", "nonsense"])
    assert reports[0].error == ""
    assert reports[1].error != ""


def test_cli_bench_end_to_end(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    out_path = tmp_path / "report.csv"
    suite_path.write_text(json.dumps(
        [{"gen": {"n": 6, "p": 1, "c": 1, "seed": 2}},
         {"lp": {"variant": "lpf", "m": 2}}]))
    assert main(["bench", "--suite", str(suite_path),
                 "--solvers", "dp,forbidden", "--out", str(out_path),
                 "--quiet"]) == EXIT_OK
    rows = list(csv.reader(out_path.open()))
    assert rows[0][0] == "instance_digest"
    assert len(rows) == 4          # 2 solvers on the instance + 1 lp row
    capsys.readouterr()


@pytest.mark.parametrize("suite", [
    {"a": 1},
    [5],
    [{"n": "x"}],
    [{"lp": {"variant": "lp", "m": "3"}}],
    [{"gen": {"n": 4, "seed": True}}],
    [{"gen": [4]}],
], ids=["object", "int-item", "string-n", "string-m", "boolean-seed", "list-gen"])
def test_cli_malformed_bench_suite_is_bad_input(tmp_path, capsys, suite):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["bench", "--suite", str(path), "--quiet"]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("bad input:") and captured.out == ""


def test_csv_float_formatting():
    suite = [{"lp": {"variant": "lp", "m": 2}}]
    stream = io.StringIO()
    write_reports_csv(bench(suite, []), stream)
    rows = list(csv.reader(io.StringIO(stream.getvalue())))
    assert rows[1][2] == "0.25"


# ---------------------------------------------------------------------------
# golden CLI output: argv, exit code, stdout, stderr and written files of a
# fixed matrix of runs, pinned by SHA-256 per group, timing fields blanked

GOLDEN_GEN = {
    "lin.json": ["--n", "6", "--p", "1", "--c", "1", "--seed", "3"],
    "cov.json": ["--n", "7", "--family", "coverage", "--seed", "5"],
    "com.json": ["--n", "6", "--p", "2", "--family", "concave_of_modular",
                 "--seed", "2"],
    "empty.json": ["--n", "0"],
    "rat.json": ["--n", "5", "--seed", "3", "--rational"],
}

GOLDEN_SOLVES = {
    "brute": [["brute"], ["brute", "--max-n", "6"]],
    "dp": [["dp"], ["dp", "--completion"], ["dp", "--exact-keys"],
           ["dp", "--completion", "--exact-keys"]],
    "forbidden": [["forbidden"], ["forbidden", "--poly"],
                  ["forbidden", "--epsilon", "1/2"],
                  ["forbidden", "--cardinality", "1"]],
    "continuous": [
        ["continuous", "--relaxed", "--trials", "3", "--steps", "4",
         "--budget", "600", "--samples", "5", "--seed", "7"],
        ["continuous", "--relaxed", "--delta", "1/3", "--trials", "2",
         "--steps", "2", "--budget", "3", "--samples", "3"],
        # the analysis schedule: refused where its stream exceeds the budget
        ["continuous", "--epsilon", "1/2", "--trials", "2", "--steps", "2",
         "--budget", "40", "--samples", "3"],
        ["continuous", "--relaxed", "--trials", "3", "--steps", "4",
         "--budget", "600", "--samples", "5", "--seed", "7", "--diagnostics"],
    ],
}

GOLDEN_SUITE = [
    {"gen": {"n": 6, "p": 1, "c": 1, "seed": 2}},
    {"gen": {"n": 0}},
    {"gen": {"n": 5, "seed": 3, "integer": False}},
    {"gen": {"n": 6, "p": 2, "c": 1, "family": "coverage", "seed": 4}},
    {"n": 5, "family": "concave_of_modular", "density": 0.4},
    {"lp": {"variant": "lpf", "m": 3}},
    {"lp": {"variant": "dual", "m": 2}},
]

GOLDEN_DIGESTS = {
    "gen": "8f77ce6237f1c834",
    "brute": "f497d6d080396b1a",
    "dp": "093264516b5e4967",
    "forbidden": "e1bb00998fc49e54",
    "continuous": "3e6cd47fbd23cffd",
    "lp": "409916addc0affb5",
    "kmedian": "798deaea2c691fcc",
    "bench": "dfa6da6c3ca3700e",
    "bench_infeasible": "8fcff896113aaf6d",
}

ALL_SOLVERS = "brute,dp,dp_completion,forbidden,poly,continuous"


def _blank_timing(text):
    """Blanks lp's optima[].seconds and the bench CSV's seconds column."""
    if not text.startswith(",".join(CSV_FIELDS)):
        return re.sub(r'"seconds": "[^"]*"', '"seconds": ""', text)
    stream = io.StringIO()
    writer = csv.writer(stream)
    for i, row in enumerate(csv.reader(io.StringIO(text))):
        if i:
            row[CSV_FIELDS.index("seconds")] = ""
        writer.writerow(row)
    return stream.getvalue()


def _golden_run(capsys, argv, files=()):
    code = main(argv)
    captured = capsys.readouterr()
    written = []
    for name in files:
        with open(name, encoding="utf-8", newline="") as fh:
            written.append(_blank_timing(fh.read()))
    return [argv, code, _blank_timing(captured.out), captured.err, written]


def _golden_records(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inf.json").write_text(json.dumps(INFEASIBLE))
    (tmp_path / "km.json").write_text(json.dumps({
        "facilities": [{"cap": 2}, {"cap": 2}], "clients": 3,
        "dist_a_pairs": [[0, 0], [1, 0], [2, 1]], "a": 1, "b": 3, "k": 2}))
    (tmp_path / "km_short.json").write_text(json.dumps({
        "facilities": [{"cap": 1}, {"cap": 1}], "clients": 3,
        "dist_a_pairs": [[0, 0], [1, 0], [2, 1]], "a": 1, "b": 3, "k": 2}))
    (tmp_path / "suite.json").write_text(json.dumps(GOLDEN_SUITE))
    (tmp_path / "suite13.json").write_text(json.dumps(
        [{"gen": {"n": 13, "seed": 1}}, {"gen": {"n": 4, "seed": 9}}]))
    formats = (["--json"], [])
    records = {}
    records["gen"] = [
        _golden_run(capsys, ["gen", *spec, *fmt,
                             *(["--out", name] if fmt else [])],
                    files=[name] if fmt else [])
        for name, spec in GOLDEN_GEN.items() for fmt in formats]
    for group, runs in GOLDEN_SOLVES.items():
        records[group] = [
            _golden_run(capsys, [*run, "--instance", name, *fmt])
            for run in runs for name in [*GOLDEN_GEN, "inf.json"]
            for fmt in formats]
    records["lp"] = [
        _golden_run(capsys, ["lp", "--m", "2", "4", "--verify-analytic",
                             "--verify-upper-bound", *fmt])
        for fmt in formats] + [
        _golden_run(capsys, ["lp", "--variant", "lp", "--m", "3",
                             "--verify-analytic", "--json"]),
        _golden_run(capsys, ["lp", "--variant", "dual", "--m", "2", "5",
                             "--csv", "lp.csv"], files=["lp.csv"]),
    ]
    records["kmedian"] = [
        _golden_run(capsys, ["kmedian", "--instance", name, *fmt])
        for name in ("km.json", "km_short.json") for fmt in formats]
    records["bench"] = [
        _golden_run(capsys, ["bench", "--suite", "suite.json", "--solvers",
                             ALL_SOLVERS + ",nonsense", *seed])
        for seed in ([], ["--seed", "5"])] + [
        _golden_run(capsys, ["bench", "--suite", "suite13.json", "--out",
                             "report.csv", *fmt], files=["report.csv"])
        for fmt in formats]
    # no generated instance is infeasible (each has a planted feasible
    # subset), so the failure reasons come from swapping the generator
    inf = load_instance("inf.json")
    monkeypatch.setattr(cli, "generate_instance", lambda **_spec: inf)
    records["bench_infeasible"] = [_golden_run(
        capsys, ["bench", "--suite", "suite.json", "--solvers", ALL_SOLVERS])]
    return records


def test_cli_golden_outputs(capsys, monkeypatch, tmp_path):
    records = _golden_records(capsys, monkeypatch, tmp_path)
    digests = {
        group: hashlib.sha256(json.dumps(runs).encode()).hexdigest()[:16]
        for group, runs in records.items()}
    assert digests == GOLDEN_DIGESTS


# ---------------------------------------------------------------------------
# The same bytes under PYTHONHASHSEED 0 and 1: each hash seed gets one
# interpreter that runs every command in turn

HASH_SEED_GEN = {
    "hash.json": ["--n", "7", "--seed", "2"],
    "hash_c2.json": ["--n", "7", "--seed", "5", "--c", "2", "--rational"],
    "hash_p3c3.json": ["--n", "7", "--p", "3", "--c", "3", "--rational"],
    # small enough for the analysis schedule's stream to fit its budget
    "analysis.json": ["--n", "6", "--seed", "2"],
    # a 12-item universe: two blocks of the coverage oracle's tables
    "hash_cov.json": ["--n", "12", "--family", "coverage", "--seed", "4"],
    # two integer rows of each kind, for the completion's witness staircase
    "hash_p2c2.json": ["--n", "8", "--p", "2", "--c", "2", "--seed", "6"],
}
_RELAXED_RUN = ["continuous", "--relaxed", "--trials", "3", "--steps", "4", "--samples", "5"]
HASH_SEED_RUNS = [
    # the pairs' seeds mix E1 and the target indices: no hash() may reach them.
    # Budget 40 ends the stream early, 256 at a target pass's end (128
    # chosen sets); two covering rows, and three rows of each kind
    *([*_RELAXED_RUN, "--budget", budget, "--instance", "hash.json"]
      for budget in ("600", "40", "256")),
    [*_RELAXED_RUN, "--budget", "2000", "--instance", "hash_c2.json"],
    # a record per pair, in stream order however the pairs are walked
    [*_RELAXED_RUN, "--diagnostics", "--budget", "2000", "--instance", "hash_c2.json"],
    [*_RELAXED_RUN, "--budget", "2000", "--instance", "hash_p3c3.json"],
    ["continuous", "--epsilon", "1/2", "--trials", "2", "--steps", "2",
     "--instance", "analysis.json"],
    ["dp", "--completion", "--instance", "hash.json"],
    ["dp", "--completion", "--instance", "hash_p2c2.json"],
    ["forbidden", "--instance", "hash.json"],
    ["forbidden", "--poly", "--instance", "hash.json"],
    ["forbidden", "--cardinality", "2", "--instance", "card.json"],
    ["kmedian", "--instance", "km.json"],
    ["brute", "--instance", "hash.json"],
    ["dp", "--exact-keys", "--instance", "hash.json"],
    ["dp", "--completion", "--exact-keys", "--instance", "hash.json"],
    ["brute", "--instance", "hash_cov.json"],
    ["dp", "--completion", "--instance", "hash_cov.json"],
    ["forbidden", "--poly", "--instance", "hash_cov.json"],
]
_RUN_ALL = ("import json, sys\n"
            "from pcsm.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    print(argv, main(argv), flush=True)\n")


def test_same_output_under_both_hash_seeds(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for name, spec in HASH_SEED_GEN.items():
        assert main(["gen", *spec, "--out", name]) == EXIT_OK
    capsys.readouterr()
    (tmp_path / "card.json").write_text(_CARD_TEXT)
    (tmp_path / "km.json").write_text(_KM_TEXT % "3")
    runs = json.dumps([[*run, "--json"] for run in HASH_SEED_RUNS])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = [subprocess.run(
        [sys.executable, "-c", _RUN_ALL, runs], check=True, capture_output=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "1")]
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"] 0\n") == len(HASH_SEED_RUNS)
    # each run prints one JSON line, then its argv and exit code
    printed = outputs[0].splitlines()[::2]
    assert b'"truncated": true' in printed[HASH_SEED_RUNS.index(
        [*_RELAXED_RUN, "--budget", "40", "--instance", "hash.json"])]
    # the analysis schedule's run is the one continuous run its budget fits
    assert outputs[0].count(b'"truncated": false') == 1
