"""Smoke tests of the benchmark harness at a tiny problem size.

They check that every metric BENCHMARK.json names is emitted with its
unit, that traced call counts are exact and repeat, and that tracing
changes no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracer  # noqa: E402
from rrlab import lab  # noqa: E402
from rrlab.subsolve import SubdomainSolver  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=1):
    result, detail = harness.run_benchmark(workload, seed, 1e-3, trace,
                                           sizes=harness.TINY)
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result, detail


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _run(w, t) for w in harness.WORKLOADS for t in (False, True)}


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = runs[workload, trace][0]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == \
            {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


def test_workload_metrics_are_reported(runs):
    names = {w: set(runs[w, False][1]["workload_metrics"]) for w in harness.WORKLOADS}
    assert {"iterations", "ms_per_iter", "max_err_X", "failed_frac"} <= names["converge"]
    assert {"criteria_passed", "rho_rel_err", "rho", "rho_ref",
            "failed_frac"} <= names["check"]


def _layers(runs, workload):
    return {k: v["value"] for k, v in runs[workload, True][0]["metrics"].items()}


def test_traced_counts_are_exact(runs):
    conv = _layers(runs, "converge")
    iterations = runs["converge", True][1]["workload_metrics"]["iterations"]["value"]
    assert conv["interface.pr_step.calls"] == iterations
    assert conv["interface.assemble_dense.calls"] == 0
    assert conv["interface.spectral_analysis.calls"] == 0
    assert conv["interface.run_pr.calls"] == len(harness.TINY.nx) * len(harness.TINY.s_values)
    assert conv["subsolve.lu_solve.per_subsolve"] == harness.TINY.converge_steps

    check = _layers(runs, "check")
    assert check["acceptance.run_acceptance.calls"] == 1
    assert check["interface.assemble_dense.calls"] == 4     # criteria 3 and 4
    assert check["interface.spectral_analysis.calls"] == 1
    for n in range(1, 11):
        assert check[f"acceptance.criterion_{n}.calls"] == (n in harness.TINY.criteria)


def test_traced_counts_repeat(runs):
    again = _run("converge", True)[0]["metrics"]
    first = runs["converge", True][0]["metrics"]
    counts = [k for k in first if k.endswith(".calls")]
    assert counts and all(again[k] == first[k] for k in counts)


def test_tracing_changes_no_result(runs):
    for workload, key in (("converge", "iterations"), ("check", "rho")):
        untraced = runs[workload, False][1]["workload_metrics"][key]["value"]
        traced = runs[workload, True][1]["workload_metrics"][key]["value"]
        assert untraced and traced == untraced


def test_seed_zero_is_the_desk_configuration():
    cfgs = [c.run.args[0] for c in harness.converge_workload(0).cases]
    assert [(c.nx, c.s) for c in cfgs] == \
        [(nx, s) for nx in (16, 32, 64) for s in (0.1, 1.0, 10.0)]
    assert all(c.alpha_right == 3.0 and c.max_iter == 1000 for c in cfgs)
    shuffled = [c.run.args[0] for c in harness.converge_workload(5).cases]
    assert shuffled[0].alpha_right != 3.0
    assert sorted((c.nx, c.s) for c in shuffled) == sorted((c.nx, c.s) for c in cfgs)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "check",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_fastest_time_counts_each_unit_at_its_fastest():
    samples = harness.Samples(times={"a": [2.0, 1.5], "b": [3.0, 2.5]},
                              segments={"a": {0: 0.5, ("it",): 0.1},
                                        "b": {0: 0.1}},
                              counts={"a": {0: 1, ("it",): 2}, "b": {0: 1}},
                              uneven={"b"}, setup_keys={"a": {0}, "b": {0}},
                              setup_times={"a": [0.6, 0.7], "b": [0.3, 0.2]},
                              probe={"a": {0: harness.PROBE_REF,
                                           1: 2 * harness.PROBE_REF},
                                     "b": {0: 2 * harness.PROBE_REF}},
                              phases={"a": {0: 0, ("it",): 1}, "b": {0: 0}})
    assert harness.fastest_time(samples) == pytest.approx(0.5 + 0.1 + 2.5 / 2)
    assert harness.fastest_time(samples, setup=True) == pytest.approx(0.5 + 0.2 / 2)
    assert harness.fastest_time(samples, scaled=False) == \
        pytest.approx(0.5 + 2 * 0.1 + 2.5)


def test_later_iterations_of_a_group_pool():
    run, step, solve = (harness.RUN_STARTS[1], "rrlab.interface:pr_step",
                        harness.CUTS[-1])
    names = [None, run, step, solve, step, solve, step, solve, None]
    keys = [k for k, _, _, _ in harness._keyed(range(len(names)), names)]
    assert keys[:4] == [0, 1, 2, 3]              # up to the first iteration
    assert keys[4] == keys[6] and keys[5] != keys[7]
    assert len(set(keys)) == len(keys) - 1


def test_each_criterion_is_a_phase():
    first, second, cut = harness.PHASES[0], harness.PHASES[1], harness.CUTS[-1]
    names = [None, cut, first, cut, second, cut, None]
    phases = [p for _, _, _, p in harness._keyed(range(len(names)), names)]
    assert phases == [0, 0, 1, 1, 2, 2]


def test_setups_of_one_problem_pool():
    setup, done, cut = harness.SETUP, harness.SETUP_DONE, harness.CUTS[-1]
    names = [None, setup, cut, done, cut, setup, cut, done, setup, cut, done, None]
    keyed = list(harness._keyed(range(len(names)), names, ["p", "p", "q"]))
    assert [i for _, _, i, _ in keyed] == [False, True, True, False, False,
                                           True, True, False, True, True, False]
    keys = [k for k, _, _, _ in keyed]
    assert keys[1:3] == keys[5:7] and keys[8] != keys[1]


def test_setup_time_counts_every_setup(monkeypatch):
    delay, calls = 0.02, []
    build_mesh = lab.build_mesh

    def slow(spec):
        calls.append(spec)
        time.sleep(delay)
        return build_mesh(spec)

    monkeypatch.setattr(lab, "build_mesh", slow)
    _, detail = _run("converge", False)
    assert calls
    assert detail["unscaled"]["setup_s"] >= len(calls) * delay


def test_first_iteration_work_is_counted(monkeypatch):
    # Robin factorizations are built on first use, inside the first
    # pr_step of each case; slowing that build must raise wall_s by at
    # least the time added.
    delay, builds = 0.05, []
    robin_factor = SubdomainSolver._robin_factor

    def slow(self, s):
        if float(s) not in self._robin:
            builds.append(s)
            time.sleep(delay)
        return robin_factor(self, s)

    monkeypatch.setattr(SubdomainSolver, "_robin_factor", slow)
    _, detail = _run("converge", False)
    assert builds
    assert detail["unscaled"]["wall_s"] >= len(builds) * delay


def test_missing_cut_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(harness, "CUTS", harness.CUTS + ("rrlab.lab:gone",))
    result, detail = harness.run_benchmark("converge", 1, 1e-3, False,
                                           sizes=harness.TINY)
    assert not result["correct"]
    assert any("rrlab.lab:gone" in p for p in detail["problems"])


def test_missing_target_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("interface.gone", "rrlab.interface:no_such_function", ""),))
    result, detail = harness.run_benchmark("converge", 1, 1e-3, True,
                                           sizes=harness.TINY)
    assert not result["correct"]
    assert any("rrlab.interface:no_such_function" in p for p in detail["problems"])
