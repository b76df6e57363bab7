"""Smoke test of the e2e ladder (``python -m pytest benchmarks/e2e -q``).

Runs the real runner in ``--quick`` mode (16-site problems, one sample
per stage) and checks the contract the later perf PRs rely on: every
named metric comes out with its unit on every workload, the seed moves
the inputs but not the counts, and a wrong reference energy is a failed
operation and a non-zero exit.  Not collected by tier-1 (``testpaths =
["tests"]``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from catalogue import END_TO_END, PER_LAYER, layer_rows_for  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def run(*args, check=True) -> subprocess.CompletedProcess:
    done = subprocess.run([*RUN, *args], capture_output=True, text=True, timeout=300)
    if check:
        assert done.returncode == 0, done.stdout + done.stderr
    return done


def load(path: Path) -> dict[tuple[str, int], dict]:
    runs = json.loads(path.read_text())["runs"]
    return {(r["workload"], r["trace"]): r for r in runs}


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """Both passes of all four workloads, for seeds 0 and 1."""
    out = tmp_path_factory.mktemp("e2e")
    paths = []
    for seed in (0, 1):
        paths.append(out / f"seed{seed}.json")
        run("--quick", "--seed", str(seed), "--out", str(paths[-1]))
    return paths


def test_every_metric_is_emitted_with_its_unit(quick):
    records = load(quick[0])
    for workload in WORKLOADS:
        untraced = records[workload.name, 0]
        assert untraced["correct"] and untraced["attempted"] >= 5
        for metric in END_TO_END:
            got = untraced["metrics"][metric.name]
            assert got["unit"] == metric.unit and got["value"] > 0, metric.name
        traced = records[workload.name, 1]
        assert traced["correct"]
        for row in layer_rows_for(workload.backend):
            if row.name not in traced["metrics"]:
                assert row.name in traced["notes"], row.name  # omitted with a reason
                continue
            assert traced["metrics"][row.name]["unit"] == row.unit, row.name
        assert {"nproc", "cpu_model", "numpy", "git_commit", "sloc_src"} <= set(
            traced["env"]
        )
        assert traced["env"]["numpy_imported_before_pinning"] is False


def test_driver_line_has_exactly_the_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = run("--workload", "chain24_pc_sim", "--quick", "--trace", str(trace))
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {
            (name, m["unit"]) for name, m in line["metrics"].items()
        } == {(m["name"], m["unit"]) for m in declared[key]}


def test_benchmark_json_agrees_with_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in declared["workloads"]] == [w.name for w in WORKLOADS]
    assert [
        (m["name"], m["unit"], m["bound"]) for m in declared["end_to_end"]
    ] == [(m.name, m.unit, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER if m.scope == "all"
    ]


def test_seed_changes_the_inputs_but_not_the_counts(quick):
    first, second = load(quick[0]), load(quick[1])
    for workload in WORKLOADS:
        a, b = first[workload.name, 1], second[workload.name, 1]
        assert a["inputs_sha1"] != b["inputs_sha1"]
        for row in PER_LAYER:
            if row.exact == "always" and row.name in a["metrics"]:
                assert (
                    a["metrics"][row.name]["value"] == b["metrics"][row.name]["value"]
                ), row.name


def test_wrong_reference_energy_is_a_failed_operation():
    done = run(
        "--workload", "chain24_serial", "--quick", "--reference-energy", "-1.0",
        check=False,
    )
    assert done.returncode != 0
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_compare_accepts_itself_and_rejects_a_changed_count(quick, tmp_path):
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(
        [*compare, str(quick[0]), str(quick[0])], capture_output=True, text=True
    )
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 regressed" in same.stdout and "0 count mismatches" in same.stdout

    data = json.loads(quick[0].read_text())
    for record in data["runs"]:
        if record["trace"] == 1:
            record["metrics"]["operators.elements_emitted"]["value"] += 1
        else:
            record["metrics"]["warm_matvec_s"]["value"] *= 100
            record["metrics"]["warm_matvec_s"]["q1"] *= 100
            record["metrics"]["warm_matvec_s"]["q3"] *= 100
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(data))
    worse = subprocess.run(
        [*compare, str(quick[0]), str(changed)], capture_output=True, text=True
    )
    assert worse.returncode != 0
    assert "MISMATCH" in worse.stdout and "  regressed" in worse.stdout
