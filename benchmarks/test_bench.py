"""Self-tests of the benchmark: python3 -m pytest benchmarks"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import workloads  # noqa: E402
from tracing import self_times  # noqa: E402

TINY = {
    "read_mostly": replace(workloads.SPECS["read_mostly"], ranges=1, pages=8, ops=40),
    "write_fault_soak": replace(
        workloads.SPECS["write_fault_soak"],
        machines=27, ranges=30, pages=2, ops=400,
        faults=workloads.Faults(
            every=50, down_for=25, corrupt_prob=0.9, background_at=100, background_us=200.0
        ),
    ),
    "placement": replace(
        workloads.SPECS["placement"],
        balance_machines=500, slabs_per_machine=4, mc_machines=200,
        failure_fraction=0.05, trials=2000, setup_repeats=2,
    ),
}


def _declared():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_tiny_runs_pass_their_checks_and_print_the_declared_metrics():
    declared = _declared()
    for workload in bench.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            lines, record = bench.run(workload, seed=5, seconds=0, trace=trace, spec=TINY[workload])
            assert record["correct"], (workload, trace, lines)
            assert record["attempted"] >= 1 and record["failed"] == 0
            assert {
                name: metric["unit"] for name, metric in record["metrics"].items()
            } == {m["name"]: m["unit"] for m in declared[section]}


def test_declared_metrics_match_the_benchmark():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER


def test_self_time_subtracts_the_part_children_cover():
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["a.inner", 15, 25, 1, 0],
        ["b", 50, 70, 0, 0],
        ["c", 60, 120, 0, 0],  # overlaps b and runs past its parent's end
        ["other", 200, 230, -1, 1],
    ]
    # root: children cover [10, 40] and [50, 100]
    assert self_times(spans) == [20, 20, 10, 20, 60, 30]
