"""codedmem benchmark: host cost and simulated results of three workloads.

    python3 benchmarks/bench.py --workload read_mostly --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark imports the package from
``src/`` and repeats passes of the workload until ``--seconds`` have gone
(at least three passes). With ``--trace 0`` it reports the end-to-end
metrics: the median set-up, and the run as the sum of each chunk's fastest
time over the passes, because other tenants of the host only ever slow a
chunk down (see README.md). With ``--trace 1`` it alternates
untraced and traced passes, and reports the per-layer metrics of the traced
passes (medians) and the tracing overhead between the two kinds. Every line
but the last is for people; the last line is one JSON object. The exit code
is 1 when a correctness check fails.
"""

import os

# one thread per numeric library, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("read_mostly", "write_fault_soak", "placement")
MIN_PASSES = 3

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# printed for people beside END_TO_END, where the workload has them
VT = {
    "vt_read_p50_us": "us",
    "vt_read_p99_us": "us",
    "vt_write_p50_us": "us",
    "vt_write_p99_us": "us",
    "vt_durable_p50_us": "us",
    "op_fail_ratio": "ratio",
}

PER_LAYER = {
    "gf256.apply_matrix.calls": "count",
    "gf256.apply_matrix.self_s": "s",
    "gf256.apply_matrix.mb_per_s": "MB/s",
    "gf256.mat_inv.calls": "count",
    "gf256.mat_inv.self_s": "s",
    "coding.encode.calls": "count",
    "coding.encode.self_s": "s",
    "coding.decode.calls": "count",
    "coding.decode.self_s": "s",
    "coding.decode.inversions_per_call": "ratio",
    "coding.detect_corruption.calls": "count",
    "coding.detect_corruption.self_s": "s",
    "coding.correct_corruption.calls": "count",
    "coding.correct_corruption.self_s": "s",
    "simulator.events": "count",
    "simulator.events_per_op": "ratio",
    "simulator.step.self_s": "s",
    "simulator.split_io.calls": "count",
    "simulator.split_io.self_s": "s",
    "simulator.split_io.not_ok": "count",
    "simulator.fill_writes": "count",
    "simulator.host_ns_per_event": "ns",
    "manager.map_range.calls": "count",
    "manager.map_range.us_per_call": "us",
    "manager.map_range.late_to_early": "ratio",
    "manager.read.wall_us_p50": "us",
    "manager.read.wall_us_p99": "us",
    "manager.write.wall_us_p50": "us",
    "manager.write.wall_us_p99": "us",
    "manager.read.split_efficiency": "ratio",
    "manager.write.fanout_mean": "count",
    "monitor.drain_regeneration.calls": "count",
    "monitor.drain_regeneration.self_s": "s",
    "monitor.regen.tasks_started": "count",
    "monitor.regen.success_ratio": "ratio",
    "placement.select_members.calls": "count",
    "placement.select_members.self_s": "s",
    "placement.loss_probability_montecarlo.self_s": "s",
    "placement.build_codingsets.self_s": "s",
    "placement.build_eccache.self_s": "s",
    "analysis.run_load_balance.self_s": "s",
    "trace.overhead_pct": "%",
    **VT,
}

# spans counted in every phase; the data-path layers count only from the
# first measured op on, so the populate pass does not mix in
SETUP_SPANS = {
    "manager.map_range",
    "placement.select_members",
    "placement.build_codingsets",
    "placement.build_eccache",
}


def environment(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, result):
    """Per-layer figures of one traced pass."""
    from tracing import self_times
    from workloads import percentile

    spans = tracer.spans
    calls = defaultdict(int)
    own = defaultdict(int)
    durations = defaultdict(list)
    inversions_in_decode = 0
    for span, self_ns in zip(spans, self_times(spans)):
        name, start, end, parent, op = span
        if op < 0 and name not in SETUP_SPANS:
            continue
        calls[name] += 1
        own[name] += self_ns
        durations[name].append(end - start)
        if name == "gf256.mat_inv" and parent >= 0 and spans[parent][0] == "coding.decode":
            inversions_in_decode += 1
    counts = tracer.counts
    events = counts["simulator.events"]

    def self_s(name):
        return own[name] / 1e9

    def wall_us(name, q):
        return percentile(durations[name], q) / 1000

    maps = durations["manager.map_range"]
    tenth = max(1, len(maps) // 10)
    metrics = {
        "gf256.apply_matrix.mb_per_s": _ratio(counts["gf256.apply_matrix.bytes"] / 1e6, self_s("gf256.apply_matrix")),
        "coding.decode.inversions_per_call": _ratio(inversions_in_decode, calls["coding.decode"]),
        "simulator.events": events,
        "simulator.events_per_op": _ratio(events, result.attempted),
        "simulator.split_io.not_ok": counts["simulator.split_io.not_ok"],
        "simulator.fill_writes": counts["simulator.fill_writes"],
        "manager.map_range.us_per_call": _ratio(sum(maps) / 1000, len(maps)),
        "manager.map_range.late_to_early": _ratio(sum(maps[-tenth:]), sum(maps[:tenth])),
        "manager.read.wall_us_p50": wall_us("manager.read", 50),
        "manager.read.wall_us_p99": wall_us("manager.read", 99),
        "manager.write.wall_us_p50": wall_us("manager.write", 50),
        "manager.write.wall_us_p99": wall_us("manager.write", 99),
    }
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            metrics.setdefault(name, calls[base])
        elif field == "self_s":
            metrics.setdefault(name, self_s(base))
    metrics.update(result.layer)
    return {name: metrics.get(name, 0) for name in PER_LAYER}


def fastest_chunks(passes):
    """Each chunk's fastest time over the passes."""
    return {name: min(p.chunks[name] for p in passes) for name in passes[0].chunks}


def run(workload, seed, seconds, trace, spec=None, spans_dir=None):
    """Run passes of one workload. Returns (report lines, result record)."""
    import workloads
    from tracing import Tracer, installed

    spec = spec or workloads.SPECS[workload]
    run_pass = workloads.PASSES[workload]
    untraced, traced, layers = [], [], []
    start = perf_counter()
    # traced passes alternate with untraced ones, so both meet the same host load
    while len(untraced) < MIN_PASSES or perf_counter() - start < seconds:
        gc.collect()  # every pass starts from the same collector state
        untraced.append(run_pass(spec, seed))
        if trace:
            tracer = Tracer()
            gc.collect()
            with installed(tracer):
                traced.append(run_pass(spec, seed, tracer))
            layers.append(layer_metrics(tracer, traced[-1]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = untraced + traced

    setup_s = statistics.median(s for p in untraced for s in p.setup_s)
    best = fastest_chunks(untraced)
    run_s = sum(best.values())
    first = untraced[0].results
    checks = {
        "reads match the shadow copy": all(p.wrong == 0 for p in passes),
        "every pass gives the same simulated results": all(p.results == first for p in passes),
    }
    if workload == "write_fault_soak":
        checks["guarded reads corrected corruptions"] = first["corrected_reads"] > 0
        checks["regenerations completed"] = first["regenerations_completed"] > 0
    if workload == "placement":
        checks["codingsets beats eccache on Monte Carlo loss"] = (
            first["mc_loss_codingsets"][0] < first["mc_loss_eccache"][0]
        )

    lines = []
    if trace:
        metrics = {name: statistics.median_low([layer[name] for layer in layers]) for name in PER_LAYER}
        metrics.update({name: first[name][0] for name in VT if name in first})
        events = metrics["simulator.events"]
        metrics["simulator.host_ns_per_event"] = _ratio(run_s * 1e9, events)
        traced_run_s = sum(fastest_chunks(traced).values())
        metrics["trace.overhead_pct"] = 100 * (traced_run_s / run_s - 1)
        units = PER_LAYER
        if spans_dir is not None:
            Path(spans_dir).mkdir(parents=True, exist_ok=True)
            tracer.write(Path(spans_dir) / f"spans-{workload}.csv.gz")
    else:
        metrics = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
        for name, (amount, prefix) in untraced[0].work.items():
            spent = sum(t for chunk, t in best.items() if chunk.startswith(prefix))
            lines.append(f"{name} {amount / spent} 1/s")
        for name, unit in VT.items():
            if name in first:
                value, samples = first[name]
                lines.append(f"{name} {value} {unit} n={samples}")
    for name, value in metrics.items():
        lines.append(f"{name} {value} {units[name]}")
    for name, ok in checks.items():
        lines.append(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for kind, group in (("untraced", untraced), ("traced", traced)):
        for p in group:
            lines.append(f"pass {kind} setup_s={sum(p.setup_s):.4f} run_s={p.run_s:.4f}")
    correct = all(checks.values())
    record = {
        "correct": correct,
        "attempted": sum(p.attempted for p in untraced),
        "failed": sum(p.failed for p in untraced),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return lines, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "codedmem" / "__init__.py").is_file():
        print(f"bench: no codedmem package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment(args.seed)))
    lines, record = run(args.workload, args.seed, args.seconds, bool(args.trace), spans_dir=OUT)
    for line in lines:
        print(line)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
