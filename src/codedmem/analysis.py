"""Experiment pipeline: durability curves, load-balance sweeps, and
closed-loop data-path benchmarks over the simulated cluster.

Every run is driven by a validated YAML config and tagged with a short
hash of that config, so a results row can always be traced back to the
exact settings that produced it. Row cells are pre-formatted strings;
emitting the same rows twice yields byte-identical CSV files.
"""

import copy
import csv
import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from .coding import CodecParams
from .errors import ConfigError, InvalidParams, MonotonicityViolation
from .manager import ManagerConfig, ResilienceManager
from .monitor import MonitorService
from .placement import (
    CODINGSETS,
    ECCACHE,
    ClusterShape,
    build_codingsets,
    build_eccache,
    count_copysets,
    load_imbalance,
    loss_probability_analytic,
    loss_probability_montecarlo,
)
from .simulator import Cluster, FaultScript, LatencyModel, SplitLatencies, inject

SCHEMA_VERSION = 1
SCENARIOS = ("loss", "balance", "datapath")
BALANCE_POLICIES = ("eccache", "codingsets", "power_of_two")
BASELINES = ("replication", "ssd_backup")
DEFAULT_EXACT_THRESHOLD = 50_000

# sweeps over these leaf keys must never decrease the analytic loss
MONOTONE_SWEEPS = ("failure_fraction", "slabs_per_machine")

LOSS_HEADER = [
    "seed", "confighash", "sweep_path", "sweep_value", "scheme", "l",
    "groups", "copysets", "failed_machines", "analytic", "exact",
    "mc_estimate", "mc_halfwidth", "trials",
]
BALANCE_HEADER = [
    "seed", "confighash", "policy", "l", "ranges", "machines",
    "max_to_min", "cv", "min_utilization", "floored",
]
DATAPATH_HEADER = [
    "seed", "confighash", "system", "op", "count", "p50_us", "p99_us",
    "mean_us", "queue_p50_us", "network_p50_us", "encode_p50_us",
    "decode_p50_us", "durable_p50_us", "unrecoverable", "corrected", "wrong",
]


# -- config handling --------------------------------------------------------


def load_config(path):
    """Parse a YAML config file and validate it."""
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    return validate_config(cfg)


def get_path(cfg, dotted):
    """Value at a dotted key path, e.g. ``cluster.machines``."""
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


def set_path(cfg, dotted, value):
    """Assign a value at a dotted key path; intermediate dicts must exist."""
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    node[parts[-1]] = value


def config_hash(cfg):
    """12-hex-digit digest of the config, insensitive to key order.

    ``output_dir`` is excluded so relocating results does not change
    their identity.
    """
    trimmed = {k: v for k, v in cfg.items() if k != "output_dir"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


def validate_config(cfg):
    _require(isinstance(cfg, dict), "config must be a mapping")
    _require(
        cfg.get("schema_version") == SCHEMA_VERSION,
        f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}",
    )
    scenario = cfg.get("scenario")
    _require(scenario in SCENARIOS, f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    seeds = cfg.get("seeds")
    _require(
        isinstance(seeds, list) and seeds and all(_is_int(s) for s in seeds),
        "seeds must be a non-empty list of integers",
    )
    cluster = cfg.get("cluster")
    _require(isinstance(cluster, dict), "cluster section is required")
    _require(
        _is_int(cluster.get("machines")) and cluster["machines"] >= 1,
        "cluster.machines must be a positive integer",
    )
    if "slabs_per_machine" in cluster:
        _require(
            _is_int(cluster["slabs_per_machine"]) and cluster["slabs_per_machine"] >= 1,
            "cluster.slabs_per_machine must be a positive integer",
        )
    if "machine_bytes" in cluster:
        _require(
            _is_int(cluster["machine_bytes"]) and cluster["machine_bytes"] >= 1,
            "cluster.machine_bytes must be a positive integer",
        )
    if "latency" in cluster:
        try:
            LatencyModel(**cluster["latency"])
        except (InvalidParams, TypeError) as err:
            raise ConfigError(f"cluster.latency: {err}") from err
    code = cfg.get("code")
    _require(isinstance(code, dict) and "k" in code, "code.k is required")
    try:
        CodecParams(**code)
    except (InvalidParams, TypeError) as err:
        raise ConfigError(f"code: {err}") from err
    if "sweep" in cfg:
        sweep = cfg["sweep"]
        _require(isinstance(sweep, dict), "sweep must be a mapping")
        path = sweep.get("path")
        _require(isinstance(path, str) and path, "sweep.path must be a non-empty string")
        values = sweep.get("values")
        _require(
            isinstance(values, list) and values and all(_is_number(v) for v in values),
            "sweep.values must be a non-empty list of numbers",
        )
        try:
            get_path(cfg, path)
        except KeyError:
            raise ConfigError(f"sweep.path {path!r} not found in config") from None
    if scenario == "loss":
        _validate_loss(cfg)
    elif scenario == "balance":
        _validate_balance(cfg)
    else:
        _validate_datapath(cfg)
    return cfg


def _validate_loss(cfg):
    schemes = cfg.get("schemes")
    _require(isinstance(schemes, list) and schemes, "schemes must be a non-empty list")
    for sc in schemes:
        _require(isinstance(sc, dict), "each scheme must be a mapping")
        name = sc.get("name")
        _require(name in (CODINGSETS, ECCACHE), f"unknown scheme {name!r}")
        if "l" in sc:
            _require(_is_int(sc["l"]) and sc["l"] >= 0, "scheme l must be a non-negative integer")
    _require(
        _is_int(cfg.get("trials")) and cfg["trials"] >= 1,
        "trials must be a positive integer",
    )
    if "failure_fraction" in cfg:
        _require(
            _is_number(cfg["failure_fraction"]) and 0.0 <= cfg["failure_fraction"] <= 1.0,
            "failure_fraction must be in [0, 1]",
        )
    if "exact_threshold" in cfg:
        _require(
            _is_int(cfg["exact_threshold"]) and cfg["exact_threshold"] >= 0,
            "exact_threshold must be a non-negative integer",
        )


def _validate_balance(cfg):
    policies = cfg.get("policies")
    _require(isinstance(policies, list) and policies, "policies must be a non-empty list")
    for pol in policies:
        _require(isinstance(pol, dict), "each policy must be a mapping")
        name = pol.get("name")
        _require(name in BALANCE_POLICIES, f"unknown policy {name!r}")
        if "l" in pol:
            _require(_is_int(pol["l"]) and pol["l"] >= 0, "policy l must be a non-negative integer")
    if "ranges" in cfg:
        _require(
            _is_int(cfg["ranges"]) and cfg["ranges"] >= 1,
            "ranges must be a positive integer",
        )


def _validate_datapath(cfg):
    wl = cfg.get("workload")
    _require(isinstance(wl, dict), "workload section is required")
    _require(
        _is_int(wl.get("operations")) and wl["operations"] >= 1,
        "workload.operations must be a positive integer",
    )
    _require(
        _is_int(wl.get("ranges")) and wl["ranges"] >= 1,
        "workload.ranges must be a positive integer",
    )
    if "read_fraction" in wl:
        _require(
            _is_number(wl["read_fraction"]) and 0.0 <= wl["read_fraction"] <= 1.0,
            "workload.read_fraction must be in [0, 1]",
        )
    for base in cfg.get("baselines", []):
        _require(isinstance(base, dict), "each baseline must be a mapping")
        name = base.get("name")
        _require(name in BASELINES, f"unknown baseline {name!r}")
        if name == "replication" and "copies" in base:
            _require(
                _is_int(base["copies"]) and base["copies"] >= 1,
                "replication copies must be a positive integer",
            )
    if "faults" in cfg:
        try:
            script = FaultScript.from_events(cfg["faults"])
        except (ValueError, TypeError, AttributeError) as err:
            raise ConfigError(f"faults: {err}") from err
        machines = cfg["cluster"]["machines"]
        for event in script.events:
            _require(
                event.machine is None or event.machine < machines,
                f"faults: machine {event.machine} is outside the {machines}-machine cluster",
            )
    if "manager" in cfg:
        try:
            ManagerConfig(**cfg["manager"])
        except (InvalidParams, TypeError) as err:
            raise ConfigError(f"manager: {err}") from err
    if "placement" in cfg:
        _require(isinstance(cfg["placement"], dict), "placement must be a mapping")
        l = cfg["placement"].get("l", 0)
        _require(_is_int(l) and l >= 0, "placement.l must be a non-negative integer")


# -- durability curves -------------------------------------------------------


def _shape_from(cfg):
    cluster = cfg["cluster"]
    return ClusterShape(
        machines=cluster["machines"],
        slabs_per_machine=cluster.get("slabs_per_machine", 1),
        failure_fraction=float(cfg.get("failure_fraction", 0.0)),
    )


def _build_plan(name, shape, params, l, seed):
    if name == CODINGSETS:
        return build_codingsets(shape, params, l, seed)
    return build_eccache(shape, params, seed)


def exhaustive_loss(plan, shape, params):
    """Exact loss probability by enumerating every failure set.

    Counts the floor(N*f)-machine subsets that cover r+1 slabs of some
    group; the result is an exact rational. Only feasible while
    C(N, failures) stays small.
    """
    n = shape.machines
    failures = math.floor(n * shape.failure_fraction)
    size = params.r + 1
    if failures < size:
        return Fraction(0)
    groups_of = [[] for _ in range(n)]
    for group in plan.groups:
        for m in group.members:
            groups_of[m].append(group.index)
    losses = 0
    for combo in itertools.combinations(range(n), failures):
        counts = {}
        lost = False
        for m in combo:
            for gid in groups_of[m]:
                c = counts.get(gid, 0) + 1
                if c >= size:
                    lost = True
                    break
                counts[gid] = c
            if lost:
                break
        losses += lost
    return Fraction(losses, math.comb(n, failures))


def _sweep_points(cfg):
    sweep = cfg.get("sweep")
    if not sweep:
        return None, [None]
    return sweep["path"], sorted(sweep["values"])


def run_loss_curves(cfg):
    """Analytic, exact, and sampled loss probability per scheme and seed.

    Returns (header, rows) with pre-formatted string cells. Sweeps over
    failure_fraction or slabs_per_machine abort with
    MonotonicityViolation if the analytic curve ever decreases.
    """
    validate_config(cfg)
    chash = config_hash(cfg)
    params = CodecParams(**cfg["code"])
    trials = cfg["trials"]
    threshold = cfg.get("exact_threshold", DEFAULT_EXACT_THRESHOLD)
    sweep_path, values = _sweep_points(cfg)
    monotone = sweep_path is not None and sweep_path.split(".")[-1] in MONOTONE_SWEEPS
    work = copy.deepcopy(cfg)
    last = {}
    rows = []
    for value in values:
        if sweep_path is not None:
            set_path(work, sweep_path, value)
        shape = _shape_from(work)
        n = shape.machines
        failures = math.floor(n * shape.failure_fraction)
        for scheme in work["schemes"]:
            name = scheme["name"]
            l = int(scheme.get("l", 0)) if name == CODINGSETS else 0
            analytic = loss_probability_analytic(name, shape, params, l)
            key = (name, l)
            if monotone and key in last and analytic < last[key]:
                raise MonotonicityViolation(
                    f"sweep {sweep_path}: {name} analytic loss fell from "
                    f"{last[key]} to {analytic} at value {value}"
                )
            last[key] = analytic
            for seed in cfg["seeds"]:
                plan = _build_plan(name, shape, params, l, int(seed))
                exact = ""
                if math.comb(n, failures) <= threshold:
                    exact = repr(float(exhaustive_loss(plan, shape, params)))
                estimate, halfwidth = loss_probability_montecarlo(
                    plan, shape, params, trials, int(seed)
                )
                rows.append([
                    str(seed),
                    chash,
                    sweep_path or "",
                    "" if value is None else repr(value),
                    name,
                    str(l),
                    str(len(plan.groups)),
                    str(count_copysets(plan, params)),
                    str(failures),
                    repr(float(analytic)),
                    exact,
                    repr(float(estimate)),
                    repr(float(halfwidth)),
                    str(trials),
                ])
    return LOSS_HEADER, rows


# -- load balance ------------------------------------------------------------


_P2C_BLOCK = 4096  # candidate ids drawn per refill; even, so a pair never spans two
_P2C_ATTEMPTS = 256  # candidate pairs tried per pick before the dense fallback


def _two_choice_loads(n, width, ranges, rng):
    """Per-machine slab counts after two-choice placement of ``ranges`` ranges.

    Each range takes ``width`` distinct machines, each the less loaded of
    two uniform candidates (ties: smaller id). A pair is rejected when its
    ids are equal or either is already in the range; after _P2C_ATTEMPTS
    rejections the pick falls back to two distinct draws among the machines
    left. Candidates come from ``rng.integers`` in blocks, which yields the
    same values as one scalar draw per candidate; before the fallback draws
    again, the generator is rewound to just after the candidates consumed,
    so every pick matches a loop of scalar draws.
    """
    loads = [0] * n
    block, pos, saved = [], 0, None
    for _ in range(ranges):
        used = set()
        for _ in range(width):
            for _ in range(_P2C_ATTEMPTS):
                if pos == len(block):
                    saved = rng.bit_generator.state
                    block, pos = rng.integers(0, n, size=_P2C_BLOCK).tolist(), 0
                a, b = block[pos], block[pos + 1]
                pos += 2
                if a != b and a not in used and b not in used:
                    break
            else:
                # dense fallback when nearly every machine is already used
                rng.bit_generator.state = saved
                rng.integers(0, n, size=pos)
                block, pos = [], 0
                avail = [m for m in range(n) if m not in used]
                if not avail:
                    raise InvalidParams("no machines left for distinct placement")
                if len(avail) == 1:
                    a = b = avail[0]
                else:
                    pick = rng.choice(len(avail), size=2, replace=False)
                    a, b = avail[int(pick[0])], avail[int(pick[1])]
            if loads[a] < loads[b]:
                m = a
            elif loads[b] < loads[a]:
                m = b
            else:
                m = min(a, b)
            used.add(m)
            loads[m] += 1
    return loads


def run_load_balance(cfg):
    """Slab-count dispersion per placement policy and seed."""
    validate_config(cfg)
    chash = config_hash(cfg)
    params = CodecParams(**cfg["code"])
    width = params.k + params.r
    shape = _shape_from(cfg)
    n = shape.machines
    ranges = cfg.get("ranges") or max(1, round(n * shape.slabs_per_machine / width))
    rows = []
    for pol in cfg["policies"]:
        name = pol["name"]
        l = int(pol.get("l", 0)) if name == CODINGSETS else 0
        for seed in cfg["seeds"]:
            seed = int(seed)
            if name == ECCACHE:
                plan = build_eccache(shape, params, seed)
                members = np.array([g.members for g in plan.groups], dtype=np.int64)
                gids = np.arange(ranges) % len(plan.groups)
                loads = np.bincount(members[gids].ravel(), minlength=n)
                label = "eccache"
            elif name == CODINGSETS:
                plan = build_codingsets(shape, params, l, seed)
                loads = [0] * n
                for rid in range(ranges):
                    _, chosen = plan.place_range(rid, loads)
                    for m in chosen:
                        loads[m] += 1
                label = f"codingsets_l{l}"
            else:
                rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB0B2)))
                loads = _two_choice_loads(n, width, ranges, rng)
                label = "power_of_two"
            imb = load_imbalance(loads)
            rows.append([
                str(seed),
                chash,
                label,
                str(l),
                str(ranges),
                str(n),
                repr(float(imb.max_to_min)),
                repr(float(imb.cv)),
                repr(float(imb.min_utilization)),
                str(int(imb.floored)),
            ])
    return BALANCE_HEADER, rows


# -- data path ----------------------------------------------------------------


def gen_workload(wcfg, capacity, seed):
    """Seeded (op, range_id, page_index, payload_seed) tuples.

    Reads carry payload_seed None; writes carry the seed their page
    contents derive from, so the op list alone reproduces every byte.
    """
    count = int(wcfg["operations"])
    ranges = int(wcfg["ranges"])
    read_fraction = float(wcfg.get("read_fraction", 0.5))
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x301C)))
    ops = []
    for _ in range(count):
        rid = int(rng.integers(0, ranges))
        page = int(rng.integers(0, capacity))
        if rng.random() < read_fraction:
            ops.append(("R", rid, page, None))
        else:
            ops.append(("W", rid, page, int(rng.integers(0, 2**32))))
    return ops


def page_payload(payload_seed, page_size):
    """The page contents a write's payload_seed denotes."""
    rng = np.random.default_rng(np.random.SeedSequence((int(payload_seed), 0xFA6E)))
    return rng.bytes(page_size)


class _OpStats:
    """Latency and outcome accumulators for one (system, op) cell."""

    def __init__(self):
        self.count = 0
        self.latency = []
        self.queue = []
        self.network = []
        self.encode = []
        self.decode = []
        self.durable = []
        self.unrecoverable = 0
        self.corrected = 0
        self.wrong = 0

    def row(self, seed, chash, system, op):
        def p(values, q):
            if not values:
                return 0.0
            return float(np.percentile(np.asarray(values, dtype=np.float64), q)) / 1000.0

        mean = float(np.mean(self.latency)) / 1000.0 if self.latency else 0.0
        return [
            str(seed),
            chash,
            system,
            op,
            str(self.count),
            f"{p(self.latency, 50):.3f}",
            f"{p(self.latency, 99):.3f}",
            f"{mean:.3f}",
            f"{p(self.queue, 50):.3f}",
            f"{p(self.network, 50):.3f}",
            f"{p(self.encode, 50):.3f}",
            f"{p(self.decode, 50):.3f}",
            f"{p(self.durable, 50):.3f}",
            str(self.unrecoverable),
            str(self.corrected),
            str(self.wrong),
        ]


def _build_stack(cfg, seed):
    cluster_cfg = cfg["cluster"]
    latency = LatencyModel(**cluster_cfg.get("latency", {}))
    cluster = Cluster(
        cluster_cfg["machines"],
        latency=latency,
        machine_bytes=int(cluster_cfg.get("machine_bytes", 1 << 30)),
        seed=seed,
    )
    params = CodecParams(**cfg["code"])
    shape = _shape_from(cfg)
    l = int(cfg.get("placement", {}).get("l", 0))
    plan = build_codingsets(shape, params, l, seed)
    mconfig = ManagerConfig(**cfg.get("manager", {}))
    manager = ResilienceManager(cluster, plan, params, config=mconfig, seed=seed)
    monitor = MonitorService(cluster, manager)
    return cluster, manager, monitor


def _run_coded(cfg, seed, ops, chash):
    cluster, manager, monitor = _build_stack(cfg, seed)
    page_size = manager.config.page_size
    zero = bytes(page_size)
    for rid in range(int(cfg["workload"]["ranges"])):
        manager.map_range(rid)
    if cfg.get("faults"):
        inject(cluster, FaultScript.from_events(cfg["faults"]))
    shadow = {}
    reads = _OpStats()
    writes = _OpStats()
    ctx = manager.ctx_ns
    for op, rid, page, pseed in ops:
        if op == "W":
            writes.count += 1
            payload = page_payload(pseed, page_size)
            wop = manager.submit_write(rid, page, payload)
            manager.drive(wop)
            c = wop.completion
            if c.outcome == "write-failed":
                writes.unrecoverable += 1
            else:
                shadow[(rid, page)] = payload
                writes.latency.append(c.completed_ns - c.submitted_ns)
                writes.queue.append(c.started_ns - c.submitted_ns)
                writes.encode.append(c.encode_ack_ns)
                writes.network.append(
                    c.data_acked_ns - c.started_ns - c.encode_ack_ns - ctx
                )
                if c.durable_ns is not None:
                    writes.durable.append(c.durable_ns - c.submitted_ns)
        else:
            reads.count += 1
            rop = manager.submit_read(rid, page)
            manager.drive(rop)
            c = rop.completion
            if c.outcome != "ok":
                reads.unrecoverable += 1
            else:
                if c.page != shadow.get((rid, page), zero):
                    reads.wrong += 1
                if c.corrected:
                    reads.corrected += 1
                copied = 0 if manager.config.in_place_coding else manager.copy_ns
                reads.latency.append(c.completed_ns - c.submitted_ns)
                reads.queue.append(c.started_ns - c.submitted_ns)
                reads.decode.append(c.decode_ns)
                reads.network.append(
                    c.completed_ns - c.started_ns - c.decode_ns - ctx - copied
                )
        if manager.regeneration_requests:
            monitor.drain_regeneration()
    cluster.run_until_idle()
    for _ in range(8):
        if not manager.regeneration_requests:
            break
        monitor.drain_regeneration()
        cluster.run_until_idle()
    return [
        reads.row(seed, chash, "coded", "R"),
        writes.row(seed, chash, "coded", "W"),
    ]


def _run_baseline(base, cfg, seed, ops, chash, index):
    name = base["name"]
    latency = LatencyModel(**cfg["cluster"].get("latency", {}))
    latencies = SplitLatencies(latency, np.random.SeedSequence((int(seed), 0xBA5E, index)))
    disk_ns = int(round(latency.disk_us * 1000))
    reads = _OpStats()
    writes = _OpStats()
    if name == "replication":
        copies = int(base.get("copies", 3))
        label = f"replication{copies}"
        for op, _, _, _ in ops:
            draws = [latencies.draw() for _ in range(copies)]
            if op == "W":
                writes.count += 1
                nanos = max(draws)
                writes.latency.append(nanos)
                writes.network.append(nanos)
                writes.durable.append(nanos)
            else:
                reads.count += 1
                nanos = min(draws)
                reads.latency.append(nanos)
                reads.network.append(nanos)
    else:
        label = "ssd_backup"
        for op, _, _, _ in ops:
            draw = latencies.draw()
            if op == "W":
                writes.count += 1
                nanos = max(draw, disk_ns)
                writes.latency.append(nanos)
                writes.network.append(draw)
                writes.durable.append(nanos)
            else:
                reads.count += 1
                reads.latency.append(draw)
                reads.network.append(draw)
    return [
        reads.row(seed, chash, label, "R"),
        writes.row(seed, chash, label, "W"),
    ]


def run_datapath(cfg):
    """Closed-loop benchmark of the coded path against baselines.

    Each seed replays one generated workload through the full manager
    stack (checking every read against a shadow copy) and through
    closed-form replication and disk-backup latency models.
    """
    validate_config(cfg)
    chash = config_hash(cfg)
    params = CodecParams(**cfg["code"])
    mconfig = ManagerConfig(**cfg.get("manager", {}))
    split = -(-mconfig.page_size // params.k)
    capacity = mconfig.slab_size // split
    rows = []
    for seed in cfg["seeds"]:
        seed = int(seed)
        ops = gen_workload(cfg["workload"], capacity, seed)
        rows.extend(_run_coded(cfg, seed, ops, chash))
        for index, base in enumerate(cfg.get("baselines", [])):
            rows.extend(_run_baseline(base, cfg, seed, ops, chash, index))
    return DATAPATH_HEADER, rows


# -- reporting ----------------------------------------------------------------


def emit_report(header, rows, scenario, chash, out_dir):
    """Write rows to ``<out_dir>/<scenario>_<confighash>.csv``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{scenario}_{chash}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


RUNNERS = {
    "loss": run_loss_curves,
    "balance": run_load_balance,
    "datapath": run_datapath,
}


def run_scenario(cfg):
    """Dispatch to the scenario runner named by the config."""
    validate_config(cfg)
    return RUNNERS[cfg["scenario"]](cfg)
