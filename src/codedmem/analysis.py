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

from .coding import CodecParams, make_codec
from .errors import ConfigError, InvalidParams, MonotonicityViolation
from .manager import ManagerConfig, ResilienceManager
from .placement import (
    CODINGSETS,
    ECCACHE,
    ClusterShape,
    _incidence_table,
    build_codingsets,
    build_eccache,
    codingsets_loads,
    count_copysets,
    eccache_members,
    load_imbalance,
    loss_probability_analytic,
    loss_probability_montecarlo,
)
from .simulator import Cluster, FaultScript, LatencyModel, SplitLatencies, inject

SCHEMA_VERSION = 1
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


# -- config schema ----------------------------------------------------------
#
# One rule table per scenario names every key the scenario reads; any other
# key would pass and change nothing, so the walk rejects it. A key ending in
# "?" is optional. A rule is one of:
#   (test, phrase)  a leaf: the value passes ``test``, or "<key> must be <phrase>"
#   {key: rule}     a nested section, walked like the config itself
#   a class         a named check: the section must construct it
#   a function      a named check, called as ``check(value, where, cfg)``
#   [rule, ...]     each rule in turn
#   None            checked elsewhere, or free


def _walk(section, rules, cfg, prefix, label):
    """Reject a key the table does not name, then check every required key
    and each optional key that is present, in table order."""
    _require(isinstance(section, dict), f"{label} must be a mapping")
    names = {key.rstrip("?") for key in rules}
    unknown = sorted(str(key) for key in section if key not in names)
    _require(not unknown, f"{label}: unknown key {', '.join(unknown)}")
    for key, rule in rules.items():
        name = key.rstrip("?")
        if name == key or name in section:
            _check(section.get(name), rule, prefix + name, cfg)


def _check(value, rule, where, cfg):
    if isinstance(rule, tuple):
        test, phrase = rule
        _require(test(value), f"{where} must be {phrase}")
    elif isinstance(rule, dict):
        _walk(value, rule, cfg, f"{where}.", where)
    elif isinstance(rule, list):
        for part in rule:
            _check(value, part, where, cfg)
    elif isinstance(rule, type):
        try:
            rule(**value)
        except (InvalidParams, TypeError) as err:
            raise ConfigError(f"{where}: {err}") from err
    elif rule is not None:
        rule(value, where, cfg)


def _entries(kind, rules, may_be_empty=False):
    """Named check for a list of entries, each walked by the rules its
    ``name`` picks; one rule serves schemes, policies and baselines."""

    def check(entries, where, cfg):
        _require(
            isinstance(entries, list) and (may_be_empty or entries),
            f"{where} must be a {'' if may_be_empty else 'non-empty '}list",
        )
        for entry in entries:
            _require(isinstance(entry, dict), f"each {kind} must be a mapping")
            name = entry.get("name")
            _require(isinstance(name, str) and name in rules, f"unknown {kind} {name!r}")
            _walk(entry, {"name": None, **rules[name]}, cfg, f"{kind} ", f"{kind} {name}")

    return check


def _codec(code, where, cfg):
    _require(isinstance(code, dict) and "k" in code, "code.k is required")
    _check(code, CodecParams, where, cfg)


def _faults(rows, where, cfg):
    try:
        script = FaultScript.from_events(rows)
    except (ValueError, TypeError, AttributeError) as err:
        raise ConfigError(f"{where}: {err}") from err
    machines = cfg["cluster"]["machines"]
    for event in script.events:
        _require(
            event.machine is None or event.machine < machines,
            f"{where}: machine {event.machine} is outside the {machines}-machine cluster",
        )


def _sweep(sweep, where, cfg):
    """The swept path must exist, and every point must be a valid config."""
    path = sweep["path"]
    try:
        get_path(cfg, path)
    except KeyError:
        raise ConfigError(f"sweep.path {path!r} not found in config") from None
    for value in sweep["values"]:
        try:
            validate_config(_at_sweep_value(cfg, path, value))
        except ConfigError as err:
            raise ConfigError(f"sweep {path}={value!r}: {err}") from None


_POSITIVE = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_NON_NEGATIVE = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_FRACTION = (lambda v: _is_number(v) and 0.0 <= v <= 1.0, "in [0, 1]")
_COMMON = {
    "schema_version": None,  # both checked before the scenario picks its table
    "scenario": None,
    "seeds": (
        lambda v: isinstance(v, list) and v and all(_is_int(s) and s >= 0 for s in v),
        "a non-empty list of non-negative integers",
    ),
    "output_dir?": None,
}
_SLAB_CLUSTER = {"machines": _POSITIVE, "slabs_per_machine?": _POSITIVE}
_CODE = {"k": None, "r?": None}  # CodecParams checks the values
_GROUPED = {CODINGSETS: {"l?": _NON_NEGATIVE}, ECCACHE: {}}  # only codingsets reads an l
_SCHEMAS = {
    "loss": {
        **_COMMON,
        "cluster": _SLAB_CLUSTER,
        "code": [_codec, _CODE],
        "sweep?": [
            {
                "path": (lambda v: isinstance(v, str) and v, "a non-empty string"),
                "values": (
                    lambda v: isinstance(v, list) and v and all(_is_number(x) for x in v),
                    "a non-empty list of numbers",
                ),
            },
            _sweep,
        ],
        "schemes": _entries("scheme", _GROUPED),
        "trials": _POSITIVE,
        "failure_fraction?": _FRACTION,
        "exact_threshold?": _NON_NEGATIVE,
    },
    "balance": {
        **_COMMON,
        "cluster": _SLAB_CLUSTER,
        "code": [_codec, _CODE],
        "policies": _entries("policy", {**_GROUPED, "power_of_two": {}}),
        "ranges?": _POSITIVE,
    },
    "datapath": {
        **_COMMON,
        "cluster": {"machines": _POSITIVE, "machine_bytes?": _POSITIVE, "latency?": LatencyModel},
        "code": [_codec, {**_CODE, "delta?": None}],  # only the data path reads delta
        "workload": {"operations": _POSITIVE, "ranges": _POSITIVE, "read_fraction?": _FRACTION},
        "baselines?": _entries(
            "baseline", {"replication": {"copies?": _POSITIVE}, "ssd_backup": {}}, may_be_empty=True
        ),
        "faults?": _faults,
        "manager?": ManagerConfig,
        "placement?": {"l?": _NON_NEGATIVE},
    },
}
SCENARIOS = tuple(_SCHEMAS)


def validate_config(cfg):
    """Check a config against its scenario's rule table; returns it unchanged."""
    _require(isinstance(cfg, dict), "config must be a mapping")
    _require(
        cfg.get("schema_version") == SCHEMA_VERSION,
        f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}",
    )
    scenario = cfg.get("scenario")
    _require(scenario in SCENARIOS, f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    _walk(cfg, _SCHEMAS[scenario], cfg, "", f"{scenario} config")
    return cfg


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
    groups_of = [[g for g in row if g >= 0] for row in _incidence_table(plan, n).tolist()]
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


def _at_sweep_value(cfg, path, value):
    """A copy of the config with ``value`` at ``path`` and no sweep."""
    point = copy.deepcopy(cfg)
    set_path(point, path, value)
    point.pop("sweep", None)
    return point


def run_loss_curves(cfg):
    """Analytic, exact, and sampled loss probability per scheme and seed.

    Returns (header, rows) with pre-formatted string cells. Sweeps over
    failure_fraction or slabs_per_machine abort with
    MonotonicityViolation if the analytic curve ever decreases.
    """
    validate_config(cfg)
    chash = config_hash(cfg)
    sweep_path, values = _sweep_points(cfg)
    monotone = sweep_path is not None and sweep_path.split(".")[-1] in MONOTONE_SWEEPS
    last = {}
    rows = []
    for value in values:
        work = cfg if sweep_path is None else _at_sweep_value(cfg, sweep_path, value)
        params = CodecParams(**work["code"])
        trials = work["trials"]
        threshold = work.get("exact_threshold", DEFAULT_EXACT_THRESHOLD)
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
            for seed in work["seeds"]:
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
                    str(plan.group_count),
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


def _distinct_reach(ids):
    """For each position p of the int array ``ids``, the end e of the longest
    run ``ids[p:e]`` of pairwise distinct ids."""
    size = len(ids)
    # unique keys sort equal ids by position, so neighbours are next occurrences
    value, index = np.divmod(np.sort(ids * size + np.arange(size)), size)
    repeat = value[1:] == value[:-1]
    nxt = np.full(size, size)  # position of the next equal id, else the end
    nxt[index[:-1][repeat]] = index[1:][repeat]
    return np.minimum.accumulate(nxt[::-1])[::-1]


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

    A run of ranges whose candidates lie in the current block and are
    pairwise distinct (``_distinct_reach``, once per block) cannot have a
    pair rejected, so it is placed by load comparisons alone; any other
    range takes the pick-by-pick loop. Both give the same loads and draws.
    """
    loads = [0] * n
    block, reach, pos, end, saved = [], None, 0, 0, None
    attempts = _P2C_ATTEMPTS
    span = 2 * width
    left = ranges
    while left:
        run = min(left, (int(reach[pos]) - pos) // span) if pos < end else 0
        if run:
            # a != b, and a range's `used` would hold only earlier ids of the run
            stop = pos + run * span
            pairs = iter(block[pos:stop])
            pos = stop
            left -= run
            for a, b in zip(pairs, pairs):
                la = loads[a]
                lb = loads[b]
                if la < lb or (la == lb and a < b):
                    loads[a] = la + 1
                else:
                    loads[b] = lb + 1
            continue
        left -= 1
        used = set()
        add = used.add
        for _ in range(width):
            tries = attempts
            while tries:
                if pos == end:
                    saved = rng.bit_generator.state
                    ids = rng.integers(0, n, size=_P2C_BLOCK)
                    block, reach, pos, end = ids.tolist(), _distinct_reach(ids), 0, _P2C_BLOCK
                a = block[pos]
                b = block[pos + 1]
                pos += 2
                if a != b and a not in used and b not in used:
                    break
                tries -= 1
            else:
                # dense fallback when nearly every machine is already used
                rng.bit_generator.state = saved
                rng.integers(0, n, size=pos)
                block, pos, end = [], 0, 0
                avail = [m for m in range(n) if m not in used]
                if not avail:
                    raise InvalidParams("no machines left for distinct placement")
                if len(avail) == 1:
                    a = b = avail[0]
                else:
                    pick = rng.choice(len(avail), size=2, replace=False)
                    a, b = avail[int(pick[0])], avail[int(pick[1])]
            la = loads[a]
            lb = loads[b]
            if la < lb or (la == lb and a < b):  # the less loaded, ties to the smaller id
                add(a)
                loads[a] = la + 1
            else:
                add(b)
                loads[b] = lb + 1
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
                # build_eccache's groups as a matrix; range i sits on row i mod groups
                members = eccache_members(shape, params, seed)
                gids = np.arange(ranges) % len(members)
                loads = np.bincount(members[gids].ravel(), minlength=n)
                label = "eccache"
            elif name == CODINGSETS:
                loads = codingsets_loads(build_codingsets(shape, params, l, seed), ranges, params)
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


_RAW_BLOCK = 1024  # raw 64-bit words gen_workload pulls from its PCG64 at a time


def _raw_words(bits):
    """The bit generator's raw 64-bit words as Python ints, drawn in blocks."""
    while True:
        yield from bits.random_raw(_RAW_BLOCK).tolist()


def gen_workload(wcfg, capacity, seed):
    """Seeded (op, range_id, page_index, payload_seed) tuples.

    Reads carry payload_seed None; writes carry the seed their page
    contents derive from, so the op list alone reproduces every byte.

    Each op is what ``integers(0, ranges)``, ``integers(0, capacity)``,
    ``random() < read_fraction`` and, for a write, ``integers(0, 2**32)``
    of ``default_rng(SeedSequence((seed, 0x301C)))`` return, made here
    from raw PCG64 words without a numpy call per draw. A 32-bit draw is
    the low half of a fresh word, or the high half that the previous one
    left (PCG64's ``has_uint32`` cache); ``random()`` takes a whole word
    and leaves that half pending. A bounded draw is Lemire's method, as
    in numpy: a bound of 1 draws nothing, and one above 2**32 draws whole
    words.
    """
    count = int(wcfg["operations"])
    ranges = int(wcfg["ranges"])
    read_fraction = float(wcfg.get("read_fraction", 0.5))
    word = _raw_words(np.random.PCG64(np.random.SeedSequence((int(seed), 0x301C)))).__next__
    half = None  # the high half of the word whose low half was the last 32-bit draw

    def uint32():
        nonlocal half
        if half is None:
            w = word()
            half = w >> 32
            return w & 0xFFFFFFFF
        low, half = half, None
        return low

    def below(n):
        if not 1 <= n <= 2**63:
            raise ValueError(f"a draw bound must be in [1, 2**63], got {n}")
        if n == 1:
            return lambda: 0
        bits, draw = (32, uint32) if n <= 2**32 else (64, word)
        mask = (1 << bits) - 1
        threshold = ((1 << bits) - n) % n

        def lemire():
            m = draw() * n
            while m & mask < threshold:
                m = draw() * n
            return m >> bits

        return lemire

    range_of = below(ranges)
    page_of = below(int(capacity))
    ops = []
    for _ in range(count):
        rid = range_of()
        page = page_of()
        if (word() >> 11) * 2.0**-53 < read_fraction:
            ops.append(("R", rid, page, None))
        else:
            ops.append(("W", rid, page, uint32()))
    return ops


def page_payload(payload_seed, page_size):
    """The page contents a write's payload_seed denotes.

    These are the bytes of ``default_rng((seed, 0xFA6E)).bytes(page_size)``:
    a fresh PCG64 serves each 64-bit word as its low then its high 32-bit
    half, so the raw words in little-endian order are the same stream. The
    seed sequence is built from the entropy numpy assembles from that
    tuple, the seed's 32-bit words from the lowest followed by 0xFA6E,
    which skips its per-element conversion.
    """
    seed = int(payload_seed)
    if seed < 0:
        raise ValueError(f"payload seed must be non-negative, got {seed}")
    words = [seed & 0xFFFFFFFF]
    while seed >> 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    words.append(0xFA6E)
    bits = np.random.PCG64(np.random.SeedSequence(np.array(words, np.uint32)))
    raw = bits.random_raw(-(-page_size // 8))
    return raw.astype("<u8", copy=False).tobytes()[:page_size]


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
    return cluster, manager


def _run_coded(cfg, seed, ops, chash):
    cluster, manager = _build_stack(cfg, seed)
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
            manager.drain_regeneration()
    cluster.run_until_idle()
    for _ in range(8):
        if not manager.regeneration_requests:
            break
        manager.drain_regeneration()
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
    capacity = mconfig.slab_size // make_codec(params, mconfig.page_size).split_size
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
