"""Clean reads: a read whose arrived splits all equal the page's
last-written codeword delivers that codeword's page without the codec.

The delivered outcome, page, `corrected`, `verified` and health records
must equal what the codec path gives for the same arrivals, whatever they
are, and a clean read and a clean rebuild must do no GF(256) work.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codedmem import coding, gf256, manager, placement
from codedmem.coding import CodecParams
from codedmem.errors import UncorrectableCorruption
from codedmem.manager import ManagerConfig, ResilienceManager
from codedmem.simulator import Cluster, LatencyModel, SlabState


def build(params, l=0, guard=False, page_size=coding.PAGE_SIZE, seed=0):
    n = params.k + params.r + l
    model = LatencyModel(median_us=1.5, sigma=0.0, straggler_prob=0.0)
    cluster = Cluster(n, latency=model, seed=seed)
    plan = placement.build_codingsets(placement.ClusterShape(machines=n), params, l=l, seed=seed)
    config = ManagerConfig(page_size=page_size, corruption_guard=guard)
    mgr = ResilienceManager(cluster, plan, params, config=config, seed=seed)
    return cluster, mgr, mgr.map_range(0)


def codec_outcome(codec, splits, guarded, delta):
    """What the codec path delivers for these (role, data) splits: outcome,
    page, corrected, verified and the (role, ok) health records. A guarded
    read whose check fails with no spare left to ask is corrupt."""
    k = codec.params.k
    if not guarded:
        return "ok", coding.decode(codec, splits), False, False, []
    if len(splits) >= k + 2 * delta + 1:
        try:
            page, bad = coding.correct_corruption(codec, splits, delta)
        except UncorrectableCorruption:
            return "corrupt-unrecoverable", None, False, False, []
        return "ok", page, bool(bad), True, [(role, role not in bad) for role, _ in splits]
    checkable = len(splits) >= k + delta
    page = coding._verified_decode(codec, splits if checkable else splits[:k])
    if page is None:
        return "corrupt-unrecoverable", None, False, False, []
    return "ok", page, False, checkable, [(role, True) for role, _ in splits] if checkable else []


GEOMETRIES = [CodecParams(8, 2, 1), CodecParams(4, 3, 1), CodecParams(3, 1, 0)]


@st.composite
def reads(draw, params):
    k, width = params.k, params.k + params.r
    page_size = draw(st.integers(1, 6 * k))  # k need not divide it
    old = draw(st.binary(min_size=page_size, max_size=page_size))
    new = draw(st.binary(min_size=page_size, max_size=page_size))
    n = draw(st.integers(k, width))
    roles = draw(st.permutations(range(width)))[:n]
    times = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))  # ties too
    # each arrived split is as stored, or an equal copy such as a rebuild
    # writes; up to two are a corrupted byte or the split of an earlier write
    kinds = draw(st.lists(st.sampled_from(["stored", "copy"]), min_size=n, max_size=n))
    bad = st.tuples(st.integers(0, n - 1), st.sampled_from(["corrupt", "stale"]))
    for at, kind in draw(st.lists(bad, max_size=2)):
        kinds[at] = kind
    flips = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 255)), min_size=n, max_size=n))
    written = draw(st.booleans())
    return page_size, old, new, list(zip(times, roles, kinds, flips)), written


@pytest.mark.parametrize("guard", [False, True])
@pytest.mark.parametrize("params", GEOMETRIES, ids=lambda p: f"k{p.k}r{p.r}d{p.delta}")
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_a_read_delivers_what_the_codec_gives_for_its_arrivals(params, guard, data):
    page_size, old, new, arrivals, written = data.draw(reads(params))
    cluster, mgr, arange = build(params, guard=guard, page_size=page_size)
    assert mgr.remote_write(0, 0, old).outcome == "durable"
    stale = arange.codewords[0]
    if written:
        assert mgr.remote_write(0, 0, new).outcome == "durable"
    # a page never written reads as zero splits
    page_index = 0 if written else 1
    stored = [cluster.slabs[ref.slab_id].store.get(page_index) for ref in arange.refs]
    if not written:
        assert stored == [None] * len(arange.refs)
        stored = [bytes(mgr.codec.split_size)] * len(arange.refs)
    split_arrivals = []
    for time, role, kind, (offset, mask) in arrivals:
        split = stored[role]
        if kind == "corrupt":
            raw = bytearray(split)
            raw[offset % len(raw)] ^= mask
            split = bytes(raw)
        elif kind == "stale":
            split = stale[role]
        elif kind == "copy":
            split = bytes(bytearray(split))
        split_arrivals.append((time, role, split))

    op = manager._ReadOp(mgr, arange, page_index, None)
    op.started_ns = cluster.now  # as `start` sets it
    op.guarded = guard and params.delta > 0
    op.targets = tuple(range(len(arange.refs)))  # no spare left to ask
    op.arrivals = list(split_arrivals)
    before = {m: list(h.window) for m, h in mgr.health.items()}
    op._decide()

    splits = [arrival[1:] for arrival in sorted(split_arrivals)]
    outcome, page, corrected, verified, records = codec_outcome(
        mgr.codec, splits, op.guarded, params.delta
    )
    assert (op.outcome, op.page, op.corrected, op.verified) == (outcome, page, corrected, verified)
    recorded = {m: list(h.window)[len(before.get(m, [])):] for m, h in mgr.health.items()}
    expect = {}
    for role, ok in records:
        expect.setdefault(arange.refs[role].machine_id, []).append(0 if ok else 1)
    assert {m: bits for m, bits in recorded.items() if bits} == expect
    if all(kind in ("stored", "copy") for _, _, kind, _ in arrivals):
        assert op.clean and op.page == (new if written else bytes(page_size))


@pytest.fixture
def gf_calls(monkeypatch):
    calls = {"apply_matrix": 0, "mat_inv": 0}
    for name in calls:
        real = getattr(gf256, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(gf256, name, counted)
    return calls


@pytest.mark.parametrize("guard", [False, True])
def test_clean_reads_make_no_gf_calls_even_through_parity(guard, gf_calls):
    params = CodecParams(k=2, r=2, delta=1)
    cluster, mgr, arange = build(params, l=1, guard=guard)
    pages = {p: bytes([p + 1]) * 4096 for p in range(4)}
    for p, page in pages.items():
        mgr.remote_write(0, p, page)
    gf_calls.update(apply_matrix=0, mat_inv=0)
    for _ in range(3):
        for p, page in pages.items():
            op = mgr.drive(mgr.submit_read(0, p))
            assert op.outcome == "ok" and op.page == page and op.clean
            assert op.verified is guard
    # a data slab fails: parity now serves every read
    cluster.fail_machine(arange.refs[0].machine_id)
    cluster.run_until_idle()
    for p, page in pages.items():
        op = mgr.drive(mgr.submit_read(0, p))
        assert op.outcome == "ok" and op.page == page and op.clean
        assert max(op.targets) >= params.k
        assert op.decode_ns == mgr.decode_ns
    assert gf_calls == {"apply_matrix": 0, "mat_inv": 0}


def test_a_corrupted_split_still_reaches_correction(monkeypatch):
    params = CodecParams(k=2, r=3, delta=1)
    cluster, mgr, arange = build(params, guard=True)
    page = bytes(range(256)) * 16
    mgr.remote_write(0, 0, page)
    cluster.corrupt_slab(arange.refs[1].slab_id, 0, b"\xff\x01")
    real = coding.correct_corruption
    seen = []

    def spied(*args):
        seen.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(coding, "correct_corruption", spied)
    # a suspect machine widens the first hop to k+2*delta+1
    mgr.health[arange.refs[1].machine_id].record(False)
    op = mgr.drive(mgr.submit_read(0, 0))
    assert seen == [5]
    assert op.outcome == "ok" and op.page == page
    assert op.corrected and op.verified and not op.clean


@pytest.mark.parametrize("role", [0, 2])
def test_a_clean_rebuild_fills_with_the_codewords_own_split(role, gf_calls):
    params = CodecParams(k=2, r=1)
    cluster, mgr, arange = build(params, l=1)
    for p in range(4):
        mgr.remote_write(0, p, bytes([p + 7]) * 4096)
    cluster.fail_machine(arange.refs[role].machine_id)
    cluster.run_until_idle()
    gf_calls.update(apply_matrix=0, mat_inv=0)
    (rebuild,) = mgr.drain_regeneration()
    cluster.run_until_idle()
    assert rebuild.done and rebuild.succeeded
    slab = arange.refs[role]
    assert slab.state is SlabState.AVAILABLE
    for p, codeword in arange.codewords.items():
        assert slab.store[p] is codeword[role]
    assert gf_calls == {"apply_matrix": 0, "mat_inv": 0}


def test_parity_a_write_never_sent_is_rebuilt_from_its_codeword():
    params = CodecParams(k=2, r=1)
    cluster, mgr, arange = build(params, l=1)
    cluster.fail_machine(arange.refs[2].machine_id)
    cluster.run_until_idle()
    page = bytes(range(200)) * 20 + bytes(96)
    assert mgr.remote_write(0, 0, page).outcome == "degraded"
    # the write records its whole codeword, parity too, though no slab took it
    data = [page[:2048], page[2048:]]
    (parity,) = coding.encode(mgr.codec, data)
    assert arange.codewords[0] == (data[0], data[1], parity)
    mgr.drain_regeneration()
    cluster.run_until_idle()
    assert arange.refs[2].store[0] is arange.codewords[0][2]
