"""A data split is its page, in place: a write stores the page object it was
given in every data-role slab whose split starts inside the page, and one
`coding.Parity` record of the page in every parity-role slab. `Slab.split`
cuts the role's split from the page, or has the record make its rows,
wherever split bytes are needed.
"""

import numpy as np
import pytest

from codedmem import coding, manager, placement
from codedmem.coding import CodecParams
from codedmem.manager import ManagerConfig, ResilienceManager
from codedmem.simulator import Cluster, LatencyModel, SlabState, split_of


def build(params, page_size=coding.PAGE_SIZE, guard=False, l=1):
    n = params.k + params.r + l
    model = LatencyModel(median_us=1.5, sigma=0.0, straggler_prob=0.0)
    cluster = Cluster(n, latency=model, seed=3)
    plan = placement.build_codingsets(placement.ClusterShape(machines=n), params, l=l, seed=3)
    config = ManagerConfig(page_size=page_size, corruption_guard=guard)
    mgr = ResilienceManager(cluster, plan, params, config=config, seed=3)
    return cluster, mgr, mgr.map_range(0)


def page_bytes(page_size, seed):
    return np.random.default_rng(seed).bytes(page_size)


def in_place(codec, role):
    """True when a write stores the page itself for `role`."""
    return role < codec.params.k and role * codec.split_size < codec.page_size


def is_record_of(stored, page):
    """True when `stored` is a parity record of the very page object."""
    return isinstance(stored, coding.Parity) and stored.page is page


def test_split_of_cuts_a_page_and_keeps_a_split():
    split = b"\x07\x08"
    assert split_of(split, 3, 2) is split
    assert [split_of(b"abcde", role, 2) for role in range(4)] == [b"ab", b"cd", b"e\x00", b"\x00\x00"]


def test_every_data_role_stores_the_page_object_it_was_given():
    params = CodecParams(k=4, r=3, delta=1)
    cluster, mgr, arange = build(params)
    page = page_bytes(4096, 1)
    assert mgr.remote_write(0, 2, page).outcome == "durable"
    cluster.run_until_idle()
    rows = coding.codeword(mgr.codec, page)
    record = arange.codewords[2][params.k]
    for role, ref in enumerate(arange.refs):
        slab = cluster.slabs[ref.slab_id]
        stored = slab.store[2]
        assert stored is arange.codewords[2][role]
        if role < params.k:
            assert stored is page
        else:
            # every parity role shares the one record, made into rows when read
            assert stored is record and is_record_of(stored, page)
        assert slab.split(2) == rows[role] and len(slab.split(2)) == mgr.codec.split_size


# (page_size, k): k need not divide the page; at 5 bytes and k=4 role 3
# is all padding, at 1 byte and k=2 role 0's split is the whole page
LAYOUTS = [(4095, 4), (5, 4), (1, 2), (64, 1)]
LAYOUT_IDS = [f"p{p}k{k}" for p, k in LAYOUTS]


def layout(page_size, k, guard=False):
    # r=4, delta=1: a guarded read still corrects with one slab lost
    return build(CodecParams(k=k, r=4, delta=1), page_size=page_size, guard=guard)


@pytest.mark.parametrize("page_size,k", LAYOUTS, ids=LAYOUT_IDS)
def test_a_layout_stores_reads_and_resolves_its_splits(page_size, k):
    cluster, mgr, arange = layout(page_size, k)
    codec = mgr.codec
    pages = {p: page_bytes(page_size, 10 + p) for p in range(3)}
    for p, page in pages.items():
        assert mgr.remote_write(0, p, page).outcome == "durable"
    cluster.run_until_idle()
    for p, page in pages.items():
        rows = coding.codeword(codec, page)
        for role, ref in enumerate(arange.refs):
            slab = cluster.slabs[ref.slab_id]
            assert slab.split(p) == rows[role]
            if in_place(codec, role):
                assert slab.store[p] is page
            elif role < k:
                assert slab.store[p] == rows[role] == bytes(codec.split_size)
            else:
                assert is_record_of(slab.store[p], page)
        op = mgr.drive(mgr.submit_read(0, p))
        assert op.outcome == "ok" and op.clean and op.page is page
    assert mgr.remote_read(0, len(pages)) is mgr.zero_page


def decided(mgr, arange, page_index, arrivals, guarded):
    op = manager._ReadOp(mgr, arange, page_index, None)
    op.started_ns = mgr.cluster.now  # as `start` sets it
    op.guarded = guarded
    op.targets = tuple(range(len(arange.refs)))  # no spare left to ask
    op.arrivals = arrivals
    op._decide()
    return op


@pytest.mark.parametrize("page_size,k", LAYOUTS, ids=LAYOUT_IDS)
def test_an_unguarded_decode_through_parity_cuts_the_stored_pages(page_size, k):
    cluster, mgr, arange = layout(page_size, k)
    old, page = page_bytes(page_size, 20), page_bytes(page_size, 21)
    mgr.remote_write(0, 0, old)
    stale = arange.codewords[0][0]
    mgr.remote_write(0, 0, page)
    cluster.run_until_idle()
    stored = [cluster.slabs[ref.slab_id].store[0] for ref in arange.refs]
    # parity first, then data roles, so the decode inverts through parity;
    # a stale role 0 arrives last, so the read is not clean
    order = list(range(k, len(stored))) + list(range(1, k))
    arrivals = [(0, role, stored[role]) for role in order[:k]] + [(1, 0, stale)]
    op = decided(mgr, arange, 0, arrivals, guarded=False)
    assert op.outcome == "ok" and not op.clean
    assert op.page == page and op.decode_ns == mgr.decode_ns


@pytest.mark.parametrize("page_size,k", LAYOUTS, ids=LAYOUT_IDS)
def test_a_guarded_read_corrects_a_corrupted_split_of_any_layout(page_size, k):
    cluster, mgr, arange = layout(page_size, k, guard=True)
    page = page_bytes(page_size, 30)
    mgr.remote_write(0, 0, page)
    cluster.run_until_idle()
    # the last data role: all padding at 5 bytes and k=4
    cluster.corrupt_slab(arange.refs[k - 1].slab_id, 0, b"\x5a")
    assert cluster.event_log[-1][3] == "corrupted"
    stored = [cluster.slabs[ref.slab_id].store[0] for ref in arange.refs]
    op = decided(mgr, arange, 0, [(0, role, data) for role, data in enumerate(stored)], True)
    assert op.outcome == "ok" and op.page == page
    assert op.corrected and op.verified and not op.clean
    # a read whose fan-out may miss the corrupted split delivers the page too
    assert mgr.remote_read(0, 0) == page


@pytest.mark.parametrize(
    "page_size,k,role",
    [(p, k, role) for p, k in LAYOUTS for role in range(k + 4)],
    ids=lambda v: str(v),
)
def test_every_role_rebuilds_to_its_stored_form(page_size, k, role, monkeypatch):
    cluster, mgr, arange = layout(page_size, k, guard=True)
    pages = {p: page_bytes(page_size, 40 + p) for p in range(2)}
    for p, page in pages.items():
        mgr.remote_write(0, p, page)
    cluster.run_until_idle()
    # page 1's rebuild read corrects a corrupted split, so it is not clean;
    # a suspect machine makes the read ask every healthy slab
    bad = arange.refs[(role + 1) % len(arange.refs)]
    cluster.corrupt_slab(bad.slab_id, 1, b"\x01")
    mgr.health[bad.machine_id].record(False)
    cluster.fail_machine(arange.refs[role].machine_id)
    cluster.run_until_idle()
    clean = []
    real = manager._Rebuild._on_read

    def on_read(rebuild, read):
        clean.append(read.clean)
        return real(rebuild, read)

    monkeypatch.setattr(manager._Rebuild, "_on_read", on_read)
    (rebuild,) = mgr.drain_regeneration()
    cluster.run_until_idle()
    assert rebuild.done and rebuild.succeeded and clean == [True, False]
    slab = arange.refs[role]
    assert slab.state is SlabState.AVAILABLE
    for p, page in pages.items():
        assert slab.split(p) == coding.codeword(mgr.codec, page)[role]
        # a read that delivers the recorded page fills with the recorded object
        assert slab.store[p] is arange.codewords[p][role]
        assert mgr.remote_read(0, p) == page


def test_corrupting_a_split_stored_in_place_changes_only_that_split():
    params = CodecParams(k=4, r=3, delta=1)
    cluster, mgr, arange = build(params, guard=True)
    page = page_bytes(4096, 50)
    written = bytes(bytearray(page))
    mgr.remote_write(0, 0, page)
    cluster.run_until_idle()
    stored = {ref.role: cluster.slabs[ref.slab_id].store[0] for ref in arange.refs}
    slab = cluster.slabs[arange.refs[1].slab_id]
    # a mask past the split's end changes nothing, and the page stays in place
    cluster.corrupt_slab(slab.slab_id, 0, bytes(mgr.codec.split_size) + b"\x01")
    assert cluster.event_log[-1][3] == "unchanged" and slab.store[0] is page
    cluster.corrupt_slab(slab.slab_id, 0, b"\x0f\xf0", offset=7)
    assert cluster.event_log[-1][3] == "corrupted"
    expect = bytearray(coding.codeword(mgr.codec, page)[1])
    expect[7] ^= 0x0F
    expect[8] ^= 0xF0
    assert slab.store[0] == bytes(expect) and slab.split(0) == bytes(expect)
    assert page == written
    for ref in arange.refs:
        if ref.role != 1:
            assert cluster.slabs[ref.slab_id].store[0] is stored[ref.role]
    op = mgr.drive(mgr.submit_read(0, 0))
    assert op.outcome == "ok" and op.page == written
    assert op.corrected and op.verified and not op.clean


@pytest.mark.parametrize("params", [CodecParams(4, 3, 1), CodecParams(8, 2, 1)], ids=str)
def test_corrupting_a_parity_split_whose_rows_were_never_made(params):
    cluster, mgr, arange = build(params, guard=True)
    k = params.k
    page = page_bytes(4096, 60)
    mgr.remote_write(0, 0, page)
    cluster.run_until_idle()
    record = arange.codewords[0][k]
    assert record.rows is None
    slab = cluster.slabs[arange.refs[k].slab_id]
    mask = b"\x81\x00\x7e"
    cluster.corrupt_slab(slab.slab_id, 0, mask, offset=5)
    assert cluster.event_log[-1][3] == "corrupted"
    expect = bytearray(coding.codeword(mgr.codec, page)[k])
    for i, byte in enumerate(mask):
        expect[5 + i] ^= byte
    # the slab stores the row xor the mask as its own bytes; the rows were
    # made once, on the record every other parity slab still shares
    assert type(slab.store[0]) is bytes and slab.store[0] == bytes(expect)
    assert record.rows is not None
    for ref in arange.refs[k + 1 :]:
        assert cluster.slabs[ref.slab_id].store[0] is record
    # a suspect machine makes a guarded read ask every split
    mgr.health[slab.machine_id].record(False)
    op = mgr.drive(mgr.submit_read(0, 0))
    if len(arange.refs) >= k + 2 * params.delta + 1:
        assert op.outcome == "ok" and op.page == page
        assert op.corrected and op.verified and not op.clean
    else:
        # k + r splits are too few to locate a corruption: it is detected
        assert op.outcome == "corrupt-unrecoverable" and op.page is None
