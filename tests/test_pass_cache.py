"""Persistent compiled tiers: exact codec, staleness, warm sweeps.

The ``.rvp`` container (a compiled point-pass tier) exists so a warm
re-run of a figure sweep skips the event walk entirely; it is the only
artifact derived from a trace (the shared pass lives in the in-process
memo, and a point without a tier decodes the trace and runs the pass
again).  Correctness is the same bitwise bar as the rest of the replay
engine: everything that crosses the wire must round-trip type-exactly
(``float.hex`` equal, ints as ints, bools as bools), a digest mismatch
must read as a miss (never a wrong answer), corruption must quarantine,
and a warm sweep must price bitwise identically to its cold capture
run — serial and parallel, spill on or off.
"""

import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import tracecache as tc
from repro.core.codesign import sweep_cache_sizes, sweep_lanes, sweep_vector_lengths
from repro.machine import rvv_gem5
from repro.machine.config import CacheParams
from repro.machine.replay import (
    _INVARIANT_FIELDS,
    _compile_fast,
    _run_points,
    _shared_pass,
    replay,
    replay_sweep,
    replay_sweep_cached,
)
from repro.machine.simulator import SimStats
from repro.machine.trace import TraceRecorder
from repro.nets import ConvLayer, KernelPolicy, MaxPoolLayer, Network
from repro.nets.zoo import yolov3_tiny

COMPAT = {"isa_name": "rvv1.0", "vlen_bits": 512, "l1_line_bytes": 64}


def small_net():
    return Network(
        [ConvLayer(8, 3, 1), MaxPoolLayer(2, 2), ConvLayer(16, 3, 1)],
        input_shape=(4, 32, 32),
        name="small",
    )


def eq_item(x, y):
    """Type-exact equality: float bits, tuple shape, int/bool identity."""
    if type(x) is float:
        return type(y) is float and x.hex() == y.hex()
    if not (isinstance(x, tuple) and isinstance(y, tuple)):
        return type(x) is type(y) and x == y
    return len(x) == len(y) and all(eq_item(a, b) for a, b in zip(x, y))


def hexs(stats: SimStats):
    fields = tuple(getattr(stats, f).hex() for f in SimStats.FIELDS)
    kc = tuple(sorted((k, v.hex()) for k, v in stats.kernel_cycles.items()))
    return fields, kc


# ----------------------------------------------------------------------
# .rvp v2: label runs, class-item bitmap, <u2 class ids
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False)
posint = st.integers(min_value=0, max_value=2**40)
small = st.integers(min_value=0, max_value=64)
ev_def = st.one_of(
    st.builds(
        lambda w, lat, occ, nb, nl, wr, un: (3, w, lat, occ, nb, nl, wr, un),
        finite, posint, finite, posint, small, st.booleans(), st.booleans(),
    ),
    st.builds(
        lambda w, lat, occ, wr: (4, w, lat, occ, wr),
        finite, posint, finite, st.booleans(),
    ),
)
t6_def = st.tuples(st.just(6), finite, st.integers(min_value=0, max_value=7))
cls_def = st.one_of(
    st.builds(lambda d, h, m: d + (h, m), ev_def, small, small), t6_def
)

CLASSES = [
    ("a", 64, 2, 4),
    ("b", 3),
    ("m", 12, 0.5, 256, 4, True, False),
    ("m", 40, 1.25, 64, 1, False, True),
]


def make_gc():
    """The pricing subset of the group constants a tier header embeds."""
    return {
        "l1_lat": 4,
        "ooo_hide": 0.5,
        "scalar_cpi": 1.0,
        "classes": list(CLASSES),
    }


def narrow(col):
    """An integer column at the narrowest unsigned width that holds it,
    as a compiled tier holds ``kid``, ``cls_pos`` and ``cls_idx``."""
    col = np.asarray(col, np.int64)
    return col.astype(np.min_scalar_type(int(col.max(initial=0))))


@st.composite
def tier_columns(draw):
    """A tier's column dict: any item count (zero included), one or many
    label runs, and no, some or every item a class item."""
    labels = draw(st.lists(st.text(max_size=6), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, 40))
    label = st.integers(0, len(labels) - 1)
    one_run = draw(st.booleans())
    kid = [draw(label)] * n if one_run else draw(st.lists(label, min_size=n, max_size=n))
    cls = draw(st.sampled_from(["none", "all", "some"]))
    is_cls = (
        draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if cls == "some" else [cls == "all"] * n
    )
    cls_defs = draw(st.lists(cls_def, min_size=1, max_size=5))
    n_cls = sum(is_cls)
    idx = st.integers(0, len(cls_defs) - 1)
    weights = st.lists(finite, min_size=len(cls_defs), max_size=len(cls_defs))
    return {
        "base": np.asarray(draw(st.lists(finite, min_size=n, max_size=n)), np.float64),
        "kid": narrow(kid),
        "labels": labels,
        "cls_pos": narrow(np.flatnonzero(np.asarray(is_cls, dtype=bool))),
        "cls_idx": narrow(draw(st.lists(idx, min_size=n_cls, max_size=n_cls))),
        "cls_defs": cls_defs,
        "wh_by_cls": np.asarray(draw(weights), np.float64),
        "wm_by_cls": np.asarray(draw(weights), np.float64),
        "max_nm": draw(small),
    }


TIER = {"kind": "walk", "token": "w" * 12, "desc": "walk:x", "fps": []}


def encode_tier(cols):
    return tc.encode_vecprog(
        cols, {"flops": 1.0}, make_gc(), key="k", sig="s" * 12, tier=TIER,
        trace_sha256="t" * 64, compat=COMPAT,
    )


def assert_same_tier_dict(a, b):
    for name in ("base", "kid", "cls_pos", "cls_idx", "wh_by_cls", "wm_by_cls"):
        x, y = np.asarray(a[name]), np.asarray(b[name])
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a["labels"] == b["labels"] and a["max_nm"] == b["max_nm"]
    assert len(a["cls_defs"]) == len(b["cls_defs"])
    assert all(eq_item(x, y) for x, y in zip(a["cls_defs"], b["cls_defs"]))


def tier_parts(cols):
    """The header and wire arrays :func:`encode_vecprog` would pack."""
    parts = {}

    def grab(magic, header, arrays, layout):
        parts.update(header=header, arrays=arrays)
        return b""

    with mock.patch.object(tc, "_pack_blocks", grab):
        encode_tier(cols)
    return parts["header"], parts["arrays"]


EMPTY_TIER = {
    "base": np.zeros(0), "kid": np.zeros(0, np.uint8), "labels": ["k"],
    "cls_pos": np.zeros(0, np.uint8), "cls_idx": np.zeros(0, np.uint8),
    "cls_defs": [(6, 1.0, 0)], "wh_by_cls": np.zeros(1), "wm_by_cls": np.zeros(1),
    "max_nm": 0,
}

#: Three label runs over nine items, class items at 1, 2, 5 and 8.
SMALL_TIER = dict(
    EMPTY_TIER,
    base=np.arange(9, dtype=np.float64),
    kid=np.array([0, 0, 1, 1, 1, 0, 0, 0, 0], np.uint8),
    labels=["a", "b"],
    cls_pos=np.array([1, 2, 5, 8], np.uint8),
    cls_idx=np.array([0, 1, 1, 0], np.uint8),
    cls_defs=[(6, 1.0, 0), (4, 2.0, 7, 0.5, False, 1, 0)],
    wh_by_cls=np.array([0.0, 2.0]),
    wm_by_cls=np.array([0.0, 0.0]),
)


class TestCodecRoundTrip:
    """Byte-level refusals of the shared container (``_unpack_blocks``)."""

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda b: b"XXXX" + b[4:], id="bad-magic"),
        pytest.param(lambda b: b[:-3], id="truncated"),
        pytest.param(lambda b: b + b"\0\0", id="trailing"),
        pytest.param(
            lambda b: b[:-5] + bytes([b[-5] ^ 0xFF]) + b[-4:], id="bitflip"
        ),
    ])
    def test_corruption_raises(self, mutate):
        blob = encode_tier(SMALL_TIER)
        tc.decode_vecprog(blob)  # the unmutated blob decodes
        with pytest.raises(ValueError):
            tc.decode_vecprog(mutate(blob))


class TestVecprogCodec:
    @given(tier_columns())
    @settings(max_examples=80, deadline=None)
    @example(EMPTY_TIER)
    def test_roundtrip_any_tier(self, cols):
        header, cols2, inv, gcp = tc.decode_vecprog(encode_tier(cols))
        assert header["format"] == tc.VECPROG_FORMAT_VERSION == 2
        assert header["n_items"] == len(cols["base"])
        assert_same_tier_dict(cols, cols2)
        assert inv == {"flops": 1.0} and gcp["classes"] == CLASSES

    def test_label_runs_and_bitmap_on_the_wire(self):
        header, arrays = tier_parts(SMALL_TIER)
        assert arrays["kid_at"].tolist() == [0, 2, 5]
        assert arrays["kid_run"].tolist() == [0, 1, 0]
        assert np.unpackbits(arrays["cls_bits"]).tolist() == [
            0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        ]
        assert tc._encode_col("raw", "<u2", arrays["cls_idx"]) == bytes(
            [0, 0, 1, 0, 1, 0, 0, 0]
        )

    @pytest.mark.parametrize("bad", [
        pytest.param({"cls_idx": np.array([0, 1, 2, 0])}, id="id-past-table"),
        pytest.param({"cls_idx": np.array([0, -1, 1, 0])}, id="negative-id"),
        pytest.param({"cls_pos": np.array([1, 5, 2, 8])}, id="unordered-items"),
        pytest.param({"cls_pos": np.array([1, 2, 5, 9])}, id="item-past-end"),
        pytest.param({"kid": np.array([-1, 0, 1, 1, 1, 0, 0, 0, 0])}, id="no-label"),
    ])
    def test_unencodable_tier_raises(self, bad):
        with pytest.raises(ValueError):
            encode_tier(dict(SMALL_TIER, **bad))

    def test_more_than_u2_classes_raise(self):
        cols = dict(SMALL_TIER, cls_defs=[(6, 1.0, 0)] * 0x10000,
                    wh_by_cls=np.zeros(0x10000), wm_by_cls=np.zeros(0x10000))
        with pytest.raises(ValueError, match="<u2"):
            encode_tier(cols)
        cols = dict(cols, cls_defs=cols["cls_defs"][1:], wh_by_cls=np.zeros(0xFFFF),
                    wm_by_cls=np.zeros(0xFFFF))
        assert tc.decode_vecprog(encode_tier(cols))[1]["cls_idx"].tolist() == [0, 1, 1, 0]


#: Digest-valid ``.rvp`` files whose columns do not fit together; each
#: edits the wire arrays (or header) of SMALL_TIER.
REFUSALS = {
    "runs-start-late": lambda h, a: a.update(kid_at=np.array([1, 2, 5])),
    "runs-not-rising": lambda h, a: a.update(kid_at=np.array([0, 5, 5])),
    "run-past-end": lambda h, a: a.update(kid_at=np.array([0, 2, 9])),
    "runs-uneven": lambda h, a: a.update(kid_run=np.array([0, 1])),
    "no-runs": lambda h, a: a.update(kid_at=np.zeros(0, np.int64),
                                     kid_run=np.zeros(0, np.int64)),
    "run-label-missing": lambda h, a: a.update(kid_run=np.array([0, 2, 0])),
    "bitmap-short": lambda h, a: a.update(cls_bits=a["cls_bits"][:1]),
    "bitmap-popcount": lambda h, a: a.update(cls_bits=np.array([0x60, 0x80], np.uint8)),
    "bitmap-padding": lambda h, a: a.update(cls_bits=np.array([0x64, 0x81], np.uint8)),
    "class-id-past-table": lambda h, a: a.update(cls_idx=np.array([0, 1, 2, 0])),
    "weights-uneven": lambda h, a: a.update(wm_by_cls=np.zeros(3)),
    "items-vs-base": lambda h, a: h.update(n_items=10),
}


# ----------------------------------------------------------------------
# Store/load against a real shared pass
# ----------------------------------------------------------------------
@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_TRACE_SPILL", "1")
    tc.clear_registry()
    from repro.machine import replay

    replay._SHARED_PASS_MEMO.clear()
    yield tmp_path
    tc.clear_registry()
    replay._SHARED_PASS_MEMO.clear()
    # No path persists a shared pass: cold captures, replay_sweep over a
    # loaded trace and pool workers leave traces and .rvp tiers only.
    assert not list(tmp_path.glob("*.rpp"))


def record_small(m, key):
    rec = TraceRecorder(m)
    small_net()._emit_trace(rec, KernelPolicy(), None, True)
    return rec.finish(key=key)


def shared_pass_fixture():
    m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
    trace = record_small(m, "passchk")
    skel, inv, gc = _shared_pass(trace, m)
    inv_fields = {f: getattr(inv, f) for f in _INVARIANT_FIELDS}
    return m, trace, skel, inv_fields, gc


class TestStoreLoad:
    def test_corrupt_pass_is_quarantined(self, cache_dir):
        """A tier whose bytes were flipped on disk is quarantined by the
        first load and never served: the second load finds no file."""
        m, trace, skel, inv_fields, gc = shared_pass_fixture()
        digest = trace.content_digest()
        cols = _compile_fast(skel, gc, m)
        assert tc.store_vecprog(
            {s: getattr(cols, s) for s in cols.__slots__}, inv_fields, gc,
            key="k2", sig="s" * 12, tier=TIER, trace_sha256=digest,
            compat=COMPAT,
        )
        path = tc._vecprog_path("k2", "s" * 12, TIER["token"])
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert tc.load_vecprog("k2", "s" * 12, TIER["token"], digest) is None
        assert not os.path.exists(path)  # moved aside, never served twice
        qdir = os.path.join(str(cache_dir), "quarantine")
        assert os.path.isdir(qdir) and os.listdir(qdir)
        assert tc.load_vecprog("k2", "s" * 12, TIER["token"], digest) is None

    def test_vecprog_roundtrip(self, cache_dir):
        m, trace, skel, inv_fields, gc = shared_pass_fixture()
        digest = trace.content_digest()
        cols = _compile_fast(skel, gc, m)
        cols_dict = {s: getattr(cols, s) for s in cols.__slots__}
        tier = {"kind": "fast", "token": "f" * 12, "desc": "fast:None",
                "fps": ["fp1"]}
        assert tc.store_vecprog(
            cols_dict, inv_fields, gc, key="k3", sig="s" * 12, tier=tier,
            trace_sha256=digest, compat=COMPAT,
        )
        out = tc.load_vecprog("k3", "s" * 12, "f" * 12, digest)
        assert out is not None
        header, cols2, inv2, gcp = out
        assert header["tier"]["fps"] == ["fp1"]
        # Loaded at the widths the compiled tier holds (u1/u2 here).
        for name in ("kid", "cls_pos", "cls_idx"):
            assert cols2[name].dtype == getattr(cols, name).dtype, name
            assert (cols2[name] == getattr(cols, name)).all(), name
        assert cols.kid.dtype == np.uint8 and cols.cls_idx.itemsize <= 2
        assert (cols2["base"] == cols.base).all()
        assert cols2["labels"] == cols.labels
        for a, b in zip(cols.cls_defs, cols2["cls_defs"]):
            assert eq_item(a, b)
        assert {"l1_lat", "ooo_hide", "scalar_cpi", "classes"} <= set(gcp)
        # A different trace digest is a stale derivative: miss, and the
        # file survives (the next store overwrites it).
        assert tc.load_vecprog("k3", "s" * 12, "f" * 12, "f" * 64) is None
        assert os.path.exists(tc._vecprog_path("k3", "s" * 12, "f" * 12))

    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    def test_inconsistent_tier_is_quarantined(self, cache_dir, refusal):
        header, arrays = tier_parts(SMALL_TIER)
        REFUSALS[refusal](header, arrays)
        blob = tc._pack_blocks(
            tc._VECPROG_MAGIC, header, arrays, tc._VECPROG_COLUMNS
        )
        with pytest.raises(ValueError, match="inconsistent"):
            tc.decode_vecprog(blob)
        path = tc._vecprog_path("k", "s" * 12, TIER["token"])
        with open(path, "wb") as fh:
            fh.write(blob)
        assert tc.load_vecprog("k", "s" * 12, TIER["token"], "t" * 64) is None
        assert not os.path.exists(path)
        assert os.listdir(os.path.join(str(cache_dir), "quarantine"))

    def test_v1_tier_never_served_and_rebuilt(self, cache_dir, monkeypatch):
        """A tier left by the v1 layout (varint ``kid``/``cls_pos``/
        ``cls_idx`` columns) is a miss: the warm group falls back to the
        trace, rebuilds the tier bit-identically and the file on disk
        becomes v2."""
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        trace = record_small(m, "v1tier")
        tc.put("v1tier", trace, spill=True)
        want = hexs(replay(trace, m))
        assert hexs(replay_sweep(trace, [m])[0]) == want
        (name,) = [n for n in os.listdir(cache_dir) if n.endswith(tc.VECPROG_SUFFIX)]
        path = os.path.join(str(cache_dir), name)
        header, cols, _inv, _gcp = tc.decode_vecprog(open(path, "rb").read())
        v1_layout = (
            ("base", "raw", "<f8"), ("kid", "delta", "<i8"),
            ("cls_pos", "delta", "<i8"), ("cls_idx", "varint", "<i8"),
            ("wh_by_cls", "raw", "<f8"), ("wm_by_cls", "raw", "<f8"),
        )
        v1_header = {k: v for k, v in header.items()
                     if k not in ("format", "columns", "sha256", "n_items")}
        with monkeypatch.context() as mp:
            mp.setitem(tc._FORMATS, tc._VECPROG_MAGIC, 1)
            blob = tc._pack_blocks(tc._VECPROG_MAGIC, v1_header, cols, v1_layout)
        with open(path, "wb") as fh:
            fh.write(blob)
        assert tc.read_pass_header(path)["format"] == 1
        from repro.machine import replay as R

        tc.clear_registry()
        R._SHARED_PASS_MEMO.clear()
        tc.reset_load_counts()
        assert replay_sweep_cached("v1tier", [m]) is None
        got = replay_sweep(tc.get("v1tier", spill=True), [m])
        assert hexs(got[0]) == want
        counts = tc.load_counts()
        assert counts["spill"] == 1
        assert counts["vecprog"] == 0  # the v1 file was never served
        assert tc.read_pass_header(path)["format"] == 2
        _h, cols2, _inv, _g = tc.decode_vecprog(open(path, "rb").read())
        assert_same_tier_dict(cols, cols2)

    def test_tier_past_u2_classes_not_stored(self, cache_dir, monkeypatch):
        """A tier with more classes than ``<u2`` ids can name is priced
        but not cached."""
        from repro.machine import replay as R

        intern = R._intern

        def wide(skel, nm):
            cols = intern(skel, nm)
            pad = 0x10000 - len(cols.cls_defs)
            cols.cls_defs = list(cols.cls_defs) + [cols.cls_defs[0]] * pad
            cols.wh_by_cls = np.append(cols.wh_by_cls, np.zeros(pad))
            cols.wm_by_cls = np.append(cols.wm_by_cls, np.zeros(pad))
            return cols

        monkeypatch.setattr(R, "_intern", wide)
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        trace = record_small(m, "wide")
        assert hexs(replay_sweep(trace, [m])[0]) == hexs(replay(trace, m))
        assert not any(n.endswith(tc.VECPROG_SUFFIX) for n in os.listdir(cache_dir))

    def test_new_point_without_tier_decodes_trace_once(self, cache_dir):
        """After a shared pass over a loaded trace, a fresh process state
        pricing an L2 with no tier finds nothing to price from without
        the trace; the sweep decodes the trace once, runs the pass, and
        stores exactly one more tier."""
        net, policy = small_net(), KernelPolicy()
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        trace, _ = tc.get_or_capture(net, m, policy, None)
        key = trace.key
        tc.clear_registry()
        loaded = tc.get(key, spill=True)
        assert hexs(replay_sweep(loaded, [m])[0]) == hexs(replay(trace, m))
        n_tiers = sum(n.endswith(tc.VECPROG_SUFFIX) for n in os.listdir(cache_dir))
        from repro.machine import replay as R

        tc.clear_registry()
        R._SHARED_PASS_MEMO.clear()
        tc.reset_load_counts()
        # A small two-way L2 conflicts: a walk tier nobody built yet.
        m2 = m.with_(l2=CacheParams(16 * 1024, 2, m.l2.line_bytes, m.l2.latency))
        assert replay_sweep_cached(key, [m2]) is None
        assert not any(tc.load_counts().values())
        res = sweep_cache_sizes(net, [16 / 1024], lambda mb: m2, use_cache=False)
        assert res.sources == ["replayed"]
        counts = tc.load_counts()
        assert counts["spill"] == 1 and counts["shm"] == 0
        assert counts["vecprog"] == 0
        assert hexs(res.stats[0]) == hexs(replay(trace, m2))
        assert sum(
            n.endswith(tc.VECPROG_SUFFIX) for n in os.listdir(cache_dir)
        ) == n_tiers + 1

    def test_decoded_trace_not_kept_after_its_pass(self, cache_dir):
        """A cold L2 sweep over a spilled trace decodes it without
        registering it (the spill still holds it) and memoizes the pass:
        the lanes sweep that follows on the same key decodes nothing."""
        from repro.machine import replay as R

        net, policy = small_net(), KernelPolicy()
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        trace, _ = tc.get_or_capture(net, m, policy, None)
        key = trace.key
        tc.clear_registry()
        R._SHARED_PASS_MEMO.clear()
        tc.reset_load_counts()
        res = sweep_cache_sizes(
            net, [1, 2],
            lambda mb: rvv_gem5(vlen_bits=512, lanes=4, l2_mb=mb), use_cache=False,
        )
        assert res.sources == ["replayed", "replayed"]
        assert tc.load_counts()["spill"] == 1
        assert key not in tc._REGISTRY
        assert any(k[0] == key for k in R._SHARED_PASS_MEMO)
        tc.reset_load_counts()
        lanes = [1, 2, 8]
        res = sweep_lanes(
            net, lanes,
            lambda n: rvv_gem5(vlen_bits=512, lanes=n, l2_mb=1), use_cache=False,
        )
        assert res.sources == ["replayed"] * 3
        counts = tc.load_counts()
        assert counts["spill"] == 0 and counts["shm"] == 0
        for n, st_ in zip(lanes, res.stats):
            assert hexs(st_) == hexs(replay(trace, rvv_gem5(vlen_bits=512, lanes=n, l2_mb=1)))


# ----------------------------------------------------------------------
# Memo keying on trace content, not just the registry key
# ----------------------------------------------------------------------
class TestMemoDigestKeying:
    def test_recaptured_trace_never_served_stale(self, cache_dir):
        """Two different event streams under one key must price as
        themselves — the memo keys on the content digest, so a
        re-captured (changed) trace cannot inherit the old pass."""
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)

        def record(net):
            rec = TraceRecorder(m)
            net._emit_trace(rec, KernelPolicy(), None, True)
            return rec.finish(key="samekey")

        net_a = small_net()
        net_b = Network(
            [ConvLayer(8, 3, 1), ConvLayer(8, 1, 1)],
            input_shape=(4, 32, 32),
            name="other",
        )
        tr_a, tr_b = record(net_a), record(net_b)
        assert tr_a.content_digest() != tr_b.content_digest()
        got_a = replay_sweep(tr_a, [m])[0]
        got_b = replay_sweep(tr_b, [m])[0]
        want_a = _run_points(*_shared_pass(tr_a, m), [m])[0]
        want_b = _run_points(*_shared_pass(tr_b, m), [m])[0]
        assert hexs(got_a) == hexs(want_a)
        assert hexs(got_b) == hexs(want_b)
        assert hexs(got_a) != hexs(got_b)


# ----------------------------------------------------------------------
# Warm figure sweeps: bitwise identity, serial and parallel
# ----------------------------------------------------------------------
VLENS = [256, 512, 1024]


def run_vl_sweep(jobs=1):
    return sweep_vector_lengths(
        small_net(), VLENS,
        lambda v: rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1),
        jobs=jobs, use_cache=False,
    )


def reset_process_state():
    from repro.machine import replay

    tc.clear_registry()
    replay._SHARED_PASS_MEMO.clear()


class TestWarmSweeps:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_vl_sweep_bitwise_spill_on(self, cache_dir, jobs):
        cold = run_vl_sweep()
        reset_process_state()
        tc.reset_load_counts()
        warm = run_vl_sweep(jobs=jobs)
        for a, b in zip(cold.stats, warm.stats):
            assert hexs(a) == hexs(b)
        if jobs == 1:
            assert warm.sources == ["replayed"] * len(VLENS)
            counts = tc.load_counts()
            assert counts["vecprog"] >= len(VLENS)
            # The whole warm sweep ran without one trace-column decode.
            assert counts["shm"] == 0 and counts["spill"] == 0

    def test_warm_vl_sweep_bitwise_spill_off(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", "0")
        reset_process_state()
        assert not tc.spill_enabled()
        cold = run_vl_sweep()
        warm = run_vl_sweep()  # in-process registry + memo only
        for a, b in zip(cold.stats, warm.stats):
            assert hexs(a) == hexs(b)
        assert not any(
            f.endswith((".rpp", tc.VECPROG_SUFFIX))
            for f in os.listdir(tmp_path)
        )
        reset_process_state()

    def test_warm_pricing_axes_decode_tiers_only(self, cache_dir):
        """A cold L2 sweep and lanes sweep on one key leave one tier per
        point; warm re-runs price every point from those tiers alone —
        no trace decode, one .rvp load per distinct tier."""
        # 1 MB walks its hot sets, 2 and 4 MB trim their ranges, 64 MB
        # never trims: four distinct tiers.
        net = yolov3_tiny()
        mbs = [1, 2, 4, 64]
        lanes = [2, 4, 8]

        def l2_sweep():
            return sweep_cache_sizes(
                net, mbs, lambda mb: rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb),
                n_layers=6, use_cache=False,
            )

        def lane_sweep():
            return sweep_lanes(
                net, lanes, lambda n: rvv_gem5(vlen_bits=1024, lanes=n, l2_mb=1),
                n_layers=6, use_cache=False,
            )

        cold = (l2_sweep(), lane_sweep())
        assert cold[0].sources == ["captured"] + ["replayed"] * (len(mbs) - 1)
        assert cold[1].sources == ["replayed"] * len(lanes)
        tiers = [n for n in os.listdir(cache_dir) if n.endswith(tc.VECPROG_SUFFIX)]
        assert len(tiers) == len(mbs)
        reset_process_state()
        tc.reset_load_counts()
        warm_l2 = l2_sweep()
        counts = tc.load_counts()
        assert counts["vecprog"] == len(tiers)
        tc.reset_load_counts()
        warm_lanes = lane_sweep()
        lane_counts = tc.load_counts()
        assert lane_counts["vecprog"] == 1  # the 1 MB point's tier
        for c in (counts, lane_counts):
            assert c["spill"] == 0 and c["shm"] == 0
        for res, warm in zip(cold, (warm_l2, warm_lanes)):
            assert warm.sources == ["replayed"] * len(res.axis)
            for a, b in zip(res.stats, warm.stats):
                assert hexs(a) == hexs(b)

    def test_cached_entry_miss_returns_none(self, cache_dir):
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        assert replay_sweep_cached("nonexistent-key", [m]) is None


# ----------------------------------------------------------------------
# CLI gc prunes tiers orphaned by a vanished trace, and foreign files
# ----------------------------------------------------------------------
class TestCliGc:
    def test_gc_prunes_orphans_keeps_live(self, cache_dir, capsys):
        from repro.cli import main

        run_vl_sweep()
        reset_process_state()
        names = os.listdir(cache_dir)
        traces = sorted(n for n in names if n.endswith(tc.SPILL_SUFFIX))
        assert len(traces) == len(VLENS)
        # Orphan one key's tiers by removing its trace.
        victim = traces[0][: -len(tc.SPILL_SUFFIX)]
        os.remove(os.path.join(str(cache_dir), traces[0]))
        assert main(["trace-cache", "gc"]) == 0
        capsys.readouterr()
        left = os.listdir(cache_dir)
        assert not any(n.startswith(victim) for n in left)
        for t in traces[1:]:
            survivor = t[: -len(tc.SPILL_SUFFIX)]
            kinds = {n.rsplit(".", 1)[1] for n in left
                     if n.startswith(survivor)}
            assert kinds == {"rtz", "rvp"}
        # The survivors still serve a warm sweep, bitwise.
        warm = run_vl_sweep()
        assert warm.sources.count("replayed") >= len(VLENS) - 1

    def test_verify_decodes_v2_tiers(self, cache_dir, capsys):
        from repro.cli import main

        run_vl_sweep()
        capsys.readouterr()
        assert main(["trace-cache", "verify", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["files"]
        tiers = [r for r in rows if r["kind"] == "vecprog"]
        assert len(tiers) == len(VLENS)
        for r in rows:
            assert r["status"] == "ok" and r["digest"] == "verified", r
        assert {r["v"] for r in tiers} == {tc.VECPROG_FORMAT_VERSION} == {2}

    def test_leftover_rpp_is_foreign_and_collected(self, cache_dir, capsys):
        """A shared-pass file (``.rpp``) left by a version that persisted
        them is neither a tier nor corrupt: it lists as a stale foreign
        file, ``verify`` passes, and ``gc`` deletes it."""
        from repro.cli import main

        run_vl_sweep()
        trace = sorted(n for n in os.listdir(cache_dir) if n.endswith(tc.SPILL_SUFFIX))[0]
        key = trace[: -len(tc.SPILL_SUFFIX)]
        header = json.dumps({"format": 2, "kind": "pass", "key": key}).encode()
        leftover = f"{key}.{'s' * 12}.rpp"
        with open(os.path.join(str(cache_dir), leftover), "wb") as fh:
            fh.write(b"RPSS\x02" + len(header).to_bytes(4, "little") + header)
        capsys.readouterr()
        for action in ("list", "verify"):
            assert main(["trace-cache", action, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            rows = {r["file"]: r for r in doc["files"]}
            assert doc["summary"]["corrupt"] == 0
            assert rows[leftover]["kind"] == "foreign"
            assert rows[leftover]["status"] == "stale"
            assert rows[trace]["tiers"] == 1  # its own .rvp, not the .rpp
        assert main(["trace-cache", "gc", "--json"]) == 0
        rows = {r["file"]: r for r in json.loads(capsys.readouterr().out)["files"]}
        assert rows[leftover]["status"] == "removed"
        assert not os.path.exists(os.path.join(str(cache_dir), leftover))
        assert rows[trace]["status"] == "ok"
