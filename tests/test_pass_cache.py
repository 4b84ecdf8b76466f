"""Persistent compiled-pass cache: exact codecs, staleness, warm sweeps.

The ``.rpp`` (shared pass) and ``.rvp`` (compiled point-pass tier)
containers exist so a warm re-run of a figure sweep skips the event
walk entirely.  Correctness is the same bitwise bar as the rest of the
replay engine: everything that crosses the wire must round-trip
type-exactly (``float.hex`` equal, ints as ints, bools as bools), a
digest mismatch must read as a miss (never a wrong answer), corruption
must quarantine, and a warm sweep must price bitwise identically to
its cold capture run — serial and parallel, spill on or off.
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
    _Skeleton,
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


#: Skeleton columns held as NumPy arrays (derived ones included).
ARRAYS = (
    "base", "kid", "cls_pos", "t6_at", "t6_cls", "ev_at", "ev_key",
    "ev_scalar", "ev_off", "addrs", "lines", "ft_pos",
)


def assert_same_skeleton(a, b):
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.labels == b.labels
    for name in ("ev_defs", "t6_defs", "side"):
        x, y = getattr(a, name), getattr(b, name)
        assert len(x) == len(y), name
        assert all(eq_item(tuple(p), tuple(q)) for p, q in zip(x, y)), name


def build_skeleton(items, side=(), labels=("k",), ev_defs=(), t6_defs=()):
    """A :class:`_Skeleton` from item specs ``(kid, x)``.

    *x* is a pre-priced float, ``("ev", key, addrs)`` (an L2 event) or
    ``("t6", cls)`` (a VPU-priced item).
    """
    base, kid, cls_pos, t6_at, t6_cls, ev_at, ev_key, addrs = ([] for _ in range(8))
    ev_off = [0]
    for k, x in items:
        kid.append(k)
        if type(x) is float:
            base.append(x)
            continue
        if x[0] == "ev":
            ev_at.append(len(cls_pos))
            ev_key.append(x[1])
            addrs.extend(x[2])
            ev_off.append(len(addrs))
        else:
            t6_at.append(len(cls_pos))
            t6_cls.append(x[1])
        cls_pos.append(len(base))
        base.append(0.0)

    def i64(v):
        return np.asarray(v, dtype=np.int64)

    return _Skeleton(
        6,
        base=np.asarray(base, dtype=np.float64),
        kid=i64(kid),
        labels=list(labels),
        cls_pos=i64(cls_pos),
        t6_at=i64(t6_at),
        t6_cls=i64(t6_cls),
        t6_defs=list(t6_defs),
        ev_at=i64(ev_at),
        ev_key=i64(ev_key),
        ev_defs=list(ev_defs),
        ev_off=i64(ev_off),
        addrs=i64(addrs),
        side=list(side),
    )


# ----------------------------------------------------------------------
# Property-based codec round-trip over generated skeletons
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
side_item = st.one_of(
    st.tuples(st.just(2), posint, posint),  # residency range
    st.tuples(st.just(5), st.lists(posint, max_size=6).map(tuple)),  # fills
)


@st.composite
def skeletons(draw):
    labels = draw(st.lists(st.text(max_size=6), min_size=1, max_size=3, unique=True))
    ev_defs = draw(st.lists(ev_def, min_size=1, max_size=4))
    t6_defs = draw(st.lists(t6_def, min_size=1, max_size=4))
    item = st.one_of(
        finite,
        st.tuples(
            st.just("ev"),
            st.integers(0, len(ev_defs) - 1),
            st.lists(posint, max_size=4),
        ),
        st.tuples(st.just("t6"), st.integers(0, len(t6_defs) - 1)),
    )
    items = draw(
        st.lists(st.tuples(st.integers(0, len(labels) - 1), item), max_size=30)
    )
    n_addrs = sum(len(x[2]) for _, x in items if type(x) is tuple and x[0] == "ev")
    pos = sorted(draw(st.lists(st.integers(0, n_addrs), max_size=4)))
    side = [(p, draw(side_item)) for p in pos]
    return build_skeleton(items, side, labels, ev_defs, t6_defs)


CLASSES = [
    ("a", 64, 2, 4),
    ("b", 3),
    ("m", 12, 0.5, 256, 4, True, False),
    ("m", 40, 1.25, 64, 1, False, True),
]


def make_gc():
    return {
        "vpu": None,
        "port_l1": True,
        "l1_lat": 4,
        "ooo_hide": 0.5,
        "scalar_cpi": 1.0,
        "l2_shift": 6,
        "max_range_total": 1 << 20,
        "has_fills": False,
        "pf2_cfg": False,
        "classes": list(CLASSES),
    }


def encode(skel):
    return tc.encode_pass(
        skel, {"flops": 1.0}, make_gc(), key="k", sig="s" * 12,
        trace_sha256="t" * 64, compat=COMPAT,
    )


class TestCodecRoundTrip:
    @given(skeletons())
    @settings(max_examples=60, deadline=None)
    def test_pass_roundtrip_any_program(self, skel):
        gc = make_gc()
        inv = {f: float(i) * 1.5 for i, f in enumerate(_INVARIANT_FIELDS)}
        blob = tc.encode_pass(
            skel, inv, gc, key="k", sig="s" * 12,
            trace_sha256="t" * 64, compat=COMPAT,
        )
        header, skel2, inv2, gc2 = tc.decode_pass(blob)
        assert_same_skeleton(skel, skel2)
        for f in _INVARIANT_FIELDS:
            assert inv[f].hex() == inv2[f].hex()
        assert gc2["vpu"] is None
        assert "distinct" not in gc2 and "defer" not in header
        for k in gc.keys() - {"vpu", "classes"}:
            assert eq_item(gc[k], gc2[k]), k
        for a, b in zip(gc["classes"], gc2["classes"]):
            assert eq_item(a, b)
        assert header["trace_sha256"] == "t" * 64
        assert header["compat"] == COMPAT

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="tag"):
            encode(build_skeleton([], side=[(0, (9, 1.0))]))

    def test_non_integral_operand_raises(self):
        # A half-integer byte count must refuse to encode, not silently
        # truncate through an int64 column.
        with pytest.raises(ValueError):
            encode(build_skeleton([], side=[(0, (2, 100, 2.5))]))

    def test_inconsistent_columns_refused(self):
        # Digest-valid but unusable: a label id with no label.
        blob = encode(build_skeleton([(0, 1.0), (1, 2.0)]))
        with pytest.raises(ValueError, match="inconsistent"):
            tc.decode_pass(blob)

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda b: b"XXXX" + b[4:], id="bad-magic"),
        pytest.param(lambda b: b[:-3], id="truncated"),
        pytest.param(lambda b: b + b"\0\0", id="trailing"),
        pytest.param(
            lambda b: b[:-5] + bytes([b[-5] ^ 0xFF]) + b[-4:], id="bitflip"
        ),
    ])
    def test_corruption_raises(self, mutate):
        skel = build_skeleton(
            [(0, 1.0), (0, ("ev", 0, [64, 128])), (0, ("t6", 0))],
            side=[(0, (2, 64, 128)), (2, (5, (1, 2, 3)))],
            ev_defs=[(4, 1.0, 4, 0.5, False)], t6_defs=[(6, 2.0, 1)],
        )
        blob = encode(skel)
        with pytest.raises(ValueError):
            tc.decode_pass(mutate(blob))


# ----------------------------------------------------------------------
# .rvp v2: label runs, class-item bitmap, <u2 class ids
# ----------------------------------------------------------------------
cls_def = st.one_of(
    st.builds(lambda d, h, m: d + (h, m), ev_def, small, small), t6_def
)


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
        "kid": np.asarray(kid, np.int64),
        "labels": labels,
        "cls_pos": np.flatnonzero(np.asarray(is_cls, dtype=bool)),
        "cls_idx": np.asarray(draw(st.lists(idx, min_size=n_cls, max_size=n_cls)), np.int64),
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
    "base": np.zeros(0), "kid": np.zeros(0, np.int64), "labels": ["k"],
    "cls_pos": np.zeros(0, np.int64), "cls_idx": np.zeros(0, np.int64),
    "cls_defs": [(6, 1.0, 0)], "wh_by_cls": np.zeros(1), "wm_by_cls": np.zeros(1),
    "max_nm": 0,
}

#: Three label runs over nine items, class items at 1, 2, 5 and 8.
SMALL_TIER = dict(
    EMPTY_TIER,
    base=np.arange(9, dtype=np.float64),
    kid=np.array([0, 0, 1, 1, 1, 0, 0, 0, 0], np.int64),
    labels=["a", "b"],
    cls_pos=np.array([1, 2, 5, 8], np.int64),
    cls_idx=np.array([0, 1, 1, 0], np.int64),
    cls_defs=[(6, 1.0, 0), (4, 2.0, 7, 0.5, False, 1, 0)],
    wh_by_cls=np.array([0.0, 2.0]),
    wm_by_cls=np.array([0.0, 0.0]),
)


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
    monkeypatch.setenv("REPRO_PASS_CACHE", "1")
    tc.clear_registry()
    from repro.machine import replay

    replay._SHARED_PASS_MEMO.clear()
    yield tmp_path
    tc.clear_registry()
    replay._SHARED_PASS_MEMO.clear()


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
    def test_roundtrip_and_digest_staleness(self, cache_dir):
        m, trace, skel, inv_fields, gc = shared_pass_fixture()
        digest = trace.content_digest()
        assert tc.store_pass(
            skel, inv_fields, gc, key="k1", sig="s" * 12,
            trace_sha256=digest, compat=COMPAT,
        )
        out = tc.load_pass("k1", "s" * 12, digest)
        assert out is not None
        _, skel2, inv2, gc2 = out
        assert_same_skeleton(skel, skel2)
        for f in _INVARIANT_FIELDS:
            assert inv_fields[f].hex() == inv2[f].hex()
        # A different trace digest is a stale derivative: miss, and the
        # file survives (the next store overwrites it).
        assert tc.load_pass("k1", "s" * 12, "f" * 64) is None
        assert os.path.exists(tc._pass_path("k1", "s" * 12))

    def test_corrupt_pass_is_quarantined(self, cache_dir):
        m, trace, skel, inv_fields, gc = shared_pass_fixture()
        digest = trace.content_digest()
        tc.store_pass(
            skel, inv_fields, gc, key="k2", sig="s" * 12,
            trace_sha256=digest, compat=COMPAT,
        )
        path = tc._pass_path("k2", "s" * 12)
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert tc.load_pass("k2", "s" * 12, digest) is None
        assert not os.path.exists(path)  # moved aside, never served twice
        qdir = os.path.join(str(cache_dir), "quarantine")
        assert os.path.isdir(qdir) and os.listdir(qdir)

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
        assert (cols2["base"] == cols.base).all()
        assert cols2["labels"] == cols.labels
        for a, b in zip(cols.cls_defs, cols2["cls_defs"]):
            assert eq_item(a, b)
        assert {"l1_lat", "ooo_hide", "scalar_cpi", "classes"} <= set(gcp)
        assert tc.load_vecprog("k3", "s" * 12, "f" * 12, "f" * 64) is None

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
        ``cls_idx`` columns) is a miss: the warm group rebuilds it
        bit-identically and the file on disk becomes v2."""
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
        got = replay_sweep_cached("v1tier", [m])
        assert got is not None and hexs(got[0]) == want
        assert tc.load_counts()["vecprog"] == 0  # the v1 file was never served
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
        names = os.listdir(cache_dir)
        assert any(n.endswith(tc.PASS_SUFFIX) for n in names)
        assert not any(n.endswith(tc.VECPROG_SUFFIX) for n in names)

    def test_cached_sweep_prices_new_point_from_one_rpp(self, cache_dir):
        """A shared pass over a loaded trace stores its skeleton; a new
        process state pricing an L2 with no tier loads that one ``.rpp``
        and nothing else, and prices exactly like ``replay()``."""
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        trace = record_small(m, "rppload")
        tc.put("rppload", trace, spill=True)
        tc.clear_registry()
        loaded = tc.get("rppload", spill=True)
        assert hexs(replay_sweep(loaded, [m])[0]) == hexs(replay(trace, m))
        assert [n for n in os.listdir(cache_dir) if n.endswith(tc.PASS_SUFFIX)]
        n_tiers = sum(n.endswith(tc.VECPROG_SUFFIX) for n in os.listdir(cache_dir))
        from repro.machine import replay as R

        tc.clear_registry()
        R._SHARED_PASS_MEMO.clear()
        tc.reset_load_counts()
        # A small two-way L2 conflicts: a walk tier nobody built yet.
        m2 = m.with_(l2=CacheParams(16 * 1024, 2, m.l2.line_bytes, m.l2.latency))
        got = replay_sweep_cached("rppload", [m2])
        assert got is not None
        counts = tc.load_counts()
        assert counts["pass_spill"] == 1 and counts["pass_shm"] == 0
        assert counts["spill"] == 0 and counts["shm"] == 0  # no trace decode
        assert counts["vecprog"] == 0
        assert hexs(got[0]) == hexs(replay(trace, m2))
        assert sum(
            n.endswith(tc.VECPROG_SUFFIX) for n in os.listdir(cache_dir)
        ) == n_tiers + 1


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
            hits = (counts["vecprog"] + counts["pass_spill"]
                    + counts["pass_shm"])
            assert hits >= len(VLENS)
            # The whole warm sweep ran without one trace-column decode.
            assert counts["shm"] == 0 and counts["spill"] == 0

    def test_warm_vl_sweep_bitwise_spill_off(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", "0")
        monkeypatch.delenv("REPRO_PASS_CACHE", raising=False)
        reset_process_state()
        assert not tc.pass_cache_enabled()  # defaults to spill_enabled()
        cold = run_vl_sweep()
        warm = run_vl_sweep()  # in-process registry + memo only
        for a, b in zip(cold.stats, warm.stats):
            assert hexs(a) == hexs(b)
        assert not any(
            f.endswith((tc.PASS_SUFFIX, tc.VECPROG_SUFFIX))
            for f in os.listdir(tmp_path)
        )
        reset_process_state()

    def test_warm_pricing_axes_decode_tiers_only(self, cache_dir):
        """A cold L2 sweep and lanes sweep on one key leave one tier per
        point; warm re-runs price every point from those tiers alone —
        no trace decode, no .rpp, one .rvp load per distinct tier."""
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
        names = os.listdir(cache_dir)
        assert not any(n.endswith(tc.PASS_SUFFIX) for n in names)
        tiers = [n for n in names if n.endswith(tc.VECPROG_SUFFIX)]
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
            assert c["pass_spill"] == 0 and c["pass_shm"] == 0
        for res, warm in zip(cold, (warm_l2, warm_lanes)):
            assert warm.sources == ["replayed"] * len(res.axis)
            for a, b in zip(res.stats, warm.stats):
                assert hexs(a) == hexs(b)

    def test_cached_entry_miss_returns_none(self, cache_dir):
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        assert replay_sweep_cached("nonexistent-key", [m]) is None


# ----------------------------------------------------------------------
# CLI gc prunes compiled passes orphaned by a vanished trace
# ----------------------------------------------------------------------
class TestCliGc:
    def test_gc_prunes_orphans_keeps_live(self, cache_dir, capsys):
        from repro.cli import main

        run_vl_sweep()
        reset_process_state()
        names = os.listdir(cache_dir)
        traces = sorted(n for n in names if n.endswith(tc.SPILL_SUFFIX))
        assert len(traces) == len(VLENS)
        # A fused capture leaves its trace and one tier per point, no .rpp.
        assert not any(n.endswith(tc.PASS_SUFFIX) for n in names)
        # Orphan one key's compiled passes by removing its trace.
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
