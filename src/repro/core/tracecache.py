"""Registry for recorded kernel traces (capture-once / replay-many).

The macro-event stream a network's kernels emit is a pure function of
(layer structure, :class:`KernelPolicy`, layer limit / dedup settings)
plus the *VL-relevant* machine fields the kernels actually read: the ISA
name, the vector length, and the L1 line size (which sets burst and
unroll granularity in the GEMM micro-kernels).  Everything else — L2
geometry, lane count, latencies, prefetchers — only affects *pricing*,
not the event stream.  A one-axis co-design sweep along any of those
axes therefore re-emits the exact same trace at every design point.

This module keys traces by a content hash of exactly those inputs and
holds them in a small in-process registry, with two cross-process
tiers:

* an **on-disk spill** (compressed ``.rtz`` next to ``.simcache/``) so
  traces survive the process and can be committed as CI references, and
* a **shared-memory segment** per published trace
  (:func:`publish_shm`), so spawn-platform pool workers attach and
  decode the parent's capture once instead of re-reading the spill
  file from disk on every task.

The ``.rtz`` container (trace format v4) is a magic + JSON header +
per-column compressed blocks.  The address/size operand columns are
delta + zigzag + varint encoded before block compression (zlib, or
zstd when the ``zstandard`` package is importable) — trace addresses
are bump-allocated and overwhelmingly sequential, so deltas are tiny
and a multi-hundred-MB column set shrinks to a few MB.  Decoding
recomputes the sha256 content digest and refuses (→ quarantine, see
repro.core.resilience) on any mismatch.

Resolution of the ``use_trace`` tri-state (mirrors simcache):
explicit ``True``/``False`` wins; otherwise ``REPRO_TRACE`` ("0"/"off"
disable, "1"/"on" enable); otherwise the caller's *default* — ``True``
for multi-point sweeps, ``False`` for single simulations (capturing a
trace costs about a tenth of pricing it, so it only pays off when the
trace is replayed more than once).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..machine.trace import TRACE_FORMAT_VERSION, RecordedTrace
from ..testing import faults
from . import knobs
from .resilience import atomic_replace, quarantine
from .simcache import _canon, cache_dir

try:  # optional: the container may not ship zstandard
    import zstandard as _zstd  # type: ignore
except ImportError:  # pragma: no cover - environment-dependent
    _zstd = None

__all__ = [
    "trace_enabled",
    "spill_enabled",
    "verify_enabled",
    "spill_dir",
    "trace_key",
    "get",
    "put",
    "get_or_capture",
    "clear_registry",
    "encode_trace",
    "decode_trace",
    "save_compressed",
    "load_compressed",
    "read_header",
    "publish_shm",
    "release_shm",
    "load_counts",
    "reset_load_counts",
    "SPILL_SUFFIX",
    "VECPROG_SUFFIX",
    "encode_vecprog",
    "decode_vecprog",
    "store_vecprog",
    "load_vecprog",
    "read_vecprog_header",
    "read_pass_header",
    "split_cache_filename",
]

_ENV_FLAG = "REPRO_TRACE"
_ENV_SPILL = "REPRO_TRACE_SPILL"
_ENV_DIR = "REPRO_TRACE_DIR"
_ENV_VERIFY = "REPRO_TRACE_VERIFY"
#: When set to a writable path, every cross-process trace load (shm
#: attach or spill read) appends one ``"<pid> <source> <key>"`` line —
#: the observability hook the single-load-per-worker test asserts on.
_ENV_LOAD_LOG = "REPRO_TRACE_LOAD_LOG"

#: In-process registry: key -> RecordedTrace.  Bounded — a 20-layer
#: YOLOv3 trace is ~1.4M events (~60 MB columnar, more once decoded), so
#: only the most recently used few stay resident.
_REGISTRY: dict = {}
_REGISTRY_CAP = 4

#: Spill file suffix for the v4 compressed container.
SPILL_SUFFIX = ".rtz"
_MAGIC = b"RTRC"

#: Compiled point-pass tier container (``<key>.<sig>.<tier>.rvp``): the
#: one artifact derived from an ``.rtz`` trace.  It carries the trace's
#: content digest, so it can never outlive a re-captured trace.  Format
#: v2: label runs, a class-item bitmap and ``<u2`` class indices.
VECPROG_SUFFIX = ".rvp"
VECPROG_FORMAT_VERSION = 2
_VECPROG_MAGIC = b"RVPC"
_FORMATS = {_VECPROG_MAGIC: VECPROG_FORMAT_VERSION}


def trace_enabled(flag: Optional[bool] = None, default: bool = False) -> bool:
    """Resolve the ``use_trace`` tri-state (see module docstring)."""
    if flag is not None:
        return flag
    env = knobs.get_tristate(_ENV_FLAG)
    if env is not None:
        return env
    return default


def spill_enabled(flag: Optional[bool] = None) -> bool:
    """Whether traces spill to disk (``REPRO_TRACE_SPILL``; default off)."""
    if flag is not None:
        return flag
    return knobs.get_bool(_ENV_SPILL)


def spill_dir() -> str:
    """Directory for spilled traces (next to the simcache by default)."""
    return knobs.get_str(_ENV_DIR) or str(Path(cache_dir()) / "traces")


def trace_key(net, machine, policy, n_layers, deduplicate: bool = True) -> str:
    """Content hash of everything the *event stream* depends on.

    Deliberately excludes L2 size/assoc/latency, lane count, DRAM
    parameters, prefetchers — kernels never read those, so traces are
    shared across such sweep axes.  Includes the trace format version so
    stale spill files are never reused after an encoding change.
    """
    payload = {
        "trace_format": TRACE_FORMAT_VERSION,
        "net": {
            "name": net.name,
            "input_shape": list(net.input_shape),
            "layers": [repr(layer) for layer in net.layers],
        },
        "policy": _canon(policy),
        "n_layers": n_layers,
        "deduplicate": deduplicate,
        "machine": {
            "isa_name": machine.isa_name,
            "vlen_bits": machine.vlen_bits,
            "l1_line_bytes": machine.l1.line_bytes,
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _spill_path(key: str) -> str:
    return str(Path(spill_dir()) / (key + SPILL_SUFFIX))


def verify_enabled() -> bool:
    """Whether spill-loaded traces are run through the static verifier.

    ``REPRO_TRACE_VERIFY=1`` guards against corrupted or hand-edited
    spill files poisoning a sweep: a trace that fails
    :func:`repro.analysis.verify_trace` is treated as a cache miss (and
    re-captured), never replayed.  Off by default — in-process traces
    are trusted, and the verifier costs a few ms per load.
    """
    return knobs.get_bool(_ENV_VERIFY)


# ----------------------------------------------------------------------
# v4 compressed container (.rtz)
# ----------------------------------------------------------------------
def _compress(blob: bytes) -> Tuple[str, bytes]:
    if _zstd is not None:
        return "zstd", _zstd.ZstdCompressor(level=19).compress(blob)
    return "zlib", zlib.compress(blob, 9)


def _compress_fast(blob: bytes) -> Tuple[str, bytes]:
    """Low-effort codec for hot-path writes (spills, compiled tiers).

    The archive codec above costs seconds per sweep-sized trace; cache
    artifacts are rewritten often and read back through the same
    codec-tagged :func:`_decompress`, so they take the cheap setting.
    Committed reference traces keep the archive codec.
    """
    if _zstd is not None:
        return "zstd", _zstd.ZstdCompressor(level=3).compress(blob)
    return "zlib", zlib.compress(blob, 1)


def _decompress(codec: str, blob: bytes) -> bytes:
    # Corruption inside a compressed block surfaces as zlib.error /
    # ZstdError; normalise to ValueError so every loader's
    # quarantine-on-ValueError path catches it.
    if codec == "zlib":
        try:
            return zlib.decompress(blob)
        except zlib.error as exc:
            raise ValueError(f"corrupt zlib block: {exc}") from exc
    if codec == "zstd":
        if _zstd is None:
            raise ValueError(
                "trace block compressed with zstd but zstandard is not "
                "installed; re-capture or re-encode with zlib"
            )
        try:
            return _zstd.ZstdDecompressor().decompress(blob)
        except Exception as exc:
            raise ValueError(f"corrupt zstd block: {exc}") from exc
    raise ValueError(f"unknown trace block codec {codec!r}")


def _varint_encode(u: np.ndarray) -> bytes:
    """LEB128-style varint encoding of a uint64 array, vectorized.

    Each value becomes 1-10 bytes of 7-bit groups, LSB first, high bit
    set on every byte but the last.  Pure column arithmetic: byte
    counts come from threshold comparisons, output offsets from a
    cumulative sum, and the bytes themselves from at most ten masked
    scatter passes.
    """
    n = len(u)
    if n == 0:
        return b""
    nb = np.ones(n, np.int64)
    for k in range(1, 10):  # 7*9 = 63 bits: the widest uint64 shift
        nb += (u >= (np.uint64(1) << np.uint64(7 * k))).astype(np.int64)
    offs = np.zeros(n + 1, np.int64)
    np.cumsum(nb, out=offs[1:])
    out = np.zeros(int(offs[-1]), np.uint8)
    rem = u.copy()
    starts = offs[:-1]
    for j in range(int(nb.max())):
        mask = nb > j
        vals = (rem[mask] & np.uint64(0x7F)).astype(np.uint8)
        cont = (nb[mask] > j + 1).astype(np.uint8) << np.uint8(7)
        out[starts[mask] + j] = vals | cont
        rem >>= np.uint64(7)
    return out.tobytes()


#: Encoded bytes per step of :func:`_varint_decode` (and values per
#: step of :func:`_delta_decode`).
_VARINT_STEP = 1 << 16


def _varint_decode(buf: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`_varint_encode`; returns *n* uint64 values.

    The stream is decoded in steps of about ``_VARINT_STEP`` bytes, each
    ending on a value's last byte, and within a step one byte position
    of its values at a time, read from the uint8 view: the output is
    the only array as long as the stream.
    """
    b = np.frombuffer(buf, np.uint8)
    if n == 0:
        if len(b):
            raise ValueError("varint stream: trailing bytes")
        return np.zeros(0, np.uint64)
    if np.count_nonzero(b < 0x80) != n or b[-1] >= 0x80:
        raise ValueError("varint stream: value count mismatch")
    out = np.empty(n, np.uint64)
    pos = done = 0
    while pos < len(b):
        end = min(pos + _VARINT_STEP, len(b))
        # Stretch the step to the end of the value it cuts.
        tail = np.flatnonzero(b[end - 1:end + 10] < 0x80)
        if not len(tail):
            raise ValueError("varint stream: value wider than 64 bits")
        end += int(tail[0])
        step = b[pos:end]
        last = np.flatnonzero(step < 0x80)
        first = np.empty_like(last)
        first[0] = 0
        first[1:] = last[:-1] + 1
        width = last - first + 1
        if int(width.max()) > 10:
            raise ValueError("varint stream: value wider than 64 bits")
        vals = out[done:done + len(last)]
        vals[:] = step[first] & 0x7F
        for j in range(1, int(width.max())):
            at = np.flatnonzero(width > j)
            byte = (step[first[at] + j] & np.uint8(0x7F)).astype(np.uint64)
            vals[at] |= byte << np.uint64(7 * j)
        done += len(last)
        pos = end
    return out


def _zigzag(v: np.ndarray) -> np.ndarray:
    """Map int64 to uint64 so small magnitudes stay small: 0,-1,1,-2…"""
    return ((v << 1) ^ (v >> 63)).view(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    x = (u >> np.uint64(1)).view(np.int64)
    return x ^ -((u & np.uint64(1)).view(np.int64))


def _delta_encode(col: np.ndarray) -> bytes:
    d = np.diff(col.astype(np.int64, copy=False), prepend=np.int64(0))
    return _varint_encode(_zigzag(d))


def _delta_decode(buf: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`_delta_encode`, in place over the decoded values."""
    out = _varint_decode(buf, n).view(np.int64)
    for lo in range(0, n, _VARINT_STEP):
        part = out[lo:lo + _VARINT_STEP]
        part[:] = _unzigzag(part.view(np.uint64))
    return np.cumsum(out, out=out)


#: Per-column (filter, little-endian wire dtype).  The integer operand
#: columns i0..i3 carry addresses and sizes — monotone-ish, tiny
#: deltas — so they delta+zigzag+varint before block compression;
#: the rest compress raw.
_COLUMN_WIRE = {
    "op": ("raw", "<u1"),
    "w": ("raw", "<f8"),
    "kid": ("raw", "<u4"),
    "i0": ("delta", "<i8"),
    "i1": ("delta", "<i8"),
    "i2": ("delta", "<i8"),
    "i3": ("delta", "<i8"),
    "f0": ("raw", "<f8"),
}


def encode_trace(trace: RecordedTrace, level: str = "archive") -> bytes:
    """Serialize *trace* into the v4 ``.rtz`` container (bytes).

    ``level="fast"`` swaps in the low-effort block codec — the right
    choice for sweep spills, where encode time is on the cold path and
    the file is a local cache artifact, not a committed reference.
    """
    compress = _compress_fast if level == "fast" else _compress
    cols = {name: getattr(trace, name) for name, _ in RecordedTrace._COLUMNS}
    n = trace.n_events
    blocks: List[bytes] = []
    col_meta = []
    for name, _ in RecordedTrace._COLUMNS:
        filt, wire = _COLUMN_WIRE[name]
        arr = np.ascontiguousarray(cols[name]).astype(wire, copy=False)
        raw = _delta_encode(arr) if filt == "delta" else arr.tobytes()
        codec, blob = compress(raw)
        blocks.append(blob)
        col_meta.append(
            {"name": name, "filter": filt, "codec": codec, "nbytes": len(blob)}
        )
    header = json.dumps(
        {
            "key": trace.key,
            "isa_name": trace.isa_name,
            "vlen_bits": trace.vlen_bits,
            "l1_line_bytes": trace.l1_line_bytes,
            "format": TRACE_FORMAT_VERSION,
            "labels": list(trace.labels),
            "buffers": [list(b) for b in trace.buffers],
            "meta": trace.meta,
            "n_events": n,
            "columns": col_meta,
            "sha256": trace.content_digest(),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    parts = [_MAGIC, bytes([TRACE_FORMAT_VERSION]),
             len(header).to_bytes(4, "little"), header]
    parts.extend(blocks)
    return b"".join(parts)


def decode_trace(blob: bytes) -> RecordedTrace:
    """Inverse of :func:`encode_trace`; digest-verified.

    Raises :class:`ValueError` on a stale format, malformed container,
    or content-digest mismatch — callers treat any failure as a cache
    miss and quarantine the source file.
    """
    if blob[:4] != _MAGIC:
        raise ValueError("not an .rtz trace container (bad magic)")
    if blob[4] != TRACE_FORMAT_VERSION:
        raise ValueError(
            f"trace format {blob[4]} != {TRACE_FORMAT_VERSION} "
            "(stale spill file)"
        )
    hlen = int.from_bytes(blob[5:9], "little")
    header = json.loads(blob[9:9 + hlen].decode("utf-8"))
    n = int(header["n_events"])
    pos = 9 + hlen
    cols = {}
    for meta in header["columns"]:
        name = meta["name"]
        filt, wire = _COLUMN_WIRE[name]
        if meta["filter"] != filt:
            raise ValueError(f"unexpected filter for column {name!r}")
        block = blob[pos:pos + int(meta["nbytes"])]
        if len(block) != int(meta["nbytes"]):
            raise ValueError("truncated trace container")
        pos += len(block)
        raw = _decompress(meta["codec"], block)
        if filt == "delta":
            arr = _delta_decode(raw, n)
        else:
            arr = np.frombuffer(raw, wire)
            if len(arr) != n:
                raise ValueError(f"column {name!r}: row count mismatch")
        dtype = dict(RecordedTrace._COLUMNS)[name]
        cols[name] = np.ascontiguousarray(arr).astype(dtype, copy=False)
    if pos != len(blob):
        raise ValueError("trailing bytes after trace columns")
    labels = [str(s) for s in header["labels"]]
    buffers = header.get("buffers", ())
    ordered = tuple(cols[name] for name, _ in RecordedTrace._COLUMNS)
    digest = RecordedTrace._content_digest(ordered, labels, buffers)
    if header.get("sha256") != digest:
        raise ValueError("trace content digest mismatch (corrupt container)")
    trace = RecordedTrace(
        header.get("key"),
        header["isa_name"],
        header["vlen_bits"],
        header["l1_line_bytes"],
        labels,
        *ordered,
        meta=header.get("meta"),
        buffers=buffers,
    )
    trace._digest = digest  # verified above: never re-hashed
    return trace


def save_compressed(
    trace: RecordedTrace, path: str, level: str = "archive"
) -> None:
    """Write *trace* to *path* in the v4 ``.rtz`` container format.

    The write is atomic (temp file + rename in the target directory),
    so a reader — or a crash — can never observe a torn container.
    """
    blob = encode_trace(trace, level=level)

    def write(tmp: str) -> None:
        Path(tmp).write_bytes(blob)
        faults.maybe_fault("tracecache.write", key=trace.key, path=tmp)

    atomic_replace(path, write, suffix=SPILL_SUFFIX)


def load_compressed(path: str) -> RecordedTrace:
    """Load a v4 ``.rtz`` trace; raises on corruption or stale format."""
    return decode_trace(Path(path).read_bytes())


def read_header(path: str) -> dict:
    """Parse just the JSON header of an ``.rtz`` container.

    Cheap (no column decode, no digest check) — the inspection hook for
    ``repro trace-cache list`` and the CI smoke job's key-drift guard.
    The returned dict carries ``format``; compare it against
    :data:`~repro.machine.trace.TRACE_FORMAT_VERSION` for staleness.
    """
    with Path(path).open("rb") as fh:
        head = fh.read(9)
        if head[:4] != _MAGIC:
            raise ValueError("not an .rtz trace container (bad magic)")
        hlen = int.from_bytes(head[5:9], "little")
        return json.loads(fh.read(hlen).decode("utf-8"))


# ----------------------------------------------------------------------
# Compiled point-pass tiers (.rvp)
# ----------------------------------------------------------------------
# A compiled point-pass tier (``_VecProgram`` columns) holds the
# resolved L2 walk of one shared pass on one L2, so a warm group whose
# points all have a tier decodes nothing else and prices each point
# with column arithmetic.  The shared pass itself is never persisted:
# it lives in the in-process memo, and a warm group with a point that
# has no tier decodes the trace and runs the pass again.
#
# The container mirrors the ``.rtz`` layout: magic + version + JSON
# header + per-column compressed blocks, with two sha256 digests — the
# source trace's (staleness) and the payload's own (corruption).  Any
# decode failure quarantines the file and reports a miss; a digest
# mismatch against a re-captured trace is a silent miss (the next
# store overwrites the stale file).

#: Wire layout of a compiled tier: ``base`` raw; the per-item label ids
#: as runs (``kid_at`` run starts, ``kid_run`` label per run); the
#: class-item positions as a bitmap over the items (``np.packbits``);
#: each class item's class as ``<u2``; the class hit/miss weights raw.
_VECPROG_COLUMNS = (
    ("base", "raw", "<f8"),
    ("kid_at", "delta", "<i8"),
    ("kid_run", "varint", "<i8"),
    ("cls_bits", "raw", "<u1"),
    ("cls_idx", "raw", "<u2"),
    ("wh_by_cls", "raw", "<f8"),
    ("wm_by_cls", "raw", "<f8"),
)


def _vecprog_path(key: str, sig: str, tier: str) -> str:
    return str(Path(spill_dir()) / f"{key}.{sig}.{tier}{VECPROG_SUFFIX}")


def _encode_col(filt: str, wire: str, arr: np.ndarray) -> bytes:
    if filt == "delta":
        return _delta_encode(arr)
    if filt == "varint":
        if len(arr) and int(arr.min()) < 0:
            raise ValueError("negative value in a varint pass column")
        return _varint_encode(arr.astype(np.uint64, copy=False))
    return np.ascontiguousarray(arr).astype(wire, copy=False).tobytes()


def _decode_col(filt: str, wire: str, raw: bytes, n: int) -> np.ndarray:
    if filt == "delta":
        arr = _delta_decode(raw, n)
    elif filt == "varint":
        arr = _varint_decode(raw, n).astype(np.int64)
    else:
        arr = np.frombuffer(raw, wire)
    if len(arr) != n:
        raise ValueError("pass column: row count mismatch")
    return arr


def _tuples_to_lists(seq) -> list:
    return [list(t) for t in seq]


def _lists_to_tuples(seq) -> list:
    return [tuple(t) for t in seq]


def _pack_blocks(
    magic: bytes, header_extra: dict, cols: dict, layout, fast: bool = True
) -> bytes:
    """Assemble a pass-family container: header + compressed columns."""
    compress = _compress_fast if fast else _compress
    blocks: List[bytes] = []
    col_meta = []
    payload = hashlib.sha256()
    for name, filt, wire in layout:
        arr = cols[name]
        raw = _encode_col(filt, wire, arr)
        payload.update(raw)
        codec, blob = compress(raw)
        blocks.append(blob)
        col_meta.append(
            {"name": name, "codec": codec, "nbytes": len(blob), "n": len(arr)}
        )
    version = _FORMATS[magic]
    header_extra = dict(header_extra)
    header_extra["format"] = version
    header_extra["columns"] = col_meta
    header_extra["sha256"] = payload.hexdigest()
    header = json.dumps(
        header_extra, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    parts = [magic, bytes([version]),
             len(header).to_bytes(4, "little"), header]
    parts.extend(blocks)
    return b"".join(parts)


def _unpack_blocks(magic: bytes, blob: bytes, layout) -> Tuple[dict, dict]:
    """Inverse of :func:`_pack_blocks`: ``(header, columns)``."""
    if blob[:4] != magic:
        raise ValueError("bad compiled-pass container magic")
    if blob[4] != _FORMATS[magic]:
        raise ValueError(
            f"compiled-pass format {blob[4]} != {_FORMATS[magic]} "
            "(stale cache file)"
        )
    hlen = int.from_bytes(blob[5:9], "little")
    header = json.loads(blob[9:9 + hlen].decode("utf-8"))
    wire_by_name = {name: (filt, wire) for name, filt, wire in layout}
    pos = 9 + hlen
    cols = {}
    payload = hashlib.sha256()
    for meta in header["columns"]:
        name = meta["name"]
        if name not in wire_by_name:
            raise ValueError(f"unknown pass column {name!r}")
        filt, wire = wire_by_name[name]
        block = blob[pos:pos + int(meta["nbytes"])]
        if len(block) != int(meta["nbytes"]):
            raise ValueError("truncated compiled-pass container")
        pos += len(block)
        raw = _decompress(meta["codec"], block)
        payload.update(raw)
        cols[name] = _decode_col(filt, wire, raw, int(meta["n"]))
    if pos != len(blob):
        raise ValueError("trailing bytes after pass columns")
    if header.get("sha256") != payload.hexdigest():
        raise ValueError("compiled-pass digest mismatch (corrupt container)")
    if set(cols) != {name for name, _, _ in layout}:
        raise ValueError("compiled-pass container is missing columns")
    return header, cols


def encode_vecprog(
    cols: dict,
    inv_fields: Dict[str, float],
    gc: dict,
    *,
    key: str,
    sig: str,
    tier: dict,
    trace_sha256: str,
    compat: dict,
) -> bytes:
    """Serialize compiled ``_VecProgram`` columns into ``.rvp``.

    *cols* is the column dict (``base``, ``kid``, ``labels``,
    ``cls_pos``, ``cls_idx``, ``cls_defs``, ``wh_by_cls``,
    ``wm_by_cls``, ``max_nm``).  The header embeds the invariant stats
    and the pricing subset of *gc*, so a warm singleton point needs
    only this file — no trace decode.  Raises
    :class:`ValueError` on a tier the layout cannot carry exactly —
    more than 65,535 classes, or class items out of order (callers
    treat that as "don't cache").
    """
    # Integer columns are read at whatever width they come in (a
    # skeleton's are narrow), never widened to int64 here.
    kid = np.asarray(cols["kid"])
    n_items = len(kid)
    run_start = np.ones(n_items, dtype=bool)
    run_start[1:] = kid[1:] != kid[:-1]
    kid_at = np.flatnonzero(run_start)
    cls_pos = np.asarray(cols["cls_pos"])
    cls_idx = np.asarray(cols["cls_idx"])
    n_cls = len(cols["cls_defs"])
    if n_cls > 0xFFFF or (
        len(cls_idx) and (cls_idx.min() < 0 or cls_idx.max() >= n_cls)
    ):
        raise ValueError("tier class ids do not fit the <u2 column")
    if len(cls_pos) and (
        cls_pos[0] < 0 or cls_pos[-1] >= n_items
        or (cls_pos[1:] <= cls_pos[:-1]).any()
    ):
        raise ValueError("tier class items are not rising item positions")
    bits = np.zeros(n_items, dtype=bool)
    bits[cls_pos] = True
    arrays = {
        "base": np.asarray(cols["base"], np.float64),
        "kid_at": kid_at,
        "kid_run": kid[kid_at],
        "cls_bits": np.packbits(bits),
        "cls_idx": cls_idx,
        "wh_by_cls": np.asarray(cols["wh_by_cls"], np.float64),
        "wm_by_cls": np.asarray(cols["wm_by_cls"], np.float64),
    }
    header = {
        "kind": "vecprog",
        "key": key,
        "sig": sig,
        "tier": tier,
        "trace_sha256": trace_sha256,
        "compat": compat,
        "n_items": n_items,
        "labels": list(cols["labels"]),
        "cls_defs": _tuples_to_lists(cols["cls_defs"]),
        "max_nm": int(cols["max_nm"]),
        "inv": dict(inv_fields),
        "gc": {
            "l1_lat": gc["l1_lat"],
            "ooo_hide": gc["ooo_hide"],
            "scalar_cpi": gc["scalar_cpi"],
            "classes": _tuples_to_lists(gc["classes"]),
        },
    }
    return _pack_blocks(_VECPROG_MAGIC, header, arrays, _VECPROG_COLUMNS)


def _narrowest(col: np.ndarray) -> np.ndarray:
    """Non-negative integer column *col* at the narrowest unsigned width
    that holds its largest value (``u1`` when empty)."""
    return col.astype(np.min_scalar_type(int(col.max(initial=0))), copy=False)


def decode_vecprog(blob: bytes) -> Tuple[dict, dict, Dict[str, float], dict]:
    """Inverse of :func:`encode_vecprog`.

    Returns ``(header, cols, inv_fields, gc_pricing)`` where *cols* is
    the column dict of :func:`encode_vecprog` and *gc_pricing* holds
    just the fields :func:`repro.machine.replay._point_pass_vec` reads.
    The integer columns ``kid``, ``cls_pos`` and ``cls_idx`` come back
    at the narrowest unsigned width that holds their largest value, the
    width a tier compiled in process holds them at.  Raises
    :class:`ValueError` on corruption, including digest-valid columns
    that do not fit together (callers quarantine + miss).
    """
    header, arrays = _unpack_blocks(_VECPROG_MAGIC, blob, _VECPROG_COLUMNS)
    n = int(header["n_items"])
    labels = [str(s) for s in header["labels"]]
    cls_defs = _lists_to_tuples(header["cls_defs"])
    kid_at, kid_run = arrays["kid_at"], arrays["kid_run"]
    cls_bits = np.unpackbits(arrays["cls_bits"])
    cls_idx = _narrowest(arrays["cls_idx"])
    # Label runs start at item 0, rise strictly, stay below n and name
    # a label; the bitmap covers the n items with one bit per class
    # item (zero padding); class ids index the class table.
    runs_fit = len(kid_at) == len(kid_run) and (n == 0) == (len(kid_at) == 0) and (
        n == 0
        or (
            kid_at[0] == 0
            and kid_at[-1] < n
            and bool((np.diff(kid_at) > 0).all())
            and kid_run.min() >= 0
            and kid_run.max() < len(labels)
        )
    )
    fits = (
        runs_fit
        and len(arrays["base"]) == n
        and len(arrays["cls_bits"]) == (n + 7) // 8
        and int(np.count_nonzero(cls_bits)) == len(cls_idx)
        and not cls_bits[n:].any()
        and (len(cls_idx) == 0 or cls_idx.max() < len(cls_defs))
        and len(arrays["wh_by_cls"]) == len(arrays["wm_by_cls"]) == len(cls_defs)
    )
    if not fits:
        raise ValueError("vecprog container: inconsistent tier columns")
    cols = {
        "base": arrays["base"],
        "kid": np.repeat(_narrowest(kid_run), np.diff(kid_at, append=n)),
        "labels": labels,
        "cls_pos": _narrowest(np.flatnonzero(cls_bits)),
        "cls_idx": cls_idx,
        "cls_defs": cls_defs,
        "wh_by_cls": arrays["wh_by_cls"],
        "wm_by_cls": arrays["wm_by_cls"],
        "max_nm": int(header["max_nm"]),
    }
    hgc = header["gc"]
    gc_pricing = {
        "l1_lat": hgc["l1_lat"],
        "ooo_hide": hgc["ooo_hide"],
        "scalar_cpi": hgc["scalar_cpi"],
        "classes": _lists_to_tuples(hgc["classes"]),
    }
    inv_fields = {str(k): float(v) for k, v in header["inv"].items()}
    return header, cols, inv_fields, gc_pricing


def read_pass_header(path: str) -> dict:
    """Parse just the JSON header of an ``.rvp`` container."""
    with Path(path).open("rb") as fh:
        head = fh.read(9)
        if head[:4] != _VECPROG_MAGIC:
            raise ValueError("not a compiled-pass container (bad magic)")
        hlen = int.from_bytes(head[5:9], "little")
        return json.loads(fh.read(hlen).decode("utf-8"))


def store_vecprog(
    cols: dict,
    inv_fields: Dict[str, float],
    gc: dict,
    *,
    key: str,
    sig: str,
    tier: dict,
    trace_sha256: str,
    compat: dict,
) -> bool:
    """Best-effort write of a compiled point-pass tier."""
    try:
        blob = encode_vecprog(
            cols, inv_fields, gc, key=key, sig=sig, tier=tier,
            trace_sha256=trace_sha256, compat=compat,
        )
    except ValueError:
        return False
    path = _vecprog_path(key, sig, tier["token"])

    def write(tmp: str) -> None:
        Path(tmp).write_bytes(blob)
        faults.maybe_fault("passcache.write", key=key, path=tmp)

    try:
        atomic_replace(path, write, suffix=VECPROG_SUFFIX)
    except OSError:
        return False
    faults.maybe_fault("passcache.spill", key=key, path=path)
    return True


def load_vecprog(
    key: str, sig: str, tier_token: str, trace_sha256: str
) -> Optional[Tuple[dict, dict, Dict[str, float], dict]]:
    """Load a compiled point-pass tier; ``None`` on miss/stale/corrupt."""
    path = _vecprog_path(key, sig, tier_token)
    try:
        blob = Path(path).read_bytes()
    except OSError:
        return None
    try:
        out = decode_vecprog(blob)
    except ValueError as exc:
        quarantine(path, f"unreadable compiled point pass: {exc}")
        return None
    if out[0].get("trace_sha256") != trace_sha256:
        return None
    _note_load("vecprog", key)
    return out


def read_vecprog_header(
    key: str, sig: str, tier_token: str, trace_sha256: str
) -> Optional[dict]:
    """Header of a stored tier derived from *trace_sha256*, else ``None``.

    Reads only the JSON header (no column decode, no payload check), so
    a warm sweep can pick each point's tier before decoding any; a
    corrupt file surfaces, and is quarantined, at :func:`load_vecprog`.
    A tier of another format version is a miss.
    """
    try:
        header = read_pass_header(_vecprog_path(key, sig, tier_token))
    except (OSError, ValueError):
        return None
    if (
        header.get("format") != VECPROG_FORMAT_VERSION
        or header.get("trace_sha256") != trace_sha256
    ):
        return None
    return header


def split_cache_filename(fn: str) -> Optional[dict]:
    """Classify a cache-directory entry by suffix and name shape.

    Returns ``{"kind": "trace"|"vecprog", "key": ..., ...}`` with
    ``sig`` and ``tier`` components for a tier, or ``None`` for files
    that belong to neither family.
    """
    if fn.endswith(SPILL_SUFFIX):
        return {"kind": "trace", "key": fn[: -len(SPILL_SUFFIX)]}
    if fn.endswith(VECPROG_SUFFIX):
        stem = fn[: -len(VECPROG_SUFFIX)]
        parts = stem.rsplit(".", 2)
        if len(parts) != 3 or not all(parts):
            return None
        return {"kind": "vecprog", "key": parts[0], "sig": parts[1],
                "tier": parts[2]}
    return None


# ----------------------------------------------------------------------
# Cross-process load accounting
# ----------------------------------------------------------------------
_LOAD_COUNTS: Dict[str, int] = {
    "shm": 0,
    "spill": 0,
    "vecprog": 0,
}


def load_counts() -> Dict[str, int]:
    """Cross-process trace loads this process has performed, by source."""
    return dict(_LOAD_COUNTS)


def reset_load_counts() -> None:
    for k in _LOAD_COUNTS:
        _LOAD_COUNTS[k] = 0


def _note_load(source: str, key: str) -> None:
    _LOAD_COUNTS[source] += 1
    path = knobs.get_str(_ENV_LOAD_LOG)
    if path:
        try:
            with Path(path).open("a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {source} {key}\n")
        except OSError:
            pass  # observability only; never fail a load over it


# ----------------------------------------------------------------------
# Shared-memory tier (parent publishes, pool workers attach)
# ----------------------------------------------------------------------
#: Shared-memory segments this process created, key -> SharedMemory.
#: The creator keeps the handle so :func:`release_shm` can unlink at
#: pool teardown; attachers close immediately after decoding.
_SHM_OWNED: dict = {}
_SHM_PREFIX = "rtc"


def _shm_name(key: str) -> str:
    return _SHM_PREFIX + key[:24]


def publish_shm(key: str, trace: Optional[RecordedTrace] = None) -> bool:
    """Publish *trace* (or the registry entry) as a shared-memory segment.

    Workers' :func:`get` attaches and decodes the segment once per
    worker lifetime instead of re-reading the spill file per task.  The
    segment holds the length-prefixed fast-codec ``.rtz`` blob.
    Best-effort: returns ``False`` when shared memory is unavailable,
    ``True`` when the segment exists (fresh or already published).
    The creating process must call :func:`release_shm` when the pool
    is done, or the segment outlives it.
    """
    if key in _SHM_OWNED:
        return True
    trace = trace if trace is not None else _REGISTRY.get(key)
    if trace is None:
        return False
    blob = encode_trace(trace, level="fast")
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(
            name=_shm_name(key), create=True, size=8 + len(blob)
        )
    except FileExistsError:
        return True  # already published (e.g. by an outer sweep)
    except Exception:
        return False
    try:
        shm.buf[:8] = len(blob).to_bytes(8, "little")
        shm.buf[8:8 + len(blob)] = blob
        _SHM_OWNED[key] = shm
        return True
    except Exception:
        try:
            shm.close()
            shm.unlink()
        except (OSError, BufferError):
            pass
        return False


def _shm_get(key: str) -> Optional[RecordedTrace]:
    """Attach + decode a published segment; None on any failure."""
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=_shm_name(key))
    except Exception:
        return None
    try:
        n = int.from_bytes(bytes(shm.buf[:8]), "little")
        blob = bytes(shm.buf[8:8 + n])
    except Exception:
        return None
    finally:
        try:
            shm.close()
        except (OSError, BufferError):
            pass
    try:
        return decode_trace(blob)
    except Exception:
        return None


def release_shm(key: Optional[str] = None) -> None:
    """Unlink shared-memory segments this process published.

    With *key* ``None`` every owned segment is released.  Idempotent
    and best-effort — safe to call from ``finally`` blocks.
    """
    keys = [key] if key is not None else list(_SHM_OWNED)
    for k in keys:
        shm = _SHM_OWNED.pop(k, None)
        if shm is None:
            continue
        try:
            shm.close()
        except (OSError, BufferError):
            pass
        try:
            shm.unlink()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def get(
    key: str, spill: Optional[bool] = None, register: bool = True
) -> Optional[RecordedTrace]:
    """Look *key* up in the registry, then shared memory, then disk.

    A trace decoded from its spill is registered unless *register* is
    false: a caller that derives what it needs and drops the trace
    leaves nothing behind (the spill still holds it).
    """
    trace = _REGISTRY.get(key)
    if trace is not None:
        # Refresh LRU position.
        _REGISTRY.pop(key, None)
        _REGISTRY[key] = trace
        return trace
    trace = _shm_get(key)
    if trace is not None:
        _note_load("shm", key)
        put(key, trace, spill=False)  # the parent already persists it
        return trace
    if spill_enabled(spill):
        path = _spill_path(key)
        try:
            trace = load_compressed(path)
        except FileNotFoundError:
            return None
        except Exception as exc:
            # Truncated container, bit-flipped columns, stale format,
            # digest mismatch: quarantine the spill and report a miss —
            # the caller re-captures (or simulates the point directly).
            quarantine(path, f"unreadable trace spill: {exc}")
            return None
        if verify_enabled():
            from ..analysis import verify_trace  # deferred import

            if verify_trace(trace):
                quarantine(path, "spilled trace failed static verification")
                return None  # corrupted spill: treat as a miss
        _note_load("spill", key)
        if register:
            put(key, trace, spill=False)  # already on disk
        return trace
    return None


def put(
    key: str,
    trace: RecordedTrace,
    spill: Optional[bool] = None,
    resident: bool = True,
) -> None:
    """Register *trace* under *key*; optionally spill it to disk.

    With ``resident=False`` a trace that spilled is not registered:
    :func:`get` decodes it on demand.  A capture that has already
    derived everything it needs from its trace drops the columns at
    once this way; without a spill the trace is registered regardless.
    """
    if resident or not spill_enabled(spill):
        _register(key, trace)
    if spill_enabled(spill):
        path = _spill_path(key)
        try:
            save_compressed(trace, path, level="fast")
        except OSError:
            if not resident:
                _register(key, trace)
            return  # spilling is best-effort, like the simcache
        faults.maybe_fault("tracecache.spill", key=key, path=path)


def _register(key: str, trace: RecordedTrace) -> None:
    _REGISTRY.pop(key, None)
    _REGISTRY[key] = trace
    while len(_REGISTRY) > _REGISTRY_CAP:
        _REGISTRY.pop(next(iter(_REGISTRY)))


def get_or_capture(
    net,
    machine,
    policy,
    n_layers,
    deduplicate: bool = True,
    spill: Optional[bool] = None,
) -> Tuple[RecordedTrace, bool]:
    """Return ``(trace, was_cached)`` for the given simulation inputs.

    On a registry/shm/spill miss the network is re-traced once with a
    :class:`~repro.machine.trace.TraceRecorder` and the result
    registered (and spilled, when enabled) for everyone else.
    """
    key = trace_key(net, machine, policy, n_layers, deduplicate)
    trace = get(key, spill=spill)
    if trace is not None:
        return trace, True
    trace = net.record_trace(
        machine, policy, n_layers=n_layers, deduplicate=deduplicate, key=key
    )
    put(key, trace, spill=spill)
    return trace, False


def clear_registry() -> None:
    """Drop all in-process traces (tests; does not touch spill files)."""
    _REGISTRY.clear()
