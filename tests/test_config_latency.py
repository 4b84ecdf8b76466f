"""Tests for machine presets (Table I) and the cache-latency models."""

import pytest

from repro.machine import (
    BASE_L2_LATENCY,
    MB,
    CacheParams,
    CoreParams,
    VPUParams,
    a64fx,
    cacti_like_latency,
    constant_latency,
    latency_for,
    rvv_gem5,
    sve_gem5,
)


class TestLatencyModels:
    def test_constant_matches_paper(self):
        # Paper: Zen2 L2 extrapolated to 1MB via CACTI -> 12 cycles.
        assert constant_latency(1 * MB) == BASE_L2_LATENCY == 12

    def test_constant_ignores_size(self):
        assert constant_latency(256 * MB) == 12

    def test_cacti_base_point(self):
        assert cacti_like_latency(1 * MB) == 12

    def test_cacti_monotone(self):
        sizes = [1, 4, 16, 64, 256]
        lats = [cacti_like_latency(s * MB) for s in sizes]
        assert lats == sorted(lats)
        assert lats[-1] > lats[0]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            constant_latency(0)
        with pytest.raises(ValueError):
            cacti_like_latency(-5)

    def test_dispatch(self):
        assert latency_for(1 * MB, "constant") == 12
        assert latency_for(1 * MB, "cacti") == 12
        with pytest.raises(ValueError):
            latency_for(1 * MB, "magic")


class TestTable1Presets:
    """Each preset must match the corresponding Table I column."""

    def test_rvv_column(self):
        m = rvv_gem5()
        assert m.isa_name == "rvv"
        assert m.core.model == "in-order"
        assert m.core.freq_ghz == 2.0
        assert m.l1.size_bytes == 64 << 10 and m.l1.assoc == 4
        assert m.l2.size_bytes == 1 * MB and m.l2.assoc == 8
        assert m.l1.line_bytes == 64 and m.l2.line_bytes == 64
        assert not m.honors_sw_prefetch
        assert m.vpu.mem_port == "L2"  # VPU attached to the L2
        assert m.vpu.vector_cache_bytes == 2 << 10  # 2KB VectorCache
        assert m.make_isa().mvl_bits == 16384

    def test_rvv_configurable_axes(self):
        m = rvv_gem5(vlen_bits=16384, lanes=4, l2_mb=256)
        assert m.vlen_bits == 16384 and m.vpu.lanes == 4
        assert m.l2.size_bytes == 256 * MB
        # Paper setting: latency stays at the 1MB value across the sweep.
        assert m.l2.latency == 12

    def test_sve_column(self):
        m = sve_gem5()
        assert m.isa_name == "sve"
        assert m.core.model == "in-order"
        assert m.vpu.mem_port == "L1"
        assert m.vpu.vector_cache_bytes == 0
        assert not m.honors_sw_prefetch
        assert m.sw_prefetch_is_noop_instr  # gem5 treats prefetch as no-op
        assert m.make_isa().mvl_bits == 2048

    def test_sve_lanes_proportional_to_vlen(self):
        # Paper Section VI-D: lanes proportional to the vector length.
        l512 = sve_gem5(512).vpu.lanes
        l2048 = sve_gem5(2048).vpu.lanes
        assert l2048 == 4 * l512

    def test_a64fx_column(self):
        m = a64fx()
        assert m.vlen_bits == 512  # fixed on the real chip
        assert m.core.model == "out-of-order"
        assert m.l1.line_bytes == 256 and m.l2.line_bytes == 256
        assert m.l2.size_bytes == 8 * MB and m.l2.assoc == 16
        assert m.honors_sw_prefetch
        assert m.l1_prefetcher is not None and m.l2_prefetcher is not None
        # 2 SIMD units on the die; one sustained by GEMM (L1-port bound).
        assert m.vpu.pipes == 1
        assert m.peak_gflops == 62.5  # Section VI-C(a)

    def test_vlen_f32(self):
        assert rvv_gem5(vlen_bits=512).vlen_f32 == 16
        assert rvv_gem5(vlen_bits=16384).vlen_f32 == 512

    def test_with_override(self):
        m = rvv_gem5().with_(dram_latency=999)
        assert m.dram_latency == 999
        assert rvv_gem5().dram_latency != 999

    def test_describe_mentions_key_facts(self):
        d = a64fx().describe()
        assert "512b" in d and "8MB" in d and "out-of-order" in d


class TestParamValidation:
    def test_bad_mem_port(self):
        with pytest.raises(ValueError):
            VPUParams(mem_port="L3")

    def test_bad_lanes(self):
        with pytest.raises(ValueError):
            VPUParams(lanes=0)

    def test_bad_core_model(self):
        with pytest.raises(ValueError):
            CoreParams(model="quantum")

    def test_bad_ooo_hide(self):
        with pytest.raises(ValueError):
            CoreParams(ooo_hide=1.5)

    @pytest.mark.parametrize("geometry, match", [
        pytest.param((1000, 3, 64), "not a multiple", id="not-a-multiple"),
        pytest.param((0, 16, 64), "size_bytes", id="zero-size"),
        pytest.param((-1024, 16, 64), "size_bytes", id="negative-size"),
        pytest.param((1024, 0, 64), "assoc", id="zero-assoc"),
        pytest.param((1024, -2, 64), "assoc", id="negative-assoc"),
        pytest.param((1024, 16, 0), "line_bytes", id="zero-line"),
        pytest.param((1024, 16, -64), "line_bytes", id="negative-line"),
    ])
    def test_bad_cache_geometry(self, geometry, match):
        """A cache of no sets or of a non-positive field is refused at
        construction, with a ``ValueError`` naming the field."""
        with pytest.raises(ValueError, match=match):
            CacheParams(*geometry, 10)

    def test_elems_per_cycle(self):
        v = VPUParams(lanes=8, pipes=1)
        assert v.elems_per_cycle(4) == 16
        assert v.elems_per_cycle(8) == 8
        assert VPUParams(lanes=8, pipes=2).elems_per_cycle(4) == 32
