"""Fault-tolerant sweep execution: checkpoint/resume, retries, quarantine.

Every test drives the *production* code paths under injected faults
(:mod:`repro.testing.faults`) — worker crashes, hangs, mid-write
interrupts, cache corruption — and asserts the recovery contract: the
sweep completes, and its statistics are bitwise identical to a clean,
uninterrupted run.
"""

import json
import math
import os

import pytest

from repro.cli import main as cli_main
from repro.core import simcache, sweep_cache_sizes, sweep_vector_lengths, tracecache
from repro.core.resilience import (
    Journal,
    PointFailure,
    RetryPolicy,
    SweepError,
    atomic_replace,
    call_with_retries,
    list_journals,
    list_quarantined,
    payload_digest,
    quarantine,
    stats_from_payload,
    stats_payload,
    sweep_key,
)
from repro.machine import rvv_gem5
from repro.machine.simulator import SimStats
from repro.nets import ConvLayer, KernelPolicy, MaxPoolLayer, Network
from repro.testing.faults import FAULTS_ENV, FaultSpec, InjectedFault, install_faults

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    """Isolated .simcache/ (and journal/quarantine/traces under it)."""
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path / ".simcache"))
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.delenv("REPRO_SIMCACHE", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_SPILL", raising=False)
    tracecache.clear_registry()
    yield tmp_path
    tracecache.clear_registry()


@pytest.fixture()
def fault_env(cache_env, monkeypatch):
    """Returns ``arm(specs)``: installs a fault schedule for this test."""

    def arm(*specs):
        path = install_faults(str(cache_env / "faults.json"), specs)
        monkeypatch.setenv(FAULTS_ENV, path)
        return path

    return arm


def small_net(name="small"):
    return Network(
        [ConvLayer(8, 3, 1), MaxPoolLayer(2, 2), ConvLayer(16, 3, 1)],
        input_shape=(4, 16, 16),
        name=name,
    )


def rvv_cache_factory(mb):
    return rvv_gem5(vlen_bits=512, lanes=4, l2_mb=mb)


def rvv_vlen_factory(v):
    return rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1)


def assert_identical(a: SimStats, b: SimStats):
    for name in SimStats.FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.kernel_cycles == b.kernel_cycles


#: Fast retry policy so tests never sleep for real.
FAST = RetryPolicy(max_retries=2, backoff_s=0.001, max_backoff_s=0.01)


# ----------------------------------------------------------------------
# Atomic writes (the PR's bugfix satellite)
# ----------------------------------------------------------------------

class TestAtomicReplace:
    def test_success_replaces_atomically(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_replace(str(path), lambda tmp: open(tmp, "w").write("new"))
        assert path.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_keyboard_interrupt_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "out.json"

        def write(tmp):
            with open(tmp, "w") as fh:
                fh.write("partial")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            atomic_replace(str(path), write)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # temp file cleaned up too

    def test_simcache_store_interrupted_midwrite_leaves_nothing(
        self, cache_env, fault_env
    ):
        """The original leak: ^C during a simcache write used to leave a
        truncated entry behind that poisoned the next run."""
        arm = fault_env
        arm(FaultSpec(site="simcache.write", kind="keyboard-interrupt"))
        net = small_net()
        key = simcache.cache_key(net, rvv_cache_factory(1), KernelPolicy(), None, True)
        stats = net.simulate(rvv_cache_factory(1), use_cache=False, use_trace=False)
        with pytest.raises(KeyboardInterrupt):
            simcache.store(key, stats)
        cache = cache_env / ".simcache"
        assert not (cache / (key + ".json")).exists()
        assert not any(p.suffix == ".tmp" for p in cache.iterdir())
        assert simcache.load(key) is None  # a clean miss, not an error


# ----------------------------------------------------------------------
# Cache integrity: checksums and quarantine
# ----------------------------------------------------------------------

class TestSimcacheQuarantine:
    def _stored_entry(self, cache_env):
        net = small_net()
        machine = rvv_cache_factory(1)
        key = simcache.cache_key(net, machine, KernelPolicy(), None, True)
        stats = net.simulate(machine, use_cache=False, use_trace=False)
        simcache.store(key, stats)
        path = cache_env / ".simcache" / (key + ".json")
        assert path.exists()
        return key, path, stats

    def test_roundtrip_has_valid_digest(self, cache_env):
        key, path, stats = self._stored_entry(cache_env)
        entry = json.loads(path.read_text())
        assert entry["sha256"] == payload_digest(entry["payload"])
        assert_identical(simcache.load(key), stats)

    @pytest.mark.parametrize("damage", ["flip", "truncate", "garbage"])
    def test_damaged_entry_is_quarantined_and_recomputed(self, cache_env, damage):
        key, path, stats = self._stored_entry(cache_env)
        raw = path.read_bytes()
        if damage == "flip":  # valid JSON, wrong digest
            entry = json.loads(raw)
            entry["payload"]["fields"]["cycles"] += 1.0
            path.write_text(json.dumps(entry))
        elif damage == "truncate":
            path.write_bytes(raw[: len(raw) // 2])
        else:
            path.write_text("not json at all")
        assert simcache.load(key) is None
        assert not path.exists()  # moved, not left to be re-served
        (entry,) = list_quarantined()
        assert "corrupt simcache entry" in entry["reason"]
        # The sweep transparently recomputes and re-stores.
        fresh = small_net().simulate(
            rvv_cache_factory(1), use_cache=False, use_trace=False
        )
        simcache.store(key, fresh)
        assert_identical(simcache.load(key), stats)

    def test_stale_model_version_is_quarantined(self, cache_env):
        key, path, _ = self._stored_entry(cache_env)
        entry = json.loads(path.read_text())
        entry["model_version"] = "1999-01-pr0"
        path.write_text(json.dumps(entry))
        assert simcache.load(key) is None
        assert len(list_quarantined()) == 1

    def test_quarantine_records_reason_sidecar(self, cache_env):
        victim = cache_env / ".simcache" / "bad.json"
        victim.parent.mkdir(parents=True, exist_ok=True)
        victim.write_text("junk")
        dest = quarantine(str(victim), "because tests")
        assert dest is not None and os.path.exists(dest)
        (info,) = list_quarantined()
        assert info["reason"] == "because tests"
        assert info["when"] > 0


class TestTraceSpillQuarantine:
    @pytest.mark.parametrize("fault_kind", ["truncate", "corrupt"])
    def test_damaged_spill_degrades_gracefully(
        self, cache_env, fault_env, monkeypatch, fault_kind
    ):
        """A mangled on-disk trace must never poison a sweep: the spill
        is quarantined and the points are priced afresh, bitwise equal."""
        from repro.machine import replay

        monkeypatch.setenv("REPRO_TRACE_SPILL", "1")
        net = small_net()
        sweep_cache_sizes(net, [1, 2, 4], rvv_cache_factory, jobs=1)
        spills = list((cache_env / ".simcache" / "traces").glob("*.rtz"))
        assert spills, "the sweep should have spilled the trace"
        # Forget the in-process capture: only the disk state remains.
        tracecache.clear_registry()
        replay._SHARED_PASS_MEMO.clear()
        arm = fault_env
        arm(FaultSpec(site="tracecache.spill", kind=fault_kind))
        # Fire the mangler on the existing spill via its own site.
        from repro.testing import faults

        faults.maybe_fault("tracecache.spill", path=str(spills[0]))
        # Points with no stored tier need the trace itself.
        mbs = [8, 16]
        again = sweep_cache_sizes(net, mbs, rvv_cache_factory, jobs=1)
        direct = sweep_cache_sizes(
            net, mbs, rvv_cache_factory, jobs=1, use_trace=False
        )
        for a, b in zip(direct.stats, again.stats):
            assert_identical(a, b)
        assert any(
            "unreadable trace spill" in q["reason"] for q in list_quarantined()
        )

    def test_spill_header_carries_content_digest(self, cache_env, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SPILL", "1")
        net = small_net()
        tracecache.get_or_capture(net, rvv_cache_factory(1), KernelPolicy(), None)

        (spill,) = list((cache_env / ".simcache" / "traces").glob("*.rtz"))
        blob = spill.read_bytes()
        assert blob[:4] == b"RTRC"
        hlen = int.from_bytes(blob[5:9], "little")
        header = json.loads(blob[9:9 + hlen].decode("utf-8"))
        assert "sha256" in header


# ----------------------------------------------------------------------
# Retry policy and failure budgets
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(backoff_s=0.1, factor=2.0, max_backoff_s=0.4, jitter=0.0)
        delays = [policy.delay(a, "x") for a in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=0.1, jitter=0.25)
        a = policy.delay(1, "pt0")
        assert a == policy.delay(1, "pt0")  # reproducible
        assert a != policy.delay(1, "pt1")  # desynchronized across points
        assert 0.075 <= a <= 0.125

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_BACKOFF", "0.5")
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "9")
        monkeypatch.setenv("REPRO_MAX_FAILURES", "3")
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.backoff_s == 0.5
        assert policy.timeout_s == 9
        assert policy.max_failures == 3

    def test_call_with_retries_eventually_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        result, attempts = call_with_retries(flaky, FAST, "seed")
        assert result == "ok" and attempts == 3

    def test_call_with_retries_reraises_after_budget(self):
        def broken():
            raise RuntimeError("permanent")

        with pytest.raises(RuntimeError, match="permanent"):
            call_with_retries(broken, RetryPolicy(max_retries=1, backoff_s=0.001), "s")


class TestFailureBudget:
    def test_serial_degrades_failed_point(self, cache_env, fault_env):
        arm = fault_env
        arm(FaultSpec(site="worker.point", kind="raise", index=1, times=99))
        net = small_net()
        res = sweep_cache_sizes(
            net, [1, 2, 4], rvv_cache_factory, jobs=1,
            retry=RetryPolicy(max_retries=1, backoff_s=0.001), max_failures=1,
        )
        assert not res.ok
        assert res.sources[1] == "failed"
        (failure,) = res.failures()
        assert failure.index == 1
        assert failure.exc_type == "InjectedFault"
        assert math.isnan(res.stats[1].cycles)  # reporting still works
        assert res.as_rows()[1]["source"] == "failed"

    def test_forced_trace_still_supervises_failing_points(
        self, cache_env, fault_env
    ):
        """``use_trace=True`` re-raises group pricing errors only: a
        failing point still retries and is charged to the budget."""
        arm = fault_env
        arm(FaultSpec(site="worker.point", kind="raise", index=1, times=99))
        net = small_net()
        res = sweep_cache_sizes(
            net, [1, 2, 4], rvv_cache_factory, jobs=1, use_trace=True,
            retry=RetryPolicy(max_retries=1, backoff_s=0.001), max_failures=1,
        )
        assert res.sources == ["direct", "failed", "direct"]
        (failure,) = res.failures()
        assert failure.index == 1 and failure.attempts == 2
        for i, mb in ((0, 1), (2, 4)):
            direct = net.simulate(
                rvv_cache_factory(mb), use_cache=False, use_trace=False
            )
            assert_identical(res.stats[i], direct)

    def test_fail_fast_raises_original_exception(self, cache_env, fault_env):
        arm = fault_env
        arm(FaultSpec(site="worker.point", kind="raise", index=0, times=99))
        with pytest.raises(InjectedFault):
            sweep_cache_sizes(
                small_net(), [1, 2], rvv_cache_factory, jobs=1,
                retry=RetryPolicy(max_retries=0, backoff_s=0.001),
            )

    def test_budget_overflow_raises_sweep_error(self, cache_env, fault_env):
        arm = fault_env
        arm(FaultSpec(site="worker.point", kind="raise", times=99))
        with pytest.raises(SweepError) as err:
            sweep_cache_sizes(
                small_net(), [1, 2, 4], rvv_cache_factory, jobs=1,
                retry=RetryPolicy(max_retries=0, backoff_s=0.001), max_failures=1,
            )
        assert len(err.value.failures) == 2


# ----------------------------------------------------------------------
# The sweep journal
# ----------------------------------------------------------------------

class TestJournal:
    def _key(self):
        net = small_net()
        values = [1, 2, 4]
        machines = [rvv_cache_factory(v) for v in values]
        return sweep_key(net, "l2_mb", values, machines, KernelPolicy(), None)

    def _stats(self):
        return small_net().simulate(
            rvv_cache_factory(1), use_cache=False, use_trace=False
        )

    def test_roundtrip_restores_exact_stats(self, cache_env):
        key, stats = self._key(), self._stats()
        journal = Journal.open(key, 3)
        journal.record_point(1, stats, "direct")
        journal.close()
        reopened = Journal.open(key, 3)
        restored, source = reopened.completed[1]
        reopened.close()
        assert source == "direct"
        assert_identical(restored, stats)
        assert reopened.pending() == [0, 2]

    def test_corrupt_journal_line_is_skipped(self, cache_env):
        key, stats = self._key(), self._stats()
        journal = Journal.open(key, 3)
        journal.record_point(0, stats, "direct")
        journal.record_point(1, stats, "direct")
        journal.close()
        lines = open(journal.path).readlines()
        # Mangle point 1's checkpoint: flip a digit inside its digest.
        lines[2] = lines[2].replace(lines[2].split('"sha256": "')[1][:6], "000000")
        open(journal.path, "w").writelines(lines)
        reopened = Journal.open(key, 3)
        reopened.close()
        assert 0 in reopened.completed
        assert reopened.pending() == [1, 2]  # bad line dropped, not trusted

    def test_header_mismatch_quarantines_old_journal(self, cache_env):
        key = self._key()
        journal = Journal.open(key, 3)
        journal.record_point(0, self._stats(), "direct")
        journal.close()
        # Same key, different grid size: a different sweep entirely.
        reopened = Journal.open(key, 5)
        reopened.close()
        assert reopened.completed == {}
        assert any(
            "journal header mismatch" in q["reason"] for q in list_quarantined()
        )

    def test_status_never_creates_files(self, cache_env):
        key = self._key()
        status = Journal.status(key, 3)
        assert status.pending() == [0, 1, 2]
        assert not os.path.exists(status.path)

    def test_done_and_failure_records(self, cache_env):
        key = self._key()
        journal = Journal.open(key, 2)
        journal.record_failure(
            PointFailure(index=1, error="boom", exc_type="RuntimeError", attempts=3)
        )
        journal.mark_done()
        journal.close()
        summary = [j for j in list_journals() if j["sweep_key"] == key]
        assert summary and summary[0]["n_failed"] == 1 and summary[0]["done"]


# ----------------------------------------------------------------------
# Checkpoint/resume: the bitwise-identity property (tentpole)
# ----------------------------------------------------------------------

class TestResumeIdentity:
    """An interrupted sweep, resumed, equals an uninterrupted sweep —
    across serial/parallel execution and trace on/off."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("use_trace", [False, True])
    def test_interrupt_resume_is_bitwise_identical(
        self, cache_env, fault_env, monkeypatch, jobs, use_trace
    ):
        net = small_net()
        mbs = [1, 2, 4, 8]
        clean = sweep_cache_sizes(
            net, mbs, rvv_cache_factory, jobs=1, use_trace=use_trace
        )
        # Interrupt: point 2 raises until the fail-fast abort triggers.
        arm = fault_env
        schedule = arm(
            FaultSpec(site="worker.point", kind="raise", index=2, times=4)
        )
        with pytest.raises((InjectedFault, SweepError)):
            sweep_cache_sizes(
                net, mbs, rvv_cache_factory, jobs=jobs, use_trace=use_trace,
                resume=True, retry=RetryPolicy(max_retries=0, backoff_s=0.001),
            )
        monkeypatch.delenv(FAULTS_ENV)
        assert os.path.exists(schedule)
        # Resume: completes the grid, restoring any checkpointed points.
        resumed = sweep_cache_sizes(
            net, mbs, rvv_cache_factory, jobs=jobs, use_trace=use_trace,
            resume=True, retry=FAST,
        )
        assert resumed.ok
        for a, b in zip(clean.stats, resumed.stats):
            assert_identical(a, b)
        # A second resume is pure journal replay — nothing simulates.
        replayed = sweep_cache_sizes(
            net, mbs, rvv_cache_factory, jobs=jobs, use_trace=use_trace,
            resume=True,
        )
        assert replayed.sources == ["journal"] * len(mbs)
        for a, b in zip(clean.stats, replayed.stats):
            assert_identical(a, b)
        done = [j for j in list_journals() if j["done"]]
        assert done and done[0]["n_ok"] == len(mbs)

    def test_resume_after_failure_budget_retries_failed_points(
        self, cache_env, fault_env, monkeypatch
    ):
        """Points degraded to PointFailure are *not* checkpointed as
        done: the next resume retries exactly those."""
        net = small_net()
        mbs = [1, 2, 4]
        clean = sweep_cache_sizes(net, mbs, rvv_cache_factory, jobs=1)
        arm = fault_env
        arm(FaultSpec(site="worker.point", kind="raise", index=1, times=99))
        partial = sweep_cache_sizes(
            net, mbs, rvv_cache_factory, jobs=1, resume=True,
            retry=RetryPolicy(max_retries=0, backoff_s=0.001), max_failures=1,
        )
        assert partial.sources[1] == "failed"
        monkeypatch.delenv(FAULTS_ENV)
        resumed = sweep_cache_sizes(
            net, mbs, rvv_cache_factory, jobs=1, resume=True, retry=FAST
        )
        assert resumed.ok
        assert resumed.sources[0] == "journal" and resumed.sources[2] == "journal"
        assert resumed.sources[1] != "journal"  # genuinely re-simulated
        for a, b in zip(clean.stats, resumed.stats):
            assert_identical(a, b)


# ----------------------------------------------------------------------
# Parallel supervision: crashes, hangs, transient raises
# ----------------------------------------------------------------------

class TestParallelSupervision:
    def test_worker_crash_is_retried_and_identical(self, cache_env, fault_env):
        """A worker dying with SIGKILL semantics (os._exit) loses its
        task; the supervisor detects the death and resubmits."""
        net = small_net()
        vlens = [512, 1024, 2048]
        clean = sweep_vector_lengths(net, vlens, rvv_vlen_factory, jobs=1)
        arm = fault_env
        arm(FaultSpec(site="worker.point", kind="crash", index=1, times=1))
        recovered = sweep_vector_lengths(
            net, vlens, rvv_vlen_factory, jobs=2, retry=FAST
        )
        for a, b in zip(clean.stats, recovered.stats):
            assert_identical(a, b)

    def test_transient_raise_is_retried_and_identical(self, cache_env, fault_env):
        net = small_net()
        mbs = [1, 2, 4, 8]
        clean = sweep_cache_sizes(net, mbs, rvv_cache_factory, jobs=1)
        arm = fault_env
        arm(FaultSpec(site="worker.point", kind="raise", index=3, times=2))
        recovered = sweep_cache_sizes(
            net, mbs, rvv_cache_factory, jobs=2,
            retry=RetryPolicy(max_retries=3, backoff_s=0.001),
        )
        for a, b in zip(clean.stats, recovered.stats):
            assert_identical(a, b)

    def test_hung_worker_times_out_and_recovers(self, cache_env, fault_env):
        net = small_net()
        vlens = [512, 1024]
        clean = sweep_vector_lengths(net, vlens, rvv_vlen_factory, jobs=1)
        arm = fault_env
        arm(
            FaultSpec(
                site="worker.point", kind="hang", index=0, times=1, seconds=20.0
            )
        )
        recovered = sweep_vector_lengths(
            net, vlens, rvv_vlen_factory, jobs=2,
            retry=RetryPolicy(max_retries=2, backoff_s=0.001, timeout_s=1.0),
        )
        for a, b in zip(clean.stats, recovered.stats):
            assert_identical(a, b)


# ----------------------------------------------------------------------
# CLI: --dry-run, --resume, --json, --max-failures
# ----------------------------------------------------------------------

class TestSweepCli:
    ARGS = [
        "sweep", "--net", "yolov3-tiny", "--layers", "2",
        "--axis", "cache", "--values", "1", "2",
    ]

    def test_dry_run_reports_pending_grid(self, cache_env, capsys):
        assert cli_main([*self.ARGS, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "pending: 2/2" in out
        assert "estimated kernel runs: 1" in out  # one shared trace group

    def test_dry_run_json_counts_journal_and_cache(self, cache_env, capsys):
        assert cli_main([*self.ARGS, "--resume"]) == 0
        capsys.readouterr()
        assert cli_main([*self.ARGS, "--dry-run", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["journal"] == 2
        assert doc["summary"]["pending"] == 0
        assert doc["summary"]["journal_done"] is True
        assert [p["state"] for p in doc["points"]] == ["journal", "journal"]

    def test_dry_run_simulates_nothing(self, cache_env, capsys, monkeypatch):
        from repro.nets.network import Network as Net

        def boom(*a, **k):  # pragma: no cover - only fires on regression
            raise AssertionError("dry run must not simulate")

        monkeypatch.setattr(Net, "simulate", boom)
        assert cli_main([*self.ARGS, "--dry-run"]) == 0

    def test_resume_json_roundtrip_is_exact(self, cache_env, capsys):
        assert cli_main([*self.ARGS, "--resume", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli_main([*self.ARGS, "--resume", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert [p["source"] for p in second["points"]] == ["journal", "journal"]
        for a, b in zip(first["points"], second["points"]):
            assert a["stats"] == b["stats"]  # exact float round-trip

    def test_max_failures_exit_code_and_report(
        self, cache_env, fault_env, capsys
    ):
        arm = fault_env
        arm(FaultSpec(site="worker.point", kind="raise", index=0, times=99))
        code = cli_main(
            [*self.ARGS, "--max-failures", "1", "--retries", "0", "--json"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["points"][0]["source"] == "failed"
        assert doc["points"][0]["failure"]["exc_type"] == "InjectedFault"
        assert "stats" in doc["points"][1]


# ----------------------------------------------------------------------
# Analysis rules: cache/corrupt-entry and sweep/orphaned-journal
# ----------------------------------------------------------------------

class TestCacheStateRules:
    def test_rules_are_registered(self):
        from repro.analysis.rules import RULES

        assert RULES["cache/corrupt-entry"][0] == "warning"
        assert RULES["sweep/orphaned-journal"][1] == "cachestate"

    def test_quarantined_entry_yields_finding(self, cache_env):
        from repro.analysis import cache_state_findings

        victim = cache_env / ".simcache" / "bad.json"
        victim.parent.mkdir(parents=True, exist_ok=True)
        victim.write_text("junk")
        quarantine(str(victim), "torn write")
        (finding,) = cache_state_findings()
        assert finding.rule == "cache/corrupt-entry"
        assert finding.severity == "warning"
        assert finding.message == "torn write"

    def test_orphaned_journal_yields_finding(self, cache_env):
        from repro.analysis import cache_state_findings

        net = small_net()
        values = [1, 2]
        machines = [rvv_cache_factory(v) for v in values]
        key = sweep_key(net, "l2_mb", values, machines, KernelPolicy(), None)
        journal = Journal.open(key, 2)
        journal.record_point(
            0, net.simulate(machines[0], use_cache=False, use_trace=False), "direct"
        )
        journal.close()  # interrupted: never marked done
        old = os.path.getmtime(journal.path) - 3600
        os.utime(journal.path, (old, old))
        findings = [
            f for f in cache_state_findings() if f.rule == "sweep/orphaned-journal"
        ]
        assert len(findings) == 1
        assert "1/2 points done" in findings[0].message
        assert findings[0].detail["sweep_key"] == key

    def test_fresh_journal_is_not_an_orphan(self, cache_env):
        from repro.analysis import cache_state_findings

        sweep_cache_sizes(
            small_net(), [1, 2], rvv_cache_factory, jobs=1, resume=True
        )
        assert cache_state_findings() == []  # done journals never flagged

    def test_baseline_excludes_environmental_findings(self, cache_env):
        from repro.analysis import canonical_report
        from repro.analysis.findings import AnalysisReport, Finding

        report = AnalysisReport(net="n", machine="m", policy="p")
        report.findings.append(
            Finding(
                rule="cache/corrupt-entry", severity="warning",
                where="x.json", message="local noise",
            )
        )
        doc = canonical_report(report)
        assert doc["findings"] == []
        assert doc["ok"] is True  # committed baselines stay env-independent


# ----------------------------------------------------------------------
# Payload round-trips (property-based when hypothesis is present)
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:

    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

    class TestPayloadProperties:
        @settings(max_examples=50, deadline=None)
        @given(
            values=st.lists(finite, min_size=len(SimStats.FIELDS),
                            max_size=len(SimStats.FIELDS)),
            kernels=st.dictionaries(
                st.text(min_size=1, max_size=8), finite, max_size=4
            ),
        )
        def test_stats_payload_roundtrip_is_exact(self, values, kernels):
            stats = SimStats(**dict(zip(SimStats.FIELDS, values)))
            stats.kernel_cycles = dict(kernels)
            payload = stats_payload(stats)
            # Through JSON text, as the journal and simcache store it.
            payload = json.loads(json.dumps(payload))
            restored = stats_from_payload(payload)
            for name in SimStats.FIELDS:
                assert getattr(restored, name) == getattr(stats, name)
            assert restored.kernel_cycles == stats.kernel_cycles
            assert payload_digest(payload) == payload_digest(
                json.loads(json.dumps(payload))
            )
