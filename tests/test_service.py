"""Durable job layer: job store, leases, scheduler, sealing, GC.

Every test drives the production code paths (:mod:`repro.service`) in
an isolated ``.simcache/``, with injected faults where the contract is
about crash windows — and asserts the durable-jobs contract end to
end: content-derived ids dedup identical grids, orphaned jobs are
adopted with bitwise-identical results, sealed records answer warm
with zero simulations, and GC only removes derivable or stale state.
"""

import json
import os
import time

import pytest

from repro.cli import main as cli_main
from repro.core import tracecache
from repro.core.codesign import sweep
from repro.core.resilience import (
    Journal,
    RetryPolicy,
    journal_path,
    list_quarantined,
    list_sealed,
    load_sealed,
    seal_journal,
    sealed_path,
    stats_payload,
    sweep_key,
)
from repro.machine import rvv_gem5, sve_gem5
from repro.nets import ConvLayer, MaxPoolLayer, Network
from repro.service import jobs as jobstore
from repro.service import scheduler
from repro.testing.faults import FAULTS_ENV, FaultSpec, install_faults


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    """Isolated .simcache/ (jobs/journal/quarantine/traces under it)."""
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path / ".simcache"))
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.delenv("REPRO_SIMCACHE", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_LEASE_TTL", raising=False)
    monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
    monkeypatch.delenv("REPRO_MAX_JOBS", raising=False)
    tracecache.clear_registry()
    yield tmp_path
    tracecache.clear_registry()


@pytest.fixture()
def fault_env(cache_env, monkeypatch):
    """Returns ``arm(*specs)``: installs a fault schedule for this test."""

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


#: Minimal spec resolvable by the scheduler (the CLI zoo's smallest
#: real network, two layers, two points).
SPEC = {
    "net": "yolov3-tiny", "machine": "rvv", "vlen": 512, "lanes": 8,
    "l2_mb": 1, "gemm": "3loop", "winograd": "off", "layers": 2,
    "axis": "cache", "values": [1, 2],
}

FAST = RetryPolicy(max_retries=1, backoff_s=0.001, max_backoff_s=0.01)


def payloads(result):
    return [stats_payload(s) for s in result.stats]


# ----------------------------------------------------------------------
# Job store: ids, records, crash safety
# ----------------------------------------------------------------------

class TestJobStore:
    def test_job_id_is_content_derived_and_stable(self, cache_env):
        k1, n1 = scheduler.spec_key(SPEC)
        k2, n2 = scheduler.spec_key(dict(SPEC))
        assert (k1, n1) == (k2, n2)
        assert jobstore.job_id_for(k1) == k1[:16]
        # A different grid is a different job.
        k3, _ = scheduler.spec_key({**SPEC, "values": [1, 4]})
        assert k3 != k1

    def test_submit_registers_then_dedups(self, cache_env):
        key, n = scheduler.spec_key(SPEC)
        rec, created = jobstore.submit(key, n, SPEC)
        assert created and rec.state == "queued"
        assert rec.spec["net"] == "yolov3-tiny"
        rec2, created2 = jobstore.submit(key, n, SPEC)
        assert not created2 and rec2.job_id == rec.job_id

    def test_resubmit_requeues_terminal_failures(self, cache_env):
        key, n = jobstore.job_id_for("f" * 64), 2
        key = "f" * 64
        rec, _ = jobstore.submit(key, n, SPEC)
        jobstore.record_state(rec.job_id, "failed", error="boom")
        assert jobstore.load(rec.job_id).state == "failed"
        rec2, created = jobstore.submit(key, n, SPEC)
        assert not created and rec2.state == "queued"

    def test_corrupt_record_lines_are_skipped(self, cache_env):
        key = "a" * 64
        rec, _ = jobstore.submit(key, 2, SPEC)
        path = os.path.join(jobstore.job_dir(rec.job_id), "record.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "state", "state": "done"}\n')  # no digest
            fh.write("not json at all\n")
        reloaded = jobstore.load(rec.job_id)
        assert reloaded.state == "queued"  # forged/torn lines ignored
        jobstore.record_state(rec.job_id, "running", owner="t")
        assert jobstore.load(rec.job_id).state == "running"

    def test_resolve_prefix(self, cache_env):
        key, n = scheduler.spec_key(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        assert jobstore.resolve(rec.job_id[:6]) == rec.job_id
        assert jobstore.resolve("zzzz") is None


# ----------------------------------------------------------------------
# Leases: acquire, renew, expiry, adoption
# ----------------------------------------------------------------------

class TestLeases:
    def test_acquire_renew_release(self, cache_env):
        lease = jobstore.acquire("job1")
        assert lease is not None and not lease.adopted
        assert jobstore.lease_state("job1")[0] == "live"
        lease.renew()
        assert jobstore.lease_state("job1")[0] == "live"
        # Second acquisition is refused while the owner lives.
        assert jobstore.acquire("job1") is None
        lease.release()
        assert jobstore.lease_state("job1")[0] == "none"

    def test_ttl_expiry_makes_lease_stale(self, cache_env, monkeypatch):
        lease = jobstore.acquire("job1", ttl=100.0)
        state, doc = jobstore.lease_state("job1", now=time.time() + 101.0)
        assert state == "stale"
        taken = jobstore.acquire("job1")  # dead-pid probe: same live pid
        assert taken is None or taken.adopted  # TTL not yet expired in real time

    def test_dead_owner_is_adoptable_immediately(self, cache_env):
        lease = jobstore.acquire("job1")
        # Forge the lease to a dead same-host pid: adoptable at once,
        # regardless of TTL.
        doc = jobstore._read_lease("job1")
        doc["pid"] = 2 ** 22 + 1  # beyond default pid_max
        jobstore._write_lease("job1", doc)
        assert jobstore.lease_state("job1")[0] == "stale"
        adopted = jobstore.acquire("job1")
        assert adopted is not None and adopted.adopted
        adopted.release()

    def test_acquire_race_has_one_winner(self, cache_env):
        a = jobstore.acquire("job1")
        assert a is not None
        a.release()
        b = jobstore.acquire("job1")
        # a's token no longer matches; releasing again must not clobber b.
        a.release()
        assert jobstore.lease_state("job1")[0] == "live"
        b.release()


# ----------------------------------------------------------------------
# Scheduler: run, dedup, adoption, cancel, max-jobs gate
# ----------------------------------------------------------------------

class TestScheduler:
    def test_submit_and_run_completes_and_seals(self, cache_env):
        out = scheduler.submit_and_run(SPEC, retry=FAST)
        assert out.state == "done" and not out.attached
        assert out.sealed and out.result is not None
        assert jobstore.load(out.job_id).state == "done"
        key, n = scheduler.spec_key(SPEC)
        assert load_sealed(key, n) is not None
        assert not os.path.exists(journal_path(key))  # compacted away

    def test_duplicate_submission_answers_sealed_zero_sims(self, cache_env):
        first = scheduler.submit_and_run(SPEC, retry=FAST)
        second = scheduler.submit_and_run(SPEC, retry=FAST)
        assert second.attached and second.sealed
        assert second.result.sources == ["sealed"] * 2
        assert payloads(first.result) == payloads(second.result)  # bitwise

    def test_sealed_answer_matches_plain_sweep(self, cache_env):
        """The sealed warm path is bitwise-identical to direct sweep()."""
        out = scheduler.submit_and_run(SPEC, retry=FAST)
        net, policy, axis_name, values, factory = scheduler.resolve_spec(SPEC)
        direct = sweep(net, axis_name, values, factory, policy,
                       SPEC.get("layers"))
        assert payloads(out.result) == payloads(direct)

    def test_adoption_resumes_bitwise(self, cache_env):
        """A dead owner's journal is adopted and finished identically."""
        baseline = scheduler.submit_and_run(SPEC, retry=FAST)
        # Fresh grid (different values) interrupted after one point:
        spec = {**SPEC, "values": [1, 2, 4]}
        key, n = scheduler.spec_key(spec)
        net, policy, axis_name, values, factory = scheduler.resolve_spec(spec)
        clean = sweep(net, axis_name, values, factory, policy, spec["layers"])
        # Simulate the dead owner: journal one point, leave a stale lease.
        journal = Journal.open(key, n)
        journal.record_point(0, clean.stats[0], "captured")
        journal.close()
        rec, _ = jobstore.submit(key, n, spec)
        jobstore.record_state(rec.job_id, "running", owner="dead")
        lease = jobstore.acquire(rec.job_id)
        doc = jobstore._read_lease(rec.job_id)
        doc["pid"] = 2 ** 22 + 1
        jobstore._write_lease(rec.job_id, doc)
        out = scheduler.submit_and_run(spec, retry=FAST)
        assert out.adopted and out.state == "done"
        assert out.result.sources[0] in ("journal", "sealed")
        assert payloads(out.result) == [stats_payload(s) for s in clean.stats]

    def test_attach_no_wait_reports_live_owner(self, cache_env):
        key, n = scheduler.spec_key(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        lease = jobstore.acquire(rec.job_id)
        jobstore.record_state(rec.job_id, "running", owner=lease.token)
        out = scheduler.submit_and_run(SPEC, wait=False)
        assert out.attached and out.state == "running"
        assert out.result is None  # attached, simulated nothing
        lease.release()

    def test_cancel_queued_job_is_immediate(self, cache_env):
        key, n = scheduler.spec_key(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        assert jobstore.request_cancel(rec.job_id) == "cancelled"
        assert jobstore.load(rec.job_id).state == "cancelled"
        assert not jobstore.cancel_requested(rec.job_id)  # marker consumed
        # Resubmission expresses fresh intent: requeued and runnable.
        out = scheduler.submit_and_run(SPEC, retry=FAST)
        assert out.state == "done"

    def test_cancel_mid_run_via_heartbeat(self, cache_env):
        """A pre-armed cancel marker stops the run at the first beat."""
        key, n = scheduler.spec_key(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        lease = jobstore.acquire(rec.job_id)
        # Running owner exists, so request_cancel leaves the marker.
        jobstore.record_state(rec.job_id, "running", owner=lease.token)
        assert jobstore.request_cancel(rec.job_id) == "cancel-requested"
        assert jobstore.cancel_requested(rec.job_id)
        hb = scheduler.Heartbeat(lease)
        with pytest.raises(scheduler.JobCancelled):
            hb()
        lease.release()

    def test_max_jobs_gate_queues(self, cache_env, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_JOBS", "1")
        other_key = "b" * 64
        rec, _ = jobstore.submit(other_key, 1, {**SPEC, "values": [9]})
        lease = jobstore.acquire(rec.job_id)
        jobstore.record_state(rec.job_id, "running", owner=lease.token)
        out = scheduler.submit_and_run(SPEC, wait=False)
        assert out.state == "queued" and out.result is None
        lease.release()
        out = scheduler.submit_and_run(SPEC, wait=False, retry=FAST)
        assert out.state == "done"


# ----------------------------------------------------------------------
# Sealing: round-trip safety, crash window, corruption
# ----------------------------------------------------------------------

class TestSealing:
    def _complete_journal(self, spec=SPEC):
        net, policy, axis_name, values, factory = scheduler.resolve_spec(spec)
        result = sweep(net, axis_name, values, factory, policy,
                       spec["layers"], resume=True)
        key, n = scheduler.spec_key(spec)
        return key, n, result

    def test_seal_round_trip_then_unlink(self, cache_env):
        key, n, result = self._complete_journal()
        assert os.path.exists(journal_path(key))
        sealed = seal_journal(key, n, meta={"net": SPEC["net"]})
        assert sealed is not None
        assert not os.path.exists(journal_path(key))
        loaded = load_sealed(key, n)
        assert loaded["meta"]["net"] == SPEC["net"]
        assert [p for p in loaded["points"]] == payloads(result)

    def test_seal_requires_complete_journal(self, cache_env):
        journal = Journal.open("c" * 64, 3)
        net, policy, axis_name, values, factory = scheduler.resolve_spec(SPEC)
        stats = sweep(net, axis_name, values, factory, policy, 1).stats
        journal.record_point(0, stats[0], "captured")
        journal.close()
        assert seal_journal("c" * 64, 3) is None
        assert os.path.exists(journal_path("c" * 64))  # untouched

    def test_crash_between_write_and_unlink_is_recoverable(
        self, cache_env, fault_env
    ):
        """The compaction crash window leaves a valid (sealed, journal)
        pair; either half answers, and gc finishes the protocol."""
        key, n, result = self._complete_journal()
        fault_env(FaultSpec(site="journal.seal", kind="raise"))
        with pytest.raises(Exception):
            seal_journal(key, n)
        # Both halves exist and agree.
        assert os.path.exists(sealed_path(key))
        assert os.path.exists(journal_path(key))
        assert load_sealed(key, n) is not None
        # gc (faults disarmed) completes write -> verify -> unlink.
        os.environ.pop(FAULTS_ENV, None)
        rec, _ = jobstore.submit(key, n, SPEC)
        actions = jobstore.gc_state()
        assert any(a["kind"] == "journal" for a in actions)
        assert not os.path.exists(journal_path(key))
        assert load_sealed(key, n) is not None

    def test_corrupt_sealed_record_quarantined_journal_wins(self, cache_env):
        key, n, result = self._complete_journal()
        sealed = seal_journal(key, n)
        assert sealed is not None
        path = sealed_path(key)
        with open(path, "r+", encoding="utf-8") as fh:
            doc = json.load(fh)
            doc["payload"]["points"][0]["fields"]["cycles"] = 0.0
            fh.seek(0)
            json.dump(doc, fh)
            fh.truncate()
        assert load_sealed(key, n) is None  # digest check fails
        assert not os.path.exists(path)  # never served twice
        assert list_quarantined()
        # The next resume run recomputes (and can re-seal).
        net, policy, axis_name, values, factory = scheduler.resolve_spec(SPEC)
        again = sweep(net, axis_name, values, factory, policy,
                      SPEC["layers"], resume=True)
        assert payloads(again) == payloads(result)

    def test_sweep_resume_answers_from_sealed(self, cache_env):
        key, n, result = self._complete_journal()
        seal_journal(key, n)
        net, policy, axis_name, values, factory = scheduler.resolve_spec(SPEC)
        warm = sweep(net, axis_name, values, factory, policy,
                     SPEC["layers"], resume=True)
        assert warm.sources == ["sealed"] * n
        assert payloads(warm) == payloads(result)

    def test_list_sealed_reports(self, cache_env):
        key, n, _ = self._complete_journal()
        seal_journal(key, n, meta={"job_id": "x"})
        rows = list_sealed()
        assert len(rows) == 1
        assert rows[0]["sweep_key"] == key and rows[0]["n_points"] == n


# ----------------------------------------------------------------------
# GC policy
# ----------------------------------------------------------------------

class TestGc:
    def test_gc_empty_store_is_noop(self, cache_env):
        assert jobstore.gc_state() == []

    def test_gc_prunes_stale_lease_and_cancel_marker(self, cache_env):
        key, n = scheduler.spec_key(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        lease = jobstore.acquire(rec.job_id)
        doc = jobstore._read_lease(rec.job_id)
        doc["pid"] = 2 ** 22 + 1
        jobstore._write_lease(rec.job_id, doc)
        jobstore.record_state(rec.job_id, "done")
        # Forge a leftover cancel marker on the terminal job.
        with open(os.path.join(jobstore.job_dir(rec.job_id), "cancel.json"),
                  "w", encoding="utf-8") as fh:
            fh.write("{}")
        dry = jobstore.gc_state(dry_run=True)
        assert {a["kind"] for a in dry} == {"lease", "cancel-marker"}
        assert all(a["action"] == "would-remove" for a in dry)
        # Dry run removed nothing.
        assert jobstore.cancel_requested(rec.job_id)
        wet = jobstore.gc_state()
        assert {a["kind"] for a in wet} == {"lease", "cancel-marker"}
        assert not jobstore.cancel_requested(rec.job_id)
        assert jobstore.lease_state(rec.job_id)[0] == "none"
        # Job record survives: it is the durable answer's address.
        assert jobstore.load(rec.job_id) is not None

    def test_gc_keeps_live_state(self, cache_env):
        key, n = scheduler.spec_key(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        lease = jobstore.acquire(rec.job_id)
        jobstore.record_state(rec.job_id, "running", owner=lease.token)
        assert jobstore.gc_state() == []
        lease.release()

    def test_gc_prunes_orphan_quarantine_sidecar(self, cache_env):
        from repro.core.resilience import quarantine, quarantine_dir

        victim = cache_env / "bad.json"
        victim.write_text("junk")
        quarantine(str(victim), "test corruption")
        # Delete the quarantined data file, orphaning its sidecar.
        qdir = quarantine_dir()
        for name in sorted(os.listdir(qdir)):
            if not name.endswith(".reason.json"):
                os.unlink(os.path.join(qdir, name))
        actions = jobstore.gc_state()
        assert [a["kind"] for a in actions] == ["sidecar"]
        assert os.listdir(qdir) == []


# ----------------------------------------------------------------------
# Analysis integration: stale-lease vs orphaned-journal
# ----------------------------------------------------------------------

class TestCacheStateRules:
    def _orphan_journal(self, spec):
        key, n = scheduler.spec_key(spec)
        net, policy, axis_name, values, factory = scheduler.resolve_spec(spec)
        stats = sweep(net, axis_name, values, factory, policy, 1).stats
        journal = Journal.open(key, n)
        journal.record_point(0, stats[0], "captured")
        journal.close()
        return key, n

    def test_unaddressed_journal_is_orphaned(self, cache_env):
        from repro.analysis.cachestate import cache_state_findings

        self._orphan_journal(SPEC)
        findings = cache_state_findings(min_age_s=0.0)
        assert [f.rule for f in findings] == ["sweep/orphaned-journal"]

    def test_stale_leased_journal_is_adoptable(self, cache_env):
        from repro.analysis.cachestate import cache_state_findings

        key, n = self._orphan_journal(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        jobstore.record_state(rec.job_id, "running", owner="dead")
        lease = jobstore.acquire(rec.job_id)
        doc = jobstore._read_lease(rec.job_id)
        doc["pid"] = 2 ** 22 + 1
        jobstore._write_lease(rec.job_id, doc)
        findings = cache_state_findings(min_age_s=0.0)
        assert [f.rule for f in findings] == ["sweep/stale-lease"]
        assert findings[0].detail["job"] == rec.job_id
        assert "repro submit" in findings[0].message

    def test_live_leased_journal_is_silent(self, cache_env):
        from repro.analysis.cachestate import cache_state_findings

        key, n = self._orphan_journal(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        lease = jobstore.acquire(rec.job_id)
        jobstore.record_state(rec.job_id, "running", owner=lease.token)
        assert cache_state_findings(min_age_s=0.0) == []
        lease.release()

    def test_stale_lease_rule_is_registered(self):
        from repro.analysis.rules import RULES

        assert "sweep/stale-lease" in RULES
        severity, pass_name, _desc = RULES["sweep/stale-lease"]
        assert severity == "warning" and pass_name == "cachestate"


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

SUBMIT = ["submit", "--net", "yolov3-tiny", "--layers", "2",
          "--axis", "cache", "--values", "1", "2"]


class TestSpecResolution:
    """``repro sweep`` and ``repro submit`` resolve specs one way."""

    @pytest.mark.parametrize("machine,axis,factory,values", [
        ("rvv", "vlen", lambda v: rvv_gem5(vlen_bits=v, lanes=8, l2_mb=1),
         [512, 1024, 2048, 4096, 8192, 16384]),
        ("sve", "vlen", lambda v: sve_gem5(vlen_bits=v, l2_mb=1), [512, 1024, 2048]),
        ("rvv", "cache", lambda mb: rvv_gem5(vlen_bits=512, lanes=8, l2_mb=mb),
         [1, 8, 64, 256]),
        ("sve", "cache", lambda mb: sve_gem5(vlen_bits=512, l2_mb=mb), [1, 8, 64, 256]),
        ("rvv", "lanes", lambda l: rvv_gem5(vlen_bits=512, lanes=l, l2_mb=1), [2, 4, 8]),
    ])
    def test_rvv_and_sve_specs_keep_their_key(self, machine, axis, factory, values):
        """Each buildable spec sweeps the machines the CLI always built
        for it (default grid, SVE clamp), so its sweep key and job id
        stay put."""
        spec = {**SPEC, "machine": machine, "axis": axis, "values": None}
        net, policy, axis_name, got_values, _ = scheduler.resolve_spec(spec)
        assert got_values == values
        key = sweep_key(
            net, axis_name, values, [factory(v) for v in values], policy, 2
        )
        assert scheduler.spec_key(spec) == (key, len(values))

    @pytest.mark.parametrize("machine,axis", [
        ("a64fx", "vlen"), ("a64fx", "cache"), ("a64fx", "lanes"), ("sve", "lanes"),
    ])
    def test_unbuildable_family_raises(self, machine, axis):
        with pytest.raises(ValueError, match=f"cannot sweep machine '{machine}'"):
            scheduler.resolve_spec({**SPEC, "machine": machine, "axis": axis})

    def test_unknown_axis_raises(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            scheduler.resolve_spec({**SPEC, "axis": "l1"})


class TestCli:
    def test_submit_status_results_roundtrip(self, cache_env, capsys):
        assert cli_main([*SUBMIT, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "done" and doc["sealed"]
        job = doc["job"]
        assert cli_main(["status", job, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "done" and status["sealed"]
        assert cli_main(["results", job, "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert results["sealed"]
        # Bitwise: results' stats equal the submit run's stats.
        assert [p["stats"] for p in results["points"]] == \
            [p["stats"] for p in doc["points"]]

    def test_submit_dedup_via_cli(self, cache_env, capsys):
        assert cli_main([*SUBMIT, "--json"]) == 0
        capsys.readouterr()
        assert cli_main([*SUBMIT, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["attached"] and doc["sealed"]
        assert [p["source"] for p in doc["points"]] == ["sealed", "sealed"]

    def test_jobs_list_and_gc(self, cache_env, capsys):
        assert cli_main([*SUBMIT, "--json"]) == 0
        capsys.readouterr()
        assert cli_main(["jobs", "list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing["jobs"]) == 1
        assert listing["jobs"][0]["sealed"] is True
        assert cli_main(["jobs", "gc", "--dry-run", "--json"]) == 0
        gc = json.loads(capsys.readouterr().out)
        assert gc["summary"]["dry_run"] is True

    def test_cancel_queued_via_cli(self, cache_env, capsys):
        key, n = scheduler.spec_key(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        assert cli_main(["cancel", rec.job_id, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "cancelled"

    def test_unknown_job_exits_2(self, cache_env, capsys):
        assert cli_main(["status", "nope"]) == 2
        assert cli_main(["results", "nope"]) == 2
        assert cli_main(["cancel", "nope"]) == 2
        capsys.readouterr()

    def test_results_partial_journal_exits_1(self, cache_env, capsys):
        key, n = scheduler.spec_key(SPEC)
        net, policy, axis_name, values, factory = scheduler.resolve_spec(SPEC)
        stats = sweep(net, axis_name, values, factory, policy, 1).stats
        journal = Journal.open(key, n)
        journal.record_point(0, stats[0], "captured")
        journal.close()
        rec, _ = jobstore.submit(key, n, SPEC)
        assert cli_main(["results", rec.job_id, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["points_available"] == 1 and not doc["sealed"]

    def test_dry_run_reports_sealed_grid(self, cache_env, capsys):
        assert cli_main([*SUBMIT, "--json"]) == 0
        capsys.readouterr()
        args = ["sweep", "--net", "yolov3-tiny", "--layers", "2",
                "--axis", "cache", "--values", "1", "2", "--dry-run",
                "--json"]
        assert cli_main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["sealed"] is True
        assert doc["summary"]["estimated_kernel_runs"] == 0

    def test_dry_run_reports_stale_lease(self, cache_env, capsys):
        key, n = scheduler.spec_key(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        jobstore.record_state(rec.job_id, "running", owner="dead")
        lease = jobstore.acquire(rec.job_id)
        doc = jobstore._read_lease(rec.job_id)
        doc["pid"] = 2 ** 22 + 1
        jobstore._write_lease(rec.job_id, doc)
        args = ["sweep", "--net", "yolov3-tiny", "--layers", "2",
                "--axis", "cache", "--values", "1", "2", "--dry-run",
                "--json"]
        assert cli_main(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["job"] == rec.job_id
        assert out["summary"]["job_state"] == "running"
        assert out["summary"]["lease"] == "stale"


# ----------------------------------------------------------------------
# Fault sites are registered and wired
# ----------------------------------------------------------------------

class TestFaultSites:
    def test_registry_names_every_site(self):
        assert jobstore.FAULT_SITES == (
            "jobs.record", "jobs.lease", "jobs.heartbeat", "jobs.adopt",
            "jobs.cancel", "journal.seal",
        )

    def test_lease_write_fault_fires(self, cache_env, fault_env):
        from repro.testing.faults import InjectedFault

        fault_env(FaultSpec(site="jobs.lease", kind="raise"))
        with pytest.raises(InjectedFault):
            jobstore.acquire("job1")
        # The crash happened before the write: no lease on disk.
        assert jobstore.lease_state("job1")[0] == "none"

    def test_heartbeat_fault_fires(self, cache_env, fault_env):
        from repro.testing.faults import InjectedFault

        lease = jobstore.acquire("job1")
        fault_env(FaultSpec(site="jobs.heartbeat", kind="raise"))
        with pytest.raises(InjectedFault):
            lease.renew()
        lease.release()

    def test_adopt_fault_fires_only_on_adoption(self, cache_env, fault_env):
        from repro.testing.faults import InjectedFault

        fault_env(FaultSpec(site="jobs.adopt", kind="raise"))
        lease = jobstore.acquire("job1")  # fresh acquire: no adoption
        assert lease is not None
        doc = jobstore._read_lease("job1")
        doc["pid"] = 2 ** 22 + 1
        jobstore._write_lease("job1", doc)
        with pytest.raises(InjectedFault):
            jobstore.acquire("job1")
        # The adopting write landed before the fault: the store shows
        # a fresh live lease (ours), exactly what the read-back would
        # have verified.
        assert jobstore.lease_state("job1")[0] == "live"

    def test_cancel_fault_leaves_no_marker(self, cache_env, fault_env):
        from repro.testing.faults import InjectedFault

        key, n = scheduler.spec_key(SPEC)
        rec, _ = jobstore.submit(key, n, SPEC)
        lease = jobstore.acquire(rec.job_id)
        jobstore.record_state(rec.job_id, "running", owner=lease.token)
        fault_env(FaultSpec(site="jobs.cancel", kind="raise"))
        with pytest.raises(InjectedFault):
            jobstore.request_cancel(rec.job_id)
        assert not jobstore.cancel_requested(rec.job_id)
        lease.release()
