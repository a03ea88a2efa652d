"""Integration tests for the lease-based work-stealing sweep coordinator.

The contracts under test (ARCHITECTURE.md §8 "Sweep coordinator contract"):

* lease acquire is single-winner (exclusive create), renewal moves the
  heartbeat, staleness is judged against the TTL, and reclaim of a stale
  lease is single-winner too (rename tombstone);
* a coordinated drain — any worker count, any interleaving, including a
  worker killed mid-lease and reclaimed after the TTL — produces a merged
  report byte-identical to the unsharded serial run (summary text and
  ``--json`` bytes), with exactly one store record per point in the
  crash-free paths;
* claims prefer the worker's current locality group, enter idle groups
  before stealing, and steal from the most-loaded active group;
* ``gc-results`` removes orphaned/stale leases, ``merge-results`` warns on
  live ones, and ``sweep-status`` renders per-group/per-worker progress.
"""

import json
import multiprocessing
import time

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.coordinator import (
    CoordinatedBackend,
    drain_store,
    gc_leases,
    lease_path,
    live_leases,
    read_lease,
    reclaim_lease,
    release_lease,
    renew_lease,
    sweep_status,
    try_acquire_lease,
)
from repro.experiments.registry import (
    GridScenario,
    run_scenario,
    run_scenario_coordinated,
    sweep_status_scenario,
)
from repro.experiments.results import ResultsStore, collect_results
from repro.experiments.runner import (
    ScenarioSpec,
    SerialBackend,
    TopologySpec,
    compile_group_key,
    group_label,
    run_grid,
    spec_hash,
)
from repro.nputil import HAVE_NUMPY

#: Tests that execute scenario points generate traffic, which draws from
#: numpy's PCG64 streams (the ``collect_ignore`` rationale in
#: tests/conftest.py).  The lease primitives and argument checks run without.
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="runs scenario points, whose traffic generation needs numpy")

TINY = ExperimentConfig(workload_duration=1.5, run_duration=20.0, loads=(0.4,),
                        websearch_scale=0.05, cache_scale=0.2)


def tiny_topology():
    return TopologySpec("fattree", k=4, capacity=TINY.host_capacity,
                        oversubscription=TINY.oversubscription)


def tiny_specs(systems=("ecmp", "contra"), loads=(0.4,)):
    return [
        ScenarioSpec(name=f"coord-test:{system}-{load}", system=system,
                     topology=tiny_topology(), config=TINY,
                     workload="web_search", load=load, seed=TINY.seed,
                     stop_after_completion=True)
        for system in systems for load in loads
    ]


KEY = "ab" * 32     # a syntactically valid spec-hash key for lease unit tests


class TestLeasePrimitives:
    def test_acquire_is_exclusive(self, tmp_path):
        assert try_acquire_lease(tmp_path, KEY, "w0", now=100.0)
        assert not try_acquire_lease(tmp_path, KEY, "w1", now=100.0)
        info = read_lease(tmp_path, KEY, now=101.0)
        assert info.owner == "w0" and not info.stale

    def test_renew_moves_the_heartbeat_and_keeps_acquire_time(self, tmp_path):
        try_acquire_lease(tmp_path, KEY, "w0", now=100.0)
        renew_lease(tmp_path, KEY, "w0", now=120.0)
        info = read_lease(tmp_path, KEY, now=121.0)
        assert info.heartbeat_unix == 120.0
        assert info.acquired_unix == 100.0
        assert not info.stale

    def test_staleness_is_judged_against_the_ttl(self, tmp_path):
        try_acquire_lease(tmp_path, KEY, "w0", now=100.0)
        assert not read_lease(tmp_path, KEY, now=100.0 + 29, ttl=30.0).stale
        assert read_lease(tmp_path, KEY, now=100.0 + 31, ttl=30.0).stale

    def test_reclaim_is_single_winner(self, tmp_path):
        try_acquire_lease(tmp_path, KEY, "dead", now=0.0)
        assert reclaim_lease(tmp_path, KEY, "w1")
        assert not reclaim_lease(tmp_path, KEY, "w2")
        assert read_lease(tmp_path, KEY) is None
        assert not list(tmp_path.glob("lease-*")), "reclaim left debris"

    def test_release_refuses_anothers_lease(self, tmp_path):
        try_acquire_lease(tmp_path, KEY, "w0", now=100.0)
        assert not release_lease(tmp_path, KEY, owner="w1")
        assert read_lease(tmp_path, KEY).owner == "w0"
        assert release_lease(tmp_path, KEY, owner="w0")
        assert read_lease(tmp_path, KEY) is None

    def test_unreadable_lease_counts_as_live_via_mtime(self, tmp_path):
        # A reader can catch a lease between create and content flush; it
        # must look freshly live, never reclaimable garbage.
        lease_path(tmp_path, KEY).write_text("")
        info = read_lease(tmp_path, KEY, ttl=30.0)
        assert info is not None and not info.stale

    def test_gc_leases_removes_orphaned_and_stale_only(self, tmp_path):
        done, pending, gone = "aa" * 32, "bb" * 32, "cc" * 32
        now = 1000.0
        try_acquire_lease(tmp_path, done, "w0", now=now)      # point complete
        try_acquire_lease(tmp_path, pending, "w0", now=now)   # live, pending
        try_acquire_lease(tmp_path, gone, "w0", now=now)      # not in grid
        removed, live = gc_leases(tmp_path, valid_keys={done, pending},
                                  completed_keys={done}, ttl=30.0,
                                  now=now + 1)
        assert (removed, live) == (2, 1)
        assert read_lease(tmp_path, pending) is not None
        removed, live = gc_leases(tmp_path, valid_keys={done, pending},
                                  completed_keys={done}, ttl=30.0,
                                  now=now + 31)               # now stale too
        assert (removed, live) == (1, 0)
        assert not list(tmp_path.glob("lease-*"))


class TestLocalityGroups:
    def test_compile_group_key_matches_the_compile_cache(self):
        ecmp, contra = tiny_specs(("ecmp", "contra"))
        assert compile_group_key(ecmp) == ("", ecmp.topology)
        assert compile_group_key(contra) == (contra.policy, contra.topology)

    def test_group_labels_are_readable(self):
        ecmp, contra = tiny_specs(("ecmp", "contra"))
        assert group_label(compile_group_key(ecmp)) == "fattree(k=4)"
        assert "fattree(k=4)+" in group_label(compile_group_key(contra))

    @needs_numpy
    def test_drain_visits_each_group_once(self, tmp_path):
        # Grid order interleaves the groups; a locality-preferring drain
        # still executes group-by-group (one compile per group, not per
        # point) — the accounting must show each group entered exactly once.
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        backend = CoordinatedBackend(tmp_path, owner="solo")
        backend.run(specs)
        assert backend.executed == len(specs)
        assert backend.stolen == 0 and backend.reclaimed == 0
        assert len(backend.groups_entered) == 2
        assert len(set(backend.groups_entered)) == 2

    @needs_numpy
    def test_claims_skip_points_under_anothers_live_lease(self, tmp_path):
        specs = tiny_specs(("ecmp", "hula"))
        keys = [spec_hash(spec) for spec in specs]
        try_acquire_lease(tmp_path, keys[0], "other")
        backend = CoordinatedBackend(tmp_path, owner="me")
        backend.drain(specs)
        assert backend.executed == 1          # only the unleased point
        assert keys[1] in ResultsStore(tmp_path).load()
        assert keys[0] not in ResultsStore(tmp_path).load()

    @needs_numpy
    def test_orphaned_lease_on_completed_point_is_ignored(self, tmp_path):
        # A worker killed between record and release leaves a lease on a
        # *complete* point; it must not wedge (or even delay) other workers.
        specs = tiny_specs(("ecmp",))
        key = spec_hash(specs[0])
        solo = CoordinatedBackend(tmp_path, owner="w0")
        solo.run(specs)
        try_acquire_lease(tmp_path, key, "dead")
        done = CoordinatedBackend(tmp_path, owner="w1")
        results = done.run(specs)
        assert done.executed == 0 and done.idle_s == 0.0
        assert len(results) == 1


class TestCoordinatedByteIdentity:
    @needs_numpy
    def test_single_worker_matches_serial(self, tmp_path):
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        serial = run_grid(specs, backend=SerialBackend())
        coordinated = run_grid(specs, backend=CoordinatedBackend(tmp_path))
        assert [r.summary for r in coordinated] == [r.summary for r in serial]
        assert not live_leases(tmp_path), "drain left leases behind"
        merged = collect_results(specs, ResultsStore(tmp_path))
        assert [r.summary for r in merged] == [r.summary for r in serial]

    @needs_numpy
    def test_two_processes_one_store_converge(self, tmp_path):
        """Two real concurrent drain processes + the parent as collector."""
        specs = tiny_specs(("ecmp", "contra", "hula"), loads=(0.4, 0.6))
        serial = run_grid(specs, backend=SerialBackend())
        ctx = multiprocessing.get_context("fork")
        workers = [ctx.Process(target=drain_store, args=(specs, tmp_path),
                               kwargs={"owner": f"w{i}", "ttl": 10.0})
                   for i in range(2)]
        for worker in workers:
            worker.start()
        collector = CoordinatedBackend(tmp_path, owner="collector", ttl=10.0,
                                       poll_interval=0.05)
        results = collector.run(specs)
        for worker in workers:
            worker.join()
            assert worker.exitcode == 0
        assert [r.summary for r in results] == [r.summary for r in serial]
        assert not live_leases(tmp_path)
        # Every point executed exactly once across the three drains:
        # the records' owner tags partition the grid.
        records = [json.loads(line)
                   for file in tmp_path.glob("results-worker-*.jsonl")
                   for line in file.read_text().splitlines()]
        assert sorted(record["spec_hash"] for record in records) == \
            sorted(spec_hash(spec) for spec in specs)

    @needs_numpy
    def test_killed_worker_is_reclaimed_and_report_is_identical(self, tmp_path):
        """The crash-safety satellite: die mid-lease, TTL lapse, reclaim."""
        class DiesAfterOne(SerialBackend):
            def __init__(self):
                super().__init__()
                self.ran = 0

            def run_iter_timed(self, inner_specs):
                # The coordinator feeds one spec per call; crash on the
                # second *call*, after the lease for it was acquired.
                self.ran += 1
                if self.ran > 1:
                    raise KeyboardInterrupt("simulated crash")
                yield from super().run_iter_timed(inner_specs)

        specs = tiny_specs(("ecmp", "hula", "contra"))
        serial = run_grid(specs, backend=SerialBackend())
        victim = CoordinatedBackend(tmp_path, inner=DiesAfterOne(),
                                    owner="victim", ttl=0.5)
        with pytest.raises(KeyboardInterrupt):
            victim.drain(specs)
        assert len(ResultsStore(tmp_path).load()) == 1
        orphans = live_leases(tmp_path)
        assert len(orphans) == 1 and orphans[0].owner == "victim"

        time.sleep(0.6)                       # let the orphan lease go stale
        rescuer = CoordinatedBackend(tmp_path, owner="rescuer", ttl=0.5,
                                     poll_interval=0.05)
        results = rescuer.run(specs)
        assert rescuer.reclaimed >= 1
        assert [r.summary for r in results] == [r.summary for r in serial]
        assert not live_leases(tmp_path)
        # Exactly one record per point — the victim's completed point was
        # skipped, not re-executed.
        records = [json.loads(line)
                   for file in tmp_path.glob("results-worker-*.jsonl")
                   for line in file.read_text().splitlines()]
        assert sorted(r["spec_hash"] for r in records) == \
            sorted(spec_hash(spec) for spec in specs)

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ExperimentError, match="TTL"):
            CoordinatedBackend(tmp_path, ttl=0.0)


class TestSweepStatus:
    @needs_numpy
    def test_status_counts_groups_workers_and_leases(self, tmp_path):
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        backend = CoordinatedBackend(tmp_path, owner="w0")
        backend.run(specs[:3])                # one point left pending
        try_acquire_lease(tmp_path, spec_hash(specs[3]), "w1",
                          spec_name=specs[3].name)
        status = sweep_status(specs, tmp_path)
        assert (status.total, status.complete) == (4, 3)
        assert (status.leased, status.pending) == (1, 0)
        assert {group.label for group in status.groups} == \
            {group_label(compile_group_key(spec)) for spec in specs}
        by_owner = {worker.owner: worker for worker in status.workers}
        assert by_owner["w0"].executed == 3
        assert by_owner["w1"].current == specs[3].name
        rendered = status.render()
        assert "3/4 points complete" in rendered
        assert "w0" in rendered and "w1" in rendered


def _tiny_grid_entry():
    def build(config):
        return tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))

    def finish(config, results):
        from repro.experiments.registry import ScenarioOutcome
        return ScenarioOutcome(
            "fig13", json.dumps([r.summary for r in results], sort_keys=True),
            [r.summary for r in results])

    return GridScenario(build, finish)


class TestScenarioCoordination:
    @needs_numpy
    def test_coordinated_outcome_matches_unsharded(self, tmp_path, monkeypatch):
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        unsharded = run_scenario("fig13", TINY)
        coordinated = run_scenario_coordinated("fig13", TINY,
                                               str(tmp_path / "store"))
        assert coordinated.outcome.text == unsharded.text
        assert json.dumps(coordinated.outcome.payload, sort_keys=True) == \
            json.dumps(unsharded.payload, sort_keys=True)
        assert coordinated.total_points == 4
        assert sum(w["executed"] for w in coordinated.workers) == 4
        assert "coordinated drain" in coordinated.text

    @needs_numpy
    def test_two_invocations_split_the_work(self, tmp_path, monkeypatch):
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = str(tmp_path / "store")
        first = run_scenario_coordinated("fig13", TINY, store)
        second = run_scenario_coordinated("fig13", TINY, store)
        assert sum(w["executed"] for w in first.workers) == 4
        assert sum(w["executed"] for w in second.workers) == 0
        assert second.outcome.text == first.outcome.text

    def test_legacy_scenarios_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="not a single spec grid"):
            run_scenario_coordinated("ablations", TINY, str(tmp_path))
        with pytest.raises(ExperimentError, match="not a single spec grid"):
            sweep_status_scenario("ablations", TINY, str(tmp_path))

    def test_workers_must_be_positive(self, tmp_path):
        with pytest.raises(ExperimentError, match="workers"):
            run_scenario_coordinated("fig13", TINY, str(tmp_path), workers=0)


class TestCliCoordination:
    def test_coordinate_rejects_contradictory_flags(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit, match="mutually exclusive"):
            cli.main(["run-grid", "fig11", "--coordinate", str(tmp_path),
                      "--shard", "0/2", "--results-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="drop --results-dir"):
            cli.main(["run-grid", "fig11", "--coordinate", str(tmp_path),
                      "--results-dir", str(tmp_path)])
        with pytest.raises(SystemExit, match="--workers"):
            cli.main(["run-grid", "fig11", "--coordinate", str(tmp_path),
                      "--processes", "2"])
        with pytest.raises(SystemExit, match="--workers only applies"):
            cli.main(["run-grid", "fig11", "--workers", "2"])

    def test_sweep_status_requires_existing_dir(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit, match="does not exist"):
            cli.main(["sweep-status", "fig11",
                      "--results-dir", str(tmp_path / "nope")])

    @needs_numpy
    def test_cli_coordinate_end_to_end(self, tmp_path, capsys, monkeypatch):
        """Two sequential --coordinate invocations + sweep-status + gc.

        The second invocation executes nothing (the store is complete) but
        still prints the identical full report — the convergence contract —
        and its --json bytes match the plain unsharded run's exactly.
        """
        from repro import cli
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = tmp_path / "store"

        first_json = tmp_path / "first.json"
        assert cli.main(["run-grid", "fig13", "--coordinate", str(store),
                         "--json", str(first_json)]) == 0
        first_out = capsys.readouterr().out
        assert "coordinated drain: 4 of 4" in first_out

        second_json = tmp_path / "second.json"
        assert cli.main(["run-grid", "fig13", "--coordinate", str(store),
                         "--json", str(second_json)]) == 0
        second_out = capsys.readouterr().out
        assert "coordinated drain: 0 of 4" in second_out
        assert second_json.read_bytes() == first_json.read_bytes()

        unsharded_json = tmp_path / "unsharded.json"
        assert cli.main(["run-grid", "fig13", "--json",
                         str(unsharded_json)]) == 0
        capsys.readouterr()
        assert first_json.read_bytes() == unsharded_json.read_bytes()

        assert cli.main(["sweep-status", "fig13",
                         "--results-dir", str(store)]) == 0
        status_out = capsys.readouterr().out
        assert "4/4 points complete" in status_out

        # gc on the drained store: nothing stale, no leases, still complete.
        assert cli.main(["gc-results", "fig13",
                         "--results-dir", str(store)]) == 0
        gc_out = capsys.readouterr().out
        assert "kept 4 of 4" in gc_out
        assert cli.main(["merge-results", "fig13",
                         "--results-dir", str(store),
                         "--json", str(second_json)]) == 0
        capsys.readouterr()
        assert second_json.read_bytes() == unsharded_json.read_bytes()

    @needs_numpy
    def test_cli_merge_warns_on_live_leases(self, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = tmp_path / "store"
        assert cli.main(["run-grid", "fig13", "--coordinate", str(store)]) == 0
        capsys.readouterr()
        # Simulate a still-running drain holding a live lease post-record.
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        try_acquire_lease(store, spec_hash(specs[0]), "slow-worker")
        assert cli.main(["merge-results", "fig13",
                         "--results-dir", str(store)]) == 0
        captured = capsys.readouterr()
        assert "1 live lease(s) remain" in captured.err

    @needs_numpy
    def test_cli_gc_reports_lease_removal(self, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import registry
        monkeypatch.setitem(registry.SCENARIOS, "fig13", _tiny_grid_entry())
        store = tmp_path / "store"
        assert cli.main(["run-grid", "fig13", "--coordinate", str(store)]) == 0
        capsys.readouterr()
        specs = tiny_specs(("ecmp", "contra"), loads=(0.4, 0.6))
        try_acquire_lease(store, spec_hash(specs[0]), "dead")  # orphaned
        assert cli.main(["gc-results", "fig13",
                         "--results-dir", str(store)]) == 0
        gc_out = capsys.readouterr().out
        assert "1 orphaned/stale removed" in gc_out
        assert not list(store.glob("lease-*"))
