"""The chaos-soak acceptance bar and the report plumbing, for both ways
of running the storm: slot by slot, and as concurrent asyncio waves."""

import json

import pytest

from repro.cli import main
from repro.hardening.soak import SoakConfig, run_soak


def run_aio(**kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("negotiations", 60)
    kwargs.setdefault("roles", 3)
    kwargs.setdefault("asyncio_mode", True)
    return run_soak(SoakConfig(**kwargs))


class TestChaosSoakAcceptance:
    def test_2000_negotiations_zero_violations(self):
        """The PR's acceptance criterion: a seeded soak of >= 2000
        mixed negotiations under adversarial faults and overload
        completes with zero invariant violations and zero unhandled
        exceptions."""
        report = run_soak(SoakConfig(seed=7, negotiations=2000))
        assert report.ok, report.to_json()
        assert report.violations == []
        assert report.unhandled == []
        # The storm actually happened: every subsystem was exercised.
        assert report.successes > 0
        assert sum(report.probes_fired.values()) > 0
        assert report.probe_rejections > 0
        assert report.probe_anomalies == []
        assert report.admission_shed > 0
        assert report.admission_expired > 0
        assert report.guard_rejected > 0
        assert report.backpressure_waits > 0
        assert report.reaped > 0
        assert report.byzantine_attempts > 0
        assert report.byzantine_successes == 0
        assert report.internal_errors == 0
        assert report.fuzz_probes > 0
        assert report.fuzz_failures == []
        assert report.summary().startswith("PASS")

    def test_sequential_cluster_hedges_and_ejects_slow_shard(self):
        report = run_soak(SoakConfig(
            seed=7, negotiations=120, roles=3, cluster_shards=3,
        ))
        assert report.ok, report.to_json()
        # The SLOW drill on shard 0 makes hedges fire and the health
        # tracker eject the degraded shard, then readmit it once the
        # fault's strike budget is spent.
        assert report.hedges_fired > 0
        assert report.hedges_won <= report.hedges_fired
        assert report.shard_ejections >= 1
        assert report.shard_readmissions == report.shard_ejections
        assert report.health_probes >= 1


class TestAsyncioSoakAcceptance:
    def test_sharded_storm_with_kills_zero_violations(self):
        report = run_aio(
            negotiations=80, cluster_shards=3, node_kill_every=25,
            byzantine_every=20,
        )
        assert report.ok, report.to_json()
        assert report.violations == []
        assert report.unhandled == []
        assert report.successes > 0
        assert report.byzantine_attempts > 0
        assert report.byzantine_successes == 0
        assert report.internal_errors == 0
        # the storm exercised the cluster machinery under concurrency
        assert report.node_kills > 0
        assert report.failovers > 0
        assert report.sessions_recovered >= 1
        assert report.fuzz_probes > 0
        assert report.fuzz_failures == []
        assert report.summary().startswith("PASS")

    def test_hedging_and_health_active_with_shards(self):
        report = run_aio(negotiations=80, cluster_shards=3)
        assert report.ok, report.to_json()
        # the SLOW drill on shard 0 makes hedges fire and the health
        # tracker eject (and later readmit) the degraded shard
        assert report.hedges_fired > 0
        assert report.hedges_won <= report.hedges_fired
        assert report.shard_ejections >= 1
        assert report.shard_readmissions >= 1
        assert report.health_probes >= 1

    def test_single_service_mode(self):
        report = run_aio(negotiations=40)
        assert report.ok, report.to_json()
        assert report.hedges_fired == 0  # nothing to hedge against
        assert report.node_kills == 0

    def test_retraction_drills_run_concurrently(self):
        report = run_aio(negotiations=60, retract_every=10)
        assert report.ok, report.to_json()
        assert report.retraction_drills > 0
        assert report.stale_completions == 0


class TestSoakDeterminismAndReport:
    """Run slot by slot; the subclass below reruns every test here with
    the storm in concurrent asyncio waves."""

    asyncio_mode = False

    def soak(self, **kwargs):
        return run_soak(SoakConfig(asyncio_mode=self.asyncio_mode, **kwargs))

    def test_same_seed_same_report(self):
        # Single-service scope: the process-global requestId counter
        # means cluster-mode routing (and hence the storm's shape)
        # differs between two runs in one process even with the same
        # seed.
        first = self.soak(seed=21, negotiations=60, roles=3)
        second = self.soak(seed=21, negotiations=60, roles=3)
        assert first.to_dict() == second.to_dict()

    def test_different_seed_different_storm(self):
        base = self.soak(seed=3, negotiations=60, roles=3)
        other = self.soak(seed=4, negotiations=60, roles=3)
        assert base.to_dict() != other.to_dict()

    def test_report_json_round_trips(self):
        report = self.soak(seed=5, negotiations=40, roles=2)
        decoded = json.loads(report.to_json())
        assert decoded["ok"] is report.ok
        assert decoded["seed"] == 5
        assert decoded["negotiations"] == 40
        assert decoded["admission"]["offered"] == (
            decoded["admission"]["admitted"]
            + decoded["admission"]["shed"]
            + decoded["admission"]["expired"]
        )

    def test_report_json_round_trips_with_cluster_counters(self):
        report = self.soak(
            seed=7, negotiations=60, roles=3, cluster_shards=3,
            node_kill_every=30,
        )
        decoded = json.loads(report.to_json())
        assert decoded["ok"] is report.ok
        cluster = decoded["cluster"]
        assert cluster["hedgesFired"] == report.hedges_fired
        assert cluster["hedgesWon"] == report.hedges_won
        assert cluster["hedgesCancelled"] == report.hedges_cancelled
        assert cluster["shardEjections"] == report.shard_ejections
        assert cluster["shardReadmissions"] == report.shard_readmissions
        assert cluster["healthProbes"] == report.health_probes


class TestAsyncioSoakDeterminismAndReport(TestSoakDeterminismAndReport):
    asyncio_mode = True


class TestSoakConfigValidation:
    def test_kill_drills_without_a_cluster_are_rejected(self):
        for shards in (0, 1):
            with pytest.raises(ValueError, match="node_kill_every"):
                run_soak(SoakConfig(
                    negotiations=10, cluster_shards=shards,
                    node_kill_every=5,
                ))

    def test_cli_rejects_kill_drills_without_shards(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["soak", "--negotiations", "10", "--kill-every", "40"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "node_kill_every" in err
        assert "Traceback" not in err

    def test_cli_rejects_other_invalid_configs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["soak", "--roles", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "roles must be >= 1" in err
