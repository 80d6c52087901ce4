"""Direct tests of the scenario steps every fleet experiment shares
(``repro.workloads.chaos``: arm -> drive -> quiesce -> judge)."""

from repro.faults import FaultPlan
from repro.workloads.chaos import (
    arm_faults,
    arm_telemetry,
    availability,
    build_chaos_system,
    judge,
    quiesce,
    start_probe,
)


def two_cycle_system():
    system = build_chaos_system(tracing=False)
    system.run_update_cycle()
    report = system.run_update_cycle(mutation_rate=0.3)
    return system, report.version


def test_judge_passes_an_intact_fleet():
    system, version = two_cycle_system()
    verdict = judge(system, [version])
    acknowledged = sum(
        len(set(cluster.version_keys[version]))
        for cluster in system.clusters.values()
    )
    assert verdict == {
        "verified_keys": acknowledged,
        "lost_acknowledged_keys": 0,
        "under_replicated_final": 0,
    }


def test_judge_counts_a_removed_acknowledged_key_once():
    system, version = two_cycle_system()
    cluster = system.clusters["north-dc1"]
    key = cluster.version_keys[version][0]
    # Acknowledged twice over (the walk must still visit it once) ...
    cluster.version_keys[version].append(key)
    # ... and gone from every replica, behind the cluster's back.
    for node in cluster.group_for(key).replicas_for(key):
        node.delete_batch([(key, version)])
    before = judge(system, [])
    verdict = judge(system, [version])
    assert verdict["lost_acknowledged_keys"] == 1
    assert verdict["verified_keys"] == sum(
        len(set(c.version_keys[version])) for c in system.clusters.values()
    )
    # Versions that were not asked about are not walked.
    assert before["verified_keys"] == before["lost_acknowledged_keys"] == 0


def test_quiesce_drains_a_heal_scheduled_past_the_cycle_tail():
    system = build_chaos_system(tracing=False)
    system.run_update_cycle()
    injector = arm_faults(system)
    recorder, _engine = arm_telemetry(system, sample_interval_s=0.5)
    recorder.start()
    started = system.sim.now
    cluster = system.clusters["north-dc1"]
    keys = cluster.version_keys[1]
    probe = start_probe(system, 0.25, lambda: (cluster, keys[0], 1))
    # The restart lands far past the faulted cycle's own delivery tail.
    injector.start(
        FaultPlan.parse("crash node=north-dc1/g0/n0 at=1 down=30", name="t")
    )
    report = system.run_update_cycle(mutation_rate=0.3)
    node = cluster.groups[0].node("north-dc1/g0/n0")
    assert system.sim.now < started + 31
    assert not node.is_up
    assert any(not p.processed for p in injector.processes)

    samples_before = recorder.sample_count
    quiesce(system, injector, probe, recorder)

    assert all(p.processed for p in injector.processes)
    assert system.sim.now >= started + 31
    assert node.is_up
    assert probe["stopped"] is True
    assert recorder.sample_count > samples_before
    assert recorder.samples[-1][0] == system.sim.now  # the closing sample
    # Judged only now, the fleet is whole again.
    verdict = judge(system, [report.version])
    assert verdict["lost_acknowledged_keys"] == 0
    assert verdict["under_replicated_final"] == 0
    # The probe read through the outage (two replicas stayed up) and its
    # counters fold into the report section without the stop flag.
    section = availability(probe)
    assert set(section) == {"probes", "unavailable", "unavailable_ratio"}
    assert section["probes"] > 100 and section["unavailable"] == 0
    ticks = probe["probes"]
    system.sim.run(until=system.sim.now + 5)
    assert probe["probes"] == ticks  # stopped means stopped
