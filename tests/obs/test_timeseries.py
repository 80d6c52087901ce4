"""Unit tests for the bounded time-series recorder."""

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry, RecorderConfig, TimeSeriesRecorder
from repro.simulation.kernel import Simulator


def _counting_system():
    """A sim + registry where one counter advances 4/s via a process."""
    sim = Simulator()
    registry = MetricsRegistry()
    box = {"n": 0.0}
    registry.register("work.done", lambda: box["n"])

    def worker():
        while True:
            box["n"] += 1.0
            yield sim.timeout(0.25)

    sim.process(worker())
    return sim, registry, box


def test_sampling_loop_and_series():
    sim, registry, _box = _counting_system()
    recorder = TimeSeriesRecorder(
        sim, registry, RecorderConfig(interval_s=0.5)
    )
    recorder.start()
    sim.run(until=2.0)  # the until-boundary event itself still runs
    assert recorder.sample_count == 5
    series = [(at, values["work.done"]) for at, values in recorder.samples]
    assert [at for at, _v in series] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert series[-1][1] > series[0][1]


def test_window_delta_and_rate():
    sim, registry, _box = _counting_system()
    recorder = TimeSeriesRecorder(
        sim, registry, RecorderConfig(interval_s=0.5)
    )
    recorder.start()
    sim.run(until=4.0)
    # the worker adds 4/s; a 1 s trailing window sees ~4 increments
    assert recorder.window_delta("work.done", 1.0) == pytest.approx(4.0)
    assert recorder.window_rate("work.done", 1.0) == pytest.approx(4.0)
    # missing counters read zero, not KeyError
    assert recorder.window_delta("no.such", 1.0) == 0.0


def test_partial_window_divides_by_covered_span():
    sim, registry, _box = _counting_system()
    recorder = TimeSeriesRecorder(
        sim, registry, RecorderConfig(interval_s=0.5)
    )
    recorder.start()
    sim.run(until=1.1)  # samples at 0, 0.5, 1.0 — no 10 s of history
    rate = recorder.window_rate("work.done", 10.0)
    assert rate == pytest.approx(recorder.window_delta("work.done", 10.0) / 1.0)


def test_ring_is_bounded():
    sim, registry, _box = _counting_system()
    recorder = TimeSeriesRecorder(
        sim, registry, RecorderConfig(interval_s=0.1, capacity=8)
    )
    recorder.start()
    sim.run(until=5.0)
    assert recorder.sample_count == 8  # oldest evicted, memory bounded
    assert recorder.samples[0][0] > 0.0


def test_stop_halts_the_loop():
    sim, registry, _box = _counting_system()
    recorder = TimeSeriesRecorder(
        sim, registry, RecorderConfig(interval_s=0.5)
    )
    recorder.start()
    sim.run(until=1.1)
    recorder.stop()
    count = recorder.sample_count
    sim.run(until=3.0)
    assert recorder.sample_count == count  # at most the pending wake-up
    # restartable after a stop
    recorder.start()
    sim.run(until=4.0)
    assert recorder.sample_count > count


def test_subscribers_run_synchronously_per_sample():
    sim, registry, _box = _counting_system()
    recorder = TimeSeriesRecorder(
        sim, registry, RecorderConfig(interval_s=0.5)
    )
    seen = []
    recorder.subscribe(lambda at, values: seen.append((at, values["work.done"])))
    recorder.start()
    sim.run(until=1.6)
    assert len(seen) == recorder.sample_count
    assert seen[0][0] == 0.0


def test_mid_run_array_registration_samples_cleanly():
    """Counters (incl. short array rows) appearing mid-run sample as 0."""
    sim = Simulator()
    registry = MetricsRegistry()
    recorder = TimeSeriesRecorder(
        sim, registry, RecorderConfig(interval_s=0.5)
    )
    recorder.start()
    sim.run(until=0.6)
    row = [5.0]
    registry.register_array("link.a-b", ("bytes", "sent"), lambda: row)
    sim.run(until=1.6)
    # present samples read the live row; ``sent`` (short row) reads 0.0
    latest = recorder.samples[-1][1]
    assert latest["link.a-b.bytes"] == 5.0
    assert latest["link.a-b.sent"] == 0.0
    # windows spanning the registration count growth from zero
    assert recorder.window_delta("link.a-b.bytes", 10.0) == 5.0



def test_config_validation():
    with pytest.raises(ConfigError):
        RecorderConfig(interval_s=0.0)
    with pytest.raises(ConfigError):
        RecorderConfig(capacity=1)
    sim = Simulator()
    recorder = TimeSeriesRecorder(sim, MetricsRegistry())
    with pytest.raises(ConfigError):
        recorder.window_delta("x", 0.0)
