"""Fault discipline of the serving layer.

Overload and failure behaviour, pinned by test: a full ingress queue
sheds *probes* (counted, never silent) but always backpressures
feedback; an event whose apply raises (in the core or in the decision
callback) is counted and released so the stream never deadlocks; and
malformed trace lines are skipped with the same torn-line discipline
``repro.obs.epochs`` applies to shard telemetry.
"""

import asyncio

import pytest

from repro.serve.core import RankingCore
from repro.serve.events import FeedbackEvent, ProbeEvent, decision_rows
from repro.serve.service import (
    RankingService,
    resolve_queue_max,
    run_stream,
    serve_stream,
)
from repro.serve.trace import load_trace


def client_mac(index: int) -> str:
    """A locally administered MAC for test client ``index``."""
    return "02:5e:00:00:%02x:%02x" % ((index >> 8) & 0xFF, index & 0xFF)


def _seeded(city, wigle):
    return RankingCore.seeded(
        wigle, city.heatmap, city.venues[0].region.center, seed=3
    )


@pytest.fixture
def core(city, wigle):
    return _seeded(city, wigle)


def _probes(n, start=0.0):
    return [
        ProbeEvent(client_mac(i % 4), round(start + 0.1 * i, 6))
        for i in range(n)
    ]


class TestShedding:
    def test_queue_full_sheds_probes_and_counts(self, core):
        """Probes beyond the bound are dropped and show up in shed_total."""

        async def scenario():
            service = RankingService(core, queue_max=4, shed=True)
            accepted = []
            # Consumer not started yet: the queue fills and stays full.
            for event in _probes(10):
                accepted.append(await service.submit(event))
            await service.start()
            await service.drain()
            await service.stop()
            service.finish()
            return service, accepted

        service, accepted = asyncio.run(scenario())
        assert accepted == [True] * 4 + [False] * 6
        assert service.shed_total() == 6
        assert service.metrics.counter_value(
            "serve.shed_total", type="broadcast"
        ) == 6
        # Only the accepted events reached the core.
        assert core.events_handled == 4

    def test_feedback_backpressures_never_sheds(self, core):
        """Feedback waits for queue space instead of being dropped."""

        async def scenario():
            service = RankingService(core, queue_max=2, shed=True)
            for event in _probes(2):
                await service.submit(event)
            # Queue full: a probe would shed, feedback must block.
            fb = FeedbackEvent(client_mac(0), 9.0, "any-net")
            submit_task = asyncio.ensure_future(service.submit(fb))
            await asyncio.sleep(0.01)
            assert not submit_task.done(), "feedback must backpressure"
            await service.start()
            assert await submit_task is True
            await service.drain()
            await service.stop()
            service.finish()
            return service

        service = asyncio.run(scenario())
        assert service.shed_total() == 0
        assert (
            service.metrics.counter_value(
                "serve.events_total", type="feedback"
            )
            == 1
        )


class TestWorkerCrashes:
    def _assert_one_failed(self, service, events, poisoned, decisions):
        assert service.metrics.counter_value("serve.events_failed") == 1
        failed = [
            e for e in service.events_log if e["kind"] == "serve.event_failed"
        ]
        assert len(failed) == 1
        assert failed[0]["seq"] == events.index(poisoned)
        # The events around it were applied in ingress order.
        times = [d.time for d in decisions]
        assert times and times == sorted(times)

    def test_mid_apply_failure_counted_and_stream_continues(self, core):
        """A core-level failure loses one event, never the stream."""
        events = _probes(20)
        poisoned = events[7]
        original_handle = core.handle

        def flaky_handle(event):
            if event is poisoned:
                raise RuntimeError("injected core fault")
            return original_handle(event)

        core.handle = flaky_handle
        service = RankingService(core)
        asyncio.run(serve_stream(service, events))
        # drain() returned; the other 19 events were all applied.
        assert core.events_handled == len(events) - 1
        self._assert_one_failed(service, events, poisoned, service.decisions)
        assert poisoned.time not in [d.time for d in service.decisions]

    def test_decision_callback_failure_counted_and_stream_continues(
        self, core, city, wigle
    ):
        """A raising ``on_decision`` loses one emission, never the stream."""
        events = _probes(20)
        poisoned = events[7]
        emitted = []

        def on_decision(decision):
            if decision.time == poisoned.time:
                raise RuntimeError("injected callback fault")
            emitted.append(decision)

        service = RankingService(core, on_decision=on_decision)
        asyncio.run(serve_stream(service, events))
        # The core applied every event; only the callback failed.
        assert core.events_handled == len(events)
        self._assert_one_failed(service, events, poisoned, emitted)
        reference = run_stream(_seeded(city, wigle), events).decisions
        assert decision_rows(emitted) == decision_rows(
            [d for d in reference if d.time != poisoned.time]
        )


class TestDecisionSink:
    def test_callback_is_the_only_sink(self, core, city, wigle):
        """A service given a callback keeps no decision of its own."""
        events = _probes(12) + [
            ProbeEvent(client_mac(0), 1.25, "hidden-net"),
            FeedbackEvent(client_mac(0), 1.5, "hidden-net"),
        ]
        seen = []
        service = RankingService(core, on_decision=seen.append)
        assert asyncio.run(serve_stream(service, events)) == []
        assert seen and service.decisions == []
        assert service.decision_count == len(seen)
        reference = run_stream(_seeded(city, wigle), events).decisions
        assert decision_rows(seen) == decision_rows(reference)


class TestMalformedTraces:
    def test_torn_lines_skipped_not_fatal(self, core, tmp_path):
        """Garbage lines are counted and skipped, parse never raises."""
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"ts": 1.0, "mac": "02:00:00:00:00:01", "ssid": ""}\n'
            '{"ts": 2.0, "mac": "02:00:00:00:00:01", "ssi\n'  # torn write
            "not json at all\n"
            '{"ts": "three", "mac": "02:00:00:00:00:01", "ssid": ""}\n'
            '{"ts": 4.0, "ssid": "x", "type": "probe-req"}\n'  # no MAC
            '{"ts": 5.0, "mac": "02:00:00:00:00:02", "type": "assoc"}\n'
            '{"ts": 6.0, "mac": "02:00:00:00:00:02", "ssid": ""}\n'
        )
        events, stats = load_trace(path)
        assert stats.lines == 7
        assert stats.parsed == len(events) == 2
        assert stats.skipped == 5
        assert [line for line, _ in stats.reasons] == [2, 3, 4, 5, 6]
        # The surviving events still serve.
        service = run_stream(core, events)
        assert len(service.decisions) == 2


class TestSettingsFailLoudly:
    """Bad queue bounds and heartbeat intervals raise, naming their source."""

    def test_default_and_valid_values(self):
        assert resolve_queue_max() == 1024
        assert resolve_queue_max(3) == 3
        assert resolve_queue_max(" 7 ") == 7

    @pytest.mark.parametrize("value", ["four", 2.5, 0, -3])
    def test_bad_argument_raises(self, value):
        with pytest.raises(ValueError, match="queue_max"):
            resolve_queue_max(value)

    def test_service_rejects_bad_settings(self, core, monkeypatch):
        with pytest.raises(ValueError, match="queue_max"):
            RankingService(core, queue_max=0)
        monkeypatch.setenv("REPRO_HEARTBEAT", "inf")
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT"):
            RankingService(core)
