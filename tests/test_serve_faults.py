"""Fault discipline of the serving layer.

Overload and crash behaviour, pinned by test: a full ingress queue
sheds *probes* (counted, never silent) but always backpressures
feedback; a crashing worker restarts with all session state intact and
salvages its in-flight event; a core-level failure is counted and
released so the stream never deadlocks; and malformed trace lines are
skipped with the same torn-line discipline ``repro.obs.epochs`` applies
to shard telemetry.
"""

import asyncio

import pytest

from repro.serve.core import RankingCore
from repro.serve.events import FeedbackEvent, ProbeEvent, decisions_digest
from repro.serve.service import (
    QUEUE_MAX_ENV,
    WORKERS_ENV,
    RankingService,
    resolve_queue_max,
    resolve_serve_workers,
    run_stream,
    serve_stream,
)
from repro.serve.trace import load_trace
from repro.serve.workload import client_mac, synthetic_stream


@pytest.fixture
def core(city, wigle):
    return RankingCore.seeded(
        wigle, city.heatmap, city.venues[0].region.center, seed=3
    )


def _probes(n, start=0.0):
    return [
        ProbeEvent(client_mac(i % 4), round(start + 0.1 * i, 6))
        for i in range(n)
    ]


class TestShedding:
    def test_queue_full_sheds_probes_and_counts(self, core):
        """Probes beyond the bound are dropped and show up in shed_total."""

        async def scenario():
            service = RankingService(core, workers=2, queue_max=4, shed=True)
            accepted = []
            # Workers not started yet: the queue fills and stays full.
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
            service = RankingService(core, workers=1, queue_max=2, shed=True)
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
    def test_restart_preserves_state_and_salvages_inflight(self, core, city, wigle):
        """A transport-stage crash reapplies the event after restart.

        The decision stream must equal the fault-free run's: the crash
        happens before the core saw the event, so the supervisor
        re-applies it and nothing — especially feedback — is lost.
        """
        events = synthetic_stream(
            4, 60, seed=5, ssid_pool=["a-net", "b-net"],
            direct_share=0.2, feedback_share=0.2,
        )
        reference = run_stream(
            RankingCore.seeded(
                wigle, city.heatmap, city.venues[0].region.center, seed=3
            ),
            events,
            workers=3,
        )

        crashed = []

        def fault_hook(wid, event):
            # Crash exactly once, on the first feedback event seen.
            if not crashed and isinstance(event, FeedbackEvent):
                crashed.append(event)
                raise RuntimeError("injected transport fault")

        service = RankingService(core, workers=3, fault_hook=fault_hook)
        asyncio.run(serve_stream(service, events))
        assert crashed, "fault hook never fired"
        assert service.metrics.counter_value("serve.worker_restarts") == 1
        assert service.metrics.counter_value("serve.events_failed") == 0
        assert decisions_digest(service.decisions) == decisions_digest(
            reference.decisions
        )
        # All events were applied despite the crash: state is intact.
        assert core.events_handled == len(events)

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
        service = RankingService(core, workers=2)
        asyncio.run(serve_stream(service, events))
        assert service.metrics.counter_value("serve.events_failed") == 1
        assert service.metrics.counter_value("serve.worker_restarts") == 1
        # The other 19 events were all committed, in order.
        assert core.events_handled == len(events) - 1
        assert len(service.decisions) > 0


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
        service = run_stream(core, events, workers=2)
        assert len(service.decisions) == 2


RESOLVERS = [
    (resolve_serve_workers, WORKERS_ENV, "workers", 4),
    (resolve_queue_max, QUEUE_MAX_ENV, "queue_max", 1024),
]


class TestSettingsFailLoudly:
    """Bad worker counts and queue bounds raise, naming their source."""

    @pytest.mark.parametrize("resolve, env, arg, default", RESOLVERS)
    def test_default_and_valid_values(
        self, monkeypatch, resolve, env, arg, default
    ):
        monkeypatch.delenv(env, raising=False)
        assert resolve() == default
        monkeypatch.setenv(env, " 7 ")
        assert resolve() == 7
        assert resolve(3) == 3  # the argument beats the environment

    @pytest.mark.parametrize("resolve, env, arg, default", RESOLVERS)
    @pytest.mark.parametrize("value", ["four", "2.5", "0", "-3"])
    def test_bad_env_value_raises(
        self, monkeypatch, resolve, env, arg, default, value
    ):
        monkeypatch.setenv(env, value)
        with pytest.raises(ValueError, match=env):
            resolve()

    @pytest.mark.parametrize("resolve, env, arg, default", RESOLVERS)
    @pytest.mark.parametrize("value", ["four", 2.5, 0, -3])
    def test_bad_argument_raises(
        self, monkeypatch, resolve, env, arg, default, value
    ):
        monkeypatch.delenv(env, raising=False)
        with pytest.raises(ValueError, match=arg):
            resolve(value)

    def test_service_rejects_bad_settings(self, core, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "four")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            RankingService(core)
        monkeypatch.delenv(WORKERS_ENV)
        with pytest.raises(ValueError, match="queue_max"):
            RankingService(core, queue_max=0)
