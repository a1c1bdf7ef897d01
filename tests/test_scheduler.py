"""Tests for the event scheduler (repro.sim.scheduler)."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.parallel import RunSpec, execute_spec, metrics_doc
from repro.obs.golden import metrics_digest
from repro.obs.profiler import SimProfiler
from repro.sim.events import EventHandle
from repro.sim.scheduler import Scheduler
from repro.sim.simulation import Simulation

NAN, INF = math.nan, math.inf


class TestScheduling:
    def test_executes_in_time_order(self):
        sched = Scheduler()
        fired = []
        sched.schedule(2.0, fired.append, "b")
        sched.schedule(1.0, fired.append, "a")
        sched.schedule(3.0, fired.append, "c")
        sched.run_all()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sched = Scheduler()
        fired = []
        for tag in "abc":
            sched.schedule(1.0, fired.append, tag)
        sched.run_all()
        assert fired == ["a", "b", "c"]

    def test_clock_matches_fire_time(self):
        sched = Scheduler()
        seen = []
        sched.schedule(1.5, lambda: seen.append(sched.clock.now))
        sched.run_all()
        assert seen == [1.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sched = Scheduler()
        sched.schedule(1.0, lambda: None)
        sched.run_all()
        with pytest.raises(ValueError):
            sched.schedule_at(0.5, lambda: None)

    def test_callbacks_can_schedule_more(self):
        sched = Scheduler()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sched.schedule(1.0, chain, n + 1)

        sched.schedule(1.0, chain, 0)
        sched.run_all()
        assert fired == [0, 1, 2, 3]
        assert sched.clock.now == 4.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sched = Scheduler()
        fired = []
        handle = sched.schedule(1.0, fired.append, "x")
        handle.cancel()
        sched.run_all()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sched = Scheduler()
        keep = sched.schedule(1.0, lambda: None)
        drop = sched.schedule(2.0, lambda: None)
        drop.cancel()
        assert sched.pending == 1
        assert keep.alive


class TestRunUntil:
    def test_stops_at_deadline(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, "in")
        sched.schedule(5.0, fired.append, "out")
        sched.run_until(2.0)
        assert fired == ["in"]
        assert sched.clock.now == 2.0

    def test_resume_after_deadline(self):
        sched = Scheduler()
        fired = []
        sched.schedule(5.0, fired.append, "late")
        sched.run_until(2.0)
        sched.run_until(10.0)
        assert fired == ["late"]

    def test_boundary_event_included(self):
        sched = Scheduler()
        fired = []
        sched.schedule(2.0, fired.append, "edge")
        sched.run_until(2.0)
        assert fired == ["edge"]

    def test_past_deadline_rejected(self):
        sched = Scheduler()
        sched.run_until(5.0)
        with pytest.raises(ValueError):
            sched.run_until(1.0)


class TestRunAll:
    def test_returns_fired_count(self):
        sched = Scheduler()
        for i in range(5):
            sched.schedule(float(i), lambda: None)
        assert sched.run_all() == 5
        assert sched.fired == 5

    def test_runaway_guard(self):
        sched = Scheduler()

        def forever():
            sched.schedule(1.0, forever)

        sched.schedule(1.0, forever)
        with pytest.raises(RuntimeError):
            sched.run_all(max_events=100)
        assert sched.fired == 100
        assert sched.pending == 1  # the event that tripped it stays queued

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), max_size=50))
    def test_property_fire_order_is_sorted(self, delays):
        sched = Scheduler()
        fired = []
        for d in delays:
            sched.schedule(d, lambda d=d: fired.append(d))
        sched.run_all()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestNonFiniteTimes:
    """NaN and infinite times are rejected before they reach the heap."""

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_schedule_rejects(self, bad):
        sched = Scheduler()
        with pytest.raises(ValueError, match="got " + re.escape(repr(bad))):
            sched.schedule(bad, lambda: None)
        assert sched.pending == 0

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_schedule_at_rejects(self, bad):
        sched = Scheduler()
        with pytest.raises(ValueError, match="got " + re.escape(repr(bad))):
            sched.schedule_at(bad, lambda: None)
        assert sched.pending == 0

    def test_rejected_nan_cannot_jump_the_queue(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, "early")
        with pytest.raises(ValueError):
            sched.schedule(NAN, fired.append, "nan")
        sched.run_all()
        assert fired == ["early"]

    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_run_until_rejects_and_fires_nothing(self, bad):
        sched = Scheduler()
        fired = []
        sched.schedule(5.0, fired.append, "due")
        with pytest.raises(ValueError, match="got " + re.escape(repr(bad))):
            sched.run_until(bad)
        assert fired == []
        assert sched.clock.now == 0.0
        assert sched.pending == 1

    def test_run_until_inf_points_at_run_all(self):
        with pytest.raises(ValueError, match="run_all"):
            Scheduler().run_until(INF)


# -- reference model ---------------------------------------------------------

# Quarter-second steps: sums stay exact in binary floating point, so the
# model computes the very same event times, and equal times are common.
_STEP = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.25)
# What a callback does when it fires: nothing, schedule one more event
# at the current time, or cancel the handle with this creation index.
_BEHAVIOUR = st.one_of(
    st.just(("plain",)),
    st.just(("spawn",)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _STEP, _BEHAVIOUR),
        st.tuples(st.just("schedule_at"), _STEP, _BEHAVIOUR),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("run_until"), _STEP),
    ),
    max_size=40,
)


class _Model:
    """The scheduler's contract, written plainly: live events fire in
    ``(time, seq)`` order, cancelled ones never fire, and a callback
    already sees its own event in ``fired``."""

    def __init__(self):
        self.now = 0.0
        self.fired = 0
        self.events = []  # [time, seq, behaviour, state] by seq
        self.log = []  # (seq, now, fired) per firing

    def schedule_at(self, time, behaviour):
        self.events.append([time, len(self.events), behaviour, "pending"])

    def cancel(self, index):
        if self.events:
            event = self.events[index % len(self.events)]
            if event[3] == "pending":
                event[3] = "cancelled"

    def run_until(self, end_time):
        count = self.fire_due(end_time)
        self.now = end_time
        return count

    def fire_due(self, end_time=INF):
        count = 0
        while True:
            due = [e for e in self.events
                   if e[3] == "pending" and e[0] <= end_time]
            if not due:
                break
            event = min(due, key=lambda e: (e[0], e[1]))
            event[3] = "fired"
            self.now = event[0]
            self.fired += 1
            count += 1
            self.log.append((event[1], self.now, self.fired))
            behaviour = event[2]
            if behaviour[0] == "spawn":
                self.schedule_at(self.now, ("plain",))
            elif behaviour[0] == "cancel":
                self.cancel(behaviour[1])
        return count

    @property
    def pending(self):
        return sum(1 for e in self.events if e[3] == "pending")


class _Driven:
    """A real scheduler whose callbacks act out the model's behaviours."""

    def __init__(self, profiled):
        self.sched = Scheduler()
        if profiled:
            self.sched.profiler = SimProfiler()
        self.handles = []
        self.log = []

    def _fire(self, seq, behaviour):
        sched = self.sched
        self.log.append((seq, sched.clock.now, sched.fired))
        if behaviour[0] == "spawn":
            self.handles.append(
                sched.schedule(0.0, self._fire, len(self.handles), ("plain",))
            )
        elif behaviour[0] == "cancel":
            self.handles[behaviour[1] % len(self.handles)].cancel()

    def schedule(self, delay, behaviour):
        self.handles.append(
            self.sched.schedule(delay, self._fire, len(self.handles), behaviour)
        )

    def schedule_at(self, time, behaviour):
        self.handles.append(
            self.sched.schedule_at(time, self._fire, len(self.handles), behaviour)
        )

    def cancel(self, index):
        if self.handles:
            self.handles[index % len(self.handles)].cancel()


class TestReferenceModel:
    @pytest.mark.parametrize("profiled", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS)
    def test_matches_model(self, profiled, ops):
        model, real = _Model(), _Driven(profiled)
        sched = real.sched
        for op in ops:
            kind = op[0]
            if kind == "schedule":
                model.schedule_at(model.now + op[1], op[2])
                real.schedule(op[1], op[2])
            elif kind == "schedule_at":
                model.schedule_at(model.now + op[1], op[2])
                real.schedule_at(sched.clock.now + op[1], op[2])
            elif kind == "cancel":
                model.cancel(op[1])
                real.cancel(op[1])
            else:
                end = model.now + op[1]
                assert sched.run_until(end) == model.run_until(end)
            assert real.log == model.log
            assert sched.fired == model.fired
            assert sched.pending == model.pending
            assert sched.clock.now == model.now
        assert sched.run_all() == model.fire_due()
        assert real.log == model.log
        assert sched.fired == model.fired
        assert sched.pending == model.pending == 0
        if profiled:
            assert sched.profiler.total_calls == sched.fired


# -- contracts the run loop relies on ----------------------------------------


def _canteen_digest() -> str:
    spec = RunSpec(
        attacker="cityhunter", venue="canteen", seed=5, duration=120.0,
        fidelity="frame",
    )
    return metrics_digest(metrics_doc([execute_spec(spec)], workers=1))


class TestRunLoopContracts:
    def test_heap_never_compares_handles(self, monkeypatch):
        """Same-time events tie on time and are split by ``seq``, so a
        run must never fall through to ``EventHandle.__lt__``."""
        reference = _canteen_digest()

        def refuse(self, other):
            raise AssertionError("the event heap compared two handles")

        monkeypatch.setattr(EventHandle, "__lt__", refuse)
        assert _canteen_digest() == reference

    def test_schedule_at_wrapper_sees_every_callback(self, monkeypatch):
        """Wrapping the class attribute, as the perfbench tracer does,
        intercepts every route into the heap."""
        original = Scheduler.__dict__["schedule_at"]
        seen = []

        def schedule_at(sched, when, fn, *args):
            seen.append(fn)
            return original(sched, when, fn, *args)

        monkeypatch.setattr(Scheduler, "schedule_at", schedule_at)
        sim = Simulation(seed=1)

        def via_at():
            pass

        def via_at_time():
            pass

        def via_schedule():
            pass

        sim.at(1.0, via_at)
        sim.at_time(2.0, via_at_time)
        sim.scheduler.schedule(3.0, via_schedule)
        assert seen == [via_at, via_at_time, via_schedule]
        assert sim.run(5.0) == 3

    def test_schedule_at_wrapper_sees_a_whole_run(self, monkeypatch):
        """Every event a frame-fidelity deployment fires passed through
        the wrapped ``schedule_at``: none reached the heap another way."""
        original = Scheduler.__dict__["schedule_at"]
        fired = []

        def trampoline(fn, *args):
            fired.append(fn)
            return fn(*args)

        def schedule_at(sched, when, fn, *args):
            return original(sched, when, trampoline, fn, *args)

        monkeypatch.setattr(Scheduler, "schedule_at", schedule_at)
        sims = []
        run = Simulation.run

        def recording_run(sim, until):
            sims.append(sim)
            return run(sim, until)

        monkeypatch.setattr(Simulation, "run", recording_run)
        _canteen_digest()
        (sim,) = sims
        assert sim.scheduler.fired > 1000
        assert len(fired) == sim.scheduler.fired

    @pytest.mark.parametrize("profiled", [False, True])
    def test_callback_sees_its_own_event_counted(self, profiled, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1" if profiled else "0")
        sim = Simulation(seed=0)
        assert (sim.profiler is not None) == profiled
        seen = []
        for _ in range(3):
            sim.at(1.0, lambda: seen.append(sim.scheduler.fired))
        sim.at(2.0, lambda: seen.append(sim.scheduler.fired))
        assert sim.run(3.0) == 4
        assert seen == [1, 2, 3, 4]
