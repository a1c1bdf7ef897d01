"""Tests for the Simulation facade (repro.sim)."""

from repro.sim.simulation import Simulation


class _Entity:
    def __init__(self):
        self.started_at = None

    def start(self, sim):
        self.started_at = sim.now


class TestSimulation:
    def test_entities_started_on_run(self):
        sim = Simulation(seed=1)
        e = _Entity()
        sim.add_entity(e)
        assert e.started_at is None
        sim.run(1.0)
        assert e.started_at == 0.0

    def test_entity_added_mid_run_starts_immediately(self):
        sim = Simulation(seed=1)
        late = _Entity()
        sim.at(0.5, lambda: sim.add_entity(late))
        sim.run(1.0)
        assert late.started_at == 0.5

    def test_at_and_at_time(self):
        sim = Simulation(seed=1)
        fired = []
        sim.at(0.5, fired.append, "rel")
        sim.at_time(0.7, fired.append, "abs")
        sim.run(1.0)
        assert fired == ["rel", "abs"]

    def test_run_is_resumable(self):
        sim = Simulation(seed=1)
        fired = []
        sim.at(5.0, fired.append, "late")
        sim.run(1.0)
        assert fired == []
        sim.run(10.0)
        assert fired == ["late"]

    def test_entities_listed(self):
        sim = Simulation(seed=1)
        e = _Entity()
        sim.add_entity(e)
        assert sim.entities == [e]

    def test_same_seed_same_stream_draws(self):
        a = Simulation(seed=9).rngs.stream("x").random(4)
        b = Simulation(seed=9).rngs.stream("x").random(4)
        assert list(a) == list(b)
