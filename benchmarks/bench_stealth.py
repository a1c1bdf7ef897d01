"""The detection arms race: detectability vs hit rate.

Deploys each attacker next to the two classic detectors and reports
broadcast hit rate together with time-to-detection.  The plain attackers
are caught within seconds; the stealth variant (BSSID-per-SSID, no blind
mimicry) evades both at a modest cost in hit rate — quantifying the
trade the paper's countermeasure discussion implies.
"""

from _shared import emit

from repro.analysis.metrics import summarize
from repro.attacks.stealth import StealthCityHunter
from repro.defenses.detector import CanaryProbeDetector, MultiSsidDetector
from repro.experiments.attackers import make_cityhunter, make_karma, make_mana
from repro.experiments.calibration import default_city
from repro.experiments.runner import run_build, shared_wigle
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.util.tables import render_table

DURATION = 1500.0
SEED = 4


def _deploy(factory):
    city = default_city()
    wigle = shared_wigle()
    config = ScenarioConfig(
        venue_name="University Canteen",
        mobility="static",
        people_per_min=25.0,
        duration=DURATION,
        seed=SEED,
    )
    build = build_scenario(city, wigle, config, factory)
    center = build.venue.region.center
    passive = MultiSsidDetector("02:de:te:ct:00:01", center, build.medium)
    active = CanaryProbeDetector("02:de:te:ct:00:02", center, build.medium)
    build.sim.add_entity(passive)
    build.sim.add_entity(active)
    run_build(build)
    return build, passive, active


def _stealth_factory(sim, medium, venue):
    city = default_city()
    wigle = shared_wigle()
    return StealthCityHunter(
        "02:aa:00:00:00:01",
        venue.region.center,
        medium,
        wigle=wigle,
        heatmap=city.heatmap,
    )


def _flag_time(build, detector) -> str:
    macs = {build.attacker.mac}
    aliases = getattr(build.attacker, "_alias_by_ssid", {})
    macs.update(a.mac for a in aliases.values())
    times = [e.time for e in detector.detections if e.bssid in macs]
    return f"{min(times):.0f}s" if times else "never"


def test_stealth_tradeoff(benchmark):
    city = default_city()
    wigle = shared_wigle()

    def run():
        rows = []
        for label, factory in [
            ("KARMA", make_karma()),
            ("MANA", make_mana()),
            ("City-Hunter", make_cityhunter(wigle, city.heatmap)),
            ("City-Hunter stealth", _stealth_factory),
        ]:
            build, passive, active = _deploy(factory)
            hb = summarize(build.attacker.session).broadcast_hit_rate
            rows.append(
                [label, f"{100 * hb:.1f}%",
                 _flag_time(build, passive), _flag_time(build, active)]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "stealth",
        render_table(
            ["attacker", "h_b", "multi-SSID flags", "canary flags"],
            rows,
            title="Detectability vs hit rate (canteen, 25 min)",
        ),
    )
    plain = dict((r[0], r) for r in rows)["City-Hunter"]
    stealth = dict((r[0], r) for r in rows)["City-Hunter stealth"]
    assert plain[2] != "never" and plain[3] != "never"  # plain is caught
    assert stealth[2] == "never" and stealth[3] == "never"  # stealth is not
    # ... and the stealth cost is bounded.
    assert float(stealth[1].rstrip("%")) > 0.5 * float(plain[1].rstrip("%"))
