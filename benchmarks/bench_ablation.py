"""Ablations of City-Hunter's design choices (DESIGN.md section 5).

Each benchmark switches one mechanism off (or sweeps it) and reports
the broadcast hit rate, demonstrating that every design element the
paper argues for actually carries weight in the reproduction:

* untried lists (Section III-A improvement 1),
* WiGLE seeding (Section III-B improvement 2),
* heat-value vs AP-count weighting (Section IV-B),
* adaptive vs fixed PB/FB splits and ghost exploration (Section IV-C),
* the de-auth and carrier extensions (Section V-B).
"""

from _shared import emit

from repro.attacks.deauth import DeauthEmitter
from repro.core.config import CityHunterConfig
from repro.experiments.attackers import make_cityhunter
from repro.experiments.calibration import default_city
from repro.experiments.parallel import RunSpec, run_specs
from repro.experiments.runner import shared_wigle
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.population.pnl import CARRIER_SSIDS, PnlModel
from repro.util.tables import render_table

SEED = 7
DURATION = 1800.0


def _spec(config=None, venue="passage", use_heat=True, pnl_model=None, seed=SEED):
    return RunSpec(
        attacker="cityhunter",
        venue=venue,
        seed=seed,
        duration=DURATION,
        attacker_config=config,
        use_heat=use_heat,
        pnl_model=pnl_model,
    )


def _run_all(*specs):
    """Fan the ablation variants out over the parallel executor."""
    return run_specs(specs)


def test_ablation_untried_lists(benchmark):
    """Forgetting what was sent (MANA-style resending) hurts dwellers."""

    def run():
        return _run_all(
            _spec(venue="canteen"),
            _spec(CityHunterConfig(untried_lists=False), venue="canteen"),
        )

    with_lists, without = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_untried",
        render_table(
            ["variant", "h_b"],
            [
                ["untried lists ON", f"{100 * with_lists.h_b:.1f}%"],
                ["untried lists OFF", f"{100 * without.h_b:.1f}%"],
            ],
            title="Ablation: per-client untried lists (canteen)",
        ),
    )
    assert with_lists.h_b > 1.5 * without.h_b


def test_ablation_wigle_seeding(benchmark):
    """An unseeded database (direct probes only) starves the attack."""

    def run():
        return _run_all(
            _spec(),
            _spec(CityHunterConfig(n_nearby=0, n_popular=0)),
        )

    seeded, unseeded = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_wigle",
        render_table(
            ["variant", "h_b"],
            [
                ["WiGLE seeding ON", f"{100 * seeded.h_b:.1f}%"],
                ["WiGLE seeding OFF", f"{100 * unseeded.h_b:.1f}%"],
            ],
            title="Ablation: WiGLE database seeding (passage)",
        ),
    )
    assert seeded.h_b > 2 * unseeded.h_b


def test_ablation_heat_vs_count_weighting(benchmark):
    """Heat-rank weighting should not lose to plain count weighting."""

    def run():
        return _run_all(_spec(use_heat=True), _spec(use_heat=False))

    heat, count = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_heat",
        render_table(
            ["variant", "h_b"],
            [
                ["weights by heat value", f"{100 * heat.h_b:.1f}%"],
                ["weights by AP count", f"{100 * count.h_b:.1f}%"],
            ],
            title="Ablation: initial weighting criterion (passage)",
        ),
    )
    assert heat.h_b > count.h_b - 0.03


def test_ablation_adaptive_split(benchmark):
    """Adaptive PB/FB sizing vs frozen splits."""

    def run():
        labels = ["adaptive (init 28/12)"] + [
            f"fixed {pb}/{40 - pb}" for pb in (36, 28, 20)
        ]
        results = _run_all(
            _spec(venue="canteen"),
            *(
                _spec(CityHunterConfig(initial_pb=pb, adaptive=False), venue="canteen")
                for pb in (36, 28, 20)
            ),
        )
        return list(zip(labels, results))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_adaptive",
        render_table(
            ["variant", "h_b"],
            [[label, f"{100 * r.h_b:.1f}%"] for label, r in rows],
            title="Ablation: PB/FB split policy (canteen)",
        ),
    )
    best_fixed = max(r.h_b for label, r in rows[1:])
    assert rows[0][1].h_b > best_fixed - 0.04


def test_ablation_ghost_exploration(benchmark):
    """Ghost-list share sweep: 0 %, 10 % (paper), 25 %."""

    def run():
        picks = (0, 2, 5)
        results = _run_all(
            *(
                _spec(CityHunterConfig(ghost_picks=p), venue="canteen")
                for p in picks
            )
        )
        return list(zip(picks, results))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_ghost",
        render_table(
            ["ghost picks per buffer", "h_b"],
            [[str(p), f"{100 * r.h_b:.1f}%"] for p, r in rows],
            title="Ablation: ghost-list exploration share (canteen)",
        ),
    )
    # Exploration must not collapse the hit rate at any tested share.
    rates = [r.h_b for _, r in rows]
    assert min(rates) > 0.6 * max(rates)


def test_ablation_deauth_extension(benchmark):
    """A crowd camped on the venue AP: City-Hunter needs the de-auth
    emitter to reach it at all (Section V-B)."""

    def run_one(with_deauth):
        city = default_city()
        wigle = shared_wigle()
        config = ScenarioConfig(
            venue_name="University Canteen",
            mobility="static",
            people_per_min=30.0,
            duration=DURATION,
            camped_share=1.0,
            include_camped=True,
            seed=SEED,
        )
        build = build_scenario(
            city, wigle, config, make_cityhunter(wigle, city.heatmap)
        )
        if with_deauth:
            build.sim.add_entity(
                DeauthEmitter(
                    build.venue.region.center,
                    build.medium,
                    [build.venue_ap.mac],
                    period=15.0,
                    session=build.attacker.session,
                )
            )
        build.sim.run(DURATION + 30.0)
        camped = [
            p
            for p in build.phones
            if any(
                s in p.person.pnl and p.person.pnl[s].auto_joinable
                for s in build.venue.wifi_ssids
            )
        ]
        captured = sum(1 for p in camped if p.connected_bssid == build.attacker.mac)
        return len(camped), captured

    def run():
        return run_one(False), run_one(True)

    (total_off, hits_off), (total_on, hits_on) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit(
        "ablation_deauth",
        render_table(
            ["variant", "camped clients", "captured"],
            [
                ["no deauth", total_off, hits_off],
                ["deauth emitter", total_on, hits_on],
            ],
            title="Ablation: de-authentication extension (camped canteen)",
        ),
    )
    assert hits_off == 0
    assert hits_on > 0


def test_ablation_carrier_extension(benchmark):
    """Preloading carrier SSIDs catches iOS subscribers that neither
    WiGLE nor direct probes can reveal (Section V-B)."""

    ios_heavy = PnlModel(ios_share=0.75)

    def run():
        return _run_all(
            _spec(venue="canteen", pnl_model=ios_heavy),
            _spec(
                CityHunterConfig(carrier_ssids=tuple(CARRIER_SSIDS)),
                venue="canteen",
                pnl_model=ios_heavy,
            ),
        )

    plain, carrier = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_carrier",
        render_table(
            ["variant", "h_b"],
            [
                ["no carrier SSIDs", f"{100 * plain.h_b:.1f}%"],
                ["carrier SSIDs preloaded", f"{100 * carrier.h_b:.1f}%"],
            ],
            title="Ablation: carrier-SSID extension (iOS-heavy canteen crowd)",
        ),
    )
    assert carrier.h_b > plain.h_b + 0.03
