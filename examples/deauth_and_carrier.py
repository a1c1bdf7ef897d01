#!/usr/bin/env python
"""The Section V-B extensions: de-authentication and carrier SSIDs.

Scenario 1 — a canteen where everyone who knows the venue Wi-Fi is
already camped on the real AP (and therefore silent).  Plain
City-Hunter cannot reach them; adding a spoofed-deauth emitter forces
re-scans that the evil twin can win.

Scenario 2 — an iOS-heavy crowd.  Carrier hotspot SSIDs (PCCW1x etc.)
are preloaded into iOS PNLs but appear in neither WiGLE nor direct
probes; preloading them into the attacker's database catches those
subscribers.

Run:  python examples/deauth_and_carrier.py
"""

from repro.attacks.deauth import DeauthEmitter
from repro.core.config import CityHunterConfig
from repro.experiments.attackers import make_cityhunter
from repro.experiments.calibration import default_city, venue_profile
from repro.experiments.runner import run_build, run_experiment, shared_wigle
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.population.pnl import CARRIER_SSIDS, PnlModel
from repro.util.tables import render_table

DURATION = 900.0
SEED = 11


def deauth_demo(city, wigle) -> None:
    def run(with_deauth: bool):
        config = ScenarioConfig(
            venue_name="University Canteen",
            mobility="static",
            people_per_min=35.0,
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
        run_build(build)
        # The interesting population: clients that started camped on the
        # legitimate AP (they hold the venue's open SSID).
        camped = [
            p
            for p in build.phones
            if any(
                s in p.person.pnl and p.person.pnl[s].auto_joinable
                for s in build.venue.wifi_ssids
            )
        ]
        captured = sum(1 for p in camped if p.connected_bssid == build.attacker.mac)
        on_real_ap = sum(
            1 for p in camped if p.connected_bssid == build.venue_ap.mac
        )
        return len(camped), captured, on_real_ap, build.attacker.session.deauths_sent

    plain = run(False)
    stormy = run(True)
    print(
        render_table(
            ["variant", "camped clients", "captured by twin", "back on real AP",
             "deauths sent"],
            [
                ["City-Hunter alone", plain[0], plain[1], plain[2], plain[3]],
                ["+ deauth emitter", stormy[0], stormy[1], stormy[2], stormy[3]],
            ],
            title="\nScenario 1: clients camped on the venue AP",
        )
    )


def carrier_demo(city, wigle) -> None:
    ios_heavy = PnlModel(ios_share=0.75)
    rows = []
    for label, config in [
        ("no carrier SSIDs", None),
        ("carrier SSIDs preloaded", CityHunterConfig(
            carrier_ssids=tuple(CARRIER_SSIDS))),
    ]:
        result = run_experiment(
            city,
            wigle,
            make_cityhunter(wigle, city.heatmap, config=config),
            venue_profile("canteen"),
            DURATION,
            seed=SEED,
            pnl_model=ios_heavy,
        )
        s = result.summary
        rows.append([label, s.connected_broadcast,
                     f"{100 * s.broadcast_hit_rate:.1f}%"])
    print(
        render_table(
            ["variant", "broadcast clients lured", "h_b"],
            rows,
            title="\nScenario 2: iOS-heavy crowd and carrier SSIDs",
        )
    )


def main() -> None:
    city = default_city()
    wigle = shared_wigle()
    deauth_demo(city, wigle)
    carrier_demo(city, wigle)


if __name__ == "__main__":
    main()
