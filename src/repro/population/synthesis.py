"""Person and group synthesis.

:class:`PersonFactory` is the single entry point the mobility layer uses:
``make_group(size)`` returns ``size`` fully-specified people who share a
group core.  Everything is drawn from one RNG stream, so a scenario's
crowd is a pure function of (city, venue context, model, seed).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.city.model import City
from repro.population.groups import GroupModel, draw_group_core, member_share
from repro.population.person import OsFamily, PersonSpec
from repro.population.pnl import PnlBuilder, PnlModel, VenueContext


class PersonFactory:
    """Generates people (and their phones' Wi-Fi state) on demand."""

    def __init__(
        self,
        city: City,
        context: VenueContext,
        rng: np.random.Generator,
        pnl_model: Optional[PnlModel] = None,
        group_model: Optional[GroupModel] = None,
    ):
        self.city = city
        self.context = context
        self.rng = rng
        self.pnl_model = pnl_model if pnl_model is not None else PnlModel()
        self.group_model = group_model if group_model is not None else GroupModel()
        self._builder = PnlBuilder(city, context, self.pnl_model, rng)
        self._next_person_id = 0
        self._next_group_id = 0
        pm, gm = self.pnl_model, self.group_model
        # With core draws at adoption*psf and inheritance p_i, a member's
        # personal draw must shrink so the marginal stays at `adoption`:
        # 1-(1-x*a)(1-p_i*psf*a) = a  =>  x = 1 - p_i*psf  (to first order).
        self._member_public_scale = max(
            0.0, 1.0 - gm.p_inherit * gm.public_share_factor
        )
        # Direct-probing firmware survives on old Androids; conditioning
        # on OS keeps the overall unsafe share at p_unsafe while keeping
        # carrier SSIDs (iOS-only) out of direct probes, as the paper
        # observes they cannot be learned that way.
        self._p_unsafe_android = pm.p_unsafe / max(1e-9, 1.0 - pm.ios_share)
        self._p_local = min(
            gm.max_hangout_local,
            context.venue.local_affinity * gm.hangout_local_factor,
        )

    def _draw_os(self) -> OsFamily:
        if self.rng.random() < self.pnl_model.ios_share:
            return OsFamily.IOS
        return OsFamily.ANDROID

    def make_person(self, group_id: int = -1, group_core=()) -> PersonSpec:
        """One person, optionally inheriting a group core."""
        os_family = self._draw_os()
        shared = member_share(group_core, self.group_model, self.rng)
        personal_scale = 1.0 if group_id < 0 else self._member_public_scale
        built = self._builder.build(
            os_family, extra=shared, public_personal_scale=personal_scale
        )
        unsafe = (
            os_family is OsFamily.ANDROID
            and self.rng.random() < self._p_unsafe_android
        )
        direct: tuple = ()
        if unsafe:
            direct = self._builder.pick_direct_probes(
                built.pnl, built.home_ssid, built.work_ssid
            )
        person = PersonSpec(
            person_id=self._next_person_id,
            os_family=os_family,
            pnl=built.pnl,
            unsafe=unsafe,
            direct_probe_ssids=direct,
            group_id=group_id,
        )
        self._next_person_id += 1
        return person

    def make_group(self, size: int) -> List[PersonSpec]:
        """A social group of ``size`` people sharing a PNL core."""
        if size <= 0:
            raise ValueError("group size must be positive, got %r" % size)
        if size == 1:
            return [self.make_person()]
        group_id = self._next_group_id
        self._next_group_id += 1
        core = draw_group_core(
            self.group_model,
            self.city.open_shop_ssids,
            self.rng,
            local_shop_ssids=self.context.neighbour_open_ssids,
            p_local=self._p_local,
            public_pool=self.city.public_pool,
        )
        return [self.make_person(group_id, core) for _ in range(size)]
