"""Energy-storage chemistry presets.

The paper uses a Lead-Acid UPS; its own reference on datacenter energy
storage (Wang et al., SIGMETRICS 2012 - "Energy storage in datacenters:
what, where, and how much?") compares chemistries along exactly the axes
our battery model captures: round-trip efficiency, sustainable charge
/discharge rates, and usable depth of discharge. These presets let the
Fig. 5/10 experiments ask the natural follow-on question - what would a
different device on the same server buy?

Values are representative mid-points of the ranges in that literature,
scaled to a single-server device (~300 kJ, the class of the paper's UPS).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.esd.battery import LeadAcidBattery

#: Preset name -> constructor parameters.
_PRESETS: dict[str, dict[str, float]] = {
    # The paper's device: cheap, modest efficiency, shallow cycling.
    "lead-acid": dict(
        capacity_j=300_000.0,
        efficiency=0.70,
        max_charge_w=50.0,
        max_discharge_w=60.0,
        reserve_fraction=0.0,
    ),
    # Li-ion: high efficiency, higher sustainable rates, deeper cycling.
    "li-ion": dict(
        capacity_j=300_000.0,
        efficiency=0.92,
        max_charge_w=100.0,
        max_discharge_w=120.0,
        reserve_fraction=0.0,
    ),
    # Ultracapacitor bank: near-lossless and power-dense, with an energy
    # store two orders below the batteries - ample for the paper's 10 s
    # duty cycles (~200 J per burst), binding only for much longer phases.
    "ultracap": dict(
        capacity_j=8_000.0,
        efficiency=0.98,
        max_charge_w=200.0,
        max_discharge_w=250.0,
        reserve_fraction=0.0,
    ),
    # A conservative UPS policy on the same Lead-Acid cell: half the
    # capacity is reserved for outage backup (the dual-purposing question
    # of the paper's reference [32]).
    "lead-acid-backup-reserve": dict(
        capacity_j=300_000.0,
        efficiency=0.70,
        max_charge_w=50.0,
        max_discharge_w=60.0,
        reserve_fraction=0.5,
    ),
}

#: Public listing of available presets.
BATTERY_PRESETS = tuple(sorted(_PRESETS))


def make_battery(preset: str) -> LeadAcidBattery:
    """Construct a battery from a chemistry preset, starting at the preset's
    reserve floor (empty usable store, like the paper's cold start).

    Args:
        preset: One of :data:`BATTERY_PRESETS`.

    Raises:
        ConfigurationError: for unknown preset names.
    """
    try:
        params = dict(_PRESETS[preset])
    except KeyError:
        raise ConfigurationError(
            f"unknown battery preset {preset!r}; available: {BATTERY_PRESETS}"
        ) from None
    return LeadAcidBattery(
        capacity_j=params["capacity_j"],
        efficiency=params["efficiency"],
        max_charge_w=params["max_charge_w"],
        max_discharge_w=params["max_discharge_w"],
        reserve_fraction=params["reserve_fraction"],
        initial_soc=params["reserve_fraction"],
    )
