"""Hardware platform model (the board substitute — see DESIGN.md)."""

from .component import ComputeComponent, default_efficiency
from .energy import (
    ComponentPower,
    DvfsState,
    EnergyReport,
    PlatformPower,
    dvfs_ladder,
    energy_report,
    inflated_component_utilisation,
    interference_inflation,
    jetson_class_power,
    node_watts_table,
    orange_pi_5_power,
)
from .latency import block_latency, layer_latency, model_latency, solo_throughput
from .link import TransferLink
from .platform import Platform
from .presets import BIG, COMPONENT_NAMES, GPU, LITTLE, jetson_class, orange_pi_5

__all__ = [
    "ComputeComponent",
    "default_efficiency",
    "ComponentPower",
    "PlatformPower",
    "DvfsState",
    "EnergyReport",
    "orange_pi_5_power",
    "jetson_class_power",
    "dvfs_ladder",
    "node_watts_table",
    "interference_inflation",
    "inflated_component_utilisation",
    "energy_report",
    "TransferLink",
    "Platform",
    "orange_pi_5",
    "jetson_class",
    "GPU",
    "BIG",
    "LITTLE",
    "COMPONENT_NAMES",
    "layer_latency",
    "block_latency",
    "model_latency",
    "solo_throughput",
]
