"""The benchmark's four named workloads, built from registry presets.

Every sweep is an existing ``(experiment, preset, overrides)`` triple that
``repro.experiments.runner.run_experiment`` accepts as-is; nothing here
re-implements an experiment.  ``faulty`` marks the sweeps that inject
faults (an ``adversity`` override, or e11's own fault grid): only their
rows may contain ``"abort"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple


@dataclass(frozen=True)
class Sweep:
    """One ``run_experiment`` call of a workload."""

    label: str
    experiment: str
    preset: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    faulty: bool = False


@dataclass(frozen=True)
class Workload:
    """A named set of sweeps plus the executor they run on.

    ``workers == 0`` runs every sweep on the serial executor; ``workers > 0``
    runs each sweep on the ``distributed`` backend with that many local
    worker processes, one shard per point, in a fresh temporary run dir.
    """

    name: str
    why: str
    sweeps: Tuple[Sweep, ...]
    workers: int = 0


def _default_and_hot() -> Tuple[Sweep, ...]:
    default = tuple(
        Sweep(f"e{i}_default", f"e{i}", "default", faulty=(i == 11))
        for i in range(1, 14)
    )
    hot = tuple(Sweep(f"e{i}_hot", f"e{i}", "hot") for i in (5, 8, 9, 10, 12, 13))
    return default + hot


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "xl_pipeline",
            "n=102400 partition, fault-free sim and synchronizer inner loops "
            "dominate; batching or a CSR freeze shows here",
            (
                Sweep("e7_xhot", "e7", "xhot"),
                Sweep("e2_xhot", "e2", "xhot"),
                Sweep("e10_xhot", "e10", "xhot"),
            ),
        ),
        Workload(
            "breadth_sweep",
            "77 small points covering every layer (MST, walks, rewiring, "
            "dissemination, diameter, size protocols, Capetanakis); "
            "per-point fixed costs show",
            _default_and_hot(),
        ),
        Workload(
            "adversity_sweep",
            "the sim layer's adversity loops, abort paths and jammed slot "
            "resolution; catches a fault-free speedup that costs the "
            "adversity path",
            (
                Sweep("e7_hot_loss", "e7", "hot", {"adversity": "loss"}, True),
                Sweep("e7_hot_jam", "e7", "hot", {"adversity": "jam"}, True),
                Sweep(
                    "e10_hot_crash", "e10", "hot",
                    {"adversity": "crash", "size_protocols": False}, True,
                ),
                Sweep("e11_hot", "e11", "hot", faulty=True),
                Sweep(
                    "e13_n1024_loss", "e13", "hot",
                    {"sizes": (1024,), "adversity": "loss"}, True,
                ),
            ),
        ),
        Workload(
            "fanout_sweep",
            "the only workload on the distributed executor (leases, "
            "heartbeats, JSON wire, checkpoint I/O), 2 local workers",
            (
                Sweep("e9_hot", "e9", "hot"),
                Sweep("e12_hot", "e12", "hot"),
                Sweep("e13_hot", "e13", "hot"),
            ),
            workers=2,
        ),
    )
}
