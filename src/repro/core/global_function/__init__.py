"""Computing global sensitive functions in a multimedia network (Section 5).

A *global sensitive* function is an n-variate semigroup product whose value
cannot be determined from any n−1 of its operands (addition, minimum, XOR …).
The multimedia algorithms compute it in two stages: a **local stage** that
aggregates each fragment of the partition over the point-to-point network
(broadcast-and-respond on the fragment trees), and a **global stage** in
which the fragment roots broadcast their partial results on the channel,
scheduled deterministically (Capetanakis) or randomly (Metcalfe–Boggs).
The baselines — point-to-point only and channel only — realise the two
media's individual lower bounds and are used in the model-separation
experiment (E7).
"""

from repro.core.global_function.semigroup import (
    GlobalSensitiveFunction,
    INTEGER_ADDITION,
    INTEGER_MAXIMUM,
    INTEGER_MINIMUM,
    XOR,
)
from repro.core.global_function.multimedia import (
    GlobalComputationResult,
    compute_global_function,
)
from repro.core.global_function.baselines import (
    BaselineResult,
    compute_on_channel_only,
    compute_on_point_to_point_only,
)

__all__ = [
    "GlobalSensitiveFunction",
    "INTEGER_ADDITION",
    "INTEGER_MAXIMUM",
    "INTEGER_MINIMUM",
    "XOR",
    "GlobalComputationResult",
    "compute_global_function",
    "BaselineResult",
    "compute_on_channel_only",
    "compute_on_point_to_point_only",
]
