"""Hold the cyclic garbage collector for the length of a hot run loop.

The simulators' round loops and the partitioners' phase loops allocate
millions of short-lived containers — send tuples, stamped messages, inbox
lists, per-phase columns — and build no reference cycles: reference
counting frees every one of them.  The cyclic collector still counts them,
and on a wide round it fires hundreds of young-generation passes and a few
full ones that traverse the whole live heap, a quarter of a scale-free
aggregation's CPU time.  :func:`collector_paused` turns the collector off
for one call and puts it back afterwards.
"""

from __future__ import annotations

import functools
import gc
from typing import Any, Callable


def collector_paused(run: Callable[..., Any]) -> Callable[..., Any]:
    """Decorate ``run`` so it executes with the cyclic collector disabled.

    The collector is re-enabled when ``run`` returns or raises, and only if
    it was enabled on entry: nested paused calls, and a caller that disabled
    the collector itself, keep it disabled.  Garbage that ``run`` leaves in
    a cycle waits for the next collection after it.
    """

    @functools.wraps(run)
    def paused(*args: Any, **kwargs: Any) -> Any:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return run(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused
