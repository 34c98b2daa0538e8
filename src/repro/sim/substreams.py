"""Deterministic random substreams derived from one master seed.

A layer that needs many independent random sources — one per walker
(:mod:`repro.sim.walks`), one per dissemination scheduler
(:mod:`repro.protocols.dissemination`), one per rewired topology — derives
each one's seed with :func:`substream_seed` instead of drawing it from a
master ``random.Random``:

* a source's seed is a stable 63-bit sha256 hash of
  ``(master seed, scope, key)`` — independent of process, executor,
  iteration order and Python hash randomisation, so reordering a loop never
  silently reseeds anything;
* distinct ``scope`` strings (one per consuming layer, e.g.
  ``"sim.walks"`` vs ``"protocols.dissemination"``) keep two layers
  sharing a master seed from drawing correlated streams.

The simulators hand their protocols no random source: no ``src`` protocol
they run draws one.  The per-node reference protocols in
``tests/oracles.py`` that do (golden era **v4**, see
``tests/test_perf_equivalence.py``) get theirs from the oracle adapter,
which derives node ``i``'s generator as
``random.Random(substream_seed(seed, scope, i))``.
"""

from __future__ import annotations

import hashlib
import json


def substream_seed(master_seed: object, scope: str, *key: object) -> int:
    """Derive the 63-bit substream seed for ``key`` under ``master_seed``.

    The seed is a stable sha256 hash of ``(master_seed, scope, *key,
    "substream")``, so it depends only on the values (via ``repr``) — not on
    the order substreams are requested in, the process, or the executor
    computing the sweep point.  ``scope`` names the consuming layer so two
    layers sharing one master seed derive uncorrelated families.
    """
    payload = json.dumps(
        [repr(master_seed), scope] + [repr(part) for part in key] + ["substream"]
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
