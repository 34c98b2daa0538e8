"""Strict-JSON normalisation and the one reader of untrusted JSON.

Lives in its own module so its consumers —
:mod:`repro.experiments.runner` (result files),
:mod:`repro.experiments.executors` (sweep digests, manifests, checkpoints),
:mod:`repro.experiments.distributed` (the wire) and :mod:`repro.serve` —
can all import it at module level without importing each other.
"""

from __future__ import annotations

import json
import math
from typing import Any

#: The deepest nesting the readers of untrusted JSON accept (a scalar is
#: depth 0, a flat list depth 1).  What this package writes nests at most
#: seven deep, and 100 stays far below every supported Python's recursion
#: limit.  The bound, not ``RecursionError``, refuses an over-deep value, so
#: it is refused for one reason on every interpreter (3.12 inlines
#: comprehensions, so a recursive decoder gets twice as deep as on 3.11
#: before the limit).  It is checked in the one walk each value gets after
#: parsing: :func:`decode_wire` or :func:`decode_nonfinite` for values that
#: are decoded, :func:`check_depth` for values kept whole.
MAX_DEPTH = 100


class NestingError(ValueError):
    """Untrusted JSON nests deeper than :data:`MAX_DEPTH`."""

    def __init__(self) -> None:
        """Carry the one refusal reason every reader reports."""
        super().__init__(f"JSON nested deeper than {MAX_DEPTH} levels")


def read_json(text: str) -> Any:
    """Parse untrusted JSON ``text``, refusing what overflows the parser.

    Every reader of a file or message another process wrote goes through
    here: manifests, checkpoints, wire messages and the served corpus.  It
    does not walk the value: the decoder or :func:`check_depth` after it
    bounds the depth.

    Raises:
        NestingError: if the parser's own recursion guard trips (far past
            :data:`MAX_DEPTH`).
        ValueError: if ``text`` is not JSON.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise NestingError() from None


def check_depth(value: Any) -> Any:
    """Return decoded JSON ``value``, refusing nesting past :data:`MAX_DEPTH`.

    For values kept whole rather than decoded (manifests, the served
    trajectory): only their lists and dicts nest.

    Raises:
        NestingError: if ``value`` nests deeper than :data:`MAX_DEPTH`.
    """
    _check_depth(value, MAX_DEPTH)
    return value


def _check_depth(value: Any, budget: int) -> None:
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, list):
        items = value
    else:
        return
    if not budget:
        raise NestingError()
    for item in items:
        if isinstance(item, (dict, list)):
            _check_depth(item, budget - 1)


def jsonable(value: Any) -> Any:
    """Round-trip ``value`` through strictly-JSON-compatible containers.

    Non-finite floats (e10's ``GL_error_factor`` is ``inf`` when an estimate
    degenerates to zero) are mapped to their string forms so the emitted
    files stay valid for strict JSON consumers.
    """
    return json.loads(json.dumps(_finite(value), allow_nan=False))


def _finite(value: Any) -> Any:
    """Replace non-finite floats with their string forms, recursively."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


#: marker key for the round-trip-stable non-finite encoding below
NONFINITE_KEY = "__nonfinite__"
_NONFINITE_NAMES = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def encode_nonfinite(value: Any) -> Any:
    """Wrap non-finite floats as ``{"__nonfinite__": name}`` markers.

    Unlike :func:`jsonable` — which flattens ``inf`` to the *string*
    ``"inf"`` for human-facing result files — this encoding is reversible:
    :func:`decode_nonfinite` restores the original float objects exactly.
    The shard checkpoints use the pair so their files stay strict RFC 8259
    JSON while the decoded rows remain bit-identical to a serial run's.
    """
    if isinstance(value, dict):
        return {key: encode_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_nonfinite(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return {NONFINITE_KEY: str(value)}
    return value


def decode_nonfinite(value: Any) -> Any:
    """Reverse :func:`encode_nonfinite`, restoring non-finite floats.

    Raises:
        NestingError: if ``value`` nests deeper than :data:`MAX_DEPTH`.
    """
    return _decode_nonfinite(value, MAX_DEPTH)


def _decode_nonfinite(value: Any, budget: int) -> Any:
    if isinstance(value, dict):
        if not budget:
            raise NestingError()
        if set(value) == {NONFINITE_KEY} and value[NONFINITE_KEY] in _NONFINITE_NAMES:
            return _NONFINITE_NAMES[value[NONFINITE_KEY]]
        return {key: _decode_nonfinite(item, budget - 1) for key, item in value.items()}
    if isinstance(value, list):
        if not budget:
            raise NestingError()
        return [_decode_nonfinite(item, budget - 1) for item in value]
    return value


#: marker key for the tuple-preserving wire encoding below
TUPLE_KEY = "__wire_tuple__"


def encode_wire(value: Any) -> Any:
    """Encode ``value`` for a JSON wire protocol, preserving Python shapes.

    A plain JSON round-trip flattens tuples to lists, and resolved sweep
    parameters are full of tuples (``sizes``, ``seeds``) that must survive
    the coordinator→worker hop *exactly* — the sweep digest is computed over
    the parameters on both ends, so any shape drift would (correctly) refuse
    the sweep.  Tuples become ``{"__wire_tuple__": [...]}`` markers and
    non-finite floats reuse the :data:`NONFINITE_KEY` markers, so
    :func:`decode_wire` restores the original objects bit-for-bit.
    """
    if isinstance(value, dict):
        return {key: encode_wire(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return {TUPLE_KEY: [encode_wire(item) for item in value]}
    if isinstance(value, list):
        return [encode_wire(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return {NONFINITE_KEY: str(value)}
    return value


def decode_wire(value: Any) -> Any:
    """Reverse :func:`encode_wire`, restoring tuples and non-finite floats.

    Raises:
        NestingError: if ``value`` nests deeper than :data:`MAX_DEPTH` (a
            tuple marker is two levels: its object and its list).
    """
    return _decode_wire(value, MAX_DEPTH)


def _decode_wire(value: Any, budget: int) -> Any:
    if isinstance(value, dict):
        if not budget:
            raise NestingError()
        if set(value) == {TUPLE_KEY} and isinstance(value[TUPLE_KEY], list):
            if budget == 1:
                raise NestingError()
            return tuple(_decode_wire(item, budget - 2) for item in value[TUPLE_KEY])
        if set(value) == {NONFINITE_KEY} and value[NONFINITE_KEY] in _NONFINITE_NAMES:
            return _NONFINITE_NAMES[value[NONFINITE_KEY]]
        return {key: _decode_wire(item, budget - 1) for key, item in value.items()}
    if isinstance(value, list):
        if not budget:
            raise NestingError()
        return [_decode_wire(item, budget - 1) for item in value]
    return value
