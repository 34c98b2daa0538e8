"""Global sensitive functions as commutative semigroup products.

Section 5: let S(X, •) be a commutative semigroup and ``F_n(x_1, …, x_n) =
x_1 • x_2 • … • x_n``.  ``F_n`` is *global sensitive* when, for every n-tuple
in its domain and every position ``i``, some change of ``x_i`` alone changes
the value — i.e. no n−1 operands determine the result.  Addition over the
integers, minimum over the integers (without a least element in the domain),
and XOR are the paper's examples; all are provided here.  The property-based
tests check the sensitivity property on sampled inputs
(``tests/oracles.py:check_global_sensitivity``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Optional, Sequence


@dataclass(frozen=True)
class GlobalSensitiveFunction:
    """A commutative semigroup product used as the function to compute.

    Attributes:
        name: human-readable name (appears in experiment reports).
        combine: the associative, commutative binary operation.
        identity: an optional identity element; when present it lets empty
            partial aggregates be represented (the algorithms never need it
            for non-empty fragments but the tests exercise it).
    """

    name: str
    combine: Callable[[Any, Any], Any]
    identity: Optional[Any] = None

    def evaluate(self, operands: Sequence[Any]) -> Any:
        """Return the semigroup product of ``operands``.

        Raises:
            ValueError: if ``operands`` is empty and no identity exists.
        """
        items = list(operands)
        if not items:
            if self.identity is None:
                raise ValueError(
                    f"{self.name} has no identity element; cannot fold zero operands"
                )
            return self.identity
        return reduce(self.combine, items)

    def __repr__(self) -> str:
        """Return the function's name for debugging."""
        return f"GlobalSensitiveFunction({self.name!r})"


#: Addition over the integers — the canonical global sensitive function.
INTEGER_ADDITION = GlobalSensitiveFunction(name="sum", combine=operator.add, identity=0)

#: Minimum over the integers (global sensitive because ℤ has no least element).
INTEGER_MINIMUM = GlobalSensitiveFunction(name="min", combine=min)

#: Maximum over the integers (global sensitive because ℤ has no greatest element).
INTEGER_MAXIMUM = GlobalSensitiveFunction(name="max", combine=max)

#: Addition modulo two (exclusive or), the paper's third example.
XOR = GlobalSensitiveFunction(name="xor", combine=operator.xor, identity=0)
