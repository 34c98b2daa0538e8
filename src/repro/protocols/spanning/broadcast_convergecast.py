"""Broadcast-and-respond on a rooted tree (PIF, Segall 1983).

The paper's local computations all reduce to this primitive: the root
broadcasts a request down its tree, every node answers after hearing from all
its children, and answers are combined on the way up with an associative,
commutative operation.  On a tree of radius ``r`` with ``s`` nodes the
primitive takes ``2r`` rounds and ``2(s − 1)`` messages — the counts the
paper charges for Step 1 of the deterministic partition and for the local
stage of the global-sensitive-function algorithms.

:class:`TreeAggregationFlyweight` runs it on the simulator as a flyweight
(:mod:`repro.sim.flyweight`) over a
:class:`~repro.core.partition.forest.SpanningForest` established
beforehand: one shared instance holding all per-node state in columnar
slots, message-driven so large quiet networks cost no dispatch.  It sends
the same messages, in the same order, as the per-node reference protocol in
``tests/oracles.py``, and ends with the same results, rounds and metrics
(``tests/test_flyweight.py`` pins the equivalence); only its payloads are
leaner: the bare value, where the reference tags it with its kind.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from itertools import filterfalse, repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Mapping, Sequence

from repro.sim.events import ChannelEvent, Message
from repro.sim.flyweight import FlyweightProtocol
from repro.topology.graph import CSRView

if TYPE_CHECKING:
    from repro.core.partition.forest import SpanningForest

Combine = Callable[[Any, Any], Any]


class TreeAggregationFlyweight(FlyweightProtocol):
    """Broadcast-and-respond over an already-established forest — columnar state.

    Build the simulator's protocol factory with :meth:`over`: the forest
    gives each node its parent (the forest's parent column, over the
    simulated graph's nodes) and ``values`` its local operand.  A node's
    children are the targets in its CSR row whose parent it is, taken in row
    order — on BFS trees the order in which the BFS adopted them.

    Output (``results``): the tree aggregate for roots (and for every node
    when ``redistribute`` is set); ``None`` otherwise.

    The per-node state lives in slot-indexed columns: the children and
    pending-children counts in ``array('l')`` columns, the reported flags in
    a ``bytearray``, the accumulators in one list; the parent column is the
    forest's own.

    The protocol is message-driven (a node with an empty inbox can never
    change state: it either already reported or is waiting for mail), so
    the simulator loops dispatch only slots with mail — the property that
    makes n = 10⁵ aggregations cost O(messages), not O(rounds × nodes).
    Each child reports at most once and only true children report, so the
    pending counts need no per-sender check.

    A message carries the bare value — no kind tag, so no tuple per
    message — and its direction gives its kind: a message from the slot's
    parent is the final value, any other is a child's report.  Only
    children report, and the final value comes down only after the slot
    has reported, so the two never mix.
    """

    MESSAGE_DRIVEN = True

    @classmethod
    def over(
        cls,
        forest: "SpanningForest",
        values: Mapping[int, Any],
        combine: Combine,
        redistribute: bool = False,
    ) -> Callable[[CSRView], "TreeAggregationFlyweight"]:
        """Return the protocol factory aggregating ``values`` over ``forest``.

        Args:
            forest: the trees to aggregate on, over the simulated graph's
                nodes.
            values: each node's local operand.
            combine: the semigroup operation (a two-argument callable).
            redistribute: when set, each root broadcasts the aggregate back
                down so every node halts knowing its tree's aggregate.
        """
        return functools.partial(
            cls, forest=forest, values=values, combine=combine,
            redistribute=redistribute,
        )

    def __init__(
        self,
        csr: CSRView,
        forest: "SpanningForest",
        values: Mapping[int, Any],
        combine: Combine,
        redistribute: bool = False,
    ) -> None:
        """Load the forest into slot-indexed columns.

        Raises:
            ValueError: if the forest does not span the graph's nodes.
        """
        super().__init__(csr)
        nodes = range(csr.n)
        if forest.num_nodes() != csr.n:
            raise ValueError(
                f"the forest spans {forest.num_nodes()} nodes, "
                f"the simulated graph {csr.n}"
            )
        parent = forest.parent
        children = Counter(parent)
        pending = array("l", map(children.get, nodes, repeat(0)))
        self._parent = parent
        self._children = array("l", pending)
        self._pending = pending
        self._acc: List[Any] = list(map(values.__getitem__, nodes))
        self._redistribute = redistribute
        self._reported = bytearray(csr.n)
        self._combine = combine

    def _send_down(self, slot: int, final: Any) -> None:
        """Send the final value to this slot's children (it has some), in CSR row order."""
        left = self._children[slot]
        csr = self.csr
        parent = self._parent
        send = self._sends.append
        for target in csr.targets[csr.offsets[slot]:csr.offsets[slot + 1]]:
            if parent[target] == slot:
                send((slot, target, final))
                left -= 1
                if not left:
                    return

    def on_start(self, slots: Iterable[int]) -> None:
        """Leaves (no pending children) report immediately."""
        self._fold(filterfalse(self._pending.__getitem__, slots), {})

    def on_round(self, slots: Iterable[int],
                 inboxes: Mapping[int, Sequence[Message]],
                 channel: ChannelEvent) -> None:
        """Fold child reports into the accumulators; forward final values down."""
        self._fold(slots, inboxes)

    def _fold(self, slots: Iterable[int],
              inboxes: Mapping[int, Sequence[Message]]) -> None:
        """Fold each slot's mail, then report every slot that heard all children.

        A non-root reports its aggregate to its parent (and halts, unless the
        aggregate is redistributed); a root resolves its tree.  A final
        value is passed on to the children, and the slot halts with it.
        """
        halted = self.halted
        results = self.results
        pending = self._pending
        children = self._children
        acc = self._acc
        combine = self._combine
        reported = self._reported
        parent = self._parent
        send = self._sends.append
        halt_on_report = not self._redistribute
        # halt_slot inlined: ``halts`` settles active_count at the end
        halts = 0
        for slot in slots:
            if halted[slot]:
                continue
            up = parent[slot]
            for message in inboxes.get(slot, ()):
                if message[0] != up:  # a child's report
                    pending[slot] -= 1
                    acc[slot] = combine(acc[slot], message[2])
                else:  # the final value, from the parent
                    value = message[2]
                    if children[slot]:
                        self._send_down(slot, value)
                    halted[slot] = 1
                    results[slot] = value
                    halts += 1
                    break
            else:
                if pending[slot] or reported[slot]:
                    continue
                reported[slot] = 1
                if up < 0:
                    if children[slot] and not halt_on_report:
                        self._send_down(slot, acc[slot])
                    self.halt_slot(slot, acc[slot])
                    continue
                send((slot, up, acc[slot]))
                if halt_on_report:
                    # a reporting non-root halts with None
                    halted[slot] = 1
                    halts += 1
        self.active_count -= halts

