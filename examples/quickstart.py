"""Quickstart: build a multimedia network, partition it, and aggregate a value.

Run with:  python examples/quickstart.py
"""

from repro.core.global_function import INTEGER_ADDITION, compute_global_function
from repro.core.partition import DeterministicPartitioner, validate_partition
from repro.topology import grid_graph
from repro.topology.weights import assign_distinct_weights


def main() -> None:
    # 1. a point-to-point topology — an 8×8 grid of 64 processors; every
    #    processor is additionally attached to the shared multiaccess channel
    graph = assign_distinct_weights(grid_graph(8, 8), seed=7)
    print(f"network: n={graph.num_nodes()} nodes, m={graph.num_edges()} links")

    # 2. partition it into O(√n) fragments of radius O(√n) (Section 3)
    partition = DeterministicPartitioner(graph).run()
    report = validate_partition(partition.forest, graph, check_mst_subtrees=True)
    print(
        f"partition: {partition.forest.num_fragments()} fragments, "
        f"max radius {partition.forest.max_radius()}, "
        f"min size {partition.forest.min_size()}, "
        f"subtrees of MST: {report.subtrees_of_mst}"
    )
    print(
        f"partition cost: {partition.metrics.rounds} rounds, "
        f"{partition.metrics.point_to_point_messages} messages"
    )

    # 3. compute a global sensitive function (the sum of all local inputs)
    #    with the two-stage multimedia algorithm, reusing the partition
    inputs = {node: node for node in graph.nodes()}
    result = compute_global_function(
        graph, INTEGER_ADDITION, inputs,
        method="deterministic", forest=partition.forest, seed=1,
    )
    print(
        f"sum over the network = {result.value} "
        f"(expected {sum(inputs.values())}) in {result.total_rounds} rounds "
        f"({result.local_rounds} local + {result.global_slots} channel slots)"
    )


if __name__ == "__main__":
    main()
