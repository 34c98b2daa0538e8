"""End-to-end integration tests combining several subsystems at once."""

import math

from oracles import same_tree
from repro.core.global_function.multimedia import compute_global_function
from repro.core.global_function.semigroup import INTEGER_ADDITION, INTEGER_MINIMUM
from repro.core.mst.kruskal import kruskal_mst
from repro.core.mst.multimedia_mst import MultimediaMST
from repro.core.partition.deterministic import DeterministicPartitioner
from repro.core.partition.randomized import RandomizedPartitioner
from repro.core.partition.validation import validate_partition
from repro.sim.metrics import MetricsRecorder
from repro.topology.generators import random_geometric_graph, ray_graph, torus_graph
from repro.topology.weights import assign_distinct_weights


class TestFullPipelines:
    def test_partition_then_two_functions_reuse_forest(self):
        graph = assign_distinct_weights(torus_graph(8, 8), seed=5)
        forest = DeterministicPartitioner(graph).run().forest
        inputs = {node: int(node) % 7 for node in graph.nodes()}
        total = compute_global_function(
            graph, INTEGER_ADDITION, inputs, forest=forest, method="deterministic"
        )
        minimum = compute_global_function(
            graph, INTEGER_MINIMUM, inputs, forest=forest, method="randomized", seed=2
        )
        assert total.value == sum(inputs.values())
        assert minimum.value == min(inputs.values())

    def test_mst_and_partition_on_geometric_network(self):
        graph = assign_distinct_weights(random_geometric_graph(70, seed=9), seed=9)
        partition = DeterministicPartitioner(graph).run()
        n = graph.num_nodes()
        report = validate_partition(
            partition.forest, graph, check_mst_subtrees=True,
            max_radius_bound=8 * math.sqrt(n),
        )
        assert report.ok, report.violations
        mst = MultimediaMST(graph).run()
        assert same_tree(mst.mst, kruskal_mst(graph))
        # the partition's tree edges are all part of the MST the solver found
        mst_keys = mst.mst.edge_keys()
        from repro.topology.graph import edge_key

        for child, parent in partition.forest.tree_edges():
            assert edge_key(child, parent) in mst_keys

    def test_ray_graph_pipeline_matches_lower_bound_setting(self):
        graph = assign_distinct_weights(ray_graph(10, 10), seed=3)
        inputs = {node: 1 for node in graph.nodes()}
        result = compute_global_function(
            graph, INTEGER_ADDITION, inputs, method="randomized", seed=4
        )
        assert result.value == graph.num_nodes()

    def test_shared_metrics_accumulate_across_stages(self):
        graph = assign_distinct_weights(torus_graph(6, 6), seed=1)
        recorder = MetricsRecorder()
        partition = RandomizedPartitioner(graph, seed=1, metrics=recorder).run()
        inputs = {node: 1 for node in graph.nodes()}
        result = compute_global_function(
            graph, INTEGER_ADDITION, inputs, forest=partition.forest,
            method="randomized", seed=1, metrics=recorder,
        )
        assert result.value == 36
        snapshot = recorder.snapshot()
        assert snapshot.rounds == result.total_rounds + partition.metrics.rounds - partition.metrics.rounds
        assert snapshot.phase_rounds.get("partition", 0) > 0
        assert snapshot.phase_rounds.get("local", 0) > 0
        assert snapshot.phase_rounds.get("global", 0) > 0

    def test_deterministic_and_randomized_partitions_agree_on_coverage(self):
        graph = assign_distinct_weights(torus_graph(7, 7), seed=2)
        det = DeterministicPartitioner(graph).run().forest
        rnd = RandomizedPartitioner(graph, seed=2).run().forest
        assert det.num_nodes() == rnd.num_nodes() == graph.num_nodes()
