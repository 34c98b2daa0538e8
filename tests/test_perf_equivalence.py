"""Golden equivalence checks for the performance work, versioned by RNG era.

The hot-path overhauls (indexed graph core, cached tree primitives, rewritten
inner loops, geometric skip-ahead contention) must not change what the
algorithms *compute*.  Two golden files pin that, under
``tests/data/goldens/``:

* ``v1/equivalence_golden.json`` — workloads whose outputs are independent of
  how the random streams are consumed: topology fingerprints, the
  deterministic partition, and the (Capetanakis-scheduled, deterministic)
  multimedia MST.  These values date back to the seed implementation (commit
  70c26fe) and every PR must reproduce them bit-identically.
* ``v2/equivalence_golden.json`` — workloads that consume the randomized
  contention stream: the Las-Vegas randomized partition and the
  Metcalfe–Boggs contention fingerprints.  PR 4's geometric skip-ahead draws
  the *same distribution* from the RNG in fewer draws, so these values were
  regenerated when it landed (the per-slot ↔ skip-ahead distributional match
  is guarded separately by ``tests/test_skip_ahead.py``).  They are exact for
  the current stream era and pin it against accidental drift.
* ``v3/equivalence_golden.json`` — workloads running *under* a deterministic
  adversity schedule (PR 6): per-preset fingerprints of the global-function
  computation with fault counters, including the abort rows of runs the
  adversary legitimately kills.  The v1/v2 files double as the zero-adversity
  no-op proof — they are untouched by the adversity layer.
* ``v4/equivalence_golden.json`` — workloads that consume *per-node* random
  sources (``ctx.rng``): the Greenberg–Ladner estimator and the randomized
  leader election, plus the e10 registry sweep that runs them end to end.
  PR 7's flyweight sim layer replaced the eager per-node ``Random`` objects
  (one master draw each, in node order) with hash-derived substreams
  (:mod:`repro.sim.substreams`), which started this era; the literal
  ``substream_seed`` values are pinned here too, so the derivation itself
  cannot drift.  v1–v3 are untouched by the substream switch — no workload
  they cover draws from a per-node source.
* ``v5/equivalence_golden.json`` — the workload-family streams PR 10 opened:
  the degree-preserving rewiring swap stream (exact edge lists of rewired
  scale-free and flower graphs), the random-walk engine's per-walker
  substreams (exact step counts to the hub), and the dissemination
  schedulers (round/transmission/reception fingerprints per scheduler,
  fault-free and under the loss preset, aborts included), plus the e12/e13
  quick sweeps through the registry path.  These streams were introduced
  whole with PR 10 and touch none of the draws v1–v4 pin — those eras
  stay byte-identical.

Regenerate the files (only do this when an RNG-stream or algorithm change is
intended — a pure performance PR must show an empty diff here):

    PYTHONPATH=src python tests/test_perf_equivalence.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from oracles import edge_weight_sum, parent_map

GOLDEN_DIR = Path(__file__).parent / "data" / "goldens"
GOLDEN_V1 = GOLDEN_DIR / "v1" / "equivalence_golden.json"
GOLDEN_V2 = GOLDEN_DIR / "v2" / "equivalence_golden.json"
GOLDEN_V3 = GOLDEN_DIR / "v3" / "equivalence_golden.json"
GOLDEN_V4 = GOLDEN_DIR / "v4" / "equivalence_golden.json"
GOLDEN_V5 = GOLDEN_DIR / "v5" / "equivalence_golden.json"


def _compute_deterministic_state():
    """Fixed workloads whose outputs do not depend on RNG stream consumption."""
    from repro.core.mst.multimedia_mst import MultimediaMST
    from repro.core.partition.deterministic import DeterministicPartitioner
    from repro.experiments.harness import make_topology

    state = {}

    # topology fingerprints: edge iteration order and weight assignment are
    # load-bearing (they feed every seeded experiment), so pin them exactly.
    # scale_free/ad_hoc entered with PR 2 — their fingerprints pin the new
    # generators the same way the seed topologies are pinned.
    for kind, n in (
        ("grid", 64),
        ("grid", 144),
        ("ring", 256),
        ("scale_free", 128),
        ("ad_hoc", 128),
    ):
        graph = make_topology(kind, n, seed=11)
        state[f"graph/{kind}/{n}"] = {
            "n": graph.num_nodes(),
            "m": graph.num_edges(),
            "total_weight": edge_weight_sum(graph),
            "edges": [[edge.u, edge.v, edge.weight] for edge in graph.edges()],
        }

    # deterministic partition: forest + full accounting
    for kind, n in (("grid", 64), ("grid", 144)):
        graph = make_topology(kind, n, seed=11)
        result = DeterministicPartitioner(graph).run()
        parents = parent_map(result.forest)
        state[f"det_partition/{kind}/{n}"] = {
            "parents": sorted(
                [node, parent] for node, parent in parents.items()
                if parent is not None
            ),
            "cores": sorted(result.forest.cores),
            "rounds": result.metrics.rounds,
            "busy_rounds": result.busy_rounds,
            "messages": result.metrics.point_to_point_messages,
        }

    # multimedia MST: exact tree + accounting (roots are scheduled with the
    # deterministic Capetanakis protocol, so the MST stays in the v1 era)
    graph = make_topology("ring", 256, seed=11)
    result = MultimediaMST(graph).run()
    state["mst/ring/256"] = {
        "edges": sorted(sorted(edge.key()) for edge in result.mst.edges),
        "total_weight": result.mst.total_weight,
        "rounds": result.metrics.rounds,
        "messages": result.metrics.point_to_point_messages,
        "initial_fragments": result.initial_fragments,
    }
    return state


def _compute_stream_state():
    """Fixed-seed workloads that consume the randomized contention stream."""
    import random

    from repro.core.global_function.baselines import compute_on_channel_only
    from repro.core.global_function.semigroup import INTEGER_ADDITION
    from repro.core.partition.randomized import RandomizedPartitioner
    from repro.experiments.harness import make_topology
    from repro.protocols.collision.base import run_contention
    from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggs
    from repro.sim.metrics import MetricsRecorder

    state = {}

    # randomized partition (Las Vegas): forest + accounting on fixed seeds;
    # the channel verification stage schedules the roots with Metcalfe–Boggs
    # contention, so the round counts sit in the skip-ahead stream era
    for kind, n, seeds in (("grid", 100, (1, 3)), ("scale_free", 128, (1,))):
        for seed in seeds:
            graph = make_topology(kind, n, seed=11)
            result = RandomizedPartitioner(graph, seed=seed, las_vegas=True).run()
            parents = parent_map(result.forest)
            state[f"rand_partition/{kind}/{n}/seed{seed}"] = {
                "parents": sorted(
                    [node, parent] for node, parent in parents.items()
                    if parent is not None
                ),
                "cores": sorted(result.forest.cores),
                "rounds": result.metrics.rounds,
                "messages": result.metrics.point_to_point_messages,
                "restarts": result.restarts,
            }

    # raw Metcalfe–Boggs contention fingerprints: the exact schedule the
    # geometric skip-ahead samples on fixed seeds (order, slot counts)
    for k, seed in ((16, 7), (48, 21)):
        ids = list(range(k))
        outcome = run_contention(
            MetcalfeBoggs(k, random.Random(seed)), ids, ids, MetricsRecorder()
        )
        state[f"contention/metcalfe_boggs/k{k}/seed{seed}"] = {
            "order": outcome.order,
            "slots_used": outcome.slots_used,
            "collisions": outcome.collisions,
            "idle": outcome.idle,
        }

    # the channel-only baseline the skip-ahead makes affordable: end-to-end
    # value + slot accounting on a fixed seed
    graph = make_topology("ring", 256, seed=11)
    inputs = {node: int(node) for node in graph.nodes()}
    baseline = compute_on_channel_only(graph, INTEGER_ADDITION, inputs, seed=5)
    state["channel_baseline/ring/256"] = {
        "value": baseline.value,
        "rounds": baseline.rounds,
        "channel_idle": baseline.metrics.channel_idle,
        "channel_collision": baseline.metrics.channel_collision,
    }
    return state


def _compute_adversity_state():
    """Fixed-seed workloads running under each shipped adversity preset.

    Every entry records either the completed run (value + rounds) or the
    deterministic abort (rounds, pending, reason), always alongside the
    schedule's fault counters — so both the fault draws and the abort
    machinery are pinned bit-exactly.
    """
    from repro.core.global_function.multimedia import compute_global_function
    from repro.core.global_function.semigroup import INTEGER_ADDITION
    from repro.experiments.harness import make_topology
    from repro.sim.adversity import ADVERSITY_PRESETS, adversity_state
    from repro.sim.errors import AdversityAbort

    state = {}
    for preset in sorted(name for name in ADVERSITY_PRESETS if name != "none"):
        graph = make_topology("grid", 64, seed=11)
        inputs = {node: int(node) for node in graph.nodes()}
        adv = adversity_state(preset, "golden", "grid", 64, preset)
        entry = {}
        try:
            result = compute_global_function(
                graph, INTEGER_ADDITION, inputs, method="randomized", seed=5,
                adversity=adv,
            )
            entry["status"] = "ok"
            entry["value"] = result.value
            entry["rounds"] = result.total_rounds
        except AdversityAbort as abort:
            entry["status"] = "abort"
            entry["rounds"] = abort.rounds
            entry["pending"] = abort.pending
            entry["reason"] = abort.reason
        entry["counters"] = adv.counters()
        state[f"adversity/global/grid/64/{preset}"] = entry

    # the e11 quick sweep end to end: schedule derivation, both media, the
    # status column — the registry-path fingerprint of the adversity axis
    from repro.experiments.runner import run_experiment

    result = run_experiment("e11", preset="quick")
    state["adversity/e11/quick"] = {"rows": result.rows}
    return state


def _compute_substream_state():
    """Fixed-seed workloads drawing from per-node substreams (``ctx.rng``)."""
    from repro.experiments.harness import make_topology
    from repro.experiments.runner import run_experiment
    from oracles import GreenbergLadnerEstimator, RandomizedLeaderElection, per_node
    from repro.sim.multimedia import MultimediaNetwork
    from repro.sim.substreams import substream_seed

    state = {}

    # the derivation itself: literal seeds for fixed (master, scope, key)
    # triples — any change to the hash recipe shows up here first
    for master, scope, key in (
        (0, "sim.multimedia", (0,)),
        (0, "sim.synchronizer", (0,)),
        (5, "sim.multimedia", (7,)),
        (5, "sim.multimedia", ("a",)),
        (2**63, "sim.multimedia", ((1, 2),)),
    ):
        state[f"substream_seed/{master}/{scope}/{key!r}"] = substream_seed(
            master, scope, *key
        )

    # the two per-node-source protocols on the simulator, fixed topologies
    graph = make_topology("ring", 16, seed=11)
    result = MultimediaNetwork(graph).run(per_node(GreenbergLadnerEstimator, seed=4))
    state["gl_estimator/ring/16/seed4"] = {
        "estimates": sorted(
            {value.estimate for value in result.results.values()}
        ),
        "rounds": result.rounds,
    }
    graph = make_topology("ring", 12, seed=11)
    result = MultimediaNetwork(graph).run(per_node(RandomizedLeaderElection, seed=9))
    state["leader_election/ring/12/seed9"] = {
        "winners": sorted(set(result.results.values())),
        "rounds": result.rounds,
    }

    # the e10 quick sweep end to end: synchronizer pulses and the
    # Greenberg–Ladner estimate columns through the registry path
    result = run_experiment("e10", preset="quick")
    state["substream/e10/quick"] = {"rows": result.rows}
    return state


def _compute_workload_state():
    """Fixed-seed fingerprints of the PR 10 workload-family streams.

    Three independent stream families, none of which existed before PR 10:
    the rewiring swap stream, the per-walker walk substreams, and the
    dissemination scheduler streams (plus the adversity draws dissemination
    consumes).  Each is pinned at its raw layer *and* through the registry
    path (the e12/e13 quick sweeps), so both the engines and their
    experiment wiring are covered.
    """
    from repro.experiments.runner import run_experiment
    from repro.protocols.dissemination import SCHEDULERS, disseminate
    from repro.sim.adversity import adversity_state
    from repro.sim.errors import AdversityAbort
    from repro.sim.walks import mean_first_passage_time
    from repro.topology.generators import (
        ad_hoc_affectance_graph,
        barabasi_albert_graph,
        degree_preserving_rewire,
        flower_graph,
    )

    state = {}

    # the rewiring swap stream: exact edge lists on fixed seeds pin the draw
    # order, the rejection rule, and the windowed connectivity rollback
    for name, base in (
        ("scale_free/96", barabasi_albert_graph(96, attachment=2, seed=3)),
        ("flower_22/g3", flower_graph(2, 2, 3)),
    ):
        rewired = degree_preserving_rewire(base, seed=42)
        state[f"rewire/{name}/seed42"] = {
            "edges": sorted(
                [min(edge.u, edge.v), max(edge.u, edge.v)]
                for edge in rewired.edges()
            ),
        }

    # the walk engine: exact per-walker step counts (start draws + every
    # neighbour choice) on both flower families
    for u, v in ((1, 3), (2, 2)):
        graph = flower_graph(u, v, 2)
        summary = mean_first_passage_time(
            graph, walkers=16, seed=("golden", u, v)
        )
        state[f"walks/flower_{u}{v}/g2"] = {
            "target": summary.target,
            "steps": list(summary.steps),
            "capped": summary.capped,
        }

    # the dissemination schedulers on one ad-hoc instance: fault-free runs
    # pin the decay coin stream and the (deterministic) family packing;
    # loss-preset runs additionally pin the adversity draws and the abort
    # machinery, counters included
    graph = ad_hoc_affectance_graph(48, seed=11)
    for scheduler in SCHEDULERS:
        result = disseminate(graph, scheduler=scheduler, seed=5)
        state[f"dissemination/ad_hoc/48/{scheduler}"] = {
            "rounds": result.rounds,
            "transmissions": result.transmissions,
            "receptions": result.receptions,
        }
        adv = adversity_state("loss", "golden-dissemination", 48, scheduler)
        entry = {}
        try:
            lossy = disseminate(
                graph, scheduler=scheduler, seed=5, adversity=adv
            )
            entry["status"] = "ok"
            entry["rounds"] = lossy.rounds
            entry["receptions"] = lossy.receptions
        except AdversityAbort as abort:
            entry["status"] = "abort"
            entry["rounds"] = abort.rounds
            entry["pending"] = abort.pending
        entry["counters"] = adv.counters()
        state[f"dissemination/ad_hoc/48/{scheduler}/loss"] = entry

    # the registry path end to end: the quick sweeps of both experiments
    state["walks/e12/quick"] = {
        "rows": run_experiment("e12", preset="quick").rows
    }
    state["dissemination/e13/quick"] = {
        "rows": run_experiment("e13", preset="quick").rows
    }
    return state


def _normalize(value):
    """Round-trip through JSON so tuples/lists and int/float compare equal."""
    return json.loads(json.dumps(value))


def _load(path: Path):
    if not path.exists():
        pytest.fail(
            f"{path} is missing; regenerate it with "
            "`PYTHONPATH=src python tests/test_perf_equivalence.py`"
        )
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def golden_v1():
    return _load(GOLDEN_V1)


@pytest.fixture(scope="module")
def golden_v2():
    return _load(GOLDEN_V2)


@pytest.fixture(scope="module")
def golden_v3():
    return _load(GOLDEN_V3)


@pytest.fixture(scope="module")
def current_v1():
    return _normalize(_compute_deterministic_state())


@pytest.fixture(scope="module")
def current_v2():
    return _normalize(_compute_stream_state())


@pytest.fixture(scope="module")
def golden_v4():
    return _load(GOLDEN_V4)


@pytest.fixture(scope="module")
def current_v3():
    return _normalize(_compute_adversity_state())


@pytest.fixture(scope="module")
def current_v4():
    return _normalize(_compute_substream_state())


@pytest.fixture(scope="module")
def golden_v5():
    return _load(GOLDEN_V5)


@pytest.fixture(scope="module")
def current_v5():
    return _normalize(_compute_workload_state())


def test_golden_v1_covers_same_workloads(golden_v1, current_v1):
    assert set(golden_v1) == set(current_v1)


def test_golden_v2_covers_same_workloads(golden_v2, current_v2):
    assert set(golden_v2) == set(current_v2)


def test_golden_v3_covers_same_workloads(golden_v3, current_v3):
    assert set(golden_v3) == set(current_v3)


def test_golden_v4_covers_same_workloads(golden_v4, current_v4):
    assert set(golden_v4) == set(current_v4)


def test_golden_v5_covers_same_workloads(golden_v5, current_v5):
    assert set(golden_v5) == set(current_v5)


@pytest.mark.parametrize(
    "key",
    [
        "graph/grid/64",
        "graph/grid/144",
        "graph/ring/256",
        "graph/scale_free/128",
        "graph/ad_hoc/128",
        "det_partition/grid/64",
        "det_partition/grid/144",
        "mst/ring/256",
    ],
)
def test_output_matches_seed_golden(golden_v1, current_v1, key):
    assert current_v1[key] == golden_v1[key], (
        f"{key} diverged from the seed implementation; if the algorithm "
        "change is intentional, regenerate tests/data/goldens/"
    )


@pytest.mark.parametrize(
    "key",
    [
        "rand_partition/grid/100/seed1",
        "rand_partition/grid/100/seed3",
        "rand_partition/scale_free/128/seed1",
        "contention/metcalfe_boggs/k16/seed7",
        "contention/metcalfe_boggs/k48/seed21",
        "channel_baseline/ring/256",
    ],
)
def test_output_matches_stream_golden(golden_v2, current_v2, key):
    assert current_v2[key] == golden_v2[key], (
        f"{key} diverged from the v2 (skip-ahead) RNG stream era; if the "
        "stream change is intentional, regenerate tests/data/goldens/"
    )


@pytest.mark.parametrize(
    "key",
    [
        "adversity/global/grid/64/crash",
        "adversity/global/grid/64/churn",
        "adversity/global/grid/64/jam",
        "adversity/global/grid/64/loss",
        "adversity/e11/quick",
    ],
)
def test_output_matches_adversity_golden(golden_v3, current_v3, key):
    assert current_v3[key] == golden_v3[key], (
        f"{key} diverged from the v3 (adversity) fingerprint era; if the "
        "schedule or stream change is intentional, regenerate "
        "tests/data/goldens/"
    )


def test_output_matches_substream_golden(golden_v4, current_v4):
    for key in golden_v4:
        assert current_v4[key] == golden_v4[key], (
            f"{key} diverged from the v4 (per-node substream) stream era; if "
            "the stream change is intentional, regenerate tests/data/goldens/"
        )


def test_output_matches_workload_golden(golden_v5, current_v5):
    for key in golden_v5:
        assert current_v5[key] == golden_v5[key], (
            f"{key} diverged from the v5 (workload-family) stream era; if "
            "the stream change is intentional, regenerate tests/data/goldens/"
        )


@pytest.mark.parametrize(
    "fixture,path",
    [
        ("current_v1", GOLDEN_V1),
        ("current_v2", GOLDEN_V2),
        ("current_v3", GOLDEN_V3),
        ("current_v4", GOLDEN_V4),
        ("current_v5", GOLDEN_V5),
    ],
    ids=["v1", "v2", "v3", "v4", "v5"],
)
def test_goldens_regenerate_byte_identically(fixture, path, request):
    """Re-serializing the current state must reproduce the committed bytes.

    Stricter than the per-key equality above: it also pins key coverage,
    serialization format and trailing newline, so running this module's
    ``__main__`` regeneration on an equivalent tree leaves ``git diff``
    empty — the check the CSR graph-core refactor (PR 8) is held to.
    """
    current = request.getfixturevalue(fixture)
    regenerated = json.dumps(current, indent=2, sort_keys=True) + "\n"
    assert regenerated == path.read_text(), (
        f"{path.name} would not regenerate byte-identically; if the change "
        "is intentional, regenerate tests/data/goldens/ and review the diff"
    )


if __name__ == "__main__":
    for path, state in (
        (GOLDEN_V1, _compute_deterministic_state()),
        (GOLDEN_V2, _compute_stream_state()),
        (GOLDEN_V3, _compute_adversity_state()),
        (GOLDEN_V4, _compute_substream_state()),
        (GOLDEN_V5, _compute_workload_state()),
    ):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(_normalize(state), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {path}")
