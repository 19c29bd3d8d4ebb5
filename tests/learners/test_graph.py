"""Tests for graph featurization, link prediction and community detection."""

import copy
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from repro.learners.graph import (
    CommunityBestPartition,
    graph_feature_extraction,
    link_prediction_feature_extraction,
    louvain_communities,
)
from repro.learners.graph.community import _moving_kernel, modularity
from repro.learners.metrics import adjusted_rand_score


@pytest.fixture
def two_cliques():
    """Two 6-cliques joined by a single bridge edge."""
    graph = nx.Graph()
    graph.add_edges_from((i, j) for i in range(6) for j in range(i + 1, 6))
    graph.add_edges_from((i, j) for i in range(6, 12) for j in range(i + 1, 12))
    graph.add_edge(0, 6)
    return graph


class TestGraphFeatureExtraction:
    def test_feature_shape(self, two_cliques):
        features = graph_feature_extraction(two_cliques)
        assert features.shape == (12, 5)

    def test_subset_of_nodes(self, two_cliques):
        features = graph_feature_extraction(two_cliques, nodes=[0, 1, 2])
        assert features.shape == (3, 5)

    def test_degree_column_correct(self, two_cliques):
        features = graph_feature_extraction(two_cliques, nodes=[1])
        assert features[0, 0] == 5.0  # inside a 6-clique

    def test_unknown_node_gets_zero_row(self, two_cliques):
        features = graph_feature_extraction(two_cliques, nodes=[999])
        assert np.allclose(features[0], 0.0)

    def test_clustering_is_one_inside_clique(self, two_cliques):
        features = graph_feature_extraction(two_cliques, nodes=[3])
        assert features[0, 1] == pytest.approx(1.0)

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            graph_feature_extraction(nx.Graph())


class TestLinkPredictionFeatures:
    def test_feature_shape(self, two_cliques):
        pairs = [(0, 1), (0, 7)]
        features = link_prediction_feature_extraction(two_cliques, pairs)
        assert features.shape == (2, 5)

    def test_within_clique_pair_has_more_common_neighbors(self, two_cliques):
        features = link_prediction_feature_extraction(two_cliques, [(1, 2), (1, 7)])
        assert features[0, 0] > features[1, 0]

    def test_jaccard_bounded(self, two_cliques):
        pairs = [(0, 1), (2, 9), (5, 11)]
        features = link_prediction_feature_extraction(two_cliques, pairs)
        assert np.all(features[:, 1] >= 0.0)
        assert np.all(features[:, 1] <= 1.0)

    def test_same_component_flag(self, two_cliques):
        isolated = nx.Graph(two_cliques)
        isolated.add_node(100)
        features = link_prediction_feature_extraction(isolated, [(0, 1), (0, 100)])
        assert features[0, 4] == 1.0
        assert features[1, 4] == 0.0

    def test_unknown_nodes_get_zero_row(self, two_cliques):
        features = link_prediction_feature_extraction(two_cliques, [(500, 501)])
        assert np.allclose(features[0], 0.0)

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            link_prediction_feature_extraction(nx.Graph(), [(0, 1)])


class TestCommunityDetection:
    def test_separates_two_cliques(self, two_cliques):
        partition = louvain_communities(two_cliques, random_state=0)
        first = {partition[node] for node in range(6)}
        second = {partition[node] for node in range(6, 12)}
        assert len(first) == 1
        assert len(second) == 1
        assert first != second

    def test_partition_covers_all_nodes(self, two_cliques):
        partition = louvain_communities(two_cliques, random_state=0)
        assert set(partition) == set(two_cliques.nodes())

    def test_community_labels_are_consecutive(self, two_cliques):
        partition = louvain_communities(two_cliques, random_state=0)
        labels = set(partition.values())
        assert labels == set(range(len(labels)))

    def test_empty_graph_gives_empty_partition(self):
        assert louvain_communities(nx.Graph()) == {}

    def test_modularity_positive_for_good_partition(self, two_cliques):
        partition = louvain_communities(two_cliques, random_state=0)
        assert modularity(two_cliques, partition) > 0.3

    def test_recovers_planted_blocks_on_sbm(self):
        rng = np.random.RandomState(0)
        sizes = [20, 20, 20]
        probabilities = [[0.4, 0.02, 0.02], [0.02, 0.4, 0.02], [0.02, 0.02, 0.4]]
        graph = nx.stochastic_block_model(sizes, probabilities, seed=1)
        truth = np.repeat([0, 1, 2], 20)
        partition = louvain_communities(nx.Graph(graph), random_state=0)
        predicted = np.asarray([partition[node] for node in range(60)])
        assert adjusted_rand_score(truth, predicted) > 0.6
        assert rng is not None

    def test_primitive_wrapper_returns_aligned_labels(self, two_cliques):
        labels = CommunityBestPartition(random_state=0).produce(two_cliques, nodes=list(range(12)))
        assert labels.shape == (12,)
        assert labels.dtype.kind == "i"

    def test_primitive_wrapper_unknown_node_label(self, two_cliques):
        labels = CommunityBestPartition(random_state=0).produce(two_cliques, nodes=[0, 999])
        assert labels[1] == -1


def _reference_louvain(graph, resolution=1.0, random_state=None):
    """``louvain_communities`` as it was before the adjacency was hoisted, frozen.

    Resolves ``graph[node][neighbor]`` through the networkx views on every
    edge visit; the partition it returns is the reference the production
    function must reproduce exactly.
    """
    from repro.learners.base import check_random_state

    if graph.number_of_nodes() == 0:
        return {}
    rng = check_random_state(random_state)
    nodes = list(graph.nodes())
    community = {node: i for i, node in enumerate(nodes)}
    total_weight = graph.size(weight="weight") or graph.number_of_edges()
    if total_weight == 0:
        return community
    two_m = 2.0 * total_weight
    degrees = dict(graph.degree(weight="weight"))
    community_degree = {community[node]: degrees[node] for node in nodes}
    improved = True
    iterations = 0
    while improved and iterations < 20:
        improved = False
        iterations += 1
        order = list(nodes)
        rng.shuffle(order)
        for node in order:
            current = community[node]
            community_degree[current] -= degrees[node]
            neighbor_weights = {}
            for neighbor in graph.neighbors(node):
                if neighbor == node:
                    continue
                weight = graph[node][neighbor].get("weight", 1.0)
                neighbor_community = community[neighbor]
                neighbor_weights[neighbor_community] = (
                    neighbor_weights.get(neighbor_community, 0.0) + weight
                )
            best_community = current
            best_gain = 0.0
            for candidate, weight in neighbor_weights.items():
                gain = (weight - resolution * community_degree.get(candidate, 0.0)
                        * degrees[node] / two_m)
                if gain > best_gain:
                    best_gain = gain
                    best_community = candidate
            community[node] = best_community
            community_degree[best_community] = (
                community_degree.get(best_community, 0.0) + degrees[node]
            )
            if best_community != current:
                improved = True
    labels = {}
    relabeled = {}
    for node in nodes:
        label = community[node]
        if label not in labels:
            labels[label] = len(labels)
        relabeled[node] = labels[label]
    return relabeled


def _random_graph(kind, seed):
    """Seeded random graph; ``kind`` picks class, weights and self-loops."""
    rng = np.random.RandomState(seed)
    n_nodes = int(rng.randint(2, 40))
    graph = {"directed": nx.DiGraph, "multi": nx.MultiGraph}.get(kind, nx.Graph)()
    # string and int labels, inserted out of order: neighbor order is
    # insertion order and the partition depends on it
    labels = [("n%d" % i if i % 3 == 0 else i) for i in rng.permutation(n_nodes)]
    graph.add_nodes_from(labels)
    n_edges = int(rng.randint(1, 4 * n_nodes))
    for _ in range(n_edges):
        source, target = (labels[int(i)] for i in rng.randint(0, n_nodes, size=2))
        if source == target and kind != "self_loops":
            continue
        if kind == "unweighted":
            graph.add_edge(source, target)
        else:
            # thirds and tenths do not add associatively in floating point
            graph.add_edge(source, target, weight=float(rng.choice([1 / 3, 0.1, 0.7, 2.5])))
    return graph


class TestLouvainMatchesFrozenReference:
    @pytest.mark.parametrize(
        "kind", ["weighted", "unweighted", "directed", "self_loops", "multi"])
    def test_identical_partitions(self, kind):
        compared = 0
        for seed in range(12):
            graph = _random_graph(kind, seed)
            for resolution in (0.5, 1.0, 1.7):
                for random_state in (0, 1, 7):
                    expected = _reference_louvain(graph, resolution, random_state)
                    actual = louvain_communities(graph, resolution, random_state)
                    assert actual == expected, (kind, seed, resolution, random_state)
                    assert list(actual) == list(expected)
                    compared += 1
        assert compared == 108

    def test_table_ii_community_task(self):
        from repro.tasks import synth

        task = synth.make_community_detection(random_state=3)
        graph = task.context["graph"]
        for resolution in (0.3, 1.0, 2.4):
            assert (louvain_communities(graph, resolution, random_state=0)
                    == _reference_louvain(graph, resolution, random_state=0))


def _weighted_gnp():
    """A graph whose partition at resolution 0.75 changes when NumPy sums in float32."""
    graph = nx.gnp_random_graph(30, 0.2, seed=116)
    rng = np.random.RandomState(116)
    for source, target in graph.edges():
        graph[source][target]["weight"] = float(rng.choice([0.1, 1 / 3, 0.7, 2.5]))
    return graph


def _big_weight_star(number):
    """A star whose int and float weights and degrees are equal, value for value.

    Only int arithmetic keeps ``2**53 + 2 - 1`` exact, so the two
    partitions differ.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(4))
    graph.add_edge(0, 2, weight=number(1))
    graph.add_edge(1, 2, weight=number(1))
    graph.add_edge(2, 3, weight=number(2 ** 53))
    return graph


class TestLouvainMemo:
    """The memoised moving loop returns what the frozen reference returns."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        _moving_kernel.cache_clear()
        yield
        _moving_kernel.cache_clear()

    @pytest.mark.parametrize(
        "kind", ["weighted", "unweighted", "directed", "self_loops", "multi"])
    def test_warm_memo_matches_frozen_reference(self, kind):
        compared = 0
        for seed in range(12):
            graph = _random_graph(kind, seed)
            runs_kernel = bool(graph.size(weight="weight") or graph.number_of_edges())
            for resolution in (0.5, 1.0, 1.7):
                for random_state in (0, 1, 7):
                    expected = _reference_louvain(graph, resolution, random_state)
                    # warmed by another graph object: the memo is keyed by content
                    louvain_communities(copy.deepcopy(graph), resolution, random_state)
                    hits = _moving_kernel.cache_info().hits
                    actual = louvain_communities(graph, resolution, random_state)
                    assert actual == expected, (kind, seed, resolution, random_state)
                    assert list(actual) == list(expected)
                    assert _moving_kernel.cache_info().hits == hits + runs_kernel
                    compared += 1
        assert compared == 108

    def test_warm_memo_on_the_table_ii_community_task(self):
        from repro.tasks import synth

        graph = synth.make_community_detection(random_state=3).context["graph"]
        for resolution in (0.3, 1.0, 2.4):
            louvain_communities(graph, resolution, random_state=0)
            assert (louvain_communities(graph, resolution, random_state=0)
                    == _reference_louvain(graph, resolution, random_state=0))

    @pytest.mark.parametrize("first", ["float", "float32"])
    def test_float32_resolution_is_a_key_of_its_own(self, first):
        graph = _weighted_gnp()
        resolutions = {"float": 0.75, "float32": np.float32(0.75)}
        assert resolutions["float"] == resolutions["float32"]
        expected = {name: _reference_louvain(graph, value, 0)
                    for name, value in resolutions.items()}
        assert expected["float"] != expected["float32"]
        for name in sorted(resolutions, key=lambda name: name != first):
            assert louvain_communities(graph, resolutions[name], 0) == expected[name]

    @pytest.mark.parametrize("first", [int, float], ids=["int", "float"])
    def test_int_and_float_weights_are_keys_of_their_own(self, first):
        graphs = {number: _big_weight_star(number) for number in (int, float)}
        assert (list(graphs[int].degree(weight="weight"))
                == list(graphs[float].degree(weight="weight")))
        expected = {number: _reference_louvain(graph, 1.0, 0)
                    for number, graph in graphs.items()}
        assert expected[int] != expected[float]
        for number in sorted(graphs, key=lambda number: number is not first):
            assert louvain_communities(graphs[number], 1.0, 0) == expected[number]

    @pytest.mark.parametrize("change", ["reweight", "add_edge", "remove_edge", "reorder"])
    def test_graph_changed_after_a_cached_call(self, change):
        graph = _random_graph("weighted", 2)
        before = louvain_communities(graph, 1.0, 0)
        edge = next(iter(graph.edges()))
        if change == "reweight":
            graph[edge[0]][edge[1]]["weight"] = 25.0
        elif change == "add_edge":
            nodes = list(graph)
            graph.add_edge(*next((source, target) for source in nodes for target in nodes
                                 if source != target and not graph.has_edge(source, target)),
                           weight=25.0)
        elif change == "remove_edge":
            graph.remove_edge(*edge)
        else:
            reordered = nx.Graph()
            reordered.add_nodes_from(reversed(list(graph.nodes(data=True))))
            reordered.add_edges_from(graph.edges(data=True))
            graph = reordered
        expected = _reference_louvain(graph, 1.0, 0)
        assert expected != before
        actual = louvain_communities(graph, 1.0, 0)
        assert actual == expected
        assert list(actual) == list(expected)

    def test_unseeded_calls_draw_from_their_rng_like_the_reference(self):
        graph = _weighted_gnp()
        louvain_communities(graph, 1.0, 0)
        info = _moving_kernel.cache_info()
        state = np.random.get_state()
        try:
            outcomes = []
            for louvain in (louvain_communities, _reference_louvain):
                np.random.seed(3)
                rng = np.random.RandomState(4)
                outcomes.append((
                    louvain(graph, 1.0, None), louvain(graph, 1.0, None),
                    np.random.random_sample(),
                    louvain(graph, 1.0, rng), louvain(graph, 1.0, rng),
                    rng.random_sample(),
                ))
        finally:
            np.random.set_state(state)
        assert outcomes[0] == outcomes[1]
        assert _moving_kernel.cache_info() == info  # neither looked up nor stored

    def test_returned_dicts_are_independent(self, two_cliques):
        first = louvain_communities(two_cliques, 1.0, 0)
        first[0] = 99
        second = louvain_communities(two_cliques, 1.0, 0)
        assert second is not first
        assert second == _reference_louvain(two_cliques, 1.0, 0)

    @pytest.mark.parametrize("weight", [[1.0], np.array([1.0, 2.0])], ids=["list", "array"])
    def test_unhashable_weight_raises_like_the_reference(self, two_cliques, weight):
        two_cliques[0][6]["weight"] = weight
        with pytest.raises(Exception) as expected:
            _reference_louvain(two_cliques, 1.0, 0)
        with pytest.raises(expected.type) as actual:
            louvain_communities(two_cliques, 1.0, 0)
        assert str(actual.value) == str(expected.value)

    @pytest.mark.parametrize("resolution", [np.array(0.75), Fraction(3, 4)],
                             ids=["0d-array", "fraction"])
    def test_resolution_that_is_not_plain_runs_uncached_with_its_seed(self, resolution):
        graph = _weighted_gnp()
        partitions = set()
        for random_state in range(4):
            expected = _reference_louvain(graph, resolution, random_state)
            assert louvain_communities(graph, resolution, random_state) == expected
            partitions.add(tuple(expected.values()))
        assert len(partitions) > 1  # the seed matters on this graph
        assert _moving_kernel.cache_info().currsize == 0

    def test_three_folds_and_the_refit_run_the_kernel_once(self):
        from repro.automl import AutoBazaarSearch
        from repro.tasks import synth

        task = synth.make_community_detection(random_state=3)
        result = AutoBazaarSearch(
            n_splits=3, random_state=0, estimator_seed=0, backend="serial",
        ).search(task, budget=1)
        assert result.n_evaluated == 1 and result.test_score is not None
        info = _moving_kernel.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_memo_holds_at_most_two_graphs(self):
        for seed in range(3):
            louvain_communities(_random_graph("weighted", seed + 1), 1.0, 0)
        info = _moving_kernel.cache_info()
        assert (info.misses, info.maxsize, info.currsize) == (3, 2, 2)
