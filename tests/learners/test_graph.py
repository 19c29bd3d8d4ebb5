"""Tests for graph featurization, link prediction and community detection."""

import networkx as nx
import numpy as np
import pytest

from repro.learners.graph import (
    CommunityBestPartition,
    graph_feature_extraction,
    link_prediction_feature_extraction,
    louvain_communities,
)
from repro.learners.graph.community import modularity
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
