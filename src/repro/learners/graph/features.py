"""Graph feature extraction primitives built on networkx.

These stand in for the ``graph_feature_extraction`` and
``link_prediction_feature_extraction`` primitives used by the graph
templates of paper Table II (graph matching, link prediction and vertex
nomination tasks).
"""

import numpy as np
import networkx as nx

from repro.learners.base import BaseEstimator


def graph_feature_extraction(graph, nodes=None):
    """Per-node structural features: degree, clustering, pagerank, core number.

    Parameters
    ----------
    graph:
        A ``networkx.Graph``.
    nodes:
        Nodes to featurize; defaults to every node in the graph.

    Returns
    -------
    2-D float array of shape ``(len(nodes), 5)``.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("Cannot featurize an empty graph")
    if nodes is None:
        nodes = list(graph.nodes())
    degrees = dict(graph.degree())
    clustering = nx.clustering(graph)
    pagerank = nx.pagerank(graph, max_iter=100)
    try:
        core_numbers = nx.core_number(graph)
    except nx.NetworkXError:
        core_numbers = {node: 0 for node in graph.nodes()}
    features = []
    for node in nodes:
        if node in graph:
            features.append([
                float(degrees.get(node, 0)),
                float(clustering.get(node, 0.0)),
                float(pagerank.get(node, 0.0)),
                float(core_numbers.get(node, 0)),
                float(nx.degree(graph, node)),
            ])
        else:
            features.append([0.0, 0.0, 0.0, 0.0, 0.0])
    return np.asarray(features, dtype=float)


def link_prediction_feature_extraction(graph, pairs):
    """Per-pair topological features for link prediction.

    For every ``(u, v)`` pair the features are: number of common
    neighbors, Jaccard coefficient, Adamic-Adar index, preferential
    attachment score, and whether the two nodes are in the same connected
    component.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("Cannot featurize pairs on an empty graph")
    components = {}
    for component_id, component in enumerate(nx.connected_components(graph)):
        for node in component:
            components[node] = component_id

    features = []
    for u, v in pairs:
        if u not in graph or v not in graph:
            features.append([0.0, 0.0, 0.0, 0.0, 0.0])
            continue
        neighbors_u = set(graph.neighbors(u))
        neighbors_v = set(graph.neighbors(v))
        common = neighbors_u & neighbors_v
        union = neighbors_u | neighbors_v
        jaccard = len(common) / len(union) if union else 0.0
        adamic_adar = sum(
            1.0 / np.log(graph.degree(node)) for node in common if graph.degree(node) > 1
        )
        preferential = len(neighbors_u) * len(neighbors_v)
        same_component = float(components.get(u, -1) == components.get(v, -2))
        features.append([
            float(len(common)),
            float(jaccard),
            float(adamic_adar),
            float(preferential),
            same_component,
        ])
    return np.asarray(features, dtype=float)


class GraphFeaturizer(BaseEstimator):
    """Primitive wrapper producing node features for a node list."""

    def produce(self, graph, nodes=None):
        return graph_feature_extraction(graph, nodes=nodes)


class LinkPredictionFeatureExtractor(BaseEstimator):
    """Primitive wrapper producing pairwise features for candidate edges."""

    def produce(self, graph, pairs):
        return link_prediction_feature_extraction(graph, pairs)
