"""Community detection (stand-in for ``python-louvain`` / ``community.best_partition``)."""

import numpy as np
import networkx as nx

from repro.learners.base import BaseEstimator, check_random_state


def louvain_communities(graph, resolution=1.0, random_state=None):
    """Partition a graph into communities by greedy modularity maximization.

    A light-weight Louvain-style local moving heuristic: nodes are moved
    between communities while modularity improves.  Returns a mapping
    ``node -> community_id`` like ``community.best_partition``.
    """
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
    # the moving loop visits every edge up to 20 times: resolve the networkx
    # views once, keeping each node's neighbor order (the float sums below
    # depend on it)
    adjacency = {
        node: [
            (neighbor, data.get("weight", 1.0))
            for neighbor, data in graph.adj[node].items() if neighbor != node
        ]
        for node in nodes
    }

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
            # weights of edges from node to each neighboring community
            neighbor_weights = {}
            for neighbor, weight in adjacency[node]:
                neighbor_community = community[neighbor]
                neighbor_weights[neighbor_community] = (
                    neighbor_weights.get(neighbor_community, 0.0) + weight
                )
            best_community = current
            best_gain = 0.0
            for candidate, weight in neighbor_weights.items():
                gain = weight - resolution * community_degree.get(candidate, 0.0) * degrees[node] / two_m
                if gain > best_gain:
                    best_gain = gain
                    best_community = candidate
            community[node] = best_community
            community_degree[best_community] = (
                community_degree.get(best_community, 0.0) + degrees[node]
            )
            if best_community != current:
                improved = True

    # relabel communities to consecutive integers
    labels = {}
    relabeled = {}
    for node in nodes:
        label = community[node]
        if label not in labels:
            labels[label] = len(labels)
        relabeled[node] = labels[label]
    return relabeled


def modularity(graph, partition):
    """Newman modularity of a partition (mapping node -> community)."""
    communities = {}
    for node, community_id in partition.items():
        communities.setdefault(community_id, set()).add(node)
    return nx.algorithms.community.modularity(graph, list(communities.values()))


class CommunityBestPartition(BaseEstimator):
    """Primitive wrapper for Louvain community detection.

    ``produce`` returns an array of community labels aligned with the
    requested node list, which is what the community detection template of
    paper Table II expects.
    """

    def __init__(self, resolution=1.0, random_state=None):
        self.resolution = resolution
        self.random_state = random_state

    def produce(self, graph, nodes=None):
        partition = louvain_communities(
            graph, resolution=self.resolution, random_state=self.random_state
        )
        if nodes is None:
            nodes = list(graph.nodes())
        return np.asarray([partition.get(node, -1) for node in nodes], dtype=int)
