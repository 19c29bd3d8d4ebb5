"""Community detection (stand-in for ``python-louvain`` / ``community.best_partition``)."""

import functools

import numpy as np
import networkx as nx

from repro.learners.base import BaseEstimator, check_random_state

#: Number types whose equal values of one type run bit-identical arithmetic
#: in the moving loop.  (``0.0 == -0.0`` is the one pair of equal floats with
#: different bits; the loop divides only by the non-zero total weight and its
#: numbers reach the result only through comparisons, which cannot tell the
#: two zeros apart.)
_PLAIN_NUMBERS = frozenset(
    [bool, int, float, np.bool_]
    + [np.dtype(code).type for code in np.typecodes["AllInteger"] + np.typecodes["Float"]]
)


def louvain_communities(graph, resolution=1.0, random_state=None):
    """Partition a graph into communities by greedy modularity maximization.

    A light-weight Louvain-style local moving heuristic: nodes are moved
    between communities while modularity improves.  Returns a mapping
    ``node -> community_id`` like ``community.best_partition``.

    The partition depends on the graph, ``resolution`` and the seed only,
    never on which fold of a cross-validation asks for it, so the moving
    loop (``_moving_kernel``) is memoised on its inputs: the node-position
    adjacency with its weights, the weighted degrees, the total weight,
    ``resolution`` and an integer ``random_state``.  Every number enters the
    key with its type, so equal keys run bit-identical arithmetic
    (``np.float32(0.75) == 0.75``, but NumPy sums the former in float32).
    Calls whose seed is ``None`` or a ``RandomState``, or whose numbers are
    not plain ints and floats, run the loop uncached, drawing from their RNG
    as they always did.  The memo holds two partitions, each
    keyed by an O(nodes + edges) copy of its graph's content: one
    candidate's folds run back to back, so every fold after the first hits.
    Each call builds a new dict.
    """
    if graph.number_of_nodes() == 0:
        return {}
    # RandomState rejects seeds outside [0, 2**32): those are resolved with
    # None and RandomState instances, and raise here as they always have
    seeded = isinstance(random_state, (int, np.integer)) and 0 <= random_state < 2 ** 32
    if not seeded:
        random_state = check_random_state(random_state)
    nodes = list(graph.nodes())
    weighted = dict(graph.degree(weight="weight"))
    # Graph.size(weight=...) is this same sum, halved
    total_weight = sum(weighted.values()) / 2 or graph.number_of_edges()
    if total_weight == 0:
        return {node: i for i, node in enumerate(nodes)}

    # the moving loop works on node positions 0..n-1; read the raw adjacency
    # dicts once, keeping each node's neighbor order (the loop's float sums
    # depend on it)
    position = {node: i for i, node in enumerate(nodes)}
    degrees = tuple(weighted[node] for node in nodes)
    raw = dict(graph.adjacency())
    adjacency = tuple(
        tuple(
            (position[neighbor], data.get("weight", 1.0))
            for neighbor, data in raw[node].items() if neighbor != node
        )
        for node in nodes
    )
    number_types = tuple(map(type, degrees)) + tuple(
        type(weight) for row in adjacency for _, weight in row
    )
    if seeded and type(resolution) in _PLAIN_NUMBERS and _PLAIN_NUMBERS.issuperset(number_types):
        labels = _moving_kernel(
            adjacency, degrees, total_weight, resolution, int(random_state), number_types
        )
    else:
        labels = _moving_kernel.__wrapped__(
            adjacency, degrees, total_weight, resolution, random_state, None
        )
    return dict(zip(nodes, labels))


@functools.lru_cache(maxsize=2, typed=True)
def _moving_kernel(adjacency, degrees, total_weight, resolution, random_state, number_types):
    """The local moving loop on node positions; returns each position's label.

    ``adjacency[i]`` holds one ``(position, weight)`` pair per neighbor of
    node ``i``, ``degrees[i]`` is its weighted degree.  Labels are
    consecutive from 0 in order of first appearance.  ``number_types`` (the
    types of ``degrees`` and then of the weights) only keys the memo.
    """
    rng = check_random_state(random_state)
    two_m = 2.0 * total_weight
    n_nodes = len(degrees)
    # a node's community starts as its own position, so labels are positions too
    community = list(range(n_nodes))
    community_degree = list(degrees)

    improved = True
    iterations = 0
    while improved and iterations < 20:
        improved = False
        iterations += 1
        # RandomState.shuffle makes the same swaps whatever the list holds
        order = list(range(n_nodes))
        rng.shuffle(order)
        for node in order:
            current = community[node]
            degree = degrees[node]
            community_degree[current] -= degree
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
                gain = weight - resolution * community_degree[candidate] * degree / two_m
                if gain > best_gain:
                    best_gain = gain
                    best_community = candidate
            community[node] = best_community
            community_degree[best_community] += degree
            if best_community != current:
                improved = True

    # relabel communities to consecutive integers
    labels = {}
    return tuple(labels.setdefault(label, len(labels)) for label in community)


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
