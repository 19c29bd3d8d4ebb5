"""Pipeline-graph recovery (paper Algorithm 1).

Given only the topological ordering of pipeline steps (the pipeline
description interface) and the ML data types each step consumes and
produces, the full computational graph is recovered by walking the steps
in reverse order and connecting each produced data item to the nearest
downstream consumer.
"""

import networkx as nx

#: Name of the virtual source node that provides the pipeline-level inputs.
SOURCE = "__input__"

#: Name of the virtual sink node that consumes the pipeline-level outputs.
SINK = "__output__"


class InvalidPipelineError(ValueError):
    """Raised when a pipeline violates the acceptability constraints."""


class _GraphNode:
    """Internal view of a step for the recovery algorithm."""

    def __init__(self, name, inputs, outputs, optional=()):
        self.name = name
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.optional = set(optional)


def recover_graph(steps, inputs, outputs=None):
    """Recover the computational graph of a pipeline description.

    Parameters
    ----------
    steps:
        Ordered list of :class:`~repro.core.step.PipelineStep` objects (the
        pipeline description interface).
    inputs:
        Context keys provided by the caller (the outputs of the virtual
        source node).
    outputs:
        Context keys expected at the end of the pipeline (the inputs of the
        virtual sink node).  Defaults to the outputs of the last step.

    Returns
    -------
    networkx.MultiDiGraph
        Graph whose nodes are step names plus the virtual ``__input__`` and
        ``__output__`` nodes, with one edge per data item labeled with the
        ``data`` attribute.

    Raises
    ------
    InvalidPipelineError
        If a step is isolated (produces nothing any downstream step needs)
        or some input is never satisfied.
    """
    if not steps:
        raise InvalidPipelineError("Cannot recover a graph from an empty pipeline")
    if outputs is None:
        outputs = steps[-1].produce_outputs()

    nodes = [_GraphNode(SOURCE, inputs=[], outputs=list(inputs))]
    for step in steps:
        # during the produce phase a step consumes its produce inputs; its fit
        # inputs also participate in the fit graph, so take the union for
        # acceptability checking
        step_inputs = list(dict.fromkeys(step.produce_inputs() + step.fit_inputs()))
        nodes.append(_GraphNode(
            step.name,
            inputs=step_inputs,
            outputs=step.produce_outputs(),
            optional=step.optional_inputs(),
        ))
    nodes.append(_GraphNode(SINK, inputs=list(outputs), outputs=[]))

    graph = nx.MultiDiGraph()
    unsatisfied = []  # list of (consumer_name, data_item, is_optional)
    remaining = list(nodes)

    while remaining:
        node = remaining.pop()  # popright: last remaining step
        matches = [entry for entry in unsatisfied if entry[1] in node.outputs]
        if matches or not graph.nodes or node.name == SOURCE:
            graph.add_node(node.name)
            for entry in matches:
                consumer, data_item, _ = entry
                unsatisfied.remove(entry)
                graph.add_edge(node.name, consumer, data=data_item)
            for data_item in node.inputs:
                unsatisfied.append((node.name, data_item, data_item in node.optional))
        else:
            raise InvalidPipelineError(
                "Step {!r} is isolated: none of its outputs {} are consumed by a "
                "downstream step".format(node.name, node.outputs)
            )

    required_leftovers = [entry for entry in unsatisfied if not entry[2]]
    if required_leftovers:
        missing = sorted({item for _, item, _ in required_leftovers})
        consumers = sorted({consumer for consumer, _, _ in required_leftovers})
        raise InvalidPipelineError(
            "Unsatisfied inputs remain after graph recovery: {} required by {}".format(
                missing, consumers
            )
        )
    return graph


def live_produces(steps):
    """Fit-time liveness: per step, whether its ``produce`` output is ever read.

    While fitting, every step's ``fit`` runs, but a step's ``produce`` only
    matters if a later step's ``fit`` — or a later step's *live*
    ``produce`` — reads one of its outputs.  Walking the steps backwards
    with the set of keys still needed downstream decides that from the
    same declarations :func:`recover_graph` uses (optional inputs count as
    reads).  A live step satisfies the reads of every key it writes, so its
    outputs leave the needed set *before* its own inputs join it — that
    order is what makes an overwrite chain such as ``X -> X -> X`` resolve
    each read to the nearest upstream writer.
    """
    needed = set()
    live = [False] * len(steps)
    for index in range(len(steps) - 1, -1, -1):
        step = steps[index]
        outputs = step.produce_outputs()
        if not needed.isdisjoint(outputs):
            live[index] = True
            needed.difference_update(outputs)
            needed.update(step.produce_inputs())
        needed.update(step.fit_inputs())
    return live


def topological_order(graph):
    """Topological ordering of the recovered graph (excluding virtual nodes)."""
    order = list(nx.topological_sort(graph))
    return [name for name in order if name not in (SOURCE, SINK)]


def edge_data_items(graph):
    """List of ``(producer, consumer, data_item)`` triples of the recovered graph."""
    return [
        (producer, consumer, attributes["data"])
        for producer, consumer, attributes in graph.edges(data=True)
    ]
