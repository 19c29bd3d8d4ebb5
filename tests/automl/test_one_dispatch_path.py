"""Static guard: ``repro.automl`` has one fold-dispatch engine, not two.

Every backend — serial, process, fleet tenant — dispatches folds
through ``_PoolBackend.submit`` / ``submit_refit``, aggregates and
reports them in ``_PooledCandidateFuture``, and evaluates a configuration
on a fold in ``_solo_fold``; ``search.cross_validate_template`` is the
plain reference loop the dispatcher is tested against.  A second engine
shows up as a second site of one of the constructs below: a fold event, a
fold evaluation, an executor job submission or a use of a fold entry
point.  This walks the syntax trees of the package's
modules and fails, naming the sites, when any construct gains one.
"""

import ast
import os

import pytest

import repro.automl

PACKAGE = os.path.dirname(repro.automl.__file__)

#: Event types a second engine would have to emit or capture itself.
EVENTS = ("fold_started", "fold_finished", "fold_cancelled", "fold_dispatched")

#: Functions whose use hands a configuration to a fold evaluator.
FOLD_ENTRY_POINTS = ("_solo_fold", "evaluate_fold_indices")

#: construct -> the sites allowed to have it, as ``(module, qualified name)``.
ALLOWED = {
    'the event "fold_started"': [
        ("backends.py", "_solo_fold"),
    ],
    'the event "fold_finished"': [
        ("backends.py", "_PooledCandidateFuture._ingest_fold"),
    ],
    'the event "fold_cancelled"': [
        ("backends.py", "_PooledCandidateFuture._ingest_fold"),
    ],
    'the event "fold_dispatched"': [
        ("backends.py", "_PoolBackend.submit"),
    ],
    "a call of evaluate_pipeline": [
        ("backends.py", "_solo_fold"),
        ("search.py", "cross_validate_template"),
    ],
    "an executor job submission": [
        ("backends.py", "_PoolBackend.submit"),
        ("backends.py", "_PoolBackend.submit_refit"),
        # relays an admitted tenant job, made by submit, to the shared pool
        ("fleet.py", "FleetCoordinator._launch"),
    ],
    "a use of a fold entry point": [
        ("backends.py", "evaluate_fold_indices"),
        ("backends.py", "_PoolBackend._fold_function"),
        ("backends.py", "SerialBackend._fold_function"),
    ],
}


def _constructs(node):
    """The guarded constructs ``node`` is a site of (usually none)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "evaluate_pipeline":
            yield "a call of evaluate_pipeline"
        if (node.func.attr == "submit" and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "_executor"):
            yield "an executor job submission"
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "evaluate_pipeline"):
        yield "a call of evaluate_pipeline"
    if isinstance(node, ast.Constant) and node.value in EVENTS:
        yield 'the event "{}"'.format(node.value)
    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id in FOLD_ENTRY_POINTS):
        yield "a use of a fold entry point"


def _sites():
    """construct -> sorted ``(module, qualified name)`` of every site in the package."""
    found = {construct: set() for construct in ALLOWED}

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        for construct in _constructs(node):
            found[construct].add((module, ".".join(scope) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module)) as stream:
                visit(ast.parse(stream.read()), module, ())
    return {construct: sorted(sites) for construct, sites in found.items()}


SITES = _sites()


@pytest.mark.parametrize("construct", sorted(ALLOWED))
def test_one_site_per_dispatch_construct(construct):
    assert SITES[construct] == sorted(ALLOWED[construct]), (
        "{} has other sites than the one dispatch path: a second engine? "
        "found {}".format(construct, SITES[construct]))
