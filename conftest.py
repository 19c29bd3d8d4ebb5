"""Fixtures shared by ``tests/`` and ``benchmarks/``."""

import contextlib

import pytest


@pytest.fixture
def barrier_schedule(monkeypatch):
    """A context manager: searches started inside it run under a round barrier.

    The search loop has one schedule, the sliding window.  The baseline it
    is measured against — propose ``n_pending``, drain them all, repeat, so
    every worker idles behind each round's slowest evaluation — is the
    window with one more refill predicate: propose only once nothing is in
    flight.
    """
    from repro.automl import search

    class BarrierWindow(search._Window):
        def refill(self):
            if self.next_report == self.proposed:
                super().refill()

    @contextlib.contextmanager
    def barrier():
        with monkeypatch.context() as patch:
            patch.setattr(search, "_Window", BarrierWindow)
            yield

    return barrier
