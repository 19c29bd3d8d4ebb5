"""Tests for the pool's dispatch order, :class:`~repro.automl.supervisor.FairShareQueue`.

The queue is driven directly, the way the pool drives it under its lock:
``push`` when a job is submitted, ``pop`` when a worker frees, ``settle``
when a job completes, ``retries`` for a job whose worker died.  No
process, thread or executor is involved; a job's future is a plain
:class:`~concurrent.futures.Future`.
"""

import heapq
import math
from concurrent.futures import Future
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.automl.supervisor import _DEFAULT_FOLD_COST, FairShareQueue, _Job

_ids = count()


def _job(tenant):
    return _Job(next(_ids), None, (), {}, Future(), tenant)


def _one_worker(queue, costs, picks):
    """Pop and settle ``picks`` jobs one at a time; returns the tenant names picked."""
    order = []
    for _ in range(picks):
        job = queue.pop()
        order.append(job.tenant.name)
        queue.settle(job, costs[job.tenant.name])
    return order


class TestFairShareQueue:
    def test_one_tenant_is_fifo(self):
        queue = FairShareQueue()
        tenant = queue.add_tenant("t")
        jobs = [_job(tenant) for _ in range(5)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop() for _ in jobs] == jobs
        assert queue.pop() is None and not queue

    def test_weighted_stride_order(self):
        # one worker and equal fold costs: a weight-2 tenant is picked
        # exactly twice as often as a weight-1 tenant
        queue = FairShareQueue()
        a = queue.add_tenant("a", weight=2.0)
        b = queue.add_tenant("b", weight=1.0)
        for _ in range(30):
            queue.push(_job(a))
            queue.push(_job(b))
        order = _one_worker(queue, {"a": _DEFAULT_FOLD_COST, "b": _DEFAULT_FOLD_COST}, 18)
        assert order.count("a") == 2 * order.count("b")

    def test_deficit_correction_is_skew_aware(self):
        # equal weights but 9x skewed fold costs: once measured costs feed
        # the pass values, the cheap tenant streams many folds per
        # expensive one — time shares equalize, not fold counts
        queue = FairShareQueue()
        cheap = queue.add_tenant("cheap")
        heavy = queue.add_tenant("heavy")
        for _ in range(400):
            queue.push(_job(cheap))
            queue.push(_job(heavy))
        order = _one_worker(queue, {"cheap": 0.01, "heavy": 0.09}, 120)
        tail = order[20:]  # skip the estimate warm-up
        assert tail.count("heavy") >= 1  # no starvation
        assert tail.count("cheap") >= 5 * tail.count("heavy")

    def test_a_cancelled_job_is_never_picked(self):
        queue = FairShareQueue()
        tenant = queue.add_tenant("t")
        first, second = _job(tenant), _job(tenant)
        queue.push(first)
        queue.push(second)
        assert second.future.cancel() is True
        assert queue.pop() is first
        assert first.future.running() and first.future.cancel() is False
        assert queue.pop() is None  # the cancelled job was dropped
        assert tenant.folds_dispatched == 1 and tenant.inflight == 1

    def test_new_tenant_joins_at_the_minimum_pass(self):
        # the minimum over the active tenants: an idle tenant's low pass
        # does not count
        queue = FairShareQueue()
        veteran = queue.add_tenant("veteran")
        laggard = queue.add_tenant("laggard", weight=4.0)
        sleeper = queue.add_tenant("sleeper")
        for _ in range(10):
            queue.push(_job(veteran))
            queue.push(_job(laggard))
        queue.push(_job(sleeper))
        _one_worker(queue, {"veteran": 0.05, "laggard": 0.01, "sleeper": 0.01}, 8)
        assert not sleeper.active() and laggard.active() and veteran.active()
        assert 0 < sleeper.pass_value < laggard.pass_value < veteran.pass_value
        assert queue.add_tenant("newcomer").pass_value == laggard.pass_value

    def test_a_tenant_back_from_idle_resumes_at_the_active_pass(self):
        # a sat idle at pass 0 while b ran: it resumes from b's pass instead
        # of taking every pick until it catches up
        queue = FairShareQueue()
        a = queue.add_tenant("a")
        b = queue.add_tenant("b")
        for _ in range(200):
            queue.push(_job(b))
        _one_worker(queue, {"b": 0.05}, 100)
        assert a.pass_value == 0 and b.pass_value > 4.9
        for _ in range(100):
            queue.push(_job(a))
        assert a.pass_value == b.pass_value
        order = _one_worker(queue, {"a": 0.05, "b": 0.05}, 100)
        assert abs(order.count("a") - order.count("b")) <= 1

    def test_on_an_idle_pool_every_tenant_resumes_level(self):
        # b ran 100 folds while a sat idle, then both queue 150 at once: on
        # a pool with nothing to do, a's old low pass buys it no burst
        queue = FairShareQueue()
        a = queue.add_tenant("a")
        b = queue.add_tenant("b")
        for _ in range(100):
            queue.push(_job(b))
        _one_worker(queue, {"b": 0.05}, 100)
        assert not b.active() and b.pass_value > 4.9
        for _ in range(150):
            queue.push(_job(a))
            queue.push(_job(b))
        assert a.pass_value == b.pass_value
        order = _one_worker(queue, {"a": 0.05, "b": 0.05}, 150)
        assert abs(order.count("a") - order.count("b")) <= 1
        assert queue.add_tenant("newcomer").pass_value == pytest.approx(
            min(a.pass_value, b.pass_value))

    def test_a_tenant_holding_only_cancelled_jobs_is_idle(self):
        queue = FairShareQueue()
        a = queue.add_tenant("a")
        b = queue.add_tenant("b")
        first = _job(b)
        queue.push(first)
        queue.push(_job(b))
        assert queue.pop() is first
        stale = _job(a)
        queue.push(stale)
        assert stale.future.cancel()  # before any worker freed: still queued
        queue.settle(first, 1.0)  # b's pass jumps with no pick in between
        assert not a.active() and a.pass_value < b.pass_value
        assert queue.add_tenant("newcomer").pass_value == b.pass_value
        queue.push(_job(a))
        assert a.pass_value == b.pass_value

    def test_a_retry_goes_first_and_is_charged_once(self):
        queue = FairShareQueue()
        a = queue.add_tenant("a")
        b = queue.add_tenant("b")
        crashed = _job(a)
        queue.push(crashed)
        assert queue.pop() is crashed
        charged = a.pass_value
        queue.push(_job(b))
        queue.retries.append(crashed)  # its worker died: back ahead of new work
        assert queue.pop() is crashed
        assert (a.pass_value, a.folds_dispatched, a.inflight) == (charged, 1, 1)
        queue.settle(crashed, 0.25)
        assert a.pass_value == pytest.approx(0.25) and a.fold_seconds == 0.25
        assert a.inflight == 0

    def test_release_hands_back_the_queued_jobs(self):
        queue = FairShareQueue()
        tenant = queue.add_tenant("t")
        jobs = [_job(tenant) for _ in range(3)]
        for job in jobs:
            queue.push(job)
        taken = queue.pop()
        assert queue.release(tenant) == jobs[1:]
        assert queue.pop() is None
        with pytest.raises(RuntimeError, match="no longer registered"):
            queue.push(_job(tenant))
        queue.settle(taken, 0.01)  # a job a worker took still settles

    def test_rejects_a_non_positive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            FairShareQueue().add_tenant("t", weight=0.0)


# -- the property: a simulated pool over random workloads ----------------------------

#: Folds each tenant submits.
FOLDS = 25


@st.composite
def workloads(draw):
    n_tenants = draw(st.integers(1, 4))
    total = n_tenants * FOLDS
    return {
        "weights": draw(st.lists(st.integers(1, 4), min_size=n_tenants, max_size=n_tenants)),
        # each tenant cycles through its own fold costs, in hundredths of a second
        "costs": draw(st.lists(st.lists(st.integers(1, 10), min_size=1, max_size=3),
                               min_size=n_tenants, max_size=n_tenants)),
        "workers": draw(st.integers(1, 3)),
        # which tenant submits next; the first ``upfront`` are queued before
        # any worker starts, the rest one per completed job
        "submissions": draw(st.permutations(
            [tenant for tenant in range(n_tenants) for _ in range(FOLDS)])),
        "upfront": draw(st.integers(1, total)),
        # submission index -> the pick before which it is cancelled (a
        # no-op once a worker took it)
        "cancels": draw(st.dictionaries(st.integers(0, total - 1), st.integers(0, total),
                                        max_size=8)),
        # submissions whose first attempt crashes its worker
        "crashes": draw(st.sets(st.integers(0, total - 1), max_size=5)),
        # (pick, weight) of a tenant registering mid-run, or none
        "newcomer": draw(st.none() | st.tuples(st.integers(1, total), st.integers(1, 4))),
    }


class _Pool:
    """A discrete-event pool over the queue that checks every pick it makes."""

    def __init__(self, workload):
        self.workload = workload
        self.queue = FairShareQueue()
        self.tenants = []
        self.costs = {}  # tenant name -> its cost cycle (seconds)
        self.base = {}  # tenant name -> pass value at registration, plus its lifts
        self.settled = {}  # tenant name -> measured seconds settled
        self.charged = {}  # tenant name -> estimates of its jobs not settled yet
        self.inflight = {}  # tenant name -> its jobs picked and not settled yet
        self.jobs = []  # every submitted job, in submission order
        self.index_of = {}  # job id -> its submission index
        self.cost_of = {}  # job id -> its cost
        self.picked = []  # job ids in first-pick order
        self.crashed = set()
        all_costs = [cost / 100 for cycle in workload["costs"] for cost in cycle]
        self.emax = max(all_costs + [_DEFAULT_FOLD_COST])
        self.emin = min(all_costs + [_DEFAULT_FOLD_COST])
        # waiting tenant name -> other tenant name -> that other's picks
        # since the window opened, and the most it may take in the window
        self.waited = {}
        self.limit = {}
        self.continuous = True  # every tenant backlogged at every pick so far
        for index, weight in enumerate(workload["weights"]):
            self.register("t{}".format(index), weight, workload["costs"][index])

    def active(self, tenant):
        return self.inflight[tenant.name] > 0 or self.backlogged(tenant)

    def floor(self):
        """The pass a tenant turning active starts from.

        The lowest pass of the active tenants; on an idle pool, the highest
        pass of all.
        """
        active = [tenant.pass_value for tenant in self.tenants if self.active(tenant)]
        if active:
            return min(active)
        return max((tenant.pass_value for tenant in self.tenants), default=0.0)

    def register(self, name, weight, cycle):
        floor = self.floor()
        tenant = self.queue.add_tenant(name, weight)
        assert tenant.pass_value == floor  # never an idle tenant's stale pass
        self.tenants.append(tenant)
        self.costs[name] = [cost / 100 for cost in cycle]
        self.base[name] = tenant.pass_value
        self.settled[name] = 0.0
        self.charged[name] = 0.0
        self.inflight[name] = 0
        self.open_window(tenant)
        return tenant

    def submit(self, tenant):
        returning = not self.active(tenant)
        resume = max(tenant.pass_value, self.floor())
        before = tenant.pass_value
        job = _job(tenant)
        cycle = self.costs[tenant.name]
        mine = sum(1 for other in self.jobs if other.tenant is tenant)
        self.cost_of[job.id] = cycle[mine % len(cycle)]
        self.index_of[job.id] = len(self.jobs)
        self.jobs.append(job)
        self.queue.push(job)
        if not returning:
            assert tenant.pass_value == before
            return job
        # back from idle: lifted to the active tenants' lowest pass, never
        # lowered; the wait windows count the tenant from its new pass
        assert tenant.pass_value == resume
        self.base[tenant.name] += resume - before
        self.open_window(tenant)
        for other in self.tenants:
            if other is not tenant:
                self.limit[other.name][tenant.name] = (
                    self.waited[other.name][tenant.name] + self.wait_bound(other, tenant))
        return job

    @staticmethod
    def backlogged(tenant):
        return any(not job.future.cancelled() for job in tenant.queue)

    def wait_bound(self, tenant, other):
        """The most picks ``other`` may take while ``tenant`` waits, from here on.

        ``other`` is picked only while its pass is at most the waiting
        tenant's.  During the wait the waiting tenant's pass rises by at
        most ``W * emax / w_i`` (corrections of its at most ``W`` jobs in
        flight), and ``other``'s falls by at most ``W * emax / w_j`` (the
        same for its jobs in flight now) while each of its picks raises it
        by at least ``emin / w_j``.
        """
        workers = self.workload["workers"]
        return max(0, math.floor(
            1 + (tenant.pass_value - other.pass_value) * other.weight / self.emin
            + workers * self.emax / self.emin * (1 + other.weight / tenant.weight)
            + 1e-9))

    def open_window(self, tenant):
        """Start counting ``tenant``'s wait, with the most picks each other tenant may take."""
        others = [other for other in self.tenants if other is not tenant]
        self.waited[tenant.name] = {other.name: 0 for other in others}
        self.limit[tenant.name] = {other.name: self.wait_bound(tenant, other)
                                   for other in others}
        for other in others:  # a newcomer has no picks in the others' windows yet
            self.waited[other.name].setdefault(tenant.name, 0)
            self.limit[other.name].setdefault(tenant.name, self.wait_bound(other, tenant))

    def pick(self):
        live = [tenant for tenant in self.tenants if self.backlogged(tenant)]
        before = {tenant.name: (tenant.pass_value, tenant.folds_dispatched)
                  for tenant in self.tenants}
        retry = bool(self.queue.retries)
        job = self.queue.pop()
        if job is None:
            assert not live and not retry
            return None
        assert job.future.running()  # never a cancelled job; uncancellable now
        if retry:
            # a retry is charged once: its second pick moves no pass or count
            assert {tenant.name: (tenant.pass_value, tenant.folds_dispatched)
                    for tenant in self.tenants} == before
            return job
        tenant = job.tenant
        assert tenant in live
        # stride: the lowest pass among the backlogged tenants goes next
        assert before[tenant.name][0] <= min(before[other.name][0] for other in live) + 1e-12
        # per-tenant FIFO: a tenant's jobs are first picked in submission order
        mine = [other.id for other in self.jobs
                if other.tenant is tenant and not other.future.cancelled()]
        assert job.id == next(i for i in mine if i not in self.picked)
        self.picked.append(job.id)
        self.charged[tenant.name] += job.estimate
        self.inflight[tenant.name] += 1
        if len(live) < len(self.tenants):
            self.continuous = False
        for other in self.tenants:
            if other is tenant or other not in live:
                self.open_window(other)
            else:
                waited = self.waited[other.name]
                waited[tenant.name] += 1
                assert waited[tenant.name] <= self.limit[other.name][tenant.name], (
                    "{} waited {} picks of {}".format(other.name, waited[tenant.name],
                                                      tenant.name))
        return job

    def check_accounts(self):
        """Pass = base + (settled cost + estimates in flight) / weight, for every tenant."""
        for tenant in self.tenants:
            name = tenant.name
            assert tenant.pass_value == pytest.approx(
                self.base[name] + (self.settled[name] + self.charged[name]) / tenant.weight,
                abs=1e-9)
        if self.continuous and all(self.backlogged(tenant) for tenant in self.tenants):
            # worker-time shares follow the weights, up to 3 * W * emax
            shares = [self.base[tenant.name] + self.settled[tenant.name] / tenant.weight
                      for tenant in self.tenants]
            assert max(shares) - min(shares) <= (
                3 * self.workload["workers"] * self.emax + 1e-9)

    def run(self):
        workload = self.workload
        submissions = list(workload["submissions"])
        for _ in range(workload["upfront"]):
            self.submit(self.tenants[submissions.pop(0)])
        for tenant in self.tenants:
            self.open_window(tenant)
        running = []  # heap of (finish time, job id, job)
        now, picks = 0.0, 0
        while True:
            while len(running) < workload["workers"]:
                for index, at in workload["cancels"].items():
                    if at == picks and index < len(self.jobs):
                        self.jobs[index].future.cancel()
                if workload["newcomer"] is not None and workload["newcomer"][0] == picks:
                    # no window reopens: the newcomer's pass is what bounds the waits
                    newcomer = self.register("newcomer", workload["newcomer"][1],
                                             workload["costs"][0])
                    for _ in range(FOLDS):
                        self.submit(newcomer)
                job = self.pick()
                if job is None:
                    break
                picks += 1
                heapq.heappush(running, (now + self.cost_of[job.id], job.id, job))
            if not running:
                if not submissions:
                    break
                self.submit(self.tenants[submissions.pop(0)])  # everything queued was cancelled
                continue
            now, _, job = heapq.heappop(running)
            if self.index_of[job.id] in workload["crashes"] and job.id not in self.crashed:
                self.crashed.add(job.id)
                self.queue.retries.append(job)  # what the pool does when a worker dies
                continue
            cost = self.cost_of[job.id]
            self.queue.settle(job, cost)
            self.settled[job.tenant.name] += cost
            self.charged[job.tenant.name] -= job.estimate
            self.inflight[job.tenant.name] -= 1
            self.check_accounts()
            if submissions:
                self.submit(self.tenants[submissions.pop(0)])
        return self


@given(workload=workloads())
@settings(max_examples=150, deadline=None)
def test_the_stride_order_over_random_workloads(workload):
    pool = _Pool(workload).run()
    cancelled = {job.id for job in pool.jobs if job.future.cancelled()}
    # every job not cancelled in the queue reached a worker exactly once
    assert sorted(pool.picked) == sorted(job.id for job in pool.jobs
                                         if job.id not in cancelled)
    assert not pool.queue and all(tenant.inflight == 0 for tenant in pool.tenants)
    if len(pool.tenants) == 1:
        assert pool.picked == sorted(pool.picked)  # one tenant: submission order
