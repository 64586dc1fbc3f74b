"""Events/sec microbenchmarks for the DES kernel's hot paths.

Three workloads, each isolating one path the worm-level simulations lean
on (every worm hop is a resource grant plus a scheduled release):

* ``timeout_churn`` -- pure heap traffic: schedule, pop, dispatch.
* ``uncontended_grants`` -- request/release cycles that never queue; this
  is the fast path where a grant completes without touching the heap.
* ``contended_grants`` -- many processes rotating over few resources, so
  most grants go through the waiter queue.

Each test reports ``events_per_second`` in ``extra_info`` so
``scripts/bench_trajectory.py`` can track the kernel's throughput across
commits in ``BENCH_sweep.json``.
"""

from conftest import scaled

from repro.sim import Resource, Simulator


def _timeout_churn(n_procs: int, steps: int) -> int:
    """Every event is a Timeout; returns the number of events processed."""
    sim = Simulator()

    def ticker(i):
        delay = 1.0 + i * 0.01
        for _ in range(steps):
            yield sim.timeout(delay)

    for i in range(n_procs):
        sim.process(ticker(i), name=f"tick-{i}")
    sim.run()
    return n_procs * steps


def _uncontended_grants(n_resources: int, cycles: int) -> int:
    """Request/release with no waiters: the immediate-grant fast path."""
    sim = Simulator()
    resources = [Resource(sim) for _ in range(n_resources)]

    def worker():
        for _ in range(cycles):
            for res in resources:
                req = res.request()
                yield req
                res.release(req)
            yield sim.timeout(1.0)

    sim.run_process(worker())
    return cycles * (n_resources + 1)


def _contended_grants(n_procs: int, n_resources: int, cycles: int) -> int:
    """Many processes rotating over few resources: queued grants dominate."""
    sim = Simulator()
    resources = [Resource(sim) for _ in range(n_resources)]

    def worker(start):
        for step in range(cycles):
            res = resources[(start + step) % n_resources]
            req = res.request()
            yield req
            yield sim.timeout(1.0)
            res.release(req)

    for i in range(n_procs):
        sim.process(worker(i), name=f"worker-{i}")
    sim.run()
    return n_procs * cycles * 2


def _report(benchmark, events: int) -> None:
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_second"] = round(events / mean)


def test_kernel_timeout_churn(benchmark):
    steps = scaled(2000, minimum=200)
    events = benchmark(_timeout_churn, 20, steps)
    assert events == 20 * steps
    _report(benchmark, events)


def test_kernel_uncontended_grants(benchmark):
    cycles = scaled(5000, minimum=500)
    events = benchmark(_uncontended_grants, 8, cycles)
    assert events == cycles * 9
    _report(benchmark, events)


def test_kernel_contended_grants(benchmark):
    cycles = scaled(400, minimum=40)
    events = benchmark(_contended_grants, 50, 10, cycles)
    assert events == 50 * cycles * 2
    _report(benchmark, events)
