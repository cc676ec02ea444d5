"""Golden traces of the two benchmark workloads.

The inputs are rebuilt here through the public API, as the benchmark builds
them: the start is ``x* - U(0, 2)`` per coordinate from ``default_rng(seed)``,
clipped at 0, then pseudo-projected at the problem's clock; ``steady-n200``
is ``model_n(200)`` without drift and ``drift-full-n100`` is ``model_n(100)``
under random-sparse drift (delta 1, magnitude 1e-3, the same seed). Each
pinned value is the first 16 hex of the sha256 of ``csv_text()`` after 100
iterations, and it must not depend on the worker count. The worker pool's
P=2 trace is compared with the simulator's text, not pinned again.

A change that only makes the tracker faster keeps both values. ROADMAP item 1
changes the drifting workload's trace by design (it stops that run from
stalling); the change that does so updates ``drift-full-n100``'s value here
and names the new one in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from nslp import (BsfExecutor, DriftSpec, NonStationaryLP, TargetingConfig, model_n,
                  model_n_optimum, pseudo_project, run_targeting)

SEED = 4242
GOLDEN = {
    "steady-n200": (200, None, "051543ca9b1d74af"),
    "drift-full-n100": (100, DriftSpec(kind="random-sparse", delta=1.0, magnitude=1e-3,
                                       seed=SEED), "80ce1a5e6685a3c5"),
}


def _trace_text(workload: str, executor: BsfExecutor) -> str:
    n, drift, _ = GOLDEN[workload]
    problem = NonStationaryLP(base=model_n(n), drift=drift or DriftSpec())
    x_star, _ = model_n_optimum(n)
    start = np.maximum(x_star - np.random.default_rng(SEED).uniform(0.0, 2.0, n), 0.0)
    z = pseudo_project(problem, start, clock=problem.clock).z
    cfg = TargetingConfig(points_per_cohort=8, spacing=1.0, stall_limit=10)
    return run_targeting(problem, z, cfg, 100, executor).csv_text()


@pytest.mark.parametrize("p_workers", [1, 3])
@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_bench_workload_trace_is_pinned(workload, p_workers):
    text = _trace_text(workload, BsfExecutor("sequential-sim", p_workers))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == GOLDEN[workload][2]


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_bench_workload_pool_trace_matches_the_simulator(workload):
    # the answers cross real pipes, on the stalling drift workload too
    assert (_trace_text(workload, BsfExecutor("worker-pool", 2))
            == _trace_text(workload, BsfExecutor("sequential-sim", 1)))
