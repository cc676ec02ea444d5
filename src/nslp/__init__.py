"""Optimum tracking for non-stationary dense linear programs on a
bulk-synchronous farm, with the analytic cost model used to predict and
validate its scalability."""

from .bsf import (BsfExecutor, BsfWorkerError, Order, RunMetrics, block_partition,
                  make_order, order_from_bytes, order_to_bytes)
from .cost_model import (CostParams, ScenarioModel, calibrate, efficiency,
                         predict_curves, scalability_bound, scenario_params, speedup)
from .cross import Cross, Marker, cohort_markers, marker_of, markers, point_of, recenter
from .lp import (DenseLP, DriftSpec, NonStationaryLP, SparseDelta, apply_delta,
                 delta_between, max_violation, model_n, model_n_optimum,
                 objective_value, read_problem, snapshot, write_problem)
from .oracle import SimplexResult, project_bruteforce, solve_simplex
from .quest import FejerConfig, MalformedProblemError, QuestResult, fejer_step, pseudo_project
from .targeting import (TargetingConfig, TargetingState, TrackingTrace, evaluate,
                        process_cohorts, run_targeting)

__version__ = "0.1.0"
