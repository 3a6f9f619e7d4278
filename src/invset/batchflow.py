"""The return-map engine: hybrid flows for a batch of states at once.

A return map resets each section point, flows it to the next accepted
downward guard crossing and projects it to the chart, for a whole batch of
points on the batched RK5(4) stepper.  Every row is integrated with its own
adaptive steps, so each result is a pure function of its own input:
evaluating points one at a time, in any grouping, or in one call gives
identical numbers.  `hybrid_callbacks` lifts a scalar
`HybridSystemDefinition` onto the engine by looping over rows.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from ._dopri import BatchStepper
from .hybrid import (
    GuardNotReached,
    HybridSystemDefinition,
    ImmediateReimpact,
    IntegrationOptions,
    InvalidSectionPoint,
    PoincareMap,
    _hdot,
)

_RUNNING, _DONE, _FAIL_TIME, _FAIL_ESCAPE, _FAIL_REIMPACT, _FAIL_INVALID = range(6)


@dataclass(frozen=True, eq=False)
class BatchHybridCallbacks:
    """Batch-vectorized system functions, each mapping (n, ...) arrays."""

    state_dim: int
    reduced_dim: int
    vector_field: Callable[[np.ndarray], np.ndarray]  # (n, sd) -> (n, sd)
    guard: Callable[[np.ndarray], np.ndarray]  # (n, sd) -> (n,)
    guard_velocity: Callable[[np.ndarray], np.ndarray]  # (n, sd) -> (n,)
    reset: Callable[[np.ndarray], np.ndarray]  # (n, sd) -> (n, sd)
    chart: Callable[[np.ndarray], np.ndarray]  # (n, sd) -> (n, rd)
    chart_inverse: Callable[[np.ndarray], np.ndarray]  # (n, rd) -> (n, sd)
    event_filter: Callable[[np.ndarray], np.ndarray] = None  # (n, sd) -> bool (n,)
    escape_condition: Callable[[np.ndarray], np.ndarray] = None  # (n, sd) -> bool (n,)


def _by_rows(fn, dtype, states):
    return np.array([fn(x) for x in states], dtype=dtype)


def hybrid_callbacks(system: HybridSystemDefinition) -> BatchHybridCallbacks:
    """Batch callbacks that apply the scalar system functions row by row.
    Without `guard_velocity`, hdot is a central difference of the guard along
    the flow."""

    def rows(fn, dtype=float):
        return None if fn is None else partial(_by_rows, fn, dtype)

    return BatchHybridCallbacks(
        state_dim=system.state_dim,
        reduced_dim=system.reduced_dim,
        vector_field=rows(system.vector_field),
        guard=rows(system.guard_function),
        guard_velocity=rows(partial(_hdot, system)),
        reset=rows(system.reset),
        chart=rows(system.chart),
        chart_inverse=rows(system.chart_inverse),
        event_filter=rows(system.event_filter, bool),
        escape_condition=rows(system.escape_condition, bool),
    )


def _flow_batch(cb: BatchHybridCallbacks, x_plus: np.ndarray, options: IntegrationOptions):
    """Flow every row to its accepted guard crossing.

    Returns (states, times, status): crossing states and times for rows with
    status _DONE.
    """
    n = x_plus.shape[0]
    status = np.full(n, _RUNNING, dtype=np.int8)
    hit_state = np.full((n, cb.state_dim), np.nan)
    hit_time = np.full(n, np.nan)
    h_prev = cb.guard(x_plus)
    bad = ~np.isfinite(h_prev) | (h_prev < -options.guard_tol)
    status[bad] = _FAIL_INVALID

    stepper = BatchStepper(
        cb.vector_field, x_plus, options.max_flow_time, options.rel_tol, options.abs_tol
    )
    stepper.finish(np.flatnonzero(bad))

    # generous deterministic cap on step attempts so a pathological row (e.g.
    # a vector field returning NaN) cannot stall the batch forever
    for _ in range(1_000_000):
        if not stepper.active.any():
            break
        stepper.step()
        rows = stepper.accepted_rows
        if rows.size == 0:
            # all attempted steps were rejected; controller shrinks and retries
            continue
        y_now = stepper.y[rows]
        if cb.escape_condition is not None:
            escaped = cb.escape_condition(y_now)
            if escaped.any():
                gone = rows[escaped]
                status[gone] = _FAIL_ESCAPE
                stepper.finish(gone)
        h_now = cb.guard(y_now)
        crossing = (h_prev[rows] > 0.0) & (h_now <= 0.0) & (status[rows] == _RUNNING)
        for local in np.flatnonzero(crossing):
            row = rows[local]
            seg = stepper.segment(row)
            guard_of_t = lambda t: float(cb.guard(seg(t)[None, :])[0])
            if h_now[local] == 0.0:
                t_root = stepper.t[row]
            else:
                t_root = brentq(guard_of_t, seg.t_old, stepper.t[row])
            x_root = seg(t_root)
            if abs(guard_of_t(t_root)) > options.guard_tol:
                status[row] = _FAIL_TIME
                stepper.finish(np.array([row]))
                continue
            point = x_root[None, :]
            transversal = float(cb.guard_velocity(point)[0]) < 0.0
            allowed = cb.event_filter is None or bool(cb.event_filter(point)[0])
            if transversal and allowed:
                if t_root < options.t_min:
                    status[row] = _FAIL_REIMPACT
                else:
                    status[row] = _DONE
                    hit_state[row] = x_root
                    hit_time[row] = t_root
                stepper.finish(np.array([row]))
        still = stepper.active[rows]
        h_prev[rows[still]] = h_now[still]
        timed_out = stepper.active & (stepper.t >= options.max_flow_time)
        if timed_out.any():
            status[timed_out] = _FAIL_TIME
            stepper.finish(np.flatnonzero(timed_out))
    status[status == _RUNNING] = _FAIL_TIME
    return hit_state, hit_time, status


_FAILURE_MESSAGES = {
    _FAIL_TIME: (GuardNotReached, "no accepted guard crossing within the flow budget"),
    _FAIL_ESCAPE: (GuardNotReached, "trajectory escaped the operating region"),
    _FAIL_REIMPACT: (ImmediateReimpact, "guard crossing earlier than t_min"),
    _FAIL_INVALID: (InvalidSectionPoint, "state is not a valid section point"),
}


def _raise_failure(code):
    exc, message = _FAILURE_MESSAGES[int(code)]
    raise exc(message)


def flow_to_guard(cb: BatchHybridCallbacks, x_plus, options: IntegrationOptions):
    """(x_minus, T) of the accepted crossing from one state `x_plus`."""
    states, times, status = _flow_batch(cb, np.asarray(x_plus, dtype=float)[None, :], options)
    if status[0] == _FAIL_INVALID:
        raise GuardNotReached("initial state outside the domain")
    if status[0] != _DONE:
        _raise_failure(status[0])
    return states[0], float(times[0])


@dataclass(frozen=True, eq=False)
class VectorizedReturnMap:
    """Return-map evaluator running on the batched stepper."""

    callbacks: BatchHybridCallbacks
    options: IntegrationOptions

    def evaluate_batch(self, points: np.ndarray):
        """Map an (n, reduced_dim) batch; returns (outputs, ok) with NaN rows
        for failed evaluations."""
        cb = self.callbacks
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        out = np.full((n, cb.reduced_dim), np.nan)
        status = np.full(n, _RUNNING, dtype=np.int8)

        x_pre = cb.chart_inverse(points)
        invalid = cb.guard_velocity(x_pre) >= 0.0
        if cb.event_filter is not None:
            invalid |= ~cb.event_filter(x_pre)
        status[invalid] = _FAIL_INVALID
        live = ~invalid
        if live.any():
            x_plus = cb.reset(x_pre[live])
            hit, _, flow_status = _flow_batch(cb, x_plus, self.options)
            status[live] = flow_status
            done_local = flow_status == _DONE
            live_rows = np.flatnonzero(live)
            out[live_rows[done_local]] = cb.chart(hit[done_local])
        return out, status == _DONE, status

    def __call__(self, y: np.ndarray) -> np.ndarray:
        out, ok, status = self.evaluate_batch(np.asarray(y, dtype=float)[None, :])
        if not ok[0]:
            _raise_failure(status[0])
        return out[0]

    def batch(self, points: np.ndarray):
        out, ok, _ = self.evaluate_batch(points)
        return out, ok


def vectorized_poincare_map(
    callbacks: BatchHybridCallbacks, options: IntegrationOptions
) -> PoincareMap:
    evaluator = VectorizedReturnMap(callbacks, options)
    return PoincareMap(
        reduced_dim=callbacks.reduced_dim,
        evaluator=evaluator,
        batch_evaluator=evaluator.batch,
    )
