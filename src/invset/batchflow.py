"""The return-map engine: hybrid flows for a batch of states at once.

A return map resets each section point, flows it to the next accepted
downward guard crossing and projects it to the chart, for a whole batch of
points on the batched RK5(4) stepper.  Every row is integrated with its own
adaptive steps, so each result is a pure function of its own input:
evaluating points one at a time, in any grouping, or in one call gives
identical numbers.  After each step, all rows whose guard changed sign are
localized together: one dense output over those rows and one vectorized
Brent solve (`brentq`, scipy's algorithm row for row) on the guard along it.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._dopri import BatchStepper
from .hybrid import (
    DEFAULT_INTEGRATION,
    GuardNotReached,
    ImmediateReimpact,
    IntegrationOptions,
    InvalidSectionPoint,
    PoincareMap,
    checked_rows,
)

(_RUNNING, _DONE, _FAIL_TIME, _FAIL_ESCAPE, _FAIL_REIMPACT, _FAIL_INVALID, _FAIL_FIELD,
 _FAIL_LOCALIZE) = range(8)

# scipy.optimize.brentq's defaults
_XTOL = 2e-12
_RTOL = 4 * np.finfo(float).eps
_MAXITER = 100


def brentq(f, a, b):
    """Roots of `f` in the brackets [a[i], b[i]], one Brent solve per row.

    `f(x, rows)` maps the abscissae `x` of the bracket rows `rows` (an index
    array) to their values.  Each row runs the operations of scipy's C
    `brentq` at its default xtol, rtol and iteration cap, so it returns the
    same root bit for bit; rows share a loop but not a step, and a row's
    iteration count depends on that row alone.  `f` is called on both ends
    once, then once per iteration on the rows still running.  A row whose
    bracket has no sign change, whose `f` returns NaN or that does not
    converge gets a NaN root, where scipy raises.
    """
    xpre = np.array(a, dtype=float)
    xcur = np.array(b, dtype=float)
    rows = np.arange(xpre.size)
    fpre = f(xpre, rows)
    fcur = f(xcur, rows)
    root = np.full(xpre.size, np.nan)
    valid = ~(np.isnan(fpre) | np.isnan(fcur))
    at_a = valid & (fpre == 0)
    at_b = valid & ~at_a & (fcur == 0)
    root[at_a] = xpre[at_a]
    root[at_b] = xcur[at_b]
    run = valid & ~(at_a | at_b) & (np.signbit(fpre) != np.signbit(fcur))
    rows, xpre, xcur, fpre, fcur = rows[run], xpre[run], xcur[run], fpre[run], fcur[run]
    xblk = np.zeros(rows.size)
    fblk = np.zeros(rows.size)
    spre = np.zeros(rows.size)
    scur = np.zeros(rows.size)
    for _ in range(_MAXITER):
        if rows.size == 0:
            break
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

        delta = (_XTOL + _RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[rows[done]] = xcur[done]
        go = ~done
        rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
            v[go] for v in (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
        )
        if rows.size == 0:
            break

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolated = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolated = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolated, extrapolated)
        limit = 3 * np.abs(sbis) - delta
        limit = np.where(np.abs(spre) < limit, np.abs(spre), limit)
        short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) & (2 * np.abs(stry) < limit)
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, rows)
        live = ~np.isnan(fcur)
        if not live.all():
            rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
                v[live] for v in (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur)
            )
    return root


@dataclass(frozen=True, eq=False)
class BatchHybridCallbacks:
    """Single-guard hybrid system with a chart on its guard surface.

    Each function maps a batch of states (n, state_dim) or chart points
    (n, reduced_dim), indexing them along the last axis.  `guard` h defines
    the domain {h >= 0}; resets fire on downward (`guard_velocity` < 0)
    crossings of {h = 0} that pass `event_filter`.  `chart` maps a guard
    state to reduced coordinates and `chart_inverse` back onto the guard;
    `escape_condition` flags states that have left the operating region so
    their flow is abandoned early.
    """

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


def _localize(cb, options, stepper, rows, h_now, status, hit_state, hit_time):
    """Settle the guard crossings of the last step for `rows` (h_now <= 0).

    A row whose step ends on the guard takes the step's end; the others take
    the Brent root of the guard along the step's dense output.  A crossing
    that is non-transversal or filtered out leaves its row running; a root
    whose guard residual exceeds `guard_tol` (NaN included, for a failed
    solve) fails its row.
    """
    seg = stepper.segment(rows)
    t_root = stepper.t[rows]
    solve = np.flatnonzero(h_now != 0.0)
    if solve.size:
        guard_of_t = lambda t, sub: cb.guard(seg(t, solve[sub]))
        t_root[solve] = brentq(guard_of_t, seg.t_old[solve], t_root[solve])
    x_root = seg(t_root)
    with np.errstate(invalid="ignore"):
        missed = ~(np.abs(cb.guard(x_root)) <= options.guard_tol)
    met = np.flatnonzero(~missed)
    accept = cb.guard_velocity(x_root[met]) < 0.0
    if cb.event_filter is not None:
        accept &= cb.event_filter(x_root[met])
    accepted = np.zeros(rows.size, dtype=bool)
    accepted[met[accept]] = True
    early = accepted & (t_root < options.t_min)
    done = accepted & ~early
    status[rows[missed]] = _FAIL_LOCALIZE
    status[rows[early]] = _FAIL_REIMPACT
    status[rows[done]] = _DONE
    hit_state[rows[done]] = x_root[done]
    hit_time[rows[done]] = t_root[done]
    stepper.finish(rows[missed | accepted])


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

    # generous deterministic cap on step attempts: a row that keeps accepting
    # steps of the smallest size could otherwise run the batch for very long
    for _ in range(1_000_000):
        if not stepper.active.any():
            break
        stepper.step()
        if stepper.stalled_rows.size:
            status[stepper.stalled_rows] = _FAIL_FIELD
            stepper.finish(stepper.stalled_rows)
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
        if crossing.any():
            _localize(cb, options, stepper, rows[crossing], h_now[crossing], status, hit_state, hit_time)
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
    _FAIL_FIELD: (GuardNotReached, "no step is small enough: non-finite vector field, "
                                   "or an error test that fails at the smallest step"),
    _FAIL_LOCALIZE: (GuardNotReached, "guard crossing could not be localized to guard_tol"),
}


def _raise_failure(code):
    exc, message = _FAILURE_MESSAGES[int(code)]
    raise exc(message)


def integrate_to_guard(
    cb: BatchHybridCallbacks, x_plus, options: IntegrationOptions = DEFAULT_INTEGRATION
):
    """Flow from the one state `x_plus` to the next accepted guard crossing.

    Returns (x_minus, T) with |h(x_minus)| < guard_tol and hdot(x_minus) < 0.
    Crossings that are non-transversal or rejected by the event filter are
    skipped and the flow continues.

    Raises GuardNotReached when the time budget runs out, the trajectory
    escapes, `x_plus` lies outside the domain, no step is small enough to
    pass the error test (a non-finite vector field on the way, or an error
    test that fails at the smallest step) or a crossing cannot be localized
    to guard_tol (a NaN guard value, or no sign change on the interpolant),
    and ImmediateReimpact for an accepted crossing before t_min.
    """
    states, times, status = _flow_batch(cb, np.asarray(x_plus, dtype=float)[None, :], options)
    if status[0] == _FAIL_INVALID:
        raise GuardNotReached("initial state outside the domain")
    if status[0] != _DONE:
        _raise_failure(status[0])
    return states[0], float(times[0])


def _evaluate(cb: BatchHybridCallbacks, options: IntegrationOptions, points):
    """Map an (n, reduced_dim) batch under the rule of `checked_rows`;
    returns (outputs, ok, status) with each row's status code."""
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
        hit, _, flow_status = _flow_batch(cb, x_plus, options)
        status[live] = flow_status
        done_local = flow_status == _DONE
        if done_local.any():
            out[np.flatnonzero(live)[done_local]] = cb.chart(hit[done_local])
    out, ok = checked_rows(out, status == _DONE)
    status[~ok & (status == _DONE)] = _FAIL_INVALID  # a non-finite chart image
    return out, ok, status


def vectorized_poincare_map(
    callbacks: BatchHybridCallbacks, options: IntegrationOptions = DEFAULT_INTEGRATION
) -> PoincareMap:
    """Return map of `callbacks`: reset, flow to the next accepted crossing,
    chart.  One point and a batch evaluate identically, row for row."""

    def evaluator(points):
        out, ok, status = _evaluate(callbacks, options, points)
        if not ok.all():
            _raise_failure(status[np.argmin(ok)])
        return out

    def batch_evaluator(points):
        out, ok, _ = _evaluate(callbacks, options, points)
        return out, ok

    return PoincareMap(callbacks.reduced_dim, evaluator, batch_evaluator)
