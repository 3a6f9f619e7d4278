"""Spans and counters around calls into the program's layers, from outside.

`instrument(tracer)` swaps the names the program looks up at call time for
timed wrappers (the functions `invset.algorithm` calls, `Ellipsoid.sample`,
the `sample_stream` of the samplers, and `BatchStepper` and `brentq` inside
`invset.batchflow`) and restores them on exit.  `traced_callbacks` and
`traced_map` wrap a walker's batch callbacks and batch evaluator.  Nothing in
the program is edited: the spans sit at the boundaries between its modules.

A span's inclusive time goes to its name; its self time is that minus the
time of the spans it caused.  Only the sums per name are kept.
"""

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from scipy.spatial import ConvexHull, QhullError

import invset.algorithm
import invset.batchflow
import invset.ellipsoid
import invset.rbf
from invset import Ellipsoid, PoincareMap

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.mvee_clouds = []
        self._stack = []  # seconds covered by child spans, per open span

    def clear(self):
        """Forget everything recorded so far; wrappers made before stay live."""
        for store in (self.time, self.self_time, self.calls, self.count):
            store.clear()
        self.mvee_clouds.clear()

    def wrap(self, name, fn):
        """`fn` with a span named `name` around every call."""
        stack = self._stack
        totals, selfs, calls = self.time, self.self_time, self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = _clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += spent
                totals[name] += spent
                selfs[name] += spent - children
                calls[name] += 1

        return traced

    def counted(self, name, fn):
        """`fn` with a call counter only."""
        count = self.count

        def counting(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return counting


def _rbf_sampler(tracer, sample):
    """Wraps `sample_uniform_rbf_with_volume`: the acceptance rate of one
    call is its returned volume over its box volume, weighted by its trials."""
    timed = tracer.wrap("rbf.sample", sample)

    def sample_rbf(rbf_set, n, *args, **kwargs):
        chunks_before = tracer.count["rbf.chunks"]
        points, volume = timed(rbf_set, n, *args, **kwargs)
        lo, hi = rbf_set.bounding_box(kwargs.get("coverage", 4.0))
        chunks = tracer.count["rbf.chunks"] - chunks_before
        tracer.count["rbf.accepted_chunks"] += chunks * volume / float(np.prod(hi - lo))
        tracer.count["rbf.sample_points"] += n
        return points, volume

    return sample_rbf


def _traced_stepper(tracer, base):
    timed_step = tracer.wrap("dopri.step", base.step)

    class TracedStepper(base):
        def step(self):
            tracer.count["dopri.row_attempts"] += int(self.active.sum())
            timed_step(self)
            tracer.count["dopri.row_steps"] += self.accepted_rows.size

        def segment(self, row):
            tracer.count["batchflow.crossings"] += 1
            return base.segment(self, row)

    return TracedStepper


@contextmanager
def instrument(tracer):
    """Install the wrappers for the duration of the block."""
    alg, flow = invset.algorithm, invset.batchflow
    saved = [
        (alg, "evaluate_map", alg.evaluate_map),
        (alg, "partition", alg.partition),
        (alg, "binomial_tail_inversion", alg.binomial_tail_inversion),
        (alg, "mvee", alg.mvee),
        (alg, "fit_rbf", alg.fit_rbf),
        (alg, "sample_uniform_rbf_with_volume", alg.sample_uniform_rbf_with_volume),
        (Ellipsoid, "sample", Ellipsoid.sample),
        (invset.ellipsoid, "sample_stream", invset.ellipsoid.sample_stream),
        (invset.rbf, "sample_stream", invset.rbf.sample_stream),
        (flow, "BatchStepper", flow.BatchStepper),
        (flow, "brentq", flow.brentq),
    ]
    mvee = tracer.wrap("ellipsoid.mvee", alg.mvee)

    def mvee_recording(points, *args, **kwargs):
        tracer.mvee_clouds.append(points)
        return mvee(points, *args, **kwargs)

    sample = tracer.wrap("ellipsoid.sample", Ellipsoid.sample)

    def ellipsoid_sample(ellipsoid, n, *args, **kwargs):
        tracer.count["ellipsoid.sample_points"] += n
        return sample(ellipsoid, n, *args, **kwargs)

    alg.evaluate_map = tracer.wrap("algorithm.evaluate_map", alg.evaluate_map)
    alg.partition = tracer.wrap("algorithm.partition", alg.partition)
    alg.binomial_tail_inversion = tracer.wrap("pac.inversion", alg.binomial_tail_inversion)
    alg.mvee = mvee_recording
    alg.fit_rbf = tracer.wrap("rbf.fit", alg.fit_rbf)
    alg.sample_uniform_rbf_with_volume = _rbf_sampler(tracer, alg.sample_uniform_rbf_with_volume)
    Ellipsoid.sample = ellipsoid_sample
    invset.ellipsoid.sample_stream = tracer.counted("rng.streams", invset.ellipsoid.sample_stream)
    rbf_streams = tracer.counted("rbf.chunks", invset.rbf.sample_stream)
    invset.rbf.sample_stream = tracer.counted("rng.streams", rbf_streams)
    flow.BatchStepper = _traced_stepper(tracer, flow.BatchStepper)
    flow.brentq = tracer.wrap("batchflow.rootfind", flow.brentq)
    try:
        yield tracer
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def traced_callbacks(tracer, cb):
    """Walker batch callbacks with the vector field and guard timed, and
    rows and single-row guard calls counted."""
    vector_field = tracer.wrap("systems.vector_field", cb.vector_field)
    guard = tracer.wrap("systems.guard", cb.guard)

    def counted_field(states):
        tracer.count["systems.vector_field_rows"] += states.shape[0]
        return vector_field(states)

    def counted_guard(states):
        if states.shape[0] == 1:
            tracer.count["batchflow.guard_row_calls"] += 1
        return guard(states)

    return replace(cb, vector_field=counted_field, guard=counted_guard)


def traced_map(tracer, pmap: PoincareMap) -> PoincareMap:
    """`pmap` with the rows of each batch evaluation and their successes counted."""
    batch = pmap.batch_evaluator

    def counted_batch(points):
        out, ok = batch(points)
        tracer.count["batchflow.rows"] += len(points)
        tracer.count["batchflow.ok_rows"] += int(np.count_nonzero(ok))
        return out, ok

    return replace(pmap, batch_evaluator=counted_batch)


def hull_points(clouds):
    """Convex-hull vertices of the MVEE input clouds, summed."""
    total = 0
    for cloud in clouds:
        try:
            total += len(ConvexHull(cloud).vertices)
        except QhullError:
            total += len(cloud)
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, rounds, scored_candidates, setup):
    """Per-layer metrics per traced round, as {name: (value, unit)}.  `setup`
    holds the traced set-up's figures (hybrid layer); `scored_candidates` is
    that of one round."""
    t, s, n, c = tracer.time, tracer.self_time, tracer.calls, tracer.count
    refits = n["ellipsoid.mvee"] + n["rbf.fit"]
    sampled = c["ellipsoid.sample_points"] + c["rbf.sample_points"]
    totals = {
        "algorithm.refits": (refits, "count"),
        "algorithm.evaluate_map_s": (t["algorithm.evaluate_map"], "s"),
        "algorithm.partition_s": (t["algorithm.partition"], "s"),
        "algorithm.loop_self_s": (s["algorithm.run"], "s"),
        "ellipsoid.mvee_s": (t["ellipsoid.mvee"], "s"),
        "ellipsoid.mvee_calls": (n["ellipsoid.mvee"], "count"),
        "ellipsoid.mvee_points": (sum(len(p) for p in tracer.mvee_clouds), "count"),
        "ellipsoid.mvee_hull_points": (hull_points(tracer.mvee_clouds), "count"),
        "ellipsoid.sample_s": (t["ellipsoid.sample"], "s"),
        "ellipsoid.sample_points": (c["ellipsoid.sample_points"], "count"),
        "rng.streams": (c["rng.streams"], "count"),
        "pac.inversion_s": (t["pac.inversion"], "s"),
        "pac.inversion_calls": (n["pac.inversion"], "count"),
        "rbf.fit_s": (t["rbf.fit"], "s"),
        "rbf.fit_calls": (n["rbf.fit"], "count"),
        "rbf.sample_s": (t["rbf.sample"], "s"),
        "rbf.sample_points": (c["rbf.sample_points"], "count"),
        "batchflow.rows": (c["batchflow.rows"], "count"),
        "batchflow.crossings": (c["batchflow.crossings"], "count"),
        "batchflow.rootfind_calls": (n["batchflow.rootfind"], "count"),
        "batchflow.rootfind_s": (t["batchflow.rootfind"], "s"),
        "batchflow.guard_row_calls": (c["batchflow.guard_row_calls"], "count"),
        "dopri.step_s": (t["dopri.step"], "s"),
        "dopri.row_steps": (c["dopri.row_steps"], "count"),
        "systems.vector_field_rows": (c["systems.vector_field_rows"], "count"),
        "systems.vector_field_s": (t["systems.vector_field"], "s"),
        "systems.guard_s": (t["systems.guard"], "s"),
    }
    metrics = {name: (value / rounds, unit) for name, (value, unit) in totals.items()}
    metrics.update(
        {
            "algorithm.scored_candidates": (scored_candidates, "count"),
            "rng.streams_per_sample": (_ratio(c["rng.streams"], sampled), "1/sample"),
            "rbf.accept_rate": (_ratio(c["rbf.accepted_chunks"], c["rbf.chunks"]), "ratio"),
            "batchflow.ok_ratio": (_ratio(c["batchflow.ok_rows"], c["batchflow.rows"]), "ratio"),
            "dopri.accept_ratio": (_ratio(c["dopri.row_steps"], c["dopri.row_attempts"]), "ratio"),
            "dopri.segments_used_ratio": (
                _ratio(c["batchflow.crossings"], c["dopri.row_steps"]), "ratio"
            ),
        }
    )
    metrics.update(setup)
    return metrics
