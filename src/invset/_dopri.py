"""Batched Dormand-Prince 5(4) stepper with quartic dense output.

Integrates a batch of independent trajectories of the same vector field, each
with its own adaptive step size, acceptance decisions, and termination.  All
per-row control flow depends only on that row, so every trajectory's result
is a pure function of its own initial state: the batch partitioning cannot
change any answer.  The stepper keeps the stages of its last step only; the
dense output of that step is built on request, for the rows that ask.
"""

import numpy as np

# Dormand-Prince 5(4) tableau; an autonomous field, fun(y), needs no nodes c_i.
_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Dense-output polynomial weights: y(t + x h) = y + h * sum_s K_s * poly_s(x),
# poly_s(x) = x * (P[s,0] + x * (P[s,1] + x * (P[s,2] + x * P[s,3]))).
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXPONENT = -0.2  # 1 / (4 + 1)


def _rms(values):
    return np.sqrt(np.mean(values**2, axis=-1))


def initial_steps(fun, y0, t_bound, rtol, atol):
    """Per-row starting step sizes (Hairer's heuristic)."""
    f0 = fun(y0)
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-300))
    y1 = y0 + h0[:, None] * f0
    f1 = fun(y1)
    d2 = _rms((f1 - f0) / scale) / np.maximum(h0, 1e-300)
    dm = np.maximum(d1, d2)
    h1 = np.where(dm <= 1e-15, np.maximum(1e-6, h0 * 1e-3), (0.01 / dm) ** 0.2)
    return np.minimum(np.minimum(100.0 * h0, h1), t_bound), f0


class DenseSegment:
    """Quartic interpolants of the last accepted step of a set of rows.

    `coeffs[i]` is `k_i.T @ _P` for the stage stack `k_i` of row i, taken as
    one stacked `matmul` over the rows with each `k_i.T` laid out as the
    one-row product lays it out; that equals the one-row product bit for bit
    (an `einsum` does not).
    """

    __slots__ = ("t_old", "h", "y_old", "coeffs")

    def __init__(self, t_old, h, y_old, k_rows):
        self.t_old = t_old  # (r,)
        self.h = h  # (r,)
        self.y_old = y_old  # (r, dim)
        self.coeffs = k_rows.transpose(0, 2, 1) @ _P  # (r, 7, dim) -> (r, dim, 4)

    def __call__(self, t, sub=slice(None)):
        """States at times `t` (one per row of `sub`, an index into the rows)."""
        h = self.h[sub]
        x = (t - self.t_old[sub]) / h
        coeffs = self.coeffs[sub]
        poly = coeffs[..., 3]
        for j in (2, 1, 0):
            poly = poly * x[:, None] + coeffs[..., j]
        return self.y_old[sub] + (h * x)[:, None] * poly


class BatchStepper:
    """Adaptive RK5(4) over an (n, dim) batch with per-row step control.

    Use `active` to see which rows still run, call `step()` to advance every
    active row by one attempted step, then inspect `accepted_rows` and
    `stalled_rows`, the rows whose step was rejected at the smallest step
    size (a non-finite field, or an error test failing there), which a retry
    would repeat unchanged; `segment(rows)` gives the dense output of the
    last step for some rows, for event handling.  Rows are retired with
    `finish(rows)`.
    """

    def __init__(self, fun, y0, t_bound, rtol, atol):
        y0 = np.atleast_2d(np.asarray(y0, dtype=float))
        self.fun = fun
        self.n, self.dim = y0.shape
        self.t_bound = float(t_bound)
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.t = np.zeros(self.n)
        self.y = y0.copy()
        self.active = np.ones(self.n, dtype=bool)
        self.rejected_last = np.zeros(self.n, dtype=bool)
        self.accepted_rows = np.empty(0, dtype=int)
        self.stalled_rows = np.empty(0, dtype=int)
        # the last step: attempted rows and their t, h, y and stages (7, m, dim)
        self._last = None
        # per-row step sizes and FSAL stages
        self.h, self.f = initial_steps(fun, y0, self.t_bound, self.rtol, self.atol)

    def finish(self, rows):
        self.active[rows] = False

    def segment(self, rows) -> DenseSegment:
        """Dense output of the last step for `rows`, accepted in that step."""
        attempted, t, h, y, k = self._last
        local = np.searchsorted(attempted, rows)
        return DenseSegment(t[local], h[local], y[local], k.transpose(1, 0, 2)[local])

    def step(self):
        """Attempt one step on every active row; sets `accepted_rows` and
        `stalled_rows`."""
        rows = np.flatnonzero(self.active)
        t = self.t[rows]
        y = self.y[rows]
        f0 = self.f[rows]
        h = np.minimum(self.h[rows], self.t_bound - t)
        tiny = 10.0 * np.finfo(float).eps * np.maximum(np.abs(t), 1.0)
        h = np.maximum(h, tiny)

        k = np.empty((7, rows.size, self.dim))
        k[0] = f0
        for s, a_row in enumerate(_A, start=1):
            increment = np.tensordot(a_row, k[:s], axes=(0, 0))
            k[s] = self.fun(y + h[:, None] * increment)
        y_new = y + h[:, None] * np.tensordot(_B, k[:6], axes=(0, 0))
        k[6] = self.fun(y_new)
        err = h[:, None] * np.tensordot(_E, k, axes=(0, 0))
        scale = self.atol + self.rtol * np.maximum(np.abs(y), np.abs(y_new))
        norm = _rms(err / scale)

        finite = np.isfinite(norm)
        accept = finite & (norm <= 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(
                norm == 0.0, _MAX_FACTOR, np.clip(_SAFETY * norm**_ORDER_EXPONENT, _MIN_FACTOR, _MAX_FACTOR)
            )
        factor = np.where(finite, factor, _MIN_FACTOR)  # blown-up stage: shrink hard
        factor = np.where(accept & self.rejected_last[rows], np.minimum(factor, 1.0), factor)

        acc_rows = rows[accept]
        self._last = (rows, t, h, y, k)
        if acc_rows.size:
            idx = np.flatnonzero(accept)
            self.t[acc_rows] = t[idx] + h[idx]
            self.y[acc_rows] = y_new[idx]
            self.f[acc_rows] = k[6, idx]
        self.h[rows] = h * factor
        self.rejected_last[rows] = ~accept
        self.accepted_rows = acc_rows
        self.stalled_rows = rows[~accept & ~(h > tiny)]
