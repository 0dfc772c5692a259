"""Direct simulation of the jump diffusion and empirical rate estimates.

The scheme is Euler-Maruyama with compound-Poisson jump channels: per step
of size ``dt`` the state gains ``b(X) dt``, a Gaussian kick
``n^{-1/2} sigma sqrt(dt) xi``, and for every jump channel ``j`` an
increment ``(K_j / n - nu_j dt) f_j(X)`` where ``K_j ~ Poisson(n nu_j dt)``;
the subtracted compensator keeps the drift of the jump noise at zero so all
three noise sources vanish together as ``n`` grows.

A whole ladder of scales runs at once: every (rung, replica) pair evolves
in lockstep as one vectorized batch.  Seeding stays per replica: replica
``r`` draws from a stream keyed by ``(seed, r)`` in every rung, so results
are reproducible and each rung's samples equal a one-rung run, whatever the
number of replicas or rungs run together.  Without jumps the rungs share
each replica's normals and only scale them by ``sqrt(dt / n)``; with jumps
every (rung, replica) pair keeps its own stream, because the Poisson draws
depend on ``n``.  Kicks are scaled, and the blowup test runs, once per
chunk of ``_CHUNK`` steps.  Each step is its float operations alone: the
drift's ``into`` writes ``b(X)`` in place into the step's increment, and
the draw buffers of a block are allocated once per run, not once per block.
Occupation statistics turn into empirical rates via
``-(1/n) log(relative frequency)``, shifted so the most occupied bin sits
at rate 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import LocalModel

#: States beyond this magnitude abort the simulation as diverged.
BLOWUP_LIMIT = 1e6

#: Fixed per-replica draw block (steps per RNG call); part of the
#: reproducibility contract, since changing it would reorder draws.
_BLOCK = 16384

#: Euler steps taken between two blowup checks; only a matter of speed.
_CHUNK = 32

#: Minimum number of samples required to form an empirical rate.
MIN_SAMPLES = 10_000


class SimulationBlowup(RuntimeError):
    """A trajectory left the admissible region; the drift is not confining.

    ``n`` is the scale of the rung whose state left the region.
    """

    def __init__(self, n: int, message: str) -> None:
        super().__init__(message)
        self.n = n


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Parameters of one simulation ladder, and the one place of their rules.

    ``n_values`` are the large-deviation scales of the ladder's rungs: noise
    variance shrinks like ``1/n``.  Samples are recorded every ``stride``
    steps after ``burn_in`` time has elapsed; the run must record at least
    one.  ``initial`` is one state ``(d,)`` or ``k <= replicas`` states
    ``(k, d)``, and row ``r mod k`` starts replica ``r``: it is stored as
    ``(replicas, d)``, and every rung starts from the same states.
    ``initial=None`` leaves the states for the caller to fill in with
    :func:`dataclasses.replace`; :func:`simulate` refuses it.
    """

    n_values: tuple[int, ...]
    dt: float
    burn_in: float
    horizon: float
    seed: int
    initial: np.ndarray | None
    replicas: int = 1
    stride: int = 1

    def __post_init__(self) -> None:
        n_values = tuple(self.n_values)
        if not n_values or any(n < 1 for n in n_values):
            raise ValueError("n_values must be a non-empty sequence of positive integers")
        object.__setattr__(self, "n_values", n_values)
        if not (self.dt > 0) or not math.isfinite(self.dt):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0 <= self.burn_in < self.horizon):
            raise ValueError("need 0 <= burn_in < horizon")
        if not math.isfinite(self.horizon / self.dt):
            raise ValueError(
                f"horizon / dt is not a finite step count (horizon {self.horizon}, dt {self.dt})"
            )
        if self.replicas < 1 or self.stride < 1:
            raise ValueError("replicas and stride must be positive integers")
        if self.snapshots < 1:
            raise ValueError(
                f"stride {self.stride} exceeds the {self.num_steps - self.burn_steps} steps "
                "after burn-in; lengthen the horizon or shrink the stride"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.initial is None:
            return
        init = np.atleast_2d(np.asarray(self.initial, dtype=float))
        if init.ndim != 2 or not 1 <= init.shape[0] <= self.replicas:
            raise ValueError(
                f"initial must be (d,) or (k, d) with 1 <= k <= replicas, got shape {init.shape} "
                f"and replicas = {self.replicas}; a row past the replicas would start none"
            )
        if not np.isfinite(init).all():
            raise ValueError("initial states must be finite")
        init = init[np.arange(self.replicas) % init.shape[0]]
        init.flags.writeable = False
        object.__setattr__(self, "initial", init)

    @property
    def num_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def burn_steps(self) -> int:
        return int(round(self.burn_in / self.dt))

    @property
    def snapshots(self) -> int:
        """Samples recorded per replica and rung."""
        return (self.num_steps - self.burn_steps) // self.stride


def _replica_rngs(seed: int, replicas: int) -> list[np.random.Generator]:
    return [np.random.default_rng(np.random.SeedSequence((seed, r))) for r in range(replicas)]


def simulate(model: LocalModel, config: SimConfig) -> np.ndarray:
    """Sampled states of every rung, shape ``(rungs, replicas * snapshots, d)``.

    Row ``k`` holds the samples at scale ``config.n_values[k]``, ordered
    replica-major (all samples of replica 0, then replica 1, ...).  All
    rungs step together as one ``(rungs * replicas, d)`` batch.  Replica
    ``r`` starts at ``config.initial[r]`` (:class:`SimConfig` cycles the
    given states over the replicas) and draws from ``SeedSequence((seed,
    r))`` in every rung, so each row equals a one-rung run at its ``n``, and
    each replica's trajectory is independent of how many other replicas or
    rungs run alongside it.
    Without jumps a replica's normals do not depend on ``n``, so one stream
    per replica feeds every rung; with jumps each (rung, replica) owns a
    stream, because its Poisson draws at rate ``n nu dt`` interleave with
    its normals.  Every model takes one step in the float operations of a
    per-step loop, so samples do not depend on ``_CHUNK``; a blowup names
    the first step, and the lowest rung, past the limit.  A step writes the drift
    in place and allocates nothing; the draw buffers are allocated once per call.
    """
    d = model.dim
    if config.initial is None:
        raise ValueError("initial states are not set")
    if config.initial.shape[1] != d:
        raise ValueError(
            f"initial states have dimension {config.initial.shape[1]}, model has {d}"
        )
    n_values = config.n_values
    rungs = len(n_values)
    dt = config.dt
    reps = config.replicas
    total_steps = config.num_steps
    burn = config.burn_steps
    snapshots = config.snapshots
    sigma = model.diffusion
    m = sigma.shape[1]
    nu = model.jump_rates
    j = len(nu)
    streams = [_replica_rngs(config.seed, reps) for _ in range(rungs if j else 1)]
    # per-rung factors, shaped to broadcast over (rungs, replicas, steps, ...)
    n_col = np.array(n_values, dtype=float)[:, None, None, None]
    scale = np.sqrt(dt / n_col)

    rows = rungs * reps
    # step-major chunk buffers of states (hist[0] precedes the chunk), scaled kicks and jump
    # weights, filled through (rungs, replicas, steps, ...) views in the order of the draws
    hist = np.empty((_CHUNK + 1, rows, d))
    hist[0] = np.tile(config.initial, (rungs, 1))
    kick, weights, incr = np.empty((_CHUNK, rows, d)), np.empty((_CHUNK, rows, j)), np.empty((rows, d))
    kick_in, weights_in = (a.reshape(_CHUNK, rungs, reps, -1).transpose(1, 2, 0, 3) for a in (kick, weights))
    # the step loop's operands: row views made once, ufuncs bound locally, ``out`` positional
    states, kick_rows, weight_rows = list(hist), list(kick), list(weights)
    into, jump_values, multiply, add, einsum = model.drift.into, model.jump_values, np.multiply, np.add, np.einsum
    # one block's draws, reused by every block: unscaled sigma xi, one row per stream set,
    # (1 or rungs, replicas, block, d), and the Poisson counts (rungs, replicas, block, j)
    kicks = np.empty((len(streams), reps, min(_BLOCK, total_steps), d))
    counts = np.empty((rungs, reps, kicks.shape[2], j))
    out = np.empty((rungs, reps, snapshots, d))
    step = 0
    # a runaway keeps stepping to its chunk's end; its overflow is caught below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        while step < total_steps:
            block = min(_BLOCK, total_steps - step)
            for g, rngs in enumerate(streams):
                for r, rng in enumerate(rngs):
                    np.einsum("dm,km->kd", sigma, rng.standard_normal((block, m)), out=kicks[g, r, :block])
            if j:
                for n, rngs, per_rung in zip(n_values, streams, counts):
                    for rng, row in zip(rngs, per_rung):
                        row[:block] = rng.poisson(n * nu * dt, (block, j))
            for k0 in range(0, block, _CHUNK):
                c = min(_CHUNK, block - k0)
                np.multiply(kicks[:, :, k0 : k0 + c], scale, out=kick_in[:, :, :c])
                if j:
                    np.subtract(counts[:, :, k0 : k0 + c] / n_col, nu * dt, out=weights_in[:, :, :c])
                for i in range(c):
                    x = states[i]
                    into(x, incr)
                    multiply(incr, dt, incr)
                    add(incr, kick_rows[i], incr)
                    if j:
                        add(incr, einsum("rj,rjd->rd", weight_rows[i], jump_values(x)), incr)
                    add(x, incr, states[i + 1])
                # one flat maximum per chunk is cheaper than per-rung maxima; a NaN
                # also fails it, but only a rung past the limit raises, as in a one-rung run
                if not np.abs(hist[1 : c + 1]).max() <= BLOWUP_LIMIT:
                    over = np.abs(hist[1 : c + 1]).reshape(c, rungs, -1).max(axis=2) > BLOWUP_LIMIT
                    if over.any():
                        first, rung = np.argwhere(over)[0]  # the earliest step, then the lowest rung
                        at = step + first + 1
                        raise SimulationBlowup(
                            n_values[rung],
                            f"state magnitude exceeded {BLOWUP_LIMIT:g} at step {at} "
                            f"(time {at * dt:.6g}); the drift does not appear to "
                            "confine the dynamics on this domain",
                        )
                # the first recorded step after this chunk's start, then every stride-th one
                recorded = burn + config.stride * max(1, (step - burn) // config.stride + 1)
                for at in range(recorded, step + c + 1, config.stride):
                    out[:, :, (at - burn) // config.stride - 1] = hist[at - step].reshape(rungs, reps, d)
                hist[0] = hist[c]
                step += c
    return out.reshape(rungs, reps * snapshots, d)


@dataclass(frozen=True, eq=False)
class EmpiricalRate:
    """Histogram-based rate estimate on a fixed grid of bins.

    ``rates`` holds ``-(1/n) log(frequency)`` shifted so the minimum over
    populated bins is exactly 0; unpopulated bins carry NaN (censored: the
    data says at least ``(1/n) log(total)``, not infinity).  ``degenerate``
    flags estimates where all mass fell into a single bin.
    """

    centers: np.ndarray
    counts: np.ndarray
    rates: np.ndarray
    n: int
    degenerate: bool

    def __post_init__(self) -> None:
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        counts = np.asarray(self.counts)
        rates = np.asarray(self.rates, dtype=float)
        if centers.shape[0] != counts.shape[0] or counts.shape != rates.shape:
            raise ValueError("centers, counts and rates must agree in length")
        pop = counts > 0
        if not pop.any():
            raise ValueError("at least one bin must be populated")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "rates", rates)

    @property
    def populated(self) -> np.ndarray:
        return self.counts > 0


def empirical_rate(samples: np.ndarray, edges: Sequence[np.ndarray], n: int) -> EmpiricalRate:
    """Empirical rate function of a sample cloud on a rectangular grid.

    ``samples`` has shape ``(N, d)`` and ``edges`` is a sequence of ``d``
    monotone edge arrays, one per dimension.  Requires at least
    ``MIN_SAMPLES`` samples: rates are log-frequencies, so sparse histograms
    produce more censoring than signal.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"samples must have shape (N, d), got {pts.shape}")
    if pts.shape[0] < MIN_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SAMPLES} samples for a rate estimate, got {pts.shape[0]}"
        )
    if n < 1:
        raise ValueError("scale n must be a positive integer")
    d = pts.shape[1]
    edge_list = [np.asarray(e, dtype=float) for e in edges]
    if len(edge_list) != d:
        raise ValueError(f"got {len(edge_list)} edge arrays for {d}-dimensional data")
    for e in edge_list:
        if e.ndim != 1 or e.shape[0] < 2 or not (np.diff(e) > 0).all():
            raise ValueError("each edge array must be monotone with at least two entries")
    counts, _ = np.histogramdd(pts, bins=edge_list)
    counts = counts.reshape(-1)
    centers = bin_centers(edge_list)
    pop = counts > 0
    total = counts.sum()
    rates = np.full(counts.shape, np.nan)
    with np.errstate(divide="ignore"):
        raw = -np.log(counts[pop] / total) / n
    rates[pop] = raw - raw.min()
    return EmpiricalRate(centers, counts.astype(int), rates, n, degenerate=bool(pop.sum() == 1))


def bin_centers(edges: Sequence[np.ndarray]) -> np.ndarray:
    """Centers of the rectangular grid cut by one edge array per axis.

    Shape ``(bins, d)``, in the row-major order of ``np.histogramdd`` counts,
    so row ``k`` is the center of flattened bin ``k``.
    """
    mesh = np.meshgrid(*[0.5 * (e[:-1] + e[1:]) for e in edges], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """One rung's empirical estimate, compared point by point with a prediction.

    Both curves are shifted to minimum 0 over the common populated support
    before differencing; the large-deviation prediction is only defined up
    to that normalization, and so is the histogram estimate.  Censored bins
    (no samples) are excluded from the error norms rather than treated as
    disagreement at infinity.  ``predicted``, ``observed`` and
    ``abs_errors`` hold one entry per populated bin of ``empirical``.
    """

    empirical: EmpiricalRate
    predicted: np.ndarray
    observed: np.ndarray
    abs_errors: np.ndarray
    sup_error: float

    def __post_init__(self) -> None:
        for name in ("predicted", "observed", "abs_errors"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        if not (self.predicted.shape == self.observed.shape == self.abs_errors.shape):
            raise ValueError("prediction/empirical/error arrays must align")

    @property
    def n(self) -> int:
        return self.empirical.n

    @property
    def censored_bins(self) -> int:
        return int((~self.empirical.populated).sum())


def validation_report(predicted: np.ndarray, empirical: EmpiricalRate) -> ValidationReport:
    """Compare a rate prediction against an empirical estimate.

    ``predicted`` holds one rate per bin, aligned with ``empirical.centers``.
    Infinite predictions on populated bins count as infinite error; censored
    bins are dropped from the comparison and only counted.
    """
    pred = np.asarray(predicted, dtype=float)
    if pred.shape != empirical.counts.shape:
        raise ValueError(f"prediction has shape {pred.shape}, expected {empirical.counts.shape}")
    pop = empirical.populated
    pred = pred[pop]
    if np.isnan(pred).any():
        raise ValueError("prediction must not contain NaN on populated bins")
    if not np.isfinite(pred).any():
        raise ValueError("prediction is infinite on every populated bin")
    emp = empirical.rates[pop]
    pred_shift = pred - pred.min()
    emp_shift = emp - emp.min()
    err = np.abs(pred_shift - emp_shift)
    return ValidationReport(
        empirical=empirical,
        predicted=pred_shift,
        observed=emp_shift,
        abs_errors=err,
        sup_error=float(err.max()),
    )
