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
depend on ``n``.
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
    """Parameters of one simulation ladder.

    ``n_values`` are the large-deviation scales of the ladder's rungs: noise
    variance shrinks like ``1/n``.  Samples are recorded every ``stride``
    steps after ``burn_in`` time has elapsed.  ``initial`` is one state for
    all replicas or one per replica; every rung starts from the same states.
    """

    n_values: tuple[int, ...]
    dt: float
    burn_in: float
    horizon: float
    seed: int
    initial: np.ndarray
    replicas: int = 1
    stride: int = 1

    def __post_init__(self) -> None:
        n_values = tuple(self.n_values)
        if not n_values or any(n < 1 for n in n_values):
            raise ValueError("n_values must be a non-empty sequence of positive integers")
        object.__setattr__(self, "n_values", n_values)
        if not (self.dt > 0) or not math.isfinite(self.dt):
            raise ValueError("dt must be positive and finite")
        if not (0 <= self.burn_in < self.horizon):
            raise ValueError("need 0 <= burn_in < horizon")
        if not math.isfinite(self.horizon / self.dt):
            raise ValueError("horizon / dt must be a finite step count")
        if self.replicas < 1 or self.stride < 1:
            raise ValueError("replicas and stride must be positive integers")
        init = np.atleast_1d(np.asarray(self.initial, dtype=float))
        if init.ndim == 1:
            init = np.broadcast_to(init, (self.replicas, init.shape[0])).copy()
        if init.ndim != 2 or init.shape[0] != self.replicas:
            raise ValueError(
                f"initial must be (d,) or (replicas, d), got shape {init.shape}"
            )
        if not np.isfinite(init).all():
            raise ValueError("initial states must be finite")
        init.flags.writeable = False
        object.__setattr__(self, "initial", init)

    @property
    def num_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def burn_steps(self) -> int:
        return int(round(self.burn_in / self.dt))


def _replica_rngs(seed: int, replicas: int) -> list[np.random.Generator]:
    return [np.random.default_rng(np.random.SeedSequence((seed, r))) for r in range(replicas)]


def simulate(model: LocalModel, config: SimConfig) -> np.ndarray:
    """Sampled states of every rung, shape ``(rungs, replicas * snapshots, d)``.

    Row ``k`` holds the samples at scale ``config.n_values[k]``, ordered
    replica-major (all samples of replica 0, then replica 1, ...).  All
    rungs step together as one ``(rungs * replicas, d)`` batch.  Replica
    ``r`` draws from ``SeedSequence((seed, r))`` in every rung, so each row
    equals a one-rung run at its ``n``, and each replica's trajectory is
    independent of how many other replicas or rungs run alongside it.
    Without jumps a replica's normals do not depend on ``n``, so one stream
    per replica feeds every rung; with jumps each (rung, replica) owns a
    stream, because its Poisson draws at rate ``n nu dt`` interleave with
    its normals.
    """
    d = model.dim
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
    snapshots = max(total_steps - burn, 0) // config.stride
    if not snapshots:
        raise ValueError("no samples collected; lengthen the horizon or shrink the stride")
    sigma = model.diffusion
    m = sigma.shape[1]
    nu = model.jump_rates
    j = len(nu)
    streams = [_replica_rngs(config.seed, reps) for _ in range(rungs if j else 1)]
    # per-rung factors, shaped to broadcast over (rungs, replicas, ...)
    n_col = np.array(n_values, dtype=float)[:, None, None]
    scale = np.sqrt(dt / n_col)

    x = np.tile(config.initial, (rungs, 1))  # rung-major (rungs * replicas, d)
    out = np.empty((rungs, reps, snapshots, d))
    step = 0
    while step < total_steps:
        block = min(_BLOCK, total_steps - step)
        # unscaled sigma xi, one row per stream set: (1 or rungs, replicas, block, d)
        kicks = np.empty((len(streams), reps, block, d))
        for g, rngs in enumerate(streams):
            for r, rng in enumerate(rngs):
                np.einsum("dm,km->kd", sigma, rng.standard_normal((block, m)), out=kicks[g, r])
        if j:
            counts = np.array(
                [[rng.poisson(n * nu * dt, (block, j)) for rng in rngs] for n, rngs in zip(n_values, streams)],
                dtype=float,
            )
        for k in range(block):
            incr = model.drift_at(x) * dt + (kicks[:, :, k] * scale).reshape(x.shape)
            if j:
                weights = (counts[:, :, k] / n_col - nu * dt).reshape(-1, j)
                incr = incr + np.einsum("rj,rjd->rd", weights, model.jump_values(x))
            x = x + incr
            step += 1
            # one flat maximum per step is cheaper than per-rung maxima; a NaN
            # also fails it, but only a rung past the limit raises, as in a one-rung run
            if not np.abs(x).max() <= BLOWUP_LIMIT:
                over = np.abs(x).reshape(rungs, -1).max(axis=1) > BLOWUP_LIMIT
                if over.any():
                    raise SimulationBlowup(
                        n_values[over.argmax()],
                        f"state magnitude exceeded {BLOWUP_LIMIT:g} at step {step} "
                        f"(time {step * dt:.6g}); the drift does not appear to "
                        "confine the dynamics on this domain",
                    )
            if step > burn and (step - burn) % config.stride == 0:
                out[:, :, (step - burn) // config.stride - 1] = x.reshape(rungs, reps, d)
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
    """Point-by-point comparison of predicted and empirical rates.

    Both curves are shifted to minimum 0 over the common populated support
    before differencing; the large-deviation prediction is only defined up
    to that normalization, and so is the histogram estimate.  Censored bins
    (no samples) are excluded from the error norms rather than treated as
    disagreement at infinity.
    """

    n: int
    centers: np.ndarray
    predicted: np.ndarray
    empirical: np.ndarray
    abs_errors: np.ndarray
    sup_error: float
    censored_bins: int

    def __post_init__(self) -> None:
        for name in ("centers", "predicted", "empirical", "abs_errors"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        if not (self.predicted.shape == self.empirical.shape == self.abs_errors.shape):
            raise ValueError("prediction/empirical/error arrays must align")


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
        n=empirical.n,
        centers=empirical.centers[pop],
        predicted=pred_shift,
        empirical=emp_shift,
        abs_errors=err,
        sup_error=float(err.max()),
        censored_bins=int((~pop).sum()),
    )
