"""Markov-modulated On-Off sources and birth-death Markov fluids.

Rates are in bits per unit time; a packet is one bit unless it is the
fractional remainder of an On-dwell.  All sampling is driven by numpy
Generators derived from ``numpy.random.SeedSequence(master, spawn_key=key)``,
so replication ``k`` of any experiment is a pure function of
``(master_seed, k)`` and independent replications can run in parallel.
Sample paths are those of one On-Off source (``MmooParams``); they draw
their dwells in fixed-size blocks of vectorized exponentials, so a path over
a longer horizon extends the shorter one.  A birth-death fluid
(``MarkovFluidSource``) has at least two states; the On-count chain of n
On-Off sources is one (``aggregate_source``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSourceError,
    EigenvectorError,
    InvalidParamsError,
    TrivialScenarioError,
    UnstableScenarioError,
)

__all__ = [
    "MmooParams",
    "Scenario",
    "MarkovFluidSource",
    "StatePath",
    "aggregate_source",
    "stationary_distribution",
    "sample_path",
    "packet_arrays",
    "spawned_rng",
]


def spawned_rng(master_seed, *key: int) -> np.random.Generator:
    """Generator for stream ``key`` of ``master_seed`` (splittable contract)."""
    if isinstance(master_seed, np.random.Generator):
        return master_seed
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


@dataclass(frozen=True)
class MmooParams:
    """One On-Off source: Off->On rate ``mu``, On->Off rate ``lam``, peak rate ``peak``.

    Frozen, so ``on_probability`` and ``mean_rate`` are computed once per
    instance (``functools.cached_property``): a source is shared by every
    scenario and bound call on it.
    """

    lam: float
    mu: float
    peak: float

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.lam, self.mu, self.peak)):
            raise InvalidParamsError(
                f"rates must be positive and finite, got lam={self.lam} mu={self.mu} "
                f"peak={self.peak}"
            )

    @functools.cached_property
    def on_probability(self) -> float:
        return self.mu / (self.lam + self.mu)

    @functools.cached_property
    def mean_rate(self) -> float:
        return self.on_probability * self.peak

    @classmethod
    def from_json_dict(cls, d: dict) -> "MmooParams":
        lam, mu, peak = _json_values(d, "lambda", "mu", "peak")
        return cls(lam=lam, mu=mu, peak=peak)


def _json_values(d: dict, *keys) -> list:
    """``d[key]`` for each key, each a JSON number.

    A document that is not a JSON object, a missing key, or a value that is
    not a number (``true``/``false`` included) is an ``InvalidParamsError``.
    """
    if not isinstance(d, dict):
        raise InvalidParamsError(f"scenario JSON must be an object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise InvalidParamsError(f"missing JSON key {', '.join(map(repr, missing))}")
    for k in keys:
        if isinstance(d[k], bool) or not isinstance(d[k], (int, float)):
            raise InvalidParamsError(f"JSON key {k!r} must be a number, got {d[k]!r}")
    return [d[k] for k in keys]


@dataclass(frozen=True)
class Scenario:
    """Through/cross flow counts and per-flow capacity sharing one server.

    The server rate is ``C = (n1+n2)*c``.  The flow counts are integers
    (``int`` or a NumPy integer, not ``bool``).  Stability (``rho < 1``) is
    required, and ``peak <= c``, where the aggregate can never backlog the
    server (zero delay), is rejected.
    """

    n1: int
    n2: int
    per_flow_capacity: float
    params: MmooParams

    def __post_init__(self):
        for name, count in (("n1", self.n1), ("n2", self.n2)):
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise InvalidParamsError(f"{name} must be an integer, got {count!r}")
        if self.n1 < 1 or self.n2 < 0:
            raise InvalidParamsError(f"need n1 >= 1 and n2 >= 0, got {self.n1}, {self.n2}")
        if not 0 < self.per_flow_capacity < math.inf:
            raise InvalidParamsError(
                f"per-flow capacity must be positive and finite, got {self.per_flow_capacity}"
            )
        if self.rho >= 1.0:
            raise UnstableScenarioError(
                f"utilization rho={self.rho:.6g} >= 1; no steady state"
            )
        if self.params.peak <= self.per_flow_capacity:
            raise TrivialScenarioError(
                f"peak {self.params.peak} <= per-flow capacity "
                f"{self.per_flow_capacity}: delay is identically zero"
            )

    @classmethod
    def from_utilization(cls, n1: int, n2: int, rho: float, params: MmooParams) -> "Scenario":
        if not 0 < rho < 1:
            raise UnstableScenarioError(f"rho must lie in (0,1), got {rho}")
        return cls(n1, n2, params.mean_rate / rho, params)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def capacity(self) -> float:
        return self.n * self.per_flow_capacity

    @property
    def through_capacity(self) -> float:
        return self.n1 * self.per_flow_capacity

    @property
    def rho(self) -> float:
        return self.params.mean_rate / self.per_flow_capacity

    @classmethod
    def from_json_dict(cls, d: dict) -> "Scenario":
        params = MmooParams.from_json_dict(d)
        if "per_flow_capacity" in d:
            return cls(*_json_values(d, "n1", "n2", "per_flow_capacity"), params)
        return cls.from_utilization(*_json_values(d, "n1", "n2", "rho"), params)


def stationary_distribution(up, down) -> np.ndarray:
    """Stationary law of the birth-death chain with off-diagonals ``up``, ``down``.

    Detailed balance fixes ``log pi_{i+1} - log pi_i = log(up_i / down_i)``
    (Kelly, *Reversibility and Stochastic Networks*, 1979), and the law is
    normalized.  The log domain keeps tail probabilities far below the
    largest.  Raises ``EigenvectorError`` when a probability underflows to
    0.0.
    """
    steps = np.log(np.asarray(up, dtype=float) / np.asarray(down, dtype=float))
    log_pi = np.concatenate(([0.0], np.cumsum(steps)))
    pi = np.exp(log_pi - log_pi.max())
    pi /= pi.sum()
    if not pi.min() > 0:
        raise EigenvectorError(
            f"stationary probability underflows to 0.0 (log ratio to the "
            f"largest {log_pi.min() - log_pi.max():.4g})"
        )
    return pi


@dataclass(frozen=True)
class MarkovFluidSource:
    """Birth-death Markov fluid: off-diagonals, per-state rates, cached stationary law.

    ``up[i] = q_{i,i+1}`` and ``down[i] = q_{i+1,i}`` are the generator's
    only off-diagonal entries; its diagonal is ``-(up_i + down_{i-1})``.
    Both must be positive, so the chain is irreducible and, like every
    birth-death chain, reversible.  A single state (empty ``up`` and
    ``down``), a constant-rate source, has no eigenstructure and raises
    ``DegenerateSourceError``.
    """

    up: np.ndarray
    down: np.ndarray
    rates: np.ndarray
    stationary: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        up = np.array(self.up, dtype=float)
        down = np.array(self.down, dtype=float)
        r = np.array(self.rates, dtype=float)
        k = r.size
        if not (r.shape == (k,) and up.shape == down.shape == (k - 1,)):
            raise InvalidParamsError(
                f"up {up.shape}, down {down.shape} and rates {r.shape} are inconsistent"
            )
        if not (np.isfinite(up).all() and np.isfinite(down).all() and np.isfinite(r).all()):
            raise InvalidParamsError("transition rates and arrival rates must be finite")
        if not ((up > 0).all() and (down > 0).all()):
            raise InvalidParamsError("up and down transition rates must be > 0")
        if r.min() < 0:
            raise InvalidParamsError("arrival rates must be >= 0")
        for arr in (up, down, r):
            arr.flags.writeable = False
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "rates", r)
        if self.n_states < 2:
            raise DegenerateSourceError(
                "constant-rate (single-state) source has no eigenstructure"
            )
        pi = stationary_distribution(up, down)
        pi.flags.writeable = False
        object.__setattr__(self, "stationary", pi)

    @property
    def n_states(self) -> int:
        return self.rates.size

    @property
    def mean_rate(self) -> float:
        return float(self.stationary @ self.rates)


def aggregate_source(n: int, params: MmooParams) -> MarkovFluidSource:
    """Fluid view of n multiplexed sources: the On-count chain.

    State i means i sources are On and emits i*peak; its up-rate is
    (n-i)*mu and its down-rate i*lam.
    """
    if n < 1:
        raise InvalidParamsError(f"need n >= 1, got {n}")
    i = np.arange(n)
    return MarkovFluidSource((n - i) * params.mu, (i + 1) * params.lam,
                             params.peak * np.arange(n + 1, dtype=float))


@dataclass(frozen=True)
class StatePath:
    """Piecewise-constant trajectory of a modulating chain over a finite horizon."""

    states: np.ndarray
    durations: np.ndarray


_BLOCK = 1024  # dwells drawn per block; even, so every block starts in one state


def sample_path(params: MmooParams, horizon: float, seed) -> StatePath:
    """Simulate one On-Off source in its steady state over [0, horizon].

    The initial state (0 Off, 1 On) is drawn from the stationary law
    (1 - p, p), p = ``params.on_probability``, and the states alternate.  The
    dwell in state 0 is exponential with rate ``mu``, in state 1 with rate
    ``lam``.  Memorylessness makes residual-time handling unnecessary.  The
    final dwell is truncated at the horizon.

    Dwells come in blocks of ``_BLOCK`` standard exponentials divided by the
    exit rates of the block's states; each block's ends are its cumulative
    sum plus the end of the block before, then cut at the horizon.  The
    block size does not depend on the horizon, so a longer horizon extends
    the same path.  The blocks are drawn in one call: as many as the mean
    number of dwells in the horizon fills, plus one, and more in a further
    call in the rare case that they end short of it.  These are the numbers
    that drawing block by block gives, but a ``Generator`` passed as
    ``seed`` advances past the last block the path uses.
    """
    if not 0 < horizon < math.inf:
        raise InvalidParamsError(f"horizon must be finite and > 0, got {horizon}")
    rng = spawned_rng(seed)
    p = params.on_probability
    state = int(rng.choice(2, p=(1.0 - p, p)))
    exits = (params.mu, params.lam)
    block_rates = np.tile([exits[state], exits[1 - state]], _BLOCK // 2)
    per_time = 2.0 / (1.0 / params.mu + 1.0 / params.lam)  # mean dwells per unit time
    dwells, ends = [], []
    t = 0.0
    while t < horizon:
        blocks = int((horizon - t) * per_time / _BLOCK) + 1
        dwell = rng.standard_exponential((blocks, _BLOCK))
        dwell /= block_rates
        end = np.cumsum(dwell, axis=1)
        # each block starts at the end of the one before, summed in block order
        starts = np.cumsum(np.concatenate(([t], end[:-1, -1])))
        end += starts[:, None]
        dwells.append(dwell.ravel())
        ends.append(end.ravel())
        t = float(end[-1, -1])
    # one draw covers the horizon unless, rarely, it ended short of it
    end, dwell = ((ends[0], dwells[0]) if len(ends) == 1
                  else (np.concatenate(ends), np.concatenate(dwells)))
    last = int(np.searchsorted(end, horizon, side="left"))  # first dwell reaching it
    durations = dwell[:last + 1]
    durations[last] = horizon - (end[last - 1] if last else 0.0)
    states = np.arange(last + 1, dtype=np.int64) & 1
    states ^= state
    return StatePath(states, durations)


def packet_arrays(path: StatePath, peak: float) -> tuple[np.ndarray, np.ndarray]:
    """Packetized arrivals of a binary On/Off path as (times, sizes) arrays.

    An On-dwell of length tau at rate P emits floor(P*tau) unit packets, the
    k-th timestamped at dwell start + k/P, plus one fractional packet of size
    P*tau - floor(P*tau) at the dwell end.  Total bits equal the fluid volume.
    Dwells follow each other, so each dwell's packets take consecutive slots
    and come out in time order without a sort.

    The path's states must alternate, as ``sample_path``'s do, so its
    On-dwells are every other dwell, a stride-2 slice from the first; any
    other path raises ``InvalidParamsError``.  Dwell i runs from the sum of
    the dwells before it to that sum plus its own, both read from one
    cumulative sum (the end is the next running sum, bit for bit).
    """
    states = path.states
    first_state = int(states[0]) if states.size else 0
    if not np.array_equal(states, np.arange(first_state, first_state + states.size) & 1):
        raise InvalidParamsError(
            "packet_arrays expects a binary On/Off path whose states alternate")
    cum = np.empty(states.size + 1)  # cum[i]: start of dwell i, cum[i + 1] its end
    cum[0] = 0.0
    np.cumsum(path.durations, out=cum[1:])
    on = 1 - first_state  # the first On-dwell
    starts, ends = cum[on:-1:2], cum[on + 1::2]
    durs = path.durations[on::2]
    fluid = peak * durs
    counts = np.floor(fluid).astype(np.int64)
    frac = fluid - counts
    # a fractional packet whose float timestamp collides with the last unit
    # packet would break strict ordering; drop it (volume error ~ ulp)
    last_unit = np.where(counts > 0, starts + counts / peak, -np.inf)
    keep = (frac > 0) & (ends > last_unit)
    slots = counts + keep
    first = np.cumsum(slots) - slots  # exclusive prefix sum: each dwell's first slot
    total = int(slots.sum())
    # slot k-1 of a dwell holds its k-th unit packet; the one after the unit
    # packets gets k = counts + 1 here and is overwritten by the fraction.
    # k counts up by one and restarts at 1 on each nonempty dwell's first
    # slot: a running sum of ones, less the previous dwell's slots there
    begin = first[slots > 0]
    k = np.ones(total, dtype=np.int64)
    k[begin[1:]] = 1 - np.diff(begin)
    np.cumsum(k, out=k)
    times = k / peak
    times += np.repeat(starts, slots)
    sizes = np.ones(total)
    at = (first + counts)[keep]
    times[at] = ends[keep]
    sizes[at] = frac[keep]
    return times, sizes
