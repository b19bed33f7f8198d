"""Markov-modulated On-Off sources and general reversible Markov fluids.

Rates are in bits per unit time; a packet is one bit unless it is the
fractional remainder of an On-dwell.  All sampling is driven by numpy
Generators derived from ``numpy.random.SeedSequence(master, spawn_key=key)``,
so replication ``k`` of any experiment is a pure function of
``(master_seed, k)`` and independent replications can run in parallel.
Sample paths draw their dwells in fixed-size blocks of vectorized
exponentials, so a path over a longer horizon extends the shorter one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EigenvectorError,
    InvalidParamsError,
    NonReversibleError,
    ReducibleChainError,
    TrivialScenarioError,
    UnstableScenarioError,
)

__all__ = [
    "MmooParams",
    "Scenario",
    "MarkovFluidSource",
    "StatePath",
    "aggregate_generator",
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
    if isinstance(master_seed, np.random.SeedSequence):
        ss = master_seed
    else:
        ss = np.random.SeedSequence(master_seed)
    if key:
        ss = np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + tuple(key))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class MmooParams:
    """One On-Off source: Off->On rate ``mu``, On->Off rate ``lam``, peak rate ``peak``."""

    lam: float
    mu: float
    peak: float

    def __post_init__(self):
        if not (self.lam > 0 and self.mu > 0 and self.peak > 0):
            raise InvalidParamsError(
                f"rates must be positive, got lam={self.lam} mu={self.mu} peak={self.peak}"
            )

    @property
    def on_probability(self) -> float:
        return self.mu / (self.lam + self.mu)

    @property
    def mean_rate(self) -> float:
        return self.on_probability * self.peak

    def as_fluid_source(self) -> "MarkovFluidSource":
        """Two-state fluid view: state 0 silent, state 1 emitting at ``peak``."""
        q = np.array([[-self.mu, self.mu], [self.lam, -self.lam]])
        return MarkovFluidSource(q, np.array([0.0, self.peak]))

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

    The server rate is ``C = (n1+n2)*c``.  Stability (``rho < 1``) is always
    required.  ``peak <= c`` means the aggregate can never backlog the server
    (zero delay); such scenarios are rejected unless ``allow_trivial`` is set,
    which the simulator uses for its no-queueing edge cases.
    """

    n1: int
    n2: int
    per_flow_capacity: float
    params: MmooParams
    allow_trivial: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 0:
            raise InvalidParamsError(f"need n1 >= 1 and n2 >= 0, got {self.n1}, {self.n2}")
        if self.per_flow_capacity <= 0:
            raise InvalidParamsError("per-flow capacity must be positive")
        if self.rho >= 1.0:
            raise UnstableScenarioError(
                f"utilization rho={self.rho:.6g} >= 1; no steady state"
            )
        if self.params.peak <= self.per_flow_capacity and not self.allow_trivial:
            raise TrivialScenarioError(
                f"peak {self.params.peak} <= per-flow capacity "
                f"{self.per_flow_capacity}: delay is identically zero"
            )

    @classmethod
    def from_utilization(cls, n1: int, n2: int, rho: float, params: MmooParams,
                         allow_trivial: bool = False) -> "Scenario":
        if not 0 < rho < 1:
            raise UnstableScenarioError(f"rho must lie in (0,1), got {rho}")
        return cls(n1, n2, params.mean_rate / rho, params, allow_trivial)

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
    def cross_capacity(self) -> float:
        return self.n2 * self.per_flow_capacity

    @property
    def rho(self) -> float:
        return self.params.mean_rate / self.per_flow_capacity

    @classmethod
    def from_json_dict(cls, d: dict) -> "Scenario":
        params = MmooParams.from_json_dict(d)
        if "per_flow_capacity" in d:
            return cls(*_json_values(d, "n1", "n2", "per_flow_capacity"), params)
        return cls.from_utilization(*_json_values(d, "n1", "n2", "rho"), params)


def aggregate_generator(n: int, params: MmooParams) -> np.ndarray:
    """Birth-death generator of the On-count chain for n multiplexed sources.

    State i means i sources are On; up-rate (n-i)*mu, down-rate i*lam.
    """
    if n < 1:
        raise InvalidParamsError(f"need n >= 1, got {n}")
    i = np.arange(n)
    q = np.zeros((n + 1, n + 1))
    q[i, i + 1] = (n - i) * params.mu
    q[i + 1, i] = (i + 1) * params.lam
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def stationary_distribution(q: np.ndarray) -> np.ndarray:
    """Stationary law of a reversible generator by detailed balance.

    A breadth-first spanning tree of the transitions ``q_ij > 0`` from state
    0 fixes ``log pi_j - log pi_i = log(q_ij / q_ji)`` along each tree edge
    (Kelly, *Reversibility and Stochastic Networks*, 1979), and the law is
    normalized.  The log domain keeps tail probabilities far below the
    largest.  ``MarkovFluidSource`` checks detailed balance off the tree.

    Raises ``ReducibleChainError`` when some state is unreachable from state
    0, ``NonReversibleError`` when a tree edge has no reverse transition,
    and ``EigenvectorError`` when a probability underflows to 0.0.
    """
    q = np.asarray(q, dtype=float)
    m = q.shape[0]
    if q.shape != (m, m):
        raise InvalidParamsError(f"generator must be square, got {q.shape}")
    rows, cols = np.nonzero(q > 0)  # a diagonal entry never reaches a new state
    starts = np.searchsorted(rows, np.arange(m + 1))
    seen = np.zeros(m, dtype=bool)
    seen[0] = True
    order, parents = [0], []
    for i in order:  # grows as the search reaches new states
        nbr = cols[starts[i]:starts[i + 1]]
        new = nbr[~seen[nbr]]
        seen[new] = True
        order.extend(new.tolist())
        parents.extend([i] * new.size)
    if len(order) < m:
        raise ReducibleChainError(
            f"{m - len(order)} of {m} states unreachable from state 0; "
            "the chain is reducible"
        )
    child = np.array(order[1:], dtype=np.intp)
    parent = np.array(parents, dtype=np.intp)
    back = q[child, parent]
    if not (back > 0).all():
        j = int(np.argmin(back > 0))
        raise NonReversibleError(
            f"transition {parent[j]} -> {child[j]} has no reverse; "
            "only reversible modulating chains are supported"
        )
    log_pi = [0.0] * m
    for j, i, step in zip(order[1:], parents, np.log(q[parent, child] / back).tolist()):
        log_pi[j] = log_pi[i] + step
    log_pi = np.array(log_pi)
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
    """Reversible Markov fluid: generator ``q``, per-state rates, cached stationary law.

    Non-reversible chains are rejected; the analysis relies on time reversal.
    """

    generator: np.ndarray
    rates: np.ndarray
    stationary: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        q = np.array(self.generator, dtype=float)
        r = np.array(self.rates, dtype=float)
        m = q.shape[0]
        if q.shape != (m, m) or r.shape != (m,):
            raise InvalidParamsError(
                f"generator {q.shape} and rates {r.shape} are inconsistent"
            )
        if not (np.isfinite(q).all() and np.isfinite(r).all()):
            raise InvalidParamsError("generator entries and rates must be finite")
        scale = max(1.0, float(np.abs(q).max()))
        off = q - np.diag(np.diag(q))
        if off.min() < -1e-12 * scale:
            raise InvalidParamsError("off-diagonal generator entries must be >= 0")
        if np.abs(q.sum(axis=1)).max() > 1e-9 * scale:
            raise InvalidParamsError("generator rows must sum to zero")
        if r.min() < 0:
            raise InvalidParamsError("arrival rates must be >= 0")
        pi = stationary_distribution(q)
        flux = pi[:, None] * q
        if np.abs(flux - flux.T).max() > 1e-9 * scale:
            raise NonReversibleError(
                "chain violates detailed balance; only reversible modulating "
                "chains are supported"
            )
        for arr in (q, r, pi):
            arr.flags.writeable = False
        object.__setattr__(self, "generator", q)
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "stationary", pi)

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    @property
    def mean_rate(self) -> float:
        return float(self.stationary @ self.rates)


def aggregate_source(n: int, params: MmooParams) -> MarkovFluidSource:
    """Fluid view of n multiplexed sources: On-count chain, state i emits i*peak."""
    q = aggregate_generator(n, params)
    return MarkovFluidSource(q, params.peak * np.arange(n + 1, dtype=float))


@dataclass(frozen=True)
class StatePath:
    """Piecewise-constant trajectory of a modulating chain over a finite horizon."""

    states: np.ndarray
    durations: np.ndarray
    horizon: float

    def time_in_state(self, state: int) -> float:
        return float(self.durations[self.states == state].sum())


_BLOCK = 1024  # dwells drawn per block; even, so a two-state block starts in one state


def sample_path(source: MarkovFluidSource, horizon: float, seed) -> StatePath:
    """Simulate the chain in its steady state over [0, horizon].

    The initial state is drawn from the stationary law; the dwell in state i
    is exponential with rate -q[i,i] and the next state is chosen in
    proportion to the off-diagonal row.  Memorylessness makes residual-time
    handling unnecessary.  The final dwell is truncated at the horizon.

    Dwells are drawn in blocks of ``_BLOCK`` as standard exponentials divided
    by the exit rates of the block's states, then cut at the horizon.  A
    two-state chain alternates, so its states need no draws; a larger chain
    walks its jump chain over one block of uniforms, each located in the
    cumulative jump row of the current state.  The block size does not
    depend on the horizon, so a longer horizon extends the same path.
    """
    if not horizon > 0:
        raise InvalidParamsError(f"horizon must be > 0, got {horizon}")
    rng = spawned_rng(seed)
    m = source.n_states
    state = int(rng.choice(m, p=source.stationary))
    if m == 1:  # absorbing: an irreducible chain has no other
        return StatePath(np.array([state], dtype=np.int64), np.array([float(horizon)]),
                         horizon)
    q = source.generator
    exit_rates = -np.diag(q)
    if m == 2:
        alternating = np.resize(np.array([state, 1 - state], dtype=np.int64), _BLOCK)
    else:
        jump = q * (1.0 - np.eye(m))
        cum_rows = np.cumsum(jump, axis=1)
        # dividing by the row total makes the last entry exactly 1.0, so a
        # uniform in [0, 1) always lands on a state with positive rate
        cum_rows = (cum_rows / cum_rows[:, -1:]).tolist()
    states, dwells, ends = [], [], []
    t = 0.0
    while t < horizon:
        if m == 2:
            block = alternating
        else:
            walk = []
            for u in rng.random(_BLOCK).tolist():
                walk.append(state)
                state = bisect_right(cum_rows[state], u)
            block = np.array(walk, dtype=np.int64)
        dwell = rng.standard_exponential(_BLOCK) / exit_rates[block]
        end = np.cumsum(dwell)
        end += t
        states.append(block)
        dwells.append(dwell)
        ends.append(end)
        t = float(end[-1])
    end = np.concatenate(ends)
    last = int(np.searchsorted(end, horizon, side="left"))  # first dwell reaching it
    durations = np.concatenate(dwells)[:last + 1]
    durations[last] = horizon - (end[last - 1] if last else 0.0)
    return StatePath(np.concatenate(states)[:last + 1], durations, horizon)


def packet_arrays(path: StatePath, peak: float) -> tuple[np.ndarray, np.ndarray]:
    """Packetized arrivals of a binary On/Off path as (times, sizes) arrays.

    An On-dwell of length tau at rate P emits floor(P*tau) unit packets, the
    k-th timestamped at dwell start + k/P, plus one fractional packet of size
    P*tau - floor(P*tau) at the dwell end.  Total bits equal the fluid volume.
    """
    if path.states.size and path.states.max() > 1:
        raise InvalidParamsError("packet_arrays expects a binary On/Off path")
    on = path.states == 1
    starts = np.concatenate(([0.0], np.cumsum(path.durations)[:-1]))[on]
    durs = path.durations[on]
    counts = np.floor(peak * durs).astype(np.int64)
    frac = peak * durs - counts
    total = int(counts.sum())
    cum = np.cumsum(counts) - counts  # exclusive prefix sum
    k = np.arange(total) - np.repeat(cum, counts) + 1
    unit_t = np.repeat(starts, counts) + k / peak
    keep = frac > 0
    # a fractional packet whose float timestamp collides with the last unit
    # packet would break strict ordering; drop it (volume error ~ ulp)
    last_unit = np.where(counts > 0, starts + counts / peak, -np.inf)
    keep &= (starts + durs) > last_unit
    times = np.concatenate([unit_t, (starts + durs)[keep]])
    sizes = np.concatenate([np.ones(total), frac[keep]])
    order = np.argsort(times, kind="stable")
    return times[order], sizes[order]
