"""Delay-violation bounds for Markov-modulated On-Off traffic.

Computes sharp martingale-based and classical (union/Chernoff) per-flow delay
bounds under FIFO, SP, EDF, and GPS scheduling, generalizes the decay-rate
machinery to birth-death Markov fluids (the On-count chain of n On-Off
sources among them), and validates everything against an embedded
packet-level scheduler simulator.
"""

from .errors import (
    DegenerateSourceError,
    EigenvectorError,
    GpsInfeasibleError,
    InvalidParamsError,
    NoFeasibleSplitError,
    TrivialScenarioError,
    UnstableScenarioError,
)
from .traffic import (
    MarkovFluidSource,
    MmooParams,
    Scenario,
    StatePath,
    aggregate_source,
    sample_path,
    stationary_distribution,
)
from .martingale import (
    DelayBound,
    MartingaleConstants,
    SchedulerSpec,
    gps_constants,
    martingale_constants,
    martingale_delay_bound,
)
from .standard import (
    StandardBoundResult,
    effective_bandwidth_rate,
    standard_delay_bound,
)
from .general import (
    GeneralBoundResult,
    GeneralizedDecay,
    fluid_effective_bandwidth,
    general_sample_path_bound,
    generalized_decay,
    mmoo_consistency_check,
)
from .sim import (
    BoxStats,
    DelayStats,
    SimConfig,
    martingale_mc_estimate,
    replicate,
    simulate,
)
from .analysis import (
    AdmissionQuery,
    ExperimentSpec,
    admission_max_flows,
    compare_experiment,
    palm_prefactor,
    scaling_experiment,
    verify,
)

__version__ = "0.1.0"
