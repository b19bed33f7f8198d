"""Bisection on the effective-bandwidth equation, kept as a test oracle.

``solve_eb_equation`` is the root finder the standard bound used for its
GPS and EDF intervals before every interval end became the closed-form
gamma of its reduced system.  The tests assert that its root equals that
gamma.  Do not edit it to follow the library.
"""

from sncbounds.errors import InvalidParamsError
from sncbounds.standard import effective_bandwidth_rate
from sncbounds.traffic import MmooParams


def solve_eb_equation(params: MmooParams, c: float) -> float:
    """Unique root of r_theta = c by bisection, to |r - c| <= 1e-12*c.

    r_theta increases from the mean rate to the peak, so a root exists iff
    p*P < c < P.
    """
    if not params.mean_rate < c < params.peak:
        raise InvalidParamsError(
            f"capacity {c} outside (mean rate {params.mean_rate:.6g}, "
            f"peak {params.peak})"
        )
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if effective_bandwidth_rate(hi, params) > c:
            break
        hi *= 2.0
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        r = effective_bandwidth_rate(mid, params)
        if abs(r - c) <= 1e-12 * c or (hi - lo) < 1e-16 * hi:
            return mid
        if r < c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
