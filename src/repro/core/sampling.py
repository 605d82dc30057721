"""Statistical fault sampling (Leveugle et al., DATE 2009 — paper §III.A).

For a fault population of size N, confidence level ``conf`` and initial
failure-probability estimate ``p`` (0.5 maximises the required sample), the
number of injections needed for error margin ``e`` is::

    n = N / (1 + e^2 * (N - 1) / (t^2 * p * (1 - p)))

where ``t`` is the two-sided normal quantile for ``conf``.  The paper's
choice — 2,000 samples at 99% confidence with p = 0.5 — yields a 2.88%
error margin for the (astronomically large) fault population of a cache
array, and the post-campaign re-estimate with the measured AVF tightens
that to 2.4-2.88%; both numbers fall out of these formulas.
"""

from __future__ import annotations

import functools
import math


@functools.cache
def _t_value(confidence: float) -> float:
    """Two-sided normal quantile for *confidence*, memoised per level.

    SciPy is imported here, at first use, rather than at module import:
    every CLI, worker and benchmark process imports this module through
    :mod:`repro.core`, but only adaptive sampling and the statistics
    helpers below ever need a quantile, and ``scipy.stats`` (with NumPy)
    costs over a second and ~80 MiB to load.
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1): {confidence}")
    from scipy.stats import norm

    return float(norm.ppf(0.5 + confidence / 2))


def sample_size(
    population: int,
    error_margin: float,
    confidence: float = 0.99,
    p: float = 0.5,
) -> int:
    """Required injections for the target *error_margin* (rounded up)."""
    if population <= 0:
        raise ValueError("population must be positive")
    if not 0 < error_margin < 1:
        raise ValueError("error margin must be in (0, 1)")
    t = _t_value(confidence)
    n = population / (
        1 + error_margin ** 2 * (population - 1) / (t ** 2 * p * (1 - p))
    )
    return math.ceil(n)


def error_margin(
    population: int,
    samples: int,
    confidence: float = 0.99,
    p: float = 0.5,
) -> float:
    """Error margin achieved by *samples* injections (inverse formula)."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    if samples > population:
        raise ValueError("cannot sample more faults than the population")
    if population == 1:
        return 0.0
    t = _t_value(confidence)
    return t * math.sqrt(
        p * (1 - p) * (population - samples) / (samples * (population - 1))
    )


def binomial_confidence_interval(
    successes: int,
    trials: int,
    confidence: float = 0.99,
    method: str = "wilson",
) -> tuple[float, float]:
    """Two-sided confidence interval for a binomial proportion.

    Campaign cells report class fractions out of *trials* injections
    (2,000 per cell in the paper); this puts error bars on them.  The
    default is the Wilson score interval, which stays inside [0, 1] and
    behaves at the p→0/p→1 extremes typical of Masked/Assert fractions;
    ``method="wald"`` gives the textbook normal approximation
    ``p ± t·sqrt(p(1-p)/n)`` — with the paper's n = 2,000, conf = 99%,
    p = 0.5 its half-width is the familiar 2.88%.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be in [0, trials]: {successes}/{trials}"
        )
    t = _t_value(confidence)
    p = successes / trials
    if method == "wald":
        half = t * math.sqrt(p * (1 - p) / trials)
        return max(0.0, p - half), min(1.0, p + half)
    if method == "wilson":
        denom = 1 + t ** 2 / trials
        centre = (p + t ** 2 / (2 * trials)) / denom
        half = _wilson_half(p, trials, t)
        return max(0.0, centre - half), min(1.0, centre + half)
    raise ValueError(f"unknown method {method!r} (use 'wilson' or 'wald')")


def _wilson_half(p: float, trials: float, t: float) -> float:
    """Wilson score half-width for proportion *p* over *trials* samples."""
    return t * math.sqrt(
        p * (1 - p) / trials + t ** 2 / (4 * trials ** 2)
    ) / (1 + t ** 2 / trials)


def wilson_half_width(
    successes: int, trials: int, confidence: float = 0.99
) -> float:
    """Half-width of the Wilson interval around ``successes/trials``.

    The adaptive campaign driver's stopping metric: one number instead of
    the (clamped) interval endpoints of
    :func:`binomial_confidence_interval`, computed from the identical
    formula so reports and the stopping rule can never disagree.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be in [0, trials]: {successes}/{trials}"
        )
    return _wilson_half(successes / trials, trials, _t_value(confidence))


def required_additional_samples(
    successes: int,
    trials: int,
    ci_target: float,
    confidence: float = 0.99,
) -> int:
    """Extra trials needed before the Wilson half-width reaches *ci_target*.

    Inverse of :func:`wilson_half_width` holding the observed proportion
    ``successes/trials`` fixed (the standard plug-in assumption): the
    smallest ``m >= 0`` such that ``trials + m`` samples at that proportion
    yield a half-width of at most *ci_target*.  Returns 0 when the target
    is already met.  The half-width is strictly positive for any finite
    sample, so ``ci_target <= 0`` is unreachable and rejected.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be in [0, trials]: {successes}/{trials}"
        )
    if ci_target <= 0:
        raise ValueError("ci_target must be positive (the half-width of "
                         "any finite sample is nonzero)")
    t = _t_value(confidence)
    p = successes / trials
    if _wilson_half(p, trials, t) <= ci_target:
        return 0
    # The half-width decreases monotonically in the trial count (for fixed
    # p), so galloping + bisection find the minimal count exactly.
    lo, hi = trials, trials * 2
    while _wilson_half(p, hi, t) > ci_target:
        lo, hi = hi, hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _wilson_half(p, mid, t) <= ci_target:
            hi = mid
        else:
            lo = mid
    return hi - trials


def fault_population(bits: int, cycles: int, cardinality: int = 1) -> int:
    """Size of the fault space for one campaign cell.

    Every (bit-set, injection-cycle) pair is a distinct fault.  For
    multi-bit clusters the bit-set count is approximated by the number of
    cluster placements times in-cluster patterns; for the error-margin
    formulas only the order of magnitude matters (N >> n makes the
    finite-population correction vanish).
    """
    patterns = math.comb(9, cardinality)  # 3x3 cluster positions
    return max(1, bits * cycles * patterns // 9)
