"""Closed-form storage/bandwidth trade-off analytics.

For a mode m the code parameters are alpha = C(d, m), beta = C(d-1, m-1)
and the (secure) file size is

    plain    F       = m * C(d+1, m+1)
    Type-I   F_s,I   = (d - l) C(d, m) - C(d, m+1) + C(l, m+1)
    Type-II  F_s,II  = m * C(d - l + 1, m+1)

All comparisons run in exact integer or rational arithmetic; the Pareto
count decides its strict inequality by squaring integers, and the
brute-force hull oracle works on Fractions, so boundary cases are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .secure import Scheme, ell_range, secret_capacity
from .subsets import binom

# Bounds on the analytics, both checked before any point is computed.  The
# hull oracle (`pareto_points_bruteforce`) sorts the modes once, in exact
# rationals whose sizes grow with d: `pareto --d 1000` takes 0.5 s,
# start-up included, on a 2-vCPU VM, and a table of 9000 rows at d = 1000
# and three ells takes 1.6 s there, so a table has at most about 2 s of rows.
MAX_TRADEOFF_D = 1000
MAX_TRADEOFF_ROWS = 10_000


def _check_d(d: int) -> None:
    if d > MAX_TRADEOFF_D:
        raise ValueError(f"d={d} is above the trade-off limit d <= {MAX_TRADEOFF_D}")


@dataclass(frozen=True)
class TradeoffPoint:
    scheme: Scheme
    d: int
    ell: int
    m: int
    alpha: int
    beta: int
    fs: int
    alpha_norm: Fraction | None
    beta_norm: Fraction | None
    pareto: bool


def point(d: int, ell: int, m: int, scheme: Scheme) -> TradeoffPoint:
    """The achievable tuple of mode m, with exact normalized coordinates."""
    if not 1 <= m <= d:
        raise ValueError(f"need 1 <= m <= d, got m={m}, d={d}")
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    alpha = binom(d, m)
    beta = binom(d - 1, m - 1)
    fs = secret_capacity(d, ell, m, scheme)
    if fs > 0:
        a_n: Fraction | None = Fraction(alpha, fs)
        b_n: Fraction | None = Fraction(beta, fs)
    else:
        a_n = b_n = None
    return TradeoffPoint(
        scheme, d, ell, m, alpha, beta, fs, a_n, b_n,
        m in pareto_points_bruteforce(d, ell, scheme),
    )


def pareto_count(d: int, ell: int) -> int:
    """Number of Pareto points of the Type-II trade-off.

    The count is the largest integer t with (2*ell*t + 1)^2 strictly less
    than 1 + 4*ell*(d + 1).  For ell = 0 there is no security constraint
    and the non-secure trade-off has d corner points.
    """
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    if ell == 0:
        return d
    t = 0
    while (2 * ell * (t + 1) + 1) ** 2 < 1 + 4 * ell * (d + 1):
        t += 1
    return t


@lru_cache(maxsize=None)
def pareto_points_bruteforce(d: int, ell: int, scheme: Scheme) -> frozenset[int]:
    """Modes whose normalized pair is an extreme point of the achievable
    region, found with an exact-rational lower-left convex hull: the
    oracle that cross-checks `pareto_count`.

    Modes with zero secret capacity have no normalized pair and are
    excluded outright.
    """
    _check_d(d)
    pts: list[tuple[Fraction, Fraction, int]] = []
    for m in range(1, d + 1):
        fs = secret_capacity(d, ell, m, scheme)
        if fs > 0:
            pts.append((Fraction(binom(d, m), fs), Fraction(binom(d - 1, m - 1), fs), m))
    if not pts:
        return frozenset()
    if len({(a, b) for a, b, _ in pts}) != len(pts):
        raise AssertionError("distinct modes produced identical normalized pairs")
    # Drop dominated points, those with another point at most as large in
    # both coordinates: in (alpha, beta) order only earlier points can
    # dominate, so a point stays iff its beta is below every earlier one.
    pts.sort()
    frontier: list[tuple[Fraction, Fraction, int]] = []
    for p in pts:
        if not frontier or p[1] < frontier[-1][1]:
            frontier.append(p)
    # Lower convex chain; collinear middle points are interior.
    hull: list[tuple[Fraction, Fraction, int]] = []
    for p in frontier:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return frozenset(m for _, _, m in hull)


def _cross(o: tuple, a: tuple, b: tuple) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def single_pareto_threshold(d: int) -> int:
    """Smallest ell for which the Type-II trade-off collapses to one point."""
    return -(-(d - 1) // 4)  # ceil((d - 1) / 4)


# -- cut-set and literature bounds ------------------------------------------------


def cutset_bound(d: int, ell: int, alpha: int, beta: int) -> int:
    """Classical upper bound sum_{i=ell}^{d-1} min(alpha, (d - i) beta)."""
    return sum(min(alpha, (d - i) * beta) for i in range(ell, d))


@dataclass(frozen=True)
class BoundCheck:
    name: str
    scheme: Scheme
    bound: Fraction
    achieved: int
    satisfied: bool
    equality: bool


def _check(name: str, scheme: Scheme, bound: Fraction | int, achieved: int) -> BoundCheck:
    bound = Fraction(bound)
    return BoundCheck(name, scheme, bound, achieved, achieved <= bound, achieved == bound)


def external_bound_check(d: int, ell: int, m: int, n: int | None = None) -> list[BoundCheck]:
    """Evaluate every applicable published bound at (d, ell, m).

    Bounds that involve the node count take n explicitly, defaulting to
    d + 1 (the regime the comparisons are stated in).  Every returned
    check must have ``satisfied`` True; ``equality`` flags the documented
    tight cases, e.g. the mode-1 point under the ell = 1 Type-II bound.
    """
    if n is None:
        n = d + 1
    alpha = binom(d, m)
    beta = binom(d - 1, m - 1)
    fs1 = secret_capacity(d, ell, m, Scheme.TYPE_I)
    fs2 = secret_capacity(d, ell, m, Scheme.TYPE_II)
    cut = cutset_bound(d, ell, alpha, beta)
    checks = [
        _check("cutset", Scheme.TYPE_I, cut, fs1),
        _check("cutset", Scheme.TYPE_II, cut, fs2),
        _check("typeII-below-typeI", Scheme.TYPE_II, fs1, fs2),
    ]
    if m == 1:
        # Matches the optimal MBR construction exactly.
        shah = (d - ell) * d - binom(d, 2) + binom(ell, 2)
        checks.append(_check("mbr-shah", Scheme.TYPE_I, shah, fs1))
    if ell == 1:
        tandon14 = Fraction((d - 1) * (alpha + d * beta), 4)
        checks.append(_check("tandon14-ell1", Scheme.TYPE_II, tandon14, fs2))
    if 1 <= ell <= min(n - d, Fraction(d, 2)):
        thm3 = Fraction((d - ell) ** 2 * alpha, d)
    else:
        thm3 = Fraction((d - ell) * (d - 1) * alpha, d)
    if ell >= 1:
        checks.append(_check("tandon16-thm3", Scheme.TYPE_II, thm3, fs2))
    if d == 2 and ell == 1:
        checks.append(_check("tandon16-k2", Scheme.TYPE_I, min(alpha, beta), fs1))
        checks.append(
            _check("tandon16-k2", Scheme.TYPE_II, min(Fraction(alpha, 2), beta), fs2)
        )
    if ell == d - 1:
        checks.append(_check("tandon16-ndp1", Scheme.TYPE_I, min(alpha, beta), fs1))
        checks.append(
            _check("tandon16-ndp1", Scheme.TYPE_II, min(Fraction(alpha, d), beta), fs2)
        )
    return checks


# -- CSV emission -------------------------------------------------------------------

TRADEOFF_CSV_HEADER = (
    "scheme,d,ell,m,alpha,beta,Fs,alpha_norm,beta_norm,pareto,"
    "alpha_norm_frac,beta_norm_frac"
)


def _dec(x: Fraction | None) -> str:
    return "" if x is None else format(float(x), ".12g")


def _frac(x: Fraction | None) -> str:
    return "" if x is None else f"{x.numerator}/{x.denominator}"


def emit_tradeoff_csv(
    d_values: Iterable[int],
    ell_values: Iterable[int],
    schemes: Sequence[Scheme],
) -> Iterator[str]:
    """One row per (scheme, d, ell, m); normalized values both as decimals
    with 12 significant digits and as exact p/q strings.  A table of more
    than MAX_TRADEOFF_ROWS requested rows (sum of d, times the ells and
    schemes), or with a d above MAX_TRADEOFF_D, is refused before any row."""
    ds, ells = list(d_values), list(ell_values)
    _check_d(max(ds, default=0))
    rows = sum(max(d, 0) for d in ds) * len(ells) * len(schemes)
    if rows > MAX_TRADEOFF_ROWS:
        raise ValueError(
            f"the table asks for up to {rows} rows; the trade-off limit is {MAX_TRADEOFF_ROWS}"
        )
    yield TRADEOFF_CSV_HEADER
    for scheme in schemes:
        for d in ds:
            for ell in ells:
                if ell not in ell_range(scheme, d):
                    continue
                for m in range(1, d + 1):
                    p = point(d, ell, m, scheme)
                    yield (
                        f"{scheme.value},{d},{ell},{m},{p.alpha},{p.beta},{p.fs},"
                        f"{_dec(p.alpha_norm)},{_dec(p.beta_norm)},"
                        f"{str(p.pareto).lower()},"
                        f"{_frac(p.alpha_norm)},{_frac(p.beta_norm)}"
                    )
