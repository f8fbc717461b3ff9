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

from .secure import Scheme, secret_capacity
from .subsets import binom


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
        m in pareto_modes(d, ell, scheme),
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
def pareto_modes(d: int, ell: int, scheme: Scheme) -> frozenset[int]:
    """Modes whose normalized pair is an extreme point of the achievable
    region, found with an exact-rational lower-left convex hull.

    Modes with zero secret capacity have no normalized pair and are
    excluded outright.
    """
    return _pareto_modes_impl(d, ell, scheme)


def _pareto_modes_impl(d: int, ell: int, scheme: Scheme) -> frozenset[int]:
    pts: list[tuple[Fraction, Fraction, int]] = []
    for m in range(1, d + 1):
        fs = secret_capacity(d, ell, m, scheme)
        if fs > 0:
            pts.append((Fraction(binom(d, m), fs), Fraction(binom(d - 1, m - 1), fs), m))
    if not pts:
        return frozenset()
    if len({(a, b) for a, b, _ in pts}) != len(pts):
        raise AssertionError("distinct modes produced identical normalized pairs")
    # Drop dominated points: some other point is at most as large in both
    # coordinates.
    frontier = [
        (a, b, m)
        for a, b, m in pts
        if not any(
            (a2, b2) != (a, b) and a2 <= a and b2 <= b for a2, b2, _ in pts
        )
    ]
    frontier.sort()
    # Lower convex chain; collinear middle points are interior.
    hull: list[tuple[Fraction, Fraction, int]] = []
    for p in frontier:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return frozenset(m for _, _, m in hull)


def _cross(o: tuple, a: tuple, b: tuple) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def pareto_points_bruteforce(d: int, ell: int, scheme: Scheme) -> set[int]:
    """Exact-rational convex-hull oracle; cross-checks pareto_count."""
    return set(_pareto_modes_impl(d, ell, scheme))


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


def shao_family_matches(d: int, ell: int) -> bool:
    """The (n = d+1) Type-II construction family from the literature is a
    1/(t-1) scaling of the mode t-1 tuple; verify the identity exactly."""
    n = d + 1
    for t in range(2, n - ell + 1):
        m = t - 1
        lhs = (
            Fraction(binom(n - 1, t - 1), t - 1),
            Fraction(binom(n - 1, t - 1), d),
            Fraction(binom(n - ell, t)),
        )
        rhs = (
            Fraction(binom(d, m), m),
            Fraction(binom(d - 1, m - 1), m),
            Fraction(secret_capacity(d, ell, m, Scheme.TYPE_II), m),
        )
        if lhs != rhs:
            return False
    return True


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
    with 12 significant digits and as exact p/q strings."""
    yield TRADEOFF_CSV_HEADER
    ells = list(ell_values)
    for scheme in schemes:
        for d in d_values:
            for ell in ells:
                if scheme is Scheme.PLAIN and ell != 0:
                    continue
                if scheme is Scheme.TYPE_I and not 0 <= ell < d:
                    continue
                if scheme is Scheme.TYPE_II and not 0 <= ell <= d:
                    continue
                for m in range(1, d + 1):
                    p = point(d, ell, m, scheme)
                    yield (
                        f"{scheme.value},{d},{ell},{m},{p.alpha},{p.beta},{p.fs},"
                        f"{_dec(p.alpha_norm)},{_dec(p.beta_norm)},"
                        f"{str(p.pareto).lower()},"
                        f"{_frac(p.alpha_norm)},{_frac(p.beta_norm)}"
                    )
