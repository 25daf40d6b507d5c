"""Closed-form growth exponents for the counting problems.

Each public function returns the exponent e such that the relevant count is
O(A^e) as the element-set size A grows, as an exact Fraction wrapped in an
ExponentValue that also names the bound and the parameter regime it covers.
Nothing here is asymptotic arithmetic: these are the exact formulas the
slope experiments compare against.

Exponent sources, by tag:
  det-trivial / charpoly-trivial / rank-trivial  counting argument baselines
  rank-bound        rank <= r over m x n matrices, two regimes in (n, m, r)
  rank-type         the per-type exponent whose max over t gives rank-bound
  det-bound         prescribed determinant, zero and nonzero regimes
  det-zero-family   lower-bound family for det = 0 (meets det-bound at n<=3)
  charpoly2         full 2x2 characteristic polynomial, three regimes
  charpoly-general  prescribed charpoly, any coefficients, dimension only
  charpoly-refined  base 3n^2/4 - n/4 minus a saving keyed on whether the
                    two leading non-monic coefficients vanish
  charpoly-real     sharper savings for subsets of the reals (n = 0,1 mod 4)
  equation-*        linear equations, homogeneous and not
  system-sum-squares  the simultaneous zero-sum / zero-square-sum system
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction


@dataclass(frozen=True)
class ExponentValue:
    value: Fraction
    source: str
    regime: str

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise ValueError(f"negative exponent {self.value} from {self.source}")

    def __str__(self) -> str:
        return f"{self.value} [{self.source}; {self.regime}]"


def _check_rank_args(n: int, m: int, r: int) -> None:
    if not 1 <= r <= m <= n:
        raise ValueError(f"need 1 <= r <= m <= n, got r={r}, m={m}, n={n}")


def rank_exponent(n: int, m: int, r: int) -> ExponentValue:
    """Exponent for counting m x n matrices of rank at most r."""
    _check_rank_args(n, m, r)
    base = n * r + m - r
    if 2 * m <= n + r:
        return ExponentValue(Fraction(base), "rank-bound", "2m<=n+r")
    extra = ((r - 1) // 2) * (2 * m - n - r)
    return ExponentValue(Fraction(base + extra), "rank-bound", "2m>n+r")


def rank_type_exponent(n: int, m: int, r: int, t: int) -> int:
    """Work exponent of the type-t term in the rank count decomposition;
    the rank bound is the max of these over 1 <= t <= r."""
    _check_rank_args(n, m, r)
    if not 1 <= t <= r:
        raise ValueError(f"need 1 <= t <= r, got t={t}")
    return (
        r * r
        + t * (m - r)
        + ((t + 1) // 2) * (n - r)
        + (r - t) * (n - r)
    )


def det_exponent(n: int, target_is_zero: bool) -> ExponentValue:
    """Exponent for counting n x n matrices with a prescribed determinant."""
    if n < 1:
        raise ValueError("need n >= 1")
    if target_is_zero:
        return ExponentValue(Fraction(n * n - (n + 1) // 2), "det-bound", "det=0")
    return ExponentValue(Fraction(n * n - (n + 2) // 2), "det-bound", "det!=0")


def det_zero_family_exponent(n: int) -> ExponentValue:
    """Growth of the explicit det = 0 family; meets det-bound at n = 2, 3."""
    if n < 2:
        raise ValueError("need n >= 2")
    return ExponentValue(Fraction(n * n - n + 1), "det-zero-family", "det=0")


def charpoly2_bound(det_is_zero: bool, trace_is_zero: bool) -> ExponentValue:
    """Exponent for the full 2x2 characteristic polynomial T^2 - t T + d."""
    if det_is_zero and trace_is_zero:
        return ExponentValue(Fraction(2), "charpoly2", "d=t=0")
    if det_is_zero or trace_is_zero:
        return ExponentValue(Fraction(1), "charpoly2", "dt=0, not both")
    return ExponentValue(Fraction(0), "charpoly2", "dt!=0")


def charpoly_general_exponent(n: int) -> int:
    """Dimension-only exponent for a prescribed characteristic polynomial:
    n(n-1)/2 + max(floor((n-1)/2) + floor(n(n-1)/4),
                   floor(n/2) + floor(n(n-1)/4 - 1/2))."""
    if n < 3:
        raise ValueError("defined for n >= 3; use charpoly2_bound for n = 2")
    quarter = Fraction(n * (n - 1), 4)
    first = (n - 1) // 2 + math.floor(quarter)
    second = n // 2 + math.floor(quarter - Fraction(1, 2))
    return n * (n - 1) // 2 + max(first, second)


def charpoly_refined_base(n: int) -> Fraction:
    """Base exponent 3n^2/4 - n/4 of the coefficient-refined bounds."""
    if n < 3:
        raise ValueError("need n >= 3")
    return Fraction(3 * n * n - n, 4)


def charpoly_refined_saving(n: int, c1_zero: bool, c2_zero: bool) -> Fraction:
    """Saving subtracted from the refined base, keyed on whether the top two
    non-monic coefficients (c1 = coefficient of T^(n-1), c2 of T^(n-2))
    vanish.  c2_zero is ignored when c1 is nonzero."""
    if n < 3:
        raise ValueError("need n >= 3")
    mod = n % 4
    if c1_zero and c2_zero:
        if n == 5:
            return Fraction(1, 2)
        return {0: Fraction(1), 1: Fraction(3, 2), 2: Fraction(1, 2), 3: Fraction(1)}[mod]
    if c1_zero:
        return {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(1)}[mod]
    return {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(3, 2), 3: Fraction(1)}[mod]


def _coefficient_regime(c1_zero: bool, c2_zero: bool) -> str:
    if c1_zero and c2_zero:
        return "c1=0,c2=0"
    if c1_zero:
        return "c1=0,c2!=0"
    return "c1!=0"


def charpoly_refined_exponent(n: int, c1_zero: bool, c2_zero: bool) -> ExponentValue:
    value = charpoly_refined_base(n) - charpoly_refined_saving(n, c1_zero, c2_zero)
    return ExponentValue(value, "charpoly-refined", _coefficient_regime(c1_zero, c2_zero))


def charpoly_real_refined_exponent(
    n: int,
    *,
    c1_zero: bool,
    c2_zero: bool,
    twice_c2_equals_c1: bool,
) -> ExponentValue | None:
    """Sharper exponent available when the elements are real and n is 0 or 1
    mod 4; None when no sharper real-case bound applies."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n % 4 not in (0, 1):
        return None
    base = charpoly_refined_base(n)
    if not c1_zero and twice_c2_equals_c1:
        saving = Fraction(2) if n % 4 == 0 else Fraction(3, 2)
        return ExponentValue(base - saving, "charpoly-real", "c1!=0, 2c2=c1, real")
    if c1_zero and c2_zero and n == 5:
        return ExponentValue(base - Fraction(3, 2), "charpoly-real", "c1=c2=0, n=5, real")
    return None


def equation_exponent(n: int, homogeneous: bool) -> ExponentValue:
    """Exponent for counting solutions of an n-variable linear equation."""
    if n < 1:
        raise ValueError("need n >= 1")
    if homogeneous:
        return ExponentValue(Fraction(n // 2), "equation-homogeneous", "rhs=0")
    return ExponentValue(Fraction((n - 1) // 2), "equation-inhomogeneous", "rhs!=0")


def system_exponent(n: int) -> tuple[int, int]:
    """Growth exponent of the zero-sum, zero-square-sum system.

    Value is max over k in 0..n//2 of min((n+k)//3, (n-k)//2), which equals
    floor(2n/5); the returned k is n//5 when that attains the maximum,
    otherwise the smallest attaining k.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    best = -1
    best_k = 0
    for k in range(n // 2 + 1):
        value = min((n + k) // 3, (n - k) // 2)
        if value > best:
            best = value
            best_k = k
    preferred = n // 5
    if min((n + preferred) // 3, (n - preferred) // 2) == best:
        best_k = preferred
    return best, best_k


def system_bound_exponent(n: int) -> ExponentValue:
    """Exponent floor(2n/5) for the zero-sum, zero-square-sum system."""
    value, _ = system_exponent(n)
    return ExponentValue(Fraction(value), "system-sum-squares", "sum=sumsq=0")


def nondegenerate_cap_log10(n: int, group_rank: int) -> Decimal:
    """log10 of the uniform cap (8n)^(4 n^4 (n + rank + 1)) on the number of
    non-degenerate solutions, to 30 significant digits."""
    if n < 1 or group_rank < 0:
        raise ValueError("need n >= 1 and group_rank >= 0")
    exponent = 4 * n**4 * (n + group_rank + 1)
    with localcontext() as ctx:
        ctx.prec = 40
        raw = Decimal(exponent) * Decimal(8 * n).log10()
    with localcontext() as ctx:
        ctx.prec = 30
        return +raw


def bound_table(kind: str, **params) -> list[ExponentValue]:
    """Every applicable exponent for the kind, least first: row 0 is the
    bound a growth statistic compares its slope with, and the CLI prints
    all rows.  A charpoly reads `c0_zero`, whether its constant term
    vanishes, at n = 2 only."""
    if kind == "rank":
        # An m x n matrix and its n x m transpose share the bound, which
        # reads the narrow side as m and the wide side as n.
        m, n, r = params["m"], params["n"], params["r"]
        if not 1 <= r <= min(m, n):
            raise ValueError(f"rank {r} impossible for a {m}x{n} matrix")
        n, m = max(m, n), min(m, n)
        bound = rank_exponent(n, m, r)
        return [bound, ExponentValue(n * r + m * r - r * r, "rank-trivial", "any r")]
    if kind == "det":
        n = params["n"]
        rows = [det_exponent(n, params["target_is_zero"])]
        if params["target_is_zero"] and n >= 2:
            rows.append(det_zero_family_exponent(n))
        rows.append(ExponentValue(n * n - 1, "det-trivial", "any target"))
        return rows
    if kind == "charpoly":
        n = params["n"]
        if n < 2:
            raise ValueError("need n >= 2")
        if n == 2:
            return [charpoly2_bound(params["c0_zero"], params["c1_zero"])]
        c1_zero, c2_zero = params["c1_zero"], params["c2_zero"]
        refined = charpoly_refined_exponent(n, c1_zero, c2_zero)
        general = ExponentValue(charpoly_general_exponent(n), "charpoly-general", "any coefficients")
        candidates = [refined, general]
        if params["field_real"]:
            sharper = charpoly_real_refined_exponent(
                n,
                c1_zero=c1_zero,
                c2_zero=c2_zero,
                twice_c2_equals_c1=params.get("twice_c2_equals_c1", False),
            )
            if sharper is not None:
                candidates.insert(0, sharper)
        # min keeps the first of equal values: a tie goes to the real, then
        # the refined bound.  The table lists the rest after it.
        best = min(candidates, key=lambda row: row.value)
        rest = [row for row in (refined, general) if row is not best]
        return [best, *rest, ExponentValue(n * n - 2, "charpoly-trivial", "any polynomial")]
    if kind == "equation":
        return [equation_exponent(params["n"], params["homogeneous"])]
    if kind == "system":
        return [system_bound_exponent(params["n"])]
    raise ValueError(f"unknown bound kind {kind!r}")
