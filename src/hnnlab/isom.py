"""Classification of PSL2 isometries of the hyperbolic plane, with exact
translation length data for the hyperbolic ones.

The trichotomy (elliptic / parabolic / hyperbolic) is decided by comparing
trace squared against 4 using exact signs.  Finite order of an elliptic
element is read off its trace: an elliptic element of finite order has
trace 2*cos(pi*p/q), and when that number has degree at most 2 over Q it
is one of 0, +-1, +-sqrt(2), +-sqrt(3), (+-1+-sqrt(5))/2 (Niven, Irrational
Numbers, 1956), whose PSL2 orders are 2, 3, 4, 6 and 5.  Every trace here
lies in a quadratic field, so any other elliptic trace certifies infinite
order.

Translation lengths tau = 2*log(lambda) are never converted to floats;
they are carried multiplicatively by the eigenvalue

    lambda = (|tr| + sqrt(tr^2 - 4)) / 2,

an exact element of a real quadratic field.  Rational dependence of two
lengths (p*tau_1 = q*tau_2) is equivalent to lambda_1^p = lambda_2^q,
which is decidable exactly.  Two multipliers lie in one field exactly
when the product of their field parameters is a square, so that test
needs no factoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm

from .exact import ProjMat, QuadExt, squarefree_part


class NotHyperbolic(ValueError):
    """Translation length requested for a non-hyperbolic element."""


@dataclass(frozen=True)
class TransLength:
    """Translation length 2*log(lambda) with lambda = rational_part +
    surd_coeff*sqrt(field_param).

    field_param == 1 means lambda is rational (then surd_coeff is folded
    into rational_part and kept at zero).  Otherwise field_param comes from
    exact.squarefree_part of tr**2 - 4 and has no square factor p**2 with
    p below exact.SQUAREFREE_TRIAL_BOUND (2**16).  It is proven
    squarefree when it is below SQUAREFREE_TRIAL_BOUND**3 (2**48); a
    larger one may keep the square of a prime above 2**16 and then only
    labels the field for display.  No verdict needs it squarefree:
    length_ratio_independent compares fields by whether the product of
    the two field parameters is a square.
    """

    rational_part: Fraction
    surd_coeff: Fraction
    field_param: int

    def multiplier(self) -> QuadExt | Fraction:
        """The eigenvalue lambda as an exact number."""
        if self.field_param == 1:
            return self.rational_part
        # _raw: a field_param that is not proven squarefree is kept as given
        return QuadExt._raw(self.field_param, self.rational_part, self.surd_coeff)

    def multiplier_str(self) -> str:
        return str(self.multiplier())


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class EllipticFinite:
    order: int


@dataclass(frozen=True)
class EllipticInfinite:
    pass


@dataclass(frozen=True)
class Parabolic:
    pass


@dataclass(frozen=True)
class Hyperbolic:
    # None when the trace is irrational: the multiplier then lives in a
    # degree-four field, outside the scope of this toolkit.
    length: TransLength | None


IsometryClass = Identity | EllipticFinite | EllipticInfinite | Parabolic | Hyperbolic

_HALF = Fraction(1, 2)

# |trace| -> PSL2 order for every elliptic trace of finite order and degree
# at most 2 over Q.  Matched with ==: QuadExt hashes apart from Fraction.
_FINITE_ORDERS = (
    (Fraction(0), 2),
    (Fraction(1), 3),
    (QuadExt.sqrt_d(2), 4),
    (QuadExt.sqrt_d(3), 6),
    (QuadExt(5, _HALF, _HALF), 5),
    (QuadExt(5, -_HALF, _HALF), 5),
)


def classify(m: ProjMat) -> IsometryClass:
    """Classify a PSL2 element as an isometry of the hyperbolic plane."""
    tr = m.trace()
    disc = tr * tr - 4
    s = disc.sign()
    if s == 0:
        return Identity() if m.is_identity() else Parabolic()
    if s > 0:
        if not tr.is_rational:
            return Hyperbolic(None)
        return Hyperbolic(_length_from_rational_trace(abs(tr.a)))
    abs_tr = tr if tr.sign() >= 0 else -tr
    for value, order in _FINITE_ORDERS:
        if abs_tr == value:
            return EllipticFinite(order)
    return EllipticInfinite()


def _length_from_rational_trace(abs_trace: Fraction) -> TransLength:
    # with |tr| = p/q, sqrt(tr**2 - 4) = sqrt(p**2 - 4*q**2) / q
    p, q = abs_trace.numerator, abs_trace.denominator
    s, d = squarefree_part(p * p - 4 * q * q)
    coeff = Fraction(s, q)
    if d == 1:
        return TransLength((abs_trace + coeff) / 2, Fraction(0), 1)
    return TransLength(abs_trace / 2, coeff / 2, d)


def translation_length(m: ProjMat) -> TransLength:
    """Exact multiplicative translation length of a hyperbolic element.

    Raises NotHyperbolic for non-hyperbolic input and ValueError when the
    trace is irrational (multiplier of degree four, out of scope).
    """
    result = classify(m)
    if not isinstance(result, Hyperbolic):
        raise NotHyperbolic(f"element is {type(result).__name__}, not hyperbolic")
    if result.length is None:
        raise ValueError("irrational trace: multiplier leaves the quadratic scope")
    return result.length


@dataclass(frozen=True)
class Dependent:
    """p * tau_1 = q * tau_2 established exactly."""

    p: int
    q: int


@dataclass(frozen=True)
class IndependentUpTo:
    """No relation p*tau_1 = q*tau_2 with p, q <= bound; nothing is claimed
    beyond the scanned range."""

    bound: int


@dataclass(frozen=True)
class IndependentCertified:
    """No relation for any p, q >= 1.

    The certificate: the two multipliers lie in distinct quadratic fields
    (the product of their field parameters is not a square), or one is
    rational and the other irrational.  For an irrational multiplier
    r + s*sqrt(D) of a hyperbolic element, r > 1 and s > 0 (checked), so
    by the product recurrence every power has a strictly positive and
    strictly increasing sqrt(D)-coefficient; no power is ever rational,
    and Q(sqrt(D1)) meets Q(sqrt(D2)) in Q only.
    """

    bound: int


DependenceVerdict = Dependent | IndependentUpTo | IndependentCertified


# Equal powers are congruent modulo any prime, so residues modulo this
# Mersenne prime screen the pairs of a scan; each match is confirmed with
# exact integers before it is reported.
_SCREEN_PRIME = (1 << 61) - 1


def _powers(l: TransLength, modulus: int | None = None):
    """Yield (a_n, b_n, c_n) with lambda**n = (a_n + b_n*sqrt(D)) / c_n for
    n = 1, 2, ..., reduced modulo modulus when one is given.

    Integers with no gcd: reducing Fractions is what costs most once the
    powers of a long word's multiplier run to 10**5 digits.
    """
    r, s, d = l.rational_part, l.surd_coeff, l.field_param
    c = lcm(r.denominator, s.denominator)
    a, b = r.numerator * (c // r.denominator), s.numerator * (c // s.denominator)
    if modulus:
        a, b, c, d = a % modulus, b % modulus, c % modulus, d % modulus
    db = d * b
    an, bn, cn = a, b, c
    while True:
        yield an, bn, cn
        an, bn, cn = a * an + db * bn, a * bn + b * an, c * cn
        if modulus:
            an, bn, cn = an % modulus, bn % modulus, cn % modulus


def _cross_diff(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int]:
    """(0, 0) exactly when x and y have equal rational parts and equal surd
    coefficients."""
    (ax, bx, cx), (ay, by, cy) = x, y
    return ax * cy - ay * cx, bx * cy - by * cx


def _nth_power(l: TransLength, n: int) -> tuple[int, int, int]:
    return next(islice(_powers(l), n - 1, None))


def length_ratio_independent(
    l1: TransLength, l2: TransLength, bound: int
) -> DependenceVerdict:
    """Decide whether p*tau_1 = q*tau_2 for some 1 <= p, q <= bound.

    Returns the minimal Dependent(p, q) (ordered by p+q, then p) when a
    relation exists in range.  When the multipliers lie in different fields
    the independence is certified for all powers, not just the scanned
    range; when they share a field and no relation is found, only the
    scanned range is vouched for.  Q(sqrt(D1)) = Q(sqrt(D2)) exactly when
    D1*D2 is a square, which holds whether or not D1 and D2 are squarefree.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    d1, d2 = l1.field_param, l2.field_param
    root = isqrt(d1 * d2)
    if root * root == d1 * d2:
        # sqrt(d2) = root/d1 * sqrt(d1): write lambda_2 over d1
        l2 = TransLength(l2.rational_part, l2.surd_coeff * root / d1, d1)
        res1 = list(islice(_powers(l1, _SCREEN_PRIME), bound))
        res2 = list(islice(_powers(l2, _SCREEN_PRIME), bound))
        for total in range(2, 2 * bound + 1):
            for p in range(max(1, total - bound), min(bound, total - 1) + 1):
                q = total - p
                ra, rb = _cross_diff(res1[p - 1], res2[q - 1])
                if (
                    ra % _SCREEN_PRIME == rb % _SCREEN_PRIME == 0
                    and _cross_diff(_nth_power(l1, p), _nth_power(l2, q)) == (0, 0)
                ):
                    return Dependent(p, q)
        return IndependentUpTo(bound)
    for l in (l1, l2):
        if l.field_param != 1 and not (l.rational_part > 1 and l.surd_coeff > 0):
            raise ValueError("multiplier is not a hyperbolic eigenvalue")
    return IndependentCertified(bound)
