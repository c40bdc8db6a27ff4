"""Exact arithmetic over real quadratic fields and 2x2 matrices over them,
and the embedding of the quaternion algebra of ``quat`` into them.

Everything in this module is computed over Z, Q or Q(sqrt(d)) with d a
squarefree integer >= 2.  There are no floats anywhere: coefficients are
``fractions.Fraction`` and every comparison (including the sign of an
irrational number) is decided by exact rational case analysis.

Values from different fields never mix silently.  Binary operations on
``QuadExt`` elements with different ``d`` raise ``MismatchedField``;
plain integers and ``Fraction`` values embed into any field.

The algebra with i*i = 2 and j*j = 13 splits over Q(sqrt(2)): ``phi`` maps

    x0 + x1*i + x2*j + x3*k  |->  [ x0 + x1*r2     x2 + x3*r2   ]
                                  [ 13*(x2-x3*r2)  x0 - x1*r2   ]

with r2 = sqrt(2), and ``phi_inverse`` pulls a matrix back.  The number
rule (``RationalLike``, ``_as_fraction``: an exact rational is an int or a
Fraction), the quaternions and prime factoring come from ``quat``, the
layer below this one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import compress
from math import gcd, isqrt, prod

from .quat import J_SQUARE, Quaternion, RationalLike, _as_fraction, _prime_factors


class MismatchedField(ValueError):
    """Arithmetic attempted between elements of Q(sqrt(d)) for different d."""


class NotUnimodular(ValueError):
    """Matrix does not have determinant one."""


class SingularMatrix(ArithmeticError):
    """Matrix has determinant zero and cannot be inverted."""


class NotInImage(ValueError):
    """Matrix is not in the image of the quaternion embedding."""


def sign_of_rational(q) -> int:
    """Sign of an int or Fraction as -1, 0 or +1."""
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


# squarefree_part strips the squares of the primes below this bound, however
# large n is.
SQUAREFREE_TRIAL_BOUND = 1 << 16


@lru_cache(maxsize=None)
def _small_primes_product() -> int:
    """The product of the primes below SQUAREFREE_TRIAL_BOUND, a 94,027-bit
    number: a sieve, then a product tree.  Built once, on the first
    squarefree_part of a number at or above the bound squared; about 5 ms
    on a 2-core x86 host."""
    bound = SQUAREFREE_TRIAL_BOUND
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    level = list(compress(range(bound), sieve))
    while len(level) > 1:
        level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s**2 * D, stripping every square it can find; return (s, D).

    The squares of the primes below SQUAREFREE_TRIAL_BOUND are stripped,
    and a cofactor left above the bound is folded into s when it is itself
    a square.  D is therefore proven squarefree whenever
    |D| < SQUAREFREE_TRIAL_BOUND**3: the cofactor is then 1, a prime, or a
    product of two primes, whose square isqrt would show.  A larger D may
    keep the square of a prime above the bound.

    The small primes of n are those of g = gcd(n, product of the primes
    below the bound), found by trial division of g, so a long n is divided
    only by the few primes that divide it.  Below the bound squared, g is
    n itself, whose trial division stops at its square root before the
    bound; short numbers, such as the field parameters that QuadExt and
    Mat2 check, so never build the product.

    For n = 0 returns (0, 0).  The sign of n is carried by D.
    """
    if n == 0:
        return 0, 0
    sgn = 1 if n > 0 else -1
    n = abs(n)
    if n < SQUAREFREE_TRIAL_BOUND**2:
        g = n
    else:
        g = gcd(n, _small_primes_product())
    s, d = 1, 1
    for p in _prime_factors(g):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    r = isqrt(n)
    if r * r == n:
        s, n = s * r, 1
    return s, sgn * d * n


_SQUAREFREE_OK: set[int] = set()


def _check_field_param(d) -> int:
    """d as a plain int, once it is found to be a squarefree integer >= 2."""
    # the type is tested before the cache: 2.0 == 2 and hashes alike
    if type(d) is int and d in _SQUAREFREE_OK:
        return d
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"field parameter must be an integer >= 2, got {d!r}")
    d = int(d)
    if d >= SQUAREFREE_TRIAL_BOUND**3:
        raise ValueError(f"field parameter {d} is too large to prove squarefree")
    _, sf = squarefree_part(d)
    if sf != d:
        raise ValueError(f"field parameter must be squarefree, got {d}")
    _SQUAREFREE_OK.add(d)
    return d


def _power(x, n, one, inverse):
    """x**n by square and multiply; a negative n powers inverse(x)."""
    if not isinstance(n, int):
        return NotImplemented
    if n < 0:
        x, n = inverse(x), -n
    result = one
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


@total_ordering
class QuadExt:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Instances are immutable by convention.  ``a`` and ``b`` are Fractions,
    ``d`` is a fixed squarefree integer >= 2 shared by both operands of any
    binary operation.  The order relation is the order inherited from R,
    decided exactly.
    """

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a=0, b=0):
        self.d = _check_field_param(d)
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)

    @classmethod
    def _raw(cls, d: int, a: Fraction, b: Fraction) -> "QuadExt":
        new = object.__new__(cls)
        new.d = d
        new.a = a
        new.b = b
        return new

    @classmethod
    def rational(cls, d: int, value) -> "QuadExt":
        """Embed a rational value into Q(sqrt(d))."""
        return cls(d, value, 0)

    @classmethod
    def sqrt_d(cls, d: int) -> "QuadExt":
        """The element sqrt(d) itself."""
        return cls(d, 0, 1)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise MismatchedField(
                    f"cannot combine Q(sqrt({self.d})) with Q(sqrt({other.d}))"
                )
            return other
        if isinstance(other, RationalLike):
            return QuadExt._raw(self.d, Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt._raw(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt._raw(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt._raw(self.d, o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt._raw(
            self.d,
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __neg__(self):
        return QuadExt._raw(self.d, -self.a, -self.b)

    def __pow__(self, n: int):
        one = QuadExt._raw(self.d, Fraction(1), Fraction(0))
        return _power(self, n, one, QuadExt.inv)

    def conj(self) -> "QuadExt":
        """Galois conjugate a - b*sqrt(d)."""
        return QuadExt._raw(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a**2 - d*b**2 (a rational number)."""
        return self.a * self.a - self.d * self.b * self.b

    def inv(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadExt._raw(self.d, self.a / n, -self.b / n)

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(d), decided exactly.

        When a and b disagree in sign the comparison reduces to a**2
        versus d*b**2, which is a rational comparison.
        """
        sa, sb = sign_of_rational(self.a), sign_of_rational(self.b)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # a and b have opposite signs: |a| vs |b|*sqrt(d)
        cmp = sign_of_rational(self.a * self.a - self.d * self.b * self.b)
        return sa if cmp > 0 else (sb if cmp < 0 else 0)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return self.a == other.a and self.b == other.b
            # distinct fields intersect in Q
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, RationalLike):
            return self.b == 0 and self.a == other
        # a rational quaternion is its x0, as it is to a Fraction; Python
        # reaches here from Quaternion.__eq__ returning NotImplemented
        if isinstance(other, Quaternion):
            rational = other.x1 == other.x2 == other.x3 == 0
            return rational and self.b == 0 and self.a == other.x0
        return NotImplemented

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self):
        # d deliberately excluded: equal rationals in different fields
        # must hash alike, and alike with the Fraction they equal.
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"QuadExt({self.d}, {self.a!r}, {self.b!r})"

    def __str__(self):
        return render_quadext(self)


def render_quadext(x: QuadExt) -> str:
    """Render as ``a + b*sqrt(d)`` with rationals printed as ``p/q``."""
    if x.b == 0:
        return str(x.a)
    if x.b > 0:
        bpart = f"{x.b}*sqrt({x.d})" if x.b != 1 else f"sqrt({x.d})"
        return f"{x.a} + {bpart}" if x.a != 0 else bpart
    babs = -x.b
    bpart = f"{babs}*sqrt({x.d})" if babs != 1 else f"sqrt({x.d})"
    return f"{x.a} - {bpart}" if x.a != 0 else f"-{bpart}"


class Mat2:
    """A 2x2 matrix with entries in a single field Q(sqrt(d)).

    Immutable by convention.  Entries are QuadExt instances sharing the
    same field parameter; ints and Fractions in the constructor embed.
    """

    __slots__ = ("d", "m11", "m12", "m21", "m22")

    def __init__(self, d: int, m11, m12, m21, m22):
        self.d = d = _check_field_param(d)
        entries = [
            v if isinstance(v, QuadExt) else QuadExt(d, v) for v in (m11, m12, m21, m22)
        ]
        for v in entries:
            if v.d != d:
                raise MismatchedField(
                    f"entry in Q(sqrt({v.d})) inside a matrix over Q(sqrt({d}))"
                )
        self.m11, self.m12, self.m21, self.m22 = entries

    @classmethod
    def _raw(cls, d, m11, m12, m21, m22) -> "Mat2":
        new = object.__new__(cls)
        new.d = d
        new.m11, new.m12, new.m21, new.m22 = m11, m12, m21, m22
        return new

    @classmethod
    def identity(cls, d: int) -> "Mat2":
        one = QuadExt(d, 1)
        zero = QuadExt(d, 0)
        return cls._raw(d, one, zero, zero, one)

    def entries(self) -> tuple[QuadExt, QuadExt, QuadExt, QuadExt]:
        return (self.m11, self.m12, self.m21, self.m22)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        if other.d != self.d:
            raise MismatchedField("matrix product across different fields")
        return Mat2._raw(
            self.d,
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def __neg__(self):
        return Mat2._raw(self.d, -self.m11, -self.m12, -self.m21, -self.m22)

    def det(self) -> QuadExt:
        return self.m11 * self.m22 - self.m12 * self.m21

    def trace(self) -> QuadExt:
        return self.m11 + self.m22

    def inverse(self) -> "Mat2":
        dt = self.det()
        if not dt:
            raise SingularMatrix("determinant is zero")
        inv_dt = dt.inv()
        return Mat2._raw(
            self.d,
            self.m22 * inv_dt,
            -self.m12 * inv_dt,
            -self.m21 * inv_dt,
            self.m11 * inv_dt,
        )

    def __pow__(self, n: int):
        return _power(self, n, Mat2.identity(self.d), Mat2.inverse)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (
            self.m11 == other.m11
            and self.m12 == other.m12
            and self.m21 == other.m21
            and self.m22 == other.m22
        )

    def __hash__(self):
        return hash((self.m11, self.m12, self.m21, self.m22))

    def is_identity(self) -> bool:
        return self == Mat2.identity(self.d)

    def __repr__(self):
        return (
            f"Mat2({self.d}, [{render_quadext(self.m11)}, {render_quadext(self.m12)}; "
            f"{render_quadext(self.m21)}, {render_quadext(self.m22)}])"
        )


class ProjMat:
    """An element of PSL2 over Q(sqrt(d)): a determinant-one matrix up to sign.

    The stored representative is canonical: the sign is flipped, if needed,
    so that the first nonzero entry in row-major order is positive.  Two
    ProjMat instances are equal exactly when they name the same PSL2
    element, so they can be used as dict keys.
    """

    __slots__ = ("rep",)

    def __init__(self, m: Mat2):
        dt = m.det()
        if not (dt.is_rational and dt.a == 1):
            raise NotUnimodular(f"determinant {render_quadext(dt)} != 1")
        self.rep = _sign_normalize(m)

    @classmethod
    def _from_normalized(cls, m: Mat2) -> "ProjMat":
        new = object.__new__(cls)
        new.rep = m
        return new

    @property
    def d(self) -> int:
        return self.rep.d

    def __mul__(self, other):
        if not isinstance(other, ProjMat):
            return NotImplemented
        return ProjMat._from_normalized(_sign_normalize(self.rep * other.rep))

    def inverse(self) -> "ProjMat":
        m = self.rep
        # adjugate; det == 1 so no division is needed
        inv = Mat2._raw(m.d, m.m22, -m.m12, -m.m21, m.m11)
        return ProjMat._from_normalized(_sign_normalize(inv))

    def __pow__(self, n: int):
        return _power(self, n, ProjMat.identity(self.d), ProjMat.inverse)

    @classmethod
    def identity(cls, d: int) -> "ProjMat":
        return cls._from_normalized(Mat2.identity(d))

    def is_identity(self) -> bool:
        return self.rep.is_identity()

    def trace(self) -> QuadExt:
        """Trace of the canonical representative (defined up to sign in PSL2)."""
        return self.rep.trace()

    def __eq__(self, other):
        if not isinstance(other, ProjMat):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return f"ProjMat({self.rep!r})"


def _sign_normalize(m: Mat2) -> Mat2:
    for entry in (m.m11, m.m12, m.m21, m.m22):
        s = entry.sign()
        if s < 0:
            return -m
        if s > 0:
            return m
    return m


def phi(q: Quaternion) -> Mat2:
    """Embed into 2x2 matrices over Q(sqrt(2))."""
    d = 2
    return Mat2._raw(
        d,
        QuadExt(d, q.x0, q.x1),
        QuadExt(d, q.x2, q.x3),
        QuadExt(d, J_SQUARE * q.x2, -J_SQUARE * q.x3),
        QuadExt(d, q.x0, -q.x1),
    )


def phi_inverse(m: Mat2) -> Quaternion:
    """Pull a matrix back along the embedding, or raise NotInImage.

    A matrix is in the image iff m22 is the conjugate of m11 and
    m21 = 13 * conj(m12).
    """
    if m.d != 2:
        raise NotInImage(f"matrix lives over Q(sqrt({m.d})), not Q(sqrt(2))")
    m11, m12, m21, m22 = m.m11, m.m12, m.m21, m.m22
    if (
        m22.a != m11.a
        or m22.b != -m11.b
        or m21.a != J_SQUARE * m12.a
        or m21.b != -J_SQUARE * m12.b
    ):
        raise NotInImage("matrix entries do not satisfy the image constraints")
    return Quaternion._raw(m11.a, m11.b, m12.a, m12.b)
