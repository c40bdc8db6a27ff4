"""The rational quaternion algebra with i*i = 2 and j*j = 13, its orders,
and the orders of the lattice's vertex and edge groups.

The algebra is fixed once and for all: basis 1, i, j, k with

    i*i = 2,   j*j = 13,   k = i*j = -j*i,   k*k = -26.

Orders are rank-4 lattices kept as integer rows in Hermite normal form
over one denominator; ring closure, conjugation, intersection and the
trace form determinant of a basis all run on integer 4-vectors.  Reduced
discriminants and Hilbert symbols give two independent routes to the
ramification data.  Membership in the lattice's edge groups is decided on
quaternions alone.

This module is the bottom layer and imports no other part of the package.
It holds the package's number rule (``RationalLike`` and ``_as_fraction``:
an exact rational is an int or a Fraction), its one integer row
reduction, ``_hnf_integer_rows``, and prime factoring by trial division,
``_prime_factors``, which the Hilbert symbols use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import gcd, isqrt, lcm, prod

I_SQUARE = 2
J_SQUARE = 13

# The number rule of the package: an exact rational is an int or a Fraction.
RationalLike = (int, Fraction)


def _as_fraction(x) -> Fraction:
    """x as a Fraction: an int (bools and IntEnums count as their values) or a
    Fraction.  Anything else (float, str, Decimal) raises TypeError."""
    if not isinstance(x, RationalLike):
        raise TypeError(f"not an exact rational: {x!r}")
    return x if type(x) is Fraction else Fraction(x)


class NotFullRank(ValueError):
    """Generators span a lattice of rank less than four."""


class Quaternion:
    """Element x0 + x1*i + x2*j + x3*k of the fixed algebra (2,13) over Q."""

    __slots__ = ("x0", "x1", "x2", "x3")

    def __init__(self, x0=0, x1=0, x2=0, x3=0):
        self.x0, self.x1, self.x2, self.x3 = map(_as_fraction, (x0, x1, x2, x3))

    @classmethod
    def _raw(cls, x0, x1, x2, x3) -> "Quaternion":
        new = object.__new__(cls)
        new.x0, new.x1, new.x2, new.x3 = x0, x1, x2, x3
        return new

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x0, self.x1, self.x2, self.x3)

    def __add__(self, other):
        o = _as_quaternion(other)
        if o is None:
            return NotImplemented
        return Quaternion._raw(
            self.x0 + o.x0, self.x1 + o.x1, self.x2 + o.x2, self.x3 + o.x3
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_quaternion(other)
        if o is None:
            return NotImplemented
        return Quaternion._raw(
            self.x0 - o.x0, self.x1 - o.x1, self.x2 - o.x2, self.x3 - o.x3
        )

    def __rsub__(self, other):
        o = _as_quaternion(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _as_quaternion(other)
        if o is None:
            return NotImplemented
        # the int constants multiply from the right, so that a Fraction
        # coordinate takes Fraction.__mul__'s forward path, not __rmul__'s
        # numbers.Rational check
        a, b, ab = I_SQUARE, J_SQUARE, I_SQUARE * J_SQUARE
        x0, x1, x2, x3 = self.x0, self.x1, self.x2, self.x3
        y0, y1, y2, y3 = o.x0, o.x1, o.x2, o.x3
        return Quaternion._raw(
            x0 * y0 + x1 * y1 * a + x2 * y2 * b - x3 * y3 * ab,
            x0 * y1 + x1 * y0 + (x3 * y2 - x2 * y3) * b,
            x0 * y2 + x2 * y0 + (x1 * y3 - x3 * y1) * a,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def __rmul__(self, other):
        o = _as_quaternion(other)
        if o is None:
            return NotImplemented
        return o * self

    def __neg__(self):
        return Quaternion._raw(-self.x0, -self.x1, -self.x2, -self.x3)

    def conj(self) -> "Quaternion":
        """Standard involution: trd(q) - q."""
        return Quaternion._raw(self.x0, -self.x1, -self.x2, -self.x3)

    def inverse(self) -> "Quaternion":
        """conj(q) / nrd(q); ZeroDivisionError when nrd(q) = 0."""
        n = Fraction(self.nrd())
        return Quaternion._raw(self.x0 / n, -self.x1 / n, -self.x2 / n, -self.x3 / n)

    def trd(self) -> Fraction:
        """Reduced trace 2*x0."""
        return 2 * self.x0

    def nrd(self) -> Fraction:
        """Reduced norm x0^2 - 2*x1^2 - 13*x2^2 + 26*x3^2."""
        a, b = I_SQUARE, J_SQUARE
        return (
            self.x0 * self.x0
            - a * self.x1 * self.x1
            - b * self.x2 * self.x2
            + a * b * self.x3 * self.x3
        )

    def __eq__(self, other):
        o = _as_quaternion(other)
        if o is None:
            return NotImplemented
        return self.coords() == o.coords()

    def __hash__(self):
        # a rational quaternion hashes as the Fraction it equals
        if self.x1 == self.x2 == self.x3 == 0:
            return hash(self.x0)
        return hash(self.coords())

    def __bool__(self):
        return any(self.coords())

    def __repr__(self):
        return f"Quaternion({self.x0}, {self.x1}, {self.x2}, {self.x3})"


def _as_quaternion(x):
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, RationalLike):
        return Quaternion._raw(Fraction(x), Fraction(0), Fraction(0), Fraction(0))
    return None


QUAT_ONE = Quaternion(1)
QUAT_I = Quaternion(0, 1)
QUAT_J = Quaternion(0, 0, 1)
QUAT_K = Quaternion(0, 0, 0, 1)


# ---------------------------------------------------------------------------
# Exact lattice linear algebra: integer rows over one denominator.


def _hnf_integer_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of an integer matrix.

    Returns the nonzero rows: row echelon, positive pivots, entries above
    each pivot reduced into [0, pivot).  Row operations are unimodular, so
    the row lattice is preserved.
    """
    mat = [row[:] for row in rows]
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            done = True
            for i in range(r + 1, len(mat)):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if r < len(mat) and mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
            r += 1
    return mat[:r]


def _integer_rows(rows) -> tuple[int, list[list[int]]]:
    """(den, integer rows) with the rational rows equal to rows / den, for
    the least such den."""
    rows = [[_as_fraction(x) for x in row] for row in rows]
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def hnf_rational_rows(
    rows: list[tuple[Fraction, ...]],
) -> list[tuple[Fraction, ...]]:
    """Hermite normal form basis of the Z-lattice spanned by rational rows."""
    den, int_rows = _integer_rows(rows)
    return [tuple(Fraction(x, den) for x in row) for row in _hnf_integer_rows(int_rows)]


def solve_in_rows(
    rows: list[tuple[Fraction, ...]], target: tuple[Fraction, ...]
) -> tuple[Fraction, ...] | None:
    """Solve x . rows = target exactly over Q, or return None if unsolvable.

    The rows must be linearly independent (at most 4 of them); that is the
    case for every lattice basis handled here.
    """
    m = len(rows)
    # augmented system A x = target with A[j][i] = rows[i][j]
    aug = [[rows[i][j] for i in range(m)] + [target[j]] for j in range(4)]
    pivot_of_col = [-1] * m
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, 4) if aug[i][c] != 0), None)
        if pivot is None:
            raise ValueError("rows are linearly dependent")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(4):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_of_col[c] = r
        r += 1
    for i in range(r, 4):
        if aug[i][m] != 0:
            return None
    return tuple(aug[pivot_of_col[c]][m] for c in range(m))


def _cleared(q: Quaternion) -> tuple[int, Quaternion]:
    """(s, s*q) with s the least positive integer making s*q integral; the
    multiple has int coordinates, so products of multiples stay in Z."""
    x0, x1, x2, x3 = q.x0, q.x1, q.x2, q.x3
    s = lcm(x0.denominator, x1.denominator, x2.denominator, x3.denominator)
    return s, Quaternion._raw(
        x0.numerator * (s // x0.denominator),
        x1.numerator * (s // x1.denominator),
        x2.numerator * (s // x2.denominator),
        x3.numerator * (s // x3.denominator),
    )


class OrderLattice:
    """A rank-4 lattice in the algebra, spanned by integer rows over one
    denominator: rows[i] / den, the rows in Hermite normal form and den
    the least that makes them integral.

    The inverse of the basis matrix is kept the same way, as integer
    columns over one denominator, so membership is four integer dot
    products and four divisibility tests.  Construction, ring closure,
    conjugation, intersection and the discriminant all run on integer
    4-vectors.  When ``validate`` is set the order axioms are checked: the
    lattice contains 1, is closed under multiplication, and its basis
    elements have integral reduced trace and norm.
    """

    __slots__ = ("_den", "_rows", "_columns", "_denominator")

    def __init__(self, basis_rows, validate: bool = True):
        self._build(*_integer_rows(basis_rows), validate)

    @classmethod
    def _over(cls, den: int, rows, validate: bool = True) -> "OrderLattice":
        """The lattice spanned by the integer rows divided by den."""
        new = object.__new__(cls)
        new._build(den, rows, validate)
        return new

    def _build(self, den: int, rows, validate: bool) -> None:
        hnf = _hnf_integer_rows(rows)
        if len(hnf) != 4:
            raise NotFullRank(f"lattice rank {len(hnf)} < 4")
        g = gcd(den, *chain.from_iterable(hnf))
        self._den = den = den // g
        self._rows = rows = tuple(tuple(x // g for x in row) for row in hnf)
        # adj = det * R^-1 is integral, so back substitution on the upper
        # triangular R divides exactly; the basis R / den has inverse
        # den * adj / det, kept over its least common denominator
        det = prod(row[i] for i, row in enumerate(rows))
        adj = [[0] * 4 for _ in range(4)]
        for j in range(4):
            adj[j][j] = det // rows[j][j]
            for i in range(j - 1, -1, -1):
                acc = sum(rows[i][k] * adj[k][j] for k in range(i + 1, j + 1))
                adj[i][j] = -acc // rows[i][i]
        g = gcd(det, *(den * x for row in adj for x in row))
        self._denominator = det // g
        self._columns = tuple(
            tuple(den * adj[r][c] // g for r in range(4)) for c in range(4)
        )
        if validate:
            self._validate()

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The Hermite normal form basis as rational rows."""
        den = self._den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self._rows)

    def _validate(self) -> None:
        """The order axioms: 1 in the lattice, basis elements with integral
        trd and nrd, closure under multiplication."""
        if not self._integral(1, 1, 0, 0, 0):
            raise ValueError("lattice does not contain 1")
        den = self._den
        for e in self._rows:
            if 2 * e[0] % den or Quaternion._raw(*e).nrd() % (den * den):
                raise ValueError("basis element with non-integral trd or nrd")
        if self._products_outside():
            raise ValueError("lattice is not closed under multiplication")

    def _products_outside(self) -> list[tuple[int, int, int, int]]:
        """The products e * f of basis rows that leave the lattice, as
        integer vectors over den^2."""
        square = self._den * self._den
        elems = [Quaternion._raw(*row) for row in self._rows]
        products = ((e * f).coords() for e in elems for f in elems)
        return [p for p in products if not self._integral(square, *p)]

    def _trace_integral(self) -> bool:
        """Do the basis elements have integral trd and nrd, and every
        product e * f of two of them integral trd?"""
        den = self._den
        square = den * den
        elems = [Quaternion._raw(*row) for row in self._rows]
        return not any(
            2 * e.x0 % den or e.nrd() % square for e in elems
        ) and not any(2 * (e * f).x0 % square for e in elems for f in elems)

    def contains(self, q: Quaternion) -> bool:
        den, v = _cleared(q)
        return self._integral(den, *v.coords())

    def contains_unit(self, q: Quaternion) -> bool:
        """Is q a norm-one element of the lattice?"""
        # nrd(q) = nrd(s*q) / s^2, tested in integers
        s, v = _cleared(q)
        return v.nrd() == s * s and self._integral(s, *v.coords())

    def _integral(self, den: int, v0: int, v1: int, v2: int, v3: int) -> bool:
        """Does (v0 + v1*i + v2*j + v3*k) / den lie in the lattice?"""
        modulus = den * self._denominator
        for c0, c1, c2, c3 in self._columns:
            if (v0 * c0 + v1 * c1 + v2 * c2 + v3 * c3) % modulus:
                return False
        return True

    def intersect(self, other: "OrderLattice") -> "OrderLattice":
        """The intersection of two orders, as the dual of the sum of their
        dual lattices; validated as an order.  The dual lattice, {x : x . y
        in Z for all y in the lattice} under the coordinatewise dot product,
        is spanned by the columns of the inverse basis matrix."""
        den = lcm(self._denominator, other._denominator)
        dual_sum = OrderLattice._over(
            den,
            [
                [x * (den // lattice._denominator) for x in column]
                for lattice in (self, other)
                for column in lattice._columns
            ],
            validate=False,
        )
        return OrderLattice._over(dual_sum._denominator, dual_sum._columns)

    def conjugate(self, g: Quaternion) -> "OrderLattice":
        """The order g * L * g^-1 for an invertible g; validated as an order."""
        _, g = _cleared(g)
        g_bar = g.conj()
        rows = [(g * Quaternion._raw(*e) * g_bar).coords() for e in self._rows]
        return OrderLattice._over(self._den * abs(g.nrd()), rows)

    def reduced_discriminant(self) -> int:
        return _trace_form_discriminant(self._den, self._rows)

    def __eq__(self, other):
        if not isinstance(other, OrderLattice):
            return NotImplemented
        return self._den == other._den and self._rows == other._rows

    def __hash__(self):
        return hash((self._den, self._rows))

    def __repr__(self):
        return f"OrderLattice({[[str(x) for x in row] for row in self.basis]})"


def gram_reduced_discriminant(basis_rows) -> int:
    """sqrt(|det(trd(e_i * e_j))|) for a full-rank lattice basis.

    The Gram determinant of an order (or any lattice commensurable with
    one) has absolute value a perfect square; the square root is the
    reduced discriminant times the lattice index factor.
    """
    return _trace_form_discriminant(*_integer_rows(basis_rows))


def _trace_form_discriminant(den: int, rows) -> int:
    """gram_reduced_discriminant of the rows divided by den.  The Gram
    matrix is M / den^2 for the integer M = (trd(r_i * r_j)), so its
    determinant is det(M) / den^8, and |det(M)| is the product of the
    pivots of M's Hermite normal form."""
    elems = [Quaternion._raw(*row) for row in rows]
    gram = [[(e * f).trd() for f in elems] for e in elems]
    echelon = _hnf_integer_rows(gram)
    if len(echelon) < 4:
        raise NotFullRank("degenerate trace form")
    pivots = prod(row[i] for i, row in enumerate(echelon))
    n, rest = divmod(pivots, den**8)
    if rest:
        raise ValueError(
            f"trace form determinant {Fraction(pivots, den**8)} is not an integer"
        )
    root = isqrt(n)
    if root * root != n:
        raise ValueError(f"|det| = {n} is not a perfect square")
    return root


def ring_closure(gens) -> OrderLattice:
    """Smallest multiplication-closed lattice containing 1 and the generators.

    Iterates HNF saturation with pairwise basis products until stable.
    Raises NotFullRank if 1 and the generators do not already span a
    rank-4 lattice, and RuntimeError as soon as a round's lattice is not
    integral: a basis element with non-integral trd or nrd, or a basis
    pair e, f with non-integral trd(e * f).  Then the generated ring lies
    in no order.  Otherwise every round's lattice L lies in its trace dual
    {x : trd(x * L) in Z}, and as the lattices grow their duals shrink, so
    all of them lie in the dual of the first: a fixed lattice, in which an
    ascending chain ends.  So the loop ends without a round limit.
    """
    rows = [QUAT_ONE.coords()] + [q.coords() for q in gens]
    lattice = OrderLattice._over(*_integer_rows(rows), validate=False)
    while True:
        if not lattice._trace_integral():
            raise RuntimeError("ring closure is not integral; input generates no order")
        extra = lattice._products_outside()
        if not extra:
            # closure is what the loop just tested, integrality the round's check
            return lattice
        den = lattice._den
        rows = [[x * den for x in e] for e in lattice._rows] + extra
        lattice = OrderLattice._over(den * den, rows, validate=False)


# ---------------------------------------------------------------------------
# Hilbert symbols and ramification.


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, by trial division up to the square
    root of what is left."""
    n = abs(n)
    out = []
    for p in chain([2], count(3, 2)):
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.append(n)
    return out


def _p_part(n: int, p: int) -> tuple[int, int]:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def _legendre(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a, b, p: int | None) -> int:
    """Hilbert symbol (a, b)_p over Q_p, with p = None for the real place;
    any other p that is not an int prime raises ValueError.

    Follows the classical formulas: for odd p with a = p^alpha * u and
    b = p^beta * v (u, v units),

        (a,b)_p = (-1)^(alpha*beta*(p-1)/2) * (u|p)^beta * (v|p)^alpha,

    and for p = 2, with eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2,

        (a,b)_2 = (-1)^(eps(u)*eps(v) + alpha*omega(v) + beta*omega(u)).

    Rational arguments are cleared by squares first.
    """
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    if p is None:
        return -1 if (ai < 0 and bi < 0) else 1
    if not isinstance(p, int) or (p != 2 and _prime_factors(p) != [p]):
        raise ValueError(f"not a prime: {p!r}")
    # the units u and v keep the signs of a and b: % and // keep a unit's sign
    alpha, u = _p_part(ai, p)
    beta, v = _p_part(bi, p)
    if p == 2:
        eps_u = ((u - 1) // 2) % 2
        eps_v = ((v - 1) // 2) % 2
        omega_u = ((u * u - 1) // 8) % 2
        omega_v = ((v * v - 1) // 8) % 2
        exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if exponent % 2 else 1
    result = 1
    if (alpha * beta * (p - 1) // 2) % 2:
        result = -result
    if beta % 2:
        result *= _legendre(u, p)
    if alpha % 2:
        result *= _legendre(v, p)
    return result


def ramified_primes(a: int, b: int) -> list[int]:
    """Finite primes where the quaternion algebra (a, b) over Q ramifies.

    Only 2 and the primes dividing a or b can ramify, so the search is
    finite.  The real place is not included; query it directly with
    hilbert_symbol(a, b, None).
    """
    candidates = sorted(set([2] + _prime_factors(a) + _prime_factors(b)))
    return [p for p in candidates if hilbert_symbol(a, b, p) == -1]


# ---------------------------------------------------------------------------
# The standard generators and the orders of the vertex and edge groups.


def standard_generators() -> dict[str, Quaternion]:
    """The five norm-one quaternions generating the built-in group.

    a, b, c, d generate the unit group of the maximal order; t is the
    commensurating element whose image is an infinite order elliptic
    isometry.
    """
    F = Fraction
    return {
        "a": Quaternion(F(3, 2), F(3, 2), F(-1, 2), F(-1, 2)),
        "b": Quaternion(F(3, 2), F(-3, 2), F(-1, 2), F(1, 2)),
        "c": Quaternion(F(5, 2), F(1), F(-1, 2), F(0)),
        "d": Quaternion(F(7, 2), F(2), F(1, 2), F(0)),
        "t": Quaternion(F(1, 3), F(1), F(0), F(1, 3)),
    }


@lru_cache(maxsize=None)
def standard_order() -> OrderLattice:
    """Ring closure of 1 and the four vertex generators (a maximal order)."""
    g = standard_generators()
    return ring_closure([g["a"], g["b"], g["c"], g["d"]])


@lru_cache(maxsize=None)
def lipschitz_like_order() -> OrderLattice:
    """The obvious suborder Z[1, i, j, k], used as a discriminant control."""
    return ring_closure([QUAT_I, QUAT_J, QUAT_K])


class SubgroupOracles:
    """The maximal order O and the three orders the conjugator g builds
    from it (here g is t), each built once:

      * conjugate_order:  g O g^-1,
      * target_order:     the Eichler order O meet g O g^-1,
      * source_order:     the Eichler order O meet g^-1 O g.

    A subgroup is the norm-one units of its order: in_source_subgroup and
    in_target_subgroup decide membership of the quaternion a word folds to.
    Conjugation by g carries the source order onto the target order, which
    is exactly the relation realised by the stable letter.
    """

    def __init__(self, order: OrderLattice, conjugator: Quaternion):
        self.order = order
        self.conjugate_order = order.conjugate(conjugator)
        self.target_order = order.intersect(self.conjugate_order)
        # g^-1 (O meet g O g^-1) g = O meet g^-1 O g, and conj(g) is g^-1
        # up to a rational scalar
        self.source_order = self.target_order.conjugate(conjugator.conj())

    def in_target_subgroup(self, q: Quaternion) -> bool:
        return self.target_order.contains_unit(q)

    def in_source_subgroup(self, q: Quaternion) -> bool:
        return self.source_order.contains_unit(q)


@lru_cache(maxsize=None)
def standard_oracles() -> SubgroupOracles:
    return SubgroupOracles(standard_order(), standard_generators()["t"])
