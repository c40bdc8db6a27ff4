"""The rational quaternion algebra with i*i = 2 and j*j = 13, its orders,
and the orders of the lattice's vertex and edge groups.

The algebra is fixed once and for all: basis 1, i, j, k with

    i*i = 2,   j*j = 13,   k = i*j = -j*i,   k*k = -26.

It embeds into 2x2 matrices over Q(sqrt(2)) by

    x0 + x1*i + x2*j + x3*k  |->  [ x0 + x1*r2     x2 + x3*r2   ]
                                  [ 13*(x2-x3*r2)  x0 - x1*r2   ]

with r2 = sqrt(2).  Orders are rank-4 lattices kept in Hermite normal
form; ring closure, reduced discriminants and Hilbert symbols give two
independent routes to the ramification data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .exact import Mat2, ProjMat, QuadExt

I_SQUARE = 2
J_SQUARE = 13


class NotInImage(ValueError):
    """Matrix is not in the image of the quaternion embedding."""


class NotFullRank(ValueError):
    """Generators span a lattice of rank less than four."""


class Quaternion:
    """Element x0 + x1*i + x2*j + x3*k of the fixed algebra (2,13) over Q."""

    __slots__ = ("x0", "x1", "x2", "x3")

    def __init__(self, x0=0, x1=0, x2=0, x3=0):
        self.x0 = x0 if type(x0) is Fraction else Fraction(x0)
        self.x1 = x1 if type(x1) is Fraction else Fraction(x1)
        self.x2 = x2 if type(x2) is Fraction else Fraction(x2)
        self.x3 = x3 if type(x3) is Fraction else Fraction(x3)

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
        a, b = I_SQUARE, J_SQUARE
        x0, x1, x2, x3 = self.x0, self.x1, self.x2, self.x3
        y0, y1, y2, y3 = o.x0, o.x1, o.x2, o.x3
        return Quaternion._raw(
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
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
        return hash(self.coords())

    def __bool__(self):
        return any(self.coords())

    def __repr__(self):
        return f"Quaternion({self.x0}, {self.x1}, {self.x2}, {self.x3})"


def _as_quaternion(x):
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, Fraction)):
        return Quaternion._raw(Fraction(x), Fraction(0), Fraction(0), Fraction(0))
    return None


QUAT_ONE = Quaternion(1)
QUAT_I = Quaternion(0, 1)
QUAT_J = Quaternion(0, 0, 1)
QUAT_K = Quaternion(0, 0, 0, 1)


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


# ---------------------------------------------------------------------------
# Exact lattice linear algebra (Hermite normal form over Q).


def _hnf_integer_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of an integer matrix with 4 columns.

    Returns the nonzero rows: row echelon, positive pivots, entries above
    each pivot reduced into [0, pivot).  Row operations are unimodular, so
    the row lattice is preserved.
    """
    mat = [row[:] for row in rows]
    ncols = 4
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
    return [row for row in mat[:r] if any(row)]


def hnf_rational_rows(
    rows: list[tuple[Fraction, ...]],
) -> list[tuple[Fraction, ...]]:
    """Hermite normal form basis of the Z-lattice spanned by rational rows."""
    den = lcm(*(x.denominator for row in rows for x in row))
    int_rows = [[int(x * den) for x in row] for row in rows]
    basis = _hnf_integer_rows(int_rows)
    return [tuple(Fraction(x, den) for x in row) for row in basis]


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
    """A rank-4 lattice in the algebra, stored as an HNF basis.

    The inverse of the basis matrix is computed once, as an integer matrix
    over one common denominator, so membership is four integer dot
    products and four divisibility tests.  When ``validate`` is set the
    order axioms are checked: the lattice contains 1, is closed under
    multiplication, and its basis elements have integral reduced trace
    and norm.
    """

    __slots__ = ("basis", "_columns", "_denominator")

    def __init__(self, basis_rows, validate: bool = True):
        rows = [tuple(Fraction(x) for x in row) for row in basis_rows]
        basis = hnf_rational_rows(rows)
        if len(basis) != 4:
            raise NotFullRank(f"lattice rank {len(basis)} < 4")
        self.basis = tuple(basis)
        inverse = _upper_triangular_inverse(basis)
        den = lcm(*(x.denominator for row in inverse for x in row))
        self._denominator = den
        self._columns = tuple(
            tuple(int(inverse[r][c] * den) for r in range(4)) for c in range(4)
        )
        if validate:
            self._validate()

    def _validate(self) -> None:
        self._validate_unit_and_basis()
        scaled = [_cleared(e) for e in self.basis_quaternions()]
        for s, e in scaled:
            for r, f in scaled:
                if not self._integral(s * r, *(e * f).coords()):
                    raise ValueError("lattice is not closed under multiplication")

    def _validate_unit_and_basis(self) -> None:
        """The order axioms other than closure under multiplication."""
        if not self.contains(QUAT_ONE):
            raise ValueError("lattice does not contain 1")
        for e in self.basis_quaternions():
            if e.trd().denominator != 1 or e.nrd().denominator != 1:
                raise ValueError("basis element with non-integral trd or nrd")

    def basis_quaternions(self) -> list[Quaternion]:
        return [Quaternion._raw(*row) for row in self.basis]

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

    def dual_basis(self) -> list[tuple[Fraction, ...]]:
        """Basis of {x : x . y in Z for all y in the lattice}, coordinatewise
        dot product: the columns of the inverse basis matrix."""
        den = self._denominator
        return [tuple(Fraction(x, den) for x in col) for col in self._columns]

    def intersect(self, other: "OrderLattice") -> "OrderLattice":
        """The intersection of two orders, as the dual of the sum of their
        dual lattices; validated as an order."""
        dual_sum = OrderLattice(
            self.dual_basis() + other.dual_basis(), validate=False
        )
        return OrderLattice(dual_sum.dual_basis())

    def conjugate(self, g: Quaternion) -> "OrderLattice":
        """The order g * L * g^-1 for an invertible g; validated as an order."""
        _, g = _cleared(g)
        g_bar, n = g.conj(), g.nrd()
        rows = []
        for s, e in map(_cleared, self.basis_quaternions()):
            rows.append(tuple(Fraction(x, s * n) for x in (g * e * g_bar).coords()))
        return OrderLattice(rows)

    def reduced_discriminant(self) -> int:
        return gram_reduced_discriminant(self.basis)

    def __eq__(self, other):
        if not isinstance(other, OrderLattice):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"OrderLattice({[[str(x) for x in row] for row in self.basis]})"


def _upper_triangular_inverse(rows) -> list[list[Fraction]]:
    """Inverse of a nonsingular upper triangular 4x4 matrix (an HNF basis),
    by back substitution."""
    inv = [[Fraction(0)] * 4 for _ in range(4)]
    for j in range(4):
        inv[j][j] = 1 / rows[j][j]
        for i in range(j - 1, -1, -1):
            acc = sum(rows[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = -acc / rows[i][i]
    return inv


def _det4(mat: list[list[Fraction]]) -> Fraction:
    """Determinant of a 4x4 rational matrix by cofactor expansion."""

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    total = Fraction(0)
    sign = 1
    for c in range(4):
        minor = [
            [mat[r][cc] for cc in range(4) if cc != c] for r in range(1, 4)
        ]
        total += sign * mat[0][c] * det3(minor)
        sign = -sign
    return total


def gram_reduced_discriminant(basis_rows) -> int:
    """sqrt(|det(trd(e_i * e_j))|) for a full-rank lattice basis.

    The Gram determinant of an order (or any lattice commensurable with
    one) has absolute value a perfect square; the square root is the
    reduced discriminant times the lattice index factor.
    """
    elems = [Quaternion._raw(*(Fraction(x) for x in row)) for row in basis_rows]
    gram = [[(e * f).trd() for f in elems] for e in elems]
    det = _det4(gram)
    if det == 0:
        raise NotFullRank("degenerate trace form")
    absdet = abs(det)
    if absdet.denominator != 1:
        raise ValueError(f"trace form determinant {absdet} is not an integer")
    n = absdet.numerator
    root = isqrt(n)
    if root * root != n:
        raise ValueError(f"|det| = {n} is not a perfect square")
    return root


def ring_closure(gens, max_rounds: int = 64) -> OrderLattice:
    """Smallest multiplication-closed lattice containing 1 and the generators.

    Iterates HNF saturation with pairwise basis products until stable.
    Raises NotFullRank if 1 and the generators do not already span a
    rank-4 lattice, and RuntimeError if saturation fails to stabilise
    (which happens when the generated ring is not contained in any order).
    """
    rows = [QUAT_ONE.coords()] + [q.coords() for q in gens]
    basis = hnf_rational_rows(rows)
    if len(basis) != 4:
        raise NotFullRank(f"generators span rank {len(basis)} < 4")
    for _ in range(max_rounds):
        elems = [Quaternion._raw(*row) for row in basis]
        lattice = OrderLattice(basis, validate=False)
        products = [e * f for e in elems for f in elems]
        extra = [p.coords() for p in products if not lattice.contains(p)]
        if not extra:
            # closure is what the loop just tested
            lattice._validate_unit_and_basis()
            return lattice
        basis = hnf_rational_rows(basis + extra)
        if len(basis) != 4:
            raise NotFullRank("saturation lost rank")
    raise RuntimeError("ring closure did not stabilise; input generates no order")


# ---------------------------------------------------------------------------
# Hilbert symbols and ramification.


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
    """Hilbert symbol (a, b)_p over Q_p, with p = None for the real place.

    Follows the classical formulas: for odd p with a = p^alpha * u and
    b = p^beta * v (u, v units),

        (a,b)_p = (-1)^(alpha*beta*(p-1)/2) * (u|p)^beta * (v|p)^alpha,

    and for p = 2, with eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2,

        (a,b)_2 = (-1)^(eps(u)*eps(v) + alpha*omega(v) + beta*omega(u)).

    Rational arguments are cleared by squares first.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    if p is None:
        return -1 if (ai < 0 and bi < 0) else 1
    if p == 2:
        alpha, u = _p_part(abs(ai), 2)
        beta, v = _p_part(abs(bi), 2)
        u *= 1 if ai > 0 else -1
        v *= 1 if bi > 0 else -1
        eps_u = ((u - 1) // 2) % 2
        eps_v = ((v - 1) // 2) % 2
        omega_u = ((u * u - 1) // 8) % 2
        omega_v = ((v * v - 1) // 8) % 2
        exponent = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if exponent % 2 else 1
    if p < 2 or not _is_prime(p):
        raise ValueError(f"not a prime: {p}")
    alpha, u = _p_part(abs(ai), p)
    beta, v = _p_part(abs(bi), p)
    u *= 1 if ai > 0 else -1
    v *= 1 if bi > 0 else -1
    result = 1
    if (alpha * beta * (p - 1) // 2) % 2:
        result = -result
    if beta % 2:
        result *= _legendre(u, p)
    if alpha % 2:
        result *= _legendre(v, p)
    return result


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for p in [2] + list(range(3, isqrt(n) + 2, 2)):
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.append(n)
    return out


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

    A subgroup is the norm-one units of its order, which
    OrderLattice.contains_unit decides for the quaternion HnnGroup folds.
    Conjugation by g carries the source order onto the target order, which
    is exactly the relation realised by the stable letter.
    """

    def __init__(self, order: OrderLattice, conjugator: Quaternion):
        self.order = order
        self.conjugate_order = order.conjugate(conjugator)
        self.target_order = order.intersect(self.conjugate_order)
        self.source_order = order.intersect(order.conjugate(conjugator.conj()))

    # Kept only because bench/spans.py patches the two methods below by name;
    # they go once its tracer reads contains_unit instead.
    @staticmethod
    def _in_units(m: ProjMat, lattice: OrderLattice) -> bool:
        try:
            q = phi_inverse(m.rep)
        except NotInImage:
            return False
        return lattice.contains_unit(q)

    def in_target_subgroup(self, m: ProjMat) -> bool:
        return self._in_units(m, self.target_order)

    def in_source_subgroup(self, m: ProjMat) -> bool:
        return self._in_units(m, self.source_order)


@lru_cache(maxsize=None)
def standard_oracles() -> SubgroupOracles:
    return SubgroupOracles(standard_order(), standard_generators()["t"])
