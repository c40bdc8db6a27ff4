"""The built-in lattice: an arithmetic genus-2 surface group extended by an
infinite-order elliptic conjugator, presented as an HNN extension.

The vertex group is the unit group of a maximal order in the rational
quaternion algebra with i^2 = 2, j^2 = 13 (a cocompact genus-2 Fuchsian
group on generators a, b, c, d).  The stable letter t conjugates an
index-12 subgroup H = <u1..u26> onto an index-12 subgroup K = <v1..v26>:

    t * u_i * t^-1 = v_i.

Every question about the extension but one (see below) is answered along
two independent routes and cross-checked: exact arithmetic in the
quaternion algebra on one side, decorated coset tables over the one-relator
surface presentation on the other.  A disagreement raises
OracleDisagreement instead of guessing.

The arithmetic route starts from the five generators as norm-one
quaternions with rational coordinates (quat.standard_generators), multiplies
a word out one product per letter, and decides on that product.  Verdicts
on a whole word (is_trivial, verify_presentation, the start-up relator
check) and evaluate() fold primitive integer 4-vectors up to sign: a, b, c
and d scaled by 2, t by 3, so a letter costs integer products and one gcd.
A word that Britton reduction leaves t-free is trivial when it folds to
+-1.  Membership folds the t-free word to an exact norm-one quaternion
with Fraction coordinates: it lies in H or K when the SubgroupOracles find
it a unit of the matching Eichler order.  The map G -> PSL(2, R) is not
injective, so a word whose stable letters survive Britton reduction is not
trivial by Britton's lemma alone, whatever it folds to.  Only evaluate()
embeds the product into PSL2 over Q(sqrt(2)) (exact.phi), as an exact,
sign-normalized ProjMat, after dividing the vector by the square root of
its reduced norm; the images property embeds the generators the same way
for callers that want matrices.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .comb import (
    CapExceeded,
    CosetTable,
    Presentation,
    Word,
    _as_word,
    dehn_reduce,
    evaluate_word,
    free_reduce,
    invert_word,
    render_word,
    schreier_graph_arith,
    todd_coxeter,
)
from .quat import (
    I_SQUARE,
    J_SQUARE,
    QUAT_ONE,
    Quaternion,
    SubgroupOracles,
    _cleared,
    standard_generators,
    standard_oracles,
)


class OracleDisagreement(RuntimeError):
    """The two routes returned different answers: the quaternion fold
    against a coset table (membership) or against Dehn's algorithm (the
    word problem)."""


SURFACE_RELATOR = "AdcbCaBD"

# (u_i, v_i) with t * u_i * t^-1 = v_i; words over a, b, c, d
STABLE_PAIRS = (
    ("DaacBC", "d"),
    ("DaacAd", "aaC"),
    ("DaacbDAd", "acB"),
    ("DadCDadcAAd", "babA"),
    ("DadCAd", "bbC"),
    ("DadbCaBCdbAcAcBC", "bdCB"),
    ("bbCAAd", "cbDA"),
    ("DDaaDAd", "ccc"),
    ("DaBDad", "cdC"),
    ("DadcbbAAdcDAd", "AbCB"),
    ("DadcbADAd", "Acb"),
    ("DaadcDAd", "AdB"),
    ("DadcBCAdAAd", "BaBA"),
    ("DadcBBAAd", "BcbA"),
    ("DadcBCbAAd", "BdbA"),
    ("DaddbAcBBCDAd", "Caa"),
    ("DadAAdbADAd", "Cbb"),
    ("DaaDaCabCAAd", "abaDA"),
    ("DaaDcBBCDAd", "abba"),
    ("DaaDaBBBCDAd", "abca"),
    ("DaaDaCBCDAd", "abda"),
    ("DaacBAdbAdbAcAcBC", "adaCB"),
    ("DaacBBCDaaDAd", "adbc"),
    ("DaaCdbADAd", "aBab"),
    ("DadCDacBAcBC", "bcaB"),
    ("DadCDaDadbAd", "bcbAC"),
)

AMBIENT_ALPHABET = "abcdt"
T_LETTER = AMBIENT_ALPHABET.index("t") + 1

# the cosets either edge enumeration may define: the built-in tables define
# 71 and 34, while a subgroup of infinite index (no pairs at all, say) would
# run to Todd-Coxeter's default cap of 10^6 (seconds and hundreds of MB)
EDGE_COSET_CAP = 10_000


class BrittonForm(namedtuple("BrittonForm", "segments exponents")):
    """word = segments[0] * t^exponents[0] * segments[1] * ... ; segments are
    t-free and freely reduced, and no pinch t*g*t^-1 (g in H) or t^-1*g*t
    (g in K) remains."""

    __slots__ = ()

    @property
    def t_count(self) -> int:
        return len(self.exponents)

    def to_word(self) -> Word:
        out = list(self.segments[0])
        for e, seg in zip(self.exponents, self.segments[1:]):
            out.append(T_LETTER if e > 0 else -T_LETTER)
            out.extend(seg)
        return free_reduce(out)

    def render(self) -> str:
        return render_word(self.to_word(), AMBIENT_ALPHABET, "compact")


RelationCheck = namedtuple("RelationCheck", "index relator holds")


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "relations pair_memberships_ok source_index target_index"
        " mutants_detected mutants_total",
    )
):
    """VerificationReport(relations, pair_memberships_ok, source_index, target_index,
    mutants_detected, mutants_total): a RelationCheck per relator, the stable pairs'
    membership in H x K, the indices of H and K, and the mutant relators caught."""

    __slots__ = ()

    @property
    def all_hold(self) -> bool:
        return (
            all(r.holds for r in self.relations)
            and self.pair_memberships_ok
            and self.mutants_detected == self.mutants_total
        )


class HnnGroup:
    """The HNN extension with its quaternion model and decorated tables.

    Built from its defining data: the vertex presentation, the stable pairs
    (u_i, v_i) as text, the generators and the edge oracles.  Each pair is
    parsed once; the ambient presentation (the vertex relators, then
    t * u_i * t^-1 * v_i^-1 in pair order) and the tables of H = <u1..>
    and K = <v1..> are derived from those words.  The generators are the
    norm-one quaternions of a, b, c, d and t; anything else, and pairs
    whose H or K enumeration defines more than EDGE_COSET_CAP cosets, raises
    ValueError here, not in the middle of a query.
    """

    def __init__(
        self, vertex: Presentation, pairs, generators, oracles: SubgroupOracles
    ):
        if vertex.generators != tuple(AMBIENT_ALPHABET[:-1]):
            raise ValueError(f"vertex alphabet {vertex.generators} is not a, b, c, d")
        self.vertex = vertex
        self.pairs = tuple(pairs)
        self.generators = tuple(generators)
        if len(self.generators) != len(AMBIENT_ALPHABET):
            raise ValueError(f"{len(self.generators)} generators for a, b, c, d, t")
        for q in self.generators:
            if not (isinstance(q, Quaternion) and q.nrd() == 1):
                raise ValueError(f"generator {q!r} is not a norm-one Quaternion")
        self._units = _fold_table(self.generators)
        self._vectors = _vector_table(self.generators)
        self.oracles = oracles
        words = tuple((vertex.parse(u), vertex.parse(v)) for u, v in self.pairs)
        self._pair_words = words
        self.ambient = Presentation(
            AMBIENT_ALPHABET,
            vertex.relators
            + tuple((T_LETTER,) + u + (-T_LETTER,) + invert_word(v) for u, v in words),
        )
        tables = []
        sides = (("H", "u", [u for u, _ in words]), ("K", "v", [v for _, v in words]))
        for side, letter, gens in sides:
            names = [f"{letter}{i}" for i in range(1, len(words) + 1)]
            try:
                tables.append(
                    todd_coxeter(vertex, gens, cap=EDGE_COSET_CAP, subgroup_names=names)
                )
            except CapExceeded:
                raise ValueError(
                    f"the {side} enumeration defined more than {EDGE_COSET_CAP}"
                    " cosets: the stable pairs' words must generate a subgroup"
                    " of finite index"
                ) from None
        self.source_table, self.target_table = tables

    @property
    def images(self) -> tuple[ProjMat, ...]:
        """The generators embedded into PSL2 over Q(sqrt(2)), on each read."""
        from .exact import ProjMat, phi

        return tuple(ProjMat(phi(q)) for q in self.generators)

    # -- words and matrices ------------------------------------------------

    def as_word(self, w) -> Word:
        return _as_word(w, self.ambient.generators)

    def evaluate(self, w) -> ProjMat:
        from .exact import ProjMat, phi

        v = _vector_fold(self.as_word(w), self._vectors)
        # v is s times a norm-one quaternion, for a positive integer s
        n = v.nrd()
        s = isqrt(max(n, 0))
        if not s or s * s != n:
            raise RuntimeError(f"the fold {v!r} has reduced norm {n}, not a square")
        return ProjMat(phi(Quaternion(*(Fraction(x, s) for x in v.coords()))))

    # -- dual membership oracles --------------------------------------------

    def _dual_membership(self, g, table: CosetTable, member) -> bool:
        g = _as_word(g, self.vertex.generators)
        by_matrix = member(_fold(g, self._units))
        by_table = table.follow(0, g) == 0
        if by_matrix != by_table:
            raise OracleDisagreement(
                f"membership of {self.vertex.render(g)}: matrices say "
                f"{by_matrix}, coset table says {by_table}"
            )
        return by_matrix

    def in_source_subgroup(self, g) -> bool:
        """Is the t-free word in H = <u1..u26>?  Both routes must agree."""
        return self._dual_membership(
            g, self.source_table, self.oracles.in_source_subgroup
        )

    def in_target_subgroup(self, g) -> bool:
        """Is the t-free word in K = <v1..v26>?  Both routes must agree."""
        return self._dual_membership(
            g, self.target_table, self.oracles.in_target_subgroup
        )

    # -- the defining isomorphism H -> K -------------------------------------

    def conjugate_into_target(self, g) -> Word:
        """t * g * t^-1 as a word over a..d, for g in H.

        The u-letter rewriting of g is reinterpreted over the v-letters:
        the defining isomorphism matches them up index by index.
        """
        sub = self.source_table.rewrite(_as_word(g, self.vertex.generators))
        return self.target_table.expand_subgroup_word(sub)

    def conjugate_into_source(self, g) -> Word:
        """t^-1 * g * t as a word over a..d, for g in K."""
        sub = self.target_table.rewrite(_as_word(g, self.vertex.generators))
        return self.source_table.expand_subgroup_word(sub)

    # -- Britton reduction ----------------------------------------------------

    def britton_reduce(self, w) -> BrittonForm:
        """Remove pinches t*g*t^-1 (g in H) and t^-1*g*t (g in K) in one
        left-to-right pass over a stack of segments and t-exponents.

        A pinch is tested once, when its closing stable letter arrives, so
        the pinch removed is always the leftmost one in the word and a word
        with k stable letters makes at most k - 1 membership queries.
        """
        segs: list[Word] = []
        exps: list[int] = []
        seg: list[int] = []
        for g in free_reduce(self.as_word(w)):
            if abs(g) != T_LETTER:
                if seg and seg[-1] == -g:
                    seg.pop()
                else:
                    seg.append(g)
                continue
            e = 1 if g > 0 else -1
            if exps and exps[-1] == -e:
                member, conjugate = (
                    (self.in_source_subgroup, self.conjugate_into_target)
                    if e < 0
                    else (self.in_target_subgroup, self.conjugate_into_source)
                )
                if member(seg):
                    exps.pop()
                    seg = list(free_reduce(segs.pop(), conjugate(seg)))
                    continue
            segs.append(tuple(seg))
            exps.append(e)
            seg = []
        segs.append(tuple(seg))
        return BrittonForm(tuple(segs), tuple(exps))

    # -- word problem -----------------------------------------------------------

    def is_trivial(self, w) -> bool:
        """Word problem: Britton's lemma, then two routes that must agree.

        A reduced form with surviving stable letters is never trivial
        (Britton's lemma), whatever the quaternion fold says: the map
        G -> PSL(2, R) has a kernel, and a word in it folds to +-1.  This
        verdict has one route, though both membership routes agreed on
        every pinch Britton reduction refused.  A t-free remainder is
        decided by Dehn's algorithm in the one-relator vertex presentation
        and by the fold, which is injective on the vertex group.
        """
        word = free_reduce(self.as_word(w))
        by_matrix = _is_one(_vector_fold(word, self._vectors))
        form = self.britton_reduce(word)
        if form.exponents:
            return False
        by_comb = dehn_reduce(form.segments[0], self.vertex) == ()
        if by_comb != by_matrix:
            raise OracleDisagreement(
                f"word problem: matrices say {by_matrix}, Dehn says {by_comb}"
            )
        return by_comb

    # -- the tree -----------------------------------------------------------------

    def tree_neighbors(self) -> tuple[Word, ...]:
        """Words moving the base vertex to each of its neighbors.

        One neighbor s*t per coset of K (the forward direction) and one
        neighbor s*t^-1 per coset of H, so the valence is 12 + 12 = 24.
        s*t and s'*t reach the same vertex exactly when s^-1*s' lies in K,
        so s must run over left coset representatives: the inverses of the
        table's right coset representatives.
        """
        forward = [
            invert_word(r) + (T_LETTER,) for r in self.target_table.representatives
        ]
        backward = [
            invert_word(r) + (-T_LETTER,) for r in self.source_table.representatives
        ]
        return tuple(forward + backward)

    def tree_distance(self, w, other=None) -> int:
        """Distance in the tree between the vertices reached by two words
        (the base vertex when other is omitted): the number of stable
        letters surviving Britton reduction."""
        word = self.as_word(w)
        if other is not None:
            word = free_reduce(invert_word(word), self.as_word(other))
        return self.britton_reduce(word).t_count

    def same_vertex(self, w1, w2) -> bool:
        return self.tree_distance(w1, w2) == 0

    # -- presentation checks -----------------------------------------------------

    def verify_presentation(self) -> VerificationReport:
        checks = []
        for idx, r in enumerate(self.ambient.relators, start=1):
            checks.append(
                RelationCheck(
                    index=idx,
                    relator=self.ambient.render(r, "compact"),
                    holds=_is_one(_vector_fold(r, self._vectors)),
                )
            )
        memberships = True
        for u, v in self._pair_words:
            if not (self.in_source_subgroup(u) and self.in_target_subgroup(v)):
                memberships = False
        detected = 0
        for r in self.ambient.relators:
            mutant = free_reduce(r + (1,))
            if not _is_one(_vector_fold(mutant, self._vectors)):
                detected += 1
        return VerificationReport(
            relations=tuple(checks),
            pair_memberships_ok=memberships,
            source_index=self.source_table.index,
            target_index=self.target_table.index,
            mutants_detected=detected,
            mutants_total=len(self.ambient.relators),
        )

    def schreier_graph(self, side: str):
        """The coset action recomputed purely arithmetically, for comparison
        with the decorated tables (same breadth-first numbering)."""
        if side == "source":
            member = self.oracles.in_source_subgroup
        elif side == "target":
            member = self.oracles.in_target_subgroup
        else:
            raise ValueError("side must be 'source' or 'target'")
        return schreier_graph_arith(member, self.generators[:4], QUAT_ONE)


def _fold_table(units) -> list:
    """The letters' norm-one quaternions: the n generators, then their
    conjugates (their inverses) in reverse order."""
    return list(units) + [q.conj() for q in reversed(units)]


def _fold(word: Word, units) -> Quaternion:
    """The value of a word, multiplied out over a _fold_table: a norm-one
    quaternion, defined up to sign as an element of PSL2.

    Inverse letters are renumbered past the n generators, so every letter
    reads its quaternion from the table: -k becomes 2n + 1 - k.  A product
    of quaternions costs about half of a product of matrices over
    Q(sqrt(2)) and needs no sign normalization.
    """
    top = len(units) + 1
    letters = [g if g > 0 else top + g for g in word]
    return evaluate_word(letters, units, QUAT_ONE)


def _vector_table(units) -> list:
    """The letters of a _fold_table as primitive integer 4-vectors in the
    basis 1, i, j, k (each quaternion cleared of its denominators), indexed
    by the letter itself: entry g is generator g, and entry -g, which is
    entry 2n + 1 - g of the list, is its conjugate.  An entry is
    (nrd, x0, x1, x2, x3, a*x1, b*x2, a*b*x3, b*x3, a*x3) with i^2 = a and
    j^2 = b: the vector's reduced norm, its coordinates, and the multiples
    that _vector_fold needs."""
    a, b = I_SQUARE, J_SQUARE
    vectors = [_cleared(q)[1] for q in units]
    rows = [None]
    for v in vectors + [v.conj() for v in reversed(vectors)]:
        x0, x1, x2, x3 = v.coords()
        multiples = (a * x1, b * x2, a * b * x3, b * x3, a * x3)
        rows.append((v.nrd(), x0, x1, x2, x3) + multiples)
    return rows


def _vector_fold(word: Word, vectors) -> Quaternion:
    """The value of a word, multiplied out over a _vector_table: a
    primitive integer multiple of the norm-one product, taken up to sign.

    A letter costs 16 integer products and one gcd division, against about
    35 Fraction operations, each with its own gcd, for _fold.  The content
    of x*y divides nrd(y) when x is primitive (x*y*conj(y) = nrd(y)*x), so
    the gcd starts from the letter's small norm and stays linear in the
    size of the coordinates.
    """
    x0, x1, x2, x3 = 1, 0, 0, 0
    for g in word:
        n, y0, y1, y2, y3, i1, j2, k3, j3, i3 = vectors[g]
        x0, x1, x2, x3 = (
            x0 * y0 + x1 * i1 + x2 * j2 - x3 * k3,
            x0 * y1 + x1 * y0 - x2 * j3 + x3 * j2,
            x0 * y2 + x2 * y0 + x1 * i3 - x3 * i1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )
        d = gcd(n, x0, x1, x2, x3)
        if d != 1:
            x0, x1, x2, x3 = x0 // d, x1 // d, x2 // d, x3 // d
    return Quaternion._raw(x0, x1, x2, x3)


def _is_one(q: Quaternion) -> bool:
    """Is q, a nonzero multiple of a norm-one quaternion, equal to +-1, the
    identity of PSL2?"""
    return not (q.x1 or q.x2 or q.x3)


@lru_cache(maxsize=1)
def load_builtin_group() -> HnnGroup:
    """Construct the built-in group and run its startup self-checks."""
    gens = standard_generators()
    group = HnnGroup(
        vertex=Presentation("abcd", [SURFACE_RELATOR]),
        pairs=STABLE_PAIRS,
        generators=[gens[n] for n in AMBIENT_ALPHABET],
        oracles=standard_oracles(),
    )
    source, target = group.source_table.index, group.target_table.index
    if source != 12 or target != 12:
        raise RuntimeError(f"subgroup indices {source}, {target} != 12")
    for r in group.ambient.relators:
        if not _is_one(_vector_fold(r, group._vectors)):
            raise RuntimeError(
                f"defining relation fails in the matrix model: "
                f"{group.ambient.render(r, 'compact')}"
            )
    return group
