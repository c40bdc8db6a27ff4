"""Exact computations in a surface-by-tree lattice.

The package builds one specific group three ways at once: as matrices over
a real quadratic field (through a quaternion algebra), as an HNN extension
of a genus-2 surface group with decorated coset tables for the edge
subgroups, and as a group acting on its dual tree.  Every structural claim
is checked in at least two of the three models.

Layers, bottom up:

  quat    the rational quaternion algebra, its orders, unit groups and
          Hilbert symbols; the number rule (an exact rational is an int or
          a Fraction) and the integer Hermite normal form
  exact   rational quadratic extensions, 2x2 matrices, PSL(2) classes, and
          phi/phi_inverse between quaternions and matrices
  isom    isometry classification and exact translation lengths
  comb    words, small cancellation, decorated coset enumeration, homology
  hnn     the built-in lattice with dual membership oracles
  biauto  windowed checks of automatic-structure axioms
  cli     the hnn-lab command line tool

Every import points down this list.  An import inside a function exists
only so that a cold start does not load a layer it does not use: loading
the lattice imports `quat`, `comb` and `hnn` only, and `exact` is imported
by the calls that build matrices.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names by the submodule that defines them.  A submodule is
# imported when one of its names is first read (PEP 562), so a caller pays
# only for the layers it uses: the lattice never loads `biauto` or `isom`,
# and the windowed checks load nothing but `biauto`.
_PUBLIC = {
    "biauto": (
        "BallOracle",
        "Fsa",
        "GroupModel",
        "OutOfWindow",
        "StructureReport",
        "UnknownLetter",
        "WindowedLanguage",
        "replay_fellow_witness",
    ),
    "comb": (
        "AbelianStructure",
        "CapExceeded",
        "CosetTable",
        "NotInSubgroup",
        "Presentation",
        "abelianization",
        "dehn_reduce",
        "genus_from_index",
        "parse_word",
        "render_word",
        "schreier_graph_arith",
        "smith_invariants",
        "todd_coxeter",
    ),
    "exact": (
        "Mat2",
        "MismatchedField",
        "NotUnimodular",
        "ProjMat",
        "QuadExt",
        "phi",
        "phi_inverse",
    ),
    "hnn": (
        "BrittonForm",
        "HnnGroup",
        "OracleDisagreement",
        "VerificationReport",
        "load_builtin_group",
    ),
    "isom": (
        "Dependent",
        "EllipticFinite",
        "EllipticInfinite",
        "Hyperbolic",
        "Identity",
        "IndependentCertified",
        "IndependentUpTo",
        "NotHyperbolic",
        "Parabolic",
        "TransLength",
        "classify",
        "length_ratio_independent",
        "translation_length",
    ),
    "quat": (
        "Quaternion",
        "ring_closure",
        "standard_generators",
        "standard_oracles",
        "standard_order",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:
        # importing a submodule also binds it here, so this runs once
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_PUBLIC})
