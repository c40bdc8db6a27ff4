"""Command line interface.

Every subcommand works on the built-in lattice (the genus-2 surface group
HNN-extended inside PSL(2, R) x Aut(T24)) except ``fsa-check``, which runs
the windowed automatic-structure checks on a named or user-supplied
language.

Exit codes: 0 when the requested check passes (or the command is purely
informational), 1 when a check fails, 2 on usage errors, 3 when the two
independent routes disagree (OracleDisagreement).  All numeric
output is exact except decimal translation lengths, which are display-only
renderings of exact surds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from decimal import Decimal, localcontext
from importlib import import_module
from typing import TYPE_CHECKING

# each command imports the layers it uses: a cold `fsa-check` loads only
# `biauto`, the lattice's commands never load `biauto`, and only `classify`
# and `lengths` load `isom`
from . import comb

if TYPE_CHECKING:
    from . import isom
    from .exact import QuadExt


def __getattr__(name: str):
    # the layers imported per command stay readable as attributes of this
    # module (`cli.biauto`), each loaded on first read (PEP 562)
    if name in ("biauto", "hnn", "isom"):
        return import_module(f"{__package__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

DISPLAY_DIGITS = 50
# fsa-check cost grows about as radius^3 on the built-in languages: at this
# radius one check takes 0.4-1.0 s and under 40 MB on a 2-core x86 host
_FSA_RADIUS_LIMIT = 64
# a user automaton is bounded by its window, not its radius: these admit
# every built-in language at radius 64 (16385 prefixes, 208025 pairs) and
# refuse the all-words automaton from radius 6 on (60 million pairs)
_FSA_PREFIX_LIMIT = 20_000
_FSA_PAIRS_LIMIT = 250_000
# the same-field ratio scan of `lengths` grows as bound^2: under 1 s at
# this bound on a 2-core x86 host
_LENGTHS_BOUND_LIMIT = 1024
# each random consequence costs about 6 ms: about 6 s at this count
_VERIFY_SAMPLES_LIMIT = 1000
# Each letter multiplies |trace| by at most 16.2 (the largest singular value
# of a generator, b's) and its denominator by at most 3 (the largest entry
# denominator, t's), so tr^2 - 4, and with it a field parameter printed by
# classify/lengths, gains under 3.4 digits a letter.  Python's default
# limit on int <-> str conversion is 4300 digits.
_INT_DIGITS_LIMIT = 4 * comb.WORD_LETTER_LIMIT
# a reader of --json output may keep that default, so a field parameter
# with more digits is printed as a decimal string
_JSON_INT_DIGITS = 4300


def _check_limit(what: str, value: int, limit: int) -> None:
    """Refuse, with exit 2, a run whose size is over its limit."""
    if value > limit:
        raise ValueError(f"{what} {value} is above the limit {limit}")


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_group():
    from . import hnn

    return hnn.load_builtin_group()


def _oracle_disagreement() -> type:
    from .hnn import OracleDisagreement

    return OracleDisagreement


def _decimal_length(trace: QuadExt) -> str:
    """2*log(lambda) for the hyperbolic multiplier, to 50 digits.

    Display only: verdicts never depend on this number.
    """
    with localcontext() as ctx:
        ctx.prec = DISPLAY_DIGITS + 15
        t = Decimal(trace.a.numerator) / Decimal(trace.a.denominator)
        if trace.b != 0:
            t += (
                Decimal(trace.b.numerator)
                / Decimal(trace.b.denominator)
                * Decimal(trace.d).sqrt()
            )
        t = abs(t)
        lam = (t + (t * t - 4).sqrt()) / 2
        length = 2 * lam.ln()
        ctx.prec = DISPLAY_DIGITS
        return str(+length)


def _render_letters(letters) -> str:
    if not letters:
        return "1"
    if all(len(x) == 1 for x in letters):
        return "".join(letters)
    return "*".join(letters)


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    _check_limit("--samples", args.samples, _VERIFY_SAMPLES_LIMIT)
    group = _load_group()
    report = group.verify_presentation()
    samples_ok = samples_total = 0
    if args.samples > 0:
        rng = random.Random(args.seed)
        letters = [i for i in range(1, group.ambient.ngens + 1)]
        letters += [-i for i in letters]
        for _ in range(args.samples):
            samples_total += 1
            rel = list(rng.choice(group.ambient.relators))
            cut = rng.randrange(len(rel))
            rel = rel[cut:] + rel[:cut]
            conj = [rng.choice(letters) for _ in range(rng.randrange(0, 7))]
            word = conj + rel + [-x for x in reversed(conj)]
            if group.is_trivial(tuple(word)):
                samples_ok += 1
    ok = report.all_hold and samples_ok == samples_total

    if args.json:
        _print_json(
            {
                "relations": [
                    {"index": rc.index, "relator": rc.relator, "holds": rc.holds}
                    for rc in report.relations
                ],
                "pair_memberships_ok": report.pair_memberships_ok,
                "source_index": report.source_index,
                "target_index": report.target_index,
                "mutants_detected": report.mutants_detected,
                "mutants_total": report.mutants_total,
                "samples_ok": samples_ok,
                "samples_total": samples_total,
                "ok": ok,
            }
        )
        return 0 if ok else 1

    for rc in report.relations:
        print(f"{'PASS' if rc.holds else 'FAIL'} relation {rc.index:02d}: {rc.relator}")
    word = "PASS" if report.pair_memberships_ok else "FAIL"
    print(f"{word} stable-letter pairs lie in the edge subgroups")
    print(f"INFO source edge subgroup has index {report.source_index}")
    print(f"INFO target edge subgroup has index {report.target_index}")
    word = "PASS" if report.mutants_detected == report.mutants_total else "FAIL"
    print(
        f"{word} mutant screen: {report.mutants_detected}/{report.mutants_total}"
        " corrupted relators rejected"
    )
    if samples_total:
        word = "PASS" if samples_ok == samples_total else "FAIL"
        print(
            f"{word} random consequences: {samples_ok}/{samples_total} trivial"
            f" (seed {args.seed})"
        )
    print("OK: group data verified" if ok else "FAIL: verification failed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# classify / lengths


def _classify_payload(group, text: str) -> tuple[dict, isom.IsometryClass]:
    from . import isom
    from .exact import render_quadext

    word = group.ambient.parse(text)
    m = group.evaluate(word)
    kind = isom.classify(m)
    payload = {
        "word": group.ambient.render(word) if word else "1",
        "trace": render_quadext(m.trace()),
        "type": None,
        "order": None,
        "length_exact": None,
        "length_field": None,
        "length_decimal": None,
    }
    if isinstance(kind, isom.Identity):
        payload["type"] = "identity"
        payload["order"] = 1
    elif isinstance(kind, isom.EllipticFinite):
        payload["type"] = "elliptic (finite order)"
        payload["order"] = kind.order
    elif isinstance(kind, isom.EllipticInfinite):
        payload["type"] = "elliptic (infinite order)"
    elif isinstance(kind, isom.Parabolic):
        payload["type"] = "parabolic"
    else:
        payload["type"] = "hyperbolic"
        payload["length_decimal"] = _decimal_length(m.trace())
        if kind.length is not None:
            payload["length_exact"] = f"2*log({kind.length.multiplier_str()})"
            field = kind.length.field_param
            if abs(field) >= 10**_JSON_INT_DIGITS:
                field = str(field)
            payload["length_field"] = field
    return payload, kind


def _cmd_classify(args) -> int:
    group = _load_group()
    payload, _ = _classify_payload(group, args.word)
    if args.json:
        _print_json(payload)
        return 0
    print(f"word:  {payload['word']}")
    print(f"trace: {payload['trace']}")
    print(f"type:  {payload['type']}")
    if payload["order"] is not None:
        print(f"order: {payload['order']}")
    if payload["length_exact"] is not None:
        print(f"translation length: {payload['length_exact']}")
    if payload["length_decimal"] is not None:
        print(f"  = {payload['length_decimal']} (display only)")
    return 0


def _dependence_payload(t1: isom.TransLength, t2: isom.TransLength, bound: int):
    from . import isom

    verdict = isom.length_ratio_independent(t1, t2, bound)
    if isinstance(verdict, isom.Dependent):
        return {"kind": "dependent", "p": verdict.p, "q": verdict.q}
    if isinstance(verdict, isom.IndependentCertified):
        return {"kind": "independent-certified", "bound": verdict.bound}
    return {"kind": "independent-up-to", "bound": verdict.bound}


def _cmd_lengths(args) -> int:
    from . import isom

    _check_limit("--bound", args.bound, _LENGTHS_BOUND_LIMIT)
    group = _load_group()
    texts = args.words or ["a", "b", "c", "d"]
    rows, kinds = zip(*(_classify_payload(group, t) for t in texts))
    comparison = None
    if len(rows) == 2:
        lengths = [
            k.length if isinstance(k, isom.Hyperbolic) else None for k in kinds
        ]
        if None not in lengths:
            comparison = _dependence_payload(lengths[0], lengths[1], args.bound)
    if args.json:
        _print_json({"elements": rows, "comparison": comparison})
        return 0
    for row in rows:
        if row["length_exact"] is not None:
            print(f"{row['word']}: {row['length_exact']}")
            print(f"   = {row['length_decimal']} (display only)")
        elif row["type"] == "hyperbolic":
            print(f"{row['word']}: hyperbolic, irrational trace {row['trace']}")
            print(f"   = {row['length_decimal']} (display only)")
        else:
            print(f"{row['word']}: {row['type']}, no translation length")
    if comparison is not None:
        if comparison["kind"] == "dependent":
            print(
                f"ratio check: {comparison['p']} * len({texts[0]}) = "
                f"{comparison['q']} * len({texts[1]})"
            )
        else:
            print(
                f"ratio check: {comparison['kind']} "
                f"(bound {comparison['bound']})"
            )
    return 0


# ---------------------------------------------------------------------------
# word problem commands


def _cmd_reduce(args) -> int:
    group = _load_group()
    word = group.vertex.parse(args.word)
    reduced = comb.dehn_reduce(word, group.vertex)
    if args.json:
        _print_json(
            {
                "word": group.vertex.render(word) if word else "1",
                "reduced": group.vertex.render(reduced) if reduced else "1",
                "trivial": not reduced,
            }
        )
        return 0
    print(group.vertex.render(reduced) if reduced else "1")
    return 0


def _cmd_britton(args) -> int:
    group = _load_group()
    form = group.britton_reduce(args.word)
    rendered = form.render()
    if args.json:
        _print_json(
            {
                "word": args.word,
                "normal_form": rendered,
                "t_count": form.t_count,
                "exponents": list(form.exponents),
                "segments": [
                    group.vertex.render(s) if s else "1" for s in form.segments
                ],
            }
        )
        return 0
    print(rendered)
    print(f"t-letters: {form.t_count}")
    return 0


def _cmd_trivial(args) -> int:
    group = _load_group()
    verdict = group.is_trivial(args.word)
    if args.json:
        _print_json({"word": args.word, "trivial": verdict})
    else:
        print("trivial" if verdict else "nontrivial")
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# cosets / tree / abelianize


def _cmd_cosets(args) -> int:
    group = _load_group()
    table = group.source_table if args.side == "source" else group.target_table
    if args.json:
        _print_json(table.to_json())
        return 0
    print(f"side: {args.side}  index: {table.index}")
    print(
        "subgroup genus: "
        f"{comb.genus_from_index(2, table.index)} (surface subgroup)"
    )
    header = []
    for name in table.generators:
        header += [name, name.upper()]
    print("coset | " + "  ".join(f"{h:>2}" for h in header))
    for i, row in enumerate(table.table):
        print(f"{i:5d} | " + "  ".join(f"{x:2d}" for x in row))
    for i, rep in enumerate(table.representatives):
        print(f"rep {i}: {group.vertex.render(rep) if rep else '1'}")
    return 0


def _cmd_tree(args) -> int:
    group = _load_group()
    if len(args.words) > 2:
        print("error: tree takes one or two words", file=sys.stderr)
        return 2
    if len(args.words) == 1:
        dist = group.tree_distance(args.words[0])
        payload = {"word": args.words[0], "distance_from_base": dist}
        if args.json:
            _print_json(payload)
        else:
            print(f"distance from base vertex: {dist}")
        return 0
    w1, w2 = args.words
    dist = group.tree_distance(w1, w2)
    same = dist == 0
    if args.json:
        _print_json({"words": [w1, w2], "distance": dist, "same_vertex": same})
    else:
        print(f"distance: {dist}")
        print(f"same vertex: {'yes' if same else 'no'}")
    return 0


def _cmd_abelianize(args) -> int:
    group = _load_group()
    pres = group.ambient if args.which == "ambient" else group.vertex
    structure = comb.abelianization(pres)
    if args.json:
        _print_json(
            {
                "which": args.which,
                "betti": structure.betti,
                "torsion": list(structure.torsion),
                "pretty": str(structure),
            }
        )
    else:
        print(f"H1({args.which}) = {structure}")
    return 0


# ---------------------------------------------------------------------------
# fsa-check / export


def _load_language(name: str):
    from . import biauto

    if name in biauto.BUILTIN_LANGUAGES:
        fsa_factory, model_factory = biauto.BUILTIN_LANGUAGES[name]
        return fsa_factory(), model_factory()
    if os.path.exists(name):
        try:
            with open(name) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read {name!r}: {exc.strerror}") from None
        fsa = biauto.Fsa.from_json(data)
        model = biauto.z2_model()
        missing = [x for x in fsa.alphabet if x not in model.letter_images]
        if missing:
            raise ValueError(
                f"automaton letters {missing} have no image in the x/y model"
            )
        return fsa, model
    raise ValueError(
        f"unknown language {name!r}; builtins: "
        + ", ".join(sorted(biauto.BUILTIN_LANGUAGES))
    )


def _cmd_fsa_check(args) -> int:
    from . import biauto

    _check_limit("--radius", args.radius, _FSA_RADIUS_LIMIT)
    # no separation is negative, so such a cap could only ever fail
    if args.cap is not None and args.cap < 0:
        raise ValueError(f"fellow-traveller cap must be >= 0, got {args.cap}")
    fsa, model = _load_language(args.language)
    # the window's own message, before count_paths refuses it in other words
    if args.radius < 0:
        raise ValueError(f"window radius must be >= 0, got {args.radius}")
    paths = fsa.count_paths(args.radius)
    _check_limit("automaton path count", paths, _FSA_PREFIX_LIMIT)
    lang = biauto.WindowedLanguage(fsa, model, args.radius)
    # each word, unshifted or shifted by a letter, is paired with the words
    # of each element at most one letter from its end
    per_element = [len(ws) for ws in lang.words_by_element.values()]
    pairs = (1 + len(model.letter_images)) ** 2 * sum(per_element)
    pairs *= max(per_element, default=0)
    _check_limit("fellow-traveller pair bound", pairs, _FSA_PAIRS_LIMIT)
    report = lang.analyze(args.rule, args.cap)
    fin, fel, quasi = report.finite_to_one, report.fellow, report.quasigeodesic
    witness = fel.witness
    if args.json:
        _print_json(
            {
                "language": args.language,
                "radius": args.radius,
                "rule": args.rule,
                "finite_to_one": {
                    "bound": fin.bound,
                    "surjective": fin.surjective,
                    "ok": fin.ok,
                },
                "quasigeodesic": {
                    "multiplicative": str(quasi.multiplicative),
                    "additive": quasi.additive,
                },
                "fellow_traveller": {
                    "zeta": fel.zeta,
                    "cap": fel.cap,
                    "pairs_checked": fel.pairs_checked,
                    "ok": fel.ok,
                    "witness": None
                    if witness is None
                    else {
                        "u": _render_letters(witness.u),
                        "v": _render_letters(witness.v),
                        "shift": witness.shift,
                        "time": witness.time,
                        "separation": witness.separation,
                    },
                },
                "ok": report.ok,
            }
        )
        return 0 if report.ok else 1
    print(f"language: {args.language}  radius: {args.radius}  rule: {args.rule}")
    print(f"words per element: at most {fin.bound}"
          f"  surjective on half window: {'yes' if fin.surjective else 'no'}")
    print(
        f"quasigeodesic: multiplicative {quasi.multiplicative},"
        f" additive {quasi.additive}"
    )
    capnote = "no cap" if fel.cap is None else f"cap {fel.cap}"
    print(
        f"fellow traveller: zeta={fel.zeta} ({capnote},"
        f" {fel.pairs_checked} pairs)"
    )
    if witness is not None:
        shift = witness.shift if witness.shift is not None else "-"
        print(
            f"worst pair: u={_render_letters(witness.u)}"
            f" v={_render_letters(witness.v)} shift={shift}"
            f" time={witness.time} separation={witness.separation}"
        )
    print("OK" if report.ok else "FAIL")
    return 0 if report.ok else 1


def _cmd_export(args) -> int:
    group = _load_group()
    pres = group.ambient if args.which == "ambient" else group.vertex
    if args.format == "json":
        _print_json(
            {
                "generators": list(pres.generators),
                "relators": [pres.render(r) for r in pres.relators],
            }
        )
        return 0
    verbose = [pres.render(r, "verbose") for r in pres.relators]
    if args.format == "gap":
        names = ", ".join(f'"{g}"' for g in pres.generators)
        print(f"F := FreeGroup({names});;")
        print("AssignGeneratorVariables(F);;")
        print("rels := [")
        for i, r in enumerate(verbose):
            comma = "," if i + 1 < len(verbose) else ""
            print(f"  {r}{comma}")
        print("];;")
        print("G := F / rels;;")
        return 0
    # magma
    names = ", ".join(pres.generators)
    print(f"G<{names}> := Group<")
    print(f"  {names} |")
    for i, r in enumerate(verbose):
        comma = "," if i + 1 < len(verbose) else ""
        print(f"  {r}{comma}")
    print(">;")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnn-lab",
        description="exact computations in a surface-by-tree lattice",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine output")
        p.set_defaults(func=func)
        return p

    p = add("verify", _cmd_verify, "check the defining data of the lattice")
    p.add_argument("--samples", type=int, default=0,
                   help="also test this many random relator consequences"
                   f" (at most {_VERIFY_SAMPLES_LIMIT})")
    p.add_argument("--seed", type=int, default=0)

    p = add("classify", _cmd_classify, "isometry type of a word's image")
    p.add_argument("word")

    p = add("lengths", _cmd_lengths, "exact translation lengths")
    p.add_argument("words", nargs="*",
                   help="words to measure (default: the four surface generators)")
    p.add_argument("--bound", type=int, default=64,
                   help="power bound for the ratio check of two words"
                   f" (at most {_LENGTHS_BOUND_LIMIT})")

    p = add("reduce", _cmd_reduce, "Dehn-reduce a surface-group word")
    p.add_argument("word")

    p = add("britton", _cmd_britton, "normal form over the stable letter")
    p.add_argument("word")

    p = add("trivial", _cmd_trivial,
            "word problem: exit 0 when the word is trivial")
    p.add_argument("word")

    p = add("cosets", _cmd_cosets, "coset table of an edge subgroup")
    p.add_argument("--side", choices=("source", "target"), default="source")

    p = add("tree", _cmd_tree, "distances in the dual tree")
    p.add_argument("words", nargs="+",
                   help="one word: distance from the base vertex; two: between them")

    p = add("abelianize", _cmd_abelianize, "first homology")
    p.add_argument("--which", choices=("ambient", "vertex"), default="ambient")

    p = add("fsa-check", _cmd_fsa_check,
            "windowed automatic-structure checks on a language")
    p.add_argument("language",
                   help="builtin name or path to an automaton .json file")
    p.add_argument("--radius", type=int, default=5)
    p.add_argument("--rule", choices=("classical", "simultaneous"),
                   default="classical")
    p.add_argument("--cap", type=int, default=None,
                   help="fail when the fellow traveller constant exceeds this")

    p = add("export", _cmd_export, "emit the presentation for other systems")
    p.add_argument("--which", choices=("ambient", "vertex"), default="ambient")
    p.add_argument("--format", choices=("gap", "magma", "json"),
                   default="json")

    return parser


def main(argv=None) -> int:
    # Python before 3.10.7 has no such limit to raise
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < _INT_DIGITS_LIMIT:
        sys.set_int_max_str_digits(_INT_DIGITS_LIMIT)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:  # comb.NotInSubgroup among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # an except clause evaluates its class only when an exception reaches it,
    # so a run that returns or raises ValueError never imports `hnn`
    except _oracle_disagreement() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
