"""Command line interface.

Every subcommand works on the built-in lattice (the genus-2 surface group
HNN-extended inside PSL(2, R) x Aut(T24)) except ``fsa-check``, which runs
the windowed automatic-structure checks on a named or user-supplied
language.

Each command returns its exit code, its payload and its text lines, and
prints nothing: `main` alone writes stdout, the payload as JSON under
``--json`` (on every command, ``export`` included) and the lines otherwise.
A refused run prints nothing on stdout, and a reader that closes the pipe
early ends the run quietly with the command's own exit code.

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
import stat
import sys
from decimal import Decimal, localcontext

# each command imports the layers it uses: a cold `fsa-check` loads `cli`,
# `comb` (through the import below) and `biauto`, the lattice's commands
# load `quat` and `hnn` but never `biauto`, and only `classify` and
# `lengths`, which build matrices, load `exact` and `isom`.  Annotations
# are never evaluated, so those naming `isom` or `QuadExt` import nothing.
from . import comb

# what a command returns: its exit code, the payload that --json prints
# and the lines of its text output; only `main` prints either
Output = tuple[int, dict, list[str]]

DISPLAY_DIGITS = 50
# fsa-check cost grows about as radius^3 on the built-in languages: at this
# radius one run takes 0.2-0.5 s and 34.2-35.3 MB maximum RSS on a 2-core
# x86 host (either language, either rule)
_FSA_RADIUS_LIMIT = 64
# a user automaton is bounded by its window, not its radius: these admit
# every built-in language at radius 64 (16385 prefixes, 208025 pairs) and
# refuse the all-words automaton from radius 4 on (349525 pairs; 21250 at
# radius 3)
_FSA_PREFIX_LIMIT = 20_000
_FSA_PAIRS_LIMIT = 250_000
# an automaton file is read only if it is a regular file, and only up to
# this many bytes: a file at the limit (63000-84000 transitions) takes
# 0.4-1.7 s and at most 55 MB maximum RSS through `fsa-check --radius 64`
# on a 2-core x86 host
_FSA_FILE_LIMIT = 1 << 20
# the same-field ratio scan of `lengths` grows as bound^2: under 1 s at
# this bound on a 2-core x86 host
_LENGTHS_BOUND_LIMIT = 1024
# each word is parsed to at most comb.WORD_LETTER_LIMIT letters, but argv
# may hold any number of them; at this total the slowest input, two
# (at)^2000 words, takes under 0.2 s in process on a 2-core x86 host
_LENGTHS_LETTER_LIMIT = 2 * comb.WORD_LETTER_LIMIT
# each random consequence costs under 1 ms: `verify --samples 1000` takes
# about 0.8 s in process, the group loaded, on a 2-core x86 host
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


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _pass(holds: bool) -> str:
    return "PASS" if holds else "FAIL"


def _load_group():
    from . import hnn

    return hnn.load_builtin_group()


def _oracle_disagreement() -> type:
    from .hnn import OracleDisagreement

    return OracleDisagreement


def _decimal_length(trace: QuadExt) -> str:
    """2*log(lambda) for the hyperbolic multiplier, to 50 digits.

    Display only: verdicts never depend on this number.  A lattice element's
    trace is tr phi(q) = 2*x0, a rational number.
    """
    with localcontext() as ctx:
        ctx.prec = DISPLAY_DIGITS + 15
        t = abs(Decimal(trace.a.numerator) / Decimal(trace.a.denominator))
        lam = (t + (t * t - 4).sqrt()) / 2
        length = 2 * lam.ln()
        ctx.prec = DISPLAY_DIGITS
        return str(+length)


def _render_letters(letters) -> str:
    return "".join(letters) or "1"


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> Output:
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    _check_limit("--samples", args.samples, _VERIFY_SAMPLES_LIMIT)
    group = _load_group()
    report = group.verify_presentation()
    samples_ok = 0
    if args.samples > 0:
        rng = random.Random(args.seed)
        letters = [i for i in range(1, group.ambient.ngens + 1)]
        letters += [-i for i in letters]
        for _ in range(args.samples):
            rel = list(rng.choice(group.ambient.relators))
            cut = rng.randrange(len(rel))
            rel = rel[cut:] + rel[:cut]
            conj = [rng.choice(letters) for _ in range(rng.randrange(0, 7))]
            word = conj + rel + [-x for x in reversed(conj)]
            if group.is_trivial(tuple(word)):
                samples_ok += 1
    ok = report.all_hold and samples_ok == args.samples

    payload = {
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
        "samples_total": args.samples,
        "ok": ok,
    }
    lines = [
        f"{_pass(rc.holds)} relation {rc.index:02d}: {rc.relator}"
        for rc in report.relations
    ]
    lines += [
        f"{_pass(report.pair_memberships_ok)} stable-letter pairs lie in the"
        " edge subgroups",
        f"INFO source edge subgroup has index {report.source_index}",
        f"INFO target edge subgroup has index {report.target_index}",
        f"{_pass(report.mutants_detected == report.mutants_total)} mutant screen:"
        f" {report.mutants_detected}/{report.mutants_total} corrupted relators"
        " rejected",
    ]
    if args.samples:
        lines.append(
            f"{_pass(samples_ok == args.samples)} random consequences:"
            f" {samples_ok}/{args.samples} trivial (seed {args.seed})"
        )
    lines.append("OK: group data verified" if ok else "FAIL: verification failed")
    return (0 if ok else 1), payload, lines


# ---------------------------------------------------------------------------
# classify / lengths


def _classify_payload(group, word) -> tuple[dict, isom.IsometryClass]:
    from . import isom
    from .exact import render_quadext

    m = group.evaluate(word)
    kind = isom.classify(m)
    payload = {
        "word": group.ambient.render(word),
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
        payload["length_exact"] = f"2*log({kind.length.multiplier_str()})"
        field = kind.length.field_param
        if abs(field) >= 10**_JSON_INT_DIGITS:
            field = str(field)
        payload["length_field"] = field
    return payload, kind


def _cmd_classify(args) -> Output:
    group = _load_group()
    payload, _ = _classify_payload(group, group.ambient.parse(args.word))
    lines = [
        f"word:  {payload['word']}",
        f"trace: {payload['trace']}",
        f"type:  {payload['type']}",
    ]
    if payload["order"] is not None:
        lines.append(f"order: {payload['order']}")
    # a hyperbolic element has both lengths, any other neither
    if payload["length_exact"] is not None:
        lines.append(f"translation length: {payload['length_exact']}")
        lines.append(f"  = {payload['length_decimal']} (display only)")
    return 0, payload, lines


def _dependence_payload(t1: isom.TransLength, t2: isom.TransLength, bound: int):
    from . import isom

    verdict = isom.length_ratio_independent(t1, t2, bound)
    if isinstance(verdict, isom.Dependent):
        return {"kind": "dependent", "p": verdict.p, "q": verdict.q}
    if isinstance(verdict, isom.IndependentCertified):
        return {"kind": "independent-certified", "bound": verdict.bound}
    return {"kind": "independent-up-to", "bound": verdict.bound}


def _cmd_lengths(args) -> Output:
    from . import isom

    if args.bound < 1:
        raise ValueError("bound must be >= 1")
    _check_limit("--bound", args.bound, _LENGTHS_BOUND_LIMIT)
    group = _load_group()
    texts = args.words or ["a", "b", "c", "d"]
    words = [group.ambient.parse(t) for t in texts]
    _check_limit("total word length", sum(map(len, words)), _LENGTHS_LETTER_LIMIT)
    rows, kinds = zip(*(_classify_payload(group, w) for w in words))
    comparison = None
    if len(rows) == 2:
        lengths = [
            k.length if isinstance(k, isom.Hyperbolic) else None for k in kinds
        ]
        if None not in lengths:
            comparison = _dependence_payload(lengths[0], lengths[1], args.bound)
    lines = []
    for row in rows:
        if row["length_exact"] is not None:
            lines.append(f"{row['word']}: {row['length_exact']}")
            lines.append(f"   = {row['length_decimal']} (display only)")
        else:
            lines.append(f"{row['word']}: {row['type']}, no translation length")
    if comparison is not None:
        if comparison["kind"] == "dependent":
            lines.append(
                f"ratio check: {comparison['p']} * len({texts[0]}) = "
                f"{comparison['q']} * len({texts[1]})"
            )
        else:
            lines.append(
                f"ratio check: {comparison['kind']} (bound {comparison['bound']})"
            )
    return 0, {"elements": rows, "comparison": comparison}, lines


# ---------------------------------------------------------------------------
# word problem commands


def _cmd_reduce(args) -> Output:
    group = _load_group()
    word = group.vertex.parse(args.word)
    reduced = comb.dehn_reduce(word, group.vertex)
    rendered = group.vertex.render(reduced)
    payload = {
        "word": group.vertex.render(word),
        "reduced": rendered,
        "trivial": not reduced,
    }
    return 0, payload, [rendered]


def _cmd_britton(args) -> Output:
    group = _load_group()
    form = group.britton_reduce(args.word)
    rendered = form.render()
    payload = {
        "word": args.word,
        "normal_form": rendered,
        "t_count": form.t_count,
        "exponents": list(form.exponents),
        "segments": [group.vertex.render(s) for s in form.segments],
    }
    return 0, payload, [rendered, f"t-letters: {form.t_count}"]


def _cmd_trivial(args) -> Output:
    verdict = _load_group().is_trivial(args.word)
    payload = {"word": args.word, "trivial": verdict}
    return (0 if verdict else 1), payload, ["trivial" if verdict else "nontrivial"]


# ---------------------------------------------------------------------------
# cosets / tree / abelianize


def _cmd_cosets(args) -> Output:
    group = _load_group()
    table = group.source_table if args.side == "source" else group.target_table
    header = []
    for name in table.generators:
        header += [name, name.upper()]
    lines = [
        f"side: {args.side}  index: {table.index}",
        f"subgroup genus: {comb.genus_from_index(2, table.index)} (surface subgroup)",
        "coset | " + "  ".join(f"{h:>2}" for h in header),
    ]
    for i, row in enumerate(table.table):
        lines.append(f"{i:5d} | " + "  ".join(f"{x:2d}" for x in row))
    for i, rep in enumerate(table.representatives):
        lines.append(f"rep {i}: {group.vertex.render(rep)}")
    return 0, table.to_json(), lines


def _cmd_tree(args) -> Output:
    if len(args.words) > 2:
        raise ValueError("tree takes one or two words")
    dist = _load_group().tree_distance(*args.words)
    if len(args.words) == 1:
        payload = {"word": args.words[0], "distance_from_base": dist}
        return 0, payload, [f"distance from base vertex: {dist}"]
    same = dist == 0
    payload = {"words": args.words, "distance": dist, "same_vertex": same}
    return 0, payload, [f"distance: {dist}", f"same vertex: {'yes' if same else 'no'}"]


def _cmd_abelianize(args) -> Output:
    group = _load_group()
    pres = group.ambient if args.which == "ambient" else group.vertex
    structure = comb.abelianization(pres)
    payload = {
        "which": args.which,
        "betti": structure.betti,
        "torsion": list(structure.torsion),
        "pretty": str(structure),
    }
    return 0, payload, [f"H1({args.which}) = {structure}"]


# ---------------------------------------------------------------------------
# fsa-check / export


def _load_language(name: str):
    from . import biauto

    if name in biauto.BUILTIN_LANGUAGES:
        fsa_factory, model_factory = biauto.BUILTIN_LANGUAGES[name]
        return fsa_factory(), model_factory()
    if os.path.exists(name):
        try:
            # a FIFO or a device can block or never end
            if not stat.S_ISREG(os.stat(name).st_mode):
                raise ValueError(f"cannot read {name!r}: not a regular file")
            with open(name, "rb") as fh:
                text = fh.read(_FSA_FILE_LIMIT + 1)
            if len(text) > _FSA_FILE_LIMIT:
                raise ValueError(
                    f"cannot read {name!r}: more than {_FSA_FILE_LIMIT} bytes"
                )
            data = json.loads(text)
        except OSError as exc:
            raise ValueError(f"cannot read {name!r}: {exc.strerror}") from None
        except RecursionError:
            raise ValueError(f"cannot read {name!r}: nested too deeply") from None
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


def _cmd_fsa_check(args) -> Output:
    from . import biauto

    _check_limit("--radius", args.radius, _FSA_RADIUS_LIMIT)
    # no separation is negative, so such a cap could only ever fail
    if args.cap is not None and args.cap < 0:
        raise ValueError(f"fellow-traveller cap must be >= 0, got {args.cap}")
    fsa, model = _load_language(args.language)
    # count_paths, stopped at the first length over the limit: each further
    # length can multiply the count, and the cost of the next, by the
    # automaton's out-degree
    for length, paths in zip(range(args.radius + 1), fsa._path_totals()):
        if paths > _FSA_PREFIX_LIMIT:
            raise ValueError(
                f"automaton path count up to length {length} is above the"
                f" limit {_FSA_PREFIX_LIMIT}"
            )
    lang = biauto.WindowedLanguage(fsa, model, args.radius)
    # each word, unshifted or shifted by a letter, is paired with the words
    # of each element at most one letter from its end
    per_element = [len(ws) for ws in lang.words_by_element.values()]
    pairs = (1 + len(model.letter_images)) ** 2 * sum(per_element)
    pairs *= max(per_element, default=0)
    _check_limit("fellow-traveller pair bound", pairs, _FSA_PAIRS_LIMIT)
    report = lang.analyze(args.rule, args.cap)
    fin, fel, quasi = report.finite_to_one, report.fellow, report.quasigeodesic
    witness = None
    if fel.witness is not None:
        witness = {
            "u": _render_letters(fel.witness.u),
            "v": _render_letters(fel.witness.v),
            "shift": fel.witness.shift,
            "time": fel.witness.time,
            "separation": fel.witness.separation,
        }
    payload = {
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
            "witness": witness,
        },
        "ok": report.ok,
    }
    capnote = "no cap" if fel.cap is None else f"cap {fel.cap}"
    lines = [
        f"language: {args.language}  radius: {args.radius}  rule: {args.rule}",
        f"words per element: at most {fin.bound}"
        f"  surjective on half window: {'yes' if fin.surjective else 'no'}",
        f"quasigeodesic: multiplicative {quasi.multiplicative},"
        f" additive {quasi.additive}",
        f"fellow traveller: zeta={fel.zeta} ({capnote},"
        f" {fel.pairs_checked} pairs)",
    ]
    if witness is not None:
        shift = "-" if witness["shift"] is None else witness["shift"]
        lines.append(
            f"worst pair: u={witness['u']} v={witness['v']} shift={shift}"
            f" time={witness['time']} separation={witness['separation']}"
        )
    lines.append("OK" if report.ok else "FAIL")
    return (0 if report.ok else 1), payload, lines


def _cmd_export(args) -> Output:
    group = _load_group()
    pres = group.ambient if args.which == "ambient" else group.vertex
    payload = {
        "generators": list(pres.generators),
        "relators": [pres.render(r) for r in pres.relators],
    }
    rels = ",\n".join(f"  {pres.render(r, 'verbose')}" for r in pres.relators)
    if args.format == "gap":
        names = ", ".join(f'"{g}"' for g in pres.generators)
        lines = [
            f"F := FreeGroup({names});;",
            "AssignGeneratorVariables(F);;",
            "rels := [",
            rels,
            "];;",
            "G := F / rels;;",
        ]
    elif args.format == "magma":
        names = ", ".join(pres.generators)
        lines = [f"G<{names}> := Group<", f"  {names} |", rels, ">;"]
    else:
        lines = [_json_text(payload)]
    return 0, payload, lines


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
        code, payload, lines = args.func(args)
    except ValueError as exc:  # comb.NotInSubgroup among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # an except clause evaluates its class only when an exception reaches it,
    # so a run that returns or raises ValueError never imports `hnn`
    except _oracle_disagreement() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        print(_json_text(payload) if args.json else "\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; stdout now points at devnull, so the flush
        # at interpreter exit cannot fail again
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
