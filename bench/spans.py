"""Spans recorded around hnnlab's public names, and the per-layer metrics
derived from them.

The tracer patches names from outside the library: methods of HnnGroup,
SubgroupOracles, CosetTable, BallOracle and WindowedLanguage, and the
module globals hnnlab.hnn.dehn_reduce, todd_coxeter, evaluate_word and
load_builtin_group, hnnlab.comb.dehn_reduce and hnnlab.quat.standard_order.
Each call records a span (name, start, end, parent span, operation id,
size, note) in memory; uninstall() restores every original.  A name that
no longer exists is listed in `missing` and its metrics read 0.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
from time import perf_counter

LAYERS = ("exact", "quat", "comb", "hnn", "biauto")

# span fields
NAME, START, END, PARENT, OP, SIZE, NOTE = range(7)


def _t_letters(word) -> int:
    return sum(1 for g in word if abs(g) == 5)


def _targets(hnnlab):
    """(owner, attribute, span name, size of the call, note on the call)."""
    hnn, comb, quat, biauto = hnnlab.hnn, hnnlab.comb, hnnlab.quat, hnnlab.biauto
    group, oracles = hnn.HnnGroup, quat.SubgroupOracles
    table, lang = comb.CosetTable, biauto.WindowedLanguage
    letters = lambda args: len(args[1])
    result = lambda args, res: res
    return (
        (group, "evaluate", "exact.evaluate", letters, None),
        (hnn, "evaluate_word", "exact.evaluate_word", None, None),
        (oracles, "in_source_subgroup", "quat.in_source_subgroup", None, None),
        (oracles, "in_target_subgroup", "quat.in_target_subgroup", None, None),
        (quat, "standard_order", "quat.standard_order", None, None),
        (hnn, "dehn_reduce", "comb.dehn_reduce", lambda a: len(a[0]), None),
        (comb, "dehn_reduce", "comb.dehn_reduce", lambda a: len(a[0]), None),
        (table, "follow", "comb.follow", None, None),
        (table, "rewrite", "comb.rewrite", None, None),
        (table, "expand_subgroup_word", "comb.expand_subgroup_word", None, None),
        (hnn, "todd_coxeter", "comb.todd_coxeter", None, None),
        (hnn, "load_builtin_group", "hnn.load_builtin_group", None, None),
        (group, "is_trivial", "hnn.is_trivial", None, None),
        (group, "tree_distance", "hnn.tree_distance", None, None),
        (group, "britton_reduce", "hnn.britton_reduce",
         lambda a: _t_letters(a[1]), None),
        (group, "in_source_subgroup", "hnn.in_source_subgroup", None, result),
        (group, "in_target_subgroup", "hnn.in_target_subgroup", None, result),
        (group, "conjugate_into_target", "hnn.conjugate_into_target", None, None),
        (group, "conjugate_into_source", "hnn.conjugate_into_source", None, None),
        (biauto.BallOracle, "__init__", "biauto.ball", None,
         lambda args, res: len(args[0])),
        (lang, "__init__", "biauto.language", None, None),
        (lang, "analyze", "biauto.analyze", None, None),
        (lang, "check_finite_to_one", "biauto.finite_to_one", None, None),
        (lang, "check_fellow_traveller", "biauto.fellow", None,
         lambda args, res: res.pairs_checked),
        (lang, "quasigeodesic", "biauto.quasigeodesic", None, None),
    )


class Tracer:
    def __init__(self, hnnlab):
        self.spans: list[list] = []
        self.op: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._targets = _targets(hnnlab)

    def _wrap(self, orig, name, size, note):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                res = orig(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(args)
            if note is not None:
                rec[NOTE] = note(args, res)
            return res

        return wrapper

    def install(self) -> None:
        self.missing = []
        for owner, attr, name, size, note in self._targets:
            where = getattr(owner, "__dict__", {})
            if attr not in where:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            orig = where[attr]
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, size, note))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def run_op(self, op_id: int, func, arg):
        """Call func(arg) as operation op_id under a root span named 'op'."""
        self.op = op_id
        try:
            return self._wrap(func, "op", None, None)(arg)
        finally:
            self.op = None

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i] + s) + "\n")


# ---------------------------------------------------------------------------
# metrics


def growth_exponent(points) -> float:
    """Slope of log(median time) against log(median size) over power-of-two
    size bins holding at least three calls; 0 with fewer than two bins."""
    bins: dict[int, list] = {}
    for size, dt in points:
        if size and size > 0 and dt > 0:
            bins.setdefault(int(math.log2(size)), []).append((size, dt))
    xs, ys = [], []
    for pts in bins.values():
        if len(pts) >= 3:
            xs.append(math.log(statistics.median(p[0] for p in pts)))
            ys.append(math.log(statistics.median(p[1] for p in pts)))
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _per(total: float, count: int, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(spans, slowdown: float, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as (value, unit).

    Counts and times of operations are per operation, so runs that fit a
    different number of operations into their time compare directly.
    Set-up spans (those of no operation) feed only standard_order_s,
    todd_coxeter_s and load_s.  Times are divided by the host slowdown
    (bench/host.py).
    """
    selfs = [t / slowdown for t in self_times(spans)]
    ops = [i for i, s in enumerate(spans) if s[OP] is not None]
    setup = [i for i, s in enumerate(spans) if s[OP] is None]
    n_ops = len({spans[i][OP] for i in ops})

    def pick(names, idx=ops):
        names = (names,) if isinstance(names, str) else names
        return [i for i in idx if spans[i][NAME] in names]

    def dur(i):
        return (spans[i][END] - spans[i][START]) / slowdown

    def total(idx):
        return sum(dur(i) for i in idx)

    def per_op(x):
        return _per(x, n_ops)

    m: dict[str, tuple[float, str]] = {}

    ev = pick("exact.evaluate")
    ev_s, letters = total(ev), sum(spans[i][SIZE] for i in ev)
    m["exact.evaluate_calls"] = (per_op(len(ev)), "1/op")
    m["exact.letters"] = (per_op(letters), "1/op")
    m["exact.evaluate_s"] = (per_op(ev_s), "s/op")
    m["exact.us_per_letter"] = (_per(ev_s, letters, 1e6), "us")
    m["exact.growth_exp"] = (
        growth_exponent((spans[i][SIZE], dur(i)) for i in ev), "ratio")

    quat_names = ("quat.in_source_subgroup", "quat.in_target_subgroup")
    qm = [i for i in pick(quat_names)
          if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] not in quat_names]
    m["quat.membership_calls"] = (per_op(len(qm)), "1/op")
    m["quat.membership_s"] = (per_op(total(qm)), "s/op")
    m["quat.us_per_call"] = (_per(total(qm), len(qm), 1e6), "us")
    m["quat.standard_order_s"] = (total(pick("quat.standard_order", setup)), "s")

    dehn = pick("comb.dehn_reduce")
    dehn_s, dehn_letters = total(dehn), sum(spans[i][SIZE] for i in dehn)
    m["comb.dehn_calls"] = (per_op(len(dehn)), "1/op")
    m["comb.dehn_letters"] = (per_op(dehn_letters), "1/op")
    m["comb.dehn_s"] = (per_op(dehn_s), "s/op")
    m["comb.dehn_us_per_letter"] = (_per(dehn_s, dehn_letters, 1e6), "us")
    m["comb.dehn_growth_exp"] = (
        growth_exponent((spans[i][SIZE], dur(i)) for i in dehn), "ratio")
    follow = pick("comb.follow")
    rewrite = pick(("comb.rewrite", "comb.expand_subgroup_word"))
    m["comb.follow_calls"] = (per_op(len(follow)), "1/op")
    m["comb.follow_s"] = (per_op(total(follow)), "s/op")
    m["comb.rewrite_calls"] = (per_op(len(rewrite)), "1/op")
    m["comb.rewrite_s"] = (per_op(total(rewrite)), "s/op")
    m["comb.todd_coxeter_s"] = (total(pick("comb.todd_coxeter", setup)), "s")

    britton = pick("hnn.britton_reduce")
    queries = pick(("hnn.in_source_subgroup", "hnn.in_target_subgroup"))
    pinches = sum(1 for i in queries if spans[i][NOTE] is True)
    t_letters = sum(spans[i][SIZE] for i in britton)
    m["hnn.britton_calls"] = (per_op(len(britton)), "1/op")
    m["hnn.britton_self_s"] = (per_op(sum(selfs[i] for i in britton)), "s/op")
    m["hnn.membership_queries"] = (per_op(len(queries)), "1/op")
    m["hnn.pinches"] = (per_op(pinches), "1/op")
    m["hnn.pinch_hit_ratio"] = (_per(pinches, len(queries)), "ratio")
    m["hnn.queries_per_t"] = (_per(len(queries), t_letters), "ratio")
    m["hnn.query_share"] = (_per(total(queries), total(pick("op"))), "ratio")
    m["hnn.britton_growth_exp"] = (
        growth_exponent((spans[i][SIZE], dur(i)) for i in britton), "ratio")
    m["hnn.load_s"] = (total(pick("hnn.load_builtin_group", setup)), "s")

    balls = pick("biauto.ball")
    fellow = pick("biauto.fellow")
    pairs = sum(spans[i][NOTE] for i in fellow)
    m["biauto.ball_elements"] = (per_op(sum(spans[i][NOTE] for i in balls)), "1/op")
    m["biauto.ball_build_s"] = (per_op(total(balls)), "s/op")
    m["biauto.language_build_s"] = (
        per_op(sum(selfs[i] for i in pick("biauto.language"))), "s/op")
    m["biauto.fellow_pairs"] = (per_op(pairs), "1/op")
    m["biauto.fellow_s"] = (per_op(total(fellow)), "s/op")
    m["biauto.us_per_pair"] = (_per(total(fellow), pairs, 1e6), "us")
    m["biauto.finite_to_one_s"] = (per_op(total(pick("biauto.finite_to_one"))), "s/op")
    m["biauto.quasigeodesic_s"] = (per_op(total(pick("biauto.quasigeodesic"))), "s/op")

    op_time = total(pick("op"))
    for layer in LAYERS:
        own = sum(selfs[i] for i in ops if spans[i][NAME].startswith(layer + "."))
        m[f"{layer}.share"] = (_per(own, op_time), "ratio")
    bench = sum(selfs[i] for i in pick("op"))
    m["trace.layer_share"] = (_per(op_time - bench, op_time), "ratio")
    m["trace.bench_share"] = (_per(bench, op_time), "ratio")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
