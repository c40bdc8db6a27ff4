"""End-to-end benchmark of hnnlab, with an optional traced run per layer.

    python3 bench/run.py --workload word-problem --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seconds 5            # table of every workload
    python3 bench/run.py --workload all --seconds 5 --trace 1  # per-layer report

One client drives the library's public calls in a closed loop, one call at
a time, on inputs generated from --seed (bench/gen.py); every answer is
checked against the one known by construction.  Inputs come in rounds that
all hold the same mix of input sizes (bench/gen.py), and the run stops at
the first round boundary after --seconds at which at least MIN_OPERATIONS
calls have run.

--trace 0 prints the end-to-end metrics: throughput (the median over rounds
of operations per second of call time), latency p50 and p90 over all calls, set-up time (median over
fresh interpreters, from `import hnnlab` to the first operation being ready)
and peak resident memory.  Each call's time is divided by the host slowdown
measured just before and after it (bench/host.py); the raw clock figures go
to the run record in bench/out/ beside them.

--trace 1 runs every round twice, untraced and with spans recorded around
hnnlab's public names (bench/spans.py), and prints per-layer metrics from
the spans; the median ratio of traced to untraced round time, less one, is
the tracing overhead.  Spans go to bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The library is imported from the src/
directory next to bench/ and nowhere else; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import gen  # noqa: E402  (bench/ is on sys.path: it holds this script)
import host  # noqa: E402

SETUP_PROCESSES = 11
MIN_OPERATIONS = 100  # so that at least ten latency samples lie beyond p90

WORKLOADS = {
    # name: (input generator, inputs per round, loads the group)
    "word-problem": (gen.word_problem, 48, True),
    "tree-distance": (gen.tree_distance, 15, True),
    "surface-dehn": (gen.surface_dehn, 48, True),
    "fsa-window": (gen.fsa_window, 60, False),
}

NO_LAYER_METRICS = {
    "isom": "no workload calls it (about 3 ms per classify)",
    "cli": "only parses and prints; its import and group load are setup_s",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_hnnlab():
    """Import hnnlab from SRC, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import hnnlab

    if Path(hnnlab.__file__).resolve().parent != SRC / "hnnlab":
        fail(f"imported hnnlab from {hnnlab.__file__}, not from {SRC}")
    return hnnlab


# ---------------------------------------------------------------------------
# operations and their checks


def make_op(name: str, hnnlab):
    """The timed call for one input, and a check of its result."""
    if name == "fsa-window":
        biauto = hnnlab.biauto

        def op(case):
            language, rule, radius = case
            fsa_factory, model_factory = biauto.BUILTIN_LANGUAGES[language]
            lang = biauto.WindowedLanguage(fsa_factory(), model_factory(), radius)
            return lang.analyze(rule)

        return op, check_fsa
    group = hnnlab.hnn.load_builtin_group()
    if name == "word-problem":
        return group.is_trivial, lambda res, exp: res is exp
    if name == "tree-distance":
        return group.tree_distance, lambda res, exp: res == exp
    comb = hnnlab.comb
    return (lambda w: comb.dehn_reduce(w, group.vertex)), check_dehn


def check_dehn(res, expected) -> bool:
    """Trivial words reduce to the empty word; a nontrivial one reduces to a
    nonempty word with the same H1 image (relators have zero exponent sums)."""
    trivial, vector = expected
    if trivial:
        return res == ()
    return len(res) > 0 and gen.exponent_vector(res) == vector


def check_fsa(report, case) -> bool:
    """Normal form: N = 1, surjective, zeta 2 (classical) or 3 (simultaneous).
    Parity form: N = 1, surjective, zeta = radius, and the witness separation
    equals the L1 distance in Z^2 of the two path points it names."""
    language, rule, radius = case
    fin, fel = report.finite_to_one, report.fellow
    if fin.bound != 1 or not fin.surjective:
        return False
    if language == "z2-normal":
        return fel.zeta == (2 if rule == "classical" else 3)
    w = fel.witness
    return fel.zeta == radius and w is not None and z2_separation(w) == w.separation


Z2_STEPS = {"x": (1, 0), "X": (-1, 0), "y": (0, 1), "Y": (0, -1)}


def z2_separation(witness) -> int:
    def point(word, start, t):
        x, y = start
        for letter in word[:t]:
            x, y = x + Z2_STEPS[letter][0], y + Z2_STEPS[letter][1]
        return x, y

    start = Z2_STEPS[witness.shift] if witness.shift else (0, 0)
    pu = point(witness.u, start, witness.time)
    pv = point(witness.v, (0, 0), witness.time)
    return abs(pu[0] - pv[0]) + abs(pu[1] - pv[1])


def input_size(name: str, inp) -> int:
    return inp[2] if name == "fsa-window" else len(inp)


# ---------------------------------------------------------------------------
# the closed loop


class Result:
    """Per-operation latencies, each divided by the host slowdown measured
    just before and just after it (bench/host.py); raw_latencies keep the
    clock's.  round_rates are operations per second of call time, per round,
    normalized and raw."""

    FIELDS = ("latencies", "raw_latencies", "round_rates", "raw_round_rates",
              "slowdowns", "sizes", "failures")

    def __init__(self):
        for field in self.FIELDS:
            setattr(self, field, [])

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def extend(self, other: "Result") -> None:
        for field in self.FIELDS:
            getattr(self, field).extend(getattr(other, field))


def measure(stream, op, check, per_round: int, size_of, *, seconds=None,
            rounds=None, call=None) -> Result:
    """Run whole rounds of per_round inputs, until `seconds` have passed and
    MIN_OPERATIONS have run, or for exactly `rounds` rounds.

    call(i, op, inp) performs operation i (default: op(inp)).  A call that
    raises, or whose result fails its check, is a failure.
    """
    res = Result()
    start = perf_counter()
    ref = host.reference()
    while (
        len(res.round_rates) < rounds if rounds is not None
        else res.attempted < MIN_OPERATIONS or perf_counter() - start < seconds
    ):
        busy = raw_busy = 0.0
        for _ in range(per_round):
            inp, expected = next(stream)
            t0 = perf_counter()
            try:
                out = call(len(res.sizes), op, inp) if call else op(inp)
                error = None
            except Exception as exc:  # a failed operation; the loop goes on
                error = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            after = host.reference()
            slowdown = (ref + after) / (2 * host.REFERENCE_S)
            ref = after
            busy += dt / slowdown
            raw_busy += dt
            res.raw_latencies.append(dt)
            res.latencies.append(dt / slowdown)
            res.slowdowns.append(slowdown)
            res.sizes.append(size_of(inp))
            if error is None and not check(out, expected):
                error = f"wrong answer for expected {expected!r}"
            if error is not None:
                res.failures.append(error[:300])
        res.round_rates.append(per_round / busy)
        res.raw_round_rates.append(per_round / raw_busy)
    return res


def deciles(values) -> list[float]:
    """p10, p20, ..., p90, interpolated between the nearest samples."""
    return statistics.quantiles(values, n=10, method="inclusive")


# ---------------------------------------------------------------------------
# set-up time


SETUP_CODE = """
import sys
from time import perf_counter
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import host
before = [host.reference() for _ in range(8)]
t0 = perf_counter()
import hnnlab
if sys.argv[3] == "1":
    hnnlab.load_builtin_group()
t1 = perf_counter()
after = [host.reference() for _ in range(8)]
if not hnnlab.__file__.startswith(sys.argv[1]):
    sys.exit("hnnlab imported from outside " + sys.argv[1])
print(t1 - t0, sum(before + after) / 16 / host.REFERENCE_S)
"""


def setup_seconds(loads_group: bool) -> tuple[list[float], list[float]]:
    """Set-up times in fresh interpreters, raw and divided by the host
    slowdown measured around them, after one unmeasured warm-up run (which
    also leaves compiled bytecode behind)."""
    raw, normalized = [], []
    for k in range(SETUP_PROCESSES + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH),
             "1" if loads_group else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, slowdown = map(float, out.stdout.split())
        if k:
            raw.append(seconds)
            normalized.append(seconds / slowdown)
    return raw, normalized


# ---------------------------------------------------------------------------
# run record


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (git not found)"
    return out.stdout.strip() or "unknown"


def run_record(args, res: Result, extra: dict) -> dict:
    sizes = res.sizes
    size_deciles = deciles(sizes)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": res.attempted,
        "rounds": len(res.round_rates),
        "failed": len(res.failures),
        "input_size": {
            "unit": "radius" if args.workload == "fsa-window" else "letters",
            "min": min(sizes),
            "p10": size_deciles[0],
            "median": size_deciles[4],
            "p90": size_deciles[8],
            "max": max(sizes),
        },
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        **extra,
    }


def emit(args, res: Result, metrics: dict, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  operations {res.attempted} in {len(res.round_rates)} rounds,"
          f" failed {len(res.failures)}"
          f" (failed_frac {len(res.failures) / res.attempted:.4f})")
    for msg in res.failures[:5]:
        print(f"  failure: {msg}")
    print(f"  input size ({record['input_size']['unit']}): "
          + ", ".join(f"{k} {v:g}" for k, v in record["input_size"].items()
                      if k != "unit"))
    print(f"  python {record['python']}  nproc {record['nproc']}"
          f"  git {record['git_revision']}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": metrics,
    }))


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(args) -> None:
    generator, per_round, loads_group = WORKLOADS[args.workload]
    # set-up runs first: its warm-up process compiles hnnlab's bytecode, which
    # would otherwise raise this process's peak memory on a fresh checkout
    raw_setups, setups = setup_seconds(loads_group)
    op, check = make_op(args.workload, import_hnnlab())
    res = measure(generator(args.seed), op, check, per_round,
                  lambda inp: input_size(args.workload, inp), seconds=args.seconds)
    ms = deciles([1e3 * t for t in res.latencies])
    raw_ms = deciles([1e3 * t for t in res.raw_latencies])
    metrics = {
        "throughput_ops_s": {"value": statistics.median(res.round_rates), "unit": "1/s"},
        "latency_p50_ms": {"value": ms[4], "unit": "ms"},
        "latency_p90_ms": {"value": ms[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    record = run_record(args, res, {
        "latency_samples": res.attempted,
        "latency_samples_beyond_p90": sum(1 for t in res.latencies if 1e3 * t > ms[8]),
        "setup_samples_s": setups,
        "round_rates": res.round_rates,
        "raw": {
            "throughput_ops_s": statistics.median(res.raw_round_rates),
            "latency_p50_ms": raw_ms[4],
            "latency_p90_ms": raw_ms[8],
            "setup_s": statistics.median(raw_setups),
            "setup_samples_s": raw_setups,
        },
        "host_slowdown": {
            "reference_s": host.REFERENCE_S,
            "min": min(res.slowdowns),
            "median": statistics.median(res.slowdowns),
            "max": max(res.slowdowns),
        },
    })
    emit(args, res, metrics, record)


def run_traced(args) -> None:
    import spans

    hnnlab = import_hnnlab()
    generator, per_round, _ = WORKLOADS[args.workload]
    tracer = spans.Tracer(hnnlab)
    tracer.install()
    op, check = make_op(args.workload, hnnlab)  # set-up spans
    tracer.uninstall()
    size_of = lambda inp: input_size(args.workload, inp)
    stream = generator(args.seed)
    plain, traced, ratios = Result(), Result(), []
    start = perf_counter()
    # each round runs untraced and traced on the same inputs, in alternating
    # order, so drift in the host's speed falls on both alike
    while not ratios or perf_counter() - start < args.seconds:
        inputs = [next(stream) for _ in range(per_round)]
        done = len(traced.latencies)
        for traced_now in ((False, True) if len(ratios) % 2 == 0 else (True, False)):
            if traced_now:
                tracer.install()
                part = measure(iter(inputs), op, check, per_round, size_of, rounds=1,
                               call=lambda i, f, inp: tracer.run_op(done + i, f, inp))
                tracer.uninstall()
                traced.extend(part)
            else:
                part = measure(iter(inputs), op, check, per_round, size_of, rounds=1)
                plain.extend(part)
        ratios.append(plain.round_rates[-1] / traced.round_rates[-1])
    overhead = statistics.median(ratios) - 1
    layers = spans.layer_metrics(
        tracer.spans, statistics.median(traced.slowdowns), overhead)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.jsonl.gz"
    tracer.write(spans_path)
    both = Result()
    both.extend(plain)
    both.extend(traced)
    record = run_record(args, both, {
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_call_s": sum(plain.latencies),
        "traced_call_s": sum(traced.latencies),
        "unwrapped_names": tracer.missing,
        "layers_without_metrics": NO_LAYER_METRICS,
    })
    for name in tracer.missing:
        print(f"  note: {name} no longer exists; its metrics read 0")
    emit(args, both, metrics, record)


# ---------------------------------------------------------------------------
# every workload in one command


def run_all(args) -> int:
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=600)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        rows[name] = json.loads(out.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    width = max(len(n) for n in names) + 2
    print(f"{'metric':{width}s}{'unit':>8s}" + "".join(f"{w:>16s}" for w in rows))
    for metric in names:
        unit = next(iter(rows.values()))["metrics"][metric]["unit"]
        cells = "".join(f"{r['metrics'][metric]['value']:16.6g}" for r in rows.values())
        print(f"{metric:{width}s}{unit:>8s}{cells}")
    print(f"{'attempted':{width}s}{'count':>8s}"
          + "".join(f"{r['attempted']:16d}" for r in rows.values()))
    print(f"{'failed':{width}s}{'count':>8s}"
          + "".join(f"{r['failed']:16d}" for r in rows.values()))
    if args.trace:
        for layer, why in NO_LAYER_METRICS.items():
            print(f"{layer}: no layer metrics; {why}")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hnnlab" / "__init__.py").is_file():
        fail(f"no hnnlab sources under {SRC}")
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        run_traced(args)
    else:
        run_untraced(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
