#!/usr/bin/env python3
"""Benchmark for laddergf: replay a seeded stream of Hilbert-series queries.

    python3 perfbench/run.py --workload fresh_ladders --seed 1 --seconds 40 --trace 0

One process, one thread, closed loop: the next query is sent only after the
previous answer has been checked.  The library is imported from ``src/`` of
the checkout the script sits in, never from an installed copy, so a checkout
without the library source fails with a non-zero exit.

``--trace 0`` reports the end-to-end metrics.  It answers a fixed set of
queries (PASS_BLOCKS catalogue blocks, in the order the seed gives) pass
after pass, each pass on a freshly imported library, and takes each query's
median time in reference seconds (``HostClock``).  ``--trace 1`` answers
every query twice, once untraced and once with a span around every call into
a library module, both timed in wall seconds, and reports the per-layer
metrics; the spans are written to ``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong
result or exception makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Query, stream  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Catalogue blocks answered in each pass of a --trace 0 run: 100 queries or
# more, so that at least 10 lie beyond p90.
PASS_BLOCKS = {"fresh_ladders": 4, "minor_sweep": 5, "crosscheck": 3}
# Reported times are scaled to a host on which host_probe() takes this long
# inside a timed call; about what it takes on a 2-vCPU Xeon VM, so reference
# seconds are close to wall seconds there.
PROBE_REF_S = 0.0002
# How often host_probe() runs while a timed call runs.
PROBE_PERIOD_S = 0.005
PROBE_WARMUP = 100
# Hilbert-function values checked for queries that request none themselves.
CHECK_TERMS = 8


class SetupError(Exception):
    """The checkout cannot run the benchmark (no library source, bad pin)."""


def import_library():
    """Import laddergf afresh from this checkout's src/ directory.

    Earlier imports are dropped from sys.modules first, so every call pays
    the full module execution cost that set-up time is meant to include.
    """
    if not (SRC / "laddergf" / "__init__.py").is_file():
        raise SetupError(f"no library source under {SRC}")
    for name in [m for m in sys.modules if m == "laddergf" or m.startswith("laddergf.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("laddergf")
    if Path(lib.__file__).resolve().parent != SRC / "laddergf":
        raise SetupError(f"laddergf imported from {lib.__file__}, not {SRC}")
    return lib


def check_flagship(lib, reference: dict) -> None:
    """The 14x16 worked example: 32 pinned numerator coefficients / (1-z)^99."""
    pin = reference["flagship"]
    ladder = lib.validate_ladder(pin["a"], pin["b"], pin["f"])
    series = lib.hilbert_series(ladder, lib.Bivector(tuple(pin["u"]), tuple(pin["v"])))
    if list(series.z_coefficients) != pin["numerator"] or \
            series.denom_exponent != pin["denom_exponent"]:
        raise SetupError("flagship Hilbert series differs from its pinned value")


@dataclass
class Answer:
    series: object  # HilbertSeries from the recursive engine
    values: list | None = None  # series_expand output, when requested
    direct: object | None = None  # HilbertSeries from the direct engine


def answer(lib, q: Query, ladder=None) -> Answer:
    """One query through the public API, as a library user would send it."""
    if ladder is None:
        ladder = lib.validate_ladder(q.a, q.b, q.values)
    m = lib.Bivector(q.u, q.v)
    series = lib.hilbert_series(ladder, m, "recursive")
    values = lib.series_expand(series, q.terms) if q.terms else None
    direct = lib.hilbert_series(ladder, m, "direct") if q.both else None
    return Answer(series, values, direct)


class Tracer:
    """In-memory spans (name, start, end, parent index, query id) and counts."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.query = -1
        self.counts = dict.fromkeys(
            ("genfun.entries", "polyring.det_products_computed",
             "polyring.entry_terms", "polyring.result_bits",
             "polyring.expand_terms"), 0)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.query)

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)


def _series_traced(lib, tr: Tracer, ladder, cfg, q: Query, method: str):
    with tr.span(f"genfun.{method}"):
        matrix = lib.build_gf_matrix(ladder, cfg, method)
    with tr.span("polyring.det"):
        det = matrix.determinant()
    with tr.span("hilbert.assemble"):
        series = lib.HilbertSeries(lib.to_z_polynomial(det), q.denom_exponent)
    tr.counts["genfun.entries"] += q.n * q.n
    tr.counts["polyring.det_products_computed"] += q.n * 2 ** (q.n - 1)
    tr.counts["polyring.entry_terms"] += sum(
        1 for row in matrix.entries for e in row for c in e.coeffs if c)
    tr.counts["polyring.result_bits"] += max(abs(c) for c in det.coeffs).bit_length()
    return series


def answer_traced(lib, tr: Tracer, q: Query, ladder=None) -> Answer:
    """The same query as ``answer``, split at every module boundary.

    hilbert_series is endpoints_from_bivector, build_gf_matrix,
    GFMatrix.determinant, to_z_polynomial and HilbertSeries in turn; each
    call gets its own span, all children of one "query" span.
    """
    with tr.span("query"):
        with tr.span("model.endpoints"):
            if ladder is None:
                ladder = lib.validate_ladder(q.a, q.b, q.values)
            m = lib.Bivector(q.u, q.v)
            cfg = lib.endpoints_from_bivector(ladder, m)
        series = _series_traced(lib, tr, ladder, cfg, q, "recursive")
        values = None
        if q.terms:
            with tr.span("polyring.expand"):
                values = lib.series_expand(series, q.terms)
            tr.counts["polyring.expand_terms"] += q.terms
        direct = _series_traced(lib, tr, ladder, cfg, q, "direct") if q.both else None
    return Answer(series, values, direct)


def digest(series) -> str:
    text = ",".join(map(str, series.z_coefficients)) + f"/{series.denom_exponent}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(lib, q: Query, ans: Answer, pinned: str | None) -> list[str]:
    """Every property a correct answer has; returns the ones that fail."""
    problems = []
    series = ans.series
    coeffs = series.numerator.coeffs
    if series.z_coefficients[:1] != (1,):
        problems.append("numerator constant term is not 1")
    if any(coeffs[1::2]):
        problems.append("numerator has an odd power of q")
    try:
        lib.to_z_polynomial(series.numerator)
    except lib.OddExponentPresent:
        problems.append("to_z_polynomial rejects the numerator")
    if series.denom_exponent != q.denom_exponent:
        problems.append(f"denominator exponent {series.denom_exponent} != "
                        f"(a+b+3)n - sum(u+v) = {q.denom_exponent}")
    values = ans.values if q.terms else lib.series_expand(series, CHECK_TERMS)
    if len(values) != (q.terms or CHECK_TERMS) or values[:1] != [1] or \
            min(values) < 0:
        problems.append("Hilbert function values wrong or negative")
    if q.both and ans.direct != series:
        problems.append("direct and recursive engines disagree")
    if pinned is not None and digest(series) != pinned:
        problems.append("numerator differs from the stored digest")
    return problems


_PROBE_POWERS = [3 ** k for k in range(20)]


def _probe_calls(depth: int, acc: int) -> int:
    if depth == 0:
        return acc
    step = 0
    for k in range(3):
        step += (acc * k + depth) % 7
    return _probe_calls(depth - 1, acc + step)


def host_probe() -> float:
    """Time a fixed piece of pure-Python work, 0.12 ms or more on a 2-vCPU Xeon.

    It mixes the kinds of work the library does: big-integer products summed
    into a list, as in a polynomial product; nested calls on small integers,
    as in the engines' recursions; and dict updates keyed by tuples, as in
    their memo tables.  The collector is off while it runs, so whatever the
    library keeps in memory cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    out = [0] * (2 * len(_PROBE_POWERS))
    for i, x in enumerate(_PROBE_POWERS):
        for j, y in enumerate(_PROBE_POWERS):
            out[i + j] += x * y
    for _ in range(6):
        _probe_calls(20, 1)
    memo: dict[tuple[int, int], int] = {}
    for k in range(150):
        memo[k % 13, k % 7] = memo.get((k % 13, k % 7), 0) + k
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class HostClock:
    """Times calls in reference seconds, on a host whose speed drifts.

    On a shared host the speed of a CPU drifts by up to 1.5x, within tens of
    milliseconds as well as over minutes (other tenants' load), so the same
    query list answered in two runs can differ by a third in wall time.
    ``host_probe`` runs right before a timed call, every PROBE_PERIOD_S
    during it (from a SIGALRM handler) and right after it.  The call's wall
    time, less the probes that interrupted it, is multiplied by PROBE_REF_S
    over the probes' mean: its time in seconds on a host whose probe takes
    PROBE_REF_S.  The probes never run library code, so a change to the
    library moves reference seconds as much as wall seconds.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.started = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        for _ in range(PROBE_WARMUP):
            host_probe()

    def _tick(self, signum, frame) -> None:
        self.probes.append(host_probe())

    def start(self) -> None:
        self.probes = [host_probe()]
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> float:
        """Reference seconds since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self.started
        elapsed -= sum(self.probes[1:])
        self.probes.append(host_probe())
        return elapsed * PROBE_REF_S / statistics.fmean(self.probes)


class Session:
    """One workload run: the stream, the set-up, the checked query loop."""

    def __init__(self, workload: str, seed: int, scale: float):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.reference = json.loads(REFERENCE.read_text())
        pins = self.reference["digests"].get(workload, [])
        self.pins = pins if scale == 1.0 else []
        self.attempted = self.failed = 0
        self.failures: list[str] = []  # one line per failed check
        self.clock = HostClock()
        self.setups = []  # reference seconds of every set-up
        while len(self.setups) < SETUP_REPEATS:
            self.timed_set_up()

    def timed_set_up(self) -> None:
        """Set up again, on a fresh copy of the library, and time it."""
        gc.collect()  # frees the previous copy of the library
        self.clock.start()
        try:
            self.set_up()
        finally:
            seconds = self.clock.stop()
        self.setups.append(seconds)

    def set_up(self) -> None:
        """Import, input generation and the flagship warm-up.

        The generated input is the queries of one pass (PASS_BLOCKS); the
        stream goes on from there for the traced run.
        """
        self.stream = stream(self.workload, self.seed, self.scale)
        self.queries = [q for _ in range(PASS_BLOCKS[self.workload])
                        for q in next(self.stream)]
        self.lib = import_library()
        self.ladder = None
        if self.workload == "minor_sweep":  # one ladder shared by every query
            q = self.queries[0]
            self.ladder = self.lib.validate_ladder(q.a, q.b, q.values)
        check_flagship(self.lib, self.reference)

    def query(self, i: int) -> Query:
        while i >= len(self.queries):
            self.queries.extend(next(self.stream))
        return self.queries[i]

    def run(self, i: int, tracer: Tracer | None = None,
            clock: HostClock | None = None) -> float:
        """Answer query i, check it, return its latency: in reference
        seconds if ``clock`` times it, else in seconds."""
        q = self.query(i)
        self.attempted += 1
        start = time.perf_counter()
        if clock:
            clock.start()
        try:
            if tracer is None:
                ans = answer(self.lib, q, self.ladder)
            else:
                tracer.query = i
                ans = answer_traced(self.lib, tracer, q, self.ladder)
        except Exception as exc:  # a failed query is counted, not fatal
            ans = None
            problems = [f"{type(exc).__name__}: {exc}"]
        latency = clock.stop() if clock else time.perf_counter() - start
        if ans is not None:
            pinned = self.pins[q.key] if q.key < len(self.pins) else None
            problems = check(self.lib, q, ans, pinned)
        self.failed += bool(problems)
        self.failures.extend(f"query {i}: {p}" for p in problems)
        return latency

    def measure(self, seconds: float) -> list[list[float]]:
        """Answer the pass's queries, pass after pass, until ``seconds`` have
        passed; returns each query's latencies in reference seconds.

        The first pass is always finished, so every run times the same
        queries.  Every later pass starts with a new set-up, so it runs on a
        fresh copy of the library and a query never meets its own earlier
        answer in memory.  The heap is collected before every query, outside
        its time, so that no query meets another's garbage: without it the
        peak RSS moved by a tenth between seeds, with the order of queries.
        """
        samples: list[list[float]] = [[] for _ in self.queries]
        deadline = time.perf_counter() + seconds
        for number in itertools.count():
            if number:
                if time.perf_counter() >= deadline:
                    break
                self.timed_set_up()
            for i, times in enumerate(samples):
                if number and time.perf_counter() >= deadline:
                    break
                gc.collect()
                times.append(self.run(i, clock=self.clock))
        return samples

    def loop_paired(self, seconds: float, tracer: Tracer) -> list[float]:
        """Answer every query twice, untraced and traced, in alternating
        order; returns the untraced latencies.  Each pair runs at the same
        moment, so the traced/untraced ratio is not lost in the host's drift.
        """
        gc.collect()
        latencies = []
        deadline = time.perf_counter() + seconds
        for i in itertools.count():
            if time.perf_counter() >= deadline:
                break
            if i % 2:
                self.run(i, tracer)
            latencies.append(self.run(i))
            if not i % 2:
                self.run(i, tracer)
        return latencies


def end_to_end(latencies: list[float], setup_s: float) -> dict:
    """The end-to-end metrics from per-query latencies (reference seconds)."""
    return {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        "throughput_qps": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def per_layer(tr: Tracer, untraced_s: float) -> dict:
    total = tr.total("query")
    metrics = {"hilbert.queries": (sum(1 for s in tr.spans if s[0] == "query"), "count")}
    for layer in ("genfun.recursive", "genfun.direct", "polyring.det", "polyring.expand"):
        busy = tr.total(layer)
        metrics[f"{layer}_s"] = (busy, "s")
        metrics[f"{layer}_share"] = (busy / total, "ratio")
    metrics["model.endpoints_s"] = (tr.total("model.endpoints"), "s")
    metrics["hilbert.assemble_s"] = (tr.total("hilbert.assemble"), "s")
    metrics.update((k, (v, "count")) for k, v in tr.counts.items())
    metrics["trace.overhead"] = (total / untraced_s - 1, "ratio")
    return metrics


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def write_trace(tr: Tracer, meta: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{meta['workload']}-seed{meta['seed']}.json"
    path.write_text(json.dumps({
        "meta": meta,
        "fields": ["name", "start_s", "end_s", "parent", "query"],
        "spans": tr.spans,
    }))
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the generated ladders (below 1 for smoke tests)")
    args = p.parse_args(argv)

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale, "nproc": os.cpu_count(),
            "python": platform.python_version()}
    print("laddergf benchmark " + " ".join(f"{k}={v}" for k, v in meta.items()))
    try:
        session = Session(args.workload, args.seed, args.scale)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tracer = Tracer()
        untraced = session.loop_paired(args.seconds, tracer)
        metrics = per_layer(tracer, sum(untraced))
        print(f"spans written to {write_trace(tracer, meta).relative_to(ROOT)}")
    else:
        samples = session.measure(args.seconds)
        latencies = [statistics.median(times) for times in samples]
        metrics = end_to_end(latencies, statistics.median(session.setups))
        beyond = sum(1 for t in latencies if t > metrics["latency_p90_s"][0])
        answers = sum(map(len, samples))
        print(f"{len(latencies)} queries answered {answers / len(latencies):.2f} times "
              f"each on average in {len(session.setups) - SETUP_REPEATS + 1} passes, "
              f"{beyond} slower than p90; times in reference seconds")

    failed = session.failed
    for line in session.failures[:20]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'error_rate':34s} {failed / session.attempted:14.6g} "
          f"({failed}/{session.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
