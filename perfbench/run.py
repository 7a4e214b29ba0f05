"""Benchmark for quasiadj: one workload, one seed, one process.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's `src/`; the run stops with an error if `quasiadj` resolves
anywhere else.  A closed loop (one caller, one thread) issues one CLI query
at a time, each as `quasiadj.cli.main(argv + ["--format", "structured",
"--out", F])`, and checks every report (see checks.py).  Caches persist
across queries, as they would for a script calling the library.

Set-up (importing the library, generating the pass of queries and writing
their chart files) is timed SETUP_REPEATS times before the queries and as
many times after; setup_s is the median.

--trace 0 runs the seed's pass of queries (see workloads.py) once to warm
up, then again, whole, until --seconds of query time have passed (at least
MIN_PASSES times), and prints the end-to-end metrics over all timed
queries.  Repeating one pass keeps the content of a run the same for every
seed, so runs differ by the host and the program only.  The library keeps
no cache of whole results (its caches hold cyclotomic polynomials and
Koszul complexes), so a repeated query does its work again.  A change that
cached whole results would show here as a speedup, and in the traced run,
which runs every query twice, as a drop in the call counts.
--trace 1 runs the pass once, each query once untraced and once with span
tracing installed (see spans.py), alternating which goes first.  It
requires byte-identical reports and prints the per-layer metrics; the
tracing overhead is the traced query time minus the untraced.
--self-test checks that every generator is deterministic and exits.
--record merges the report digests of the pass (the bench corpus) into
digests.json; later runs count the reports that differ from them as
reports_changed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it records
the seed, nproc, the Python version, failed_frac and reports_changed.  Spans
and a copy of the result go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import yaml

import checks
import spans
import workloads

try:
    from yaml import CSafeLoader as _Loader
except ImportError:
    from yaml import SafeLoader as _Loader

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 5
MIN_PASSES = 3


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# set-up


def load_library() -> tuple[object, dict]:
    """Import quasiadj afresh from this checkout's src/ (empty caches)."""
    if not (SRC / "quasiadj" / "__init__.py").is_file():
        raise BenchError("no src/quasiadj in %s" % ROOT)
    for name in [n for n in sys.modules if n == "quasiadj" or n.startswith("quasiadj.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("quasiadj")
    where = Path(package.__file__).resolve().parent
    if where != (SRC / "quasiadj").resolve():
        raise BenchError("quasiadj resolves to %s, not %s" % (where, SRC / "quasiadj"))
    modules = {layer: importlib.import_module("quasiadj." + layer) for layer in spans.LAYERS}
    return package, modules


def setup(workload: str, seed: int, workdir: Path):
    """Import the library, generate the pass and write its chart files."""
    package, modules = load_library()
    queries = workloads.WORKLOADS[workload](seed)
    for q in queries:
        if q.chart is not None:
            (workdir / ("chart-%d.yaml" % q.qid)).write_text(q.chart)
    return package, modules, queries


# ---------------------------------------------------------------------------
# queries


class Result:
    __slots__ = ("wall", "cpu", "code", "error", "data")

    def __init__(self, wall, cpu, code, error, data):
        self.wall, self.cpu, self.code, self.error, self.data = wall, cpu, code, error, data


def execute(cli, q, workdir: Path) -> Result:
    out = workdir / "report.yaml"
    if out.exists():
        out.unlink()
    chart = str(workdir / ("chart-%d.yaml" % q.qid))
    argv = [a.replace("{chart}", chart) for a in q.argv] + ["--format", "structured", "--out", str(out)]
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a failed query, not a crashed benchmark
        code, error = None, "%s: %s" % (type(exc).__name__, exc)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    data = out.read_bytes() if code == 0 and out.exists() else None
    return Result(wall, cpu, code, error, data)


def digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()[:16]


class Ledger:
    """Correctness bookkeeping shared by both modes."""

    def __init__(self, workload: str, recorded: dict):
        self.workload = workload
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first: dict[int, str | None] = {}
        self.digests: dict[str, str] = {}
        self.compared = 0
        self.changed = 0
        self.characters = 0

    def fail(self, q, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append("query %d (%s): %s" % (q.qid, " ".join(q.argv), message))

    def record(self, q, res: Result) -> None:
        """Check one execution.  The first execution of a query is checked
        in full; repeats must give the same bytes."""
        self.attempted += 1
        d = digest(res.data)
        if q.qid in self.first:
            if d != self.first[q.qid]:
                self.fail(q, "report differs from its first execution")
            return
        self.first[q.qid] = d
        if res.error is not None:
            self.fail(q, res.error)
            return
        report = yaml.load(res.data, Loader=_Loader) if res.data is not None else None
        problems = checks.verify(q.command, q.params, res.code, report)
        if problems:
            self.fail(q, "; ".join(problems[:3]))
            return
        key = q.key()
        self.digests[key] = d
        if key in self.recorded:
            self.compared += 1
            self.changed += self.recorded[key] != d
        if q.command == "betti":
            self.characters += sum(t["audit"]["characters"] for t in report.values())
        elif q.command == "milnor":
            self.characters += report["order_bound"] - 1


# ---------------------------------------------------------------------------
# the two modes


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_timed(cli, queries, workdir, seconds, ledger) -> tuple[dict, dict]:
    """One warm-up pass, then whole passes until `seconds` of query time
    have passed."""
    for q in queries:
        ledger.record(q, execute(cli, q, workdir))
    passes: list[list[Result]] = []
    while sum(map(pass_seconds, passes)) < seconds or len(passes) < MIN_PASSES:
        gc.collect()  # each pass starts with the same collector state
        results = [execute(cli, q, workdir) for q in queries]
        for q, res in zip(queries, results):
            ledger.record(q, res)
        passes.append(results)
    timed = [res for results in passes for res in results]
    walls = [res.wall for res in timed]
    metrics = {
        "queries_per_s": (len(walls) / sum(walls), "1/s"),
        "query_p50_s": (quantile(walls, 0.5), "s"),
        "query_p90_s": (quantile(walls, 0.9), "s"),
        "cpu_per_query_s": (sum(res.cpu for res in timed) / len(timed), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"queries": len(queries), "timed_passes": len(passes), "samples": len(walls),
            "pass_s": [round(pass_seconds(p), 3) for p in passes], "query_s": walls}
    return metrics, info


def pass_seconds(results: list[Result]) -> float:
    return sum(res.wall for res in results)


# per-layer call counts: metric -> wrapped function
SPAN_COUNTS = {
    "ratgeom.lp_calls": "ratgeom.lp_maximize",
    "quasiadjunction.face_searches": "quasiadjunction.faces_of_quasiadjunction",
    "charvariety.principal_f_calls": "charvariety.principal_f",
    "charvariety.component_searches": "charvariety.principal_components",
    "charvariety.subtori_built": "charvariety.make_subtorus",
    "resolution.subunions": "resolution.delete_component",
    "resolution.loads": "resolution.load_resolution",
    "koszul.oracle_calls": "koszul.oracle_f",
    "koszul.field_builds": "koszul.field_for",
    "cyclotomic.rank_calls": "cyclotomic.matrix_rank",
}
COVER_ENTRIES = ("covers.betti_unbranched", "covers.betti_branched", "covers.milnor_fiber")


def run_traced(package, modules, batch, workdir, ledger, seed) -> tuple[dict, dict]:
    cli = modules["cli"]
    tracer = spans.Tracer()
    plain, traced = [], []

    def run_traced_query(q):
        tracer.qid = q.qid
        uninstall = tracer.install(package, modules)
        try:
            return execute(cli, q, workdir)
        finally:
            uninstall()

    for k, q in enumerate(batch):
        if k % 2:
            b = run_traced_query(q)
            a = execute(cli, q, workdir)
        else:
            a = execute(cli, q, workdir)
            b = run_traced_query(q)
        ledger.record(q, a)
        if digest(b.data) != digest(a.data) or b.code != a.code:
            ledger.fail(q, "report differs with tracing on")
        plain.append(a)
        traced.append(b)
    summary = tracer.summary()
    calls, inclusive = summary["calls"], summary["inclusive_s"]
    for q, b in zip(batch, traced):
        # the layers' self times must add up to the query's cli.main span,
        # and that span must fit inside the query's measured wall time
        if summary["roots"].get(q.qid) != 1:
            ledger.fail(q, "%s root spans, expected one cli.main" % summary["roots"].get(q.qid))
        elif abs(summary["root_s"][q.qid] - summary["query_self_s"][q.qid]) > 1e-6:
            ledger.fail(q, "layer self times do not add up to the query span")
        elif summary["root_s"][q.qid] > b.wall:
            ledger.fail(q, "query span is longer than the query")
    faces = tracer.counters["quasiadjunction.faces"]
    cover_s = sum(inclusive[name] for name in COVER_ENTRIES)
    metrics = {"%s.self_s" % layer: (summary["self_s"][layer], "s") for layer in spans.LAYERS}
    metrics.update({name: (calls[span], "count") for name, span in SPAN_COUNTS.items()})
    metrics.update({
        "ratgeom.lp_s": (inclusive["ratgeom.lp_maximize"], "s"),
        "ratgeom.lp_per_face": (calls["ratgeom.lp_maximize"] / faces if faces else 0.0, "lp/face"),
        "quasiadjunction.searches_per_query": (
            calls["quasiadjunction.faces_of_quasiadjunction"] / len(batch), "count/query"),
        "quasiadjunction.faces": (faces, "count"),
        "covers.characters": (ledger.characters, "count"),
        "covers.characters_per_s": (ledger.characters / cover_s if cover_s else 0.0, "1/s"),
        "cyclotomic.rank_entries": (tracer.counters["cyclotomic.rank_entries"], "count"),
        "cyclotomic.rank_s": (inclusive["cyclotomic.matrix_rank"], "s"),
        "cli.report_bytes": (sum(len(r.data or b"") for r in plain), "B"),
        "resolution.load_s": (inclusive["resolution.load_resolution"], "s"),
        "trace.queries": (len(batch), "count"),
        "trace.span_share": (sum(summary["root_s"].values()) / sum(r.wall for r in traced), "1"),
        "trace.spans": (summary["spans"], "count"),
        "trace.overhead_s": (sum(r.wall for r in traced) - sum(r.wall for r in plain), "s"),
    })
    tracer.write(OUT / ("spans-%s-%d.json" % (ledger.workload, seed)), {
        "workload": ledger.workload, "seed": seed, "queries": [q.qid for q in batch]})
    info = {
        "traced_queries": len(batch),
        "untraced_s": round(sum(r.wall for r in plain), 4),
        "traced_s": round(sum(r.wall for r in traced), 4),
    }
    return metrics, info


# ---------------------------------------------------------------------------


def self_test() -> list[str]:
    """Same seed, same queries; different seeds, different queries."""
    problems = []

    def content(queries):
        return [(q.argv, q.chart, q.params) for q in queries]

    for name, generate in workloads.WORKLOADS.items():
        for seed in (0, 1, 12345):
            if content(generate(seed)) != content(generate(seed)):
                problems.append("%s: seed %d gives two different query lists" % (name, seed))
        if content(generate(0)) == content(generate(1)):
            problems.append("%s: seeds 0 and 1 give the same query list" % name)
    return problems


def record_digests(workload: str, digests: dict) -> None:
    """Merge digests into digests.json, refusing to overwrite a different one."""
    book = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    known = book.setdefault(workload, {})
    clashes = [k for k, d in digests.items() if known.get(k, d) != d]
    if clashes:
        raise BenchError("%d reports differ from the recorded digests" % len(clashes))
    known.update(digests)
    book[workload] = dict(sorted(known.items()))
    DIGESTS.write_text(json.dumps(book, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check generator determinism and exit")
    parser.add_argument("--record", action="store_true", help="merge corpus report digests into digests.json")
    args = parser.parse_args(argv)
    if args.self_test:
        problems = self_test()
        print("\n".join(problems) or "self-test passed: generators are deterministic")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    load_library()  # fail before making any directory

    workdir = OUT / ("%s-%d" % (args.workload, args.seed))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_times, lists = [], []

    def timed_setup():
        t0 = time.perf_counter()
        built = setup(args.workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        lists.append([(q.argv, q.chart) for q in built[2]])
        return built

    try:
        # set-up is timed SETUP_REPEATS times before the queries and as many
        # after, so its median does not hang on one moment's host load
        for _ in range(SETUP_REPEATS):
            package, modules, queries = timed_setup()
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}) if DIGESTS.exists() else {}
        ledger = Ledger(args.workload, recorded)
        if args.trace:
            metrics, info = run_traced(package, modules, queries, workdir, ledger, args.seed)
        else:
            metrics, info = run_timed(modules["cli"], queries, workdir, args.seconds, ledger)
        for _ in range(SETUP_REPEATS):
            timed_setup()
        if not args.trace:
            metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics}
        if any(lst != lists[0] for lst in lists):
            ledger.failed += 1
            ledger.failures.append("the same seed generated different query lists")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record and ledger.failed == 0:
        record_digests(args.workload, ledger.digests)

    query_s = info.pop("query_s", None)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "failed_frac": ledger.failed / max(ledger.attempted, 1),
        "reports_changed": ledger.changed,
        "reports_compared": ledger.compared,
    })
    for line in ledger.failures:
        print("FAILED %s" % line)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print("# " + json.dumps(info))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / ("result-%s-%d-%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps({"info": info, **result, "digests": ledger.digests, "query_s": query_s}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
