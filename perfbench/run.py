"""End-to-end benchmark of the repro pipeline, with layer-attributed traces.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-figures --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each exists):

``cold-figures``
    ``run_experiments(figure1, figure2, figure7, figure8, jobs=2)`` into
    an empty result store, repeated with a fresh store per pass.
``warm-report``
    The same four ids plus ``table1`` and ``classification`` against a
    store that set-up filled with ``cold-figures``.
``service-mixed``
    ``repro serve --port 0 --jobs 1`` on an empty store, driven by a
    seeded Zipf sequence of the 29 cells of figure1+figure7 over two
    closed-loop connections, one fresh server per pass.

Every rendered report is compared byte for byte with its golden under
``benchmarks/results/``; every service reply is checked for repeat
consistency and fed through the figure synthesizers against the same
goldens.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` one traced pass (plus an
untraced pass at the same settings) gives per-layer metrics.  Any
failed operation makes the exit status non-zero.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import re
import resource
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(ROOT, "benchmarks", "results")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
LAUNCHER = os.path.join(HERE, "serve_traced.py")

sys.path.insert(0, HERE)

from arith import (  # noqa: E402
    cancelled_tracebacks,
    error_counts,
    median,
    min_samples,
    percentile,
    unattributed,
)

WORKLOADS = ("cold-figures", "warm-report", "service-mixed")
FIGURES = ("figure1", "figure2", "figure7", "figure8")
REPORTS = FIGURES + ("table1", "classification")
SERVICE_FIGURES = ("figure1", "figure7")
JOBS = 2
CONNECTIONS = 2
REQUESTS = 1000
ZIPF_EXPONENT = 1.0
IMPORT_SAMPLES = 3
HOST = "127.0.0.1"
REQUEST_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0

#: The knobs that change the work, at the defaults the goldens were
#: rendered with.  Every other ``REPRO_*`` variable is removed, so the
#: developer's shell cannot change what is measured.
PINNED_ENV = {
    "REPRO_TRACE_LENGTH": "200000",
    "REPRO_EXPERIMENT_SITE_SCALE": "0.125",
    "REPRO_SEED": "42",
    "REPRO_KERNEL": "auto",
    "REPRO_JOBS": "1",
    "REPRO_CACHE_MAX_BYTES": "0",
    "REPRO_SITE_SCALE": "1.0",
    "REPRO_SERVICE_HOST": HOST,
    "REPRO_SERVICE_PORT": "0",
    "REPRO_SERVICE_BATCH_WINDOW_MS": "5.0",
    "REPRO_SERVICE_MAX_BATCH": "64",
    "REPRO_SERVICE_QUEUE_LIMIT": "1024",
    "REPRO_SERVICE_TIMEOUT_S": "60.0",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or goldens)."""


# -- environment -----------------------------------------------------------

def isolate(work: str) -> dict:
    """Pin the process environment; returns the environment children get."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(PINNED_ENV)
    # Unset REPRO_TRACE_SUITE keeps trace regeneration; the directories
    # point inside the run's scratch area so nothing lands in the tree.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work, "default-store")
    os.environ["REPRO_TRACE_DIR"] = os.path.join(work, "traces")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = SRC
    return dict(os.environ)


def load_repro() -> dict[str, bytes]:
    """Import ``repro`` from this checkout; returns the goldens."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC}")
    goldens = {}
    for experiment_id in REPORTS:
        path = os.path.join(GOLDENS, f"{experiment_id}.txt")
        if not os.path.isfile(path):
            raise BenchError(f"missing golden {path}")
        with open(path, "rb") as stream:
            goldens[experiment_id] = stream.read()
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")
    return goldens


def import_seconds(env: dict, work: str) -> list[float]:
    """Fresh-interpreter import times of the public API (the set-up
    every ``repro`` invocation pays before its first call)."""
    code = ("import repro.runner.api, repro.runner.cache, "
            "repro.experiments.registry")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], env=env, cwd=work,
                       check=True)
        samples.append(time.perf_counter() - start)
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- results ---------------------------------------------------------------

@dataclass
class RunReport:
    """What one run measured, before it is printed."""

    workload: str
    seed: int
    outcomes: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, basis: str = "") -> None:
        self.metrics[name] = (value, basis)


def check_reports(reports: dict, goldens: dict[str, bytes]) -> list[str]:
    """Per report: byte-for-byte equal to its golden or not."""
    return ["ok" if report.render().encode("utf-8") == goldens[experiment_id]
            else "mismatch" for experiment_id, report in reports.items()]


def report_pass(ids, store, jobs, goldens):
    """One measured ``run_experiments`` call: (wall, outcomes, summary)."""
    from repro.runner.api import run_experiments
    from repro.runner.cache import ResultCache

    cache = ResultCache(store)
    gc.collect()
    start = time.perf_counter()
    reports, summary = run_experiments(list(ids), jobs=jobs, cache=cache)
    wall = time.perf_counter() - start
    return wall, check_reports(reports, goldens), summary


def seeded_order(ids, seed: int) -> list[str]:
    order = list(ids)
    random.Random(seed).shuffle(order)
    return order


def fresh_store(work: str) -> str:
    return tempfile.mkdtemp(prefix="store-", dir=work)


def busy_metrics(summary, wall: float, out: RunReport) -> None:
    busy = sum(stats.seconds for stats in summary.workers.values())
    out.put("runner.worker_busy_s", busy)
    out.put("runner.parallel_efficiency",
            busy / (summary.jobs * wall) if wall > 0 else 0.0)


# -- cold-figures / warm-report --------------------------------------------

def cold_figures(args, work, env, goldens) -> RunReport:
    out = RunReport("cold-figures", args.seed)
    ids = seeded_order(FIGURES, args.seed)
    if args.trace:
        return traced_reports(out, ids, work, goldens, jobs=1, store=None)
    imports = import_seconds(env, work)
    walls = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        store = fresh_store(work)
        wall, outcomes, _ = report_pass(ids, store, JOBS, goldens)
        shutil.rmtree(store)
        walls.append(wall)
        out.outcomes += outcomes
    out.put("setup_s", median(imports),
            f"median of {len(imports)} fresh-interpreter imports")
    report_metrics(out, walls, len(ids))
    return out


def warm_report(args, work, env, goldens) -> RunReport:
    out = RunReport("warm-report", args.seed)
    ids = seeded_order(REPORTS, args.seed)
    fill_ids = seeded_order(FIGURES, args.seed)
    if args.trace:
        store = fresh_store(work)
        _, outcomes, _ = report_pass(fill_ids, store, JOBS, goldens)
        out.outcomes += outcomes
        return traced_reports(out, ids, work, goldens, jobs=JOBS, store=store)
    imports = import_seconds(env, work)
    store = fresh_store(work)
    fill, outcomes, _ = report_pass(fill_ids, store, JOBS, goldens)
    out.outcomes += outcomes
    walls = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        wall, outcomes, summary = report_pass(ids, store, JOBS, goldens)
        if summary.simulated:
            out.notes.append(f"warm pass simulated {summary.simulated} cells")
            outcomes = ["error"] * len(outcomes)
        walls.append(wall)
        out.outcomes += outcomes
    # One fill: a second would cost a whole cold pass per run, and the
    # fill's run-to-run spread is far inside the set-up bound.
    out.put("setup_s", median(imports) + fill,
            f"median of {len(imports)} imports + one store fill")
    report_metrics(out, walls, len(ids))
    return out


def report_metrics(out: RunReport, walls: list[float], reports: int) -> None:
    wall = median(walls)
    out.put("wall_s", wall, f"median of {len(walls)} passes")
    out.notes.append(f"p50_ms {wall * 1000.0:.1f} (one operation = one "
                     f"run_experiments call, n={len(walls)})")
    out.notes.append(f"p99_ms n/a: needs {min_samples(99)} samples, "
                     f"have {len(walls)}")
    out.notes.append(f"requests_per_s {reports / wall:.4f} (reports)")
    out.notes.append("passes_s " + " ".join(f"{w:.3f}" for w in walls))


def traced_reports(out, ids, work, goldens, jobs, store) -> RunReport:
    """Per-layer figures: an untraced pass at the timed settings, then an
    untraced and a traced pass at ``jobs`` (1 for cold-figures, since
    pool workers cannot hand their spans back)."""
    import tracing

    def pass_store():
        return store if store is not None else fresh_store(work)

    wall, outcomes, summary = report_pass(ids, pass_store(), JOBS, goldens)
    out.outcomes += outcomes
    busy_metrics(summary, wall, out)
    # Not the first pass in the process, like the traced pass after it.
    untraced, outcomes, _ = report_pass(ids, pass_store(), jobs, goldens)
    out.outcomes += outcomes
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced, outcomes, _ = report_pass(ids, pass_store(), jobs, goldens)
    finally:
        uninstall()
    out.outcomes += outcomes
    layers, own = tracing.layer_metrics(tracer.spans, tracer.counts)
    for name, value in layers.items():
        out.put(name, value)
    out.put("unattributed_s", unattributed(traced, own))
    out.put("trace_overhead_s", traced - untraced,
            f"traced {traced:.3f}s - untraced {untraced:.3f}s at jobs={jobs}")
    return out


# -- service-mixed ---------------------------------------------------------

def service_cells(ctx) -> list:
    from repro.experiments.registry import get_cells

    cells = []
    for experiment_id in SERVICE_FIGURES:
        cells += get_cells(experiment_id)(ctx)
    return list(dict.fromkeys(cells))


def request_sequence(cells: list, seed: int) -> list:
    """:data:`REQUESTS` cells, seeded Zipf popularity, each cell at least once."""
    rng = random.Random(seed)
    ranked = list(cells)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    sequence = ranked + rng.choices(ranked, weights, k=REQUESTS - len(ranked))
    rng.shuffle(sequence)
    return sequence


@dataclass
class ServicePass:
    """One server lifetime driven through one request sequence."""

    setup: float = 0.0
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    first_touch: list[bool] = field(default_factory=list)
    outcomes: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    tracebacks: int = 0
    problem: str = ""


async def drive(port: int, wires: list[dict], started: float, result: ServicePass):
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    clients = [await ServiceClient.connect(HOST, port) for _ in range(CONNECTIONS)]
    try:
        health = await asyncio.wait_for(clients[0].health(), REQUEST_TIMEOUT_S)
        result.setup = time.perf_counter() - started
        if health.get("status") != "ok":
            raise ServiceError(f"server not healthy: {health}")
        records: list = [None] * len(wires)

        async def loop(client, indices):
            for index in indices:
                sent = time.perf_counter()
                try:
                    reply = await asyncio.wait_for(
                        client.submit(wires[index]), REQUEST_TIMEOUT_S)
                except asyncio.TimeoutError:
                    reply = {"type": "timeout"}
                except ServiceError as exc:
                    reply = {"type": "error", "error": str(exc)}
                records[index] = (sent, time.perf_counter() - sent, reply)

        start = time.perf_counter()
        await asyncio.gather(*(
            loop(client, range(k, len(wires), CONNECTIONS))
            for k, client in enumerate(clients)
        ))
        result.wall = time.perf_counter() - start
        result.stats = await asyncio.wait_for(clients[0].stats(), REQUEST_TIMEOUT_S)
        await asyncio.wait_for(clients[0].shutdown(), REQUEST_TIMEOUT_S)
        return records
    finally:
        for client in clients:
            await client.close()


def read_port(proc, deadline: float) -> int | None:
    """The bound port from the server's first stdout line."""
    while time.perf_counter() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline().decode("utf-8", "replace")
            match = re.search(r"serving on \S+:(\d+)", line)
            return int(match.group(1)) if match else None
        if proc.poll() is not None:
            return None
    return None


def service_pass(
    work, env, sequence, goldens, traced=False
) -> tuple[ServicePass, str | None]:
    """Start a server, drive ``sequence`` through it, stop it, check it.

    Returns the pass and, for a traced pass, the server's span file.
    """
    from repro.service.protocol import cell_to_wire

    result = ServicePass()
    pass_dir = tempfile.mkdtemp(prefix="serve-", dir=work)
    spans_path = os.path.join(pass_dir, "spans.json") if traced else None
    program = [LAUNCHER, spans_path] if traced else ["-m", "repro"]
    command = [sys.executable, *program, "serve", "--port", "0", "--jobs", "1",
               "--cache-dir", os.path.join(pass_dir, "store"),
               "--stats-file", os.path.join(pass_dir, "stats.json")]
    stderr_path = os.path.join(pass_dir, "stderr.txt")
    wires = [cell_to_wire(cell) for cell in sequence]
    records = None
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr,
                                cwd=pass_dir, env=env)
        try:
            port = read_port(proc, started + SERVER_START_TIMEOUT_S)
            if port is None:
                result.problem = "server did not start"
            else:
                try:
                    records = asyncio.run(drive(port, wires, started, result))
                except Exception as exc:  # any client failure fails the pass
                    result.problem = f"client failed: {exc!r}"
            try:
                status = proc.wait(timeout=SERVER_START_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                status = None
                result.problem = result.problem or "server did not exit"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    with open(stderr_path, encoding="utf-8", errors="replace") as stream:
        errors = stream.read()
    result.tracebacks = cancelled_tracebacks(errors)
    if status not in (0, None) and not result.problem:
        result.problem = f"server exited with status {status}"
    if result.problem:
        tail = errors.strip().splitlines()[-5:]
        result.problem += "".join(f"\n    server: {line}" for line in tail)
    if records is None or result.problem:
        result.outcomes = ["error"] * len(sequence)
        return result, spans_path
    check_service(sequence, records, goldens, result)
    return result, spans_path


def check_service(sequence, records, goldens, result: ServicePass) -> None:
    """RunReport per request: reply type, repeat consistency, goldens."""
    from repro.core.metrics import SimulationResult
    from repro.experiments.common import ExperimentContext
    from repro.experiments.registry import get_cells, synthesize

    first: dict = {}
    outcomes = []
    for cell, (_, _, reply) in zip(sequence, records):
        kind = reply["type"]
        if kind in ("timeout", "rejected", "error"):
            outcomes.append(kind)
        elif kind != "result":
            outcomes.append("error")
        elif first.setdefault(cell, reply["result"]) != reply["result"]:
            outcomes.append("mismatch")
        else:
            outcomes.append("ok")
    ctx = ExperimentContext()
    results = {cell: SimulationResult.from_dict(payload)
               for cell, payload in first.items()}
    for experiment_id in SERVICE_FIGURES:
        cells = set(get_cells(experiment_id)(ctx))
        try:
            text = synthesize(experiment_id, ctx, results).render().encode("utf-8")
        except KeyError:
            text = b""
        if text != goldens[experiment_id]:
            outcomes = ["mismatch" if cell in cells else outcome
                        for cell, outcome in zip(sequence, outcomes)]
    result.outcomes = outcomes
    seen = set()
    for index in sorted(range(len(records)), key=lambda i: records[i][0]):
        result.first_touch.append(sequence[index] not in seen)
        result.latencies.append(records[index][1])
        seen.add(sequence[index])


def service_mixed(args, work, env, goldens) -> RunReport:
    from repro.experiments.common import ExperimentContext

    out = RunReport("service-mixed", args.seed)
    sequence = request_sequence(service_cells(ExperimentContext()), args.seed)
    if args.trace:
        return traced_service(out, work, env, sequence, goldens)
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < args.seconds:
        result, _ = service_pass(work, env, sequence, goldens)
        passes.append(result)
        out.outcomes += result.outcomes
        if result.problem:
            out.notes.append(result.problem)
            break
    latencies = [latency for p in passes for latency in p.latencies]
    walls = [p.wall for p in passes if not p.problem]
    setups = [p.setup for p in passes if not p.problem]
    if not walls:
        return out
    out.put("setup_s", median(setups),
            f"median of {len(setups)} server starts until health answers")
    out.put("wall_s", median(walls),
            f"median of {len(walls)} passes of {len(sequence)} requests")
    out.notes.append(f"p50_ms {percentile(latencies, 50) * 1000.0:.3f} "
                     f"(n={len(latencies)} requests)")
    out.notes.append(f"p99_ms {percentile(latencies, 99) * 1000.0:.3f} "
                     f"(n={len(latencies)} requests)")
    out.notes.append(f"requests_per_s {len(latencies) / sum(walls):.1f}")
    out.notes.append("shutdown_tracebacks "
                     f"{sum(p.tracebacks for p in passes)}")
    return out


def traced_service(out, work, env, sequence, goldens) -> RunReport:
    import tracing

    untraced, _ = service_pass(work, env, sequence, goldens)
    out.outcomes += untraced.outcomes
    traced, spans_path = service_pass(work, env, sequence, goldens, traced=True)
    out.outcomes += traced.outcomes
    for problem in (untraced.problem, traced.problem):
        if problem:
            out.notes.append(problem)
    if untraced.problem or traced.problem:
        return out
    spans, counts = tracing.Tracer.load(spans_path)
    layers, own = tracing.layer_metrics(spans, counts)
    for name, value in layers.items():
        out.put(name, value)
    out.put("runner.worker_busy_s", 0.0, "no pool at --jobs 1")
    out.put("runner.parallel_efficiency", 0.0, "no pool at --jobs 1")
    hits = [lat for lat, first in zip(traced.latencies, traced.first_touch) if not first]
    misses = [lat for lat, first in zip(traced.latencies, traced.first_touch) if first]
    scheduler = traced.stats.get("scheduler", {})
    out.put("service.hit_p50_ms", percentile(hits, 50) * 1000.0,
            f"n={len(hits)} repeat requests")
    out.put("service.miss_p50_ms", percentile(misses, 50) * 1000.0,
            f"n={len(misses)} first touches")
    out.put("service.execute_s",
            sum(s.duration for s in spans if s.name == "runner.execute"))
    out.put("service.memo_hit_ratio",
            scheduler.get("cache_hits", 0) / max(scheduler.get("submitted", 0), 1))
    out.put("service.batches", scheduler.get("batches", 0))
    out.put("service.cells_per_batch",
            scheduler.get("batched_cells", 0) / max(scheduler.get("batches", 0), 1))
    out.put("service.rejected", scheduler.get("rejected", 0))
    out.put("service.timeouts", scheduler.get("timeouts", 0))
    out.put("service.shutdown_tracebacks",
            untraced.tracebacks + traced.tracebacks)
    out.put("unattributed_s", unattributed(traced.wall, own),
            "client wall minus server layer self time")
    out.put("trace_overhead_s", traced.wall - untraced.wall)
    return out


# -- output ----------------------------------------------------------------

def declared(key: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return {metric["name"]: metric["unit"] for metric in json.load(stream)[key]}


def finish(out: RunReport, trace: bool) -> int:
    attempted, failed, rate = error_counts(out.outcomes)
    wanted = declared("per_layer" if trace else "end_to_end")
    if not trace and out.metrics:
        out.put("peak_rss_mb", peak_rss_mb(),
                "max of this process and its children")
    metrics = {}
    print(f"workload {out.workload} seed {out.seed} "
          f"({'traced' if trace else 'untraced'})")
    for name, unit in wanted.items():
        # A per-layer metric that does not apply to this workload reads 0.
        value, basis = out.metrics.get(name, (0.0, "n/a here"))
        if trace or name in out.metrics:
            metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<32} {value:>14.6f} {unit:<6} {basis}")
    for note in out.notes:
        print(f"  {note}")
    print(f"  error_rate {rate:.4f} ({failed} of {attempted} operations failed)")
    correct = failed == 0 and attempted > 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="'all' runs each workload in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        statuses = [
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for workload in WORKLOADS
        ]
        return max(statuses)

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        env = isolate(work)
        try:
            goldens = load_repro()
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        runner = {"cold-figures": cold_figures, "warm-report": warm_report,
                  "service-mixed": service_mixed}[args.workload]
        out = runner(args, work, env, goldens)
        return finish(out, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
