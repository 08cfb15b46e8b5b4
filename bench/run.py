"""The arcs benchmark: one closed-loop client driving the public API.

    python3 bench/run.py --workload repair-sandbox --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``arcs`` from
``src/``. Tasks run one after another, as ``arcs sweep`` runs them. The last
line of standard output is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` each task also runs a second time under the span tracer and
the metrics are the per-layer ones. The line before it holds machine and
input facts. NOTES.md says why each workload exists and what it loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "arcs" / "__init__.py").is_file():
    sys.exit(f"bench: no arcs package under {ROOT / 'src'}; run from a source checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from arcs import controller, corpus, retrieval  # noqa: E402
from arcs.embedding import HashingEmbedder  # noqa: E402
from arcs.errors import NoCandidateError  # noqa: E402
from arcs.executor import ProcessExecutor, TestCase, TestSuite  # noqa: E402
from arcs.model import ScriptedModel  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from layers import per_layer  # noqa: E402
from spans import TracedEmbedder, TracedExecutor, TracedModel, Tracer  # noqa: E402

BUDGET = 5  # large tier: k=10, B=5, planning on
WARM_QUERY = "read input lines"
TOP_K_SAMPLES = 8


@dataclass(frozen=True)
class Workload:
    setups: int  # set-up repeats per run; setup_s is their median
    corpus_items: int
    median_lines: float  # body length of corpus definitions
    tests: int  # suite size
    big_tests: int  # tests per suite printing about 100 KB
    denylist: int  # identifiers excluded from retrieval; 0 for none


WORKLOADS = {
    "repair-sandbox": Workload(
        setups=9, corpus_items=300, median_lines=6.0, tests=4, big_tests=1, denylist=0
    ),
    "repair-retrieval": Workload(
        setups=3, corpus_items=10_000, median_lines=40.0, tests=1, big_tests=0, denylist=64
    ),
}
REINGEST_FILES = 20  # files ingested twice to check that equal bytes give equal digests


class Run:
    """Counters, timings and facts of one benchmark run."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.tracer = Tracer() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[dict[str, float]] = []
        self.op_seconds: list[float] = []  # untraced tasks
        self.traced_seconds: list[float] = []  # the same tasks, traced
        self.facts: dict = {}

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def deadline_passed(self, started: float) -> bool:
        return time.perf_counter() - started >= self.args.seconds

    def measure(self, number: int, operation) -> None:
        """Time task ``number``; ``operation(traced)`` returns its seconds.

        An untraced run calls it once. A traced run calls it untraced and
        traced, in alternating order, so that ``trace.overhead_frac``
        compares the same work.
        """
        order = (False,) if self.tracer is None else (number % 2 == 1, number % 2 == 0)
        for traced in order:
            (self.traced_seconds if traced else self.op_seconds).append(operation(traced))


def prepare_corpus(workload: Workload, seed: int, workdir: Path) -> dict:
    """Generate, ingest and save the corpus in a child process.

    The child keeps ingest memory out of this process's peak RSS, which then
    covers set-up and the task loop only.
    """
    snapshot = workdir / "corpus.snapshot"
    command = [
        sys.executable,
        str(Path(__file__)),
        "--prepare",
        str(workdir),
        "--seed",
        str(seed),
        "--corpus-items",
        str(workload.corpus_items),
        "--median-lines",
        str(workload.median_lines),
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"corpus preparation failed with exit code {child.returncode}")
    facts = json.loads(child.stdout.strip().splitlines()[-1])
    facts["path"] = str(snapshot)
    return facts


def prepare_main(workdir: Path, seed: int, items: int, median_lines: float) -> None:
    paths = gen.write_source_tree(workdir / "tree", seed, items, median_lines)
    embedder = HashingEmbedder()
    started = time.perf_counter()
    snapshot = corpus.ingest(paths, embedder)
    ingested = time.perf_counter()
    corpus.save_snapshot(snapshot, workdir / "corpus.snapshot")
    saved = time.perf_counter()
    sample = paths[:REINGEST_FILES]
    digests = [corpus.ingest(sample, embedder).content_digest for _ in range(2)]
    shutil.rmtree(workdir / "tree")
    facts = {
        "items": len(snapshot),
        "digest": snapshot.content_digest,
        "reingest_digests": digests,
        "ingest_s": ingested - started,
        "save_s": saved - ingested,
    }
    print(json.dumps(facts))


def setup(run: Run, path: str, k: int):
    """Load the snapshot, answer the first query, build the executor."""
    tracer = run.tracer
    started = time.perf_counter()
    snapshot = corpus.load_snapshot(path)
    loaded = time.perf_counter()
    embedder = HashingEmbedder(snapshot.dimension)
    retrieval.top_k(retrieval.RetrievalQuery(WARM_QUERY, k), snapshot, embedder)
    queried = time.perf_counter()
    executor = ProcessExecutor()
    built = time.perf_counter()
    run.setup.append(
        {
            "total": built - started,
            "load": loaded - started,
            "first_query": queried - loaded,
            "executor": built - queried,
        }
    )
    if tracer is not None:
        traced = TracedEmbedder(embedder, tracer), TracedExecutor(executor, tracer)
        return snapshot, embedder, executor, *traced
    return snapshot, embedder, executor, None, None


def run_task(run: Run, task, suite, tier, deps, traced: bool) -> float:
    """One ``run()`` call, checked against the script; returns its seconds."""
    tracer = run.tracer
    started = time.perf_counter()
    if traced:
        tracer.task = task.id
        with tracer.patched(), tracer.span("controller.run") as info:
            run_log, program = _run_once(task, suite, tier, deps)
        tracer.task = None
        info["cost_units"] = run_log.cost.total
        info["rounds"] = len(run_log.rounds)
    else:
        run_log, program = _run_once(task, suite, tier, deps)
    elapsed = time.perf_counter() - started
    run.record(checks.check_task(task, run_log, program))
    return elapsed


def _run_once(task, suite, tier, deps):
    try:
        result = controller.run(task.spec, suite, tier, deps)
    except NoCandidateError as exc:
        return exc.run_log, None
    return result.log, result.program


def repair(run: Run, workload: Workload) -> None:
    args = run.args
    prepared = prepare_corpus(workload, args.seed, run.workdir)
    first, again = prepared["reingest_digests"]
    run.record([] if first == again else [f"re-ingest digest {again} != first {first}"])
    tier = controller.TierConfig.large(iterations=BUDGET)
    rss_before = current_rss_mb()
    for _ in range(workload.setups):
        state = None
        gc.collect()
        state = setup(run, prepared["path"], tier.k)
        run.record(checks.check_round_trip(prepared["digest"], state[0], workload.corpus_items))
    snapshot, embedder, executor, traced_embedder, traced_executor = state
    size = os.path.getsize(prepared["path"])
    gc.collect()
    run.facts["corpus"] = {
        "items": len(snapshot),
        "bytes": size,
        "rss_kb_per_item": (current_rss_mb() - rss_before) * 1024 / len(snapshot),
    }
    run.facts["prepare"] = {"ingest_s": prepared["ingest_s"], "save_s": prepared["save_s"]}

    denylist = gen.denylist(random.Random(args.seed + 2), workload.denylist) or None
    rng = random.Random(args.seed)
    tasks_run = []
    started = time.perf_counter()
    while not tasks_run or not run.deadline_passed(started):
        cycle = gen.task_cycle(rng, len(tasks_run), workload.tests, workload.big_tests, BUDGET)
        for task in cycle:
            suite = TestSuite(cases=tuple(TestCase(c.id, c.input, c.expected) for c in task.cases))
            model = ScriptedModel(list(task.script))
            plain = controller.RunDeps(
                model=model,
                executor=executor,
                snapshot=snapshot,
                embedder=embedder,
                denylist=denylist,
            )
            traced = plain
            if run.tracer is not None:
                traced = dataclasses.replace(
                    plain,
                    model=TracedModel(model, run.tracer),
                    executor=traced_executor,
                    embedder=traced_embedder,
                )
            run.measure(
                len(tasks_run),
                lambda on: run_task(run, task, suite, tier, traced if on else plain, on),
            )
            tasks_run.append(task)

    check_top_k_sample(run, tasks_run, snapshot, embedder, denylist)
    run.facts["samples"] = {"tasks": len(run.op_seconds), "setups": workload.setups}
    run.facts["shapes"] = sorted({task.shape for task in tasks_run})


def check_top_k_sample(run: Run, tasks, snapshot, embedder, denylist) -> None:
    """A seeded sample of top-k answers against a numpy brute-force scan."""
    rng = random.Random(run.args.seed + 1)
    matrix = np.array([item.embedding for item in snapshot.items], dtype=np.float64)
    names = [item.signature.split("(", 1)[0].split()[-1] for item in snapshot.items]
    allowed = np.array([name not in (denylist or ()) for name in names])
    run.facts["denylisted_items"] = int((~allowed).sum())
    queries = [subgoal for task in tasks for subgoal in task.subgoals]
    for text in rng.sample(queries, min(TOP_K_SAMPLES, len(queries))):
        k = rng.choice((3, 10))
        result = retrieval.top_k(retrieval.RetrievalQuery(text, k), snapshot, embedder, denylist)
        query = np.array(embedder.embed(text), dtype=np.float64)
        scores = np.where(allowed, checks.brute_force_scores(matrix, query), -np.inf)
        run.record(checks.check_top_k(result.indices(), result.scores(), scores, k))


# ------------------------------------------------------------------ metrics


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    ops = run.op_seconds
    corpus_facts = run.facts["corpus"]
    return {
        "setup_s": (statistics.median(s["total"] for s in run.setup), "s"),
        "op_s.p50": (statistics.median(ops), "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "snapshot_bytes_per_item": (corpus_facts["bytes"] / corpus_facts["items"], "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def current_rss_mb() -> float:
    """Resident set size of this process now (``ru_maxrss`` gives only the peak)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def machine_speed() -> float:
    """Median seconds of a fixed pure-Python loop: how fast this machine is now.

    Other work on a shared host can slow it by a third within a minute, so
    every result records this before and after its measurements.
    """
    samples = []
    for _ in range(9):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "threads": threading.active_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--corpus-items", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--median-lines", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.prepare is not None:
        prepare_main(args.prepare, args.seed, args.corpus_items, args.median_lines)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(workdir / "tmp")  # sandbox workspaces stay inside the checkout
    run = Run(args, workdir)
    workload = WORKLOADS[args.workload]
    speed_before = machine_speed()
    try:
        repair(run, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if run.tracer is None:
        metrics = end_to_end(run)
    else:
        metrics = per_layer(run)
        out = BENCH / ".out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(spans_path)
        print(f"bench: {len(run.tracer.spans)} spans written to {spans_path}", file=sys.stderr)
    for problem in run.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": vars(workload),
        **machine_facts(),
        **run.facts,
        "loop_s_before": speed_before,
        "loop_s_after": machine_speed(),
        "op_seconds": run.op_seconds,
        "setup_seconds": [s["total"] for s in run.setup],
    }
    print(json.dumps({"facts": facts}))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
