"""Per-layer metrics of a traced run, from its spans and set-up timings.

A layer is a module of ``arcs``; a span belongs to the layer named before
the first dot of its name. Self time is a span's duration minus the time its
child spans cover. Shares divide a layer's self time inside tasks by the
tasks' total wall time (the ``controller.run`` spans). Corpus and set-up
figures are timed directly: ingest and save in the corpus-building child,
load, first query and executor construction in each set-up.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# Layers called inside tasks; corpus work happens before them (see above).
LAYERS = ("executor", "retrieval", "embedding", "prompting", "planner", "model", "controller")
VERDICTS = ("pass", "wrong_output", "exception")


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(run) -> dict[str, tuple[float, str]]:
    tracer = run.tracer
    own = tracer.self_times()
    durations = defaultdict(list)
    infos = defaultdict(list)
    selves = defaultdict(list)
    layer_self = defaultdict(float)
    for (name, start, end, _parent, task, info), self_time in zip(tracer.spans, own):
        durations[name].append(end - start)
        infos[name].append(info)
        selves[name].append(self_time)
        if task is not None:
            layer_self[name.split(".", 1)[0]] += self_time
    task_total = sum(durations["controller.run"])

    def total(name, key):
        return sum(info[key] for info in infos[name])

    executed = infos["executor.execute"]
    verdicts = [verdict for info in executed for verdict in info["verdicts"]]
    truncations = infos["prompting.truncate"]
    setup = run.setup
    prepared = run.facts["prepare"]
    metrics = {
        "executor.execute_s.p50": (_p50(durations["executor.execute"]), "s"),
        "executor.per_test_s": (
            _ratio(sum(durations["executor.execute"]), total("executor.execute", "tests")),
            "s",
        ),
        "executor.calls": (len(executed), "count"),
        "executor.tests": (total("executor.execute", "tests"), "count"),
        **{f"executor.verdict.{kind}": (verdicts.count(kind), "count") for kind in VERDICTS},
        "retrieval.refresh_s.p50": (_p50(durations["retrieval.refresh"]), "s"),
        "retrieval.top_k_s.p50": (_p50(durations["retrieval.top_k"]), "s"),
        "retrieval.top_k_s.p90": (_p90(durations["retrieval.top_k"]), "s"),
        "retrieval.filter_s.p50": (_p50(durations["retrieval.filter"]), "s"),
        "retrieval.top_k.calls": (len(durations["retrieval.top_k"]), "count"),
        "retrieval.filter.kept_ratio": (
            _ratio(total("retrieval.filter", "kept"), total("retrieval.filter", "in")),
            "frac",
        ),
        "corpus.load_s": (_p50(s["load"] for s in setup), "s"),
        "corpus.ingest_s": (prepared["ingest_s"], "s"),
        "corpus.save_s": (prepared["save_s"], "s"),
        "corpus.items": (run.facts["corpus"]["items"], "count"),
        "setup.first_query_s": (_p50(s["first_query"] for s in setup), "s"),
        "setup.executor_s": (_p50(s["executor"] for s in setup), "s"),
        "embedding.embed_s.p50": (_p50(durations["embedding.embed"]), "s"),
        "embedding.calls": (len(durations["embedding.embed"]), "count"),
        "embedding.chars_per_s": (
            _ratio(total("embedding.embed", "chars"), sum(selves["embedding.embed"])),
            "chars/s",
        ),
        "prompting.compose_s.p50": (_p50(durations["prompting.compose"]), "s"),
        "prompting.truncate_s.p50": (_p50(durations["prompting.truncate"]), "s"),
        "prompting.tokens.p50": (_p50(info["tokens"] for info in truncations), "tokens"),
        "prompting.truncated_ratio": (
            _ratio(sum(info["truncated"] for info in truncations), len(truncations)),
            "frac",
        ),
        "prompting.segments_dropped": (total("prompting.truncate", "dropped"), "count"),
        "planner.plan_s.p50": (_p50(durations["planner.plan"]), "s"),
        "planner.calls": (len(durations["planner.plan"]), "count"),
        "planner.gated": (sum(info["gated"] for info in infos["planner.plan"]), "count"),
        "model.propose_s.p50": (_p50(durations["model.propose"]), "s"),
        "model.calls": (len(durations["model.propose"]), "count"),
        "model.input_tokens": (total("model.propose", "input_tokens"), "tokens"),
        "model.output_tokens": (total("model.propose", "output_tokens"), "tokens"),
        "controller.run_s.p50": (_p50(durations["controller.run"]), "s"),
        "controller.self_s.p50": (_p50(selves["controller.run"]), "s"),
        "controller.rounds_per_task": (
            _p50(info["rounds"] for info in infos["controller.run"]),
            "count",
        ),
        "controller.cost_units_per_task": (
            _p50(info["cost_units"] for info in infos["controller.run"]),
            "units",
        ),
        **{
            f"{layer}.self_share": (_ratio(layer_self[layer], task_total), "frac")
            for layer in LAYERS
        },
        "trace.overhead_frac": (sum(run.traced_seconds) / sum(run.op_seconds) - 1.0, "frac"),
    }
    return metrics
