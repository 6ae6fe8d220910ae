"""The ``serve_rpc`` workload: one library caller in a closed loop on a
process-transport ``ShardedEngine``.

``python3 perfbench/serve_rpc.py INPUT_DIR SEED CYCLES TRACE`` is the
program process (the caller, with the router in it); the benchmark
runs it fresh and reads the JSON it prints.

Per run:

1. ``setup_s``: ``SETUPS`` times, ``ShardedEngine.load(artifact,
   n_shards=2, transport="process", mmap=True)`` timed to the first
   correct ``score_many`` answer; the last engine runs the ops below.
   ``SETUPS`` more engines load (and close) after them, so the samples
   span the run.
2. Warm-up ops (not measured), then the RSS high-water marks of the
   caller and both workers are reset.
3. ``CYCLES`` seeded op cycles, each op timed from its send.  A cycle
   is one op of each kind, each ``BATCH`` rows wide: ``score_many`` of
   held-out papers (partly masked titles plus author and venue
   links), ``similar_many`` masked to authors, an ``extend`` and an
   ``add_links`` write, then an ``evict`` down to ``BATCH`` extension
   nodes.  Every query is distinct, so the query cache never hits.
   ``throughput_per_s`` is answer rows (scored queries, similarity
   rows, folded nodes, added links) per second of the sequence.
   ``BATCH`` is the 20-query batch of the repository's earlier
   transport measurements; the one-of-each mix is an assumption, not
   measured traffic.
4. The same op sequence replays on an in-process ``ShardedEngine``
   with the same shard count; every answer of the process transport
   must equal it bitwise (the determinism contract), or the op fails.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import (
    Stopwatch,
    bits,
    emit,
    median,
    peak_rss_mb,
    quantile,
    reset_peak_rss,
    run_child,
    use_checkout_source,
)

SETUPS = 4  # engine loads before and after the op sequence
SHARDS = 2
BATCH = 20
CYCLE = ("score", "similar", "extend", "add_links", "evict")
WARMUP_OPS = 6
CYCLES_PER_SECOND = 20  # fixed op count per second of --seconds


# ----------------------------------------------------------------------
# harness side
# ----------------------------------------------------------------------
def run_serve_rpc(seed: int, seconds: int, trace: bool) -> dict:
    from inputs import ensure, served_nmi

    directory = ensure("dblp_artifact")
    nmi, nmi_failures = served_nmi(directory)
    cycles = seconds * CYCLES_PER_SECOND
    child = run_child(
        "serve_rpc.py", str(directory), str(seed), str(cycles),
        str(int(trace)),
    )
    latencies = child["latency_s"]
    e2e = {
        "setup_s": median(child["setup_s"]),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p90_ms": quantile(latencies, 0.9) * 1e3,
        "throughput_per_s": child["rows"] / child["elapsed_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "nmi": nmi,
    }
    return {
        # the child's setups and ops, and the served-model NMI check
        "attempted": child["attempted"] + 1,
        "failed": child["failed"] + len(nmi_failures),
        "e2e": e2e,
        "layers": child.get("layers", {}),
        "report": {
            "ops": len(latencies),
            "cycles": cycles,
            "rows": child["rows"],
            "elapsed_s": child["elapsed_s"],
            "setup_s": child["setup_s"],
            "failures": (nmi_failures + child["failures"])[:5],
        },
    }


# ----------------------------------------------------------------------
# program side
# ----------------------------------------------------------------------
class Traffic:
    """Seeded, distinct queries and writes built from held-out papers."""

    def __init__(self, heldout: dict, rng) -> None:
        self.papers = heldout["papers"]
        self.base_papers = heldout["base_papers"]
        self.authors = heldout["authors"]
        self.rng = rng
        self.seen: set = set()
        self.extended = 0

    def _pick(self, items, low: int):
        count = int(self.rng.integers(low, len(items) + 1))
        chosen = self.rng.choice(len(items), size=count, replace=False)
        return [items[i] for i in sorted(chosen)]

    def query(self) -> dict:
        """A held-out paper with a masked title and a subset of its
        author links: distinct from every query drawn before."""
        while True:
            paper = self.papers[int(self.rng.integers(len(self.papers)))]
            authors = self._pick(paper["authors"], 1)
            title = self._pick(paper["title"], 1)
            key = (paper["id"], tuple(authors), tuple(title))
            if key not in self.seen:
                self.seen.add(key)
                break
        links = [("written_by", author, 1.0) for author in authors]
        links.append(("published_by", paper["venue"], 1.0))
        return {
            "object_type": "paper",
            "links": links,
            "text": {"title": title},
        }

    def new_node(self):
        from repro.serving.foldin import NewNode

        spec = self.query()
        self.extended += 1
        return NewNode(
            node=f"x{self.extended}",
            object_type="paper",
            links=tuple(spec["links"]),
            text=spec["text"],
        )

    def op(self, kind: str, recent: list):
        if kind == "score":
            return ("score", [self.query() for _ in range(BATCH)])
        if kind == "similar":
            nodes = self.rng.choice(
                len(self.base_papers), size=BATCH, replace=False
            )
            return ("similar", [self.base_papers[i] for i in nodes])
        if kind == "extend":
            specs = [self.new_node() for _ in range(BATCH)]
            recent[:] = [spec.node for spec in specs]
            return ("extend", specs)
        if kind == "evict":
            return ("evict", BATCH)
        links = [
            (
                recent[i % len(recent)],
                "written_by",
                self.authors[int(self.rng.integers(len(self.authors)))],
                1.0,
            )
            for i in range(BATCH)
        ]
        return ("add_links", links)

    def sequence(self, cycles: int) -> list:
        ops, recent = [], []
        for _ in range(cycles):
            ops.extend(self.op(kind, recent) for kind in CYCLE)
        return ops


def apply(engine, op):
    kind, payload = op
    if kind == "score":
        return engine.score_many(payload)
    if kind == "similar":
        return engine.similar_many(payload, k=10, object_type="author")
    if kind == "extend":
        return engine.extend(payload)
    if kind == "add_links":
        return engine.add_links(payload)
    return engine.evict(payload)


def rows_of(op) -> int:
    kind, payload = op
    return 0 if kind == "evict" else len(payload)


def same(kind: str, got, want) -> bool:
    """Bitwise equality of two answers to the same op: arrays by their
    bytes, every other float by its bit pattern."""
    import numpy as np

    if kind == "score":
        return len(got) == len(want) and all(
            a.tobytes() == b.tobytes() for a, b in zip(got, want)
        )
    if kind in ("extend", "add_links"):
        return got.nodes == want.nodes and np.asarray(
            got.theta
        ).tobytes() == np.asarray(want.theta).tobytes()
    return bits(got) == bits(want)


def timed_ops(engine, ops) -> tuple[list, list, float]:
    """Run ``ops`` back to back: answers (or the raised error),
    per-op seconds, and the wall time of the sequence."""
    answers, seconds = [], []
    start = time.perf_counter()
    for op in ops:
        sent = time.perf_counter()
        try:
            answers.append(apply(engine, op))
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            answers.append(exc)
        seconds.append(time.perf_counter() - sent)
    return answers, seconds, time.perf_counter() - start


def by_kind(ops, seconds, kind: str) -> float:
    """Median seconds of the ops of one kind, in ms."""
    return median(
        s for (k, _), s in zip(ops, seconds) if k == kind
    ) * 1e3


def main(argv: list[str]) -> None:
    use_checkout_source()
    import numpy as np

    from repro.serving import ShardedEngine

    directory = Path(argv[0])
    seed, cycles, trace = (int(value) for value in argv[1:4])
    artifact = directory / "artifact"
    with (directory / "heldout.json").open(encoding="utf-8") as handle:
        traffic = Traffic(json.load(handle), np.random.default_rng(seed))
    probe = [traffic.query()]
    warmup = [traffic.op("score", []) for _ in range(WARMUP_OPS)]
    warmup += [traffic.op("similar", []) for _ in range(WARMUP_OPS)]
    ops = traffic.sequence(cycles)

    inproc_load_s = []
    for _ in range(SETUPS):
        with Stopwatch() as loading:
            reference = ShardedEngine.load(artifact, SHARDS, mmap=True)
        inproc_load_s.append(loading.seconds)
        want = reference.score_many(probe)[0].tobytes()
        reference.close()

    setup_s, load_s, probe_failures = [], [], []

    def start():
        """A process-transport engine, timed to its first answer."""
        start = time.perf_counter()
        engine = ShardedEngine.load(
            artifact, SHARDS, transport="process", mmap=True
        )
        load_s.append(time.perf_counter() - start)
        try:
            got = engine.score_many(probe)[0].tobytes()
        except BaseException:
            engine.close()
            raise
        setup_s.append(time.perf_counter() - start)
        if got != want:
            probe_failures.append(f"first answer of setup {len(load_s)}")
        return engine

    for _ in range(SETUPS - 1):
        start().close()
    engine = start()
    try:
        for op in warmup:
            apply(engine, op)
        pids = ["self"] + [handle.pid for handle in engine.shards]
        for pid in pids:
            reset_peak_rss(pid)
        answers, seconds, elapsed = timed_ops(engine, ops)
        rss = sum(peak_rss_mb(pid) for pid in pids)
        info = engine.info()
    finally:
        engine.close()
    for _ in range(SETUPS):
        start().close()

    reference = ShardedEngine.load(artifact, SHARDS, mmap=True)
    want_answers, inproc_seconds, _ = timed_ops(reference, ops)
    failures = probe_failures + [
        f"op {index} {op[0]}: {got!r}"[:200]
        for index, (op, got, want) in enumerate(
            zip(ops, answers, want_answers)
        )
        if isinstance(got, Exception)
        or isinstance(want, Exception)
        or not same(op[0], got, want)
    ]
    payload = {
        "setup_s": setup_s,
        "latency_s": seconds,
        "attempted": len(setup_s) + len(ops),
        "elapsed_s": elapsed,
        "rows": sum(rows_of(op) for op in ops),
        "peak_rss_mb": rss,
        "failed": len(failures),
        "failures": failures,
    }
    if trace:
        payload["layers"] = rpc_layers(
            ops, seconds, inproc_seconds, load_s, inproc_load_s, info,
            reference, artifact, traffic,
        )
    reference.close()
    emit(payload)


def rpc_layers(ops, seconds, inproc_seconds, load_s, inproc_load_s, info,
               reference, artifact, traffic) -> dict:
    from fold_probes import engine_probes, shard_balance
    from repro.obs import Observability
    from repro.serving import ShardedEngine

    def overhead(kind: str) -> float:
        return by_kind(ops, seconds, kind) - by_kind(
            ops, inproc_seconds, kind
        )

    cache = info["cache"]
    lookups = cache["hits"] + cache["misses"]
    served = info["queries"]["served"]
    probes = engine_probes(
        reference,
        artifact,
        traffic.query,
        lambda: traffic.base_papers[
            int(traffic.rng.integers(len(traffic.base_papers)))
        ],
        object_type="author",
    )
    # the op sequence again on a fresh process engine that records the
    # router's spans: the price of tracing
    traced = ShardedEngine.load(
        artifact, SHARDS, transport="process", mmap=True,
        obs=Observability(trace=True),
    )
    try:
        _, traced_seconds, _ = timed_ops(traced, ops)
    finally:
        traced.close()
    score_inproc_ms = by_kind(ops, inproc_seconds, "score")
    return {
        "worker.spawn_s": median(load_s) - median(inproc_load_s),
        "engine.cache_hit_ratio": cache["hits"] / lookups if lookups else 0,
        "router.dedup_ratio": lookups / served if served else 0.0,
        "router.shard_balance": shard_balance(info),
        "transport.rpc_overhead_ms.score_many": overhead("score"),
        "transport.rpc_overhead_ms.similar_many": overhead("similar"),
        "transport.rpc_overhead_ms.extend": overhead("extend"),
        "transport.rpc_overhead_ms.add_links": overhead("add_links"),
        "engine.extend_ms": by_kind(ops, seconds, "extend"),
        "engine.add_links_ms": by_kind(ops, seconds, "add_links"),
        "engine.evict_ms": by_kind(ops, seconds, "evict"),
        "engine.extension_nodes": info["num_extension_nodes"],
        "serve.latency_p99_ms": quantile(seconds, 0.99) * 1e3,
        "serve.latency_samples": len(seconds),
        # the part of an in-process score_many that the fold-in cost
        # model (fixed + per query) does not explain: router dedup,
        # scatter and merge
        "serve.unattributed_ms": score_inproc_ms - (
            probes["foldin.batch_fixed_ms"]
            + BATCH * probes["foldin.per_query_us"] / 1e3
        ),
        "trace.overhead_pct": (
            median(traced_seconds) / median(seconds) - 1.0
        ) * 100.0,
        **probes,
    }


if __name__ == "__main__":
    main(sys.argv[1:])
