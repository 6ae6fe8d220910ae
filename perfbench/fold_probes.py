"""Direct timings of the serving layers below the gateway and the
transport, on an in-process engine -- artifact load, fold-in fixed and
per-query cost, top-k similarity -- and the shard balance an engine's
``info()`` reports."""

from __future__ import annotations

from common import timed_ms

REPEATS = 7


def engine_probes(engine, artifact, make_query, similar_node,
                  object_type=None) -> dict:
    """``engine`` serves ``artifact`` in process; ``make_query()``
    returns a fresh transient query each call, so no probe hits the
    query cache."""
    from repro.serving.artifact import ModelArtifact

    def score(size: int):
        return lambda: engine.score_many(
            [make_query() for _ in range(size)]
        )

    ten_ms = timed_ms(score(10), REPEATS)
    forty_ms = timed_ms(score(40), REPEATS)
    return {
        "artifact.load_s": timed_ms(
            lambda: ModelArtifact.load(artifact, mmap=True), REPEATS
        ) / 1e3,
        "foldin.batch_fixed_ms": timed_ms(score(1), REPEATS),
        "foldin.per_query_us": (forty_ms - ten_ms) / 30 * 1e3,
        "topk.similar_ms": timed_ms(
            lambda: engine.similar_many(
                [similar_node()], k=10, object_type=object_type
            ),
            REPEATS,
        ),
    }


def shard_balance(info: dict) -> float:
    """Max / mean owned rows (plan rows + extension nodes) per shard,
    from a ``ShardedEngine.info()``."""
    cluster = info["cluster"]
    owned = [
        entry["num_rows"] + extra
        for entry, extra in zip(
            cluster["plan"]["shards"], cluster["shard_extension_nodes"]
        )
    ]
    return max(owned) / (sum(owned) / len(owned))
