"""The ``serve_http`` workload: the shipped HTTP server under a
single-process load generator.

The server is ``python -m repro.serving serve ARTIFACT --shards 1
--mmap --workers-inproc`` on a weather_xl v3 artifact (in-process shard
workers: with worker processes the gateway, the worker and the client
oversubscribe 2 CPUs and capacity stops repeating).  This process is
the load generator: asyncio on at most two keep-alive connections.

Per run:

1. ``setup_s``: ``SETUPS`` server starts, each timed from spawn to the
   first correct ``/score`` answer; the last one serves the phases
   below.  ``SETUPS`` more servers start (and stop) between the two
   phases, and ``SETUPS`` after them, so the samples span the run.
2. Warm-up requests (not measured), then the server's RSS high-water
   mark is reset.
3. Open loop: ``OPEN_RATE`` requests/s on a fixed schedule; latency is
   timed from each request's due time, so a stall charges every
   request queued behind it.  ``latency_p50_ms`` / ``latency_p90_ms``.
4. Closed loop: both connections send back to back;
   ``throughput_per_s`` is queries (score rows + similarity rows) per
   second.
5. A seeded sample of answers must equal, bitwise, an in-process
   ``ShardedEngine`` on the same artifact given the same engine call
   (JSON round-trips floats exactly; a ``/similar`` flushed together
   with the other connection's is compared with that pair).  A non-200,
   a wrong first answer, a degraded row or a wrong answer fails its
   request.

Traffic: ``SCORE_SHARE`` of requests are ``POST /score`` with
``QUERIES_PER_REQUEST`` sensor queries, the rest ``POST /similar`` at
k=10; ``HOT_SHARE`` of queries and similarity nodes repeat from a hot
set of ``HOT_SET`` each, so the engine cache and the router's batch
dedup do work.  The request shapes (10 queries, k=10) are the ones the
repository's gateway benchmark and similarity serving use; the three
shares are assumptions, not measured traffic, and the engine cache hit
ratio, the dedup ratio and the throughput follow from them.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from common import (
    CACHE,
    BenchError,
    Stopwatch,
    bits,
    median,
    peak_rss_mb,
    program_env,
    quantile,
    reset_peak_rss,
)
from inputs import ensure, load_meta, served_nmi

SETUPS = 3  # server starts before, between and after the phases
OPEN_RATE = 60.0  # requests/s: ~40% of closed-loop capacity (~155 req/s, 2 CPUs)
CONNECTIONS = 2
QUERIES_PER_REQUEST = 10
SCORE_SHARE = 0.8  # assumed
HOT_SHARE = 0.3  # assumed
HOT_SET = 32  # assumed
K = 10
WARMUP_REQUESTS = 40
VERIFY_SHARE = 0.1
# closed-loop requests per second of --seconds: a fixed count (the open
# loop sends OPEN_RATE * --seconds)
CLOSED_REQUESTS_PER_S = 100


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
def sensor_query(rng, meta: dict) -> dict:
    """A fresh sensor: kNN-style links to fitted sensors plus Gaussian
    observations of its own type."""
    n_t, n_p = meta["n_temperature"], meta["n_precipitation"]
    temperature = rng.random() < 2 / 3
    level = float(rng.integers(1, 5))
    t_links = rng.choice(n_t, size=5, replace=False)
    p_links = rng.choice(n_p, size=5, replace=False)
    if temperature:
        links = [["tt", f"T{i}", 1.0] for i in t_links] + [
            ["tp", f"P{i}", 1.0] for i in p_links
        ]
        numeric = {"temperature": rng.normal(level, 0.2, 10).tolist()}
        object_type = "temperature_sensor"
    else:
        links = [["pt", f"T{i}", 1.0] for i in t_links] + [
            ["pp", f"P{i}", 1.0] for i in p_links
        ]
        numeric = {"precipitation": rng.normal(level, 0.2, 10).tolist()}
        object_type = "precipitation_sensor"
    return {"object_type": object_type, "links": links, "numeric": numeric}


def engine_query(query: dict) -> dict:
    """The library form of a JSON query: links as tuples."""
    return {**query, "links": [tuple(link) for link in query["links"]]}


def base_node(rng, meta: dict) -> str:
    index = int(rng.integers(meta["n_temperature"] + meta["n_precipitation"]))
    if index < meta["n_temperature"]:
        return f"T{index}"
    return f"P{index - meta['n_temperature']}"


def make_requests(rng, meta: dict, count: int, hot_queries, hot_nodes):
    """``count`` requests as ``(path, payload)``."""
    requests = []
    for _ in range(count):
        if rng.random() < SCORE_SHARE:
            queries = [
                hot_queries[int(rng.integers(len(hot_queries)))]
                if rng.random() < HOT_SHARE
                else sensor_query(rng, meta)
                for _ in range(QUERIES_PER_REQUEST)
            ]
            requests.append(("/score", {"queries": queries}))
        else:
            node = (
                hot_nodes[int(rng.integers(len(hot_nodes)))]
                if rng.random() < HOT_SHARE
                else base_node(rng, meta)
            )
            requests.append(
                ("/similar", {"nodes": [node], "k": K, "metric": "cosine"})
            )
    return requests


def request_rows(path: str, payload: dict) -> int:
    return len(payload["queries"] if path == "/score" else payload["nodes"])


# ----------------------------------------------------------------------
# the HTTP/1.1 keep-alive client
# ----------------------------------------------------------------------
class Reply(NamedTuple):
    status: int
    body: bytes
    latency_s: float  # from due (open loop) or send (closed loop)
    late_s: float  # how late the generator sent it
    sent: float
    done: float


class Connection:
    def __init__(self, reader, writer, host: str) -> None:
        self._reader, self._writer, self._host = reader, writer, host

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, host)

    async def call(self, method: str, path: str, body: bytes = b""):
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status = int((await self._reader.readline()).split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self._reader.readexactly(length)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def drive(host, port, bodies, rate: float | None):
    """Send ``bodies`` over ``CONNECTIONS`` keep-alive connections.

    ``rate`` set: open loop, request ``i`` is due at ``start + i/rate``
    and its latency runs from that due time.  ``rate`` None: closed
    loop, latency runs from the send.  Returns a :class:`Reply` per
    request and the phase's wall time.
    """
    connections = [
        await Connection.open(host, port) for _ in range(CONNECTIONS)
    ]
    results: list = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    start = time.perf_counter() + (0.01 if rate else 0.0)

    async def worker(connection: Connection) -> None:
        for index in cursor:
            path, body = bodies[index]
            due = start + index / rate if rate else time.perf_counter()
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            status, reply = await connection.call("POST", path, body)
            done = time.perf_counter()
            results[index] = Reply(
                status, reply, done - due, sent - due, sent, done
            )

    try:
        await asyncio.gather(*(worker(c) for c in connections))
        elapsed = time.perf_counter() - start
    finally:
        for connection in connections:
            await connection.close()
    return results, elapsed


def encoded(requests) -> list:
    return [
        (path, json.dumps(payload).encode("utf-8"))
        for path, payload in requests
    ]


async def fetch(host, port, method, path, body=b""):
    connection = await Connection.open(host, port)
    try:
        return await connection.call(method, path, body)
    finally:
        await connection.close()


# ----------------------------------------------------------------------
# /metrics: Prometheus text, deltas between two scrapes
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: str) -> dict[str, float]:
    samples: dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match:
            key = match.group(1) + (match.group(2) or "")
            samples[key] = samples.get(key, 0.0) + float(match.group(3))
    return samples


def scrape(host, port) -> dict[str, float]:
    """One ``GET /metrics``, parsed."""
    _, body = asyncio.run(fetch(host, port, "GET", "/metrics"))
    return parse_metrics(body.decode("utf-8"))


def delta(before: dict, after: dict) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


def histogram_mean(samples: dict, name: str) -> float:
    count = samples.get(f"{name}_count", 0.0)
    return samples.get(f"{name}_sum", 0.0) / count if count else 0.0


def histogram_quantile(samples: dict, name: str, q: float) -> float:
    """Quantile from fixed cumulative buckets, linear within a bucket
    (the Prometheus ``histogram_quantile`` rule)."""
    bounds = []
    for key, value in samples.items():
        match = re.match(rf'^{name}_bucket\{{.*le="([^"]+)".*\}}$', key)
        if match and match.group(1) != "+Inf":
            bounds.append((float(match.group(1)), value))
    bounds.sort()
    total = samples.get(f"{name}_count", 0.0)
    if not total:
        return 0.0
    target = q * total
    lower, below = 0.0, 0.0
    for bound, cumulative in bounds:
        if cumulative >= target:
            share = (target - below) / max(cumulative - below, 1e-12)
            return lower + (bound - lower) * share
        lower, below = bound, cumulative
    return lower


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class Server:
    """One ``python -m repro.serving serve`` process."""

    def __init__(self, artifact: Path, log: Path) -> None:
        self._log = log.open("w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "serve", str(artifact),
             "--shards", "1", "--mmap", "--workers-inproc", "--port", "0"],
            env=program_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("READY "):
            self.stop()
            raise BenchError(f"server did not start: {line!r}, see {log}")
        host_port = line.split()[1].split("//", 1)[1]
        host, port = host_port.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def expected(engine, path: str, payload: dict):
    """The in-process answer, in the HTTP body's JSON shape."""
    if path == "/score":
        rows = engine.score_many(
            [engine_query(query) for query in payload["queries"]]
        )
        return {
            "results": [[float(v) for v in row] for row in rows],
            "degraded": 0,
        }
    return {"results": similar_json(engine, payload["nodes"], payload)}


def similar_json(engine, nodes, payload) -> list:
    from repro.serving.transport import encode_node

    ranked = engine.similar_many(
        nodes, k=payload["k"], metric=payload["metric"]
    )
    return [
        [[encode_node(found), float(score)] for found, score in entry]
        for entry in ranked
    ]


def similar_batched(engine, index, replies, requests) -> list:
    """The answers ``/similar`` request ``index`` gets when the gateway
    flushes it in one ``similar_many`` together with the ``/similar``
    request in flight on the other connection, in either order.

    ``similar_many`` scores differ in the last bit with batch
    composition, so a flushed pair is compared with the same pair
    in process."""
    mine = replies[index]
    path, payload = requests[index]
    answers = []
    for other, reply in enumerate(replies):
        if other == index or requests[other][0] != "/similar":
            continue
        if reply.sent < mine.done and mine.sent < reply.done:
            pair = requests[other][1]["nodes"] + payload["nodes"]
            answers.append(similar_json(engine, pair, payload)[1:])
            answers.append(
                similar_json(engine, pair[::-1], payload)[:1]
            )
    return answers


def check_phase(replies, requests, sample, engine) -> tuple[list, int]:
    """Check a phase's replies: every reply must be a 200 without
    degraded rows, and each sampled reply must equal, bitwise, the
    in-process engine's answer to the same engine call (every float
    compared by its bit pattern).  Returns the
    failures and the number of ``/similar`` replies that matched only
    as part of a flushed pair."""
    failures, paired = [], 0
    for index, reply in enumerate(replies):
        body = json.loads(reply.body) if reply.status == 200 else None
        if body is None or body.get("degraded", 0):
            failures.append(
                f"request {index}: HTTP {reply.status} {reply.body[:200]!r}"
            )
            continue
        if index not in sample:
            continue
        want = expected(engine, *requests[index])
        if bits(body) == bits(want):
            continue
        if requests[index][0] == "/similar" and bits(body["results"]) in (
            bits(similar_batched(engine, index, replies, requests))
        ):
            paired += 1
            continue
        failures.append(
            f"request {index} {requests[index][0]}: got "
            f"{json.dumps(body)[:300]} want {json.dumps(want)[:300]}"
        )
    return failures, paired


# ----------------------------------------------------------------------
def run_serve_http(seed: int, seconds: int, trace: bool) -> dict:
    from repro.serving import ShardedEngine

    directory = ensure("weather_artifact")
    meta = load_meta(directory)
    artifact = directory / "artifact"
    rng = np.random.default_rng(seed)
    hot_queries = [sensor_query(rng, meta) for _ in range(HOT_SET)]
    hot_nodes = [base_node(rng, meta) for _ in range(HOT_SET)]
    n_open = int(OPEN_RATE * seconds)
    n_closed = int(CLOSED_REQUESTS_PER_S * seconds)
    warmup = make_requests(rng, meta, WARMUP_REQUESTS, hot_queries,
                           hot_nodes)
    open_requests = make_requests(rng, meta, n_open, hot_queries, hot_nodes)
    closed_requests = make_requests(rng, meta, n_closed, hot_queries,
                                    hot_nodes)
    samples = [
        set(np.flatnonzero(rng.random(len(phase)) < VERIFY_SHARE).tolist())
        for phase in (open_requests, closed_requests)
    ]
    probe = ("/score", {"queries": [sensor_query(rng, meta)]})
    # the traced run repeats the open loop on fresh queries (repeating
    # the same ones would hit the cache the first pass filled)
    traced_requests = (
        make_requests(rng, meta, n_open, hot_queries, hot_nodes)
        if trace else []
    )

    nmi, failures = served_nmi(directory)
    reference = ShardedEngine.load(artifact, n_shards=1, mmap=True,
                                   cache_size=0)
    probe_body = json.dumps(probe[1]).encode("utf-8")
    probe_answer = expected(reference, *probe)

    def start(log_name: str) -> Server:
        """A server, timed from spawn to its first correct answer."""
        with Stopwatch() as starting:
            server = Server(artifact, CACHE / log_name)
            try:
                status, reply = asyncio.run(
                    fetch(server.host, server.port, "POST", "/score",
                          probe_body)
                )
            except BaseException:
                server.stop()
                raise
        if status != 200 or bits(json.loads(reply)) != bits(probe_answer):
            failures.append(f"first answer: HTTP {status} {reply[:200]!r}")
        setup_s.append(starting.seconds)
        return server

    def more_setups() -> None:
        for _ in range(SETUPS):
            start("serve_http-setup.log").stop()

    setup_s, server = [], None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server = start("serve_http.log")
        host, port = server.host, server.port

        asyncio.run(drive(host, port, encoded(warmup), None))
        reset_peak_rss(server.process.pid)
        before_open = scrape(host, port)
        open_results, _ = asyncio.run(
            drive(host, port, encoded(open_requests), OPEN_RATE)
        )
        after_open = scrape(host, port)
        more_setups()
        closed_results, closed_s = asyncio.run(
            drive(host, port, encoded(closed_requests), None)
        )
        after_closed = scrape(host, port)
        rss = peak_rss_mb(server.process.pid)
        traced_open = []
        if trace:
            traced_open = asyncio.run(
                traced_drive(host, port, encoded(traced_requests))
            )
    finally:
        if server is not None:
            server.stop()
    more_setups()

    paired = 0
    for replies, requests, sample in (
        (open_results, open_requests, samples[0]),
        (closed_results, closed_requests, samples[1]),
        (traced_open, traced_requests, set()),
    ):
        phase_failures, phase_paired = check_phase(
            replies, requests, sample, reference
        )
        failures += phase_failures
        paired += phase_paired
    latencies = [reply.latency_s for reply in open_results]
    closed_rows = sum(request_rows(*request) for request in closed_requests)
    e2e = {
        "setup_s": median(setup_s),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p90_ms": quantile(latencies, 0.9) * 1e3,
        "throughput_per_s": closed_rows / closed_s,
        "peak_rss_mb": rss,
        "nmi": nmi,
    }
    report = {
        "open_requests": n_open,
        "open_rate_per_s": OPEN_RATE,
        "closed_requests": n_closed,
        "closed_s": closed_s,
        "verified_requests": sum(len(sample) for sample in samples),
        "late_ms_p50": median(r.late_s for r in open_results) * 1e3,
        "late_ms_max": max(r.late_s for r in open_results) * 1e3,
        "setup_s": setup_s,
        "similar_matched_as_pair": paired,
        "failures": failures[:5],
    }
    layers = {}
    if trace:
        layers = serve_layers(
            reference, artifact, rng, meta, open_results, traced_open,
            delta(before_open, after_open),
            delta(after_open, after_closed),
        )
    reference.close()
    return {
        # the setups, the requests and the served-model NMI check
        "attempted": len(setup_s) + n_open + n_closed + len(traced_requests) + 1,
        "failed": len(failures),
        "e2e": e2e,
        "layers": layers,
        "report": report,
    }


async def traced_drive(host, port, bodies):
    """The open-loop phase again while ``/metrics`` is scraped every
    100 ms: the price of reading the program's telemetry."""
    stop = asyncio.Event()

    async def scraper() -> None:
        connection = await Connection.open(host, port)
        try:
            while not stop.is_set():
                await connection.call("GET", "/metrics")
                try:
                    await asyncio.wait_for(stop.wait(), 0.1)
                except asyncio.TimeoutError:
                    pass
        finally:
            await connection.close()

    task = asyncio.create_task(scraper())
    try:
        results, _ = await drive(host, port, bodies, OPEN_RATE)
    finally:
        stop.set()
        await task
    return results


def serve_layers(reference, artifact, rng, meta, open_results,
                 traced_open, open_delta, closed_delta):
    from fold_probes import engine_probes, shard_balance

    client_p50_ms = median(r.latency_s for r in open_results) * 1e3
    # the server's request histogram has 10 ms / 25 ms buckets, too
    # coarse to subtract p50s: the split below uses means
    server_mean_ms = histogram_mean(
        open_delta, "repro_gateway_request_seconds"
    ) * 1e3
    client_mean_ms = sum(r.done - r.sent for r in open_results) / len(
        open_results
    ) * 1e3
    latencies = [r.latency_s for r in open_results]
    traced_p50_ms = median(r.latency_s for r in traced_open) * 1e3
    both = {
        key: open_delta.get(key, 0.0) + closed_delta.get(key, 0.0)
        for key in set(open_delta) | set(closed_delta)
    }
    hits = both.get("repro_cache_hits_total", 0.0)
    misses = both.get("repro_cache_misses_total", 0.0)
    layers = {
        "gateway.request_ms_p50": histogram_quantile(
            open_delta, "repro_gateway_request_seconds", 0.5
        ) * 1e3,
        "gateway.outside_ms": client_mean_ms - server_mean_ms,
        "gateway.batch_size_mean": histogram_mean(
            closed_delta, "repro_gateway_batch_size"
        ),
        "gateway.batch_wait_ms_mean": histogram_mean(
            open_delta, "repro_gateway_batch_wait_seconds"
        ) * 1e3,
        "gateway.flushes": both.get("repro_gateway_batch_flushes_total", 0),
        "gateway.rejected": both.get("repro_gateway_rejected_total", 0),
        "engine.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "router.dedup_ratio": _dedup_ratio(both),
        "router.shard_balance": shard_balance(reference.info()),
        "serve.latency_p99_ms": quantile(latencies, 0.99) * 1e3,
        "serve.latency_samples": len(latencies),
        # server time that neither the batch window nor the engine's
        # score batches explain: parsing, validation, similarity
        # batches and the reply
        "serve.unattributed_ms": server_mean_ms - (
            histogram_mean(open_delta, "repro_gateway_batch_wait_seconds")
            + histogram_mean(open_delta, "repro_router_batch_seconds")
        ) * 1e3,
        "loadgen.late_ms_p50": median(r.late_s for r in open_results) * 1e3,
        "loadgen.late_ms_max": max(r.late_s for r in open_results) * 1e3,
        "trace.overhead_pct": (traced_p50_ms / client_p50_ms - 1) * 100,
    }
    layers.update(engine_probes(
        reference,
        artifact,
        lambda: engine_query(sensor_query(rng, meta)),
        lambda: base_node(rng, meta),
    ))
    return layers


def _dedup_ratio(samples: dict) -> float:
    """Distinct / attempted score queries over the engine batches."""
    attempted = samples.get("repro_router_batch_size_sum", 0.0)
    distinct = samples.get("repro_cache_hits_total", 0.0) + samples.get(
        "repro_cache_misses_total", 0.0
    )
    return distinct / attempted if attempted else 0.0

