"""The repository's benchmark: fitting and serving, end to end and per
layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` declares them and says why each is there):

* ``fit_weather`` -- ``GenClus.fit`` on the weather_xl sensor network.
* ``serve_http`` -- the shipped ``python -m repro.serving serve`` over
  HTTP: an open-loop phase (latency) then a closed-loop phase
  (throughput).
* ``serve_rpc`` -- one library caller drives a process-transport
  ``ShardedEngine`` through a seeded read/write op sequence.

Networks and served models are one fixed dataset generated once per
checkout and program source, in the first run and outside every timed
region; ``--seed`` drives the fit seed
and the serving traffic (``inputs.DATASET_SEED`` says why).  Each run
does a fixed amount of work derived from ``--seconds`` (never from how
fast it goes), excludes warm-up, and checks the program's answers.
Every program process runs with single-threaded BLAS.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the
same work by layer, from outside the program: timed calls into public
functions and the telemetry the program already exports.  A layer a
workload does not run reads 0.  Earlier stdout lines carry a host
block and a human-readable report; the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback

from common import (
    ROOT,
    BenchError,
    median,
    quantile,
    run_child,
    source_digest,
    use_checkout_source,
)

PROCESSES = 3  # fresh processes that fit
LOADS_BETWEEN = 2  # load-only processes before, between and after them
# fits per process = --seconds / this (a fixed count, never a duration)
SECONDS_PER_FIT = 2.5


def declared_metrics() -> tuple[dict, dict]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {entry["name"]: entry["unit"] for entry in spec["end_to_end"]},
        {entry["name"]: entry["unit"] for entry in spec["per_layer"]},
    )


def host_block() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "commit": commit,
        "source_sha1": source_digest(),
    }


# ----------------------------------------------------------------------
# fit workloads
# ----------------------------------------------------------------------
def run_fit_weather(seed: int, seconds: int, trace: bool) -> dict:
    """Fit the fixed weather_xl network (see ``inputs.DATASET_SEED``)
    at fit seed ``seed``: it reaches the same optimum from every seed,
    in the same sweeps.

    Every fresh process times the network load (one ``setup_s``
    sample); ``PROCESSES`` of them then fit.  ``LOADS_BETWEEN``
    load-only processes run before, between and after the fitting
    ones, so the ``setup_s`` samples span the run."""
    from inputs import ensure

    directory = ensure("weather")
    per_process = max(1, round(seconds / SECONDS_PER_FIT))
    schedule = ([0] * LOADS_BETWEEN + [per_process]) * PROCESSES + [
        0
    ] * LOADS_BETWEEN
    children, setup_s = [], []
    for fits in schedule:
        child = run_child(
            "fit_child.py", str(directory), str(seed), str(fits),
            str(int(trace and fits)),
        )
        setup_s.append(child["setup_s"])
        if fits:
            children.append(child)
    fit_s = [value for child in children for value in child["fit_s"]]
    nmis = [value for child in children for value in child["nmi"]]
    # a fit is deterministic for its seed: every fit must agree
    failed = sum(
        1
        for child in children
        for score in child["nmi"]
        if not child["finite"] or score != nmis[0]
    )
    e2e = {
        "setup_s": median(setup_s),
        "latency_p50_ms": median(fit_s) * 1e3,
        "latency_p90_ms": quantile(fit_s, 0.9) * 1e3,
        "throughput_per_s": len(fit_s) / sum(fit_s),
        "peak_rss_mb": max(child["peak_rss_mb"] for child in children),
        "nmi": median(nmis),
    }
    layers = {}
    if trace:
        names = children[0]["layers"]
        layers = {
            name: median(child["layers"][name] for child in children)
            for name in names
        }
    return {
        "attempted": len(fit_s),
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "report": {
            "fits": len(fit_s),
            "fit_s": fit_s,
            "setup_s": setup_s,
            "outer_iters": [child["outer_iters"] for child in children],
        },
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if name == "fit_weather":
        return run_fit_weather(seed, seconds, trace)
    if name == "serve_http":
        from serve_http import run_serve_http

        return run_serve_http(seed, seconds, trace)
    if name == "serve_rpc":
        from serve_rpc import run_serve_rpc

        return run_serve_rpc(seed, seconds, trace)
    raise BenchError(f"unknown workload {name!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        use_checkout_source()
        end_to_end, per_layer = declared_metrics()
        from inputs import KINDS, ensure

        # every workload's inputs, so that only the first run in a
        # checkout generates
        for kind in KINDS:
            ensure(kind)
        host = host_block()
        print("# host " + json.dumps(host), flush=True)
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        return 3
    # every workload reports every end-to-end metric; a layer the
    # workload does not run reads 0
    if set(outcome["e2e"]) != set(end_to_end) or not set(
        outcome["layers"]
    ) <= set(per_layer):
        print("benchmark error: metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    failed = int(outcome["failed"])
    print("# ops " + json.dumps({
        "attempted": outcome["attempted"],
        "succeeded": outcome["attempted"] - failed,
        "failed": failed,
    }))
    print("# report " + json.dumps(outcome["report"]))
    print("# end_to_end " + json.dumps(outcome["e2e"]))
    declared = per_layer if args.trace else end_to_end
    values = outcome["layers"] if args.trace else outcome["e2e"]
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    if args.trace:
        for name, unit in declared.items():
            note = "" if name in values else "  (layer not run here)"
            print(f"# layer {name} = {metrics[name]['value']:.6g} "
                  f"{unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(outcome["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
