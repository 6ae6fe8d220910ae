"""One fresh program process of the ``fit_weather`` workload.

``python3 perfbench/fit_child.py INPUT_DIR SEED FITS TRACE``

1. Times ``repro.hin.io.load_network`` of the cached network (one
   ``setup_s`` sample: a fresh process has no warm state).  With
   ``FITS`` 0 that is all it does.
2. Warms the fit code paths on a tiny weather network.
3. Resets the RSS high-water mark, then runs ``FITS`` back-to-back
   ``GenClus.fit`` calls, timing each, and checks every result: finite
   ``g1`` and gamma, and NMI against the generator's ground truth.
4. With ``TRACE`` 1, also splits one fit by layer from outside:
   ``compile_problem`` and a traced ``GenClus.fit_problem`` (the
   program's own ``fit > outer_iter > em_sweep|newton`` spans and
   ``RunHistory``), then times one direct ``em_update``, ``g1`` and
   ``learn_strengths`` on the fitted state.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import (
    Stopwatch,
    emit,
    median,
    peak_rss_mb,
    reset_peak_rss,
    timed_ms,
    use_checkout_source,
)

use_checkout_source()

import numpy as np  # noqa: E402

from repro.core import GenClus, GenClusConfig  # noqa: E402
from repro.core.em import em_update  # noqa: E402
from repro.core.kernels import PropagationOperator  # noqa: E402
from repro.core.objective import g1  # noqa: E402
from repro.core.problem import compile_problem  # noqa: E402
from repro.core.strength import learn_strengths  # noqa: E402
from repro.eval.nmi import nmi  # noqa: E402
from repro.hin.io import load_network  # noqa: E402
from repro.obs import Observability  # noqa: E402

from inputs import load_meta  # noqa: E402

PROBE_REPEATS = 5


def warm_network():
    """A tiny weather network: runs every fit code path once, in
    milliseconds, before anything is measured."""
    from repro.datagen.weather import WeatherConfig, generate_weather_network

    return generate_weather_network(
        WeatherConfig(n_temperature=80, n_precipitation=40, seed=1)
    ).network


def check(result, truth: np.ndarray) -> tuple[bool, float]:
    """Finite objective and strengths; NMI against ground truth."""
    final_g1 = float(result.history.records[-1].g1_value)
    finite = bool(
        np.isfinite(final_g1)
        and np.all(np.isfinite(result.gamma))
        and np.all(np.isfinite(result.theta))
    )
    return finite, float(nmi(truth, result.hard_labels()))


def traced_fit(network, attributes, config, untraced_s: float) -> dict:
    with Stopwatch() as compiling:
        problem = compile_problem(
            network,
            attributes,
            config.n_clusters,
            variance_floor=config.variance_floor,
        )
    obs = Observability(trace=True)
    with Stopwatch() as fitting:
        result = GenClus(config).fit_problem(problem, obs=obs)
    (root,) = [span for span in obs.tracer.traces() if span.name == "fit"]
    outer = [
        span for span in root.children
        if span.name.startswith("outer_iter")
    ]
    em_s = sum(
        child.duration
        for span in outer for child in span.children
        if child.name == "em_sweep"
    )
    newton_s = sum(
        child.duration
        for span in outer for child in span.children
        if child.name == "newton"
    )
    init_s = fitting.seconds - sum(span.duration for span in outer)
    wall_s = compiling.seconds + fitting.seconds
    records = result.history.records[1:]

    operator = PropagationOperator.wrap(problem.matrices)
    models = problem.attribute_models
    theta, gamma = result.theta, result.gamma
    layers = {
        "hin.compile_s": compiling.seconds,
        "core.init_s": init_s,
        "core.em_s": em_s,
        "core.em_sweeps": sum(r.em_iterations for r in records),
        "core.strength_s": newton_s,
        "core.newton_steps": sum(r.newton_iterations for r in records),
        "fit.outer_iters": len(outer),
        "fit.unattributed_s": wall_s - (
            compiling.seconds + init_s + em_s + newton_s
        ),
        "trace.overhead_pct": (wall_s / untraced_s - 1.0) * 100.0,
        "core.g1_ms": timed_ms(
            lambda: g1(theta, gamma, operator, models, config.theta_floor),
            PROBE_REPEATS,
        ),
        "core.learn_strengths_ms": timed_ms(
            lambda: learn_strengths(
                theta, operator, gamma, sigma=config.sigma,
                max_iterations=config.newton_iterations,
                tol=config.newton_tol, floor=config.theta_floor,
            ),
            PROBE_REPEATS,
        ),
        # em_update refreshes the attribute parameters in place, so it
        # runs after every other probe of the fitted state
        "core.em_update_ms": timed_ms(
            lambda: em_update(theta, gamma, operator, models,
                              config.theta_floor),
            PROBE_REPEATS,
        ),
    }
    return layers


def main(argv: list[str]) -> None:
    directory = Path(argv[0])
    seed, fits, trace = (int(value) for value in argv[1:4])
    meta = load_meta(directory)
    attributes = meta["attributes"]
    truth = np.load(directory / "truth.npy")
    config = GenClusConfig(n_clusters=4, seed=seed)

    with Stopwatch() as loading:
        network = load_network(directory / "network.json")
    if fits == 0:
        emit({"setup_s": loading.seconds})
        return
    GenClus(config).fit(warm_network(), attributes=attributes)

    reset_peak_rss()
    fit_seconds, nmis, finite = [], [], True
    for _ in range(fits):
        with Stopwatch() as fitting:
            result = GenClus(config).fit(network, attributes=attributes)
        fit_seconds.append(fitting.seconds)
        ok, score = check(result, truth)
        finite = finite and ok
        nmis.append(score)
    rss = peak_rss_mb()
    payload = {
        "setup_s": loading.seconds,
        "fit_s": fit_seconds,
        "nmi": nmis,
        "finite": finite,
        "peak_rss_mb": rss,
        "outer_iters": len(result.history.records) - 1,
    }
    if trace:
        payload["layers"] = traced_fit(
            network, attributes, config, median(fit_seconds)
        )
    emit(payload)


if __name__ == "__main__":
    main(sys.argv[1:])
