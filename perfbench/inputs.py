"""Workload inputs, generated once per checkout and cached.

``python3 perfbench/inputs.py KIND SEED DEST`` writes one input set to
``DEST``; :func:`ensure` does that in a child process (so the
generator's memory never shows in a measured process) at
``DATASET_SEED`` and caches the result under ``.perfbench_cache``,
keyed by the SHA-1 of the program source: the networks and fitted
models are written by the program, so each version of it measures
inputs it generated itself.

Kinds:

* ``weather`` -- the weather_xl sensor network (6,400 temperature +
  3,200 precipitation sensors, 4 relations, 10 Gaussian observations
  per sensor) as ``network.json`` plus ground-truth labels.
* ``weather_artifact`` -- a default-config fit of the ``weather``
  network saved as a schema-v3 bundle, plus ground-truth labels.
* ``dblp_artifact`` -- a default-config fit of the DBLP four-area ACP
  network at the shape of the public DBLP subset (4,057 authors,
  14,328 papers, 20 venues; only papers carry title text) with
  ``HELD_OUT`` papers removed, saved as a schema-v3 bundle, plus
  ground-truth labels and the held-out papers that the serving
  workload folds in.

Generation runs before and outside every timed region and ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import (
    BENCH_DIR,
    CACHE,
    BenchError,
    bits,
    program_env,
    source_digest,
)

# The networks and served models are one fixed dataset, generated once
# per checkout from this seed; ``--seed`` drives the fit seed and the
# traffic.  A seeded DBLP network or fit seed lands fits in different
# optima (NMI 0.54-0.93 measured), so ``nmi`` would measure the seed; a
# seeded weather network changes the EM sweep count by ~3% and a seeded
# served model moves serving capacity by ~12%.
DATASET_SEED = 0
KINDS = ("weather", "weather_artifact", "dblp_artifact")
HELD_OUT = 3000
N_CLUSTERS = 4


def weather_config(seed: int):
    from repro.datagen.weather import WeatherConfig

    return WeatherConfig(
        n_temperature=6400,
        n_precipitation=3200,
        k_neighbors=10,
        n_observations=10,
        seed=seed,
    )


def dblp_config(seed: int):
    from repro.datagen.dblp import FourAreaConfig

    return FourAreaConfig(n_authors=4057, n_papers=14328, seed=seed)


def _write_json(path: Path, payload) -> None:
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _truth(labels: dict, network) -> list[int]:
    return [int(labels[node]) for node in network.node_ids]


def _fit_and_save(network, attributes, seed: int, dest: Path, truth):
    """Fit, save the artifact and its ground truth; return the fit's
    NMI, which every run of a serving workload must reproduce from
    the saved artifact."""
    import numpy as np

    from repro.core import GenClus, GenClusConfig
    from repro.eval.nmi import nmi

    result = GenClus(GenClusConfig(n_clusters=N_CLUSTERS, seed=seed)).fit(
        network, attributes=attributes
    )
    result.save(dest / "artifact")
    np.save(dest / "truth.npy", np.asarray(truth))
    return nmi(truth, result.hard_labels())


def generate(kind: str, seed: int, dest: Path) -> None:
    import numpy as np

    from repro.datagen.dblp import (
        TITLE_ATTR,
        build_acp_network,
        generate_corpus,
        ground_truth_labels,
    )
    from repro.datagen.weather import generate_weather_network
    from repro.experiments.weather_common import WEATHER_ATTRIBUTES
    from repro.hin.io import save_network

    meta: dict = {"kind": kind, "seed": seed}
    if kind in ("weather", "weather_artifact"):
        generated = generate_weather_network(weather_config(seed))
        network = generated.network
        truth = generated.labels_array()
        meta["attributes"] = list(WEATHER_ATTRIBUTES)
        if kind == "weather":
            save_network(network, dest / "network.json")
            np.save(dest / "truth.npy", truth)
        else:
            meta["n_temperature"] = generated.config.n_temperature
            meta["n_precipitation"] = generated.config.n_precipitation
            meta["nmi"] = _fit_and_save(
                network, WEATHER_ATTRIBUTES, seed, dest, truth
            )
    elif kind == "dblp_artifact":
        corpus = generate_corpus(dblp_config(seed))
        rng = np.random.default_rng(seed)
        held = set(
            rng.choice(len(corpus.papers), size=HELD_OUT, replace=False)
            .tolist()
        )
        train = tuple(
            paper
            for index, paper in enumerate(corpus.papers)
            if index not in held
        )
        network = build_acp_network(dataclasses.replace(corpus, papers=train))
        truth = _truth(ground_truth_labels(corpus, network), network)
        meta["attributes"] = [TITLE_ATTR]
        meta["nmi"] = _fit_and_save(network, [TITLE_ATTR], seed, dest, truth)
        _write_json(
            dest / "heldout.json",
            {
                "papers": [
                    {
                        "id": paper.paper_id,
                        "authors": list(paper.authors),
                        "venue": paper.venue,
                        "title": list(paper.title_tokens),
                    }
                    for index, paper in enumerate(corpus.papers)
                    if index in held
                ],
                "base_papers": [paper.paper_id for paper in train],
                "authors": list(corpus.authors),
                "venues": list(corpus.conferences),
            },
        )
    else:
        raise BenchError(f"unknown input kind {kind!r}")
    _write_json(dest / "meta.json", meta)


def ensure(kind: str) -> Path:
    """The cached input directory of ``kind`` for this program source;
    generated in a child process on first use.  Inputs another source
    generated are removed."""
    final = CACHE / f"{kind}-{DATASET_SEED}-{source_digest()[:16]}"
    if (final / "meta.json").is_file():
        return final
    CACHE.mkdir(parents=True, exist_ok=True)
    for stale in CACHE.glob(f"{kind}-*"):
        shutil.rmtree(stale, ignore_errors=True)
    scratch = CACHE / f".tmp-{kind}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "inputs.py"), kind,
             str(DATASET_SEED), str(scratch)],
            env=program_env(),
            capture_output=True,
            text=True,
            timeout=170,
        )
        if done.returncode != 0:
            raise BenchError(
                f"input generation {kind} failed:\n{done.stderr[-4000:]}"
            )
        scratch.rename(final)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return final


def load_meta(directory: Path) -> dict:
    with (directory / "meta.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def served_nmi(directory: Path) -> tuple[float, list[str]]:
    """NMI of the served artifact's hard labels against the ground
    truth, read from the artifact as it is served.  It must equal the
    NMI of the fit that wrote the artifact; returns the NMI and the
    failures."""
    import numpy as np

    from repro.eval.nmi import nmi
    from repro.serving.artifact import ModelArtifact

    artifact = ModelArtifact.load(directory / "artifact", mmap=True)
    score = float(
        nmi(np.load(directory / "truth.npy"), np.argmax(artifact.theta, 1))
    )
    fitted = load_meta(directory)["nmi"]
    if bits(score) != bits(fitted):
        return score, [f"served model NMI {score!r}, fitted {fitted!r}"]
    return score, []


if __name__ == "__main__":
    from common import use_checkout_source

    use_checkout_source()
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
