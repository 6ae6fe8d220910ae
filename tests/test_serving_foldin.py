"""Tests for repro.serving.foldin (online posterior assignment)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import GenClus, GenClusConfig
from repro.datagen.toy import political_forum_network
from repro.eval.alignment import align_clusters, relabel
from repro.exceptions import ServingError
from repro.hin.io import network_from_dict, network_to_dict
from repro.serving.artifact import ModelArtifact
from repro.serving.foldin import FrozenModel, NewNode, fold_in

CONFIG = GenClusConfig(n_clusters=2, outer_iterations=5, seed=0, n_init=3)

HELD_OUT = tuple(f"user{camp}_{u}" for camp in range(2) for u in (1, 3, 5))
"""Held-out forum users; odd indices carry no profile text, so their
fold-in runs on links alone (the incomplete-attribute case)."""


def drop_nodes(network, dropped):
    """Copy a network without some nodes (and their edges/observations)."""
    dropped = set(dropped)
    payload = network_to_dict(network)
    keep = {entry["id"] for entry in payload["nodes"]} - dropped
    payload["nodes"] = [
        entry for entry in payload["nodes"] if entry["id"] in keep
    ]
    payload["edges"] = [
        entry
        for entry in payload["edges"]
        if entry["source"] in keep and entry["target"] in keep
    ]
    for attribute in payload["attributes"]:
        for section in ("bags", "values"):
            if section in attribute:
                attribute[section] = {
                    key: value
                    for key, value in attribute[section].items()
                    if key.split(":", 1)[1] in keep
                }
    return network_from_dict(payload)


@pytest.fixture(scope="module")
def full_network():
    return political_forum_network()


@pytest.fixture(scope="module")
def full_result(full_network):
    return GenClus(CONFIG).fit(full_network, attributes=["text"])


@pytest.fixture(scope="module")
def reduced_setup(full_network):
    """Fit on the forum minus HELD_OUT; return (network, result, model)."""
    reduced_network = drop_nodes(full_network, HELD_OUT)
    result = GenClus(CONFIG).fit(reduced_network, attributes=["text"])
    model = FrozenModel.from_artifact(ModelArtifact.from_result(result))
    return reduced_network, result, model


def held_out_batch(full_network):
    """NewNode specs carrying each held-out user's original out-links."""
    batch = []
    for node in HELD_OUT:
        links = tuple(
            (relation, target, weight)
            for target, relation, weight in full_network.out_neighbors(node)
        )
        batch.append(NewNode(node, "user", links=links))
    return batch


class TestFoldInAccuracy:
    def test_matches_full_refit_on_held_out_nodes(
        self, full_network, full_result, reduced_setup
    ):
        """Acceptance: fold-in label == full-refit label on >= 90%."""
        reduced_network, reduced_result, model = reduced_setup
        shared = list(reduced_network.node_ids)
        full_labels = np.array(
            [
                full_result.hard_labels()[full_network.index_of(node)]
                for node in shared
            ]
        )
        reduced_labels = np.array(
            [
                reduced_result.hard_labels()[
                    reduced_network.index_of(node)
                ]
                for node in shared
            ]
        )
        mapping = align_clusters(full_labels, reduced_labels)

        outcome = fold_in(model, held_out_batch(full_network))
        assert outcome.converged
        folded = relabel(outcome.hard_labels(), mapping)
        refit = np.array(
            [
                full_result.hard_labels()[full_network.index_of(node)]
                for node in HELD_OUT
            ]
        )
        agreement = float((folded == refit).mean())
        assert agreement >= 0.9

    def test_rows_on_simplex(self, full_network, reduced_setup):
        _, _, model = reduced_setup
        outcome = fold_in(model, held_out_batch(full_network))
        assert outcome.theta.shape == (len(HELD_OUT), 2)
        np.testing.assert_allclose(
            outcome.theta.sum(axis=1), 1.0, atol=1e-9
        )
        assert np.all(outcome.theta >= 0.0)


class TestFoldInMechanics:
    def test_single_link_copies_target_membership(self, reduced_setup):
        """One out-link: the update is the target's row, a fixed point."""
        reduced_network, result, model = reduced_setup
        target = "blog0_0"
        outcome = fold_in(
            model,
            [NewNode("probe", "user", links=[("writes", target, 1.0)])],
        )
        np.testing.assert_allclose(
            outcome.membership_of("probe"),
            result.membership_of(target),
            atol=1e-9,
        )

    def test_text_only_node_lands_in_camp(self, reduced_setup):
        _, result, model = reduced_setup
        green = fold_in(
            model,
            [
                NewNode(
                    "probe",
                    "user",
                    text={"text": ["environment", "climate", "green"]},
                )
            ],
        )
        purple = fold_in(
            model,
            [NewNode("probe", "user", text={"text": ["liberty", "tax"]})],
        )
        assert green.hard_label_of("probe") != purple.hard_label_of(
            "probe"
        )

    def test_text_accepts_one_pass_iterable(self, reduced_setup):
        """Generator bags are materialized at spec construction, so the
        spec survives being read more than once (cache keys, re-folds)."""
        _, _, model = reduced_setup
        spec = NewNode(
            "probe",
            "user",
            text={"text": iter(["green", "climate", "environment"])},
        )
        first = fold_in(model, [spec])
        second = fold_in(model, [spec])
        np.testing.assert_allclose(first.theta, second.theta)
        assert first.theta.max() > 0.9  # not the uniform prior

    def test_numeric_accepts_one_pass_iterable(self):
        spec = NewNode(
            "probe", "user", numeric={"score": iter([1.0, 2.0])}
        )
        assert spec.numeric == {"score": (1.0, 2.0)}

    def test_text_accepts_counts_mapping(self, reduced_setup):
        _, _, model = reduced_setup
        tokens = fold_in(
            model,
            [NewNode("probe", "user", text={"text": ["green", "green"]})],
        )
        counts = fold_in(
            model,
            [NewNode("probe", "user", text={"text": {"green": 2}})],
        )
        np.testing.assert_allclose(tokens.theta, counts.theta)

    def test_bare_node_stays_uniform(self, reduced_setup):
        _, _, model = reduced_setup
        outcome = fold_in(model, [NewNode("probe", "user")])
        np.testing.assert_allclose(outcome.theta, [[0.5, 0.5]])
        assert outcome.converged

    def test_in_batch_links_connect_new_nodes(self, reduced_setup):
        """A node linked only to another batch node inherits its camp."""
        _, _, model = reduced_setup
        outcome = fold_in(
            model,
            [
                NewNode(
                    "anchor",
                    "user",
                    links=[
                        ("writes", "blog0_0", 1.0),
                        ("likes", "book0_0", 1.0),
                    ],
                ),
                NewNode(
                    "follower",
                    "user",
                    links=[("friend", "anchor", 1.0)],
                ),
            ],
        )
        anchor = outcome.hard_label_of("anchor")
        # gamma for 'friend' collapsed to ~0 in the fit, so the follower
        # may stay near-uniform; it must at least not contradict anchor
        follower = outcome.membership_of("follower")
        assert follower[anchor] >= follower[1 - anchor] - 1e-9

    def test_result_invariant_to_link_weight_scale(self, reduced_setup):
        """Regression: the update is normalized before flooring, like
        training's em_update, so a tiny absolute weight must give the
        same posterior as weight 1.0 (not collapse to uniform)."""
        _, result, model = reduced_setup
        tiny = fold_in(
            model,
            [NewNode("probe", "user", links=[("writes", "blog0_0", 1e-13)])],
        )
        unit = fold_in(
            model,
            [NewNode("probe", "user", links=[("writes", "blog0_0", 1.0)])],
        )
        np.testing.assert_allclose(tiny.theta, unit.theta, atol=1e-9)
        np.testing.assert_allclose(
            tiny.membership_of("probe"),
            result.membership_of("blog0_0"),
            atol=1e-9,
        )

    def test_two_tuple_links_get_unit_weight(self, reduced_setup):
        _, _, model = reduced_setup
        short = fold_in(
            model,
            [NewNode("probe", "user", links=[("writes", "blog0_0")])],
        )
        explicit = fold_in(
            model,
            [NewNode("probe", "user", links=[("writes", "blog0_0", 1.0)])],
        )
        np.testing.assert_allclose(short.theta, explicit.theta)

    def test_oov_terms_counted_not_fatal(self, reduced_setup):
        _, _, model = reduced_setup
        outcome = fold_in(
            model,
            [
                NewNode(
                    "probe",
                    "user",
                    text={"text": ["green", "zebra", "quux"]},
                )
            ],
        )
        assert outcome.oov_terms == 2
        assert outcome.converged

    def test_empty_batch(self, reduced_setup):
        _, _, model = reduced_setup
        outcome = fold_in(model, [])
        assert outcome.theta.shape == (0, 2)
        assert outcome.converged


class TestFoldInValidation:
    def test_known_node_rejected(self, reduced_setup):
        _, _, model = reduced_setup
        with pytest.raises(ServingError, match="already part"):
            fold_in(model, [NewNode("user0_0", "user")])

    def test_duplicate_batch_ids_rejected(self, reduced_setup):
        _, _, model = reduced_setup
        with pytest.raises(ServingError, match="duplicate"):
            fold_in(
                model,
                [NewNode("probe", "user"), NewNode("probe", "user")],
            )

    def test_unknown_object_type_rejected(self, reduced_setup):
        _, _, model = reduced_setup
        with pytest.raises(ServingError, match="unknown object type"):
            fold_in(model, [NewNode("probe", "politician")])

    def test_unknown_relation_rejected(self, reduced_setup):
        _, _, model = reduced_setup
        with pytest.raises(ServingError, match="unknown relation"):
            fold_in(
                model,
                [NewNode("probe", "user", links=[("follows", "user0_0")])],
            )

    def test_unknown_target_rejected(self, reduced_setup):
        _, _, model = reduced_setup
        with pytest.raises(ServingError, match="neither a fitted node"):
            fold_in(
                model,
                [NewNode("probe", "user", links=[("friend", "ghost")])],
            )

    def test_source_type_mismatch_rejected(self, reduced_setup):
        _, _, model = reduced_setup
        with pytest.raises(ServingError, match="source type"):
            fold_in(
                model,
                [NewNode("probe", "blog", links=[("friend", "user0_0")])],
            )

    def test_target_type_mismatch_rejected(self, reduced_setup):
        _, _, model = reduced_setup
        with pytest.raises(ServingError, match="target type"):
            fold_in(
                model,
                [NewNode("probe", "user", links=[("friend", "blog0_0")])],
            )

    def test_unfitted_attribute_rejected(self, reduced_setup):
        _, _, model = reduced_setup
        with pytest.raises(ServingError, match="not part of the fit"):
            fold_in(
                model,
                [NewNode("probe", "user", text={"bio": ["hello"]})],
            )

    def test_kind_mismatch_rejected(self, reduced_setup):
        _, _, model = reduced_setup
        with pytest.raises(ServingError, match="categorical"):
            fold_in(
                model,
                [NewNode("probe", "user", numeric={"text": [1.0]})],
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ServingError, match="finite and non-negative"):
            NewNode("probe", "user", links=[("friend", "x", -1.0)])

    def test_non_numeric_weight_rejected(self):
        with pytest.raises(ServingError, match="not a number"):
            NewNode("probe", "user", links=[("friend", "x", "heavy")])

    def test_non_numeric_observation_rejected(self):
        with pytest.raises(ServingError, match="must be numbers"):
            NewNode("probe", "user", numeric={"score": ["abc"]})

    def test_non_numeric_count_rejected(self):
        with pytest.raises(ServingError, match="bad count"):
            NewNode("probe", "user", text={"text": {"green": "two"}})

    def test_negative_count_rejected(self):
        with pytest.raises(ServingError, match="bad count"):
            NewNode("probe", "user", text={"text": {"green": -1}})


class TestGaussianFoldIn:
    @pytest.fixture(scope="class")
    def weather_model(self):
        from repro.datagen.weather import (
            WeatherConfig,
            generate_weather_network,
        )
        from repro.experiments.weather_common import WEATHER_ATTRIBUTES

        generated = generate_weather_network(
            WeatherConfig(
                n_temperature=40,
                n_precipitation=20,
                k_neighbors=3,
                n_observations=5,
                seed=0,
            )
        )
        config = GenClusConfig(
            n_clusters=4, outer_iterations=3, seed=0, n_init=2
        )
        result = GenClus(config).fit(
            generated.network, attributes=WEATHER_ATTRIBUTES
        )
        return FrozenModel.from_artifact(
            ModelArtifact.from_result(result)
        )

    def test_numeric_observations_separate_patterns(self, weather_model):
        """Setting-1 pattern means are (k+1, k+1): extreme observations
        must land new sensors in different clusters."""
        cold = fold_in(
            weather_model,
            [
                NewNode(
                    "probe",
                    "temperature_sensor",
                    numeric={"temperature": [1.0, 1.0, 1.0]},
                )
            ],
        )
        hot = fold_in(
            weather_model,
            [
                NewNode(
                    "probe",
                    "temperature_sensor",
                    numeric={"temperature": [4.0, 4.0, 4.0]},
                )
            ],
        )
        assert cold.hard_label_of("probe") != hot.hard_label_of("probe")
        np.testing.assert_allclose(cold.theta.sum(axis=1), 1.0)

    def test_non_finite_numeric_rejected(self, weather_model):
        with pytest.raises(ServingError, match="non-finite"):
            fold_in(
                weather_model,
                [
                    NewNode(
                        "probe",
                        "temperature_sensor",
                        numeric={"temperature": [float("nan")]},
                    )
                ],
            )


class TestPerRowConvergence:
    """fold_in converges per row: link-independent rows evolve and stop
    identically no matter how the batch is composed."""

    @staticmethod
    def independent_batch():
        """Specs with no in-batch links (targets all in the base):
        every row is its own convergence component."""
        return [
            NewNode(
                "q-green", "user",
                links=[("writes", "blog0_0", 1.0)],
                text={"text": ["green", "climate"]},
            ),
            NewNode(
                "q-purple", "user",
                links=[("likes", "book1_1", 2.0)],
                text={"text": ["liberty", "market"]},
            ),
            NewNode("q-text", "user", text={"text": ["tax", "market"]}),
            NewNode("q-bare", "user"),
            NewNode(
                "q-links", "user",
                links=[
                    ("writes", "blog1_0", 1.0),
                    ("likes", "book1_0", 1.0),
                ],
            ),
        ]

    def test_batch_rows_bit_identical_to_solo_folds(self, reduced_setup):
        _, _, model = reduced_setup
        batch = self.independent_batch()
        joint = fold_in(model, batch)
        for position, spec in enumerate(batch):
            solo = fold_in(model, [spec])
            np.testing.assert_array_equal(
                joint.theta[position], solo.theta[0]
            )

    def test_any_split_of_independent_rows_agrees(self, reduced_setup):
        _, _, model = reduced_setup
        batch = self.independent_batch()
        joint = fold_in(model, batch)
        front = fold_in(model, batch[:2])
        back = fold_in(model, batch[2:])
        np.testing.assert_array_equal(
            joint.theta,
            np.concatenate([front.theta, back.theta], axis=0),
        )

    def test_linked_component_must_quiesce_together(self, reduced_setup):
        """A row reading a still-moving in-batch target keeps iterating
        past its own transiently small delta: the follower must end up
        in its (strongly pulled) target's camp, not frozen at the
        uniform prior it shows while the target is still uniform.
        (written_by carries real learned strength in the reduced fit;
        the user-user friend relation learns gamma = 0 there.)"""
        _, _, model = reduced_setup
        outcome = fold_in(
            model,
            [
                NewNode(
                    "leader", "user",
                    links=[("writes", "blog0_0", 1.0)],
                    text={"text": ["green", "climate"]},
                ),
                NewNode(
                    "follower", "blog",
                    links=[("written_by", "leader", 1.0)],
                ),
            ],
        )
        assert outcome.converged
        leader, follower = outcome.theta
        assert follower.max() > 0.9
        assert int(follower.argmax()) == int(leader.argmax())


# ----------------------------------------------------------------------
# pinned fold-in answers
# ----------------------------------------------------------------------
REFERENCE_PATH = Path(__file__).parent / "data" / "foldin_reference.json"
"""Fold-in memberships of two fixed batches, written by the row-major
frozen-parameter scorers that served fold-in before it moved onto the
attribute models' blocked E-pass.  Floats are stored as ``float.hex``
so the file carries every bit."""


def weather_reference_case():
    """A fitted weather model and a batch of new sensors: links only,
    observations only, both, an in-batch link, and an observation far
    in the tail of every component."""
    from repro.datagen.weather import (
        PRECIPITATION_ATTR,
        PRECIPITATION_TYPE,
        RELATION_PP,
        RELATION_TT,
        TEMPERATURE_ATTR,
        TEMPERATURE_TYPE,
        WeatherConfig,
        generate_weather_network,
    )
    from repro.experiments.weather_common import WEATHER_ATTRIBUTES

    generated = generate_weather_network(
        WeatherConfig(
            n_temperature=120,
            n_precipitation=60,
            k_neighbors=4,
            n_observations=6,
            seed=3,
        )
    )
    result = GenClus(
        GenClusConfig(n_clusters=4, outer_iterations=3, seed=0, n_init=2)
    ).fit(generated.network, attributes=WEATHER_ATTRIBUTES)
    model = FrozenModel.from_artifact(ModelArtifact.from_result(result))
    rng = np.random.default_rng(11)
    batch = []
    for i in range(8):
        targets = rng.choice(120, size=3, replace=False)
        links = tuple((RELATION_TT, f"T{int(t)}", 1.0) for t in targets)
        values = rng.normal(1.0 + 0.5 * i, 0.4, size=6).tolist()
        batch.append(
            NewNode(
                f"t{i}",
                TEMPERATURE_TYPE,
                links=links if i % 3 else (),
                numeric={TEMPERATURE_ATTR: values} if i % 4 else {},
            )
        )
    for i in range(4):
        targets = rng.choice(60, size=2, replace=False)
        batch.append(
            NewNode(
                f"p{i}",
                PRECIPITATION_TYPE,
                links=tuple(
                    (RELATION_PP, f"P{int(t)}", 2.0) for t in targets
                ),
                numeric={
                    PRECIPITATION_ATTR: rng.normal(
                        2.0 + i, 0.3, size=4
                    ).tolist()
                },
            )
        )
    batch.append(
        NewNode(
            "t-linked",
            TEMPERATURE_TYPE,
            links=((RELATION_TT, "t1", 1.0), (RELATION_TT, "T5", 1.0)),
        )
    )
    batch.append(
        NewNode(
            "t-far",
            TEMPERATURE_TYPE,
            numeric={TEMPERATURE_ATTR: [40.0, 2.0, -30.0]},
        )
    )
    return model, batch


def dblp_reference_case():
    """A fitted DBLP ACP model and held-out papers folded in with a
    subset of their authors, their venue and a masked title."""
    import dataclasses

    from repro.datagen.dblp import (
        TITLE_ATTR,
        FourAreaConfig,
        build_acp_network,
        generate_corpus,
    )

    corpus = generate_corpus(
        FourAreaConfig(n_authors=120, n_papers=400, seed=0)
    )
    rng = np.random.default_rng(5)
    held = set(rng.choice(len(corpus.papers), size=16, replace=False).tolist())
    train = tuple(
        paper
        for index, paper in enumerate(corpus.papers)
        if index not in held
    )
    network = build_acp_network(dataclasses.replace(corpus, papers=train))
    result = GenClus(
        GenClusConfig(n_clusters=4, outer_iterations=3, seed=0, n_init=2)
    ).fit(network, attributes=[TITLE_ATTR])
    model = FrozenModel.from_artifact(ModelArtifact.from_result(result))
    batch = []
    for index in sorted(held):
        paper = corpus.papers[index]
        authors = paper.authors[: 1 + index % len(paper.authors)]
        links = [("written_by", author, 1.0) for author in authors]
        if index % 3:
            links.append(("published_by", paper.venue, 1.0))
        title = list(paper.title_tokens[index % 2 :: 2])
        if index % 5 == 0:
            title.append("never-seen-term")
        batch.append(
            NewNode(
                paper.paper_id,
                "paper",
                links=tuple(links),
                text={TITLE_ATTR: title},
            )
        )
    return model, batch


REFERENCE_CASES = {
    "weather": weather_reference_case,
    "dblp": dblp_reference_case,
}


def write_reference(path=REFERENCE_PATH):
    """Fold every reference batch in and store the memberships."""
    payload = {}
    for name, build in REFERENCE_CASES.items():
        model, batch = build()
        outcome = fold_in(model, batch)
        payload[name] = {
            "nodes": [str(node) for node in outcome.nodes],
            "iterations": outcome.iterations,
            "theta": [[float(x).hex() for x in row] for row in outcome.theta],
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


class TestPinnedReference:
    """Fold-in answers stay within ``rtol=1e-10`` of the memberships the
    row-major frozen-parameter scorers produced (``REFERENCE_PATH``)."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_memberships_match_pinned(self, name):
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            pinned = json.load(handle)[name]
        model, batch = REFERENCE_CASES[name]()
        outcome = fold_in(model, batch)
        assert [str(node) for node in outcome.nodes] == pinned["nodes"]
        expected = np.array(
            [[float.fromhex(x) for x in row] for row in pinned["theta"]]
        )
        np.testing.assert_allclose(outcome.theta, expected, rtol=1e-10)
