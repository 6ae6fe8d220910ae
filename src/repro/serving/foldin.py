"""Online fold-in: posterior cluster assignment for unseen nodes.

The EM theta update of Eqs. 10-12 reads, for one object ``v``,

    theta_vk  propto  sum_{e=<v,u>} gamma(phi(e)) w(e) theta_uk
              + sum_X sum_{x in v[X]} p(z_vx = k | theta_v, params_X)

With the fitted parameters **frozen** -- gamma, the attribute components
(beta / mu, sigma^2), and every fitted node's membership row -- this
becomes a cheap fixed point over only the *new* nodes' rows: the same
query fold-in trick NetPLSA-style topic models use, generalized to the
heterogeneous-link + incomplete-attribute setting.  A new node needs
neither attributes (links alone drive it, the paper's incomplete case)
nor links (attributes alone drive it); with neither it stays uniform.

The whole batch is folded in at once: new-node out-links are compiled
into the ``m`` new rows of the delta-extended global index space (only
those rows are ever multiplied -- frozen base rows never re-read their
neighbours -- so the full ``(n+m, n+m)`` views of
:func:`~repro.hin.views.extend_relation_matrices` are never
materialized here).  Each fixed-point sweep is two sparse products (a
constant base-block term computed once, plus the in-batch block) and
one E-pass per attribute -- ``O(K (|E_new| + |obs_new|))`` per
iteration regardless of the fitted network's size.  The batch's
observations are compiled once into the same attribute models training
runs, carrying the fitted parameters, and every sweep calls their
blocked ``accumulate_e_step``: fitted and unseen nodes are scored by
one E-step kernel, without its M-step.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np
from scipy import sparse

from repro.core.attribute_models import (
    AttributeModel,
    CategoricalModel,
    GaussianModel,
)
from repro.core.kernels import (
    BlockPlan,
    EMWorkspace,
    PropagationOperator,
    csr_matmul_rows,
    normalize_update_block,
    resolve_workers,
    row_max,
    run_blocks,
)
from repro.exceptions import ServingError
from repro.hin.attributes import (
    CompiledNumericAttribute,
    CompiledTextAttribute,
)


@dataclass(frozen=True)
class NewNode:
    """One unseen node to fold into a fitted model.

    Attributes
    ----------
    node:
        Hashable id; must not collide with a fitted node.
    object_type:
        The node's type, checked against relation declarations.
    links:
        Out-links ``(relation, target, weight)``; 2-tuples get weight
        1.0.  Targets may be fitted nodes or other nodes of the same
        batch.
    text:
        ``{attribute: bag}`` where a bag is either ``{term: count}`` or
        an iterable of tokens.  Terms outside the fitted vocabulary are
        dropped (counted in :attr:`FoldInOutcome.oov_terms`).
    numeric:
        ``{attribute: values}`` -- finite observation lists.
    """

    node: object
    object_type: str
    links: tuple[tuple[str, object, float], ...] = ()
    text: Mapping[str, Any] = field(default_factory=dict)
    numeric: Mapping[str, Sequence[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized = []
        for link in self.links:
            if len(link) == 2:
                relation, target = link
                weight = 1.0
            elif len(link) == 3:
                relation, target, weight = link
            else:
                raise ServingError(
                    f"node {self.node!r}: link {link!r} must be "
                    f"(relation, target[, weight])"
                )
            try:
                weight = float(weight)
            except (TypeError, ValueError):
                raise ServingError(
                    f"node {self.node!r}: link weight {weight!r} is "
                    f"not a number"
                ) from None
            if not np.isfinite(weight) or weight < 0:
                raise ServingError(
                    f"node {self.node!r}: link weight {weight!r} must "
                    f"be finite and non-negative"
                )
            normalized.append((relation, target, weight))
        object.__setattr__(self, "links", tuple(normalized))
        # materialize observation containers: callers may hand in
        # one-pass iterables, and the spec is read more than once
        # (canonical cache keys, re-folds after link deltas)
        text = {}
        for attribute, bag in dict(self.text).items():
            if isinstance(bag, Mapping):
                counts = {}
                for term, count in bag.items():
                    try:
                        value = float(count)
                    except (TypeError, ValueError):
                        value = float("nan")
                    if not np.isfinite(value) or value < 0:
                        raise ServingError(
                            f"node {self.node!r}: bad count {count!r} "
                            f"for term {term!r} on attribute "
                            f"{attribute!r}"
                        )
                    counts[str(term)] = value
                text[attribute] = counts
            elif isinstance(bag, Iterable) and not isinstance(
                bag, (str, bytes)
            ):
                text[attribute] = tuple(bag)
            else:
                raise ServingError(
                    f"node {self.node!r}: text for {attribute!r} must "
                    f"be a term->count mapping or a token iterable, "
                    f"got {type(bag).__name__}"
                )
        object.__setattr__(self, "text", text)
        numeric = {}
        for attribute, values in dict(self.numeric).items():
            try:
                numeric[attribute] = tuple(float(v) for v in values)
            except (TypeError, ValueError):
                raise ServingError(
                    f"node {self.node!r}: values for {attribute!r} "
                    f"must be numbers"
                ) from None
        object.__setattr__(self, "numeric", numeric)


@dataclass(frozen=True)
class FrozenModel:
    """The read-only view of a fitted model that fold-in scores against.

    Built from a :class:`~repro.serving.artifact.ModelArtifact` (or
    grown incrementally by the engine); everything here is treated as
    immutable by :func:`fold_in`.
    """

    theta: np.ndarray
    gamma: np.ndarray
    relation_names: tuple[str, ...]
    relation_types: dict[str, tuple[str, str]]
    object_types: tuple[str, ...]
    # node_index/node_types may be engine-owned growable containers
    # (mutated in place as deltas append nodes); fold_in only reads them
    node_index: Mapping[object, int]
    node_types: Sequence[str]
    attribute_params: dict[str, dict]

    @property
    def num_nodes(self) -> int:
        return int(self.theta.shape[0])

    @property
    def n_clusters(self) -> int:
        return int(self.theta.shape[1])

    @cached_property
    def vocabulary_index(self) -> dict[str, dict[str, int]]:
        """``{attribute: {term: column}}`` per text attribute, built
        once per model so repeated queries do not pay ``O(vocab)``."""
        return {
            name: {
                term: col
                for col, term in enumerate(params["vocabulary"])
            }
            for name, params in self.attribute_params.items()
            if params["kind"] == "categorical"
        }

    def without(self, nodes: Iterable[object]) -> FrozenModel:
        """A view of this model with some served nodes *hidden*.

        Used to re-fold a subset of already-served extension nodes: the
        subset must look unseen to :func:`fold_in` (it re-enters as the
        batch), while every other served row stays a valid link target.
        Theta rows of hidden nodes are never read -- their ids resolve
        through the batch index instead.
        """
        masked = FrozenModel(
            theta=self.theta,
            gamma=self.gamma,
            relation_names=self.relation_names,
            relation_types=self.relation_types,
            object_types=self.object_types,
            node_index=_MaskedIndex(self.node_index, frozenset(nodes)),
            node_types=self.node_types,
            attribute_params=self.attribute_params,
        )
        masked.__dict__["vocabulary_index"] = self.vocabulary_index
        return masked

    @classmethod
    def from_artifact(cls, artifact) -> FrozenModel:
        """Freeze an artifact for serving (arrays shared, not copied)."""
        return cls(
            theta=np.asarray(artifact.theta, dtype=np.float64),
            gamma=np.asarray(artifact.gamma, dtype=np.float64),
            relation_names=artifact.relation_names,
            relation_types=dict(artifact.relation_types),
            object_types=artifact.object_types,
            node_index=artifact.node_index(),
            node_types=artifact.node_types,
            attribute_params=artifact.attribute_params,
        )

    def type_of(self, node: object) -> str:
        return self.node_types[self.node_index[node]]


class _MaskedIndex(Mapping):
    """A live node-index mapping with a set of ids hidden.

    O(1) per lookup and O(|hidden|) to build -- no copy of the
    underlying (possibly very large) index.  ``hidden`` must be a
    subset of the base mapping's keys.
    """

    __slots__ = ("_base", "_hidden")

    def __init__(
        self, base: Mapping[object, int], hidden: frozenset
    ) -> None:
        self._base = base
        self._hidden = hidden

    def __getitem__(self, key: object) -> int:
        if key in self._hidden:
            raise KeyError(key)
        return self._base[key]

    def __contains__(self, key: object) -> bool:
        return key not in self._hidden and key in self._base

    def __iter__(self):
        return (key for key in self._base if key not in self._hidden)

    def __len__(self) -> int:
        return len(self._base) - len(self._hidden)


@dataclass(frozen=True)
class FoldInOutcome:
    """Batch fold-in result.

    Attributes
    ----------
    nodes:
        The folded node ids, fixing the row order of ``theta``.
    theta:
        ``(m, K)`` posterior memberships (rows on the simplex).
    iterations:
        Fixed-point sweeps actually run.
    converged:
        Whether the sweep change dropped below the tolerance.
    oov_terms:
        Total text-term observations dropped for falling outside the
        fitted vocabulary.
    """

    nodes: tuple[object, ...]
    theta: np.ndarray
    iterations: int
    converged: bool
    oov_terms: int

    def membership_of(self, node: object) -> np.ndarray:
        """Posterior membership of one folded node (a copy)."""
        try:
            row = self.nodes.index(node)
        except ValueError:
            raise ServingError(
                f"node {node!r} was not part of this fold-in batch"
            ) from None
        return self.theta[row].copy()

    def hard_labels(self) -> np.ndarray:
        """Arg-max cluster per folded node, aligned with ``nodes``."""
        return np.argmax(self.theta, axis=1)

    def hard_label_of(self, node: object) -> int:
        return int(np.argmax(self.membership_of(node)))


def fold_in(
    model: FrozenModel,
    nodes: Sequence[NewNode],
    max_iterations: int = 100,
    tol: float = 1e-6,
    floor: float = 1e-12,
    num_workers: int = 1,
    block_size: int | None = None,
    obs=None,
) -> FoldInOutcome:
    """Assign posterior memberships to a batch of unseen nodes.

    Iterates the frozen-parameter theta update to a fixed point,
    vectorized over the whole batch.  Raises
    :class:`~repro.exceptions.ServingError` on structurally invalid
    input (duplicate/known ids, unknown relations or targets, type
    mismatches, observations for unfitted attributes).

    ``obs`` (an optional :class:`~repro.obs.Observability`) records the
    per-sweep and whole-call latency histograms
    (``repro_foldin_sweep_seconds`` / ``repro_foldin_seconds``); all
    *counting* stays with the owning engine so shard aggregation never
    double-counts.  Timing reads clocks only -- memberships are
    bit-identical with or without it.

    The fixed-point sweeps run block-by-block over the batch rows
    (``block_size`` rows per block, cache-sized by default): the
    propagation and normalization stages write disjoint row slices, so
    results are bit-identical at any ``num_workers``.  Small batches
    fit one block and behave exactly like the serial sweep.

    **Convergence is per row.**  After each sweep the rows that moved
    at least ``tol`` are the *moving* set; every row that can reach a
    moving row through in-batch links (it reads a moving row, directly
    or transitively) stays live, and all other rows **freeze**, keeping
    their current value verbatim while batchmates keep iterating.  (A
    row whose in-batch link target is still drifting must not stop
    early: its own update can be transiently stationary while its
    input is still in motion.)  The batch converges when every row has
    frozen.  Because a row's trajectory depends only on its own
    observations, its out-link targets, and its in-batch link
    component, freezing makes fold-in **row-decomposable**: rows that
    share no in-batch link path evolve and stop identically no matter
    how the batch is composed, so folding them together, one at a
    time, or split across the shards of a serving cluster produces
    bit-identical memberships.  (Rows connected by in-batch links must
    stay in one batch -- their trajectories read each other.)
    """
    n = model.num_nodes
    k = model.n_clusters
    if not nodes:
        return FoldInOutcome(
            nodes=(),
            theta=np.zeros((0, k)),
            iterations=0,
            converged=True,
            oov_terms=0,
        )
    recording = obs is not None and obs.recording
    if recording:
        sweep_hist = obs.metrics.histogram(
            "repro_foldin_sweep_seconds",
            "Wall-clock seconds per fold-in fixed-point sweep",
        )
        call_hist = obs.metrics.histogram(
            "repro_foldin_seconds",
            "Wall-clock seconds per fold-in call (all sweeps)",
        )
        call_start = time.perf_counter()
    batch_index = _index_batch(model, nodes)
    m = len(nodes)

    links_by_relation = _collect_links(model, nodes, batch_index)

    # Per relation, only the m new rows of the delta-extended views are
    # ever multiplied (frozen base rows never re-read their neighbours),
    # so build those row blocks directly -- O(|E_new|), independent of
    # the fitted network's size -- and split them into the frozen-base
    # columns (whose contribution never changes) and in-batch columns.
    # Both halves run through the same fused PropagationOperator the
    # trainer uses: gamma is frozen for the whole fixed point, so every
    # sweep is one combined matmul rather than one per relation.
    base_blocks: list[sparse.csr_matrix] = []
    batch_blocks: list[sparse.csr_matrix] = []
    for name in model.relation_names:
        delta = links_by_relation.get(name, ())
        sources = np.asarray([d[0] - n for d in delta], dtype=np.int64)
        targets = np.asarray([d[1] for d in delta], dtype=np.int64)
        weights = np.asarray([d[2] for d in delta], dtype=np.float64)
        new_rows = sparse.csr_matrix(
            (weights, (sources, targets)), shape=(m, n + m)
        )
        base_blocks.append(new_rows[:, :n].tocsr())
        batch_blocks.append(new_rows[:, n:].tocsr())
    base_operator = PropagationOperator(base_blocks, shape=(m, n))
    batch_operator = PropagationOperator(batch_blocks, shape=(m, m))
    num_workers = resolve_workers(num_workers)
    plan = (
        BlockPlan(m, block_size)
        if block_size is not None
        else batch_operator.block_plan(k)
    )
    constant = base_operator.propagate(
        model.theta, model.gamma, num_workers=num_workers, plan=plan
    )

    text_models, oov_terms = _compile_text(model, nodes)
    attribute_models = text_models + _compile_numeric(model, nodes)
    for attribute in attribute_models:
        attribute.set_block_rows(block_size)

    # reverse in-batch link map for the per-row convergence rule:
    # dependants[t] = batch rows holding a link to batch row t (the
    # rows whose updates read t's current value)
    dependants: list[list[int]] = [[] for _ in range(m)]
    has_batch_links = False
    for entries in links_by_relation.values():
        for source, target, _weight in entries:
            if target >= n:
                dependants[target - n].append(source - n)
                has_batch_links = True

    theta = np.full((m, k), 1.0 / k)
    spare = np.empty((m, k))
    workspace = EMWorkspace(m, k)
    update = workspace.update
    row_sums = workspace.row_sums
    row_delta = np.empty(m)
    active = np.ones(m, dtype=bool)
    combined = batch_operator.combined(model.gamma)
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        if recording:
            sweep_start = time.perf_counter()
        # frozen rows keep their value verbatim, so blocks (and
        # observation groups) with no live row skip the sweep entirely:
        # a straggler component pays for its own rows, not the batch's
        if active.all():
            block_live = None
        else:
            block_live = [
                bool(active[start:stop].any())
                for start, stop in plan.bounds
            ]

        def propagate_block(index: int, start: int, stop: int) -> None:
            if block_live is not None and not block_live[index]:
                return
            csr_matmul_rows(combined, theta, update, start, stop)
            update[start:stop] += constant[start:stop]

        run_blocks(plan, propagate_block, num_workers)
        # the attribute term is the training models' own blocked E-pass
        for attribute in attribute_models:
            rows = attribute.compiled.node_indices
            if block_live is None or active[rows].any():
                attribute.accumulate_e_step(theta, update, num_workers)

        # the closing normalize/floor step is the SAME shared kernel
        # training's em_update runs (dead rows stay at the prior, rows
        # re-normalize after flooring) -- one implementation, so
        # training and serving cannot drift apart on these semantics
        def normalize_block(index: int, start: int, stop: int) -> None:
            if block_live is not None and not block_live[index]:
                return
            normalize_update_block(
                update, theta, spare, row_sums, floor, start, stop
            )

        run_blocks(plan, normalize_block, num_workers)
        theta_next = spare
        if not active.all():
            # frozen rows keep their converged value verbatim: the
            # update map at a fixed point is not exactly the identity,
            # so re-applying it would drift a row that already stopped
            # (and would couple its final bits to its batchmates) --
            # this also repairs the rows of skipped blocks, whose
            # `spare` slots still hold the previous sweep's buffer
            frozen = ~active
            theta_next[frozen] = theta[frozen]
        np.subtract(theta_next, theta, out=update)
        np.abs(update, out=update)
        row_max(update, row_delta)
        if has_batch_links:
            # a row stays live while anything it (transitively) reads
            # through in-batch links is still moving: reverse-reachable
            # closure of the moving rows (frozen rows have delta 0 and
            # never re-seed, so freezing is permanent)
            closure = {int(r) for r in np.flatnonzero(row_delta >= tol)}
            stack = list(closure)
            while stack:
                row = stack.pop()
                for dependant in dependants[row]:
                    if active[dependant] and dependant not in closure:
                        closure.add(dependant)
                        stack.append(dependant)
            active[:] = False
            if closure:
                active[list(closure)] = True
        else:
            active &= row_delta >= tol
        theta, spare = theta_next, theta
        if recording:
            sweep_hist.observe(time.perf_counter() - sweep_start)
        if not active.any():
            converged = True
            break
    if recording:
        call_hist.observe(time.perf_counter() - call_start)
    return FoldInOutcome(
        nodes=tuple(spec.node for spec in nodes),
        theta=theta,
        iterations=iterations,
        converged=converged,
        oov_terms=oov_terms,
    )


# ----------------------------------------------------------------------
# batch compilation helpers
# ----------------------------------------------------------------------
def _index_batch(
    model: FrozenModel, nodes: Sequence[NewNode]
) -> dict[object, int]:
    """Batch-local positions, validating ids and object types."""
    batch_index: dict[object, int] = {}
    for position, spec in enumerate(nodes):
        if not isinstance(spec, NewNode):
            raise ServingError(
                f"fold-in expects NewNode specs, got "
                f"{type(spec).__name__}"
            )
        if spec.node in model.node_index:
            raise ServingError(
                f"node {spec.node!r} is already part of the fitted "
                f"model; fold-in only accepts unseen nodes"
            )
        if spec.node in batch_index:
            raise ServingError(
                f"duplicate node {spec.node!r} in fold-in batch"
            )
        if spec.object_type not in model.object_types:
            raise ServingError(
                f"node {spec.node!r} has unknown object type "
                f"{spec.object_type!r} (declared: "
                f"{list(model.object_types)})"
            )
        batch_index[spec.node] = position
    return batch_index


def _collect_links(
    model: FrozenModel,
    nodes: Sequence[NewNode],
    batch_index: dict[object, int],
) -> dict[str, list[tuple[int, int, float]]]:
    """Validate and re-index out-links into the extended index space."""
    n = model.num_nodes
    links: dict[str, list[tuple[int, int, float]]] = {}
    for spec in nodes:
        source = n + batch_index[spec.node]
        for relation, target, weight in spec.links:
            declaration = model.relation_types.get(relation)
            if declaration is None:
                raise ServingError(
                    f"node {spec.node!r}: unknown relation {relation!r}"
                )
            if relation not in model.relation_names:
                raise ServingError(
                    f"node {spec.node!r}: relation {relation!r} carried "
                    f"no links in the fit, so it has no learned "
                    f"strength to weight fold-in links with"
                )
            expected_source, expected_target = declaration
            if spec.object_type != expected_source:
                raise ServingError(
                    f"node {spec.node!r}: relation {relation!r} expects "
                    f"source type {expected_source!r}, node has type "
                    f"{spec.object_type!r}"
                )
            if target in model.node_index:
                target_idx = model.node_index[target]
                target_type = model.node_types[target_idx]
            elif target in batch_index:
                target_idx = n + batch_index[target]
                target_type = nodes[batch_index[target]].object_type
            else:
                raise ServingError(
                    f"node {spec.node!r}: link target {target!r} is "
                    f"neither a fitted node nor part of this batch"
                )
            if target_type != expected_target:
                raise ServingError(
                    f"node {spec.node!r}: relation {relation!r} expects "
                    f"target type {expected_target!r}, node {target!r} "
                    f"has type {target_type!r}"
                )
            if weight > 0.0:
                links.setdefault(relation, []).append(
                    (source, target_idx, weight)
                )
    return links


def _as_bag(bag: Any) -> dict[str, float]:
    """Canonical NewNode bag (counts dict or token tuple) to counts.

    ``NewNode.__post_init__`` already materialized and validated every
    bag, so this is pure shape conversion.
    """
    if isinstance(bag, Mapping):
        return dict(bag)
    return {
        term: float(count)
        for term, count in Counter(str(t) for t in bag).items()
    }


def _compile_text(
    model: FrozenModel, nodes: Sequence[NewNode]
) -> tuple[list[AttributeModel], int]:
    """One :class:`CategoricalModel` per observed text attribute,
    carrying the fitted ``beta``.  Columns are renumbered to the terms
    the batch uses, in vocabulary order, so the model holds only those
    columns of ``beta`` and each row's arithmetic is the same as over
    the whole vocabulary."""
    per_attribute: dict[str, list[tuple[int, dict[str, float]]]] = {}
    for position, spec in enumerate(nodes):
        for attribute, bag in spec.text.items():
            _require_params(
                model, spec, attribute, expected_kind="categorical"
            )
            counts = _as_bag(bag)
            if counts:
                per_attribute.setdefault(attribute, []).append(
                    (position, counts)
                )
    compiled: list[AttributeModel] = []
    oov_terms = 0
    for attribute, observed in per_attribute.items():
        params = model.attribute_params[attribute]
        vocabulary = model.vocabulary_index[attribute]
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for local_row, (_position, counts) in enumerate(observed):
            for term, count in counts.items():
                if count <= 0:
                    continue
                col = vocabulary.get(term)
                if col is None:
                    oov_terms += max(int(round(count)), 1)
                    continue
                rows.append(local_row)
                cols.append(col)
                vals.append(count)
        if not cols:
            continue
        used, local_cols = np.unique(cols, return_inverse=True)
        terms = params["vocabulary"]
        scorer = CategoricalModel(
            CompiledTextAttribute(
                node_indices=np.asarray(
                    [position for position, _ in observed], dtype=np.int64
                ),
                counts=sparse.csr_matrix(
                    (vals, (rows, local_cols)),
                    shape=(len(observed), used.size),
                    dtype=np.float64,
                ),
                vocabulary=tuple(terms[col] for col in used),
            ),
            model.n_clusters,
            len(nodes),
        )
        scorer.beta = np.asarray(params["beta"], dtype=np.float64)[:, used]
        compiled.append(scorer)
    return compiled, oov_terms


def _compile_numeric(
    model: FrozenModel, nodes: Sequence[NewNode]
) -> list[AttributeModel]:
    """One :class:`GaussianModel` per observed numeric attribute,
    carrying the fitted means and variances."""
    per_attribute: dict[str, list[tuple[int, list[float]]]] = {}
    for position, spec in enumerate(nodes):
        for attribute, values in spec.numeric.items():
            _require_params(
                model, spec, attribute, expected_kind="gaussian"
            )
            cleaned = [float(v) for v in values]
            for value in cleaned:
                if not np.isfinite(value):
                    raise ServingError(
                        f"node {spec.node!r}: non-finite observation "
                        f"{value!r} for attribute {attribute!r}"
                    )
            if cleaned:
                per_attribute.setdefault(attribute, []).append(
                    (position, cleaned)
                )
    compiled: list[AttributeModel] = []
    for attribute, observed in per_attribute.items():
        params = model.attribute_params[attribute]
        node_rows: list[int] = []
        values: list[float] = []
        owners: list[int] = []
        for local_row, (position, obs) in enumerate(observed):
            node_rows.append(position)
            owners.extend([local_row] * len(obs))
            values.extend(obs)
        scorer = GaussianModel(
            CompiledNumericAttribute(
                node_indices=np.asarray(node_rows, dtype=np.int64),
                values=np.asarray(values, dtype=np.float64),
                owners=np.asarray(owners, dtype=np.int64),
            ),
            model.n_clusters,
            len(nodes),
        )
        scorer.means = np.asarray(params["means"], dtype=np.float64)
        scorer.variances = np.asarray(params["variances"], dtype=np.float64)
        compiled.append(scorer)
    return compiled


def _require_params(
    model: FrozenModel,
    spec: NewNode,
    attribute: str,
    expected_kind: str,
) -> None:
    params = model.attribute_params.get(attribute)
    if params is None:
        raise ServingError(
            f"node {spec.node!r}: attribute {attribute!r} was not part "
            f"of the fit (fitted: {list(model.attribute_params)})"
        )
    if params["kind"] != expected_kind:
        raise ServingError(
            f"node {spec.node!r}: attribute {attribute!r} is "
            f"{params['kind']}, but observations were given as "
            f"{'text' if expected_kind == 'categorical' else 'numeric'}"
        )
