"""Per-attribute mixture-model components of Section 3.2.

Each specified attribute ``X`` is modeled as a mixture over the common
hidden space: component ``k`` is shared across all objects, the mixing
proportions of object ``v`` are its membership vector ``theta_v``.  Two
component families are implemented:

* :class:`CategoricalModel` -- text attributes, PLSA-style categorical
  components ``beta_k`` over the vocabulary (Eq. 3); EM pieces of Eq. 10.
* :class:`GaussianModel` -- numeric attributes, components
  ``N(mu_k, sigma_k^2)`` (Eq. 4); EM pieces of Eqs. 11-12.

Both expose the same interface:

``init_params(rng)``
    Draw initial component parameters.
``accumulate_em_step(theta, out)``
    One E+M pass given the current memberships: adds each observed
    object's summed responsibilities -- the attribute part of the theta
    update in Eqs. 10-12 -- into the caller-owned ``(n, K)`` accumulator
    ``out``, and updates the component parameters in place.  This is the
    solver's hot path: the observation pattern (CSR structure /
    owner-scatter matrix) is frozen at construction, and every
    per-observation array is a buffer preallocated once, so repeated
    calls allocate nothing proportional to ``n`` or the observation
    count.
``accumulate_e_step(theta, out)``
    The E-pass of ``accumulate_em_step`` alone: the same blocked
    responsibility sums added into ``out``, with the component
    parameters read and never updated.  Serving fold-in
    (:mod:`repro.serving.foldin`) compiles each batch of *new* nodes'
    observations into a model of its own, installs the fitted
    parameters, and calls this once per fixed-point sweep -- one E-step
    kernel scores fitted and unseen nodes alike.
``em_step(theta)``
    Allocating convenience wrapper: same pass, but the responsibility
    sums are returned scattered into a fresh dense ``(n, K)`` array.
``log_likelihood(theta)``
    ``log p({v[X]} | Theta, beta)`` under current parameters.

The multi-attribute case (Eq. 5 / Eq. 12) needs no special handling: the
models are independent given Theta, so the solver simply sums their theta
contributions and log-likelihoods.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.kernels import (
    csr_matmul_rows,
    ordered_block_sum,
    plan_for_observations,
    run_blocks,
)
from repro.exceptions import ConfigError
from repro.hin.attributes import (
    CompiledNumericAttribute,
    CompiledTextAttribute,
)

_LOG_2PI = float(np.log(2.0 * np.pi))


def gaussian_log_pdf(
    values: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """``(n_obs, K)`` log densities of every observation per cluster."""
    x = np.asarray(values, dtype=np.float64)[:, None]
    return (
        -0.5 * (_LOG_2PI + np.log(variances)[None, :])
        - 0.5 * (x - means[None, :]) ** 2 / variances[None, :]
    )


def gaussian_responsibilities(
    theta_rows: np.ndarray,
    values: np.ndarray,
    owners: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    """``p(z_{v,x} = k)`` per observation with frozen parameters (Eq. 11).

    ``theta_rows`` holds one membership row per observed *object*;
    ``owners[i]`` is the row of observation ``values[i]``.  The clamped
    log-space softmax cannot vanish, so :class:`GaussianModel` falls
    back to it for observations whose every density underflows.
    """
    log_mix = np.log(
        np.maximum(theta_rows[owners], 1e-300)
    ) + gaussian_log_pdf(values, means, variances)
    log_mix -= log_mix.max(axis=1, keepdims=True)
    resp = np.exp(log_mix)
    resp /= resp.sum(axis=1, keepdims=True)
    return resp


class CategoricalModel:
    """Text attribute mixture: ``X | k ~ discrete(beta_k)`` (Eq. 3).

    Parameters
    ----------
    compiled:
        The frozen term-count table (``c_{v,l}`` of Eq. 3).
    n_clusters:
        ``K``.
    num_nodes:
        Global node count ``n`` (for scattering theta contributions).
    smoothing:
        Additive smoothing applied in the ``beta`` M-step so no term
        probability hits exactly zero (keeps log-likelihoods finite for
        terms that drift out of a cluster).
    """

    def __init__(
        self,
        compiled: CompiledTextAttribute,
        n_clusters: int,
        num_nodes: int,
        smoothing: float = 1e-10,
    ) -> None:
        if n_clusters < 1:
            raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
        self.compiled = compiled
        self.n_clusters = n_clusters
        self.num_nodes = num_nodes
        self.smoothing = smoothing
        self.beta: np.ndarray | None = None
        # frozen sparse structure (canonical CSR order) + per-call
        # buffers, allocated once
        counts = sparse.csr_matrix(compiled.counts, dtype=np.float64)
        counts.sum_duplicates()
        counts.sort_indices()
        n_obs_nodes = counts.shape[0]
        self._indptr = counts.indptr
        self._cols = counts.indices.astype(np.int64, copy=False)
        self._vals = counts.data
        self._rows = np.repeat(
            np.arange(n_obs_nodes, dtype=np.int64), np.diff(counts.indptr)
        )
        self._denom = np.empty(self._vals.size)
        self._ratio_data = np.empty(self._vals.size)
        # C / d over the counts pattern, filled blockwise by the E-pass
        self._ratio = sparse.csr_matrix(
            (self._ratio_data, self._cols, self._indptr), shape=counts.shape
        )
        self._theta_obs = np.empty((n_obs_nodes, n_clusters))
        self._term = np.empty((n_obs_nodes, n_clusters))
        self._beta_t = np.empty((counts.shape[1], n_clusters))
        # blocked execution over observed-node rows: each block owns a
        # contiguous nnz range of the canonical counts pattern
        self._block_rows: int | None = None
        self._plan = None

    # ------------------------------------------------------------------
    def init_params(
        self, rng: np.random.Generator, variant: int = 0
    ) -> None:
        """Random near-uniform term distributions (broken symmetry).

        ``variant`` exists for interface parity with
        :meth:`GaussianModel.init_params`; categorical components are
        exchangeable, so every variant draws the same way.
        """
        del variant  # exchangeable components: nothing to permute
        m = max(self.compiled.vocab_size, 1)
        noise = rng.random((self.n_clusters, m)) + 0.5
        self.beta = noise / noise.sum(axis=1, keepdims=True)

    def _require_params(self) -> np.ndarray:
        if self.beta is None:
            raise RuntimeError(
                "CategoricalModel used before init_params/set_params"
            )
        return self.beta

    def set_params(self, beta: np.ndarray) -> None:
        """Install explicit component parameters (rows must sum to 1)."""
        beta = np.asarray(beta, dtype=np.float64)
        expected = (self.n_clusters, self.compiled.vocab_size)
        if beta.shape != expected:
            raise ValueError(f"beta must have shape {expected}, got {beta.shape}")
        if np.any(beta < 0):
            raise ValueError("beta entries must be non-negative")
        sums = beta.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-8):
            raise ValueError("beta rows must sum to 1")
        self.beta = beta.copy()

    # ------------------------------------------------------------------
    def set_block_rows(self, block_rows: int | None) -> None:
        """Override the blocked-execution row count (``None`` = auto)."""
        if block_rows != self._block_rows:
            self._block_rows = block_rows
            self._plan = None

    def _get_plan(self):
        plan = self._plan
        if plan is None:
            plan = plan_for_observations(
                self._theta_obs.shape[0],
                self.n_clusters,
                self._vals.size,
                self._block_rows,
            )
            self._plan = plan
        return plan

    def accumulate_e_step(
        self, theta: np.ndarray, out: np.ndarray, num_workers: int = 1
    ) -> None:
        """The E-pass of Eq. 10 alone, adding the theta contribution to
        ``out``; ``beta`` is read, never updated.

        ``out[v] += sum_l c_{v,l} * p(z_{v,l} = k | Theta, beta)`` for
        each observed object.  The pass runs over contiguous
        observed-node blocks (each block owns its nnz range of the
        canonical counts pattern and writes disjoint rows of ``out``),
        so results are bit-identical at any ``num_workers``, and a
        row's result does not depend on which other rows share the
        model.  It leaves the memberships of the observed objects and
        the ``C / d`` ratio matrix behind for the M-step.
        """
        beta = self._require_params()
        if self._vals.size == 0:
            return
        indices = self.compiled.node_indices
        theta_obs = self._theta_obs
        beta_t = self._beta_t
        beta_t[...] = beta.T
        rows, cols, vals, indptr = (
            self._rows, self._cols, self._vals, self._indptr
        )
        denom = self._denom
        ratio_data = self._ratio_data

        def block(_index: int, v0: int, v1: int) -> None:
            p0 = int(indptr[v0])
            p1 = int(indptr[v1])
            rows_slice = theta_obs[v0:v1]
            np.take(theta, indices[v0:v1], axis=0, out=rows_slice)
            if p1 > p0:
                np.einsum(
                    "nk,kn->n",
                    theta_obs[rows[p0:p1]],
                    beta[:, cols[p0:p1]],
                    out=denom[p0:p1],
                )
                np.maximum(denom[p0:p1], 1e-300, out=denom[p0:p1])
                np.divide(vals[p0:p1], denom[p0:p1], out=ratio_data[p0:p1])
            # self._ratio shares ratio_data: its rows v0:v1 now hold C/d
            csr_matmul_rows(self._ratio, beta_t, self._term, v0, v1)
            term_slice = self._term[v0:v1]
            term_slice *= rows_slice
            out[indices[v0:v1]] += term_slice

        run_blocks(self._get_plan(), block, num_workers)

    def accumulate_em_step(
        self, theta: np.ndarray, out: np.ndarray, num_workers: int = 1
    ) -> None:
        """One EM pass (Eq. 10), adding the theta contribution to ``out``.

        :meth:`accumulate_e_step` with the *incoming* ``beta``, exactly
        as Eq. 10 prescribes; ``beta`` is then updated in place from the
        same responsibilities, a serial epilogue over the
        blockwise-filled ratio matrix.
        """
        beta = self._require_params()
        if self._vals.size == 0:
            return
        self.accumulate_e_step(theta, out, num_workers)
        # beta M-step: beta_kl propto sum_v c_vl p(z=k) = beta_kl * [theta^T (C/d)]_kl
        beta_new = beta * (self._theta_obs.T @ self._ratio)
        beta_new += self.smoothing
        self.beta = beta_new / beta_new.sum(axis=1, keepdims=True)

    def em_step(self, theta: np.ndarray) -> np.ndarray:
        """Allocating wrapper: the Eq. 10 contribution as a dense array.

        The returned ``(n, K)`` array holds the responsibility sums for
        each observed object (zero elsewhere); parameters are refreshed
        exactly as in :meth:`accumulate_em_step`.
        """
        contribution = np.zeros((self.num_nodes, self.n_clusters))
        self._require_params()
        self.accumulate_em_step(theta, contribution)
        return contribution

    def log_likelihood(self, theta: np.ndarray) -> float:
        """``sum_v sum_l c_vl log(sum_k theta_vk beta_kl)`` (log of Eq. 3)."""
        if self._vals.size == 0:
            return 0.0
        theta_obs = theta[self.compiled.node_indices]
        # einsum over the nonzero pattern only: O(nnz * K)
        denom = np.einsum(
            "nk,kn->n",
            theta_obs[self._rows],
            self._require_params()[:, self._cols],
        )
        denom = np.maximum(denom, 1e-300)
        return float(np.dot(self._vals, np.log(denom)))


class GaussianModel:
    """Numeric attribute mixture: ``X | k ~ N(mu_k, sigma_k^2)`` (Eq. 4).

    Parameters
    ----------
    compiled:
        The frozen observation list.
    n_clusters:
        ``K``.
    num_nodes:
        Global node count ``n``.
    variance_floor:
        Lower clamp for component variances (prevents collapse when a
        component captures a single observation).
    """

    def __init__(
        self,
        compiled: CompiledNumericAttribute,
        n_clusters: int,
        num_nodes: int,
        variance_floor: float = 1e-8,
    ) -> None:
        if n_clusters < 1:
            raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
        if variance_floor <= 0:
            raise ConfigError(
                f"variance_floor must be positive, got {variance_floor}"
            )
        self.compiled = compiled
        self.n_clusters = n_clusters
        self.num_nodes = num_nodes
        self.variance_floor = variance_floor
        self.means: np.ndarray | None = None
        self.variances: np.ndarray | None = None
        # frozen observation structure + per-call buffers.  Blocked
        # execution needs each observed node's observations contiguous,
        # so the flattened observation list is canonicalized to
        # owner-grouped order once (compile() already emits it grouped;
        # the stable sort is a no-op then).
        owners = compiled.owners.astype(np.int64, copy=False)
        values = np.asarray(compiled.values, dtype=np.float64)
        if owners.size and np.any(np.diff(owners) < 0):
            order = np.argsort(owners, kind="stable")
            owners = owners[order]
            values = values[order]
        self._owners = owners
        self._values = np.ascontiguousarray(values)
        n_obs = values.size
        n_obs_nodes = compiled.node_indices.shape[0]
        # owners index into the local observed-node block; precompose
        # with node_indices so theta rows gather in one take
        self._global_owners = compiled.node_indices[owners]
        # per-node observation ranges: node v owns observations
        # _obs_indptr[v] .. _obs_indptr[v + 1] of the grouped arrays
        self._obs_indptr = np.searchsorted(
            owners, np.arange(n_obs_nodes + 1)
        )
        # the E+M sweep runs in *component-major* ``(K, n_obs)`` layout:
        # every per-component field is then a contiguous row, so the
        # scalar/broadcast ufuncs stay on numpy's SIMD fast paths (the
        # historical ``(n_obs, K)`` layout paid strided inner loops of
        # length K on every broadcastng pass)
        self._resp = np.empty((n_clusters, n_obs))
        self._dev = np.empty((n_clusters, n_obs))
        self._gather = np.empty((n_clusters, n_obs))
        self._obs_buf = np.empty(n_obs)
        self._per_node = np.empty((n_obs_nodes, n_clusters))
        self._theta_t = np.empty((n_clusters, num_nodes))
        # blocked execution over observed-node rows + per-block M-step
        # partials (accumulated in block order for determinism)
        self._block_rows: int | None = None
        self._plan = None
        self._partials: np.ndarray | None = None

    # ------------------------------------------------------------------
    def init_params(
        self, rng: np.random.Generator, variant: int = 0
    ) -> None:
        """Quantile-spread means plus jitter; variance = global variance.

        Component ``k`` starts at the ``(k + 0.5) / K`` quantile of the
        observed values.  ``variant`` selects the *component order*:

        * ``variant == 0`` -- sorted ascending.  When several attributes
          are co-monotone over the hidden clusters (the weather
          Setting 1 patterns), sorted components start aligned on the
          same cluster indices, so link consistency reinforces rather
          than fights the attribute terms.
        * ``variant > 0`` -- a random permutation of the quantiles.  For
          non-co-monotone patterns (Setting 2's corner means, where the
          marginal of each attribute repeats values across clusters) no
          sorted order is correct; permuted seeds let the multi-seed
          ``g1`` selection of Section 4.3 discover a cross-attribute
          alignment the links agree with.

        The jitter breaks exact ties when distinct clusters share a mean
        in one dimension -- identical components would otherwise receive
        identical responsibilities forever.
        """
        values = self.compiled.values
        if values.size == 0:
            self.means = np.zeros(self.n_clusters)
            self.variances = np.ones(self.n_clusters)
            return
        quantiles = (np.arange(self.n_clusters) + 0.5) / self.n_clusters
        means = np.quantile(values, quantiles)
        if variant > 0:
            means = rng.permutation(means)
        spread = max(float(values.std()), 1e-3)
        jitter = rng.normal(0.0, spread * 0.05, size=self.n_clusters)
        self.means = means + jitter
        global_var = max(float(values.var()), self.variance_floor)
        self.variances = np.full(self.n_clusters, global_var)

    def set_params(self, means: np.ndarray, variances: np.ndarray) -> None:
        """Install explicit component parameters."""
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64)
        if means.shape != (self.n_clusters,):
            raise ValueError(
                f"means must have shape ({self.n_clusters},), "
                f"got {means.shape}"
            )
        if variances.shape != (self.n_clusters,):
            raise ValueError(
                f"variances must have shape ({self.n_clusters},), "
                f"got {variances.shape}"
            )
        if np.any(variances <= 0):
            raise ValueError("variances must be positive")
        self.means = means.copy()
        self.variances = np.maximum(variances, self.variance_floor)

    def _require_params(self) -> tuple[np.ndarray, np.ndarray]:
        if self.means is None or self.variances is None:
            raise RuntimeError(
                "GaussianModel used before init_params/set_params"
            )
        return self.means, self.variances

    # ------------------------------------------------------------------
    def _log_pdf(self) -> np.ndarray:
        """``(n_obs, K)`` log densities of every observation per cluster
        (in the canonical owner-grouped order of ``_values``)."""
        means, variances = self._require_params()
        return gaussian_log_pdf(self._values, means, variances)

    def set_block_rows(self, block_rows: int | None) -> None:
        """Override the blocked-execution row count (``None`` = auto)."""
        if block_rows != self._block_rows:
            self._block_rows = block_rows
            self._plan = None
            self._partials = None

    def _get_plan(self):
        plan = self._plan
        if plan is None:
            plan = plan_for_observations(
                self.compiled.node_indices.shape[0],
                self.n_clusters,
                self._values.size,
                self._block_rows,
            )
            self._plan = plan
            self._partials = np.empty(
                (3, plan.num_blocks, self.n_clusters)
            )
        return plan

    def accumulate_e_step(
        self, theta: np.ndarray, out: np.ndarray, num_workers: int = 1
    ) -> None:
        """The E-pass of Eq. 11 alone, adding the theta contribution to
        ``out``; means and variances are read, never updated.

        ``out[v] += sum_{x in v[X]} p(z_{v,x} = k)`` for observed
        objects, by the same blocked component-major sweep
        :meth:`accumulate_em_step` runs, minus its M-step moments.
        """
        self._sweep(theta, out, num_workers, moments=False)

    def accumulate_em_step(
        self, theta: np.ndarray, out: np.ndarray, num_workers: int = 1
    ) -> None:
        """One EM pass (Eq. 11), adding the theta contribution to ``out``.

        ``out[v] += sum_{x in v[X]} p(z_{v,x} = k)`` for observed
        objects; means and variances are then refreshed from the same
        responsibilities (their M-step in Eq. 11).

        The E and M passes are fused into one sweep over contiguous
        observed-node blocks in component-major ``(K, n_obs)`` layout:
        every per-component field is a contiguous row (scalar-operand
        ufuncs, SIMD-friendly), a block's fields stay cache-resident
        across the density / gather / normalize / scatter / moment
        passes, and the M-step reduces per-block moment partials in
        block order, so results are bit-identical at any
        ``num_workers``.  The second moment is taken around the
        incoming means -- exactly the ``(x - mu_k)^2`` field the
        density already computed, removed as a shift afterwards --
        which folds the variance pass into the same block sweep
        without the cancellation a raw ``E[x^2]`` would risk.
        """
        if not self._sweep(theta, out, num_workers, moments=True):
            return
        means, variances = self._require_params()
        totals_p, m1_p, m2_p = self._partials
        num_blocks = self._plan.num_blocks
        totals = ordered_block_sum(
            totals_p[:num_blocks], np.empty(self.n_clusters)
        )
        m1 = ordered_block_sum(
            m1_p[:num_blocks], np.empty(self.n_clusters)
        )
        m2 = ordered_block_sum(
            m2_p[:num_blocks], np.empty(self.n_clusters)
        )
        safe_totals = np.maximum(totals, 1e-300)
        means_new = m1 / safe_totals
        # shifted second moment around the incoming means c = mu_k:
        # E[(x - m)^2] = E[(x - c)^2] - (m - c)^2
        delta = means_new - means
        var_new = m2 / safe_totals - delta * delta
        # clusters with no responsibility mass keep their parameters
        dead = totals <= 1e-300
        means_new[dead] = means[dead]
        var_new[dead] = variances[dead]
        self.means = means_new
        self.variances = np.maximum(var_new, self.variance_floor)

    def _sweep(
        self,
        theta: np.ndarray,
        out: np.ndarray,
        num_workers: int,
        moments: bool,
    ) -> bool:
        """The blocked E-pass; with ``moments`` it also fills the
        per-block M-step partials.  False when there is nothing to
        score."""
        means, variances = self._require_params()
        if self._values.size == 0:
            return False
        plan = self._get_plan()
        k_components = self.n_clusters
        values = self._values
        indices = self.compiled.node_indices
        obs_indptr = self._obs_indptr
        owners = self._owners
        global_owners = self._global_owners
        theta_t = self._theta_t
        np.copyto(theta_t, theta.T)
        # log N(x; mu_k, s_k) = coeff_k (x - mu_k)^2 + log_norm_k; the
        # row max-shift of the softmax is skipped -- log_norm is bounded
        # (|A_k| < 709 for any positive float64 variance) so exp cannot
        # overflow, and fully-underflowed rows take the same clamped
        # log-space fallback the shifted path used
        coeff = -0.5 / variances
        log_norm = -0.5 * (_LOG_2PI + np.log(variances))
        totals_p, m1_p, m2_p = self._partials

        def block(index: int, v0: int, v1: int) -> None:
            o0 = int(obs_indptr[v0])
            o1 = int(obs_indptr[v1])
            x = values[o0:o1]
            r = self._resp[:, o0:o1]
            dev = self._dev[:, o0:o1]
            gather = self._gather[:, o0:o1]
            sums = self._obs_buf[o0:o1]
            for k in range(k_components):
                np.subtract(x, means[k], out=dev[k])
            np.multiply(dev, dev, out=dev)  # dev = (x - mu_k)^2
            np.multiply(dev, coeff[:, None], out=r)
            r += log_norm[:, None]
            np.exp(r, out=r)
            # weight by the owning object's memberships and normalize
            np.take(theta_t, global_owners[o0:o1], axis=1, out=gather)
            r *= gather
            if k_components == 1:
                np.copyto(sums, r[0])
            else:
                np.add(r[0], r[1], out=sums)
                for k in range(2, k_components):
                    sums += r[k]
            if o1 > o0 and float(np.min(sums)) <= 0.0:
                # every component underflowed (density spread > ~708
                # nats from the theta-supported one): re-score just
                # those observations through the clamped log-space
                # reference, which cannot vanish
                bad = np.flatnonzero(sums <= 0.0)
                r[:, bad] = gaussian_responsibilities(
                    theta[global_owners[o0:o1][bad]],
                    x[bad],
                    np.arange(bad.size),
                    means,
                    variances,
                ).T
                sums[bad] = 1.0
            r /= sums[None, :]
            # scatter + M-step moment partials for this block
            local = owners[o0:o1] - v0
            per_node = self._per_node
            for k in range(k_components):
                counts = np.bincount(
                    local, weights=r[k], minlength=v1 - v0
                )
                per_node[v0:v1, k] = counts
                if moments:
                    totals_p[index, k] = counts.sum()
                    m1_p[index, k] = np.dot(x, r[k])
                    m2_p[index, k] = np.dot(r[k], dev[k])
            out[indices[v0:v1]] += per_node[v0:v1]

        run_blocks(plan, block, num_workers)
        return True

    def em_step(self, theta: np.ndarray) -> np.ndarray:
        """Allocating wrapper: the Eq. 11 contribution as a dense array."""
        contribution = np.zeros((self.num_nodes, self.n_clusters))
        self._require_params()
        self.accumulate_em_step(theta, contribution)
        return contribution

    def log_likelihood(self, theta: np.ndarray) -> float:
        """Log of Eq. (4): ``sum_obs log sum_k theta_vk N(x; mu_k, s_k)``."""
        if self.compiled.values.size == 0:
            return 0.0
        log_theta = np.log(
            np.maximum(theta[self._global_owners], 1e-300)
        )
        log_mix = log_theta + self._log_pdf()
        peak = log_mix.max(axis=1, keepdims=True)
        return float(
            np.sum(peak.ravel() + np.log(
                np.exp(log_mix - peak).sum(axis=1)
            ))
        )


AttributeModel = CategoricalModel | GaussianModel
"""Union of the concrete attribute model types."""
