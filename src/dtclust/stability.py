"""Cluster stability estimation by bagging.

Rerun the whole pipeline (preprocessing refit included) on N random samples of
the rows; a cluster is stable when some cluster found on each sample covers
nearly the same rows. Agreement is the Jaccard index of the two row sets
restricted to the sample, maximized over the sample's clusters and averaged
over samples (the cluster-wise bootstrap of Hennig, 2007).

A sample is its sorted row ids. The table is never copied: each sample is fit
with pipeline.run_extraction(ds, config, rows=ids), which prepares the sample
from the one encoded table and logs its preparation warnings at DEBUG, since
the fit on the whole table has already given them. A sample reads only its
clusters' rows, so it is fit with clusters_only: each tree grows only below
nodes that can still beat the best node of its round, which gives the same
clusters as whole trees.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import pipeline
from .dataset import Dataset
from .errors import ConfigError, DataError
from .extract import ClusterCandidate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StabilityParams:
    """Bagging settings, checked when built, so a bad value fails before any table is read."""

    n_samples: int = 20
    fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigError(f"--samples must be >= 1, got {self.n_samples}")
        if not 0 < self.fraction <= 1:
            raise ConfigError(f"--fraction must be in (0, 1], got {self.fraction}")
        if self.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {self.seed}")


def draw_sample(ds: Dataset, fraction: float, seed: int, k: int) -> np.ndarray:
    """Row ids of a uniform sample without replacement of ceil(fraction * rows) rows, ascending.

    Deterministic per (seed, k). No rows are copied: the sample is fit from
    these ids with pipeline.run_extraction(ds, config, rows=ids).
    """
    if not 0 < fraction <= 1:
        raise ConfigError(f"sample fraction must be in (0, 1], got {fraction}")
    n = ds.row_count
    m = math.ceil(fraction * n)
    rng = np.random.default_rng([seed, k])
    return np.sort(rng.choice(n, size=m, replace=False))


def pairwise_score(c_rows: np.ndarray, c_prime_rows: np.ndarray, sample_rows: np.ndarray) -> float:
    """Jaccard agreement of an original cluster and a sample cluster on the sample rows.

    Both clusters are restricted to the sample; two empty restrictions count as
    perfect agreement. Row sets are boolean masks over 0..max row id.
    """
    ids = [np.asarray(r, dtype=np.intp) for r in (c_rows, c_prime_rows, sample_rows)]
    size = max((int(r.max()) + 1 for r in ids if r.size), default=0)

    def mask(r: np.ndarray) -> np.ndarray:
        out = np.zeros(size, dtype=bool)
        out[r] = True
        return out

    c, c_prime, sample = (mask(r) for r in ids)
    if (c_prime & ~sample).any():
        raise DataError("sample cluster contains rows outside the sample")
    c &= sample
    union = np.count_nonzero(c | c_prime)
    if union == 0:
        return 1.0
    return np.count_nonzero(c & c_prime) / union


@dataclass(frozen=True)
class ClusterStability:
    cluster_index: int
    per_sample: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.per_sample) / len(self.per_sample)

    @property
    def min(self) -> float:
        return min(self.per_sample)

    @property
    def max(self) -> float:
        return max(self.per_sample)


@dataclass(frozen=True)
class StabilityReport:
    clusters: tuple[ClusterStability, ...]
    params: StabilityParams

    def score(self, cluster_index: int) -> float:
        return self.clusters[cluster_index].mean

    def to_dict(self) -> dict:
        return {
            **asdict(self.params),
            "clusters": [
                {
                    "cluster": c.cluster_index,
                    "mean": c.mean,
                    "min": c.min,
                    "max": c.max,
                    "per_sample": list(c.per_sample),
                }
                for c in self.clusters
            ],
        }


def stability_report(ds: Dataset, clusters: Sequence[ClusterCandidate], config,
                     params: StabilityParams) -> StabilityReport:
    """Bagged stability of already-extracted clusters.

    config is the PipelineConfig the clusters came from; each sample refits the
    preprocessing (bin edges, frequency orders) on its rows of ds and extracts
    the same number of clusters. A sample yielding no clusters contributes a
    score of 0.
    """
    if not clusters:
        raise ConfigError("stability_report needs at least one extracted cluster")

    sample_config = replace(config, n_clusters=len(clusters))
    scores = np.zeros((len(clusters), params.n_samples))
    for k in range(params.n_samples):
        ids = draw_sample(ds, params.fraction, params.seed, k)
        # looked up on the module at call time, so a wrapper installed there sees every fit
        result = pipeline.run_extraction(ds, sample_config, rows=ids, clusters_only=True)
        sample_clusters = [ids[c.row_ids] for c in result.clusters]
        if not sample_clusters:
            log.warning("sample %d produced no clusters; scores set to 0", k)
            continue
        for i, original in enumerate(clusters):
            scores[i, k] = max(
                pairwise_score(original.row_ids, rows, ids) for rows in sample_clusters
            )
    per_cluster = tuple(ClusterStability(i, tuple(map(float, row))) for i, row in enumerate(scores))
    return StabilityReport(per_cluster, params)
