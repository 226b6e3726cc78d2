"""Cluster stability estimation by bagging.

Rerun the whole pipeline (preprocessing refit included) on N random subsets of
the rows; a cluster is stable when some cluster found on each subset covers
nearly the same rows. Agreement is the Jaccard index of the two row sets
restricted to the sample, maximized over the sample's clusters and averaged
over samples.
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


def draw_sample(ds: Dataset, fraction: float, seed: int, k: int) -> tuple[Dataset, np.ndarray]:
    """Uniform sample without replacement of ceil(fraction * rows) rows.

    Deterministic per (seed, k). Returns the row-sliced dataset and the original
    row ids, ascending.
    """
    if not 0 < fraction <= 1:
        raise ConfigError(f"sample fraction must be in (0, 1], got {fraction}")
    n = ds.row_count
    m = math.ceil(fraction * n)
    rng = np.random.default_rng([seed, k])
    ids = np.sort(rng.choice(n, size=m, replace=False))
    return ds.subset(ids), ids


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
    preprocessing (bin edges, frequency orders) and extracts the same number of
    clusters. A sample yielding no clusters contributes a score of 0.
    """
    if not clusters:
        raise ConfigError("stability_report needs at least one extracted cluster")

    sample_config = replace(config, n_clusters=len(clusters))
    scores = np.zeros((len(clusters), params.n_samples))
    for k in range(params.n_samples):
        view, ids = draw_sample(ds, params.fraction, params.seed, k)
        # looked up on the module at call time, so a wrapper installed there sees every fit
        result = pipeline.run_extraction(view, sample_config)
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
