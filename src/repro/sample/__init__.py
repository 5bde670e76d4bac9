"""Ego-graph minibatch sampling for the serving stack.

The :mod:`repro.sample` package turns the full-graph serving pipeline
into a GraphBolt-style minibatch one:

* :mod:`~repro.sample.index` — CSC-backed neighbor lookups over the
  live graph, memoised on each snapshot's matrix;
* :mod:`~repro.sample.sampler` — seeded k-hop fanout sampling;
* :mod:`~repro.sample.extract` — compact relabeled subgraph extraction
  (small version-stamped :class:`~repro.formats.csr.CSRMatrix`,
  node mapping, gathered features).

Entry points: :func:`~repro.sample.sampler.sample_ego` for one-shot
sampling, :meth:`repro.serve.InferenceService.submit_ego` for serving.
"""

from repro.sample.extract import (
    EgoSubgraph,
    extract_subgraph,
    gather_features,
)
from repro.sample.index import (
    PULL,
    PUSH,
    NeighborIndex,
    neighbor_index,
)
from repro.sample.sampler import (
    FanoutSampler,
    SampleResult,
    sample_ego,
)

__all__ = [
    "PULL",
    "PUSH",
    "EgoSubgraph",
    "FanoutSampler",
    "NeighborIndex",
    "SampleResult",
    "extract_subgraph",
    "gather_features",
    "neighbor_index",
    "sample_ego",
]
