"""Seeded k-hop fanout neighbor sampling.

:class:`FanoutSampler` grows an ego network around one seed node the
way GraphSAGE-style minibatch trainers do: hop ``h`` draws at most
``fanouts[h]`` neighbors *without replacement* from every frontier
node's neighbor list, the union of fresh draws becomes the next
frontier, and already-visited nodes are never re-added.  Sampling is a
pure function of ``(graph, seed, fanouts, rng state)`` — two samplers
holding generators seeded identically produce byte-identical node sets,
which is what lets the bench verify every served subgraph against a
SciPy oracle after the fact.

:class:`ZipfSeedGenerator` models the serving-side request skew: seed
popularity follows a Zipf law over nodes ranked by degree, so hubs are
requested far more often than the long tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.formats import CSRMatrix
from repro.sample.extract import (
    EgoSubgraph,
    extract_subgraph,
)
from repro.sample.index import (
    PULL,
    NeighborIndex,
    get_neighbor_index_cache,
)

INDEX_DTYPE = np.int64


@dataclass(frozen=True)
class SampleResult:
    """The node set one fanout walk discovered.

    Attributes:
        nodes: Distinct global ids in discovery order (``nodes[0]`` is
            the seed).
        hop_counts: Nodes first discovered at each hop; ``hop_counts[0]``
            is always 1 (the seed) and the entries sum to ``len(nodes)``.
        fanouts: The per-hop caps the walk ran with.
    """

    nodes: np.ndarray = field(repr=False)
    hop_counts: "tuple[int, ...]" = ()
    fanouts: "tuple[int, ...]" = ()


class FanoutSampler:
    """K-hop neighbor sampling with per-hop fanout caps.

    Args:
        index: Neighbor index to expand through (its direction decides
            whether hops follow message sources or sinks).
        fanouts: Per-hop caps, outermost hop last; ``len(fanouts)`` is
            the number of hops.  A non-positive fanout keeps *all*
            neighbors at that hop (DGL's ``-1`` convention).
    """

    def __init__(self, index: NeighborIndex, fanouts: "tuple[int, ...]") -> None:
        fanouts = tuple(int(f) for f in fanouts)
        if not fanouts:
            raise ValueError("fanouts must name at least one hop")
        self.index = index
        self.fanouts = fanouts

    def sample(self, seed: int, rng: np.random.Generator) -> SampleResult:
        """One ego walk from ``seed``; consumes ``rng`` deterministically."""
        seed = int(seed)
        if not 0 <= seed < self.index.n_nodes:
            raise ValueError(
                f"seed {seed} out of range [0, {self.index.n_nodes})"
            )
        visited = {seed}
        ordered = [seed]
        frontier = [seed]
        hop_counts = [1]
        for fanout in self.fanouts:
            fresh: "list[int]" = []
            for node in frontier:
                neighbor_ids, _ = self.index.neighbors(node)
                if len(neighbor_ids) == 0:
                    continue
                if 0 < fanout < len(neighbor_ids):
                    picks = rng.choice(
                        neighbor_ids, size=fanout, replace=False
                    )
                else:
                    picks = neighbor_ids
                for neighbor in picks:
                    neighbor = int(neighbor)
                    if neighbor not in visited:
                        visited.add(neighbor)
                        ordered.append(neighbor)
                        fresh.append(neighbor)
            hop_counts.append(len(fresh))
            if not fresh:
                break
            frontier = fresh
        obs.counter("sample.sampler.walks").inc()
        obs.counter("sample.sampler.nodes").inc(len(ordered))
        return SampleResult(
            nodes=np.asarray(ordered, dtype=INDEX_DTYPE),
            hop_counts=tuple(hop_counts),
            fanouts=self.fanouts,
        )


def sample_ego(
    matrix: CSRMatrix,
    seed: int,
    *,
    fanouts: "tuple[int, ...]" = (10, 5),
    rng: "np.random.Generator | None" = None,
    direction: str = PULL,
    add_self_loops: bool = False,
) -> EgoSubgraph:
    """Sample + extract in one call: the ego subgraph around ``seed``.

    Uses the process-wide :class:`~repro.sample.index.NeighborIndexCache`
    so repeated calls against the same (epoch of the) graph reuse one
    index.  ``rng`` defaults to a generator seeded by the seed node,
    making the default path deterministic per seed.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    index = get_neighbor_index_cache().get(matrix, direction)
    sampler = FanoutSampler(index, tuple(fanouts))
    with obs.span("sample.ego"):
        result = sampler.sample(seed, rng)
        sub = extract_subgraph(
            matrix, result.nodes, add_self_loops=add_self_loops
        )
    return EgoSubgraph(
        matrix=sub,
        nodes=result.nodes,
        seed=int(seed),
        hop_counts=result.hop_counts,
        fanouts=result.fanouts,
    )


class ZipfSeedGenerator:
    """Degree-ranked Zipf popularity over a graph's nodes.

    Node at popularity rank ``r`` (1-based, ranked by descending degree,
    ties broken by node id) is drawn with weight ``1 / r**alpha``.
    ``alpha=0`` degenerates to uniform; ``alpha`` around 1 matches the
    hub-heavy request skew seen in production GNN inference traces.
    """

    def __init__(
        self,
        degrees: np.ndarray,
        *,
        alpha: float = 1.0,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        degrees = np.asarray(degrees, dtype=np.float64)
        if degrees.ndim != 1 or len(degrees) == 0:
            raise ValueError("degrees must be a non-empty 1-D array")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Descending degree, ascending node id on ties (stable sort on -deg).
        self.ranked_nodes = np.argsort(-degrees, kind="stable").astype(
            INDEX_DTYPE
        )
        ranks = np.arange(1, len(degrees) + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, self.alpha)
        self.probabilities = weights / weights.sum()

    @classmethod
    def for_matrix(
        cls,
        matrix: CSRMatrix,
        *,
        alpha: float = 1.0,
        rng: "np.random.Generator | None" = None,
    ) -> "ZipfSeedGenerator":
        """Popularity ranked by out-degree (CSR row lengths) of ``matrix``."""
        return cls(matrix.row_lengths, alpha=alpha, rng=rng)

    def draw(self, count: int = 1) -> np.ndarray:
        """``count`` seed node ids, hubs most likely."""
        picks = self._rng.choice(
            len(self.ranked_nodes), size=count, p=self.probabilities
        )
        obs.counter("sample.seeds.drawn").inc(count)
        return self.ranked_nodes[picks]
