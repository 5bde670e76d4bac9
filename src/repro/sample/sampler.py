"""Seeded k-hop fanout neighbor sampling.

:class:`FanoutSampler` grows an ego network around one seed node the
way GraphSAGE-style minibatch trainers do: hop ``h`` draws a uniform
subset of ``min(fanouts[h], degree)`` neighbors *without replacement*
from every frontier node's neighbor list, the union of fresh draws
becomes the next frontier, and already-visited nodes are never
re-added.  Each hop takes all its random numbers from one
``rng.random`` call and picks every frontier node's subset from its
share of them with Floyd's algorithm: ``fanout`` draws per node and no
per-node generator call, so the walk costs a few Python steps per pick.
Sampling is a pure function of ``(graph, seed, fanouts, rng state)`` —
two samplers holding generators seeded identically produce
byte-identical node sets, which is what lets the bench verify every
served subgraph against a SciPy oracle after the fact.
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
from repro.sample.index import PULL, NeighborIndex, neighbor_index

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
        """One ego walk from ``seed``; consumes ``rng`` deterministically.

        Each hop makes one ``rng.random(len(frontier) * fanout)`` call
        (none for a non-positive fanout); frontier node ``i`` uses draws
        ``i * fanout`` onwards.
        """
        seed = int(seed)
        if not 0 <= seed < self.index.n_nodes:
            raise ValueError(
                f"seed {seed} out of range [0, {self.index.n_nodes})"
            )
        pointers = self.index.csc.col_pointers
        neighbor_ids = self.index.csc.row_indices
        visited = {seed}
        ordered = [seed]
        frontier = [seed]
        hop_counts = [1]
        for fanout in self.fanouts:
            draws = (
                rng.random(len(frontier) * fanout).tolist()
                if fanout > 0
                else []
            )
            # Positions in ``neighbor_ids`` of every pick this hop, in
            # frontier order, so one gather serves the whole hop.
            positions: "list[int]" = []
            for slot, node in enumerate(frontier):
                start = int(pointers[node])
                degree = int(pointers[node + 1]) - start
                if 0 < fanout < degree:
                    share = draws[slot * fanout : (slot + 1) * fanout]
                    positions += [start + o for o in _floyd(degree, share)]
                else:
                    positions += range(start, start + degree)
            fresh: "list[int]" = []
            for neighbor in neighbor_ids[positions].tolist():
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


def _floyd(degree: int, draws: "list[float]") -> "list[int]":
    """A uniform ``k = len(draws)``-subset of ``range(degree)`` (Floyd).

    Step ``i`` maps its draw to ``t``, uniform over ``range(j)`` with
    ``j = degree - k + i + 1``, and takes ``j - 1`` instead when ``t``
    is already taken, which leaves every ``k``-subset equally likely.
    Offsets are returned in the order taken.
    """
    taken: "set[int]" = set()
    offsets = []
    for j, draw in enumerate(draws, start=degree - len(draws) + 1):
        offset = int(draw * j)
        if offset in taken:
            offset = j - 1
        taken.add(offset)
        offsets.append(offset)
    return offsets


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

    Walks ``matrix``'s memoised index
    (:func:`~repro.sample.index.neighbor_index`), so repeated calls
    against the same (epoch of the) graph build one index and hash
    nothing.  ``rng`` defaults to a generator seeded by the seed node,
    making the default path deterministic per seed.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    index = neighbor_index(matrix, direction)
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
