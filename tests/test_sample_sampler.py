"""Unit tests for fanout sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import CSRMatrix
from repro.graphs import power_law_graph
from repro.sample import index as index_module
from repro.sample.index import NeighborIndex
from repro.sample.sampler import FanoutSampler, sample_ego


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(n_nodes=200, nnz=1_400, max_degree=60, seed=3)


@pytest.fixture(scope="module")
def index(graph):
    return NeighborIndex(graph)


class TestFanoutSampler:
    def test_deterministic_under_identical_rng(self, index):
        a = FanoutSampler(index, (10, 5)).sample(
            0, np.random.default_rng(42)
        )
        b = FanoutSampler(index, (10, 5)).sample(
            0, np.random.default_rng(42)
        )
        assert np.array_equal(a.nodes, b.nodes)
        assert a.hop_counts == b.hop_counts

    def test_seed_is_first_and_nodes_distinct(self, index):
        result = FanoutSampler(index, (4, 4)).sample(
            7, np.random.default_rng(0)
        )
        assert result.nodes[0] == 7
        assert len(set(result.nodes.tolist())) == len(result.nodes)

    def test_hop_counts_partition_the_node_set(self, index):
        result = FanoutSampler(index, (6, 3, 2)).sample(
            1, np.random.default_rng(1)
        )
        assert result.hop_counts[0] == 1
        assert sum(result.hop_counts) == len(result.nodes)

    def test_fanout_caps_hop_growth(self, index):
        fanouts = (3, 2)
        result = FanoutSampler(index, fanouts).sample(
            0, np.random.default_rng(5)
        )
        # Hop 1 draws from one frontier node; hop 2 from at most 3.
        assert result.hop_counts[1] <= 3
        if len(result.hop_counts) > 2:
            assert result.hop_counts[2] <= result.hop_counts[1] * 2
        assert len(result.nodes) <= 1 + 3 + 3 * 2

    def test_non_positive_fanout_keeps_all_neighbors(self, index, graph):
        result = FanoutSampler(index, (-1,)).sample(
            0, np.random.default_rng(0)
        )
        row = set(
            graph.column_indices[
                graph.row_pointers[0]:graph.row_pointers[1]
            ].tolist()
        )
        assert set(result.nodes.tolist()) == row | {0}

    def test_sampled_neighbors_are_real_edges(self, index, graph):
        result = FanoutSampler(index, (5,)).sample(
            2, np.random.default_rng(9)
        )
        row = set(
            graph.column_indices[
                graph.row_pointers[2]:graph.row_pointers[3]
            ].tolist()
        )
        assert set(result.nodes[1:].tolist()) <= row

    def test_dead_end_stops_early(self):
        # Node 1 has no neighbors: the walk is just the seed.
        matrix = CSRMatrix.from_dense(
            np.array([[0.0, 1.0], [0.0, 0.0]])
        )
        result = FanoutSampler(NeighborIndex(matrix), (4, 4)).sample(
            1, np.random.default_rng(0)
        )
        assert result.nodes.tolist() == [1]
        assert result.hop_counts == (1, 0)

    def test_validation(self, index):
        with pytest.raises(ValueError, match="at least one hop"):
            FanoutSampler(index, ())
        with pytest.raises(ValueError, match="out of range"):
            FanoutSampler(index, (3,)).sample(
                10_000, np.random.default_rng(0)
            )


def _star(degree: int) -> CSRMatrix:
    """Node 0 aggregates from nodes ``1..degree``; nothing else has edges."""
    pointers = np.full(degree + 2, degree, dtype=np.int64)
    pointers[0] = 0
    return CSRMatrix.from_arrays(pointers, np.arange(1, degree + 1))


@st.composite
def _walks(draw):
    """A random square graph (duplicates allowed), fanouts and a seed."""
    n = draw(st.integers(1, 14))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=9),
            min_size=n, max_size=n,
        )
    )
    matrix = CSRMatrix.from_arrays(
        np.concatenate(([0], np.cumsum([len(r) for r in rows]))),
        np.array([c for r in rows for c in r], dtype=np.int64),
        n_cols=n,
    )
    fanouts = tuple(draw(st.lists(st.integers(-1, 6), min_size=1, max_size=3)))
    return matrix, fanouts, draw(st.integers(0, n - 1)), draw(st.integers(0, 2**32))


class _CountingRng:
    """A generator that records the size of every ``random`` call."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self._rng.random(size)


class TestSamplerLaw:
    def test_each_neighbor_picked_uniformly(self):
        # 5 of 20 neighbors: each is in the subset with probability 1/4,
        # and each pair with C(18, 3) / C(20, 5).
        walks, degree, fanout = 20_000, 20, 5
        sampler = FanoutSampler(NeighborIndex(_star(degree)), (fanout,))
        rng = np.random.default_rng(2024)
        singles = np.zeros(degree + 1)
        pairs = np.zeros((degree + 1, degree + 1))
        for _ in range(walks):
            picks = sampler.sample(0, rng).nodes[1:]
            assert len(picks) == fanout
            singles[picks] += 1
            pairs[np.ix_(picks, picks)] += 1
        p_single = fanout / degree
        sd = np.sqrt(p_single * (1 - p_single) / walks)
        assert np.all(np.abs(singles[1:] / walks - p_single) < 5 * sd)
        p_pair = (fanout * (fanout - 1)) / (degree * (degree - 1))
        sd = np.sqrt(p_pair * (1 - p_pair) / walks)
        off_diagonal = pairs[1:, 1:][~np.eye(degree, dtype=bool)]
        assert np.all(np.abs(off_diagonal / walks - p_pair) < 5 * sd)

    @settings(max_examples=200, deadline=None)
    @given(walk=_walks())
    def test_hops_follow_edges_within_fanout(self, walk):
        matrix, fanouts, seed, rng_seed = walk
        result = FanoutSampler(NeighborIndex(matrix), fanouts).sample(
            seed, np.random.default_rng(rng_seed)
        )
        pointers, columns = matrix.row_pointers, matrix.column_indices

        def neighbors(node):
            return columns[pointers[node] : pointers[node + 1]].tolist()

        nodes = result.nodes.tolist()
        assert nodes[0] == seed and len(set(nodes)) == len(nodes)
        # Hop h's frontier is nodes[bounds[h - 1]:bounds[h]].
        bounds = [0, *np.cumsum(result.hop_counts).tolist()]
        for hop, fanout in enumerate(fanouts[: len(bounds) - 2], start=1):
            frontier = nodes[bounds[hop - 1] : bounds[hop]]
            fresh = nodes[bounds[hop] : bounds[hop + 1]]
            # Fresh nodes come in frontier order: walk the frontier and
            # charge each to the current node while it is a neighbor
            # and that node has picks left.
            current, charged = 0, 0
            for node in fresh:
                while current < len(frontier) and (
                    node not in neighbors(frontier[current])
                    or 0 < fanout <= charged
                ):
                    current, charged = current + 1, 0
                assert current < len(frontier), (node, frontier)
                charged += 1
            # A fanout at or above a node's degree keeps every neighbor.
            seen = set(nodes[: bounds[hop + 1]])
            for node in frontier:
                if fanout <= 0 or len(neighbors(node)) <= fanout:
                    assert set(neighbors(node)) <= seen

    def test_one_draw_per_hop(self, index):
        rng = _CountingRng(3)
        fanouts = (4, 3, -1, 2)
        result = FanoutSampler(index, fanouts).sample(0, rng)
        # hop_counts[h] is the size of hop h + 1's frontier.
        expected = [
            size * fanout
            for size, fanout in zip(result.hop_counts, fanouts)
            if fanout > 0 and size
        ]
        assert rng.sizes == expected


class TestSampleEgo:
    def test_returns_consistent_subgraph(self, graph):
        ego = sample_ego(graph, 0, fanouts=(6, 3), rng=np.random.default_rng(0))
        assert ego.seed == 0
        assert ego.nodes[0] == 0
        assert ego.matrix.n_rows == len(ego.nodes)
        assert ego.fanouts == (6, 3)
        dense = graph.to_dense()
        assert np.allclose(
            ego.matrix.to_dense(),
            dense[np.ix_(ego.nodes, ego.nodes)],
        )

    def test_deterministic_with_explicit_rng(self, graph):
        a = sample_ego(graph, 3, rng=np.random.default_rng(11))
        b = sample_ego(graph, 3, rng=np.random.default_rng(11))
        assert np.array_equal(a.nodes, b.nodes)

    def test_builds_one_index_per_matrix(self, graph, monkeypatch):
        built = []

        class Counting(index_module.NeighborIndex):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(index_module, "NeighborIndex", Counting)
        matrix = graph.with_version(7)  # a fresh matrix: nothing memoised
        sample_ego(matrix, 0, rng=np.random.default_rng(0))
        sample_ego(matrix, 1, rng=np.random.default_rng(1))
        assert len(built) == 1
        assert index_module.neighbor_index(matrix) is built[0]
