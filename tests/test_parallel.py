"""Unit tests for the row-blocked merge-path executor and its BLAS cap."""

import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    build_schedule,
    execute_reference,
    execute_row_blocks,
    execute_vectorized,
    row_blocks,
)
from repro.core import parallel
from repro.formats import CSRMatrix
from repro.formats import csr as csr_module
from repro.gnn.inference import InferenceEngine
from repro.gnn.models import GCN
from repro.graphs import Graph, power_law_graph


def fresh_product(matrix: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """scipy's answer from a view built here, not the memoised one."""
    view = sp.csr_matrix(
        (matrix.values, matrix.column_indices, matrix.row_pointers),
        shape=matrix.shape,
        copy=True,
    )
    return view @ dense


@st.composite
def csr_matrices(draw):
    """Random CSR matrices with empty rows and, often, one giant row."""
    n_rows = draw(st.integers(0, 24))
    n_cols = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(0, 6), min_size=n_rows, max_size=n_rows))
    if n_rows and draw(st.booleans()):
        lengths[draw(st.integers(0, n_rows - 1))] = draw(st.integers(20, 150))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    nnz = int(sum(lengths))
    return CSRMatrix(
        n_rows=n_rows,
        n_cols=n_cols,
        row_pointers=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        column_indices=rng.integers(0, n_cols, nnz),
        # Positive values: a split row's re-associated sum stays within a
        # relative 1e-12 of the reference with no cancellation to amplify it.
        values=rng.uniform(0.1, 4.0, nnz),
    )


class TestRowBlockSplit:
    @settings(max_examples=150, deadline=None)
    @given(matrix=csr_matrices(), n_blocks=st.integers(1, 4))
    def test_split_invariants(self, matrix, n_blocks):
        plan = row_blocks(matrix, n_blocks)
        blocks = plan.blocks
        assert len(blocks) == n_blocks
        # Every non-zero lands in exactly one block, and in one kernel call.
        assert blocks[0].start == 0 and blocks[-1].stop == matrix.nnz
        for block, following in zip(blocks, blocks[1:]):
            assert block.stop == following.start
        for block in blocks:
            assert block.start <= block.carry_stop <= block.stop
            assert block.row_pointers[0] == 0
            assert block.row_pointers[-1] == block.stop - block.carry_stop
        # Bodies tile the rows; finals plus split rows cover each row once.
        assert blocks[0].rows[0] == 0 and blocks[-1].rows[1] == matrix.n_rows
        for block, following in zip(blocks, blocks[1:]):
            assert block.rows[1] == following.rows[0]
        finished = np.zeros(matrix.n_rows, dtype=int)
        for block in blocks:
            finished[block.final[0]:block.final[1]] += 1
        finished[plan.split_rows] += 1
        assert np.all(finished == 1)
        # No block holds more than twice the even share of merge items
        # (or one item, when there are fewer than half as many as blocks).
        share = (matrix.n_rows + matrix.nnz) / n_blocks
        assert plan.share == share
        assert np.all(np.diff(plan.cuts.sum(axis=1)) <= max(2 * share, 1))
        # A row is split only when it is longer than the share.
        lengths = matrix.row_lengths
        assert np.all(lengths[plan.split_rows] > share)
        rows, nnz = plan.cuts[:-1, 0], plan.cuts[:-1, 1]
        inside = (rows < matrix.n_rows) & (
            nnz > matrix.row_pointers[rows]
        ) & (nnz < matrix.row_pointers[np.minimum(rows + 1, matrix.n_rows)])
        assert set(rows[inside]) == set(plan.split_rows)

    @settings(max_examples=150, deadline=None)
    @given(
        matrix=csr_matrices(),
        n_blocks=st.integers(1, 4),
        width=st.integers(1, 5),
    )
    def test_product_matches_scipy(self, matrix, n_blocks, width):
        x = np.random.default_rng(width).uniform(0.1, 1.0, (matrix.n_cols, width))
        out = execute_row_blocks(matrix, x, n_blocks)
        if len(row_blocks(matrix, n_blocks).split_rows) == 0:
            np.testing.assert_array_equal(out, fresh_product(matrix, x))
        else:
            np.testing.assert_allclose(
                out, matrix.multiply_dense(x), rtol=1e-12, atol=0
            )

    @settings(max_examples=60, deadline=None)
    @given(matrix=csr_matrices(), n_blocks=st.integers(1, 4))
    def test_epilogue_sees_each_final_row_once(self, matrix, n_blocks):
        x = np.random.default_rng(0).random((matrix.n_cols, 3))
        seen = np.zeros((matrix.n_rows, 3))
        calls = np.zeros(matrix.n_rows, dtype=int)

        def epilogue(product, lo, hi):
            seen[lo:hi] = product[lo:hi]
            calls[lo:hi] += 1

        out = execute_row_blocks(matrix, x, n_blocks, epilogue=epilogue)
        assert np.all(calls == 1)
        np.testing.assert_array_equal(seen, out)

    def test_blocks_memoised_per_count(self, small_power_law):
        assert row_blocks(small_power_law, 3) is row_blocks(small_power_law, 3)
        assert row_blocks(small_power_law, 2) is not row_blocks(small_power_law, 3)

    @pytest.mark.parametrize("n_blocks", [2, 3])
    def test_blocked_pass_builds_no_scipy_matrix(self, monkeypatch, n_blocks):
        # The blocks read the matrix's own int64 arrays: no scipy view is
        # built, so no index array is narrowed on a new matrix.
        matrix = power_law_graph(n_nodes=2_000, nnz=20_000, max_degree=50, seed=3)
        dense = np.random.default_rng(4).normal(size=(matrix.n_cols, 5))
        built = []
        original = csr_module.sp.csr_matrix

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(csr_module.sp, "csr_matrix", counting)
        out = execute_row_blocks(matrix, dense, n_blocks)
        plan = row_blocks(matrix, n_blocks)
        assert built == []
        monkeypatch.undo()
        assert len(plan.split_rows) == 0
        for block in plan.blocks:
            assert block.row_pointers.dtype == matrix.column_indices.dtype
        np.testing.assert_array_equal(out, matrix.to_scipy() @ dense)


def _one_block_cases():
    rng = np.random.default_rng(7)
    # Row 0 stores column 2 three times around a cancelling pair, so the
    # summation order shows in the last bits.
    duplicates = CSRMatrix.from_arrays(
        [0, 4, 4, 6], [2, 2, 1, 2, 0, 0],
        [0.1, 1e16, 3.0, -1e16, 0.7, 0.3], n_cols=3,
    )
    empty_rows = CSRMatrix.from_arrays(
        [0, 0, 3, 3, 3, 5, 5], [1, 0, 4, 2, 2], rng.random(5), n_cols=5
    )
    no_entries = CSRMatrix(
        n_rows=4, n_cols=3, row_pointers=np.zeros(5, np.int64),
        column_indices=np.zeros(0, np.int64), values=np.zeros(0),
    )
    wide = CSRMatrix.from_arrays(
        [0, 3, 5, 9], [0, 3, 1, 2, 2, 0, 1, 2, 3], rng.normal(size=9),
        n_cols=4,
    )
    return {
        "duplicate entries": (duplicates, rng.normal(size=(3, 4))),
        "empty rows": (empty_rows, rng.normal(size=(5, 3))),
        "nnz 0": (no_entries, rng.normal(size=(3, 2))),
        "width 1": (wide, rng.normal(size=(4, 1))),
        "Fortran operand": (wide, np.asfortranarray(rng.normal(size=(4, 5)))),
    }


class TestOneBlock:
    """``execute_row_blocks(matrix, dense, 1)``: one direct kernel call."""

    @pytest.mark.parametrize("case", sorted(_one_block_cases()))
    def test_equals_scipy_bit_for_bit(self, case):
        matrix, dense = _one_block_cases()[case]
        np.testing.assert_array_equal(
            execute_row_blocks(matrix, dense, 1), matrix.to_scipy() @ dense
        )

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_zeroes_a_caller_output_holding_garbage(
        self, small_power_law, n_blocks
    ):
        dense = np.random.default_rng(1).normal(size=(small_power_law.n_cols, 6))
        out = np.full((small_power_law.n_rows, 6), np.nan)
        product = execute_row_blocks(small_power_law, dense, n_blocks, out=out)
        assert product is out
        np.testing.assert_array_equal(
            out, execute_row_blocks(small_power_law, dense, n_blocks)
        )
        if n_blocks == 1:
            np.testing.assert_array_equal(
                out, fresh_product(small_power_law, dense)
            )

    @pytest.mark.parametrize(
        "out",
        [np.zeros((4, 2)), np.zeros((3, 2), np.float32),
         np.zeros((2, 3)).T],
        ids=["shape", "dtype", "order"],
    )
    def test_rejects_an_unusable_output(self, out):
        matrix = CSRMatrix.from_arrays([0, 1, 2, 3], [0, 1, 2])
        with pytest.raises(ValueError, match="out must be"):
            execute_row_blocks(matrix, np.ones((3, 2)), 1, out=out)

    def test_builds_no_scipy_view(self, monkeypatch):
        matrix = CSRMatrix.from_arrays([0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0])

        def no_view(self):
            raise AssertionError("the one-block call built a scipy view")

        monkeypatch.setattr(CSRMatrix, "to_scipy", no_view)
        execute_row_blocks(matrix, np.ones((2, 3)), 1)

    def test_missing_kernel_falls_back_and_is_counted(
        self, small_power_law, monkeypatch
    ):
        dense = np.random.default_rng(2).normal(size=(small_power_law.n_cols, 4))
        expected = fresh_product(small_power_law, dense)
        monkeypatch.setattr(parallel, "_csr_matvecs", None)
        out = np.full((small_power_law.n_rows, 4), np.nan)
        with obs.profiled() as session:
            into = execute_row_blocks(small_power_law, dense, 1, out=out)
            blocked = execute_row_blocks(small_power_law, dense, 2)
        assert into is out
        np.testing.assert_array_equal(into, expected)
        np.testing.assert_array_equal(blocked, expected)
        fallbacks = session.registry.counter("core.parallel.scipy_fallbacks")
        assert fallbacks.value == 2


class TestParallelExecutor:
    @pytest.mark.parametrize("n_workers", [1, 2, 4, 8])
    def test_matches_serial_executor(self, small_power_law, n_workers, features):
        x = features(small_power_law.n_cols, 8)
        schedule = build_schedule(small_power_law, 64)
        serial, _ = execute_vectorized(schedule, x)
        result = execute_row_blocks(small_power_law, x, n_workers)
        assert np.allclose(result, serial)
        assert len(row_blocks(small_power_law, n_workers).blocks) == n_workers

    def test_accounting_matches_schedule(self, small_power_law, paper_example):
        # Blocks cut where a k-thread schedule's threads start; a cut moves
        # only off a row no longer than the share, and the rows left split
        # are the schedule's partial rows that are longer than the share.
        for matrix, k in ((small_power_law, 3), (paper_example, 8)):
            schedule = build_schedule(matrix, k)
            plan = row_blocks(matrix, k)
            rows = np.append(schedule.start_rows, schedule.end_rows[-1])
            nnz = np.append(schedule.start_nnzs, schedule.end_nnzs[-1])
            moved = plan.cuts[:, 1] != nnz
            np.testing.assert_array_equal(plan.cuts[:, 0], rows)
            lengths = matrix.row_lengths
            assert np.all(lengths[rows[moved]] <= plan.share)
            pointers = matrix.row_pointers
            inside = (rows < matrix.n_rows) & (nnz > pointers[rows]) & (
                nnz < pointers[np.minimum(rows + 1, matrix.n_rows)]
            )
            partial = {int(r) for r in rows[inside] if lengths[r] > plan.share}
            assert set(plan.split_rows.tolist()) == partial
        assert plan.split_rows.tolist() == [1]  # the paper's evil row

    def test_evil_row_contention_correct(self, features):
        # One giant row split across every block: each later block adds
        # its part of the same output row through a carry.
        matrix = CSRMatrix.from_arrays([0, 256], np.arange(256) % 4, n_cols=4)
        x = features(4, 6)
        result = execute_row_blocks(matrix, x, 8)
        assert row_blocks(matrix, 8).split_rows.tolist() == [0]
        np.testing.assert_allclose(
            result, matrix.multiply_dense(x), rtol=1e-12, atol=0
        )

    def test_deterministic_across_runs(self, small_power_law, features):
        x = features(small_power_law.n_cols, 4)
        a = execute_row_blocks(small_power_law, x, 4)
        b = execute_row_blocks(small_power_law, x, 4)
        # Each row's sum order is fixed by the cuts, so runs agree exactly.
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_worker_count(self, paper_example, features):
        with pytest.raises(ValueError):
            execute_row_blocks(paper_example, features(10, 2), 0)
        with pytest.raises(ValueError):
            row_blocks(paper_example, 0)

    def test_shape_mismatch(self, paper_example):
        with pytest.raises(ValueError, match="dimension mismatch"):
            execute_row_blocks(paper_example, np.ones((3, 2)), 2)

    def test_empty_matrix(self):
        empty = CSRMatrix.from_arrays([0, 0, 0], [])
        result = execute_row_blocks(empty, np.ones((2, 2)), 2)
        assert result.shape == (2, 2)
        assert np.all(result == 0.0)

    def test_more_workers_than_schedule_threads(self, paper_example, features):
        # 16 blocks over 10 rows: most blocks are empty or a slice of the
        # evil row, and must neither crash nor corrupt the output.
        schedule = build_schedule(paper_example, 2)
        x = features(paper_example.n_cols, 4)
        expected, _ = execute_reference(schedule, x)
        result = execute_row_blocks(paper_example, x, 16)
        assert len(row_blocks(paper_example, 16).blocks) == 16
        np.testing.assert_allclose(result, expected)

    def test_empty_matrix_matches_reference(self):
        empty = CSRMatrix.from_arrays([0, 0, 0, 0], [])
        schedule = build_schedule(empty, 4)
        x = np.ones((3, 5))
        expected, _ = execute_reference(schedule, x)
        result = execute_row_blocks(empty, x, 8)
        np.testing.assert_allclose(result, expected)
        assert len(row_blocks(empty, 8).split_rows) == 0

    def test_width_one_dense_operand(self, small_power_law, features):
        # A single-column operand: the degenerate SpMV shape, where any
        # missed keepdims/squeeze in the block slicing would surface.
        schedule = build_schedule(small_power_law, 64)
        x = features(small_power_law.n_cols, 1)
        assert x.shape[1] == 1
        expected, _ = execute_reference(schedule, x)
        result = execute_row_blocks(small_power_law, x, 4)
        assert result.shape == (small_power_law.n_rows, 1)
        np.testing.assert_allclose(result, expected)


def blas_threads():
    control = parallel._blas_threads()
    if control is None:
        pytest.skip("numpy's OpenBLAS thread control was not found")
    return control


def gcn_pass(matrix: CSRMatrix):
    model = GCN.random([6, 8, 3], seed=3)
    x = np.random.default_rng(4).random((matrix.n_rows, 6))
    return InferenceEngine().infer(model, Graph("g", matrix), x)


class TestBlasCap:
    def test_blas_setter_found(self):
        # Without it every engine pass silently runs on one block.
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            name = blas["name"]
        except (TypeError, KeyError):  # build config not readable: check anyway
            name = "openblas"
        if "openblas" not in name.lower():
            pytest.skip(f"numpy is built against {name}, not OpenBLAS")
        assert parallel._find_blas_threads() is not None
        assert parallel._csr_matvecs is not None

    def test_count_restored_after_pass(self, small_power_law, blocked):
        control = blas_threads()
        blocked(2)
        before = control.get()
        assert gcn_pass(small_power_law).row_blocks == 2
        assert control.get() == before

    def test_count_restored_after_failing_pass(
        self, small_power_law, blocked, monkeypatch
    ):
        control = blas_threads()
        blocked(2)

        def failing(*args):
            raise RuntimeError("block kernel failed")

        monkeypatch.setattr(parallel, "_csr_matvecs", failing)
        before = control.get()
        with pytest.raises(RuntimeError, match="block kernel failed"):
            gcn_pass(small_power_law)
        assert control.get() == before

    def test_count_restored_after_overlapping_passes(
        self, small_power_law, blocked, monkeypatch
    ):
        from repro.gnn import inference

        control = blas_threads()
        blocked(2)
        before = control.get()
        both_inside = threading.Barrier(2, timeout=10)
        counts_inside = []
        run_layer = inference._run_layer

        def overlapping(*args):
            if threading.current_thread().name.startswith("overlap"):
                both_inside.wait()  # both passes hold the cap here
                counts_inside.append(control.get())
            return run_layer(*args)

        monkeypatch.setattr(inference, "_run_layer", overlapping)
        errors = []

        def one_pass():
            try:
                gcn_pass(small_power_law)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=one_pass, name=f"overlap-{i}")
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not errors
        assert counts_inside and set(counts_inside) == {1}
        assert control.get() == before

    def test_many_concurrent_passes(self, small_power_law, blocked):
        # More passes than cores, switching threads as often as possible:
        # a lost update to the shared cap depth would leave the count at
        # one, and a block writing another pass's rows would corrupt it.
        control = blas_threads()
        expected = gcn_pass(small_power_law).output  # one block
        blocked(2)
        before = control.get()
        outputs, errors = [], []

        def passes():
            try:
                for _ in range(5):
                    outputs.append(gcn_pass(small_power_law).output)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=passes) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(outputs) == 30
        for output in outputs:
            np.testing.assert_array_equal(output, expected)
        assert control.get() == before
        assert parallel._cap_depth == 0

    def test_missing_setter_runs_one_block(
        self, small_power_law, blocked, monkeypatch
    ):
        expected = gcn_pass(small_power_law).output  # below the threshold
        blocked(2)
        monkeypatch.setattr(parallel, "_find_blas_threads", lambda: None)
        monkeypatch.setattr(parallel, "_blas_memo", parallel._UNRESOLVED)
        with obs.profiled() as session:
            report = gcn_pass(small_power_law)
        assert report.row_blocks == 1
        np.testing.assert_array_equal(report.output, expected)
        fallbacks = session.registry.counter("core.parallel.serial_fallbacks")
        assert fallbacks.value == 1


def _child_pass(matrix, conn):
    conn.send(gcn_pass(matrix).output)
    conn.close()


class TestForkSafety:
    # Forking a process whose pool threads exist is the case under test;
    # Python 3.12+ warns about exactly that.
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_forked_child_runs_blocked_pass(self, small_power_law, blocked):
        blas_threads()
        blocked(2)
        expected = gcn_pass(small_power_law).output  # the pool is now up
        assert parallel._pool is not None
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_child_pass, args=(small_power_law, send))
        child.start()
        send.close()
        try:
            assert receive.poll(10), "forked child's blocked pass hung"
            output = receive.recv()
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert not child.is_alive() and child.exitcode == 0
        np.testing.assert_array_equal(output, expected)

    def test_import_starts_no_thread(self):
        code = (
            "import threading, repro.gnn\n"
            "from repro.core import parallel\n"
            "print(threading.active_count(), parallel._pool,"
            " parallel._blas_memo is parallel._UNRESOLVED)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, check=True, env=env,
        )
        assert result.stdout.split() == ["1", "None", "True"]
