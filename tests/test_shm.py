"""Property tests for shared-memory CSR segments (publish/attach/verify).

The process-isolation tier stands on two invariants of :mod:`repro.shm`:
a published segment attaches *byte-identical* with zero graph bytes
copied, and any corruption of the shared pages is detected by the
attach-time checksums before a worker can compute on it.  Both are
checked here over arbitrary generated CSR structures, not one fixed
example.
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats import CSRMatrix
from repro.shm import (
    SegmentChecksumError,
    attach_csr,
    publish_csr,
)


@st.composite
def csr_matrices(draw, max_rows=16, max_cols=12, max_row_nnz=8):
    """Arbitrary small CSR matrices with sorted, unique column indices."""
    n_rows = draw(st.integers(0, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    columns = []
    pointers = [0]
    for _ in range(n_rows):
        length = draw(st.integers(0, min(max_row_nnz, n_cols)))
        row_cols = draw(
            st.lists(
                st.integers(0, n_cols - 1),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        columns.extend(sorted(row_cols))
        pointers.append(len(columns))
    values = draw(
        st.lists(
            st.floats(-8.0, 8.0, allow_nan=False),
            min_size=len(columns),
            max_size=len(columns),
        )
    )
    return CSRMatrix(
        n_rows=n_rows,
        n_cols=n_cols,
        row_pointers=np.asarray(pointers, dtype=np.int64),
        column_indices=np.asarray(columns, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
    )


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(matrix=csr_matrices())
    def test_publish_attach_is_byte_identical_and_zero_copy(self, matrix):
        segment = publish_csr(matrix)
        attached = None
        try:
            attached = attach_csr(segment.meta)
            got = attached.matrix
            assert got.n_rows == matrix.n_rows
            assert got.n_cols == matrix.n_cols
            assert got.nnz == matrix.nnz
            np.testing.assert_array_equal(
                got.row_pointers, matrix.row_pointers
            )
            np.testing.assert_array_equal(
                got.column_indices, matrix.column_indices
            )
            np.testing.assert_array_equal(got.values, matrix.values)
            assert got.row_pointers.tobytes() == np.ascontiguousarray(
                matrix.row_pointers, dtype=np.int64
            ).tobytes()
            assert got.values.tobytes() == np.ascontiguousarray(
                matrix.values, dtype=np.float64
            ).tobytes()
            # The zero-copy invariant the process pool asserts per request.
            assert attached.copied_bytes == 0
        finally:
            if attached is not None:
                attached.close()
            segment.close()

    @settings(max_examples=25, deadline=None)
    @given(matrix=csr_matrices(), dim=st.integers(1, 4))
    def test_attached_matrix_computes_like_the_original(self, matrix, dim):
        rng = np.random.default_rng(matrix.nnz + dim)
        dense = rng.random((matrix.n_cols, dim))
        segment = publish_csr(matrix)
        attached = None
        try:
            attached = attach_csr(segment.meta)
            np.testing.assert_allclose(
                attached.matrix.multiply_dense(dense),
                matrix.multiply_dense(dense),
                rtol=1e-12,
                atol=1e-12,
            )
        finally:
            if attached is not None:
                attached.close()
            segment.close()

    def test_meta_is_picklable(self):
        matrix = CSRMatrix(
            n_rows=2,
            n_cols=2,
            row_pointers=np.array([0, 1, 2], dtype=np.int64),
            column_indices=np.array([0, 1], dtype=np.int64),
            values=np.array([1.0, 2.0]),
        )
        with publish_csr(matrix) as segment:
            meta = pickle.loads(pickle.dumps(segment.meta))
            assert meta == segment.meta
            with attach_csr(meta) as attached:
                assert attached.matrix.nnz == 2

    def test_close_unlinks_the_segment(self):
        matrix = CSRMatrix(
            n_rows=1,
            n_cols=1,
            row_pointers=np.array([0, 1], dtype=np.int64),
            column_indices=np.array([0], dtype=np.int64),
            values=np.array([3.0]),
        )
        segment = publish_csr(matrix)
        segment.close()
        with pytest.raises(FileNotFoundError):
            attach_csr(segment.meta)


    def test_digests_hash_the_arrays_bytes(self):
        # The digests read each array in place; they equal BLAKE2b over
        # a bytes copy of the array, as published before.
        matrix = CSRMatrix(
            n_rows=3,
            n_cols=3,
            row_pointers=np.array([0, 2, 2, 3], dtype=np.int64),
            column_indices=np.array([0, 2, 1], dtype=np.int64),
            values=np.array([1.5, -2.0, 0.25]),
        )
        with publish_csr(matrix) as segment:
            assert segment.meta.checksums == tuple(
                hashlib.blake2b(bytes(array), digest_size=16).hexdigest()
                for array in (
                    matrix.row_pointers, matrix.column_indices, matrix.values
                )
            )
            with attach_csr(segment.meta, verify=True) as attached:
                attached.verify()


class TestChecksums:
    @settings(max_examples=40, deadline=None)
    @given(matrix=csr_matrices(), data=st.data())
    def test_any_corrupted_array_byte_is_detected(self, matrix, data):
        segment = publish_csr(matrix)
        try:
            meta = segment.meta
            # Pick a byte inside one of the three array regions (the
            # alignment padding between them is not covered by digests).
            regions = [
                (meta.indptr_offset, (matrix.n_rows + 1) * 8),
                (meta.indices_offset, matrix.nnz * 8),
                (meta.values_offset, matrix.nnz * 8),
            ]
            regions = [(off, size) for off, size in regions if size > 0]
            offset, size = data.draw(st.sampled_from(regions))
            index = offset + data.draw(st.integers(0, size - 1))
            buffer = segment.buffer()
            buffer[index] = buffer[index] ^ 0xFF
            with pytest.raises(SegmentChecksumError):
                attach_csr(meta)
        finally:
            segment.close()

    def test_verify_false_skips_the_checksum(self):
        matrix = CSRMatrix(
            n_rows=1,
            n_cols=2,
            row_pointers=np.array([0, 2], dtype=np.int64),
            column_indices=np.array([0, 1], dtype=np.int64),
            values=np.array([1.0, 2.0]),
        )
        segment = publish_csr(matrix)
        try:
            buffer = segment.buffer()
            index = segment.meta.values_offset
            buffer[index] = buffer[index] ^ 0xFF
            # Trusted attach maps the torn bytes without complaint ...
            attached = attach_csr(segment.meta, verify=False)
            try:
                # ... but an explicit re-verify still catches them.
                with pytest.raises(SegmentChecksumError):
                    attached.verify()
            finally:
                attached.close()
        finally:
            segment.close()
