"""Unit tests for the CSR container."""

import numpy as np
import pytest

from repro.formats import CSRMatrix, SparseFormatError


class TestConstruction:
    def test_from_dense_round_trip(self, dense_small):
        csr = CSRMatrix.from_dense(dense_small)
        assert np.array_equal(csr.to_dense(), dense_small)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            CSRMatrix.from_dense(np.ones(4))

    def test_from_arrays_defaults_to_unit_values(self):
        csr = CSRMatrix.from_arrays([0, 2, 3], [0, 1, 2], n_cols=3)
        assert np.array_equal(csr.values, [1.0, 1.0, 1.0])

    def test_from_arrays_defaults_to_square(self):
        csr = CSRMatrix.from_arrays([0, 1, 2], [0, 1])
        assert csr.shape == (2, 2)

    def test_identity(self):
        eye = CSRMatrix.identity(5)
        assert np.array_equal(eye.to_dense(), np.eye(5))

    def test_identity_zero(self):
        assert CSRMatrix.identity(0).nnz == 0

    def test_arrays_coerced_to_canonical_dtypes(self):
        csr = CSRMatrix.from_arrays(
            np.array([0, 1], dtype=np.int32), np.array([0], dtype=np.int16)
        )
        assert csr.row_pointers.dtype == np.int64
        assert csr.column_indices.dtype == np.int64
        assert csr.values.dtype == np.float64


class TestProperties:
    def test_shape_and_nnz(self, csr_small, dense_small):
        assert csr_small.shape == dense_small.shape
        assert csr_small.nnz == np.count_nonzero(dense_small)

    def test_row_lengths_match_dense(self, csr_small, dense_small):
        assert np.array_equal(
            csr_small.row_lengths, (dense_small != 0).sum(axis=1)
        )

    def test_density(self):
        csr = CSRMatrix.from_dense(np.eye(4))
        assert csr.density == pytest.approx(0.25)

    def test_density_empty_matrix(self):
        csr = CSRMatrix.from_arrays([0], [], n_cols=0)
        assert csr.density == 0.0


class TestRowAccess:
    def test_row_slice_contents(self, paper_example):
        cols, vals = paper_example.row_slice(1)
        assert len(cols) == 8
        assert len(vals) == 8

    def test_row_slice_empty_row(self, paper_example):
        cols, vals = paper_example.row_slice(0)
        assert len(cols) == 0 and len(vals) == 0

    def test_row_slice_out_of_range(self, paper_example):
        with pytest.raises(IndexError):
            paper_example.row_slice(10)
        with pytest.raises(IndexError):
            paper_example.row_slice(-1)

    def test_iter_rows_covers_all_nnz(self, csr_small):
        total = sum(len(cols) for _, cols, _ in csr_small.iter_rows())
        assert total == csr_small.nnz


class TestConversionsAndOps:
    def test_to_coo_round_trip(self, csr_small):
        assert np.array_equal(
            csr_small.to_coo().to_csr().to_dense(), csr_small.to_dense()
        )

    def test_to_csc_preserves_dense(self, csr_small):
        assert np.array_equal(csr_small.to_csc().to_dense(), csr_small.to_dense())

    def test_transpose(self, csr_small):
        assert np.array_equal(
            csr_small.transpose().to_dense(), csr_small.to_dense().T
        )

    def test_transpose_rectangular(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        csr = CSRMatrix.from_dense(dense)
        assert np.array_equal(csr.transpose().to_dense(), dense.T)

    def test_multiply_dense_matches_matmul(self, csr_small, dense_small):
        x = np.random.default_rng(0).random((12, 5))
        assert np.allclose(csr_small.multiply_dense(x), dense_small @ x)

    def test_multiply_dense_shape_mismatch(self, csr_small):
        with pytest.raises(ValueError, match="dimension mismatch"):
            csr_small.multiply_dense(np.ones((5, 3)))

    def test_multiply_dense_chunking_consistent(self):
        # Exercise the chunked path by monkeypatching would be invasive;
        # instead verify a matrix larger than one chunk boundary interval
        # still agrees with dense matmul on a prefix structure.
        rng = np.random.default_rng(3)
        dense = (rng.random((200, 200)) < 0.1) * 1.0
        csr = CSRMatrix.from_dense(dense)
        x = rng.random((200, 3))
        assert np.allclose(csr.multiply_dense(x), dense @ x)

    def test_sorted_indices_sorts_each_row(self):
        csr = CSRMatrix.from_arrays([0, 3], [2, 0, 1], [10.0, 20.0, 30.0], n_cols=3)
        out = csr.sorted_indices()
        assert np.array_equal(out.column_indices, [0, 1, 2])
        assert np.array_equal(out.values, [20.0, 30.0, 10.0])
        assert np.array_equal(out.to_dense(), csr.to_dense())

    def test_equality(self, csr_small):
        clone = CSRMatrix.from_dense(csr_small.to_dense())
        assert csr_small == clone

    def test_inequality_different_values(self, csr_small):
        other = CSRMatrix(
            n_rows=csr_small.n_rows,
            n_cols=csr_small.n_cols,
            row_pointers=csr_small.row_pointers,
            column_indices=csr_small.column_indices,
            values=csr_small.values * 2,
        )
        assert csr_small != other

    def test_not_hashable(self, csr_small):
        with pytest.raises(TypeError):
            hash(csr_small)


class TestValidationOnConstruction:
    def test_bad_row_pointer_length(self):
        with pytest.raises(SparseFormatError, match="length"):
            CSRMatrix(n_rows=3, n_cols=3, row_pointers=np.array([0, 1]),
                      column_indices=np.array([0]), values=np.array([1.0]))

    def test_decreasing_row_pointers(self):
        with pytest.raises(SparseFormatError, match="non-decreasing"):
            CSRMatrix(n_rows=2, n_cols=2, row_pointers=np.array([0, 2, 1]),
                      column_indices=np.array([0]), values=np.array([1.0]))

    def test_column_out_of_range(self):
        with pytest.raises(SparseFormatError, match="column indices"):
            CSRMatrix(n_rows=1, n_cols=2, row_pointers=np.array([0, 1]),
                      column_indices=np.array([5]), values=np.array([1.0]))

    def test_value_length_mismatch(self):
        with pytest.raises(SparseFormatError, match="equal length"):
            CSRMatrix(n_rows=1, n_cols=2, row_pointers=np.array([0, 1]),
                      column_indices=np.array([0]), values=np.array([1.0, 2.0]))


class TestDerivedConstruction:
    """``CSRMatrix._derived``: arrays derived from a validated matrix.

    It skips the O(nnz) validation and the copies but keeps the O(1)
    checks, and freezes the arrays like the public constructor.
    """

    @staticmethod
    def _arrays():
        return (
            np.array([0, 2, 3], dtype=np.int64),
            np.array([0, 1, 1], dtype=np.int64),
            np.array([1.0, 2.0, 3.0]),
        )

    @pytest.fixture
    def validations(self, monkeypatch):
        """Every ``validate_csr`` call the CSR container makes from here on.

        Request it after any fixture that builds a matrix.
        """
        from repro.formats import csr as csr_module

        calls = []
        validate = csr_module.validate_csr

        def counting(*args, **kwargs):
            calls.append(1)
            return validate(*args, **kwargs)

        monkeypatch.setattr(csr_module, "validate_csr", counting)
        return calls

    def test_wraps_and_freezes_without_validating_or_copying(
        self, validations
    ):
        pointers, columns, values = self._arrays()
        matrix = CSRMatrix._derived(2, 2, pointers, columns, values, 7)
        assert validations == []
        assert matrix.row_pointers is pointers
        assert matrix.column_indices is columns
        assert matrix.values is values
        assert matrix.version == 7
        assert not any(
            array.flags.writeable for array in (pointers, columns, values)
        )
        matrix.validate(strict=True)
        assert matrix == CSRMatrix(2, 2, *self._arrays(), version=7)

    @pytest.mark.parametrize(
        "position, bad",
        [
            (0, np.array([0, 2, 3], dtype=np.int32)),
            (1, np.array([0, 1, 1, 0, 0, 0], dtype=np.int64)[::2]),
            (2, np.array([1, 2, 3], dtype=np.float32)),
            (0, np.array([0, 3], dtype=np.int64)),
            (2, np.array([1.0, 2.0])),
        ],
        ids=["int32-pointers", "strided-columns", "float32-values",
             "short-pointers", "short-values"],
    )
    def test_keeps_the_constant_time_checks(self, position, bad):
        arrays = list(self._arrays())
        arrays[position] = bad
        with pytest.raises(SparseFormatError, match="derived"):
            CSRMatrix._derived(2, 2, *arrays)

    def test_with_version_restamps_without_validating(
        self, csr_small, validations
    ):
        stamped = csr_small.with_version(5)
        assert validations == []
        assert stamped.version == 5
        assert stamped.values is csr_small.values
        assert stamped == csr_small

    def test_with_values_still_validates(self, csr_small, validations):
        # Its values come from the caller, not from a validated matrix.
        csr_small.with_values(csr_small.values * 2.0)
        assert validations == [1]
        with pytest.raises(SparseFormatError, match="equal length"):
            csr_small.with_values(csr_small.values[:-1])


class TestStrictValidation:
    """Opt-in strict checks: duplicates, order, finiteness."""

    def _arrays(self):
        # Two rows: row 0 -> cols {0, 2}, row 1 -> col 1.
        return (
            np.array([0, 2, 3]),
            np.array([0, 2, 1]),
            np.array([1.0, 2.0, 3.0]),
        )

    def test_plain_validation_accepts_duplicates(self):
        rp, ci, vals = self._arrays()
        ci[1] = 0  # duplicate within row 0
        from repro.formats.validation import validate_csr

        validate_csr(rp, ci, vals, 2, 3)  # structurally legal

    def test_strict_rejects_duplicates(self):
        rp, ci, vals = self._arrays()
        ci[1] = 0
        from repro.formats.validation import validate_csr

        with pytest.raises(SparseFormatError, match="duplicate"):
            validate_csr(rp, ci, vals, 2, 3, strict=True)

    def test_strict_rejects_unsorted_rows(self):
        rp, ci, vals = self._arrays()
        ci[0], ci[1] = 2, 0  # row 0 decreasing
        from repro.formats.validation import validate_csr

        with pytest.raises(SparseFormatError, match="sorted"):
            validate_csr(rp, ci, vals, 2, 3, strict=True)

    def test_strict_allows_row_boundary_decrease(self):
        # col sequence 0,2 | 1 decreases across the row boundary: legal.
        rp, ci, vals = self._arrays()
        from repro.formats.validation import validate_csr

        validate_csr(rp, ci, vals, 2, 3, strict=True)

    def test_strict_rejects_non_finite_values(self):
        rp, ci, vals = self._arrays()
        vals[2] = np.inf
        from repro.formats.validation import validate_csr

        with pytest.raises(SparseFormatError, match="NaN/Inf"):
            validate_csr(rp, ci, vals, 2, 3, strict=True)

    def test_matrix_validate_method(self, csr_small):
        csr_small.validate()
        csr_small.validate(strict=True)

    def test_strict_empty_matrix(self):
        from repro.formats.validation import validate_csr

        validate_csr(
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            0, 0, strict=True,
        )


class TestFingerprint:
    def test_identical_structure_identical_fingerprint(self, dense_small):
        a = CSRMatrix.from_dense(dense_small)
        b = CSRMatrix.from_dense(dense_small.copy())
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_different_structure_different_fingerprint(self, csr_small):
        other = CSRMatrix.from_dense(np.eye(csr_small.n_rows))
        assert csr_small.fingerprint() != other.fingerprint()

    def test_shape_is_part_of_the_key(self):
        # Same (empty) arrays, different logical shapes.
        a = CSRMatrix.from_dense(np.zeros((2, 3)))
        b = CSRMatrix.from_dense(np.zeros((2, 4)))
        assert a.fingerprint() != b.fingerprint()

    def test_values_excluded_by_default(self, dense_small):
        a = CSRMatrix.from_dense(dense_small)
        scaled = CSRMatrix.from_dense(dense_small * 2.0)
        assert a.fingerprint() == scaled.fingerprint()
        assert a.fingerprint(include_values=True) != scaled.fingerprint(
            include_values=True
        )

    def test_include_values_matches_for_equal_values(self, dense_small):
        a = CSRMatrix.from_dense(dense_small)
        b = CSRMatrix.from_dense(dense_small.copy())
        assert a.fingerprint(include_values=True) == b.fingerprint(
            include_values=True
        )

    def test_fingerprint_is_cached(self, csr_small):
        first = csr_small.fingerprint()
        assert csr_small.fingerprint() is first
        valued = csr_small.fingerprint(include_values=True)
        assert csr_small.fingerprint(include_values=True) is valued
        assert valued != first


class TestFingerprintStaleness:
    """Regressions for the stale-fingerprint bug class.

    A cached digest over mutable arrays could describe content that no
    longer exists — and every schedule/plan/batch key in the stack hangs
    off it.  Three defenses are pinned here: frozen buffers, sanctioned
    value rebinding, and version-precise hashing.
    """

    def test_arrays_are_frozen_after_construction(self, csr_small):
        with pytest.raises(ValueError):
            csr_small.values[0] = 99.0
        with pytest.raises(ValueError):
            csr_small.column_indices[0] = 0
        with pytest.raises(ValueError):
            csr_small.row_pointers[0] = 0

    def test_construction_freezes_caller_arrays_share(self, dense_small):
        # from_dense builds fresh arrays; they must come out read-only.
        matrix = CSRMatrix.from_dense(dense_small)
        assert not matrix.values.flags.writeable
        assert not matrix.column_indices.flags.writeable
        assert not matrix.row_pointers.flags.writeable

    def test_with_values_refreshes_value_fingerprint(self, dense_small):
        a = CSRMatrix.from_dense(dense_small)
        structural = a.fingerprint()
        valued = a.fingerprint(include_values=True)
        b = a.with_values(a.values * 3.0)
        assert b.fingerprint() == structural  # structure shared
        assert b.fingerprint(include_values=True) != valued
        np.testing.assert_allclose(b.values, a.values * 3.0)
        assert b.row_pointers is a.row_pointers

    def test_value_fingerprint_detects_rebound_buffer(self, dense_small):
        # The cached value digest is keyed on buffer identity: a sibling
        # with different values never inherits it.
        a = CSRMatrix.from_dense(dense_small)
        fp_a = a.fingerprint(include_values=True)
        b = a.with_values(a.values.copy())
        assert b.fingerprint(include_values=True) == fp_a  # equal content
        c = a.with_values(np.full_like(a.values, 5.0))
        assert c.fingerprint(include_values=True) != fp_a

    def test_with_version_changes_fingerprint(self, csr_small):
        stamped = csr_small.with_version(3)
        assert stamped.fingerprint() != csr_small.fingerprint()
        assert stamped.with_version(3) is stamped  # no-op restamp
        restamped = stamped.with_version(4)
        assert restamped.fingerprint() != stamped.fingerprint()

    def test_epochs_never_share_fingerprints(self, csr_small):
        # Two epochs of a live graph with *identical* structure must
        # still key caches differently.
        fps = {csr_small.with_version(v).fingerprint() for v in range(4)}
        assert len(fps) == 4


class TestVersionPropagation:
    """Derived matrices must carry the live-graph epoch stamp.

    ``to_csc`` / ``transpose`` / ``sorted_indices`` build new containers
    from a (possibly version-stamped) epoch snapshot.  Dropping the
    stamp would silently move the derivative back into the unversioned
    fingerprint space, where it aliases a different epoch's cache
    entries — exactly the staleness class PR 7's version-precise
    fingerprints exist to prevent.
    """

    def test_to_csc_carries_version(self, csr_small):
        stamped = csr_small.with_version(5)
        assert stamped.to_csc().version == 5
        assert csr_small.to_csc().version is None  # unstamped stays so

    def test_csc_round_trip_keeps_fingerprint_epoch_precise(self, csr_small):
        stamped = csr_small.with_version(5)
        back = stamped.to_csc().to_csr()
        assert back.version == 5
        assert back.fingerprint() == stamped.fingerprint()
        assert back.fingerprint() != csr_small.fingerprint()

    def test_transpose_carries_version(self, csr_small):
        stamped = csr_small.with_version(7)
        transposed = stamped.transpose()
        assert transposed.version == 7
        # Double transpose lands back on the stamped fingerprint, not
        # the unversioned one.
        assert (
            transposed.transpose().fingerprint() == stamped.fingerprint()
        )

    def test_sorted_indices_carries_version(self, csr_small):
        stamped = csr_small.with_version(9)
        assert stamped.sorted_indices().version == 9
        assert csr_small.sorted_indices().version is None

    def test_distinct_epochs_stay_distinct_through_derivation(
        self, csr_small
    ):
        # Structurally identical epochs must not collide after a
        # conversion round trip either.
        fps = {
            csr_small.with_version(v).to_csc().to_csr().fingerprint()
            for v in range(3)
        }
        assert len(fps) == 3


class TestToScipy:
    def _check(self, matrix, width=3):
        dense = np.random.default_rng(0).random((matrix.n_cols, width))
        view = matrix.to_scipy()
        assert view.shape == matrix.shape
        # Empty arrays never report shared memory.
        assert np.shares_memory(view.data, matrix.values) or not matrix.nnz
        out = view @ dense
        assert out.shape == (matrix.n_rows, width)
        np.testing.assert_allclose(
            out, matrix.multiply_dense(dense), rtol=1e-12, atol=0
        )
        return out

    def test_shares_values_buffer(self, csr_small):
        view = csr_small.to_scipy()
        assert np.shares_memory(view.data, csr_small.values)
        # Memoised: every call returns the one view over the same values.
        assert csr_small.to_scipy() is view

    def test_view_arrays_are_read_only(self, csr_small):
        view = csr_small.to_scipy()
        for array in (view.indices, view.indptr, view.data):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            view.indices[0] = 0
        with pytest.raises(ValueError):
            view.indptr[0] = 1

    def test_with_values_sibling_gets_its_own_view(self, csr_small):
        view = csr_small.to_scipy()
        sibling = csr_small.with_values(csr_small.values * 3.0)
        sibling_view = sibling.to_scipy()
        assert sibling_view is not view
        assert np.shares_memory(sibling_view.data, sibling.values)
        np.testing.assert_array_equal(sibling_view.data, csr_small.values * 3.0)
        dense = np.random.default_rng(1).random((csr_small.n_cols, 2))
        np.testing.assert_allclose(
            sibling_view @ dense, 3.0 * (view @ dense), rtol=1e-12, atol=0
        )
        assert csr_small.to_scipy() is view

    def test_rebound_values_get_their_own_view(self, dense_small):
        matrix = CSRMatrix.from_dense(dense_small)
        view = matrix.to_scipy()
        valued = matrix.fingerprint(include_values=True)
        rebound = np.full_like(matrix.values, 5.0)
        # Bypass the frozen dataclass the way a rebind would.
        object.__setattr__(matrix, "values", rebound)
        assert matrix.fingerprint(include_values=True) != valued
        fresh = matrix.to_scipy()
        assert fresh is not view
        assert np.shares_memory(fresh.data, rebound)
        dense = np.random.default_rng(2).random((matrix.n_cols, 3))
        np.testing.assert_allclose(
            fresh @ dense, matrix.multiply_dense(dense), rtol=1e-12, atol=0
        )

    def test_matches_reference_with_empty_rows(self, csr_small):
        assert not csr_small.row_lengths[3] and not csr_small.row_lengths[7]
        out = self._check(csr_small)
        assert not out[3].any() and not out[7].any()

    def test_zero_nnz(self):
        matrix = CSRMatrix.from_arrays([0, 0, 0, 0], [], n_cols=5)
        assert not self._check(matrix).any()

    def test_zero_rows(self):
        matrix = CSRMatrix.from_arrays([0], [], n_cols=4)
        assert self._check(matrix).shape == (0, 3)

    def test_duplicate_entries_are_summed(self):
        from repro.graphs.delta import DeltaCSR, EdgeUpdate

        # Row 0 holds a parallel edge the delta snapshot leaves in place
        # (only dirty rows are coalesced).
        base = CSRMatrix.from_arrays([0, 3, 4, 5], [1, 1, 2, 0, 1], n_cols=3)
        delta = DeltaCSR(base)
        delta.apply([EdgeUpdate.insert(2, 2, 4.0)])
        snapshot = delta.snapshot().matrix
        assert snapshot.row_lengths[0] == 3
        out = self._check(snapshot)
        dense = np.random.default_rng(0).random((3, 3))
        np.testing.assert_array_equal(out, snapshot.multiply_dense(dense))

    def test_version_stamped_matrix(self, csr_small):
        stamped = csr_small.with_version(7)
        assert stamped.version == 7
        np.testing.assert_array_equal(
            self._check(stamped), self._check(csr_small)
        )
