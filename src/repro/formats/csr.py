"""Compressed sparse row (CSR) matrix container.

CSR is the input format for every SpMM kernel in this reproduction, exactly
as in the paper: the ``row_pointers`` array (the paper's *RP*) has length
``n_rows + 1`` and encodes where each row starts inside ``column_indices``
(the paper's *CP*) and ``values``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np
import scipy.sparse as sp

from repro.formats.validation import SparseFormatError, validate_csr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.formats.coo import COOMatrix
    from repro.formats.csc import CSCMatrix

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64


@dataclass(frozen=True)
class CSRMatrix:
    """An immutable CSR sparse matrix.

    The container *takes ownership* of its arrays: ``__post_init__``
    marks them read-only, so in-place mutation through the matrix (or
    through an array that was passed in without a copy) raises instead
    of silently invalidating cached fingerprints and the merge-path
    schedules keyed on them.  Use :meth:`with_values` to rebind values.

    Attributes:
        n_rows: Number of rows.
        n_cols: Number of columns.
        row_pointers: ``int64`` array of length ``n_rows + 1`` (paper's *RP*).
        column_indices: ``int64`` array of length ``nnz`` (paper's *CP*).
        values: ``float64`` array of length ``nnz``.
        version: Optional graph epoch stamp (set by
            :class:`repro.graphs.delta.DeltaCSR` snapshots).  When set it
            is mixed into :meth:`fingerprint`, making every cache key in
            the stack version-precise: two epochs of a live graph never
            share a fingerprint, even if their structure coincides.
    """

    n_rows: int
    n_cols: int
    row_pointers: np.ndarray
    column_indices: np.ndarray
    values: np.ndarray = field(repr=False)
    version: "int | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "row_pointers", np.ascontiguousarray(self.row_pointers, INDEX_DTYPE)
        )
        object.__setattr__(
            self,
            "column_indices",
            np.ascontiguousarray(self.column_indices, INDEX_DTYPE),
        )
        object.__setattr__(
            self, "values", np.ascontiguousarray(self.values, VALUE_DTYPE)
        )
        validate_csr(
            self.row_pointers,
            self.column_indices,
            self.values,
            self.n_rows,
            self.n_cols,
        )
        self._freeze()

    def _freeze(self) -> None:
        """Mark the arrays read-only.

        Cached fingerprints (and every cache keyed on them) assume the
        content never changes in place.
        """
        for array in (self.row_pointers, self.column_indices, self.values):
            if array.flags.writeable:
                array.flags.writeable = False

    @classmethod
    def _derived(
        cls,
        n_rows: int,
        n_cols: int,
        row_pointers: np.ndarray,
        column_indices: np.ndarray,
        values: np.ndarray,
        version: "int | None" = None,
    ) -> "CSRMatrix":
        """A matrix over arrays this package derived from a validated one.

        For an extracted subgraph, a delta snapshot or a restamp, whose
        arrays are well formed by construction: the O(nnz)
        :func:`validate_csr` pass and the ``ascontiguousarray`` copies of
        the public constructor are skipped.  The O(1) checks stay (the
        dtypes, C-contiguity and the array lengths), and the arrays are
        frozen as usual.  Callers holding arrays from anywhere else use
        the public constructor.
        """
        for name, array, dtype in (
            ("row_pointers", row_pointers, INDEX_DTYPE),
            ("column_indices", column_indices, INDEX_DTYPE),
            ("values", values, VALUE_DTYPE),
        ):
            if (
                array.dtype != dtype
                or array.ndim != 1
                or not array.flags.c_contiguous
            ):
                raise SparseFormatError(
                    f"derived {name} must be a contiguous 1-D "
                    f"{np.dtype(dtype).name} array, got {array.dtype} "
                    f"with shape {array.shape}"
                )
        if len(row_pointers) != n_rows + 1 or len(column_indices) != len(
            values
        ):
            raise SparseFormatError(
                f"derived arrays have lengths {len(row_pointers)}, "
                f"{len(column_indices)} and {len(values)} for "
                f"{n_rows} rows"
            )
        matrix = object.__new__(cls)
        for name, value in (
            ("n_rows", n_rows),
            ("n_cols", n_cols),
            ("row_pointers", row_pointers),
            ("column_indices", column_indices),
            ("values", values),
            ("version", version),
        ):
            object.__setattr__(matrix, name, value)
        matrix._freeze()
        return matrix

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build a CSR matrix from a dense 2-D array (zeros are dropped)."""
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        counts = np.bincount(rows, minlength=dense.shape[0])
        row_pointers = np.concatenate(([0], np.cumsum(counts)))
        return cls(
            n_rows=dense.shape[0],
            n_cols=dense.shape[1],
            row_pointers=row_pointers,
            column_indices=cols,
            values=dense[rows, cols],
        )

    @classmethod
    def from_arrays(
        cls,
        row_pointers: "np.ndarray | list[int]",
        column_indices: "np.ndarray | list[int]",
        values: "np.ndarray | list[float] | None" = None,
        *,
        n_cols: int | None = None,
    ) -> "CSRMatrix":
        """Build a CSR matrix directly from RP/CP arrays.

        Args:
            row_pointers: Row pointer array of length ``n_rows + 1``.
            column_indices: Column index array of length ``nnz``.
            values: Non-zero values; defaults to all ones (an unweighted
                adjacency matrix, the common case for GCN aggregation).
            n_cols: Number of columns; defaults to ``n_rows`` (square).
        """
        row_pointers = np.asarray(row_pointers, dtype=INDEX_DTYPE)
        column_indices = np.asarray(column_indices, dtype=INDEX_DTYPE)
        if values is None:
            values = np.ones(len(column_indices), dtype=VALUE_DTYPE)
        n_rows = len(row_pointers) - 1
        return cls(
            n_rows=n_rows,
            n_cols=n_rows if n_cols is None else n_cols,
            row_pointers=row_pointers,
            column_indices=column_indices,
            values=np.asarray(values, dtype=VALUE_DTYPE),
        )

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The ``n x n`` identity matrix."""
        return cls(
            n_rows=n,
            n_cols=n,
            row_pointers=np.arange(n + 1, dtype=INDEX_DTYPE),
            column_indices=np.arange(n, dtype=INDEX_DTYPE),
            values=np.ones(n, dtype=VALUE_DTYPE),
        )

    def validate(self, *, strict: bool = False) -> None:
        """Re-run validation; ``strict=True`` adds the duplicate/unsorted/
        finite checks (see :func:`repro.formats.validation.validate_csr`).
        """
        validate_csr(
            self.row_pointers,
            self.column_indices,
            self.values,
            self.n_rows,
            self.n_cols,
            strict=strict,
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self, *, include_values: bool = False) -> str:
        """Stable content hash of this matrix's structure (cached).

        Hashes the shape, row pointers, and column indices with BLAKE2b,
        so two matrices with identical structure share a fingerprint no
        matter when or how they were constructed — unlike ``id()``, which
        aliases after garbage collection reuses an address and never
        matches across separate loads of the same graph.  Merge-path
        schedules depend only on structure, so this is the key every
        structural cache uses.

        When :attr:`version` is set, it is hashed too: epoch-stamped
        snapshots of a live graph (see
        :class:`repro.graphs.delta.DeltaCSR`) get a distinct fingerprint
        per epoch, so version-precise cache keys come for free.

        Args:
            include_values: Also hash the non-zero values, producing a
                full content key (used by the serving layer to decide
                which requests may share one batched execution).
        """
        attr = "_fingerprint_values" if include_values else "_fingerprint"
        cached = self._memo(attr)
        if cached is not None:
            return cached
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(f"csr:{self.n_rows}:{self.n_cols}:".encode())
        if self.version is not None:
            hasher.update(f"v{self.version}:".encode())
        hasher.update(self.row_pointers.tobytes())
        hasher.update(self.column_indices.tobytes())
        if include_values:
            hasher.update(self.values.tobytes())
        digest = hasher.hexdigest()
        self._remember(attr, digest, include_values)
        return digest

    def _memo(self, attr: str):
        """The value memoised under ``attr``, or ``None`` if it is stale.

        The arrays are frozen read-only at construction, so the only way
        content can change under a memo is a *rebind* — a different
        array swapped in behind the dataclass field.  An entry holds the
        arrays it was computed from and hits only while every field is
        still that same object.  Holding them also keeps their buffers
        alive, so a freed buffer's address is never reused under it.
        """
        cached = self.__dict__.get(attr)
        if cached is None:
            return None
        arrays, value = cached
        if (
            arrays[0] is self.row_pointers
            and arrays[1] is self.column_indices
            and (len(arrays) == 2 or arrays[2] is self.values)
        ):
            return value
        return None

    def _remember(self, attr: str, value, include_values: bool) -> None:
        """Memoise ``value`` against the arrays it was computed from."""
        arrays = (self.row_pointers, self.column_indices)
        if include_values:
            arrays += (self.values,)
        object.__setattr__(self, attr, (arrays, value))

    def with_values(self, values: np.ndarray) -> "CSRMatrix":
        """A sibling matrix sharing this structure with new values.

        This is the sanctioned way to "mutate" values: the frozen
        arrays make in-place writes raise, and a sibling gets its own
        (correct) value fingerprint while sharing RP/CP — so structural
        schedule caches still hit while value-keyed batching keys do
        not alias.
        """
        sibling = CSRMatrix(
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            row_pointers=self.row_pointers,
            column_indices=self.column_indices,
            values=values,
            version=self.version,
        )
        # Structure (and version) are unchanged, so the structural
        # fingerprint carries over; the value fingerprint does not.
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            object.__setattr__(sibling, "_fingerprint", cached)
        return sibling

    def with_version(self, version: "int | None") -> "CSRMatrix":
        """This matrix re-stamped with a graph epoch (shares all arrays)."""
        if version == self.version:
            return self
        return CSRMatrix._derived(
            self.n_rows,
            self.n_cols,
            self.row_pointers,
            self.column_indices,
            self.values,
            version,
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return len(self.column_indices)

    @property
    def row_lengths(self) -> np.ndarray:
        """Per-row non-zero counts (node degrees for an adjacency matrix)."""
        return np.diff(self.row_pointers)

    @property
    def density(self) -> float:
        """Fraction of cells that are stored non-zeros."""
        cells = self.n_rows * self.n_cols
        return self.nnz / cells if cells else 0.0

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row_slice(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of one row."""
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range [0, {self.n_rows})")
        start, end = self.row_pointers[row], self.row_pointers[row + 1]
        return self.column_indices[start:end], self.values[start:end]

    def iter_rows(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(row, column_indices, values)`` for every row."""
        for row in range(self.n_rows):
            cols, vals = self.row_slice(row)
            yield row, cols, vals

    # ------------------------------------------------------------------
    # Conversions and operations
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array (duplicates are summed)."""
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        rows = np.repeat(np.arange(self.n_rows), self.row_lengths)
        np.add.at(dense, (rows, self.column_indices), self.values)
        return dense

    def to_coo(self) -> "COOMatrix":
        """Convert to coordinate format."""
        from repro.formats.coo import COOMatrix

        rows = np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), self.row_lengths)
        return COOMatrix(
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            rows=rows,
            cols=self.column_indices.copy(),
            values=self.values.copy(),
        )

    def to_csc(self) -> "CSCMatrix":
        """Convert to compressed sparse column format."""
        from repro.formats.csc import CSCMatrix

        order = np.argsort(self.column_indices, kind="stable")
        rows = np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), self.row_lengths)
        counts = np.bincount(self.column_indices, minlength=self.n_cols)
        col_pointers = np.concatenate(([0], np.cumsum(counts)))
        return CSCMatrix(
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            col_pointers=col_pointers,
            row_indices=rows[order],
            values=self.values[order],
            version=self.version,
        )

    def transpose(self) -> "CSRMatrix":
        """The transposed matrix, again in CSR form."""
        csc = self.to_csc()
        return CSRMatrix(
            n_rows=self.n_cols,
            n_cols=self.n_rows,
            row_pointers=csc.col_pointers,
            column_indices=csc.row_indices,
            values=csc.values,
            version=self.version,
        )

    def to_scipy(self) -> "sp.csr_matrix":
        """This matrix's ``scipy.sparse`` CSR view, built once (memoised).

        The view shares this matrix's (read-only) values buffer; scipy
        may narrow the index arrays to ``int32``, a one-off copy.  Its
        index arrays are marked read-only too, so no caller can rewrite
        the view every other caller shares (scipy's in-place
        ``sort_indices`` raises on it).  The memo is checked like
        :meth:`fingerprint`'s: a rebound array or a :meth:`with_values`
        sibling gets its own view.  Duplicate entries are kept as stored
        and summed by ``@``, like :meth:`multiply_dense`.
        No serving path builds it: their SpMM calls scipy's kernel on
        this matrix's own arrays
        (:func:`~repro.core.parallel.execute_row_blocks` with one
        block).  The engine's row blocks slice its narrowed index
        arrays, and it is the fallback when scipy stops exporting the
        kernel.
        """
        view = self._memo("_scipy_view")
        if view is None:
            view = sp.csr_matrix(
                (self.values, self.column_indices, self.row_pointers),
                shape=self.shape,
                copy=False,
            )
            view.indices.flags.writeable = False
            view.indptr.flags.writeable = False
            self._remember("_scipy_view", view, include_values=True)
        return view

    def multiply_dense(self, dense: np.ndarray) -> np.ndarray:
        """Reference SpMM ``self @ dense`` used as ground truth in tests.

        Implemented with vectorized scatter-adds; every kernel in
        :mod:`repro.core` and :mod:`repro.baselines` is verified against it.
        """
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        if dense.shape[0] != self.n_cols:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {dense.shape}"
            )
        out = np.zeros((self.n_rows, dense.shape[1]), dtype=VALUE_DTYPE)
        rows = np.repeat(np.arange(self.n_rows), self.row_lengths)
        # Chunked scatter-add keeps the temporary partial-product array
        # bounded regardless of nnz.
        chunk = 1 << 20
        for lo in range(0, self.nnz, chunk):
            hi = min(lo + chunk, self.nnz)
            np.add.at(
                out,
                rows[lo:hi],
                self.values[lo:hi, None] * dense[self.column_indices[lo:hi]],
            )
        return out

    def sorted_indices(self) -> "CSRMatrix":
        """Return an equivalent matrix with column indices sorted per row."""
        column_indices = self.column_indices.copy()
        values = self.values.copy()
        for row in range(self.n_rows):
            start, end = self.row_pointers[row], self.row_pointers[row + 1]
            order = np.argsort(column_indices[start:end], kind="stable")
            column_indices[start:end] = column_indices[start:end][order]
            values[start:end] = values[start:end][order]
        return CSRMatrix(
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            row_pointers=self.row_pointers.copy(),
            column_indices=column_indices,
            values=values,
            version=self.version,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_pointers, other.row_pointers)
            and np.array_equal(self.column_indices, other.column_indices)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("CSRMatrix is not hashable (holds mutable arrays)")
