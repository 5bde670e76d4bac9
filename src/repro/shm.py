"""Shared-memory CSR segments: publish once, attach zero-copy anywhere.

The process-isolated serving tier (:mod:`repro.serve.procpool`) needs
every worker subprocess to see the same immutable graph without paying a
per-worker — let alone per-request — copy of the CSR arrays.  This
module packs one :class:`~repro.formats.csr.CSRMatrix` into a single
``multiprocessing.shared_memory`` block and hands out a small picklable
:class:`SegmentMeta` descriptor; any process holding the descriptor can
:func:`attach_csr` and get numpy views *into the shared pages*:

* **One block, three arrays.**  ``row_pointers`` / ``column_indices`` /
  ``values`` live at 64-byte-aligned offsets inside one segment, so a
  publish is one allocation and an attach is one ``shm_open`` + three
  ``np.frombuffer`` views — zero bytes of graph data copied (and
  :class:`AttachedCSR.copied_bytes` proves it per attach).
* **Checksummed.**  The publisher records a BLAKE2b digest per array;
  :func:`attach_csr` re-hashes the shared pages before handing out the
  matrix and raises :class:`SegmentChecksumError` on any mismatch, so a
  torn write, a partially-unlinked segment, or plain memory corruption
  is *detected at the boundary* instead of producing a silently wrong
  product.  ``verify=False`` skips the hash for trusted re-attaches.
* **Epoch-stamped.**  The matrix's :attr:`~repro.formats.csr.CSRMatrix.
  version` (and its content fingerprint) ride along in the descriptor,
  so live-update epochs (:mod:`repro.serve.epoch`) republish under new
  fingerprints and attached workers can never confuse two epochs.

Publishers own the segment: :meth:`SharedCSRSegment.close` unlinks it.
Attachers only map it; their :meth:`AttachedCSR.close` releases the
local mapping.  Attach-side resource-tracker registration is suppressed
(the well-known ``multiprocessing.shared_memory`` wart where an
attaching process's tracker would unlink segments it never owned).

Everything here emits ``repro.obs`` counters under ``shm.*``.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.formats import CSRMatrix

_ALIGN = 64


class SegmentChecksumError(RuntimeError):
    """A shared CSR segment's bytes do not match its published digests."""


def _quiet_close(shm: shared_memory.SharedMemory) -> None:
    """Close a mapping even while exported views are still alive.

    ``SharedMemory.close`` raises :class:`BufferError` if any numpy view
    of the pages survives (a caller's stray reference, or an exception
    traceback pinning an attach frame) — and then its ``__del__`` retries
    the close at GC time and spews the same error as an ignored
    exception.  Release what can be released, close the descriptor, and
    disarm the destructor's retry; the stranded pages go back to the OS
    at process exit like any other mapping.
    """
    try:
        shm.close()
        return
    except BufferError:
        pass
    try:  # pragma: no cover - depends on live-view timing
        if shm._fd >= 0:
            import os

            os.close(shm._fd)
            shm._fd = -1
    except OSError:  # pragma: no cover
        pass
    shm._mmap = None
    shm._buf = None


def _digest(view: "np.ndarray | memoryview") -> str:
    """BLAKE2b of a contiguous array's bytes, read in place (no copy)."""
    return hashlib.blake2b(view, digest_size=16).hexdigest()


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SegmentMeta:
    """Picklable descriptor of one published CSR segment.

    Everything a foreign process needs to attach: the shared-memory
    ``name``, the matrix shape, per-array offsets/lengths inside the
    block, per-array BLAKE2b digests, the publisher's content
    fingerprint, and the graph epoch ``version`` (``None`` for static
    graphs).
    """

    name: str
    n_rows: int
    n_cols: int
    nnz: int
    version: "int | None"
    fingerprint: str
    indptr_offset: int
    indices_offset: int
    values_offset: int
    total_bytes: int
    checksums: "tuple[str, str, str]"

    def to_dict(self) -> dict:
        """Picklable form workers attach from."""
        return {
            "name": self.name,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "nnz": self.nnz,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "total_bytes": self.total_bytes,
        }


class SharedCSRSegment:
    """Publisher-side handle on one shared CSR segment (owns the pages).

    Built by :func:`publish_csr`.  The publisher process keeps the
    handle for the segment's lifetime; :meth:`close` unlinks the shared
    pages (attached readers keep their mappings alive until they close,
    which is exactly the RCU grace the epoch manager needs).
    """

    def __init__(self, shm: shared_memory.SharedMemory, meta: SegmentMeta) -> None:
        self._shm = shm
        self.meta = meta
        self._closed = False

    @property
    def name(self) -> str:
        """OS-level shared-memory block name."""
        return self.meta.name

    @property
    def nbytes(self) -> int:
        """Total bytes of the published segment."""
        return self.meta.total_bytes

    def buffer(self) -> memoryview:
        """The raw (writable) segment pages — chaos tests tear through it."""
        return self._shm.buf

    def close(self) -> None:
        """Release the local mapping and unlink the shared pages."""
        if self._closed:
            return
        self._closed = True
        _quiet_close(self._shm)
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        obs.counter("shm.segments_unlinked").inc()

    def __enter__(self) -> "SharedCSRSegment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def publish_csr(matrix: CSRMatrix) -> SharedCSRSegment:
    """Pack ``matrix`` into one shared-memory segment and publish it.

    The three CSR arrays are copied once — the publish — into
    64-byte-aligned slots of a fresh ``SharedMemory`` block, and each
    array's BLAKE2b digest is recorded in the returned segment's
    :class:`SegmentMeta` so every attach can verify integrity.
    """
    indptr = np.ascontiguousarray(matrix.row_pointers, dtype=np.int64)
    indices = np.ascontiguousarray(matrix.column_indices, dtype=np.int64)
    values = np.ascontiguousarray(matrix.values, dtype=np.float64)

    indptr_offset = 0
    indices_offset = _aligned(indptr_offset + indptr.nbytes)
    values_offset = _aligned(indices_offset + indices.nbytes)
    total = max(1, values_offset + values.nbytes)

    shm = shared_memory.SharedMemory(create=True, size=total)
    for array, offset in (
        (indptr, indptr_offset),
        (indices, indices_offset),
        (values, values_offset),
    ):
        dst = np.frombuffer(shm.buf, dtype=array.dtype, count=len(array), offset=offset)
        dst[:] = array

    meta = SegmentMeta(
        name=shm.name,
        n_rows=matrix.n_rows,
        n_cols=matrix.n_cols,
        nnz=matrix.nnz,
        version=matrix.version,
        fingerprint=matrix.fingerprint(include_values=True),
        indptr_offset=indptr_offset,
        indices_offset=indices_offset,
        values_offset=values_offset,
        total_bytes=total,
        checksums=(_digest(indptr), _digest(indices), _digest(values)),
    )
    obs.counter("shm.segments_published").inc()
    obs.counter("shm.bytes_published").inc(total)
    return SharedCSRSegment(shm, meta)


class AttachedCSR:
    """Attacher-side handle: a :class:`CSRMatrix` over shared pages.

    Attributes:
        matrix: CSR matrix whose arrays are views *into* the shared
            segment — no graph bytes were copied to build it.
        meta: The descriptor this attach was made from.
        copied_bytes: Graph bytes copied during the attach.  Always 0
            on the zero-copy path; non-zero only if numpy had to
            materialize a copy (it never should — the segment layout is
            contiguous and dtype-exact — and the process pool asserts
            this stays 0).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        matrix: CSRMatrix,
        meta: SegmentMeta,
        copied_bytes: int,
    ) -> None:
        self._shm = shm
        self.matrix = matrix
        self.meta = meta
        self.copied_bytes = copied_bytes
        self._closed = False

    def verify(self) -> None:
        """Re-hash the shared pages against the published digests."""
        _verify_checksums(self._shm, self.meta)

    def close(self) -> None:
        """Drop the matrix views and release the local mapping."""
        if self._closed:
            return
        self._closed = True
        self.matrix = None  # type: ignore[assignment]
        _quiet_close(self._shm)

    def __enter__(self) -> "AttachedCSR":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_attach_lock = threading.Lock()


@contextmanager
def _no_tracker_register():
    """Suppress resource-tracker registration for the scope of an attach.

    ``SharedMemory(name, create=False)`` registers the segment with the
    resource tracker (CPython < 3.13) as if the attacher owned it, so a
    tracker cleanup would unlink pages the publisher still serves — and
    un-registering after the fact is no better, because fork children
    share the parent's tracker and would erase the *publisher's*
    registration (set semantics).  Only the publisher may own the
    registration, so attaches simply never register.
    """
    from multiprocessing import resource_tracker

    with _attach_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            yield
        finally:
            resource_tracker.register = original


def _verify_checksums(shm: shared_memory.SharedMemory, meta: SegmentMeta) -> None:
    views = (
        np.frombuffer(shm.buf, np.int64, meta.n_rows + 1, meta.indptr_offset),
        np.frombuffer(shm.buf, np.int64, meta.nnz, meta.indices_offset),
        np.frombuffer(shm.buf, np.float64, meta.nnz, meta.values_offset),
    )
    for label, view, expected in zip(
        ("row_pointers", "column_indices", "values"), views, meta.checksums
    ):
        if _digest(view) != expected:
            obs.counter("shm.checksum_failures").inc()
            raise SegmentChecksumError(
                f"segment {meta.name!r} {label} bytes do not match the "
                f"published digest (epoch {meta.version}, "
                f"fingerprint {meta.fingerprint[:12]}…) — torn or "
                "corrupted segment"
            )


def attach_csr(meta: SegmentMeta, *, verify: bool = True) -> AttachedCSR:
    """Attach a published segment as a zero-copy :class:`CSRMatrix`.

    Args:
        meta: Descriptor from the publishing process.
        verify: Re-hash every array against the published digests
            before building the matrix (raises
            :class:`SegmentChecksumError` on mismatch).  The O(nnz)
            hash runs once per attach — per epoch per worker, never per
            request.
    """
    with _no_tracker_register():
        shm = shared_memory.SharedMemory(name=meta.name, create=False)
    try:
        if verify:
            _verify_checksums(shm, meta)
        arrays = (
            np.frombuffer(shm.buf, np.int64, meta.n_rows + 1, meta.indptr_offset),
            np.frombuffer(shm.buf, np.int64, meta.nnz, meta.indices_offset),
            np.frombuffer(shm.buf, np.float64, meta.nnz, meta.values_offset),
        )
        matrix = CSRMatrix(
            n_rows=meta.n_rows,
            n_cols=meta.n_cols,
            row_pointers=arrays[0],
            column_indices=arrays[1],
            values=arrays[2],
            version=meta.version,
        )
        # Zero-copy proof: every matrix array must still point into the
        # shared pages.  CSRMatrix's dtype/contiguity normalization is a
        # no-op for this layout, but if it ever copied, account for it.
        base = np.frombuffer(shm.buf, np.uint8)
        lo = base.__array_interface__["data"][0]
        hi = lo + base.nbytes
        copied = 0
        for array in (matrix.row_pointers, matrix.column_indices, matrix.values):
            pointer = array.__array_interface__["data"][0]
            if not lo <= pointer < hi:  # pragma: no cover - defensive
                copied += array.nbytes
        obs.counter("shm.attaches").inc()
        if copied:  # pragma: no cover - defensive
            obs.counter("shm.attach_bytes_copied").inc(copied)
        return AttachedCSR(shm, matrix, meta, copied)
    except Exception:
        _quiet_close(shm)
        raise
