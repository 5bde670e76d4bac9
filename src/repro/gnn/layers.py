"""GCN layers with pluggable SpMM backends.

A layer computes ``act(A @ (X @ W))`` — the execution order the paper's
accelerators (AWB-GCN, GROW, GNNAdvisor) all use: the dense-dense ``X @ W``
first (cheap: W is small), then the hard sparse-dense product against the
adjacency matrix, which is where the SpMM backend plugs in.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.baselines.cusparse_like import cusparse_like_spmm
from repro.baselines.neighbor_groups import gnnadvisor_spmm
from repro.core.spmm import merge_path_spmm
from repro.formats import CSRMatrix

SpMMFn = Callable[[CSRMatrix, np.ndarray], np.ndarray]


def relu(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """Rectified linear activation (into ``out`` when given)."""
    return np.maximum(x, 0.0, out=out)


def sigmoid(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """Logistic activation, ``1 / (1 + exp(-x))`` (into ``out`` when given)."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def _identity(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    if out is None or out is x:
        return x
    np.copyto(out, x)
    return out


def _mergepath(matrix: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    return merge_path_spmm(matrix, dense).output


def _gnnadvisor(matrix: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    return gnnadvisor_spmm(matrix, dense)[0]


def _cusparse(matrix: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    return cusparse_like_spmm(matrix, dense)[0]


def _reference(matrix: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    return matrix.multiply_dense(dense)


BACKENDS: dict[str, SpMMFn] = {
    "mergepath": _mergepath,
    "gnnadvisor": _gnnadvisor,
    "cusparse": _cusparse,
    "reference": _reference,
}

ACTIVATIONS: dict[str, Callable[..., np.ndarray]] = {
    "relu": relu,
    "sigmoid": sigmoid,
    "none": _identity,
}


def spmm_backend(name: str) -> SpMMFn:
    """Look up a named SpMM backend.

    Args:
        name: One of :data:`BACKENDS` (``"mergepath"``, ``"gnnadvisor"``,
            ``"cusparse"``, ``"reference"``).
    """
    if name not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise KeyError(f"unknown SpMM backend {name!r}; known: {known}")
    return BACKENDS[name]


class GCNLayer:
    """One graph convolution: ``act(A @ (X @ W))``.

    Args:
        weight: The ``f x d`` trained weight matrix *W*.
        activation: Activation name (``"relu"``, ``"sigmoid"``, ``"none"``).
        backend: SpMM backend name or callable.
    """

    def __init__(
        self,
        weight: np.ndarray,
        activation: str = "relu",
        backend: "str | SpMMFn" = "mergepath",
    ) -> None:
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {self.weight.shape}")
        if activation not in ACTIVATIONS:
            known = ", ".join(sorted(ACTIVATIONS))
            raise ValueError(f"unknown activation {activation!r}; known: {known}")
        self.activation_name = activation
        self._activation = ACTIVATIONS[activation]
        self._spmm = spmm_backend(backend) if isinstance(backend, str) else backend

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    def forward(
        self, adjacency: CSRMatrix, features: "np.ndarray | CSRMatrix"
    ) -> np.ndarray:
        """Apply the layer.

        Args:
            adjacency: (Normalized) adjacency matrix *A*.
            features: Node features *X*, shape ``(n, in_features)``.
                Accepts a sparse CSR matrix too — real feature matrices
                are "moderately sparse" (paper, Section II), in which case
                ``X @ W`` is itself an SpMM.


        Returns:
            Activated output embeddings, shape ``(n, out_features)``.
        """
        if isinstance(features, CSRMatrix):
            if features.n_cols != self.in_features:
                raise ValueError(
                    f"feature width {features.n_cols} != layer input "
                    f"{self.in_features}"
                )
            xw = features.multiply_dense(self.weight)  # sparse X: SpMM
        else:
            features = np.asarray(features, dtype=np.float64)
            if features.shape[1] != self.in_features:
                raise ValueError(
                    f"feature width {features.shape[1]} != layer input "
                    f"{self.in_features}"
                )
            xw = features @ self.weight  # dense-dense: W is small
        return self._activation(self._spmm(adjacency, xw))

    @classmethod
    def random(
        cls,
        in_features: int,
        out_features: int,
        seed: int = 0,
        activation: str = "relu",
        backend: "str | SpMMFn" = "mergepath",
    ) -> "GCNLayer":
        """A layer with Glorot-style random weights (for benchmarks/tests)."""
        rng = np.random.default_rng(seed)
        limit = np.sqrt(6.0 / (in_features + out_features))
        weight = rng.uniform(-limit, limit, size=(in_features, out_features))
        return cls(weight, activation=activation, backend=backend)
