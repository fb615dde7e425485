"""Shared location-estimator machinery (the batched query path).

Serving API
-----------
Every estimator follows one contract, enforced here so KNN, WKNN and
the random forest cannot drift apart:

* :meth:`LocationEstimator.fit` validates and stores the radio map and
  then calls the subclass hook :meth:`LocationEstimator._fit`;
* :meth:`LocationEstimator.predict` is *batch-first*: it accepts
  ``(n, D)`` queries (or a single ``(D,)`` query), raises
  :class:`~repro.exceptions.PositioningError` with ``"estimator not
  fitted"`` before :meth:`fit`, validates the AP dimensionality, and
  delegates to the vectorized subclass hook
  :meth:`LocationEstimator._predict_batch`.

Return-shape contract: ``(n, D)`` in → ``(n, 2)`` out; a ``(D,)``
query returns ``(2,)`` by default, or ``(1, 2)`` with
``squeeze=False``.  An empty ``(0, D)`` batch returns ``(0, 2)``.

:class:`NearestNeighbourEstimator` adds the shared vectorized
neighbour search both KNN variants build on.  Two interchangeable
backends feed the same canonical selection
(:func:`~repro.positioning.index.canonical_k_smallest`):

* **brute force** — pairwise squared distances to every record via
  the ``‖a‖² + ‖b‖² − 2·a·b`` expansion (two reductions and one
  matmul), or the slower cancellation-free exact path with
  ``pairwise_sq_dists(..., exact=True)``, computed and selected per
  query chunk so a large batch never holds its whole ``(b, N)``
  matrix;
* **spatial index** — a :class:`~repro.positioning.index.SpatialIndex`
  over the radio map, used when the ``spatial_index`` mode requests it
  (``"auto"`` builds one at ``INDEX_MIN_RECORDS`` and above).  The
  index evaluates exact distances, so its neighbours are bit-identical
  to the brute *exact* path; against the default expansion path they
  agree up to the expansion's cancellation error.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from ..exceptions import PositioningError
from .index import (
    INDEX_MIN_RECORDS,
    KERNELS,
    SpatialIndex,
    canonical_k_smallest,
)

#: Valid values of the ``spatial_index`` estimator field.
INDEX_MODES = ("auto", "on", "off")

#: Memory budget of the brute-force paths, in array elements: the
#: exact distance path keeps at most this many difference elements
#: alive, and the brute neighbour search keeps each query chunk's
#: distance blocks within it.
_CHUNK_ELEMS = 1 << 23


def _validate_training(fingerprints: np.ndarray, locations: np.ndarray):
    fp = np.asarray(fingerprints, dtype=float)
    loc = np.asarray(locations, dtype=float)
    if fp.ndim != 2 or loc.shape != (fp.shape[0], 2):
        raise PositioningError("fingerprints (n,D) / locations (n,2) required")
    if fp.shape[0] == 0:
        raise PositioningError("empty radio map")
    if not np.isfinite(fp).all() or not np.isfinite(loc).all():
        raise PositioningError("radio map must be fully imputed first")
    return fp, loc


def pairwise_sq_dists(
    queries: np.ndarray,
    refs: np.ndarray,
    *,
    exact: bool = False,
    chunk_elems: int = _CHUNK_ELEMS,
) -> np.ndarray:
    """``(n, m)`` squared Euclidean distances.

    The default uses the ``‖a‖²+‖b‖²−2a·b`` expansion: one matmul
    replaces ``n`` row-wise norm computations, and the result is
    clipped at zero because the expansion can go slightly negative for
    near-identical rows.  For large-magnitude vectors (RSSI rows sit
    around −90 dBm, so ``‖a‖² ≈ 10⁶``) the expansion loses up to half
    the mantissa to catastrophic cancellation; ``exact=True`` computes
    ``((a−b)²).sum`` instead, chunked over query rows so at most
    ``chunk_elems`` difference elements are alive at a time.  The
    exact path is the parity reference for the spatial index: both
    reduce a materialised difference over the contiguous trailing
    axis, so equal pairs produce bit-equal distances.
    """
    queries = np.asarray(queries, dtype=float)
    refs = np.asarray(refs, dtype=float)
    if exact:
        n, d = queries.shape
        m = refs.shape[0]
        out = np.empty((n, m))
        rows = max(1, chunk_elems // max(1, m * d))
        for s in range(0, n, rows):
            e = min(s + rows, n)
            diff = queries[s:e, None, :] - refs[None, :, :]
            out[s:e] = (diff * diff).sum(axis=-1)
        return out
    q2 = (queries**2).sum(axis=1)[:, None]
    r2 = (refs**2).sum(axis=1)[None, :]
    d2 = q2 + r2 - 2.0 * (queries @ refs.T)
    return np.maximum(d2, 0.0)


class LocationEstimator(ABC):
    """fit(radio map) → predict(online fingerprints), batch-first."""

    name: str = "estimator"

    #: Artifact kind tag for :meth:`save`; set by persistable subclasses.
    artifact_kind = ""

    @property
    def fitted(self) -> bool:
        return hasattr(self, "_fp")

    def fit(
        self, fingerprints: np.ndarray, locations: np.ndarray
    ) -> "LocationEstimator":
        """Store/learn from a complete radio map."""
        self._fp, self._loc = _validate_training(fingerprints, locations)
        self._fit(self._fp, self._loc)
        return self

    def _fit(self, fingerprints: np.ndarray, locations: np.ndarray) -> None:
        """Subclass hook; the validated arrays are already stored."""

    def predict(
        self, fingerprints: np.ndarray, *, squeeze: bool = True
    ) -> np.ndarray:
        """Estimate locations for a batch of online fingerprints.

        Parameters
        ----------
        fingerprints:
            ``(n, D)`` query batch or a single ``(D,)`` query.
        squeeze:
            When True (default) a ``(D,)`` query returns ``(2,)``;
            with ``squeeze=False`` the output is always ``(n, 2)``.
        """
        if not hasattr(self, "_fp"):
            raise PositioningError("estimator not fitted")
        queries = np.asarray(fingerprints, dtype=float)
        single = queries.ndim == 1
        if single:
            queries = queries[None, :]
        if queries.ndim != 2 or queries.shape[1] != self._fp.shape[1]:
            raise PositioningError(
                f"queries must be (n, {self._fp.shape[1]})"
            )
        if queries.shape[0] == 0:
            return np.empty((0, 2))
        out = self._predict_batch(queries)
        return out[0] if single and squeeze else out

    @abstractmethod
    def _predict_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vectorized ``(n, D)`` → ``(n, 2)`` prediction."""

    # ------------------------------------------------------------------
    # Serialisation (see :mod:`repro.positioning.io`)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Checkpoint the fitted estimator as an artifact file."""
        from .io import save_estimator

        save_estimator(self, path)

    def _extra_state_arrays(self):
        """Subclass hook: fitted state beyond ``_fp``/``_loc``."""
        return {}

    def _restore_extra_state(self, arrays) -> None:
        """Subclass hook: inverse of :meth:`_extra_state_arrays`."""


class NearestNeighbourEstimator(LocationEstimator):
    """Base for estimators that aggregate the k nearest radio-map records.

    Subclasses set ``k`` (a dataclass field) and implement
    :meth:`_combine`, which turns the selected neighbours' distances
    and locations into position estimates.  Two optional dataclass
    fields tune the search backend:

    * ``spatial_index`` — ``"auto"`` (default; index maps with at
      least ``INDEX_MIN_RECORDS`` records), ``"on"`` (always index),
      or ``"off"`` (always brute force);
    * ``spatial_kernel`` — which indexed query kernel to run
      (:data:`~repro.positioning.index.KERNELS`): ``"grouped"``
      (default; the banded CSR grouped-GEMM path) or ``"bucket"``
      (the per-bucket loop).  Both return bit-identical neighbours;
      the field exists for A/B benchmarking;
    * ``exact_distances`` — brute-force with the cancellation-free
      exact path instead of the matmul expansion (the indexed path is
      always exact).
    """

    k: int = 3
    spatial_index: str = "auto"
    spatial_kernel: str = "grouped"
    exact_distances: bool = False

    @property
    def index(self) -> "SpatialIndex | None":
        """The fitted spatial index, if one is in use."""
        return getattr(self, "_index", None)

    def _fit(self, fingerprints: np.ndarray, locations: np.ndarray) -> None:
        self._index = (
            SpatialIndex.build(fingerprints)
            if self._wants_index(fingerprints.shape[0])
            else None
        )

    def _wants_index(self, n_records: int) -> bool:
        mode = self.spatial_index
        if mode not in INDEX_MODES:
            raise PositioningError(
                f"spatial_index must be one of {INDEX_MODES}, got {mode!r}"
            )
        if self.spatial_kernel not in KERNELS:
            raise PositioningError(
                f"spatial_kernel must be one of {KERNELS}, "
                f"got {self.spatial_kernel!r}"
            )
        return mode == "on" or (
            mode == "auto" and n_records >= INDEX_MIN_RECORDS
        )

    def fit_incremental(
        self,
        fingerprints: np.ndarray,
        locations: np.ndarray,
        keep_old: np.ndarray,
        keep_new: np.ndarray,
    ) -> "NearestNeighbourEstimator":
        """Refit after an ingestion delta, refreshing the index in place.

        ``keep_old[i]``/``keep_new[i]`` pair up radio-map rows that
        survived the delta unchanged (old row index → new row index);
        the spatial index keeps its learned structure and only
        reassigns the remaining rows.  Equivalent to :meth:`fit` in
        results — the index stays exact under any bucket assignment —
        just cheaper.
        """
        index = self.index
        self._fp, self._loc = _validate_training(fingerprints, locations)
        if index is not None and index.n_dims == self._fp.shape[1]:
            self._index = index.refreshed(self._fp, keep_old, keep_new)
        else:
            self._fit(self._fp, self._loc)
        return self

    def _neighbours(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(dists, locs)`` of the k nearest records per query.

        ``dists`` is ``(n, k)`` Euclidean distances, ``locs`` is
        ``(n, k, 2)``; both are canonically ordered by ``(distance,
        record index)`` regardless of the backend, so the indexed and
        brute-force paths select identical neighbour sets.
        """
        n = self._fp.shape[0]
        k = min(self.k, n)
        index = self.index
        if index is not None and k < n:
            d2k, idx = index.query(queries, k, kernel=self.spatial_kernel)
        else:
            d2k, idx = self._brute_k_smallest(queries, k)
        return np.sqrt(d2k), self._loc[idx]

    def _brute_k_smallest(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Brute-force distances + canonical selection, per query chunk.

        Both the distance expansion and the selection peak at about two
        ``(rows, N)`` float64 blocks, so a chunk holds at most ``rows``
        queries with ``2 * rows * N`` within :data:`_CHUNK_ELEMS`.  A
        batch under that budget runs as one unchunked call.  Larger
        batches fill the ``(b, k)`` outputs chunk by chunk; the chunks
        are balanced, and ``rows`` is at least 4, so no chunk shrinks
        to one row: a one-row product runs as a matrix-vector kernel
        whose rounding differs from the same row of a batched GEMM.
        """
        b, n = queries.shape[0], self._fp.shape[0]
        rows = max(4, _CHUNK_ELEMS // (2 * n))
        if b <= rows:
            d2 = pairwise_sq_dists(
                queries, self._fp, exact=self.exact_distances
            )
            return canonical_k_smallest(d2, k)
        d2k = np.empty((b, k))
        idx = np.empty((b, k), dtype=np.int64)
        for chunk in np.array_split(np.arange(b), -(-b // rows)):
            s, e = chunk[0], chunk[-1] + 1
            d2 = pairwise_sq_dists(
                queries[s:e], self._fp, exact=self.exact_distances
            )
            d2k[s:e], idx[s:e] = canonical_k_smallest(d2, k)
            del d2  # free this block before the next chunk's
        return d2k, idx

    def _predict_batch(self, queries: np.ndarray) -> np.ndarray:
        return self._combine(*self._neighbours(queries))

    def _extra_state_arrays(self):
        index = self.index
        if index is None:
            return {}
        return {
            f"index.{name}": arr
            for name, arr in index.to_arrays().items()
        }

    def _restore_extra_state(self, arrays) -> None:
        if "index.assign" in arrays:
            self._index = SpatialIndex.from_arrays(
                {
                    name.split(".", 1)[1]: arr
                    for name, arr in arrays.items()
                    if name.startswith("index.")
                },
                self._fp,
            )
        else:
            # Artifact predates the index (or was built with it off):
            # honour this estimator's mode at load time.
            self._fit(self._fp, self._loc)

    @abstractmethod
    def _combine(
        self, dists: np.ndarray, locs: np.ndarray
    ) -> np.ndarray:
        """Aggregate ``(n, k)`` distances / ``(n, k, 2)`` RPs."""
