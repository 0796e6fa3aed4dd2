"""Node-blocked implicit representation of the pairwise bandwidth matrix.

A FlexMoE cluster's fabric has exactly three link classes: device-local
copies (the ``g == g'`` diagonal), intra-node NVLink and inter-node
InfiniBand.  The dense ``Bw(g, g')`` matrix the cost models consume is
therefore a rank-structured object: every entry is one of three values,
determined entirely by whether the endpoints coincide or share a node.
Materializing it costs O(G^2) memory twice over (the topology's
ground-truth matrix plus the profiler's estimate), which at 4096 devices
is two 16M-entry float64 tables -- for three distinct numbers.

:class:`BandwidthModel` stores the three class values plus the node
shape and answers every query the cost models make:

* scalar links (:meth:`link`) by node arithmetic;
* rectangular sub-blocks (:meth:`submatrix`) materialized on demand at
  the query's size, not the cluster's;
* the placement search's hot aggregation (:meth:`inflow_at`, the
  per-destination sum ``sum_{s != d} x[s] / Bw(s, d)`` behind Eq. 8)
  at just the destinations asked for -- an expert's replica holders --
  in O(1) each from per-node partial sums of the source rows
  (:meth:`source_rows`), instead of the O(G^2) matrix product;
* one All-to-All pass over a ``G x G`` token flow (:meth:`receive_times`,
  Eq. 8 for both the cost model and the ground-truth executor) through a
  lazily-cached dense view (:meth:`dense`); flows only exist at
  engine-feasible cluster sizes.

An explicit, possibly irregular matrix (the profiler's per-pair sweep)
goes through :meth:`from_dense`, which answers the identical query
interface; the node-blocked path never allocates G^2 anything.

Device indices are node-major (``gpu = node * gpus_per_node + local``,
the :class:`~repro.cluster.topology.ClusterTopology` layout), which is
what lets per-node sums come from a reshape instead of a scatter.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.exceptions import TopologyError


class SourceRows(NamedTuple):
    """Dense source rows prepared for :meth:`BandwidthModel.inflow_at`.

    ``matrix`` is the ``(R, G)`` rows themselves (int32, int64 or
    float64), ``totals`` their float sums and ``node_sums`` their
    ``(R, num_nodes)`` per-node partial sums in the rows' own dtype
    (``None`` for a dense model, which has no node structure to exploit).
    """

    matrix: np.ndarray
    totals: np.ndarray
    node_sums: np.ndarray | None


class BandwidthModel:
    """Three-class implicit (or wrapped dense) ``Bw(g, g')`` in bytes/s.

    Construct through :meth:`blocked` (homogeneous fabric, O(1) storage)
    or :meth:`from_dense` (explicit matrix, e.g. a profiler's per-pair
    sweep or hand-built test profiles). Both expose the same query surface, so
    cost models never branch on the representation.
    """

    __slots__ = (
        "_num_gpus",
        "_num_nodes",
        "_gpus_per_node",
        "_local",
        "_intra",
        "_inter",
        "_blocked",
        "_dense",
        "_inv_dense",
        "_inv_diag",
    )

    def __init__(self) -> None:  # pragma: no cover - use the classmethods
        raise TypeError(
            "use BandwidthModel.blocked(...) or BandwidthModel.from_dense(...)"
        )

    @classmethod
    def blocked(
        cls,
        num_nodes: int,
        gpus_per_node: int,
        local: float,
        intra: float,
        inter: float,
    ) -> "BandwidthModel":
        """Implicit model from the node shape and three class values."""
        if num_nodes < 1 or gpus_per_node < 1:
            raise TopologyError("node shape must be >= 1 in both dimensions")
        if min(local, intra, inter) <= 0:
            raise TopologyError("bandwidth class values must be > 0")
        self = object.__new__(cls)
        self._num_nodes = int(num_nodes)
        self._gpus_per_node = int(gpus_per_node)
        self._num_gpus = self._num_nodes * self._gpus_per_node
        self._local = float(local)
        self._intra = float(intra)
        self._inter = float(inter)
        self._blocked = True
        self._dense = None
        self._inv_dense = None
        self._inv_diag = None
        return self

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "BandwidthModel":
        """Wrap an explicit bandwidth matrix (copied defensively)."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise TopologyError(
                f"bandwidth matrix must be square, got {matrix.shape}"
            )
        if (matrix <= 0).any():
            raise TopologyError("bandwidth entries must be > 0")
        self = object.__new__(cls)
        self._num_gpus = matrix.shape[0]
        self._num_nodes = 1
        self._gpus_per_node = self._num_gpus
        self._local = self._intra = self._inter = 0.0
        self._blocked = False
        dense = matrix.copy()
        dense.setflags(write=False)
        self._dense = dense
        self._inv_dense = None
        self._inv_diag = None
        return self

    # ------------------------------------------------------------------
    # Shape / class accessors
    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        return self._num_gpus

    @property
    def class_values(self) -> tuple[float, float, float]:
        """``(local, intra, inter)`` class bandwidths (blocked models only)."""
        if not self._blocked:
            raise TopologyError("dense bandwidth model has no class values")
        return (self._local, self._intra, self._inter)

    def _check(self, gpu: int) -> None:
        if not 0 <= gpu < self._num_gpus:
            raise TopologyError(
                f"gpu {gpu} out of range [0, {self._num_gpus})"
            )

    def _nodes_of(self, gpus: np.ndarray) -> np.ndarray:
        return np.asarray(gpus, dtype=np.int64) // self._gpus_per_node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def link(self, src: int, dst: int) -> float:
        """Point-to-point ``Bw(src, dst)``."""
        self._check(src)
        self._check(dst)
        if not self._blocked:
            return float(self._dense[src, dst])
        if src == dst:
            return self._local
        if src // self._gpus_per_node == dst // self._gpus_per_node:
            return self._intra
        return self._inter

    def submatrix(self, rows, cols) -> np.ndarray:
        """Dense ``Bw`` block for ``rows x cols``, materialized at query size."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if not self._blocked:
            return self._dense[np.ix_(rows, cols)]
        same_node = (
            self._nodes_of(rows)[:, None] == self._nodes_of(cols)[None, :]
        )
        block = np.where(same_node, self._intra, self._inter)
        block[rows[:, None] == cols[None, :]] = self._local
        return block

    def dense(self) -> np.ndarray:
        """Full read-only ``(G, G)`` matrix, materialized once and cached.

        Reserved for consumers that need the matrix itself (All-to-All
        pricing over a full flow); the placement search must stay on the
        implicit queries.
        """
        if self._dense is None:
            nodes = np.arange(self._num_gpus) // self._gpus_per_node
            dense = np.where(
                nodes[:, None] == nodes[None, :], self._intra, self._inter
            )
            np.fill_diagonal(dense, self._local)
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    def receive_times(self, flow: np.ndarray, token_bytes: float) -> np.ndarray:
        """Eq. 8's per-destination seconds of ONE All-to-All pass.

        ``flow`` is a ``(src, dst)`` token matrix, or a stack of them
        ``(..., src, dst)``; destination ``d`` receives
        ``sum_{s != d} flow[s, d] * token_bytes / Bw(s, d)``. Local
        tokens never cross a link. The cost model and the ground-truth
        executor both price the All-to-All through here.
        """
        wire = flow * token_bytes
        diag = np.arange(self._num_gpus)
        wire[..., diag, diag] = 0.0
        return (wire / self.dense()).sum(axis=-2)

    def inv_diag(self) -> np.ndarray:
        """``1 / Bw(g, g)`` per GPU (cached)."""
        if self._inv_diag is None:
            if self._blocked:
                inv = np.full(self._num_gpus, 1.0 / self._local)
            else:
                inv = np.ascontiguousarray(1.0 / np.diagonal(self._dense))
            inv.setflags(write=False)
            self._inv_diag = inv
        return self._inv_diag

    def source_rows(self, sources: np.ndarray) -> SourceRows:
        """Prepare dense source rows ``(R, G)`` for :meth:`inflow_at`.

        One O(R * G) pass per source matrix (the delta evaluator makes it
        once per assignment); every inflow query after it reads only the
        row totals and, for the blocked model, the per-node sums.  Int32
        and int64 rows are kept as they are, not copied to float.  The
        blocked model sums their nodes in one pass and keeps the node sums
        in the rows' own dtype, so every per-node sum of an int32 row must
        stay below ``2**31`` (a trace step's per-expert total does); the
        row totals add those node sums in int64.  Only the ``(R,)``
        totals become float.  Any other dtype is read as float.
        """
        sources = np.asarray(sources)
        integer = sources.dtype in (np.int32, np.int64)
        if not integer:
            sources = sources.astype(float, copy=False)
        if sources.ndim != 2 or sources.shape[1] != self._num_gpus:
            raise TopologyError(
                f"source rows must be (R, {self._num_gpus}), got "
                f"{sources.shape}"
            )
        if not self._blocked:
            # An int32 sum accumulates in int64.
            totals = sources.sum(axis=1)
            return SourceRows(sources, totals.astype(float, copy=False), None)
        blocks = sources.reshape(-1, self._gpus_per_node)
        if integer:
            # Integer sums are exact in any order: one einsum pass beats
            # both a product with a ones vector and a separate row sum.
            node_sums = np.einsum("ij->i", blocks).reshape(
                sources.shape[0], self._num_nodes
            )
            totals = node_sums.sum(axis=1, dtype=np.int64)
        else:
            # A product with a ones vector beats a reduction over the
            # short per-node axis several times over.
            node_sums = (blocks @ np.ones(self._gpus_per_node)).reshape(
                sources.shape[0], self._num_nodes
            )
            totals = sources.sum(axis=1)
        return SourceRows(sources, totals.astype(float, copy=False), node_sums)

    def inflow_at(
        self,
        sources: SourceRows,
        rows: np.ndarray,
        segments: np.ndarray,
        devices: np.ndarray,
        kept: np.ndarray,
    ) -> np.ndarray:
        """Per-destination inflow ``sum_{s != d} x[s] / Bw(s, d)`` at entries.

        The All-to-All aggregation of Eq. 8 (the delta evaluator's only
        bandwidth-dependent term), asked only at the devices that matter.
        Entry ``k`` is destination ``d = devices[k]`` of segment
        ``segments[k]``, whose source vector ``x`` is source row
        ``rows[k]`` minus ``kept[j]`` tokens at ``devices[j]`` for every
        entry ``j`` of the same segment (under locality-first routing: an
        expert's demand minus what its holders keep, i.e. its spill).
        Devices must be distinct within a segment, and all entries of a
        segment must share one source row.

        The blocked model answers in O(entries) from the source rows'
        totals and per-node sums; the dense model dots each entry's
        spill row with its destination's column of ``1 / Bw``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        segments = np.asarray(segments, dtype=np.int64)
        devices = np.asarray(devices, dtype=np.int64)
        kept = np.asarray(kept, dtype=float)
        own = sources.matrix[rows, devices] - kept
        if not self._blocked:
            if self._inv_dense is None:
                inv = 1.0 / self._dense
                inv.setflags(write=False)
                self._inv_dense = inv
            # Scatter each segment's kept tokens out of its source row.
            num_segments = int(segments.max()) + 1 if segments.size else 0
            segment_rows = np.zeros(num_segments, dtype=np.int64)
            segment_rows[segments] = rows
            spill = sources.matrix[segment_rows].astype(float, copy=False)
            spill[segments, devices] -= kept
            into = np.einsum(
                "kg,gk->k", spill[segments], self._inv_dense[:, devices]
            )
            return into - own * self.inv_diag()[devices]
        nodes = self._nodes_of(devices)
        # Kept tokens per (segment, node) and per segment: the sparse part
        # of the spill's node sums and total.
        _, group = np.unique(
            segments * self._num_nodes + nodes, return_inverse=True
        )
        kept_node = np.bincount(group, weights=kept)[group]
        kept_total = np.bincount(segments, weights=kept)[segments]
        same_node = sources.node_sums[rows, nodes] - kept_node
        total = sources.totals[rows] - kept_total
        return (same_node - own) * (1.0 / self._intra) + (
            total - same_node
        ) * (1.0 / self._inter)
