"""Shared commuting-matrix engine: compose each meta-path product once.

Every stage of the ConCH pipeline — PathSim filtering (§IV-A), the
similarity ablations, bipartite context graphs (§IV-C), meta-path
discovery, diagnostics, and several baselines — consumes *commuting
matrices*: chain products ``A_{T1,T2} @ ... @ A_{Tl,T_{l+1}}`` of per-hop
biadjacency matrices.  The seed recomputed these chains at every call
site; this module memoizes them per HIN so each distinct product is
composed exactly once.

Prefix-sharing scheme
---------------------
Products are keyed by their node-type tuple (``("A", "P", "C")`` for the
``APC`` half-chain).  A chain is composed by splitting its key into two
shorter keys and multiplying their (recursively memoized) products, so
sub-chains are shared across meta-paths: composing ``APCPA`` materializes
``AP`` and ``APC`` along the way, and a later request for the HeteSim
half-path ``APC`` — or for ``APCPC`` — hits the cache.  Three candidate
splits are considered for every key:

- **left association** ``(T1..Tl) @ (Tl, Tl+1)`` — maximizes prefix reuse;
- **right association** ``(T1, T2) @ (T2..Tl+1)`` — maximizes suffix reuse;
- **middle split** for palindromic odd-length keys — shares the half-path
  product that HeteSim and :func:`half_commuting_matrix` need anyway.

The winner is the split with the lowest *estimated* sparse-flop cost
(``nnz(X) * nnz(Y) / inner_dim``, with sub-product nnz estimated by the
standard density-propagation bound when not already cached); ties go to
left association.  Cached sub-products count as free, so the association
adapts as the cache warms.

Views and bulk operations
-------------------------
From one cached product the engine serves counts (with or without the
diagonal), the diagonal itself, the binary (reachability) projection, the
half-path product, and all four similarity measures — plus vectorized
bulk operations that replace per-row/per-pair Python loops:

- :func:`csr_row_topk` — lexsort-based row-wise top-k over a whole CSR;
- :func:`csr_pair_values` — ``searchsorted`` lookup of ``(u, v)`` entries
  on the ``indptr``/``indices`` structure, never densifying;
- :func:`drop_diagonal` — boolean-mask diagonal removal on the COO
  coordinate arrays that stays CSR end-to-end (no LIL round-trip).

Cache management
----------------
All memoized state (chain products and every derived view) is routed
through :class:`repro.hin.cache.LRUByteCache`: each entry is registered
with its byte size and recency, and a configurable ``memory_budget``
(constructor argument, or :data:`repro.hin.cache.DEFAULT_MEMORY_BUDGET`)
evicts least-recently-used entries when resident bytes exceed it.
Eviction is semantically invisible — an evicted product or view is
transparently recomposed on next access, and prefix sharing consults
whatever survives.  Base per-hop biadjacencies stay pinned outside the
budget (they mirror what the HIN itself holds).

Composed products can additionally persist to a disk-backed store
(:class:`repro.hin.cache.ProductStore`) keyed by the HIN's content hash:
pass ``cache_dir=...`` or set ``REPRO_CACHE_DIR``.  Cold lookups check
disk before composing, compositions write through, and eviction spills
any product not yet on disk — so a second process over the same dataset
composes zero products from scratch.  Disk loads come back **read-only
and memory-mapped** (the store's zero-copy sidecar tier): they register
at ~zero resident bytes in the memory budget because their pages live in
the OS page cache, shared by every co-located worker mapping the same
store.  See :mod:`repro.hin.cache` for the cache-tuning guide (budget,
env var, mmap tier, cold/warm benchmarking).

Cache invalidation
------------------
:class:`~repro.hin.graph.HIN` bumps a structural version counter on every
mutation; the engine compares it on every access.  Mutations applied
through :meth:`HIN.apply_delta` invalidate **row-scoped**: the engine
computes the dirty rows of every cached product by backward reachability
from the touched nodes (exact — a row whose hop rows and reachable
suffix rows are all unchanged cannot differ), recomposes only those rows
as a CSR row block, and splices them over the stale rows
(:func:`repro.hin.cache.splice_rows`).  Each product carries a per-row
version vector (:meth:`CommutingEngine.row_versions`); derived views
over a touched chain are dropped and rebuilt lazily from the patched
products.  Binary hop matrices make every product an exact integer in
float64, so patched rows are bit-identical to a cold recomposition
regardless of association order.  Non-delta mutations
(``add_node_type`` / ``add_edges``) still drop all cached state.
Matrices returned by engine methods are shared cache entries: **treat
them as read-only** (the legacy wrappers in :mod:`repro.hin.adjacency`
hand out copies for callers that want ownership).
"""

from __future__ import annotations

import time
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.hin import cache as cache_config
from repro.hin.cache import (
    LRUByteCache,
    ProductStore,
    csr_from_components,
    default_cache_dir,
    is_mmap_backed,
    nbytes_of,
    resident_nbytes,
    splice_rows,
)
from repro.hin.graph import HIN, DeltaRecord
from repro.hin.io import hin_content_hash
from repro.hin.metapath import MetaPath
from repro.obs import metrics as obs_metrics
from repro.obs.trace import TRACER

Key = Tuple[str, ...]

#: Sentinel for "argument not given" (None is a meaningful value for both
#: ``memory_budget`` — unlimited — and ``cache_dir`` — disk store off).
_UNSET = object()

_MISS = object()

#: Ranking measures the engine can serve (mirrors similarity.py).
MEASURES = ("pathsim", "hetesim", "joinsim", "cosine")


# ---------------------------------------------------------------------- #
# Vectorized bulk operations (engine-independent, reusable)
# ---------------------------------------------------------------------- #


def drop_diagonal(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Copy of ``matrix`` with a structurally absent diagonal.

    Masks the COO coordinate arrays instead of round-tripping through LIL
    (`tolil()`/`setdiag`/`tocsr`), staying CSR-sorted throughout: within a
    CSR row the column indices are already ordered, and removing entries
    preserves that order, so no re-sort or duplicate coalescing happens.
    """
    matrix = sp.csr_matrix(matrix)
    if not matrix.has_sorted_indices:
        matrix = matrix.copy()
        matrix.sort_indices()
    n_rows = matrix.shape[0]
    lengths = np.diff(matrix.indptr)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    keep = matrix.indices != rows
    kept_per_row = np.bincount(rows[keep], minlength=n_rows)
    # concatenate promotes the [0] head to int64; scipy requires indptr
    # and indices dtypes to agree, and csr_from_components skips the
    # constructor's re-cast, so pin the dtype here.
    indptr = np.concatenate(
        ([0], np.cumsum(kept_per_row, dtype=np.int64))
    ).astype(matrix.indptr.dtype, copy=False)
    return csr_from_components(
        matrix.data[keep], matrix.indices[keep], indptr, matrix.shape
    )


def csr_row_topk(matrix: sp.spmatrix, k: int) -> List[np.ndarray]:
    """Per-row top-``k`` column indices by value, ties broken by column id.

    One ``lexsort`` over ``(column, -value, row)`` replaces the per-row
    Python loop: after the sort, rows occupy the same contiguous segments
    as in ``indptr``, so the top-k of every row is a vectorized slice.
    Unlike the seed loop (whose ``argpartition`` broke value ties at the
    k boundary arbitrarily), ties are always resolved toward the lower
    column id, making neighbor selection fully deterministic.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    matrix = sp.csr_matrix(matrix)
    n_rows = matrix.shape[0]
    lengths = np.diff(matrix.indptr)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    order = np.lexsort((matrix.indices, -matrix.data, rows))
    sorted_cols = matrix.indices[order]
    ranks = np.arange(matrix.nnz, dtype=np.int64) - np.repeat(
        matrix.indptr[:-1].astype(np.int64), lengths
    )
    keep = ranks < k
    kept_per_row = np.minimum(lengths, k)
    boundaries = np.cumsum(kept_per_row)[:-1]
    return np.split(sorted_cols[keep], boundaries)


def csr_pair_keys(matrix: sp.csr_matrix) -> np.ndarray:
    """Sorted ``row * ncols + col`` keys of a CSR's stored entries.

    CSR stores rows in order and column indices sorted within each row,
    so this flattened key array is globally sorted — ready for
    ``np.searchsorted`` lookups (:func:`csr_pair_values`).
    """
    matrix = sp.csr_matrix(matrix)
    if not matrix.has_sorted_indices:
        matrix.sort_indices()
    lengths = np.diff(matrix.indptr)
    rows = np.repeat(np.arange(matrix.shape[0], dtype=np.int64), lengths)
    return rows * np.int64(matrix.shape[1]) + matrix.indices


def csr_pair_values(
    matrix: sp.spmatrix,
    u: np.ndarray,
    v: np.ndarray,
    keys: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Values ``matrix[u_i, v_i]`` for index arrays, absent entries = 0.

    A single ``searchsorted`` against the flattened sorted entry keys
    replaces per-pair ``matrix[u, v]`` indexing; ``keys`` may be passed
    precomputed (see :func:`csr_pair_keys`) to amortize repeated lookups.
    """
    matrix = sp.csr_matrix(matrix)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError("u and v must have the same shape")
    if u.size and (
        u.min() < 0
        or u.max() >= matrix.shape[0]
        or v.min() < 0
        or v.max() >= matrix.shape[1]
    ):
        raise IndexError("pair indices out of range")
    if keys is None:
        keys = csr_pair_keys(matrix)
    targets = u * np.int64(matrix.shape[1]) + v
    positions = np.searchsorted(keys, targets)
    positions_clipped = np.minimum(positions, max(keys.size - 1, 0))
    out = np.zeros(u.shape[0], dtype=np.float64)
    if keys.size:
        hits = keys[positions_clipped] == targets
        out[hits] = matrix.data[positions_clipped[hits]]
    return out


# ---------------------------------------------------------------------- #
# The engine
# ---------------------------------------------------------------------- #


def _row_normalize(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Rows rescaled to sum to 1 (zero rows stay zero)."""
    matrix = sp.csr_matrix(matrix, dtype=np.float64)
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    scale = np.divide(
        1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0
    )
    return sp.csr_matrix(sp.diags(scale) @ matrix)


def _l2_normalize_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Rows rescaled to unit L2 norm (zero rows stay zero)."""
    matrix = sp.csr_matrix(matrix, dtype=np.float64)
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return sp.csr_matrix(sp.diags(scale) @ matrix)


class CommutingEngine:
    """Per-HIN memoizing layer over meta-path chain products.

    One engine serves one :class:`HIN`; obtain it through
    :func:`get_engine` so all call sites share the same cache.  All cached
    matrices are returned by reference — treat them as read-only.

    Parameters
    ----------
    hin:
        The graph served.  A directly-constructed engine pins it alive;
        engines obtained through :func:`get_engine` hold it weakly, so
        dropping the HIN releases the shared engine and everything it
        cached.
    memory_budget:
        Byte cap on resident cached entries (LRU eviction above it);
        ``None`` = unlimited.  Defaults to
        :data:`repro.hin.cache.DEFAULT_MEMORY_BUDGET`.
    cache_dir:
        Directory of the disk-backed product store; ``None`` disables it.
        Defaults to the ``REPRO_CACHE_DIR`` environment variable.
    """

    def __init__(
        self,
        hin: HIN,
        memory_budget: Union[Optional[int], object] = _UNSET,
        cache_dir: Union[Optional[str], object] = _UNSET,
    ):
        self._hin_ref = weakref.ref(hin)
        #: Strong pin on the graph: a directly-constructed engine keeps
        #: its HIN alive (the pre-existing contract — callers may pass a
        #: temporary).  :func:`get_engine` clears the pin on registry
        #: engines so the weak-keyed registry lets both die together
        #: when the caller drops the HIN.
        self._hin_pin: Optional[HIN] = hin
        self._version = hin.version
        #: Pinned per-hop biadjacencies — outside the memory budget; they
        #: mirror edge data the HIN holds anyway and every recomposition
        #: bottoms out on them.
        self._base: Dict[Tuple[str, str], sp.csr_matrix] = {}
        self._validated: set = set()
        if memory_budget is _UNSET:
            memory_budget = cache_config.DEFAULT_MEMORY_BUDGET
        self._cache = LRUByteCache(memory_budget, on_evict=self._on_evict)
        if cache_dir is _UNSET:
            cache_dir = default_cache_dir()
        self._store: Optional[ProductStore] = (
            ProductStore(cache_dir) if cache_dir else None
        )
        #: Product keys known to be on disk under the current content
        #: hash (written or loaded this generation) — lets eviction skip
        #: redundant spills.
        self._on_disk: set = set()
        #: Log of composed (multiplied) product keys in the current cache
        #: generation — the call-count spy hook: duplicates here mean a
        #: product was rebuilt.  Cleared on invalidation.
        self.compose_log: List[Key] = []
        #: Measured wall-clock seconds of each composition, keyed by
        #: product key (the compose-event log).  Feeds the cost-aware
        #: eviction priority: an entry's rebuild cost weights it against
        #: recency, so a 5-hop product survives pressure from cheap
        #: diagonals.
        self.compose_seconds: Dict[Key, float] = {}
        self.disk_hits = 0
        self.spills = 0
        #: Compositions avoided by waiting on another worker's claim
        #: (concurrent-writer dedupe; see ProductStore.acquire_claim).
        self.claim_waits = 0
        #: Per-row version stamps of each tracked product: entry ``i``
        #: is the graph version whose delta last rewrote row ``i`` (the
        #: build version for untouched rows).  Row-scoped invalidation
        #: updates only the dirty stamps.
        self._row_versions: Dict[Key, np.ndarray] = {}
        #: True nnz observed for every product composed, loaded, or
        #: patched this generation — survives eviction, so _split's cost
        #: model uses measured intermediate nnz instead of the density
        #: bound once a sub-chain has been built once.
        self._observed_nnz: Dict[Key, int] = {}
        #: Row-scoped patches this generation: products patched, their
        #: dirty rows in total, and derived views (top-k neighbor lists)
        #: respliced instead of dropped on ingest.  Counters, not logs:
        #: a long-lived engine under a delta stream stays bounded.
        self.patched_products = 0
        self.patched_rows = 0
        self.patched_views = 0
        self._obs = obs_metrics.REGISTRY.register("engine", self._collect_metrics)

    @property
    def _hin(self) -> HIN:
        hin = self._hin_ref()
        if hin is None:
            raise ReferenceError(
                "the HIN behind this CommutingEngine was garbage-collected"
            )
        return hin

    # -------------------------------------------------------------- #
    # Cache configuration and telemetry plumbing
    # -------------------------------------------------------------- #

    @property
    def memory_budget(self) -> Optional[int]:
        """Resident-byte cap of the view cache (``None`` = unlimited)."""
        return self._cache.budget

    def set_memory_budget(self, memory_budget: Optional[int]) -> None:
        """Change the budget; shrinking evicts eagerly to fit."""
        self._cache.budget = memory_budget

    @property
    def cache_dir(self) -> Optional[str]:
        """Directory of the disk-backed product store, if enabled."""
        return str(self._store.directory) if self._store is not None else None

    def set_cache_dir(self, cache_dir: Optional[str]) -> None:
        """Point the engine at a (possibly different) product store.

        A no-op when the directory is unchanged, so repeated pipeline
        runs with the same config keep their on-disk bookkeeping.
        """
        if (str(Path(cache_dir)) if cache_dir else None) == self.cache_dir:
            return
        self._store = ProductStore(cache_dir) if cache_dir else None
        self._on_disk.clear()

    @property
    def hits(self) -> int:
        """Cache hits across all products and views this generation."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Cache misses across all products and views this generation."""
        return self._cache.misses

    def _content_hash(self) -> str:
        return hin_content_hash(self._hin)

    def _on_evict(self, key: Tuple, value) -> None:
        """Eviction hook: spill a composed product to disk before dropping.

        Products are normally written through at composition time, so
        this only writes when the store was attached after the product
        was composed (or a write failed); views are recomputable from
        products and never spill.
        """
        if self._store is None or key[0] != "product":
            return
        hin = self._hin_ref()
        if hin is None or hin.version != self._version:
            # Eviction can fire without a _sync (set_memory_budget /
            # set_cache_dir): never write a value composed from an older
            # graph generation under the current content hash.
            return
        product_key = key[1]
        if len(product_key) < 3 or product_key in self._on_disk:
            return
        if self._store.save(self._content_hash(), product_key, value):
            self._on_disk.add(product_key)
            self.spills += 1

    # -------------------------------------------------------------- #
    # Invalidation
    # -------------------------------------------------------------- #

    def _sync(self) -> None:
        """Reconcile caches with the HIN when it mutated since last access.

        Mutations reconstructible as a contiguous :class:`EdgeDelta`
        chain (``HIN.deltas_since``) are absorbed by row-scoped patching
        (:meth:`_ingest`); anything else — unknown history, non-delta
        mutations, or edits touching too large a node fraction — falls
        back to the pre-delta behavior of dropping everything.
        """
        if self._hin.version == self._version:
            return
        records = self._hin.deltas_since(self._version)
        if not records or not self._ingest(records):
            self.invalidate()

    # -------------------------------------------------------------- #
    # Row-scoped delta ingest
    # -------------------------------------------------------------- #

    #: An edit batch touching more than this fraction of a type's rows
    #: patches per-row with no benefit over recomposition; bail to full
    #: invalidation above it.
    INGEST_ROW_FRACTION = 0.5

    #: Similarity measures whose score ``(u, v)`` depends only on the
    #: commuting entry and the two diagonals — the ones whose top-k
    #: neighbor views ingest can patch per-row instead of dropping.
    ROW_LOCAL_MEASURES = ("pathsim", "joinsim")

    def _hop_dirty(
        self, records: Sequence[DeltaRecord]
    ) -> Dict[Tuple[str, str], np.ndarray]:
        """Dirty rows per directed hop type pair across delta records.

        An edit to relation ``src → dst`` dirties rows ``touched[src]``
        of ``adjacency(src, dst)`` and rows ``touched[dst]`` of the
        reverse ``adjacency(dst, src)`` (the HIN maintains reverses in
        the same ``apply_delta``).
        """
        hin = self._hin
        hop_dirty: Dict[Tuple[str, str], np.ndarray] = {}
        for record in records:
            info = hin.relation_info(record.relation)
            for side, other in (
                (info.src_type, info.dst_type),
                (info.dst_type, info.src_type),
            ):
                rows = record.touched.get(side)
                if rows is None or rows.size == 0:
                    continue
                key = (side, other)
                prev = hop_dirty.get(key)
                hop_dirty[key] = rows if prev is None else np.union1d(prev, rows)
        return hop_dirty

    @staticmethod
    def _backward_rows(back: sp.csr_matrix, nodes: np.ndarray) -> np.ndarray:
        """Rows of the *forward* hop with any neighbor in ``nodes``.

        ``back`` is the reverse biadjacency: the forward hop's rows
        reaching ``nodes`` are exactly the union of ``back``'s index
        segments for those nodes (one vectorized segment gather).
        """
        if nodes.size == 0:
            return nodes
        starts = back.indptr[nodes].astype(np.int64)
        lengths = back.indptr[nodes + 1].astype(np.int64) - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        gathered = back.indices[np.repeat(starts, lengths) + offsets]
        return np.unique(gathered.astype(np.int64))

    def _dirty_rows(
        self, key: Key, hop_dirty: Dict[Tuple[str, str], np.ndarray]
    ) -> np.ndarray:
        """Rows of ``product(key)`` affected by the dirty hops.

        Backward recurrence from the last hop: a row at position ``j``
        is dirty iff its own hop row changed, or it reaches (in the new
        graph) a dirty row of the suffix product.  Exact for untouched
        rows — their hop rows are identical in both graph generations,
        so the new-graph reachability used here is the old one too.
        """
        empty = np.empty(0, dtype=np.int64)
        if not any(
            (key[i], key[i + 1]) in hop_dirty for i in range(len(key) - 1)
        ):
            return empty
        dirty = hop_dirty.get((key[-2], key[-1]), empty)
        for position in range(len(key) - 3, -1, -1):
            back = self.base(key[position + 1], key[position])
            expanded = self._backward_rows(back, dirty)
            hop = hop_dirty.get((key[position], key[position + 1]), empty)
            dirty = np.union1d(expanded, hop)
        return np.asarray(dirty, dtype=np.int64)

    def dirty_rows(
        self, node_types: Sequence[str], records: Sequence[DeltaRecord]
    ) -> np.ndarray:
        """Public form of :meth:`_dirty_rows` for downstream tiers.

        The pipeline/context layers call this with the just-applied
        delta records to find which product rows (and hence which
        retained pairs) need re-enumeration.
        """
        self._sync()
        return self._dirty_rows(tuple(node_types), self._hop_dirty(records))

    def row_versions(self, node_types: Sequence[str]) -> Optional[np.ndarray]:
        """Per-row version stamps of a tracked product (read-only).

        Entry ``i`` is the graph version whose ingest last rewrote row
        ``i``; ``None`` when the product has not been composed (or was
        fully invalidated) this generation.
        """
        return self._row_versions.get(tuple(node_types))

    def _compose_rows(self, key: Key, rows: np.ndarray) -> sp.csr_matrix:
        """Recompose only ``rows`` of a chain product as a row block.

        Slices the first hop to the dirty rows, then multiplies through
        a cached (already-patched) suffix product when one is resident,
        falling back to a left fold over base hops.  Binary hops make
        every product value an exact small integer in float64, so the
        block is bit-identical to the same rows of a cold composition
        regardless of association order.
        """
        block = sp.csr_matrix(self.base(key[0], key[1])[rows, :])
        if len(key) > 2:
            suffix = self._cache.peek(("product", key[1:]), _MISS)
            if suffix is not _MISS:
                block = sp.csr_matrix(block @ suffix)
            else:
                for position in range(1, len(key) - 1):
                    block = sp.csr_matrix(
                        block @ self.base(key[position], key[position + 1])
                    )
        block.sort_indices()
        return block

    def _ingest(self, records: Sequence[DeltaRecord]) -> bool:
        """Absorb a delta chain by patching dirty product rows in place.

        Returns ``False`` (caller falls back to :meth:`invalidate`) when
        the edit fraction makes patching pointless.  Otherwise: stale
        base hops are dropped (rebuilt lazily from the mutated HIN),
        every resident product gets its dirty rows recomposed and
        spliced (:func:`repro.hin.cache.splice_rows` via
        :meth:`LRUByteCache.replace`, preserving cache citizenship),
        per-row version vectors are stamped, views over touched chains
        are dropped, and the disk store is migrated: patched products
        are re-saved under the new content hash, and products resident
        only on disk are patched old-hash → new-hash without ever
        becoming whole-product recompositions.
        """
        hin = self._hin
        hop_dirty = self._hop_dirty(records)
        for (src_type, _), rows in hop_dirty.items():
            if rows.size > max(1, hin.num_nodes(src_type)) * self.INGEST_ROW_FRACTION:
                return False

        old_hash = records[0].prev_hash
        old_on_disk = set(self._on_disk)
        self._on_disk.clear()
        self._version = hin.version

        for pair in list(self._base):
            if pair in hop_dirty:
                del self._base[pair]
                self._cache.discard(("product", pair))

        # Drop derived views whose chain crosses a dirty hop; they
        # rebuild lazily from the patched products below.  Top-k
        # neighbor lists under row-local measures are captured first:
        # those are respliced per dirty row after the products are
        # patched (the neighbor-filter fast path for streaming ingest).
        topk_stale: List[Tuple[Tuple, List[np.ndarray]]] = []
        for cache_key in list(self._cache.keys()):
            if cache_key[0] == "product":
                continue
            chain = next(
                (part for part in cache_key if isinstance(part, tuple)), None
            )
            if chain is None:
                continue
            if any(
                (chain[i], chain[i + 1]) in hop_dirty
                for i in range(len(chain) - 1)
            ):
                if (
                    cache_key[0] == "top_k"
                    and cache_key[1] in self.ROW_LOCAL_MEASURES
                ):
                    topk_stale.append(
                        (cache_key, self._cache.peek(cache_key, None))
                    )
                self._cache.discard(cache_key)

        product_keys = sorted(
            (
                cache_key[1]
                for cache_key in self._cache.keys()
                if cache_key[0] == "product" and len(cache_key[1]) > 2
            ),
            key=len,
        )
        patched: Dict[Key, sp.csr_matrix] = {}
        needs_diag = {cache_key[2] for cache_key, _ in topk_stale}
        old_diags: Dict[Key, np.ndarray] = {}
        # Detach the store while patching: a budget eviction triggered
        # by a replace must never spill a not-yet-patched stale product
        # under the new content hash.
        store, self._store = self._store, None
        try:
            for key in product_keys:
                old = self._cache.peek(("product", key), _MISS)
                if old is _MISS:
                    continue  # evicted by an earlier replace
                dirty = self._dirty_rows(key, hop_dirty)
                if dirty.size == 0:
                    patched[key] = old  # content unchanged; re-key on disk
                    continue
                if key in needs_diag:
                    old_diags[key] = old.diagonal()
                block = self._compose_rows(key, dirty)
                result = splice_rows(old, dirty, block)
                self._cache.replace(
                    ("product", key), result, nbytes=resident_nbytes(result)
                )
                stamps = self._row_versions.get(key)
                if stamps is not None:
                    stamps[dirty] = self._version
                self._observed_nnz[key] = int(result.nnz)
                self.patched_products += 1
                self.patched_rows += int(dirty.size)
                patched[key] = result
        finally:
            self._store = store

        # Drop telemetry for products that are dirty but no longer
        # resident (evicted): their recorded nnz/stamps are stale.
        for key in list(self._observed_nnz):
            if key in patched:
                continue
            if self._dirty_rows(key, hop_dirty).size:
                self._observed_nnz.pop(key, None)
                self._row_versions.pop(key, None)

        # Resplice captured top-k neighbor lists.  A clean row's own
        # entries and diagonal are unchanged, so its scores can shift
        # only through a dirty *column's* diagonal; the commuting matrix
        # is symmetric (these measures require symmetric meta-paths), so
        # candidates live in the changed diagonals' neighbor columns,
        # and _topk_affected_rows proves per row whether a moved score
        # can actually perturb the cached list — usually leaving a set
        # far tighter than D's full neighbor ball to rescore.
        for cache_key, lists in topk_stale:
            chain, k = cache_key[2], int(cache_key[3])
            counts = patched.get(chain)
            if counts is None or lists is None:
                continue  # product not resident; view rebuilds lazily
            dirty = self._dirty_rows(chain, hop_dirty)
            if dirty.size == 0:
                self._cache.put(cache_key, lists)
                continue
            old_diag = old_diags.get(chain)
            if old_diag is None:
                continue  # diagonal not captured; view rebuilds lazily
            new_diag = counts.diagonal()
            diag_changed = dirty[old_diag[dirty] != new_diag[dirty]]
            sim_dirty = np.union1d(
                dirty,
                self._topk_affected_rows(
                    counts, lists, dirty, diag_changed,
                    old_diag, new_diag, cache_key[1], k,
                ),
            )
            if sim_dirty.size > counts.shape[0] * self.INGEST_ROW_FRACTION:
                continue  # patch would touch most rows; rebuild lazily
            started = time.perf_counter()
            block = self._row_local_scores(
                sp.csr_matrix(counts[sim_dirty]),
                sim_dirty,
                new_diag,
                cache_key[1],
            )
            fresh_lists = csr_row_topk(block, k)
            respliced = list(lists)
            for local, row in enumerate(sim_dirty):
                respliced[row] = fresh_lists[local]
            self._cache.put(
                cache_key, respliced, cost=time.perf_counter() - started
            )
            self.patched_views += 1

        if store is not None:
            new_hash = self._content_hash()
            for key, matrix in patched.items():
                if store.save(new_hash, key, matrix):
                    self._on_disk.add(key)
                    self.spills += 1
            if old_hash is not None:
                for key in sorted(old_on_disk - set(patched), key=len):
                    if len(key) < 3:
                        continue
                    stale = store.load(old_hash, key)
                    if stale is None:
                        continue
                    dirty = self._dirty_rows(key, hop_dirty)
                    if dirty.size:
                        matrix = splice_rows(
                            stale, dirty, self._compose_rows(key, dirty)
                        )
                        self.patched_products += 1
                        self.patched_rows += int(dirty.size)
                    else:
                        matrix = stale
                    if store.save(new_hash, key, matrix):
                        self._on_disk.add(key)
                        self.spills += 1
        return True

    def invalidate(self) -> None:
        """Drop all cached state and telemetry (mutation does this lazily).

        The compose log and hit/miss counters reset too: the compose-once
        contract is *per cache generation*, so a legitimately invalidated
        engine recomposing a product is not a duplicate composition.
        Disk-store files are untouched — they are keyed by content hash,
        so an unchanged graph reloads them instead of recomposing (the
        "cold memory, warm disk" scenario of a fresh process).
        """
        self._base.clear()
        self._validated.clear()
        self._cache.clear()
        self._cache.reset_stats()
        self._on_disk.clear()
        self.compose_log.clear()
        self.compose_seconds.clear()
        self.disk_hits = 0
        self.spills = 0
        self.claim_waits = 0
        self._row_versions.clear()
        self._observed_nnz.clear()
        self.patched_products = 0
        self.patched_rows = 0
        self.patched_views = 0
        self._version = self._hin.version

    # -------------------------------------------------------------- #
    # Base adjacencies and chain products
    # -------------------------------------------------------------- #

    def base(self, src_type: str, dst_type: str) -> sp.csr_matrix:
        """Cached per-hop biadjacency (union of relations src → dst).

        Column indices are guaranteed sorted within each row: the context
        kernel and the DFS fallback binary-search these index arrays
        (``np.searchsorted`` membership tests), which silently return
        wrong answers on unsorted CSR.
        """
        self._sync()
        key = (src_type, dst_type)
        if key not in self._base:
            matrix = self._hin.adjacency(src_type, dst_type)
            if not matrix.has_sorted_indices:
                matrix.sort_indices()
            self._base[key] = matrix
        return self._base[key]

    def _validate(self, metapath: MetaPath) -> None:
        """Schema-validate a meta-path once per cache generation."""
        self._sync()
        key = tuple(metapath.node_types)
        if key not in self._validated:
            metapath.validate(self._hin.schema())
            self._validated.add(key)

    def _view(self, key: Tuple, build):
        """Serve one derived view through the budgeted LRU cache.

        On a miss the view is rebuilt by ``build()`` and re-registered —
        this is what makes eviction semantically invisible: the build
        closures only read cached products (themselves recomposable) and
        the pinned base matrices.  The build's wall-clock cost weights
        the entry's eviction priority (expensive views outlive cheap
        ones under memory pressure).
        """
        value = self._cache.get(key, _MISS)
        if value is _MISS:
            started = time.perf_counter()
            value = build()
            self._cache.put(key, value, cost=time.perf_counter() - started)
        return value

    def chain(self, metapath: MetaPath) -> List[sp.csr_matrix]:
        """Per-hop biadjacency list along a meta-path (hops all cached)."""
        self._validate(metapath)
        types = metapath.node_types
        return [self.base(a, b) for a, b in zip(types[:-1], types[1:])]

    def product(self, node_types: Sequence[str]) -> sp.csr_matrix:
        """Memoized chain product for a node-type sequence."""
        self._sync()
        key = tuple(node_types)
        if len(key) < 2:
            raise ValueError("a chain needs at least two node types")
        return self._product(key)

    def _product(self, key: Key) -> sp.csr_matrix:
        cached = self._cache.get(("product", key), _MISS)
        if cached is not _MISS:
            return cached
        if len(key) == 2:
            # Alias of the pinned base biadjacency: registered at 0 bytes
            # (the base dict owns the memory) purely so repeated accesses
            # count as hits.
            result = self.base(key[0], key[1])
            self._cache.put(("product", key), result, nbytes=0)
            return result
        # The entry's eviction-priority cost is what a *post-eviction*
        # re-acquisition would pay: the measured disk-load time when the
        # product is on disk, the measured compose time otherwise.
        # Claim-wait blocking time is deliberately excluded — after a
        # wait the product sits on disk, so its re-acquisition is a
        # cheap load no matter how long the peer took to write it.
        cost = 0.0
        result = None
        if self._store is not None:
            content_hash = self._content_hash()
            started = time.perf_counter()
            result = self._store.load(content_hash, key)
            if result is not None:
                cost = time.perf_counter() - started
                self.disk_hits += 1
                self._on_disk.add(key)
            elif self._store.acquire_claim(content_hash, key):
                # This worker won the compose claim for the cluster.
                try:
                    result = self._compose(key, holds_claim=True)
                finally:
                    self._store.release_claim(content_hash, key)
                cost = self.compose_seconds.get(key, 0.0)
            else:
                # Another live worker is composing the same product:
                # wait for its write-through instead of duplicating the
                # multiplication; a dead writer's stale claim times out
                # and composition falls back to us.
                result = self._store.wait_for(content_hash, key)
                if result is not None:
                    self.disk_hits += 1
                    self.claim_waits += 1
                    self._on_disk.add(key)
                else:
                    result = self._compose(key)
                    cost = self.compose_seconds.get(key, 0.0)
        if result is None:
            result = self._compose(key)
            cost = self.compose_seconds.get(key, 0.0)
        # Mapped products are page-cache, not heap: they register at
        # ~zero resident bytes, so N co-located workers mapping the same
        # store pay for one copy total and never evict real heap entries
        # to "free" shared pages.
        self._cache.put(
            ("product", key), result, nbytes=resident_nbytes(result), cost=cost
        )
        self._row_versions[key] = np.full(
            result.shape[0], self._version, dtype=np.int64
        )
        self._observed_nnz[key] = int(result.nnz)
        return result

    def _compose(self, key: Key, holds_claim: bool = False) -> sp.csr_matrix:
        """Multiply a chain product, log the compose event, write through."""
        started = time.perf_counter()
        left_key, right_key = self._split(key)
        left = self._product(left_key)
        right = self._product(right_key)
        if holds_claim and self._store is not None:
            # Sub-products may have taken a while: renew this key's
            # claim lease before the final multiply so waiters do not
            # mistake a slow-but-live writer for a dead one.  (Only the
            # claim holder refreshes — a fallback composer must never
            # extend a dead writer's lease.)
            self._store.refresh_claim(self._content_hash(), key)
        result = sp.csr_matrix(left @ right)
        result.sort_indices()
        finished = time.perf_counter()
        self.compose_log.append(key)
        self.compose_seconds[key] = finished - started
        obs_metrics.REGISTRY.histogram(
            "repro_engine_compose_seconds",
            help="Wall-clock seconds per chain-product composition",
        ).observe(finished - started)
        if TRACER.enabled:
            TRACER.record(
                "engine.compose",
                start_s=started,
                end_s=finished,
                parent=TRACER.current_context(),
                attrs={"key": "->".join(str(t) for t in key)},
            )
        if self._store is not None and key not in self._on_disk:
            if self._store.save(self._content_hash(), key, result):
                self._on_disk.add(key)
                self.spills += 1
        return result

    def _split(self, key: Key) -> Tuple[Key, Key]:
        """Cost-aware association: pick the cheapest of the candidate splits.

        Candidates: left association (prefix reuse), right association
        (suffix reuse), and — for palindromic odd-length keys — the middle
        split that shares the half-path product.  Cached sub-products cost
        nothing, so warm caches steer the association toward reuse.
        """
        candidates = [len(key) - 2, 1]
        if len(key) % 2 == 1 and key == key[::-1]:
            candidates.insert(0, len(key) // 2)
        best: Optional[Tuple[float, Key, Key]] = None
        for split in candidates:
            left, right = key[: split + 1], key[split:]
            left_nnz, left_cost = self._estimate(left)
            right_nnz, right_cost = self._estimate(right)
            inner = max(1, self._hin.num_nodes(key[split]))
            cost = left_cost + right_cost + left_nnz * right_nnz / inner
            if best is None or cost < best[0]:
                best = (cost, left, right)
        assert best is not None
        return best[1], best[2]

    def _estimate(self, key: Key) -> Tuple[float, float]:
        """``(estimated nnz, estimated flops to build)`` of a sub-product.

        Cached products report their true nnz at zero cost.  Otherwise
        nnz propagates along a left fold, preferring the *observed* nnz
        of any prefix composed earlier this generation
        (``_observed_nnz`` — survives eviction) and falling back to the
        standard density bound
        ``nnz(XY) <= min(rows*cols, nnz(X)*nnz(Y)/inner)`` for prefixes
        never built.  (``peek`` keeps estimation from perturbing LRU
        recency or the hit/miss counters.)
        """
        cached = self._cache.peek(("product", key), _MISS)
        if cached is not _MISS:
            return float(cached.nnz), 0.0
        if len(key) == 2:
            return float(self.base(key[0], key[1]).nnz), 0.0
        nnz, cost = self._estimate(key[:2])
        for position in range(1, len(key) - 1):
            hop_nnz = float(self.base(key[position], key[position + 1]).nnz)
            inner = max(1, self._hin.num_nodes(key[position]))
            cost += nnz * hop_nnz / inner
            prefix_observed = self._observed_nnz.get(key[: position + 2])
            if prefix_observed is not None:
                # True intermediate nnz from a prior composition of this
                # prefix — replaces the density-propagation bound, which
                # badly over-estimates on skewed (hub-heavy) graphs.
                nnz = float(prefix_observed)
            else:
                bound = float(
                    self._hin.num_nodes(key[0])
                ) * self._hin.num_nodes(key[position + 1])
                nnz = min(bound, nnz * hop_nnz / inner)
        return nnz, cost

    # -------------------------------------------------------------- #
    # Views of one cached product
    # -------------------------------------------------------------- #

    def counts(
        self,
        metapath: MetaPath,
        remove_self_paths: bool = False,
        max_count: Optional[float] = None,
    ) -> sp.csr_matrix:
        """Commuting (path-instance count) matrix, cached per variant."""
        self._validate(metapath)
        key = tuple(metapath.node_types)
        self_paths = remove_self_paths and metapath.source_type == metapath.target_type
        if max_count is None and not self_paths:
            # The raw variant IS the product — serving it directly keeps
            # the budget accounting alias-free (one entry owns the bytes).
            return self._product(key)

        def build() -> sp.csr_matrix:
            matrix = self._product(key)
            if max_count is not None:
                matrix = matrix.copy()
                matrix.data = np.minimum(matrix.data, max_count)
            if self_paths:
                matrix = drop_diagonal(matrix)
                matrix.eliminate_zeros()
            return matrix

        return self._view(
            ("counts", key, bool(remove_self_paths), max_count), build
        )

    def diagonal(self, metapath: MetaPath) -> np.ndarray:
        """Self-path counts ``M[u, u]`` from the cached raw product."""
        self._sync()
        key = ("diagonal", tuple(metapath.node_types))
        return self._view(key, lambda: self.counts(metapath).diagonal())

    def binary(self, metapath: MetaPath) -> sp.csr_matrix:
        """Binary (reachability) projection with the diagonal removed."""
        self._sync()
        key = ("binary", tuple(metapath.node_types))

        def build() -> sp.csr_matrix:
            binary = self.counts(metapath, remove_self_paths=True).copy()
            binary.data[:] = 1.0
            return binary

        return self._view(key, build)

    def half(self, metapath: MetaPath) -> sp.csr_matrix:
        """Half-path product (endpoint type → middle type)."""
        self._require_symmetric(metapath, "half_commuting_matrix")
        self._require_middle_type(metapath, "half_commuting_matrix")
        types = metapath.node_types
        return self.product(types[: len(types) // 2 + 1])

    def _pair_lookup_keys(self, metapath: MetaPath) -> np.ndarray:
        """Cached flattened entry keys of the raw counts matrix."""
        self._sync()
        key = ("pair_keys", tuple(metapath.node_types))
        return self._view(key, lambda: csr_pair_keys(self.counts(metapath)))

    # -------------------------------------------------------------- #
    # Suffix (reverse-chain) views — pruning masks for the context
    # kernel
    # -------------------------------------------------------------- #

    def suffix_products(self, metapath: MetaPath) -> List[sp.csr_matrix]:
        """Cached suffix chain products ``position → target endpoint``.

        Entry ``j`` is the product of hops ``j..L-2`` of the meta-path,
        i.e. the matrix whose ``(x, v)`` entry counts path completions
        from a node ``x`` at meta-path position ``j`` to a target-type
        node ``v``.  Entry 0 is the full commuting matrix and entry
        ``L-2`` is the last hop's biadjacency.  The batched frontier
        kernel (:mod:`repro.hin.context`) uses these as backward
        reachability masks: a partial path whose head has a zero suffix
        entry for its pair's target can never complete and is pruned
        before expansion.

        Suffix sub-products are shared through the same memo as every
        other chain (the right-association split candidate composes
        ``(T1, T2) @ (T2..Tl+1)``, so ``suffix[j]`` reuses
        ``suffix[j+1]`` when that association wins).  Each suffix is an
        individually cached product, so all of them participate in the
        LRU memory budget; :meth:`suffix_product` serves one position
        lazily without materializing the deeper ones.
        """
        return [
            self.suffix_product(metapath, position)
            for position in range(len(metapath.node_types) - 1)
        ]

    def suffix_product(self, metapath: MetaPath, position: int) -> sp.csr_matrix:
        """One suffix chain product ``position → target endpoint``."""
        self._validate(metapath)
        types = tuple(metapath.node_types)
        if not 0 <= position < len(types) - 1:
            raise IndexError(
                f"suffix position {position} out of range for {metapath.name!r}"
            )
        return self._product(types[position:])

    def suffix_pair_keys(self, metapath: MetaPath, position: int) -> np.ndarray:
        """Cached ``csr_pair_keys`` of one suffix product (kernel lookups)."""
        self._sync()
        key = ("suffix_keys", tuple(metapath.node_types), int(position))
        return self._view(
            key, lambda: csr_pair_keys(self.suffix_product(metapath, position))
        )

    def pair_counts(self, metapath: MetaPath, pairs: np.ndarray) -> np.ndarray:
        """Exact path-instance counts for explicit ``(u, v)`` pairs.

        One ``searchsorted`` against the cached commuting matrix — the
        vectorized form of :func:`repro.hin.context.count_instances`.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs must have shape (m, 2), got {pairs.shape}")
        counts = self.counts(metapath)
        return csr_pair_values(
            counts,
            pairs[:, 0],
            pairs[:, 1],
            keys=self._pair_lookup_keys(metapath),
        )

    # -------------------------------------------------------------- #
    # Similarity measures
    # -------------------------------------------------------------- #

    @staticmethod
    def _require_symmetric(metapath: MetaPath, measure: str) -> None:
        if not metapath.is_symmetric():
            raise ValueError(
                f"{measure} requires a symmetric meta-path, got {metapath.name!r}"
            )

    @staticmethod
    def _require_middle_type(metapath: MetaPath, measure: str) -> None:
        if len(metapath.node_types) % 2 == 0:
            raise ValueError(
                f"{measure} needs a middle node type; meta-path "
                f"{metapath.name!r} has an even number of types "
                f"(decompose the middle relation first)"
            )

    def similarity(self, metapath: MetaPath, measure: str) -> sp.csr_matrix:
        """Cached similarity matrix under one of :data:`MEASURES`."""
        self._sync()
        if measure not in MEASURES:
            raise ValueError(
                f"unknown similarity measure {measure!r}; known: {MEASURES}"
            )
        key = ("similarity", measure, tuple(metapath.node_types))
        return self._view(key, lambda: getattr(self, f"_{measure}")(metapath))

    @staticmethod
    def _row_local_pair_scores(
        data: np.ndarray,
        diag_u: np.ndarray,
        diag_v: np.ndarray,
        measure: str,
    ) -> np.ndarray:
        """Elementwise row-local scores; invalid denominators score -inf.

        Same arithmetic as the matrix builders, applied to parallel
        entry arrays; ``-inf`` marks entries absent from the similarity
        matrix (zero denominator), which can never reach a top-k list.
        """
        if measure == "pathsim":
            denom = diag_u + diag_v
        else:  # joinsim
            denom = np.sqrt(diag_u * diag_v)
        out = np.full(data.shape, -np.inf)
        valid = denom > 0
        if measure == "pathsim":
            out[valid] = 2.0 * data[valid] / denom[valid]
        else:
            out[valid] = np.clip(data[valid] / denom[valid], 0.0, 1.0)
        return out

    def _topk_affected_rows(
        self,
        counts: sp.csr_matrix,
        lists: List[np.ndarray],
        dirty: np.ndarray,
        changed: np.ndarray,
        old_diag: np.ndarray,
        new_diag: np.ndarray,
        measure: str,
        k: int,
    ) -> np.ndarray:
        """Clean rows whose cached top-k can differ after a diagonal shift.

        A clean row's entries and own diagonal are unchanged, so only
        its scores against columns in ``changed`` moved.  The cached
        list survives unless a moved score belongs to a *listed*
        neighbor, or now ties/beats the row's k-th listed score (ties
        matter: :func:`csr_row_topk` breaks them toward the lower column
        id, so an equal score can displace).  Both conditions are decided
        from the two diagonals and the unchanged row data — no row is
        rescored unless this proves it necessary.
        """
        empty = np.empty(0, dtype=np.int64)
        if changed.size == 0:
            return empty
        sub = sp.coo_matrix(counts[changed])
        u = sub.col.astype(np.int64)
        v = changed[sub.row]
        data = sub.data
        clean = ~np.isin(u, dirty)
        u, v, data = u[clean], v[clean], data[clean]
        if u.size == 0:
            return empty
        s_old = self._row_local_pair_scores(
            data, old_diag[u], old_diag[v], measure
        )
        s_new = self._row_local_pair_scores(
            data, new_diag[u], new_diag[v], measure
        )
        moved = s_old != s_new
        u, v, s_new = u[moved], v[moved], s_new[moved]
        if u.size == 0:
            return empty
        rows = np.unique(u)
        width = np.int64(counts.shape[1])
        lens = np.fromiter(
            (len(lists[row]) for row in rows), np.int64, count=rows.size
        )
        if int(lens.sum()):
            listed_u = np.repeat(rows, lens)
            listed_w = np.concatenate(
                [np.asarray(lists[row], dtype=np.int64) for row in rows]
            )
            listed_keys = np.sort(listed_u * width + listed_w)
        else:
            listed_keys = empty
        hit = np.isin(u * width + v, listed_keys)
        # Lists come out of csr_row_topk in rank order, so the k-th
        # (boundary) score is the last listed neighbor's — one pair
        # lookup per full row, under the *old* diagonals (rows without a
        # listed moved neighbor kept their boundary score bit-exact).
        kth = np.full(rows.size, -np.inf)
        full = lens >= k
        if full.any():
            last_w = np.fromiter(
                (lists[row][-1] for row in rows[full]),
                np.int64,
                count=int(full.sum()),
            )
            numer = csr_pair_values(counts, rows[full], last_w)
            kth[full] = self._row_local_pair_scores(
                numer, old_diag[rows[full]], old_diag[last_w], measure
            )
        row_pos = np.searchsorted(rows, u)
        enter = s_new >= kth[row_pos]
        return rows[np.unique(row_pos[hit | enter])]

    @staticmethod
    def _row_local_scores(
        counts_rows: sp.csr_matrix,
        rows: np.ndarray,
        diag: np.ndarray,
        measure: str,
    ) -> sp.csr_matrix:
        """Similarity scores for a row slice under a row-local measure.

        ``counts_rows`` is ``counts[rows]``; the result has shape
        ``(len(rows), n)``.  The arithmetic is the same elementwise
        expression as the full-matrix :meth:`_pathsim` / :meth:`_joinsim`
        builders, so each returned row is bit-identical to the matching
        row of the full similarity matrix.
        """
        coo = counts_rows.tocoo()
        local, col, data = coo.row, coo.col, coo.data
        source = rows[local]
        off_diag = source != col
        local, col, data = local[off_diag], col[off_diag], data[off_diag]
        source = source[off_diag]
        if measure == "pathsim":
            denom = diag[source] + diag[col]
        else:  # joinsim
            denom = np.sqrt(diag[source] * diag[col])
        valid = denom > 0
        local, col, data, denom = (
            local[valid], col[valid], data[valid], denom[valid]
        )
        if measure == "pathsim":
            scores = 2.0 * data / denom
        else:
            scores = np.clip(data / denom, 0.0, 1.0)
        return sp.csr_matrix(
            (scores, (local, col)), shape=(rows.size, diag.shape[0])
        )

    def _pathsim(self, metapath: MetaPath) -> sp.csr_matrix:
        """PathSim (Eq. 1): counts and diagonal from ONE cached product."""
        self._require_symmetric(metapath, "PathSim")
        counts = self.counts(metapath).tocoo()
        diag = self.diagonal(metapath)
        row, col, data = counts.row, counts.col, counts.data
        off_diag = row != col
        row, col, data = row[off_diag], col[off_diag], data[off_diag]
        denom = diag[row] + diag[col]
        valid = denom > 0
        row, col, data, denom = row[valid], col[valid], data[valid], denom[valid]
        scores = 2.0 * data / denom
        n = counts.shape[0]
        return sp.csr_matrix((scores, (row, col)), shape=(n, n))

    def _joinsim(self, metapath: MetaPath) -> sp.csr_matrix:
        """JoinSim: geometric-mean denominator, same single product."""
        self._require_symmetric(metapath, "JoinSim")
        counts = self.counts(metapath).tocoo()
        diag = self.diagonal(metapath)
        row, col, data = counts.row, counts.col, counts.data
        off_diag = row != col
        row, col, data = row[off_diag], col[off_diag], data[off_diag]
        denom = np.sqrt(diag[row] * diag[col])
        valid = denom > 0
        row, col, data, denom = row[valid], col[valid], data[valid], denom[valid]
        scores = np.clip(data / denom, 0.0, 1.0)
        n = counts.shape[0]
        return sp.csr_matrix((scores, (row, col)), shape=(n, n))

    def _hetesim(self, metapath: MetaPath) -> sp.csr_matrix:
        """HeteSim: cosine of half-path reachability distributions."""
        self._require_symmetric(metapath, "HeteSim")
        self._require_middle_type(metapath, "HeteSim")
        chain = self.chain(metapath)
        half = chain[: len(chain) // 2]
        reach: sp.csr_matrix = _row_normalize(half[0])
        for matrix in half[1:]:
            reach = sp.csr_matrix(reach @ _row_normalize(matrix))
        unit = _l2_normalize_rows(reach)
        scores = sp.csr_matrix(unit @ unit.T)
        scores.data = np.clip(scores.data, 0.0, 1.0)
        return drop_diagonal(scores)

    def _cosine(self, metapath: MetaPath) -> sp.csr_matrix:
        """Cosine of commuting-matrix rows (structural equivalence)."""
        self._require_symmetric(metapath, "cosine")
        unit = _l2_normalize_rows(self.counts(metapath))
        scores = sp.csr_matrix(unit @ unit.T)
        scores.data = np.clip(scores.data, 0.0, 1.0)
        return drop_diagonal(scores)

    # -------------------------------------------------------------- #
    # Bulk operations over cached matrices
    # -------------------------------------------------------------- #

    def top_k(
        self, metapath: MetaPath, k: int, measure: str = "pathsim"
    ) -> List[np.ndarray]:
        """Per-node top-``k`` neighbor ids under a similarity measure.

        Returns fresh arrays the caller owns (unlike the shared matrix
        views): neighbor lists are small and callers historically mutate
        them (sampling, set ops), which must not corrupt the cache.
        """
        self._sync()
        key = ("top_k", measure, tuple(metapath.node_types), int(k))
        lists = self._view(
            key, lambda: csr_row_topk(self.similarity(metapath, measure), k)
        )
        return [neighbors.copy() for neighbors in lists]

    def pathsim_pairs(self, metapath: MetaPath, pairs: np.ndarray) -> np.ndarray:
        """PathSim for explicit ``(u, v)`` pairs without a full matrix.

        Looks the ``m`` numerators up by ``searchsorted`` against the
        cached counts matrix and reads denominators off the cached
        diagonal — nothing n×n is built beyond the (already cached)
        commuting matrix itself.
        """
        self._require_symmetric(metapath, "PathSim")
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs must have shape (m, 2), got {pairs.shape}")
        counts = self.counts(metapath)
        u, v = pairs[:, 0], pairs[:, 1]
        numerators = csr_pair_values(
            counts, u, v, keys=self._pair_lookup_keys(metapath)
        )
        diag = self.diagonal(metapath)
        denominators = diag[u] + diag[v]
        scores = np.zeros(pairs.shape[0], dtype=np.float64)
        off_diag = u != v
        valid = off_diag & (denominators > 0)
        scores[valid] = 2.0 * numerators[valid] / denominators[valid]
        return scores

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #

    def stats(self) -> Dict[str, int]:
        """Cache telemetry for the current generation.

        - ``composed_products`` — chain multiplications actually run;
        - ``patched_products`` / ``patched_rows`` — row-scoped delta
          patches applied this generation, and the total rows respliced
          (a patched product is *not* a recomposition);
        - ``patched_views`` — derived top-k neighbor views respliced
          per-row on ingest instead of dropped;
        - ``cached_products`` / ``cached_views`` / ``cached_base`` —
          entry counts currently resident;
        - ``hits`` / ``misses`` — LRU lookups across products and views;
        - ``evictions`` — entries dropped to honor the memory budget;
        - ``spills`` — products written to the disk store;
        - ``disk_hits`` — products loaded from disk instead of composed;
        - ``claim_waits`` — compositions avoided by waiting on another
          worker's claim (concurrent-writer dedupe);
        - ``resident_bytes`` — accounted heap bytes resident in the LRU
          cache (never exceeds ``memory_budget`` when one is set;
          memory-mapped entries count ~0 here);
        - ``mapped_products`` / ``mapped_bytes`` — products currently
          served zero-copy from the store's mmap tier, and the bytes
          they would cost if they were heap-resident (they live in the
          OS page cache instead, shared across co-located workers).

        The cache-derived fields come from one
        :meth:`LRUByteCache.snapshot` (a single lock hold), so entry
        counts, counters, and ``resident_bytes`` are mutually
        consistent even while scheduler threads churn the cache; the
        whole dict doubles as this engine's registry collector
        (``repro_engine_*`` in ``GET /metrics``).
        """
        return self._obs.read()

    def _collect_metrics(self) -> Dict[str, int]:
        """Registry collector; :meth:`stats` is a thin view over it."""
        snap = self._cache.snapshot()
        cached_products = 0
        mapped_products = 0
        mapped_bytes = 0
        for key, value in snap["items"]:
            if key[0] != "product":
                continue
            cached_products += 1
            if value is not None and is_mmap_backed(value):
                mapped_products += 1
                mapped_bytes += nbytes_of(value)
        return {
            "composed_products": len(self.compose_log),
            "patched_products": self.patched_products,
            "patched_rows": self.patched_rows,
            "patched_views": self.patched_views,
            "cached_products": cached_products,
            "cached_views": len(snap["items"]) - cached_products,
            "cached_base": len(self._base),
            "hits": snap["hits"],
            "misses": snap["misses"],
            "evictions": snap["evictions"],
            "spills": self.spills,
            "disk_hits": self.disk_hits,
            "claim_waits": self.claim_waits,
            "resident_bytes": snap["resident_bytes"],
            "mapped_products": mapped_products,
            "mapped_bytes": mapped_bytes,
        }


#: Weak-keyed registry: entries (and their engines) die with their HIN.
#: Engines hold only a weak reference back to the graph, so dropping the
#: last user reference to a HIN frees both it and its cached views — the
#: registry never pins pinned-view memory past the graph's lifetime.
_ENGINES: "weakref.WeakKeyDictionary[HIN, CommutingEngine]" = (
    weakref.WeakKeyDictionary()
)


def get_engine(
    hin: HIN,
    memory_budget: Union[Optional[int], object] = _UNSET,
    cache_dir: Union[Optional[str], object] = _UNSET,
) -> CommutingEngine:
    """The shared :class:`CommutingEngine` of a HIN (created on demand).

    Engines live in a weak-keyed registry so every call site touching the
    same graph shares one cache, while dropping the HIN releases the
    engine and everything it pinned; mutation invalidates lazily via the
    HIN's structural version counter.  ``memory_budget`` / ``cache_dir``
    configure the engine when given (creating it if needed, reconfiguring
    the shared instance otherwise); omit them to leave the current
    configuration untouched.
    """
    engine = _ENGINES.get(hin)
    if engine is None:
        engine = CommutingEngine(hin, memory_budget=memory_budget, cache_dir=cache_dir)
        engine._hin_pin = None  # the registry entry must not pin the HIN
        _ENGINES[hin] = engine
    else:
        if memory_budget is not _UNSET:
            engine.set_memory_budget(memory_budget)
        if cache_dir is not _UNSET:
            engine.set_cache_dir(cache_dir)
    return engine


def release_engine(hin: HIN) -> None:
    """Explicitly drop the registry's engine for ``hin`` (if any).

    Usually unnecessary — the registry is weak-keyed, so engines die with
    their HIN — but lets long-lived graphs shed all cached substrate
    state deterministically without waiting for budget-driven eviction.
    """
    _ENGINES.pop(hin, None)
