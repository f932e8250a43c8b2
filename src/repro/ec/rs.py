"""Systematic Reed-Solomon codes over GF(2^8).

This is the algebraic heart of Hydra (§4): every 4 KB page is divided into
``k`` data splits, encoded into ``r`` additional parity splits, and any
``k`` of the ``k + r`` splits reconstruct the page. On top of plain erasure
decoding, the paper's corruption story (§4.3, §5.1) needs two more
operations, both implemented here:

* **detect** — with ``k + d`` splits, verify consistency and detect up to
  ``d`` corrupted splits;
* **correct** — with ``k + 2d + 1`` splits, locate and repair up to ``d``
  corrupted splits (majority decoding over k-subsets).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .galois import MUL_TABLE, gf_inv
from .matrix import SingularMatrixError, gf_mat_inverse, gf_matmul, systematic_generator
from .native import _UINT8, _join, load_kernel
from .plancache import PlanCache

# Process-wide plan caches for default-capacity codes, keyed by (k, r).
# Compiled plans are deterministic in (k, r, pattern), so sharing them
# across codec instances only changes who pays the compile.
_SHARED_PLAN_CACHES: Dict[Tuple[int, int], PlanCache] = {}

__all__ = ["DecodeError", "CorruptionDetected", "ReedSolomonCode"]


class _ExtrasPlan:
    """Precompiled consistency plan for one received-index tuple: the
    first-k inverse stacked over the (d x k) extras transform (one kernel
    call yields the data splits and, under them, the extras a consistent
    set must hold) and the residual ratio tables the pivot-error
    localizer reads — one LRU entry, not parallel dicts on one key."""

    __slots__ = ("stacked", "transform", "_ratios")

    def __init__(self, inverse: np.ndarray, transform: np.ndarray):
        self.stacked = np.concatenate([inverse, transform])
        self.transform = self.stacked[len(inverse) :]
        self._ratios = None

    @property
    def ratios(self):
        """(inv_row0, ratios) with ratios[j-1, c] = T[j, c] ⊗ T[0, c]⁻¹."""
        cached = self._ratios
        if cached is None:
            inv_row0 = np.array(
                [gf_inv(int(t)) for t in self.transform[0]], dtype=np.uint8
            )
            cached = self._ratios = (inv_row0, MUL_TABLE[self.transform[1:], inv_row0])
        return cached


class DecodeError(ValueError):
    """Raised when reconstruction is impossible (too few splits, etc.).

    ``suspect_indices`` lists the split indices implicated by whatever
    evidence the failing operation gathered before giving up — e.g. the
    disagreement sets of tied correction candidates. Empty when the
    failure carries no localization information (too few splits, more
    corruption than the code can pin down).
    """

    def __init__(self, message: str, suspect_indices: Sequence[int] = ()):
        super().__init__(message)
        self.suspect_indices = list(suspect_indices)


class CorruptionDetected(DecodeError):
    """Raised when split consistency checking finds corrupted splits.

    With only ``k + d`` splits the code can prove corruption exists but
    cannot always localize it — in that case ``suspect_indices`` holds
    every received index.
    """


class ReedSolomonCode:
    """A systematic RS(k, r) code with any-k-of-(k+r) reconstruction.

    Parameters
    ----------
    k:
        Number of data splits a page is divided into.
    r:
        Number of parity splits appended.

    Instances are immutable and cheap to share; decode plans are cached
    per received-index tuple (bounded LRU — see :class:`PlanCache`)
    because a Resilience Manager sees the same few combinations over and
    over, while erasure-pattern churn in long chaos soaks must not grow
    the cache without bound.
    """

    def __init__(self, k: int, r: int, plan_cache_capacity: Optional[int] = None):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if r < 0:
            raise ValueError(f"r must be >= 0, got {r}")
        if k + r > 256:
            raise ValueError(f"k + r must be <= 256, got {k + r}")
        self.k = k
        self.r = r
        self.n = k + r
        self._systematic = tuple(range(k))
        self.generator = systematic_generator(k, r)
        # One bounded LRU holds every plan kind (decode matrices, extras
        # plans, rebuild rows), namespaced by kind in one budget. Plans
        # are pure functions of (k, r, pattern), so default-capacity
        # codes share one process-wide cache per (k, r): a 12-machine
        # cluster compiles each decode plan once, not once per RM. An
        # explicit capacity opts out into a private cache.
        if plan_cache_capacity is None:
            cache = _SHARED_PLAN_CACHES.get((k, r))
            if cache is None:
                cache = _SHARED_PLAN_CACHES[(k, r)] = PlanCache()
            self.plan_cache = cache
        else:
            self.plan_cache = PlanCache(plan_cache_capacity)
        # The process-wide GF(2^8) kernel (native or numpy, see
        # :mod:`.native`); every product below goes through it.
        self.kernel = load_kernel()

    # ------------------------------------------------------------------
    # Every per-page product below is one staged kernel call (see
    # :mod:`.native`): ``bytes`` in, a view of the kernel's staging buffer
    # back, copied out exactly once by the public method that returns it.
    def encode(self, data_splits: np.ndarray) -> np.ndarray:
        """Compute the ``r`` parity splits for ``k`` data splits.

        ``data_splits`` is a (k, split_len) uint8 array. Returns an
        (r, split_len) uint8 array. With ``r == 0`` returns an empty array.
        """
        data_splits = self._check_splits(data_splits, expected_rows=self.k)
        return self.kernel.apply(self.generator[self.k :], data_splits.tobytes()).copy()

    def encode_page(self, data_splits: np.ndarray) -> np.ndarray:
        """All ``k + r`` splits (data stacked above parity): the full
        systematic generator in one kernel call, whose unit rows copy the
        data splits."""
        data_splits = self._check_splits(data_splits, expected_rows=self.k)
        return self.kernel.apply(self.generator, data_splits.tobytes()).copy()

    # ------------------------------------------------------------------
    def _gather(
        self, splits: Dict[int, np.ndarray], count: Optional[int] = None
    ) -> Tuple[Tuple[int, ...], List[np.ndarray]]:
        """The received indices in ascending order (exactly the first
        ``count`` when given) and their payloads, validated in one pass:
        each a 1-D uint8 array and all of one length — unequal splits
        whose total happens to be right would otherwise code to garbage."""
        indices = sorted(splits)[:count]
        if count is not None and len(indices) < count:
            raise DecodeError(f"need {count} splits to decode, got {len(indices)}")
        rows = [*map(splits.__getitem__, indices)]
        try:
            n = rows[0].shape[0]
            for row in rows:
                if row.dtype is not _UINT8 or row.ndim != 1 or row.shape[0] != n:
                    break
            else:
                return tuple(indices), rows
        except (AttributeError, IndexError):
            pass  # not an array, or a 0-d one: converted or refused below
        rows = [np.asarray(row, dtype=np.uint8) for row in rows]
        for index, row in zip(indices, rows):
            if row.ndim != 1:
                raise DecodeError(f"each split must be 1-D, got shape {row.shape}")
            if len(row) != len(rows[0]):
                raise DecodeError(f"split {index} holds {len(row)} bytes, not {len(rows[0])}")
        return tuple(indices), rows

    def decode(self, splits: Dict[int, np.ndarray]) -> np.ndarray:
        """Reconstruct the ``k`` data splits from any ``k`` received splits.

        ``splits`` maps split index (0..n-1; indices >= k are parity) to its
        payload. Exactly the first ``k`` received (sorted by index) are used;
        extra entries are ignored — use :meth:`decode_verified` when the
        extras should participate in consistency checking.
        """
        return self._decode_rows(*self._gather(splits, self.k)).copy()

    def _decode_rows(
        self, indices: Tuple[int, ...], payload_rows: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Decode from exactly ``k`` gathered rows at ``indices``: a
        read-only view of the joined rows when they are the data splits
        themselves, of the kernel's staging buffer otherwise."""
        if indices == self._systematic:
            joined = np.frombuffer(_join(payload_rows), dtype=np.uint8)
            return joined.reshape(self.k, payload_rows[0].shape[0])
        return self.kernel.apply_rows(self.decode_matrix(indices), payload_rows)

    def reencode_split(self, data_splits: np.ndarray, index: int) -> np.ndarray:
        """Regenerate the single split ``index`` from the k data splits."""
        data_splits = self._check_splits(data_splits, expected_rows=self.k)
        if not 0 <= index < self.n:
            raise DecodeError(f"split index {index} out of range 0..{self.n - 1}")
        if index < self.k:
            return data_splits[index].copy()
        row = self.kernel.apply(self.generator[index : index + 1], data_splits.tobytes())
        return row[0].copy()

    def consistent_with_decode(
        self, arrivals: Dict[int, object], first_k: Dict[int, object], data_splits
    ) -> bool:
        """True when every real split of ``arrivals`` outside ``first_k``
        lies on the codeword ``data_splits`` was decoded from ``first_k``:
        :meth:`verify`'s verdict on the real splits, whichever k of them
        one takes as the base, for a caller that already holds the decode
        (the Resilience Manager's background check). A data position is a
        row of ``data_splits``, a parity position one re-encoded split."""
        for position, payload in arrivals.items():
            if position in first_k or not isinstance(payload, np.ndarray):
                continue
            if payload.ndim != 1:
                raise DecodeError(f"each split must be 1-D, got shape {payload.shape}")
            if position < self.k:
                expected = data_splits[position]
            else:
                expected = self.reencode_split(data_splits, position)
            if payload.dtype is not _UINT8:
                payload = payload.astype(np.uint8)
            # Equal bytes is equal length and content: a torn split differs.
            if expected.tobytes() != payload.tobytes():
                return False
        return True

    # ------------------------------------------------------------------
    def _reencode_rows(self, indices: Sequence[int], decoded: np.ndarray) -> np.ndarray:
        """Stacked ``reencode_split(decoded, i) for i in indices``: the
        generator's unit rows copy the data splits, parity rows multiply."""
        return gf_matmul(self.generator[list(indices)], decoded)

    def _decode_checked(self, splits: Dict[int, np.ndarray]):
        """The consistency check of :meth:`verify`, :meth:`decode_verified`
        and :meth:`correct`: one gather, one kernel call of the cached
        inverse-over-extras-transform plan on the first ``k`` received
        splits (re-encoding those reproduces them exactly, so only the
        ``d`` extras carry information), one comparison on bytes.

        Returns ``(indices, rows, product, consistent)``; ``product`` is
        the staging view, data splits above the expected extras.
        """
        indices, rows = self._gather(splits)
        k = self.k
        product = self.kernel.apply_rows(self._extras_entry(indices).stacked, rows[:k])
        return indices, rows, product, product[k:].tobytes() == _join(rows[k:])

    def verify(self, splits: Dict[int, np.ndarray]) -> bool:
        """True when all received splits are mutually consistent.

        Requires at least ``k + 1`` splits to say anything beyond trivially
        True; per Table 1, ``k + d`` splits detect up to ``d`` corruptions.
        """
        return len(splits) <= self.k or self._decode_checked(splits)[3]

    def decode_verified(self, splits: Dict[int, np.ndarray]) -> np.ndarray:
        """Decode and verify; raises :class:`CorruptionDetected` on mismatch.

        This is the §5.1 'error detection' read: with ``k + d`` splits the
        caller learns corruption happened and must fetch more splits before
        correction is possible.
        """
        if len(splits) <= self.k:
            return self.decode(splits)
        indices, _rows, product, consistent = self._decode_checked(splits)
        if not consistent:
            raise CorruptionDetected(
                f"inconsistent splits detected (indices {list(indices)})",
                suspect_indices=list(indices),
            )
        return product[: self.k].copy()

    def correct(
        self,
        splits: Dict[int, np.ndarray],
        max_errors: Optional[int] = None,
        best_effort: bool = False,
    ) -> Tuple[np.ndarray, List[int]]:
        """Locate and correct up to ``max_errors`` corrupted splits.

        Per Table 1, correcting ``d`` errors *with a guarantee* requires
        ``k + 2d + 1`` received splits. The contract is majority decoding:
        a candidate codeword is accepted when it is consistent with at
        least ``len(splits) - max_errors`` received splits — a threshold
        only the true codeword can reach when at most ``max_errors``
        splits are corrupted.

        With ``best_effort=True`` the split-count precondition is relaxed:
        the method returns the *unique* candidate codeword with maximal
        agreement, provided that agreement covers at least ``k + 1``
        splits. This localizes (say) one corruption from ``k + 2`` splits
        with overwhelming probability for random corruption, but is not an
        information-theoretic guarantee — exactly the distinction §5.1
        draws.

        Returns ``(data_splits, corrupted_indices)``.

        Residual-guided (:meth:`_correct_guided`, O(d) decodings for the
        patterns the §5.1 read path sees); whatever that cannot settle
        falls back to :meth:`correct_reference`, so results, errors and
        localization lists are byte-identical to the scan by construction.
        """
        max_errors, guaranteed, accept_at = self._correction_mode(
            len(splits), max_errors, best_effort
        )
        indices, rows, product, consistent = self._decode_checked(splits)
        if consistent:
            # Agrees with all m splits: the strongest majority in either mode.
            return product[: self.k].copy(), []
        result = self._correct_guided(indices, rows, product, max_errors, accept_at)
        if result is not None:
            return result
        return self._correct_scan(list(indices), rows, max_errors, guaranteed, best_effort)

    def _correction_mode(
        self, m: int, max_errors: Optional[int], best_effort: bool
    ) -> Tuple[int, bool, int]:
        """The Table 1 precondition for correcting from ``m`` splits.

        Returns ``(max_errors, guaranteed, accept_at)``: the defaulted
        error budget, whether ``m`` reaches the ``k + 2d + 1`` guarantee,
        and the smallest agreement (splits out of ``m`` a candidate
        codeword matches) at which the residual-guided decoders may accept
        a candidate as provably the exhaustive scan's answer. In
        guaranteed mode that is ``m - max_errors`` (two codewords at that
        threshold would share ``m - 2·max_errors >= k + 1`` splits and be
        equal); in best-effort mode ``a >= k + 1`` and ``2a - m >= k``
        (any rival with agreement ``>= a`` shares ``>= 2a - m >= k``
        splits with the candidate, hence equals it — so it is the unique
        maximum the reference ranking returns). Either suffices, so the
        bar is the lower of the two.
        """
        k = self.k
        if max_errors is None:
            max_errors = max(0, (m - k - 1) // 2)
        needed = k + 2 * max_errors + 1
        guaranteed = m >= needed
        if not guaranteed and not best_effort:
            raise DecodeError(
                f"correcting {max_errors} errors needs {needed} splits, got {m}"
            )
        if m < k + 1:
            raise DecodeError(
                f"localization needs at least k + 1 = {k + 1} splits, got {m}"
            )
        bars = []
        if guaranteed:
            bars.append(m - max_errors)
        if best_effort:
            bars.append(max(k + 1, (m + k + 1) // 2))
        return max_errors, guaranteed, min(bars)

    def correct_reference(
        self,
        splits: Dict[int, np.ndarray],
        max_errors: Optional[int] = None,
        best_effort: bool = False,
    ) -> Tuple[np.ndarray, List[int]]:
        """The exhaustive C(m, k) majority decoder :meth:`correct` replaces.

        Same contract, same results, same errors — this is both the
        fallback for inputs the guided path cannot settle and the oracle
        the property tests pin the fast path against byte for byte.
        """
        max_errors, guaranteed, _ = self._correction_mode(
            len(splits), max_errors, best_effort
        )
        indices, rows = self._gather(splits)
        return self._correct_scan(list(indices), rows, max_errors, guaranteed, best_effort)

    def _correct_guided(
        self,
        indices: Tuple[int, ...],
        payload_rows: List[np.ndarray],
        product: np.ndarray,
        max_errors: int,
        accept_at: int,
    ) -> Optional[Tuple[np.ndarray, List[int]]]:
        """Residual-guided localization; ``None`` defers to the scan.

        ``product`` is :meth:`_decode_checked`'s: the decoding of the pivot
        (first ``k`` received) subset over the extras that decoding
        expects. The residual — expected XOR received extras, not all zero
        here — localizes the error without searching:

        * exactly one nonzero residual row — that extra split alone is
          corrupt (the pivot decoding agrees with everything else).
        * every residual row nonzero — consistent with one corrupt pivot
          column ``c``: then residual row ``j`` must equal
          ``T[j, c] ⊗ e`` for a single error vector ``e``, checkable per
          column with a scalar prefilter at the first nonzero byte. (Every
          ``T[j, c]`` is nonzero — a zero entry would make generator rows
          ``pivot∖{c} ∪ {extra_j}`` dependent, contradicting the Cauchy
          MDS property — so a real single-pivot error marks *all* rows.)
        * anything else — at least two corruptions; try swapping one pivot
          row for each of the first ``max_errors`` non-pivot rows (if one
          pivot row is corrupt, at most ``max_errors - 1`` extras are, so
          one of those replacements is clean) before giving up.

        A candidate with agreement ``a`` (out of ``m``) is accepted only
        when ``a >= accept_at``, the bar :meth:`_correction_mode` proves
        makes it the scan's answer. Anything weaker returns ``None`` and
        the exhaustive scan decides, including raising the classified
        errors.
        """
        k = self.k
        m = len(indices)
        extras_count = m - k
        if m - 1 < accept_at:
            # No single-error candidate can be accepted (agreement is at
            # most m - 1 once any residual row is nonzero), and multi-error
            # candidates are weaker still.
            return None
        # Both owned before another kernel call reuses the staging buffer.
        decoded = product[:k].copy()
        received = np.frombuffer(_join(payload_rows[k:]), dtype=np.uint8)
        residual = product[k:] ^ received.reshape(extras_count, product.shape[1])
        bad_rows = np.nonzero(residual.any(axis=1))[0]

        if len(bad_rows) == 1 and extras_count >= 2:
            # One corrupt extra; the pivot decoding disagrees only with it.
            return decoded, [indices[k + int(bad_rows[0])]]

        if len(bad_rows) == extras_count and extras_count >= 2:
            located = self._locate_pivot_error(indices, residual)
            if located is not None:
                column, error = located
                rows = payload_rows[:k]
                rows[column] = rows[column] ^ error
                return self._decode_rows(indices[:k], rows).copy(), [indices[column]]

        if max_errors >= 2:
            return self._correct_by_swap(
                list(indices), payload_rows, max_errors, accept_at
            )
        return None

    def _locate_pivot_error(
        self, indices: Tuple[int, ...], residual: np.ndarray
    ) -> Optional[Tuple[int, np.ndarray]]:
        """Find the unique (column, error) explaining an all-rows residual.

        For a corrupt pivot column ``c`` with error ``e``, residual row
        ``j`` is ``T[j, c] ⊗ e``, i.e. row ``j`` is row 0 scaled by the
        cached ratio ``T[j, c] ⊗ T[0, c]⁻¹``. Prefilter: at the first
        nonzero byte of row 0, one vectorized gather checks which columns
        predict every other row's byte; survivors (generically exactly
        one) get the full vector check. Returns ``None`` when no column
        explains the rows (>= 2 corruptions) or more than one does
        (ambiguous — impossible for m >= k + 2, but guarded anyway).
        """
        entry = self._extras_entry(indices)
        transform = entry.transform
        inv_row0, ratios = entry.ratios
        extras_count = residual.shape[0]
        row0 = residual[0]
        p0 = int(np.flatnonzero(row0)[0])
        predicted = MUL_TABLE[ratios, row0[p0]]
        survivors = np.nonzero(
            (predicted == residual[1:, p0, None]).all(axis=0)
        )[0]
        located = None
        for column in survivors:
            column = int(column)
            error = MUL_TABLE[inv_row0[column]].take(row0)
            if all(
                MUL_TABLE[transform[j, column]].take(error).tobytes()
                == residual[j].tobytes()
                for j in range(1, extras_count)
            ):
                if located is not None:  # pragma: no cover - see docstring
                    return None
                located = (column, error)
        return located

    def _correct_by_swap(
        self,
        idx_list: List[int],
        payload_rows: List[np.ndarray],
        max_errors: int,
        accept_at: int,
    ) -> Optional[Tuple[np.ndarray, List[int]]]:
        """Try pivot subsets with one row swapped for an early extra.

        Covers multi-error patterns with exactly one corruption inside the
        pivot: at most ``max_errors - 1`` extras are then corrupt, so among
        the first ``max_errors`` non-pivot rows at least one replacement is
        clean. Deeper contamination returns ``None`` (scan fallback).
        """
        k = self.k
        m = len(idx_list)
        stacked = np.frombuffer(_join(payload_rows), dtype=np.uint8).reshape(m, -1)
        by_index = dict(zip(idx_list, payload_rows))
        for replacement in idx_list[k : k + max_errors]:
            for drop in range(k):
                subset = tuple(idx_list[:drop] + idx_list[drop + 1 : k] + [replacement])
                try:
                    candidate = self._decode_rows(
                        subset, [by_index[i] for i in subset]
                    ).copy()
                except SingularMatrixError:  # pragma: no cover - Cauchy prevents this
                    continue
                expected = self._reencode_rows(idx_list, candidate)
                bad_rows = np.nonzero((expected != stacked).any(axis=1))[0]
                if m - len(bad_rows) >= accept_at:
                    return candidate, [idx_list[int(row)] for row in bad_rows]
        return None

    def _correct_scan(
        self,
        idx_list: List[int],
        payload_rows: List[np.ndarray],
        max_errors: int,
        guaranteed: bool,
        best_effort: bool,
    ) -> Tuple[np.ndarray, List[int]]:
        """Exhaustive majority decode over every k-subset (the fallback)."""
        m = len(idx_list)
        agreement_threshold = m - max_errors if guaranteed else m
        by_index = dict(zip(idx_list, payload_rows))
        stacked = np.stack(payload_rows)

        # Distinct candidate codewords, keyed by content, with the set of
        # splits each disagrees with.
        candidates: Dict[bytes, Tuple[np.ndarray, List[int]]] = {}
        for subset in combinations(idx_list, self.k):
            try:
                candidate = self._decode_rows(subset, [by_index[i] for i in subset]).copy()
            except SingularMatrixError:  # pragma: no cover - Cauchy prevents this
                continue
            key = candidate.tobytes()
            if key in candidates:
                continue
            expected = self._reencode_rows(idx_list, candidate)
            bad_rows = np.nonzero((expected != stacked).any(axis=1))[0]
            corrupted = [idx_list[int(row)] for row in bad_rows]
            if guaranteed and m - len(corrupted) >= agreement_threshold:
                return candidate, corrupted
            candidates[key] = (candidate, corrupted)

        if best_effort and candidates:
            ranked = sorted(candidates.values(), key=lambda cc: len(cc[1]))
            best, best_bad = ranked[0]
            best_agreement = m - len(best_bad)
            unique = len(ranked) == 1 or len(ranked[1][1]) > len(best_bad)
            if unique and best_agreement >= self.k + 1:
                return best, best_bad
            if not unique:
                tied = [bad for _, bad in ranked if len(bad) == len(best_bad)]
                raise DecodeError(
                    f"ambiguous correction: {len(tied)} candidate codewords tie "
                    f"at {best_agreement} of {m} agreeing splits",
                    suspect_indices=sorted({i for bad in tied for i in bad}),
                )
            raise DecodeError(
                f"insufficient agreement: best candidate matches only "
                f"{best_agreement} of {m} splits (localization needs "
                f"k + 1 = {self.k + 1})",
                suspect_indices=best_bad,
            )
        raise DecodeError(
            f"more than {max_errors} corrupted splits among {m} received; "
            "correction impossible"
        )

    # ------------------------------------------------------------------
    @property
    def storage_overhead(self) -> float:
        """Memory overhead factor 1 + r/k (Table 1, failure row)."""
        return 1.0 + self.r / self.k

    def __repr__(self) -> str:
        return f"ReedSolomonCode(k={self.k}, r={self.r})"

    # ------------------------------------------------------------------
    def decode_matrix(self, indices: Sequence[int]) -> np.ndarray:
        """The cached k x k inverse of generator rows ``indices``.

        Multiplying this by the stacked payloads received at those indices
        reconstructs the k data splits; the batch codec uses it to decode
        many pages that arrived with the same index combination in one
        matmul.
        """
        key = ("decode", tuple(indices))
        matrix = self.plan_cache.get(key)
        if matrix is None:
            matrix = self.plan_cache.put(
                key, gf_mat_inverse(self.generator[list(indices)])
            )
        return matrix

    def rebuild_row(
        self, source_positions: Sequence[int], target_position: int
    ) -> np.ndarray:
        """Cached 1 x k transform regenerating ``target_position``.

        ``rebuild_row(S, t) @ stacked_payloads(S)`` equals split ``t``;
        this is the slab-regeneration kernel (§4.2). Cached per
        (sources, target) pair because the Resource Monitor rebuilds a
        whole slab's pages through the same few combinations.
        """
        key = ("rebuild", tuple(source_positions), target_position)
        cached = self.plan_cache.get(key)
        if cached is None:
            if len(key[1]) != self.k:
                raise DecodeError(
                    f"rebuild needs exactly {self.k} source positions, got {len(key[1])}"
                )
            if not 0 <= target_position < self.n:
                raise DecodeError(
                    f"target position {target_position} out of range 0..{self.n - 1}"
                )
            cached = self.plan_cache.put(
                key,
                gf_matmul(
                    self.generator[target_position : target_position + 1],
                    self.decode_matrix(key[1]),
                ),
            )
        return cached

    # -- internals -------------------------------------------------------
    def _extras_entry(self, indices: Tuple[int, ...]) -> _ExtrasPlan:
        """Cached consistency plan: the first-k inverse over the (d x k)
        map from the first-k received splits to the expected remaining
        ``d``, plus its residual-ratio tables."""
        key = ("extras", indices)
        entry = self.plan_cache.get(key)
        if entry is None:
            inverse = self.decode_matrix(indices[: self.k])
            transform = gf_matmul(self.generator[list(indices[self.k :])], inverse)
            entry = self.plan_cache.put(key, _ExtrasPlan(inverse, transform))
        return entry

    def _check_splits(self, splits: np.ndarray, expected_rows: int) -> np.ndarray:
        splits = np.asarray(splits, dtype=np.uint8)
        if splits.ndim != 2:
            raise DecodeError(f"splits must be 2-D (rows, bytes), got {splits.shape}")
        if splits.shape[0] != expected_rows:
            raise DecodeError(
                f"expected {expected_rows} splits, got {splits.shape[0]}"
            )
        return splits
