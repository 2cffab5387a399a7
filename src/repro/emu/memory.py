"""Functional memory spaces for the emulator.

Global memory is a sparse, word-addressed (4B words) space backed by numpy
pages.  Uninitialized words read as a deterministic hash of their address,
so data-dependent workloads behave reproducibly without explicit
initialization.  Shared and local memories are small dense arrays.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Words per page of the sparse global memory.
PAGE_WORDS = 4096

#: Words per 32-byte L1D sector (the coalescing granule).
SECTOR_WORDS = 8

_HASH_MULT = np.int64(np.uint64(0x9E3779B97F4A7C15))
_VALUE_MASK = np.int64(0x7FFFFFFF)


def default_fill(addresses: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-random contents for untouched global words."""
    mixed = addresses.astype(np.int64) * _HASH_MULT
    return np.bitwise_and(mixed ^ (mixed >> np.int64(31)), _VALUE_MASK)


class GlobalMemory:
    """Sparse word-addressed global memory shared by all blocks."""

    def __init__(self) -> None:
        self._pages: Dict[int, np.ndarray] = {}

    def _page(self, page_id: int) -> np.ndarray:
        page = self._pages.get(page_id)
        if page is None:
            base = np.arange(
                page_id * PAGE_WORDS, (page_id + 1) * PAGE_WORDS, dtype=np.int64
            )
            page = default_fill(base)
            self._pages[page_id] = page
        return page

    def load(self, addresses: np.ndarray) -> np.ndarray:
        """Gather words at *addresses* (int64 array, non-negative)."""
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError("negative global address")
        out = np.empty(addresses.shape, dtype=np.int64)
        pages = addresses // PAGE_WORDS
        for page_id in np.unique(pages):
            mask = pages == page_id
            offsets = addresses[mask] - page_id * PAGE_WORDS
            out[mask] = self._page(int(page_id))[offsets]
        return out

    def store(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Scatter *values* to *addresses*."""
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError("negative global address")
        pages = addresses // PAGE_WORDS
        for page_id in np.unique(pages):
            mask = pages == page_id
            offsets = addresses[mask] - page_id * PAGE_WORDS
            self._page(int(page_id))[offsets] = values[mask]

    def equal_state(self, other: "GlobalMemory") -> bool:
        """Architectural equality: every word reads the same in both.

        A page materialized by reads alone still holds the deterministic
        default fill, so presence in ``_pages`` is not state — each page
        in either memory is compared against the other's page *contents*
        (materializing the default where absent).
        """
        for page_id in set(self._pages) | set(other._pages):
            if not np.array_equal(self._page(page_id), other._page(page_id)):
                return False
        return True

    def touched_pages(self) -> int:
        """Number of materialized pages (differential-test diagnostics)."""
        return len(self._pages)

    def write_array(self, base: int, values: np.ndarray) -> None:
        """Convenience: write a dense array starting at word *base*."""
        addresses = np.arange(base, base + values.size, dtype=np.int64)
        self.store(addresses, values.astype(np.int64))

    def read_array(self, base: int, count: int) -> np.ndarray:
        """Convenience: read *count* words starting at word *base*."""
        addresses = np.arange(base, base + count, dtype=np.int64)
        return self.load(addresses)


class SharedMemory:
    """Per-block shared memory (word-addressed, wraps within its size)."""

    def __init__(self, size_bytes: int) -> None:
        words = max(1, size_bytes // 4)
        self._words = words
        self._data = np.zeros(words, dtype=np.int64)

    def load(self, addresses: np.ndarray) -> np.ndarray:
        return self._data[np.mod(addresses, self._words)]

    def store(self, addresses: np.ndarray, values: np.ndarray) -> None:
        self._data[np.mod(addresses, self._words)] = values


class LocalMemory:
    """Per-warp local scratch for genuine (non-spill) LDL/STL accesses.

    Each lane has its own copy of every offset (local memory is
    thread-private and interleaved on real hardware).
    """

    def __init__(self, words: int = 1024, lanes: int = 32) -> None:
        self._words = words
        self._data = np.zeros((words, lanes), dtype=np.int64)

    def load(self, offset: int) -> np.ndarray:
        return self._data[offset % self._words].copy()

    def store(self, offset: int, values: np.ndarray, mask: np.ndarray) -> None:
        row = self._data[offset % self._words]
        row[mask] = values[mask]


def coalesce_sectors(word_addresses: np.ndarray) -> tuple:
    """Coalesce active-lane word addresses into unique 32B sector ids."""
    if word_addresses.size == 0:
        return ()
    return tuple(np.unique(word_addresses // SECTOR_WORDS).tolist())
