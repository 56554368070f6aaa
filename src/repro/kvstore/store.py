"""The per-replica KV store: match / install / commit / release.

``KVStore`` glues the radix index to the serving path.  One store per
replica holds sealed :class:`~repro.kvstore.arena.Page` objects and the
:class:`~repro.kvstore.radix.RadixIndex` over them; ``chunked_prefill``
consults it before computing anything:

1. ``match(prompt)`` — pin (refcount) the longest cached whole-page
   prefix and return a :class:`PageLease`.  The match is capped at
   ``len(prompt) - 1`` tokens so at least the final prompt token is
   always recomputed — the prefill must still produce last-token
   logits.
2. ``install(lease, caches)`` — write the pinned pages into freshly
   allocated caches, setting ``cache.length`` so the model's position
   arithmetic resumes at the cached offset.  Pages whose layout key
   matches the cache's are concatenated and written as one slice per
   layer; any other layout converts through global arrays (the
   Section 4.4 host-mediated transfer, counted as ``pages_converted``).
3. compute only the uncached suffix (the caller's loop);
4. ``commit(prompt, caches)`` — seal every *new* whole page of the
   finished prefill into the index (shared prefixes dedup), then evict
   LRU unpinned pages if over capacity.
5. ``release(lease)`` — unpin, once the decode slot retires.

Pages hold the KV in the committing cache's page layout (on the
stacked backend, the layout its buffer holds: unsharded mesh axes at
size 1, the bytes of the global form without the trip through it), so
a hit is bit-identical to the recompute path on every backend within a
mesh shape, and last-ulp close across shapes — asserted by the
differential tests.
``invalidate`` mirrors the step compiler: restarts and replans drop
the index (an epoch bump); leases taken before the bump release as
no-ops (``stale_releases``).  ``adopt`` registers another store's pages
by reference (the pooled control plane's KV handoff to a decode
replica: a Mooncake-style shared store).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kvstore.arena import Page
from repro.kvstore.radix import RadixIndex
from repro.layouts.kv_cache import reshard_kv

#: Default page size in tokens.  Must stay a multiple of the chunked
#: prefill chunk (``repro.serving.chunked.DEFAULT_PREFILL_CHUNK``) so a
#: cached prefix always ends on a chunk boundary and the recomputed
#: suffix sees the exact same chunk partitioning as the cold path.
DEFAULT_PAGE_TOKENS = 4

#: Default per-store capacity, in pages.
DEFAULT_CAPACITY_PAGES = 256


@dataclass
class PageLease:
    """A pinned page chain: the cached prefix one prefill reuses.

    Holding a lease keeps every page's ``refcount`` positive, which the
    index's eviction respects unconditionally — a live decode slot can
    never lose its prefix.  Release exactly once; double releases are
    ignored (and surface in the store counters).
    """

    store: "KVStore"
    lease_id: int
    epoch: int
    pages: tuple[Page, ...]
    released: bool = False
    #: Set by the control plane once the lease is journaled.
    journaled: bool = field(default=False, compare=False)

    @property
    def n_pages(self) -> int:
        return len(self.pages)

    @property
    def n_tokens(self) -> int:
        return sum(p.page_tokens for p in self.pages)

    def release(self) -> bool:
        return self.store.release(self)


@dataclass
class PrefillReuse:
    """What one prefill reused: the lease plus the token split."""

    lease: PageLease | None
    matched_tokens: int
    total_tokens: int

    @property
    def computed_tokens(self) -> int:
        return self.total_tokens - self.matched_tokens

    @property
    def computed_fraction(self) -> float:
        if self.total_tokens == 0:
            return 1.0
        return self.computed_tokens / self.total_tokens


class KVStore:
    """Paged prefix cache for one replica.

    Deterministic by construction: the LRU clock is whatever the caller
    passes (the cluster passes virtual-time seconds), never wall time.
    """

    def __init__(self, *, page_tokens: int = DEFAULT_PAGE_TOKENS,
                 capacity_pages: int = DEFAULT_CAPACITY_PAGES,
                 name: str = "kvstore"):
        if page_tokens < 1:
            raise ValueError(f"page_tokens must be >= 1, got {page_tokens}")
        if capacity_pages < 1:
            raise ValueError(
                f"capacity_pages must be >= 1, got {capacity_pages}")
        self.page_tokens = page_tokens
        self.capacity_pages = capacity_pages
        self.name = name
        self.index = RadixIndex(page_tokens)
        self.epoch = 0
        self._clock = 0
        self._lease_counter = 0
        self._page_counter = 0
        self._active: dict[int, PageLease] = {}
        self._last_reuse: PrefillReuse | None = None
        # Counters (the stats() surface, mirroring StepCompiler.stats).
        self.lookups = 0
        self.peeks = 0
        self.hits = 0
        self.misses = 0
        self.pages_hit = 0
        self.pages_missed = 0
        self.inserts = 0
        self.adoptions = 0
        self.evictions = 0
        self.invalidations = 0
        self.invalidation_reasons: dict[str, int] = {}
        self.leases = 0
        self.releases = 0
        self.stale_releases = 0
        self.redundant_releases = 0
        self.tokens_total = 0
        self.tokens_computed = 0
        self.bytes_saved = 0
        self.pages_converted = 0

    # -- read-only queries --------------------------------------------------

    def peek(self, tokens) -> int:
        """Matched-token count for routing — no pin, no LRU touch."""
        self.peeks += 1
        usable = max((len(tokens) - 1) // self.page_tokens, 0)
        if usable == 0:
            return 0
        chain = self.index.lookup(tokens, max_pages=usable)
        return sum(p.page_tokens for p in chain)

    def lookup_pages(self, tokens) -> list[Page]:
        """Every indexed whole page of ``tokens`` (for adoption); a pure
        read like :meth:`peek` — full pages, no last-token cap."""
        return self.index.lookup(
            tokens, max_pages=len(tokens) // self.page_tokens)

    def occupancy(self) -> float:
        """Fraction of page capacity in use — an autoscaler input."""
        return self.index.n_pages / self.capacity_pages

    @property
    def pinned_pages(self) -> int:
        """Distinct pages pinned by live leases."""
        return len({id(p) for lease in self._active.values()
                    for p in lease.pages})

    # -- the serving path ---------------------------------------------------

    def _stamp(self, clock: float | None) -> float:
        """LRU timestamp: the caller's clock, or a deterministic tick."""
        if clock is None:
            self._clock += 1
            return float(self._clock)
        return clock

    def match(self, tokens, *, clock: float | None = None
              ) -> PageLease | None:
        """Pin the longest cached prefix of ``tokens``; ``None`` on miss.

        Counts the request against the hit/miss and token ledgers either
        way, so ``stats()`` reflects every prefill the store saw.
        """
        clock = self._stamp(clock)
        n = len(tokens)
        self.lookups += 1
        self.tokens_total += n
        usable = max((n - 1) // self.page_tokens, 0)
        chain = (self.index.lookup(tokens, max_pages=usable, clock=clock)
                 if usable else [])
        matched = sum(p.page_tokens for p in chain)
        self.pages_hit += len(chain)
        self.pages_missed += usable - len(chain)
        self.tokens_computed += n - matched
        if not chain:
            self.misses += 1
            return None
        self.hits += 1
        self.bytes_saved += sum(p.nbytes for p in chain)
        for page in chain:
            page.refcount += 1
        self._lease_counter += 1
        lease = PageLease(self, self._lease_counter, self.epoch,
                          tuple(chain))
        self._active[lease.lease_id] = lease
        self.leases += 1
        return lease

    def install(self, lease: PageLease, caches) -> int:
        """Write the leased prefix into fresh caches; returns its length.

        When every page's layout key matches the caches', the pages are
        concatenated along M and written with one slice copy per layer.
        Otherwise (the loop backend, the reference model's plain
        buffers, another mesh shape or spec) they convert through global
        arrays in :func:`~repro.layouts.kv_cache.reshard_kv`.
        """
        n = lease.n_tokens
        if n == 0:
            return 0
        pages = lease.pages
        n_layers = len(pages[0].k)
        if len(caches) != n_layers:
            raise ValueError(f"store pages span {n_layers} layers, model "
                             f"has {len(caches)}")
        layout = getattr(caches[0], "page_layout", None)
        if layout is not None and all(p.layout == layout for p in pages):
            for layer, cache in enumerate(caches):
                cache.write(
                    np.concatenate([p.k[layer] for p in pages], axis=4),
                    np.concatenate([p.v[layer] for p in pages], axis=4), n)
            return n
        self.pages_converted += len(pages)
        for layer, cache in enumerate(caches):
            reshard_kv(cache, [(p.k[layer], p.v[layer], p.layout)
                               for p in pages], axis=1)
        return n

    def commit(self, tokens, caches, *, clock: float | None = None) -> int:
        """Seal the finished prefill's new whole pages into the index.

        Pages the index already holds are shared, not duplicated; only
        the novel span is read from the caches, in their page layout (a
        slice of a stacked buffer; a loop cache's span has its replicas
        checked on the way to global form).  Returns the number of pages
        added.
        Over capacity, LRU unpinned pages are evicted (pinned pages
        survive regardless).
        """
        clock = self._stamp(clock)
        pt = self.page_tokens
        full = len(tokens) // pt
        if full == 0:
            return 0
        existing = self.index.lookup(tokens, max_pages=full)
        if len(existing) == full:
            return 0
        start, stop = len(existing) * pt, full * pt
        layout = getattr(caches[0], "page_layout", None)
        spans = [c.read(start, stop) if hasattr(c, "read")
                 else (c.k[:, start:stop], c.v[:, start:stop])
                 for c in caches]
        # Index of one page's tokens: M is axis 1 globally, 4 in the
        # stacked page layout (after the device axes and B).
        lead = (slice(None),) * (1 if layout is None else 4)
        pages: list[Page] = list(existing)
        for pidx in range(len(existing), full):
            s = pidx * pt - start
            at = lead + (slice(s, s + pt),)
            self._page_counter += 1
            pages.append(Page(
                self._page_counter,
                tuple(int(t) for t in tokens[pidx * pt:(pidx + 1) * pt]),
                # Copies: a span read from a stacked cache is a view of
                # its buffer, which the arena re-leases once it dies.
                tuple(k[at].copy() for k, _ in spans),
                tuple(v[at].copy() for _, v in spans),
                layout))
        added = self.index.insert(tokens, pages, clock=clock)
        self.inserts += added
        self._enforce_capacity()
        return added

    def adopt(self, tokens, pages, *, clock: float | None = None) -> int:
        """Index another store's sealed pages by reference (handoff)."""
        added = self.index.insert(tokens, pages, clock=self._stamp(clock))
        self.adoptions += added
        self._enforce_capacity()
        return added

    def release(self, lease: PageLease) -> bool:
        """Unpin a lease; idempotent (the second call is a no-op)."""
        if lease.released:
            self.redundant_releases += 1
            return False
        lease.released = True
        self._active.pop(lease.lease_id, None)
        if lease.epoch != self.epoch:
            self.stale_releases += 1
        for page in lease.pages:
            page.refcount = max(page.refcount - 1, 0)
        self.releases += 1
        return True

    # -- bookkeeping hooks for chunked_prefill ------------------------------

    def finish_prefill(self, reuse: PrefillReuse) -> None:
        """Record the just-finished prefill's reuse outcome."""
        self._last_reuse = reuse

    def take_last_reuse(self) -> PrefillReuse | None:
        """Pop the outcome of the most recent prefill (single consumer)."""
        reuse, self._last_reuse = self._last_reuse, None
        return reuse

    # -- lifecycle ----------------------------------------------------------

    def invalidate(self, reason: str = "explicit") -> None:
        """Drop the index (epoch bump) — restart/replan, like capture.

        Live leases stay pinned in memory until released; their release
        after the bump counts as ``stale_releases`` and is a no-op on
        the (new, empty) index.
        """
        self.epoch += 1
        self.index.clear()
        self.invalidations += 1
        self.invalidation_reasons[reason] = \
            self.invalidation_reasons.get(reason, 0) + 1

    def _enforce_capacity(self) -> None:
        over = self.index.n_pages - self.capacity_pages
        if over > 0:
            self.evictions += len(self.index.evict(over))

    def stats(self) -> dict:
        """Counter snapshot (the ``repro-inference metrics`` surface)."""
        cacheable = self.pages_hit + self.pages_missed
        return {
            "pages": self.index.n_pages,
            "capacity_pages": self.capacity_pages,
            "page_tokens": self.page_tokens,
            "lookups": self.lookups,
            "peeks": self.peeks,
            "hits": self.hits,
            "misses": self.misses,
            "pages_hit": self.pages_hit,
            "pages_missed": self.pages_missed,
            "hit_rate": (self.pages_hit / cacheable) if cacheable else 0.0,
            "inserts": self.inserts,
            "adoptions": self.adoptions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "invalidation_reasons": dict(self.invalidation_reasons),
            "leases": self.leases,
            "releases": self.releases,
            "stale_releases": self.stale_releases,
            "redundant_releases": self.redundant_releases,
            "pinned_pages": self.pinned_pages,
            "tokens_total": self.tokens_total,
            "tokens_computed": self.tokens_computed,
            "bytes_saved": self.bytes_saved,
            "pages_converted": self.pages_converted,
            "occupancy": self.occupancy(),
        }
