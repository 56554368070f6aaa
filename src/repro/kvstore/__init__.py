"""KVCache-centric prefix sharing: paged KV store + radix reuse.

At million-user scale most prefill compute is redundant — requests share
system prompts and conversation prefixes, yet a naive server recomputes
every prompt into a freshly allocated cache.  This package trades more
storage for less computation (the Mooncake recipe) on top of the
Section 3.3 sharded KV cache:

* :mod:`repro.kvstore.arena` — sealed, refcounted, copy-on-write KV
  *pages* (host-side, keyed by the mesh layout they are kept in) and
  the device-buffer arena that recycles ``ShardedKVCache`` allocations
  between requests;
* :mod:`repro.kvstore.radix` — the token-id radix index mapping prompt
  prefixes to page chains, with LRU-by-last-use eviction that never
  frees a pinned page;
* :mod:`repro.kvstore.store` — the per-replica facade the serving and
  cluster layers consume: ``match`` (pin a cached prefix), ``install``
  (write it into fresh caches), ``commit`` (seal a finished prefill
  into new pages) and ``release``.

The contract mirrors the step compiler's: every cache hit must be
bit-identical to the recompute path, and chaos/failover invalidate the
store exactly like captured programs.
"""

from repro.kvstore.arena import KVBufferArena, Page
from repro.kvstore.radix import RadixIndex
from repro.kvstore.store import (
    DEFAULT_PAGE_TOKENS,
    KVStore,
    PageLease,
    PrefillReuse,
)

__all__ = [
    "DEFAULT_PAGE_TOKENS",
    "KVBufferArena",
    "KVStore",
    "Page",
    "PageLease",
    "PrefillReuse",
    "RadixIndex",
]
