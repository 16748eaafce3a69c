"""Lineage-fingerprint result cache: cross-branch and cross-run reuse.

Explore branches of an MDF typically differ in one parameter choice, and
re-running a tweaked MDF (the paper's exploratory loop, §1) re-executes
everything from scratch.  This package memoizes stage outputs keyed by a
canonical fingerprint of *(operator chain identity + parameters, input
lineage, partitioning)* so identical sub-computations are executed once:

* :mod:`repro.cache.fingerprint` — canonical, conservative fingerprints;
* :mod:`repro.cache.store` — the :class:`ResultCache` (cluster tier +
  optional persistent :class:`SharedCacheStore`), entry lifecycle and
  stats; the store is a concurrency-safe shared cross-tenant tier (write
  locking, single-flight deduplication, per-tenant quotas) that the
  :mod:`repro.service` job service opens once per job.

Enable it via ``EngineConfig(cache=ResultCache())``; it is **off by
default** and a disabled run is byte-identical to one built before this
package existed.  See ``docs/caching.md`` for the full design.
"""

from .fingerprint import (
    FingerprintError,
    callable_token,
    choose_fingerprint,
    digest,
    operator_fingerprint,
    operator_fingerprints,
    stage_fingerprint,
    value_token,
)
from .store import (
    CacheEntry,
    CacheHit,
    CacheStats,
    ResultCache,
    SharedCacheStore,
)

__all__ = [
    "CacheEntry",
    "CacheHit",
    "CacheStats",
    "FingerprintError",
    "ResultCache",
    "SharedCacheStore",
    "callable_token",
    "choose_fingerprint",
    "digest",
    "operator_fingerprint",
    "operator_fingerprints",
    "stage_fingerprint",
    "value_token",
]
