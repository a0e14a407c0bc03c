"""The hot-path memoization layer (``repro.perf``)."""

import pytest

from repro.perf import (
    SIGNATURE_CACHE,
    XPATH_CACHE,
    LRUCache,
    all_caches,
    all_stats,
    clear_all_caches,
    drop_issuer_signatures,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Every test starts and ends with empty shared caches."""
    clear_all_caches(reset_counters=True)
    yield
    clear_all_caches(reset_counters=True)


class TestLRUCache:
    def test_put_get_and_counters(self):
        cache = LRUCache("t-basic", capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_get_or_compute_memoizes(self):
        cache = LRUCache("t-memo", capacity=4)
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        again = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == again == 42
        assert len(calls) == 1

    def test_eviction_is_lru_ordered(self):
        cache = LRUCache("t-evict", capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1
        assert len(cache) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache("t-bad", capacity=0)

    def test_invalidate_single_key(self):
        cache = LRUCache("t-inv", capacity=4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert cache.get("a") is None
        assert cache.stats().invalidations == 1

    def test_invalidate_tag_drops_only_that_tag(self):
        cache = LRUCache("t-tag", capacity=8)
        cache.put("a1", 1, tag="alice")
        cache.put("a2", 2, tag="alice")
        cache.put("b1", 3, tag="bob")
        cache.put("plain", 4)
        assert cache.invalidate_tag("alice") == 2
        assert cache.get("a1") is None and cache.get("a2") is None
        assert cache.get("b1") == 3
        assert cache.get("plain") == 4
        assert cache.invalidate_tag("alice") == 0

    def test_retag_moves_entry_between_tags(self):
        cache = LRUCache("t-retag", capacity=8)
        cache.put("k", 1, tag="old")
        cache.put("k", 2, tag="new")
        assert cache.invalidate_tag("old") == 0
        assert cache.get("k") == 2
        assert cache.invalidate_tag("new") == 1

    def test_invalidate_where(self):
        cache = LRUCache("t-where", capacity=8)
        for index in range(6):
            cache.put(("k", index), index)
        dropped = cache.invalidate_where(lambda key: key[1] % 2 == 0)
        assert dropped == 3
        assert cache.get(("k", 1)) == 1
        assert cache.get(("k", 2)) is None

    def test_clear_counts_invalidations_reset_zeroes(self):
        cache = LRUCache("t-clear", capacity=8)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().invalidations == 2
        cache.reset()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions,
                stats.invalidations) == (0, 0, 0, 0)

    def test_eviction_drops_tag_bookkeeping(self):
        cache = LRUCache("t-evtag", capacity=1)
        cache.put("a", 1, tag="shared")
        cache.put("b", 2, tag="shared")  # evicts "a"
        assert cache.invalidate_tag("shared") == 1  # only "b" remains


class TestRegistryAndSwitch:
    def test_shared_instances_are_registered(self):
        caches = all_caches()
        for instance in (XPATH_CACHE, SIGNATURE_CACHE):
            assert instance in caches
        stats = all_stats()
        assert "xpath_ast" in stats and "signature_verify" in stats

    def test_clear_all_caches(self):
        cache = LRUCache("t-global", capacity=4)
        cache.put("k", 1)
        clear_all_caches()
        assert len(cache) == 0


class TestXPathCache:
    def test_ast_is_shared_between_compilations(self):
        from repro.xmlutil.xpath import XPath

        first = XPath("/Credential/Attr[@name='x']")
        second = XPath("/Credential/Attr[@name='x']")
        assert first._ast is second._ast
        assert XPATH_CACHE.stats().hits >= 1

    def test_disabled_still_parses(self):
        """An emptied cache only costs a re-parse, never a wrong AST."""
        from repro.xmlutil.xpath import XPath

        first = XPath("/Credential/Other")
        clear_all_caches()
        assert len(XPATH_CACHE) == 0
        second = XPath("/Credential/Other")
        assert first._ast is not second._ast
        assert second._ast == first._ast


class TestSignatureCacheInvalidation:
    def test_issuer_sweep_targets_one_issuer(self):
        """The whole-issuer sweep matches both the per-credential
        ``(issuer, serial)`` tags and the legacy bare issuer tag."""
        SIGNATURE_CACHE.put(("fp1", b"d1", "sig1"), True, tag=("INFN", 1))
        SIGNATURE_CACHE.put(("fp1", b"d2", "sig2"), True, tag="INFN")
        SIGNATURE_CACHE.put(("fp2", b"d3", "sig3"), True, tag=("GridCA", 7))
        assert drop_issuer_signatures("INFN") == 2
        assert SIGNATURE_CACHE.get(("fp2", b"d3", "sig3")) is True
        assert SIGNATURE_CACHE.get(("fp1", b"d1", "sig1")) is None

    def test_serial_invalidation_spares_issuer_siblings(self):
        """Retraction-grade precision: evicting one ``(issuer, serial)``
        tag leaves the issuer's other credentials cached."""
        SIGNATURE_CACHE.put(("fp1", b"d1", "sig1"), True, tag=("INFN", 1))
        SIGNATURE_CACHE.put(("fp1", b"d2", "sig2"), True, tag=("INFN", 2))
        assert SIGNATURE_CACHE.invalidate_tag(("INFN", 1)) == 1
        assert SIGNATURE_CACHE.get(("fp1", b"d1", "sig1")) is None
        assert SIGNATURE_CACHE.get(("fp1", b"d2", "sig2")) is True

    def test_invalidate_tags_predicate(self):
        SIGNATURE_CACHE.put(("fp1", b"d1", "sig1"), True, tag=("INFN", 1))
        SIGNATURE_CACHE.put(("fp1", b"d2", "sig2"), True, tag=("INFN", 9))
        evicted = SIGNATURE_CACHE.invalidate_tags(
            lambda tag: isinstance(tag, tuple) and tag[1] > 5
        )
        assert evicted == 1
        assert SIGNATURE_CACHE.get(("fp1", b"d1", "sig1")) is True
