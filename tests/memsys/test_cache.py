"""Unit tests for the cache model."""

import pytest

from repro.memsys.cache import CacheModel


def test_miss_then_hit():
    cache = CacheModel(num_sets=4, ways=2, line_words=8)
    assert not cache.lookup(0)
    cache.insert(0)
    assert cache.lookup(0)
    assert cache.hits == 1 and cache.misses == 1


def test_same_line_shares_tag():
    cache = CacheModel(num_sets=4, ways=2, line_words=8)
    cache.insert(0)
    assert cache.lookup(7)      # same 8-word line
    assert not cache.lookup(8)  # next line


def test_lru_eviction_order():
    cache = CacheModel(num_sets=1, ways=2, line_words=8)
    cache.insert(0)
    cache.insert(8)
    cache.lookup(0)             # 0 becomes MRU
    evicted = cache.insert(16)  # evicts 8, the LRU
    assert evicted == 8
    assert cache.contains(0)
    assert not cache.contains(8)
    assert cache.contains(16)


def test_contains_is_non_mutating():
    cache = CacheModel(num_sets=1, ways=2, line_words=8)
    cache.insert(0)
    cache.insert(8)
    cache.contains(0)           # must NOT refresh LRU
    evicted = cache.insert(16)
    assert evicted == 0


def test_invalidate():
    cache = CacheModel(num_sets=4, ways=2)
    cache.insert(0)
    assert cache.invalidate(0)
    assert not cache.contains(0)
    assert not cache.invalidate(0)


def test_invalidate_all_and_resident_lines():
    cache = CacheModel(num_sets=4, ways=2, line_words=8)
    for address in (0, 8, 16):  # lines 0,1,2 -> distinct sets
        cache.insert(address)
    assert cache.resident_lines() == {0, 8, 16}
    cache.invalidate_all()
    assert cache.resident_lines() == set()


def test_set_mapping():
    cache = CacheModel(num_sets=4, ways=1, line_words=8)
    cache.insert(0)
    cache.insert(8)   # different set (line 1 -> set 1)
    assert cache.contains(0) and cache.contains(8)
    evicted = cache.insert(256)  # line 32 -> set 0: evicts line 0
    assert evicted == 0


def test_capacity():
    cache = CacheModel(num_sets=64, ways=8, line_words=8)
    assert cache.capacity_words == 4096


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheModel(num_sets=3, ways=2)  # not a power of two
    with pytest.raises(ValueError):
        CacheModel(num_sets=0, ways=2)
    with pytest.raises(ValueError):
        CacheModel(num_sets=4, ways=2, line_words=3)


def test_line_address():
    cache = CacheModel(num_sets=4, ways=2, line_words=8)
    assert cache.line_address(13) == 8
    assert cache.line_address(8) == 8


def test_new_cache_shares_one_empty_set():
    cache = CacheModel(num_sets=64, ways=8)
    assert len({id(cache_set) for cache_set in cache._sets}) == 1
    assert not cache.lookup(0)  # a miss writes nothing
    assert len({id(cache_set) for cache_set in cache._sets}) == 1
    cache.insert(0)
    assert cache._sets[0] == [0]
    assert len({id(cache_set) for cache_set in cache._sets[1:]}) == 1


def test_restore_shares_sets_until_each_first_write():
    warmed = CacheModel(num_sets=2, ways=2, line_words=8)
    for address in (0, 8, 16, 32):  # set 0 evicts line 0
        warmed.insert(address)
    snapshot = warmed.snapshot()
    assert snapshot == (((1, 2), (0,)), 1)  # tags, most-recent last

    a = CacheModel(num_sets=2, ways=2, line_words=8)
    b = CacheModel(num_sets=2, ways=2, line_words=8)
    a.restore(snapshot)
    b.restore(snapshot)
    assert a._sets[0] is snapshot[0][0] and a.evictions == 1
    assert a.lookup(16)        # a hit reorders set 0: a copies it
    a.insert(48)               # fills set 0, evicting address 32
    assert a.invalidate(8)     # empties set 1: a copies it too
    assert a._sets == [[1, 3], []] and a.evictions == 2
    # The snapshot and the other cache restored from it are untouched.
    assert snapshot == (((1, 2), (0,)), 1)
    assert b.snapshot() == snapshot
    assert b.resident_lines() == {16, 32, 8}


def test_restore_rejects_another_geometry():
    snapshot = CacheModel(num_sets=2, ways=2).snapshot()
    with pytest.raises(ValueError):
        CacheModel(num_sets=4, ways=2).restore(snapshot)
