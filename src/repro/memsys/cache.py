"""Set-associative, LRU, tag-only cache model."""


class CacheModel:
    """A set-associative cache tracking only line presence.

    Addresses are word addresses; a line holds ``line_words`` words.
    Replacement is true LRU per set.

    The model deliberately stores no data: the simulator's load values
    come from architectural memory plus store-queue forwarding.  What
    matters here is presence (hit/miss latency) — the microarchitectural
    state a cache side channel leaks.

    Each set is a sequence of tags, most-recent last.  Sets start as
    shared tuples: the empty tuple in a new cache, a :meth:`snapshot`'s
    tuples after :meth:`restore`.  A set becomes a list of its own on
    its first write (a :meth:`lookup` hit, :meth:`insert`,
    :meth:`invalidate`), so building a cache allocates nothing per set
    and sets a run never writes are never copied.
    """

    def __init__(self, num_sets, ways, line_words=8, name="cache"):
        if num_sets <= 0 or ways <= 0 or line_words <= 0:
            raise ValueError("cache geometry must be positive")
        if num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        if line_words & (line_words - 1):
            raise ValueError("line_words must be a power of two")
        self.num_sets = num_sets
        self.ways = ways
        self.line_words = line_words
        self.name = name
        self._sets = [()] * num_sets
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity_words(self):
        return self.num_sets * self.ways * self.line_words

    def _index_tag(self, address):
        line = address // self.line_words
        return line % self.num_sets, line // self.num_sets

    def lookup(self, address):
        """Access the cache; returns True on hit.  Updates LRU, counts."""
        index, tag = self._index_tag(address)
        cache_set = self._sets[index]
        if tag in cache_set:
            if cache_set.__class__ is tuple:
                cache_set = self._sets[index] = list(cache_set)
            cache_set.remove(tag)
            cache_set.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, address):
        """Fill the line containing ``address``; returns evicted or None."""
        index, tag = self._index_tag(address)
        cache_set = self._sets[index]
        if cache_set.__class__ is tuple:
            cache_set = self._sets[index] = list(cache_set)
        if tag in cache_set:
            cache_set.remove(tag)
            cache_set.append(tag)
            return None
        evicted = None
        if len(cache_set) >= self.ways:
            evicted_tag = cache_set.pop(0)
            evicted = (evicted_tag * self.num_sets + index) * self.line_words
            self.evictions += 1
        cache_set.append(tag)
        return evicted

    def contains(self, address):
        """Non-mutating presence probe (no LRU update, no stats)."""
        index, tag = self._index_tag(address)
        return tag in self._sets[index]

    def invalidate(self, address):
        """Remove the line containing ``address`` if present."""
        index, tag = self._index_tag(address)
        cache_set = self._sets[index]
        if tag in cache_set:
            if cache_set.__class__ is tuple:
                cache_set = self._sets[index] = list(cache_set)
            cache_set.remove(tag)
            return True
        return False

    def invalidate_all(self):
        """Empty the cache (used by attack setups to reach a known state)."""
        self._sets = [()] * self.num_sets

    def snapshot(self):
        """The resident lines and the eviction count, as an immutable
        value: ``(sets, evictions)``, where ``sets`` holds one tuple of
        tags per set, most-recent last.  Hit and miss counts are not
        part of it.  :meth:`restore` puts it back."""
        return tuple(map(tuple, self._sets)), self.evictions

    def restore(self, snapshot):
        """Reinstate a :meth:`snapshot` of a cache of this geometry.

        The snapshot's set tuples are shared, not copied: each set is
        copied on its first write, and the snapshot never changes.
        """
        sets, evictions = snapshot
        if len(sets) != self.num_sets:
            raise ValueError("snapshot has %d sets, %s has %d"
                             % (len(sets), self.name, self.num_sets))
        self._sets = list(sets)
        self.evictions = evictions

    def resident_lines(self):
        """Return the set of word addresses of all resident line starts."""
        lines = set()
        for index, cache_set in enumerate(self._sets):
            for tag in cache_set:
                lines.add((tag * self.num_sets + index) * self.line_words)
        return lines

    def line_address(self, address):
        """Word address of the start of the line containing ``address``."""
        return (address // self.line_words) * self.line_words
