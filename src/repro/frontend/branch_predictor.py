"""Branch direction predictors and branch target buffer.

The default core configuration uses gshare, a solid stand-in for
BOOM's TAGE-class predictor at the model's scale; a small TAGE is
provided for the gem5-proxy configuration (the paper's Table 2 lists
``MultiperspectivePerceptronTAGE64KB``).

All predictors share one interface:

* ``predict(pc) -> bool`` — predicted direction, speculatively updates
  any internal history.
* ``update(pc, taken) -> None`` — training at branch retirement.
* ``snapshot() / restore(state)`` — save and restore speculative
  history around checkpoints (global-history predictors corrupt their
  history on wrong paths; checkpoints undo that).
"""


class GSharePredictor:
    """Global-history XOR-indexed two-bit counters."""

    def __init__(self, table_bits=12, history_bits=12):
        self.table_size = 1 << table_bits
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.counters = [2] * self.table_size
        self.ghr = 0

    def _index(self, pc):
        return (pc ^ self.ghr) % self.table_size

    def predict(self, pc):
        taken = self.counters[self._index(pc)] >= 2
        # Speculative history update; repaired via snapshot/restore on
        # a misprediction.
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & self.history_mask
        return taken

    def update(self, pc, taken):
        # Training uses retired outcomes; the index should ideally use
        # the history at prediction time, which the core passes back via
        # update_with_history when it has it.
        index = self._index(pc)
        self._train(index, taken)

    def update_with_history(self, pc, taken, history):
        index = (pc ^ history) % self.table_size
        self._train(index, taken)

    def _train(self, index, taken):
        count = self.counters[index]
        if taken:
            self.counters[index] = min(count + 1, 3)
        else:
            self.counters[index] = max(count - 1, 0)

    def snapshot(self):
        return self.ghr

    def restore(self, state):
        if state is not None:
            self.ghr = state

    def push_history(self, taken):
        """Shift one resolved outcome into the history (mispredict repair)."""
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & self.history_mask


class _TageTable:
    __slots__ = ("tags", "counters", "useful", "size", "history_bits",
                 "tag_bits")

    def __init__(self, size, history_bits, tag_bits=8):
        self.size = size
        self.history_bits = history_bits
        self.tag_bits = tag_bits
        # Entry i is (tags[i], counters[i] in 0..7, useful[i] in 0..3):
        # three flat lists rather than one list per entry.
        self.tags = [0] * size
        self.counters = [4] * size
        self.useful = [0] * size


class TagePredictor:
    """A small TAGE: base bimodal plus geometrically-longer tagged tables.

    Matches the spirit of the paper's gem5 configuration without the
    full multiperspective machinery; accuracy on the synthetic workloads
    is close to gshare but with better long-history capture.
    """

    def __init__(self, base_bits=10, num_tables=4, table_bits=9, min_history=4):
        # Base bimodal: per-PC two-bit saturating counters, weakly taken.
        self.base = [2] * (1 << base_bits)
        self.tables = []
        history = min_history
        for _ in range(num_tables):
            self.tables.append(_TageTable(1 << table_bits, history))
            history *= 2
        self.max_history = history
        self.ghr = 0
        self.history_mask = (1 << (self.max_history + 1)) - 1

    def _fold(self, value, bits, out_bits):
        value &= (1 << bits) - 1
        folded = 0
        while value:
            folded ^= value & ((1 << out_bits) - 1)
            value >>= out_bits
        return folded

    def _index(self, table, pc):
        folded = self._fold(self.ghr, table.history_bits, 10)
        return (pc ^ folded ^ (pc >> 4)) % table.size

    def _tag(self, table, pc):
        folded = self._fold(self.ghr, table.history_bits, table.tag_bits)
        return (pc ^ (folded << 1)) & ((1 << table.tag_bits) - 1)

    def _lookup(self, pc):
        """Return (provider_table_index or None, entry_index, prediction)."""
        provider = None
        provider_index = 0
        for table_index in range(len(self.tables) - 1, -1, -1):
            table = self.tables[table_index]
            index = self._index(table, pc)
            if table.tags[index] == self._tag(table, pc):
                provider = table_index
                provider_index = index
                break
        if provider is None:
            return None, 0, self.base[pc % len(self.base)] >= 2
        prediction = self.tables[provider].counters[provider_index] >= 4
        return provider, provider_index, prediction

    def predict(self, pc):
        _, _, taken = self._lookup(pc)
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & self.history_mask
        return taken

    def update(self, pc, taken):
        provider, entry_index, prediction = self._lookup(pc)
        if provider is None:
            base = self.base
            index = pc % len(base)
            base[index] = (min(base[index] + 1, 3) if taken
                           else max(base[index] - 1, 0))
        else:
            table = self.tables[provider]
            counter = table.counters[entry_index]
            table.counters[entry_index] = (
                min(counter + 1, 7) if taken else max(counter - 1, 0))
            if prediction == taken:
                table.useful[entry_index] = min(
                    table.useful[entry_index] + 1, 3)
        # Allocate a longer-history entry on a misprediction.
        if prediction != taken:
            start = 0 if provider is None else provider + 1
            for table_index in range(start, len(self.tables)):
                table = self.tables[table_index]
                index = self._index(table, pc)
                if table.useful[index] == 0:
                    table.tags[index] = self._tag(table, pc)
                    table.counters[index] = 4 if taken else 3
                    break
                table.useful[index] -= 1

    def snapshot(self):
        return self.ghr

    def restore(self, state):
        if state is not None:
            self.ghr = state

    def push_history(self, taken):
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & self.history_mask


class BranchTargetBuffer:
    """Direct-mapped BTB for indirect-jump (jalr) target prediction."""

    def __init__(self, entries=256):
        self.size = entries
        self._tags = [None] * entries
        self._targets = [0] * entries

    def predict(self, pc):
        """Return the predicted target, or None on a BTB miss."""
        index = pc % self.size
        if self._tags[index] == pc:
            return self._targets[index]
        return None

    def update(self, pc, target):
        index = pc % self.size
        self._tags[index] = pc
        self._targets[index] = target


_PREDICTORS = {
    "gshare": GSharePredictor,
    "tage": TagePredictor,
}


def make_predictor(name, **kwargs):
    """Build a predictor by name: gshare or tage."""
    try:
        cls = _PREDICTORS[name]
    except KeyError:
        raise ValueError(
            "unknown predictor %r (choose from %s)" % (name, sorted(_PREDICTORS))
        )
    return cls(**kwargs)
