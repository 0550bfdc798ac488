"""Load-store unit: queues, forwarding, memory-dependence speculation.

Loads execute optimistically: once their address is generated they
search the store queue for the youngest older store with a matching
known address.  A match with ready data forwards; a match without data
waits; no match goes to memory *even if older stores have unknown
addresses* — that is memory-dependence speculation, tracked as a
D-shadow.  When a store's address later resolves and matches a younger
load that already obtained data from elsewhere, the load is flagged
with an ordering violation (a store-to-load forwarding error,
Section 9.2) and the pipeline flushes when it reaches the ROB head.

This optimistic policy is what makes STT-Rename's blocked store
address generation expensive: tainted stores keep their addresses out
of the store queue, so younger loads cannot forward and later flush —
the exchange2 anomaly of Section 8.1.

Both queues are age-ordered deques: commits retire from the front in
O(1), and squashes peel the killed suffix off the back.  They are the
LSU's only state.  Each in-flight memory dependence is recorded once,
on the load that holds it: ``pending_stores`` (the older stores with
unknown addresses it executed past; its D-shadow, mirrored in the
core's ``d_pending``), ``waiting_on_store`` (the store whose data it
waits to forward) and ``forwarded_from``.  A resolving store walks the
LDQ from its back down to the store itself: every load that can depend
on the store is in that younger suffix, and a load still in the LDQ has
neither committed nor been squashed.
"""

from collections import deque

from repro.isa.interp import to_unsigned64


class LoadStoreUnit:
    """LDQ + STQ with forwarding and violation detection."""

    def __init__(self, core):
        self.core = core
        self.ldq = deque()
        self.stq = deque()
        self._l1_latency = core.config.mem.l1_latency

    # -- load execution -----------------------------------------------------

    def load_agen(self, uop, cycle):
        """Address generation completed: forward, wait, or access memory."""
        core = self.core
        prs1 = uop.prs1
        pure = core._pure
        if (
            pure is not None
            and uop.trace_index >= 0
            and (prs1 is None or pure[prs1])
        ):
            # On-trace with a pure base: the recorded effective address
            # is exactly what the adder would produce.
            address = core._tr_addrs[uop.trace_index]
            uop.addr_pure = True
        else:
            base = core.prf.values[prs1] if prs1 is not None else 0
            address = to_unsigned64(base + uop.instr.imm)
        uop.address = address

        seq = uop.seq
        pending = None
        match = None
        impure_addr = False
        for store in self.stq:
            if store.seq >= seq:
                break
            if not store.addr_done:
                if pending is None:
                    pending = {store.seq}
                else:
                    pending.add(store.seq)
            else:
                if store.address == address:
                    match = store
                if not store.addr_pure:
                    # An impure resolved address could mask (or fake)
                    # aliasing relative to the architectural stream, so
                    # the load's value is no longer provably
                    # architectural (only meaningful under replay;
                    # without a trace val_pure is never consulted).
                    impure_addr = True
        if pending:
            uop.pending_stores = pending
            core.d_pending[seq] = uop

        # A load's value is provably architectural only when its own
        # address is pure, no older store address is unresolved or
        # impure, and (below) its forwarding source's data, if any, is
        # itself pure.  Loads always take *values* from the live
        # machine; this flag only feeds the destination register's
        # purity bit.
        val_pure = uop.addr_pure and pending is None and not impure_addr

        if match is not None:
            if match.data_done:
                core.stats.store_forwards += 1
                uop.forwarded_from = match.seq
                uop.val_pure = val_pure and match.val_pure
                core.schedule_load_complete(
                    uop, cycle + self._l1_latency, match.mem_value
                )
            else:
                # Tentative: ANDed with the store's data purity when the
                # data arrives (store_data_ready).
                uop.val_pure = val_pure
                uop.waiting_on_store = match.seq
            return

        uop.val_pure = val_pure
        latency, _level = core.hierarchy.access(address, pc=uop.pc)
        memory = core.memory
        value = memory.delta.get(address, memory.base.get(address, 0))
        core.schedule_load_complete(uop, cycle + latency, value)
        hit_latency = self._l1_latency
        uop.l1_miss = latency > hit_latency
        # A load with no destination (rd == x0) has no consumers to wake
        # speculatively — and no physical register to mark/revoke.
        if (
            uop.l1_miss
            and uop.prd is not None
            and core.scheme.allows_spec_hit_wakeup
        ):
            core.schedule_spec_wakeup(uop, cycle + hit_latency)

    # -- store execution ------------------------------------------------------

    def _younger_loads(self, seq):
        """The LDQ's loads younger than ``seq``, youngest first."""
        younger = []
        for load in reversed(self.ldq):
            if load.seq < seq:
                break
            younger.append(load)
        return younger

    def store_addr_ready(self, uop, cycle):
        """A store's address resolved: clear this store from the
        memory-dependence speculation sets of loads that ran past it,
        and flag those at its address for an ordering violation (stale
        data read past this store).

        Only a load that executed before this store's address was known
        holds it in ``pending_stores``, so only such a load can be
        flagged.  The outcome is independent of walk order.
        """
        seq = uop.seq
        address = uop.address
        core = self.core
        for load in self._younger_loads(seq):
            pending = load.pending_stores
            if not pending or seq not in pending:
                continue
            pending.discard(seq)
            if not pending:
                del core.d_pending[load.seq]
                # Resolution may make a withheld broadcast releasable:
                # advance the scheme-hook trigger.
                core.d_version += 1
            if load.address != address or load.order_violation:
                continue
            if load.forwarded_from is not None and load.forwarded_from > seq:
                continue  # forwarded from a store younger than this one
            if load.waiting_on_store is not None and load.waiting_on_store > seq:
                continue  # will forward from a younger store
            load.order_violation = True
            core.stats.stl_forward_errors += 1

    def store_data_ready(self, uop, cycle):
        """A store's data arrived: wake, oldest first, the loads waiting
        to forward from it."""
        seq = uop.seq
        core = self.core
        for load in reversed(self._younger_loads(seq)):
            if load.waiting_on_store != seq:
                continue
            load.waiting_on_store = None
            load.forwarded_from = seq
            # Complete the tentative purity basis from load_agen with
            # the store data's own purity.
            load.val_pure = load.val_pure and uop.val_pure
            core.stats.store_forwards += 1
            core.schedule_load_complete(
                load, cycle + self._l1_latency, uop.mem_value
            )

    # -- retirement / recovery ---------------------------------------------------

    def commit_load(self, uop):
        if self.ldq and self.ldq[0] is uop:
            self.ldq.popleft()
        else:  # pragma: no cover - defensive; commits are in order
            self.ldq.remove(uop)

    def commit_store(self, uop):
        if self.stq and self.stq[0] is uop:
            self.stq.popleft()
        else:  # pragma: no cover - defensive; commits are in order
            self.stq.remove(uop)

    def squash_younger(self, seq):
        ldq = self.ldq
        while ldq and ldq[-1].seq > seq:
            ldq.pop()
        stq = self.stq
        while stq and stq[-1].seq > seq:
            stq.pop()

    def flush(self):
        self.ldq.clear()
        self.stq.clear()
