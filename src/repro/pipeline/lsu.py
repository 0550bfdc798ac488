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
O(1), and squashes peel the killed suffix off the back.

Store-address resolution (``store_addr_ready``) used to rescan the
LDQ's whole younger suffix per store; it now runs off two indexes, so
its cost scales with the *relevant* loads rather than the LDQ size:

* ``_pending_store_waiters`` — store seq -> loads whose
  memory-dependence speculation names that store; resolution clears
  each waiter's entry (and its D-shadow when the set empties, bumping
  the core's ``d_version`` release trigger).
* ``_ldq_by_addr`` — executed address -> loads, consulted for the
  ordering-violation check.  Entries are removed eagerly at
  commit/squash/flush; the per-load liveness and address guards make
  any stale registration inert, exactly like the old scan's own
  guards.
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
        #: store seq -> (load, gen) pairs waiting to forward from it
        #: (data pending).  Registrations are generation-stamped: a
        #: squash, replay, or pool recycle bumps the micro-op's ``gen``,
        #: so stale entries are inert at wake even though recycled uops
        #: no longer re-arm their memory-side slots eagerly.
        self._store_data_waiters = {}
        #: store seq -> (load, gen) pairs that speculated past it
        #: (memory-dependence speculation); drained when the store's
        #: address resolves.  Same generation-stamp discipline.
        self._pending_store_waiters = {}
        #: address -> executed loads at that address (violation index).
        self._ldq_by_addr = {}

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
            waiters = self._pending_store_waiters
            entry = (uop, uop.gen)
            for store_seq in pending:
                bucket = waiters.get(store_seq)
                if bucket is None:
                    waiters[store_seq] = [entry]
                else:
                    bucket.append(entry)
            # Register in the violation index, regardless of how the
            # data arrives.  Only loads that executed past an
            # *unresolved* older store address can ever be flagged —
            # when every older store's address was already known here,
            # the forwarding search above saw it, and no later
            # ``store_addr_ready`` can concern this load (younger
            # stores never check older loads) — so store-free and
            # resolved-store paths pay nothing.
            bucket = self._ldq_by_addr.get(address)
            if bucket is None:
                self._ldq_by_addr[address] = [uop]
            else:
                bucket.append(uop)

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
                self._store_data_waiters.setdefault(match.seq, []).append(
                    (uop, uop.gen)
                )
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

    def store_addr_ready(self, uop, cycle):
        """A store's address resolved: clear this store from the
        memory-dependence speculation sets of loads that ran past it,
        and check same-address younger loads for ordering violations
        (stale data read past this store).

        Both walks are index-driven (see the module docstring): the
        per-load guards reproduce the old younger-suffix LDQ scan's
        verdicts exactly, and the checks are order-independent, so the
        observable outcome — violation flags, error counts, D-shadow
        resolutions — is identical.
        """
        seq = uop.seq
        address = uop.address
        core = self.core

        waiting = self._pending_store_waiters.pop(seq, None)
        if waiting:
            for load, gen in waiting:
                if load.gen != gen:
                    continue  # squashed, replayed, or recycled since
                pending = load.pending_stores
                if not pending or seq not in pending:
                    continue  # replayed since registering
                pending.discard(seq)
                if not pending and core.d_pending.pop(load.seq, None) is not None:
                    # Resolution may make a withheld broadcast
                    # releasable: advance the scheme-hook trigger.
                    core.d_version += 1

        bucket = self._ldq_by_addr.get(address)
        if bucket:
            for load in bucket:
                if load.seq <= seq:
                    continue  # only younger loads can be affected
                if load.killed or load.committed:
                    continue  # stale index entry; removed eagerly soon
                if load.address != address:
                    continue  # replayed to a different address
                if load.order_violation:
                    continue
                if load.forwarded_from is not None and load.forwarded_from > seq:
                    continue  # forwarded from a store younger than this one
                if load.waiting_on_store is not None and load.waiting_on_store > seq:
                    continue  # will forward from a younger store
                load.order_violation = True
                core.stats.stl_forward_errors += 1

    def store_data_ready(self, uop, cycle):
        """A store's data arrived: wake loads waiting to forward from it.

        Waiters come from the store-indexed registry instead of an LDQ
        scan; age-sorting the handful of waiters reproduces the LDQ
        scan's oldest-first wake (and hence event) order exactly.
        """
        waiting = self._store_data_waiters.pop(uop.seq, None)
        if not waiting:
            return
        waiting.sort(key=lambda item: item[0].seq)
        for load, gen in waiting:
            if load.gen != gen or load.waiting_on_store != uop.seq:
                continue  # squashed, replayed, or recycled since
            load.waiting_on_store = None
            load.forwarded_from = uop.seq
            # Complete the tentative purity basis from load_agen with
            # the store data's own purity.
            load.val_pure = load.val_pure and uop.val_pure
            self.core.stats.store_forwards += 1
            self.core.schedule_load_complete(
                load, cycle + self._l1_latency, uop.mem_value
            )

    # -- violation-index bookkeeping --------------------------------------

    def _unindex_load(self, uop):
        """Drop a departing load from the violation index."""
        address = uop.address
        if address is None:
            return  # never executed: never indexed
        bucket = self._ldq_by_addr.get(address)
        if bucket is None:
            return
        try:
            bucket.remove(uop)
        except ValueError:  # pragma: no cover - defensive
            return
        if not bucket:
            del self._ldq_by_addr[address]

    # -- retirement / recovery ---------------------------------------------------

    def commit_load(self, uop):
        if self.ldq and self.ldq[0] is uop:
            self.ldq.popleft()
        else:  # pragma: no cover - defensive; commits are in order
            self.ldq.remove(uop)
        self._unindex_load(uop)

    def commit_store(self, uop):
        if self.stq and self.stq[0] is uop:
            self.stq.popleft()
        else:  # pragma: no cover - defensive; commits are in order
            self.stq.remove(uop)

    def squash_younger(self, seq):
        ldq = self.ldq
        while ldq and ldq[-1].seq > seq:
            self._unindex_load(ldq.pop())
        stq = self.stq
        while stq and stq[-1].seq > seq:
            stq.pop()
        for waiters in (self._store_data_waiters,
                        self._pending_store_waiters):
            if waiters:
                for store_seq in [s for s in waiters if s > seq]:
                    del waiters[store_seq]

    def flush(self):
        self.ldq.clear()
        self.stq.clear()
        self._store_data_waiters.clear()
        self._pending_store_waiters.clear()
        self._ldq_by_addr.clear()
