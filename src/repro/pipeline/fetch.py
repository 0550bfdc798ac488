"""Decoupled front end: fetch + predict into a fetch buffer.

Fetches up to ``width`` instructions per cycle, following predicted
control flow (a taken control instruction ends the fetch group).
Fetched entries become visible to rename ``frontend_depth`` cycles
later, modelling the fetch/decode pipeline depth; mispredict redirects
additionally pay ``redirect_penalty`` cycles before fetch resumes.

The rename stage drains the buffer a *group* at a time:
:class:`FetchGroup` is the ordered batch of micro-ops leaving the
buffer together in one cycle, built by the core's rename/dispatch
phase and handed whole to
:meth:`~repro.pipeline.rename.RenameUnit.rename_group` and the
scheme's ``on_rename_group`` hook (the paper's Figure 2 in-order group
walkthrough).  Fetch entries themselves are pooled — popped entries
return to a free list and are re-armed in place — so the steady-state
front end allocates nothing.

:meth:`FetchUnit.fetch_wake_cycle` exposes the fetch side's next
activity cycle to the core's idle-cycle fast-forward: cycles strictly
before it are guaranteed fetch no-ops.

**Trace-position tracking.**  When the core runs against a recorded
:class:`~repro.isa.trace.DynamicTrace`, the fetch unit labels every
fetched entry with its position in the trace (``trace_index``; -1 =
off-trace / wrong path).  The position advances with predicted control
flow: unconditional steps (plain ops, JAL) advance by construction;
predicted branches and JALRs advance only while the predicted successor
matches the trace's architectural successor, and drop to -1 at the
first divergence — the fetch stream beyond that point is wrong-path and
will be squashed.  :meth:`FetchUnit.redirect` accepts the recovery
position computed by the core's squash/flush handlers, which is how the
stream re-enters the trace after a misprediction.

Since trace-v2 the trace columns are typed arrays (``array('Q')`` etc.,
see :mod:`repro.isa.trace`); indexing them here still yields plain
``int``s, so the position-advance logic is layout-agnostic — the fetch
unit only ever compares ``next_pcs[pos]`` against its predicted PC.
"""

from collections import deque

from repro.isa.instructions import Opcode


class FetchGroup(list):
    """One rename group: micro-ops leaving the fetch buffer together.

    A plain ordered list, age order == program order.  The core keeps
    a single instance and clears it every cycle, so group dispatch
    allocates no containers; consumers (rename, issue queue, LSU,
    scheme hooks) treat it as an immutable snapshot for the duration
    of the rename phase.
    """

    __slots__ = ()


class FetchEntry:
    """One fetched instruction plus its prediction metadata."""

    __slots__ = (
        "pc",
        "instr",
        "fetch_cycle",
        "pred_taken",
        "pred_target",
        "ghr_before",
        "trace_index",
    )

    def __init__(self, pc, instr, fetch_cycle):
        self.reset(pc, instr, fetch_cycle)

    def reset(self, pc, instr, fetch_cycle):
        """Re-arm a recycled entry (identical to a fresh construction)."""
        self.pc = pc
        self.instr = instr
        self.fetch_cycle = fetch_cycle
        self.pred_taken = False
        self.pred_target = None
        self.ghr_before = None
        self.trace_index = -1


class FetchUnit:
    """Program counter, predictor interface, and the fetch buffer."""

    def __init__(self, core, program, predictor, btb, trace=None):
        self.core = core
        self.config = core.config
        self.program = program
        self.predictor = predictor
        self.btb = btb
        self.queue = deque()
        self.fetch_pc = program.entry
        self.stalled_until = 0
        self.halted = False
        # Recycled FetchEntry objects (bounded by the buffer size):
        # the core's rename stage appends each entry it pops, and
        # redirect() returns the squashed buffer.
        self._entry_pool = []
        # Trace replay: architectural successor column and the current
        # fetch-stream position within the trace (-1 = off-trace).
        # Boxed list view: fetch reads one successor per on-trace
        # instruction, and array subscripts re-box per read (see
        # DynamicTrace.replay_columns).
        self._tr_next = (trace.replay_columns()[0]
                         if trace is not None else None)
        self.trace_pos = 0 if trace is not None else -1

    # -- per-cycle fetch -----------------------------------------------------

    def do_cycle(self, cycle):
        if self.halted or cycle < self.stalled_until:
            return
        budget = self.config.width
        program = self.program
        program_len = len(program)
        queue = self.queue
        buffer_limit = self.config.fetch_buffer_entries
        entry_pool = self._entry_pool
        tr_next = self._tr_next
        # PC, trace position, and the fetch counter live in locals for
        # the duration of the loop (one attribute write each at the
        # single exit point below instead of one per fetched entry).
        pos = self.trace_pos
        fetch_pc = self.fetch_pc
        fetched = 0
        while budget > 0 and len(queue) < buffer_limit:
            if not 0 <= fetch_pc < program_len:
                # Wrong-path fetch ran off the program; wait for the
                # inevitable squash to redirect us.
                self.halted = True
                break
            pc = fetch_pc
            instr = program[pc]
            if entry_pool:
                # Inlined FetchEntry.reset (hot path: one per fetch).
                entry = entry_pool.pop()
                entry.pc = pc
                entry.instr = instr
                entry.fetch_cycle = cycle
                entry.pred_taken = False
                entry.pred_target = None
                entry.ghr_before = None
            else:
                entry = FetchEntry(pc, instr, cycle)
            entry.trace_index = pos
            fetched += 1
            budget -= 1

            op = instr.op
            if op is Opcode.HALT:
                # The halt step never advances the position: the trace
                # parks there too (its successor is itself).
                queue.append(entry)
                self.halted = True
                break

            if instr.info.is_branch:
                entry.ghr_before = self.predictor.snapshot()
                taken = self.predictor.predict(pc)
                entry.pred_taken = taken
                entry.pred_target = instr.imm if taken else pc + 1
                queue.append(entry)
                fetch_pc = entry.pred_target
                if pos >= 0:
                    # Stay on-trace only while prediction matches the
                    # architectural successor; a divergence here is a
                    # misprediction-to-be — everything fetched beyond
                    # it is wrong path until the squash recovers us.
                    pos = pos + 1 if entry.pred_target == tr_next[pos] else -1
                if taken:
                    break  # taken control ends the fetch group
                continue

            if op is Opcode.JAL:
                entry.pred_taken = True
                entry.pred_target = instr.imm
                queue.append(entry)
                fetch_pc = instr.imm
                if pos >= 0:
                    pos += 1  # unconditional: predicted == architectural
                break

            if op is Opcode.JALR:
                entry.ghr_before = self.predictor.snapshot()
                predicted = self.btb.predict(pc)
                entry.pred_taken = True
                entry.pred_target = predicted if predicted is not None else pc + 1
                queue.append(entry)
                fetch_pc = entry.pred_target
                if pos >= 0:
                    pos = pos + 1 if entry.pred_target == tr_next[pos] else -1
                break

            queue.append(entry)
            fetch_pc = pc + 1
            if pos >= 0:
                pos += 1  # plain op: fall-through == architectural
        self.fetch_pc = fetch_pc
        self.trace_pos = pos
        if fetched:
            self.core.stats.fetched_instructions += fetched

    # -- rename-side interface ---------------------------------------------------

    def peek_ready(self, cycle):
        """Oldest entry old enough to have cleared the front end, or None."""
        if not self.queue:
            return None
        entry = self.queue[0]
        if entry.fetch_cycle + self.config.frontend_depth > cycle:
            return None
        return entry

    def redirect_stalled(self, cycle):
        """True while fetch is waiting out a squash/flush redirect."""
        return not self.halted and cycle < self.stalled_until

    def fetch_wake_cycle(self, cycle):
        """First cycle >= ``cycle`` at which the fetch side can fetch.

        Returns ``None`` when it cannot without external help: the unit
        is halted (ran off the program or fetched a halt), or the fetch
        buffer is full — only a rename-side pop frees space, and during
        an idle window rename pops nothing.  The core's idle-cycle
        fast-forward relies on the guarantee that every cycle strictly
        before the returned value (or every cycle at all, for ``None``)
        is a fetch no-op: no instructions fetched, no counters touched,
        no buffer entries added.
        """
        if self.halted or len(self.queue) >= self.config.fetch_buffer_entries:
            return None
        return cycle if cycle >= self.stalled_until else self.stalled_until

    # -- recovery ------------------------------------------------------------------

    def redirect(self, pc, resume_cycle, trace_pos=-1):
        """Squash the buffer and restart fetch at ``pc``.

        ``trace_pos`` is the trace position of the redirect target —
        the core's recovery paths compute it when the redirect provably
        re-enters the recorded stream, and pass -1 (off-trace) in every
        other case, including when no trace is attached.
        """
        queue = self.queue
        if queue:
            self._entry_pool.extend(queue)
            queue.clear()
        self.fetch_pc = pc
        self.stalled_until = resume_cycle
        self.halted = False
        self.trace_pos = trace_pos
