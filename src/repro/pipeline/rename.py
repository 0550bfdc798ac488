"""Register renaming: RAT, free list, and branch checkpoints.

The paper's Figure 2 walkthrough is implemented here, *group at a
time*: :meth:`RenameUnit.rename_group` renames one fetch group in a
single in-order pass — source registers are translated through the
register alias table (RAT), destinations receive physical registers
sliced in bulk off the free list, and same-cycle dependencies resolve
because younger group members read the RAT *after* older members'
allocations have been written into it (the serial intra-group chain
whose hardware cost Figure 2/Figure 3 is about).

Checkpoints are allocated inside the same pass: a branch (or indirect
jump) snapshots the RAT *mid-group* — including its own and all older
group members' allocations, excluding younger ones — exactly the
state a misprediction must restore.  The caller guarantees capacity
(free registers, free checkpoints) before submitting the group; the
admission gates live in ``OoOCore._rename_block``.

The per-uop entry points (:meth:`RenameUnit.rename_sources`,
:meth:`RenameUnit.rename_dest`) remain as the single-uop primitive —
``rename_group`` is behaviourally exactly their in-order composition —
and stay in use by unit tests and tools.

A misprediction restores the checkpoint and returns the physical
registers allocated by squashed micro-ops to the free list.  Secure
schemes can stash extra state in the checkpoint via the
``scheme_state`` slot — STT-Rename keeps its taint-RAT copy there
(the paper's Section 4.2 checkpointing cost).
"""

from collections import deque

from repro.isa.registers import NUM_ARCH_REGS


class Checkpoint:
    """Snapshot taken at a branch for single-cycle recovery."""

    __slots__ = ("checkpoint_id", "rat", "ghr", "scheme_state", "branch_seq")

    def __init__(self, checkpoint_id, rat, ghr, branch_seq):
        self.checkpoint_id = checkpoint_id
        self.rat = rat
        self.ghr = ghr
        self.branch_seq = branch_seq
        self.scheme_state = None


class RenameUnit:
    """RAT + free list + checkpoint pool."""

    def __init__(self, num_phys_regs, max_branches):
        self.num_phys_regs = num_phys_regs
        self.max_branches = max_branches
        # Identity map for x0..x31 initially; p0 stays the canonical
        # zero register and is never allocated.
        self.rat = list(range(NUM_ARCH_REGS))
        self.free_list = deque(range(NUM_ARCH_REGS, num_phys_regs))
        # Architectural (committed) RAT for full-flush recovery.
        self.arch_rat = list(range(NUM_ARCH_REGS))
        self._checkpoints = {}
        self._next_checkpoint_id = 0

    # -- capacity queries ----------------------------------------------

    def free_regs(self):
        return len(self.free_list)

    def free_checkpoints(self):
        return self.max_branches - len(self._checkpoints)

    # -- renaming -------------------------------------------------------

    def lookup(self, arch_reg):
        """Current physical mapping of an architectural register."""
        return self.rat[arch_reg]

    def rename_sources(self, uop):
        """Fill prs1/prs2 from the RAT (x0 reads stay None)."""
        info = uop.instr.info
        if info.reads_rs1 and uop.instr.rs1 != 0:
            uop.prs1 = self.rat[uop.instr.rs1]
        if info.reads_rs2 and uop.instr.rs2 != 0:
            uop.prs2 = self.rat[uop.instr.rs2]

    def rename_dest(self, uop):
        """Allocate a destination physical register; returns it or None."""
        if not uop.writes_reg:
            return None
        preg = self.free_list.popleft()
        uop.stale_prd = self.rat[uop.instr.rd]
        uop.prd = preg
        self.rat[uop.instr.rd] = preg
        return preg

    def rename_group(self, uops, reg_state=None):
        """Rename one fetch group in a single in-order RAT pass.

        Equivalent to per-uop ``rename_sources`` + ``rename_dest`` +
        ``create_checkpoint`` in program order, with the bookkeeping
        batched into one sweep: destinations consume the free list in
        exactly the sequential pop order (identical allocations), and
        younger group members naturally observe older members' RAT
        writes — the paper's same-cycle dependency resolution.
        Branch/JALR micro-ops get their checkpoint mid-pass from
        ``uop.ghr_at_predict`` (set at group build).  The caller must
        have verified capacity: enough free physical registers for the
        group's writers and enough checkpoints for its branches.

        ``reg_state``, when given, is the physical register file's
        readiness list: each allocated destination is marked not-ready
        (0) in the same pass — the hardware truth that allocation
        clears the ready bit.  In-group consumers only read the state
        after the whole pass, so fusing the marks is equivalent.
        """
        rat = self.rat
        popleft = self.free_list.popleft
        for uop in uops:
            instr = uop.instr
            info = instr.info
            if info.reads_rs1 and instr.rs1 != 0:
                uop.prs1 = rat[instr.rs1]
            if info.reads_rs2 and instr.rs2 != 0:
                uop.prs2 = rat[instr.rs2]
            if instr.writes_rd:
                preg = popleft()
                uop.stale_prd = rat[instr.rd]
                uop.prd = preg
                rat[instr.rd] = preg
                if reg_state is not None:
                    reg_state[preg] = 0  # NOT_READY
            if info.casts_c_shadow:
                self.create_checkpoint(uop, uop.ghr_at_predict)

    # -- checkpoints ------------------------------------------------------

    def create_checkpoint(self, uop, ghr):
        """Snapshot the RAT for a branch being renamed; returns it."""
        if len(self._checkpoints) >= self.max_branches:
            raise RuntimeError("no free checkpoints (caller must stall)")
        checkpoint_id = self._next_checkpoint_id
        self._next_checkpoint_id += 1
        checkpoint = Checkpoint(checkpoint_id, list(self.rat), ghr, uop.seq)
        self._checkpoints[checkpoint_id] = checkpoint
        uop.checkpoint_id = checkpoint_id
        return checkpoint

    def get_checkpoint(self, checkpoint_id):
        return self._checkpoints[checkpoint_id]

    def release_checkpoint(self, checkpoint_id):
        """Branch retired (or squashed): drop its snapshot."""
        self._checkpoints.pop(checkpoint_id, None)

    def restore_checkpoint(self, checkpoint_id, squashed_uops):
        """Misprediction recovery: restore the RAT and reclaim registers.

        ``squashed_uops`` are all micro-ops younger than the branch, in
        any order; their destination registers return to the free list.
        Checkpoints younger than the branch are discarded.  Returns the
        restored checkpoint (for predictor/scheme recovery).
        """
        checkpoint = self._checkpoints.pop(checkpoint_id)
        self.rat = list(checkpoint.rat)
        for uop in squashed_uops:
            if uop.prd is not None:
                self.free_list.append(uop.prd)
        stale_ids = [
            cid
            for cid, cp in self._checkpoints.items()
            if cp.branch_seq > checkpoint.branch_seq
        ]
        for cid in stale_ids:
            del self._checkpoints[cid]
        return checkpoint

    # -- commit / flush -------------------------------------------------

    def commit(self, uop):
        """Retire a micro-op: update the architectural RAT, free the
        previous mapping of its destination register."""
        if uop.prd is not None:
            self.arch_rat[uop.instr.rd] = uop.prd
            if uop.stale_prd is not None and uop.stale_prd >= NUM_ARCH_REGS:
                self.free_list.append(uop.stale_prd)
            elif uop.stale_prd is not None and uop.stale_prd != uop.prd:
                # Initial identity mappings (p1..p31) become free once
                # their architectural register is renamed away.
                self.free_list.append(uop.stale_prd)

    def flush_all(self):
        """Full-pipeline flush (ordering violation at the ROB head):
        rebuild speculative state from the architectural RAT."""
        self.rat = list(self.arch_rat)
        live = set(self.arch_rat)
        live.add(0)
        self.free_list = deque(
            preg for preg in range(1, self.num_phys_regs) if preg not in live
        )
        self._checkpoints.clear()

    # -- invariants (used by property tests) -----------------------------

    def check_invariants(self):
        """Raise AssertionError if rename state is inconsistent."""
        mapped = [preg for preg in self.rat]
        if len(set(mapped)) != len(mapped):
            raise AssertionError("two architectural registers share a preg")
        free = set(self.free_list)
        if len(free) != len(self.free_list):
            raise AssertionError("duplicate entries in free list")
        overlap = free.intersection(mapped)
        if overlap:
            raise AssertionError("free list contains mapped registers: %s" % overlap)
        if self.rat[0] != 0:
            raise AssertionError("x0 must stay mapped to p0")
