"""Speculative shadow tracking (Section 6; Ghost Loads terminology).

A *shadow* marks a source of speculation; every younger instruction is
speculative until the shadow resolves.  This work, like the paper,
tracks two kinds:

* **C-shadows** — unresolved control flow: conditional branches and
  indirect jumps, cast at rename, resolved when the branch executes.
  This tracker holds them.
* **D-shadows** — potential store-to-load forwarding errors, kept per
  load: a load that executed past older stores with unknown addresses
  names them in its ``pending_stores``, and the core lists it in
  ``d_pending`` until the last of those stores resolves its address
  (:mod:`repro.pipeline.lsu`).  A load is bound-to-commit when it is
  at or before the visibility point and not in ``d_pending``
  (:meth:`~repro.pipeline.core.OoOCore.is_load_safe`).

The *visibility point* is the oldest active C-shadow; instructions
older than it are bound-to-commit with respect to control flow.
Shadows resolve in any order but the visibility point only advances
monotonically within one speculation epoch (squashes can remove
younger shadows).
"""


class ShadowTracker:
    """Active C-shadows and the visibility point."""

    def __init__(self):
        # Seqs of the shadow-casting instructions.  Small (bounded by
        # in-flight branches), so min() scans are cheap.
        self._active = set()
        self._vp_cache = None
        self._vp_dirty = True

    def cast(self, seq):
        """Register a new shadow for the instruction with ``seq``."""
        self._active.add(seq)
        self._vp_dirty = True

    def resolve(self, seq):
        """Resolve a shadow (the branch executed)."""
        if seq in self._active:
            self._active.remove(seq)
            self._vp_dirty = True

    def squash_younger(self, seq):
        """Drop shadows cast by squashed instructions (younger than seq)."""
        active = self._active
        if not active:
            return
        stale = [s for s in active if s > seq]
        if stale:
            active.difference_update(stale)
            self._vp_dirty = True

    def clear(self):
        """Full-pipeline flush: no in-flight instructions, no shadows."""
        if self._active:
            self._active.clear()
            self._vp_dirty = True

    def visibility_point(self):
        """Sequence number of the oldest active shadow, or None.

        ``None`` means no speculation is in flight: everything renamed
        so far is bound-to-commit.
        """
        if self._vp_dirty:
            self._vp_cache = min(self._active) if self._active else None
            self._vp_dirty = False
        return self._vp_cache

    def is_safe(self, seq):
        """True if the instruction with ``seq`` is bound-to-commit.

        An instruction is safe when no *older* shadow is active.  A
        shadow source is itself safe with respect to its own shadow.
        """
        vp = self.visibility_point()
        return vp is None or seq <= vp

    def active_count(self):
        return len(self._active)

    def active_shadows(self):
        """Seqs of the active shadows, oldest first (for debugging)."""
        return sorted(self._active)
