"""Speculative shadow tracking (Section 6; Ghost Loads terminology).

A *shadow* marks a source of speculation; every younger instruction is
speculative until the shadow resolves.  This work, like the paper,
tracks:

* **C-shadows** — unresolved control flow: conditional branches and
  indirect jumps, cast at rename, resolved when the branch executes.
* **D-shadows** — potential store-to-load forwarding errors: stores
  whose address is not yet known, cast at rename, resolved at address
  generation.

The *visibility point* is the oldest active shadow; instructions older
than it are bound-to-commit (non-speculative).  Shadows resolve in any
order but the visibility point only advances monotonically within one
speculation epoch (squashes can remove younger shadows).
"""

C_SHADOW = "C"
D_SHADOW = "D"


class ShadowTracker:
    """Active speculation shadows and the visibility point."""

    def __init__(self):
        # seq -> shadow kind.  Small (bounded by in-flight branches +
        # stores), so min() scans are cheap.
        self._active = {}
        self._vp_cache = None
        self._vp_dirty = True
        self.shadows_cast = 0
        self.shadows_resolved = 0

    def cast(self, seq, kind):
        """Register a new shadow for the instruction with ``seq``."""
        self._active[seq] = kind
        self._vp_dirty = True
        self.shadows_cast += 1

    def resolve(self, seq):
        """Resolve a shadow (branch executed / store address known)."""
        if seq in self._active:
            del self._active[seq]
            self._vp_dirty = True
            self.shadows_resolved += 1

    def squash_younger(self, seq):
        """Drop shadows cast by squashed instructions (younger than seq)."""
        active = self._active
        if not active:
            return
        stale = [s for s in active if s > seq]
        if stale:
            for s in stale:
                del active[s]
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
        """Snapshot of (seq, kind) pairs, oldest first (for debugging)."""
        return sorted(self._active.items())

