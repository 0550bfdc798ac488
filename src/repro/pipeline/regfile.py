"""Physical register file: values plus readiness state.

Readiness has three states to support speculative L1-hit scheduling:

* ``NOT_READY`` — producer has not broadcast.
* ``SPEC_READY`` — a load predicted to hit L1 broadcast a speculative
  wakeup; consumers may issue but can be replayed if the load misses.
* ``READY`` — the value is architecturally available.

The register file is also the *wakeup broadcast bus*: every readiness
transition is pushed to an optional ``listener`` (the issue queue), so
the scheduler never re-scans its entries to discover that an operand
became usable.  The three notifications mirror the three edges of the
state machine:

* ``on_preg_usable``  — ``NOT_READY -> SPEC_READY`` (speculative wakeup;
  plain consumers may issue, store halves keep waiting for ``READY``);
* ``on_preg_ready``   — ``* -> READY`` (the architectural broadcast);
* ``on_preg_revoked`` — ``SPEC_READY -> NOT_READY`` (a speculative
  wakeup was wrong; consumers already marked ready must be demoted).

``write_value_only`` deliberately stays silent: the split data-write /
broadcast of the delayed-broadcast schemes (NDA, delay-on-miss) writes
the value while withholding the wakeup; the scheme releases it later
with ``set_ready`` from its event-scheduled visibility hook.
"""

NOT_READY = 0
SPEC_READY = 1
READY = 2


class PhysRegFile:
    """Physical register values, ready bits, and the wakeup bus."""

    def __init__(self, num_regs):
        if num_regs < 33:
            raise ValueError("need more than 32 physical registers")
        self.num_regs = num_regs
        self.values = [0] * num_regs
        self.state = [READY] * num_regs
        #: Wakeup consumer (the issue queue); optional so the register
        #: file stays usable standalone (unit tests, tools).
        self.listener = None

    def mark_alloc(self, preg):
        """A freshly-allocated destination is not ready until written.

        No notification: a new allocation cannot have consumers yet
        (consumers rename *after* the producer, in program order).
        """
        self.state[preg] = NOT_READY

    def write(self, preg, value):
        """Write a produced value and mark the register READY."""
        self.values[preg] = value
        if self.state[preg] != READY:
            self.state[preg] = READY
            if self.listener is not None:
                self.listener.on_preg_ready(preg)

    def write_value_only(self, preg, value):
        """Write the value but keep the current readiness (NDA's split
        data-write / broadcast: data lands in the register file while
        the broadcast is withheld)."""
        self.values[preg] = value

    def set_spec_ready(self, preg):
        if self.state[preg] == NOT_READY:
            self.state[preg] = SPEC_READY
            if self.listener is not None:
                self.listener.on_preg_usable(preg)

    def revoke_spec(self, preg):
        """A speculative wakeup turned out wrong (L1 miss)."""
        if self.state[preg] == SPEC_READY:
            self.state[preg] = NOT_READY
            if self.listener is not None:
                self.listener.on_preg_revoked(preg)

    def set_ready(self, preg):
        if self.state[preg] != READY:
            self.state[preg] = READY
            if self.listener is not None:
                self.listener.on_preg_ready(preg)

    def is_ready(self, preg):
        return self.state[preg] == READY

    def is_usable(self, preg):
        """Ready or speculatively ready (issue may proceed)."""
        return self.state[preg] != NOT_READY

    def is_spec(self, preg):
        return self.state[preg] == SPEC_READY

    def read(self, preg):
        return self.values[preg]
