"""Core configurations, including the four BOOM-style presets (Table 1).

The Small/Medium/Large/Mega presets mirror the paper's Table 1: core
width 1/2/3/4, one memory port (two for Mega), and 32/64/96/128 ROB
entries; the remaining structure sizes follow SonicBOOM's published
configurations at the model's level of abstraction.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from repro.memsys.hierarchy import MemConfig


@dataclass(frozen=True)
class CoreConfig:
    """All parameters of one core instance.

    Attributes mirror microarchitectural structure sizes; the timing,
    area, and power models consume the same record, so a configuration
    fully determines IPC *and* synthesis results.
    """

    name: str = "custom"
    #: Fetch/decode/rename/commit width (the paper's "core width").
    width: int = 4
    #: Maximum instructions selected for issue per cycle.
    issue_width: int = 4
    #: Memory ports: load/store micro-ops issued per cycle (Table 1).
    mem_width: int = 2
    rob_entries: int = 128
    iq_entries: int = 40
    ldq_entries: int = 32
    stq_entries: int = 32
    num_phys_regs: int = 128
    #: Maximum in-flight branches (rename checkpoints).
    max_branches: int = 16
    #: Cycles between fetch and rename availability (front-end depth).
    frontend_depth: int = 4
    #: Extra cycles to restart fetch after a mispredict redirect.
    redirect_penalty: int = 2
    #: Extra pipeline depth between issue and branch resolution (the
    #: register-read/execute/BRU stages a branch traverses before its
    #: C-shadow lifts and a misprediction is detected).
    branch_resolve_extra: int = 4
    fetch_buffer_entries: int = 16
    branch_predictor: str = "gshare"
    btb_entries: int = 256
    #: Number of pipelined multiply units / unpipelined divide units.
    mul_units: int = 1
    div_units: int = 1
    mem: MemConfig = field(default_factory=MemConfig)

    def validate(self):
        """Raise ValueError on inconsistent parameters."""
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if self.mem_width < 1:
            raise ValueError("mem_width must be >= 1")
        if self.rob_entries < self.width:
            raise ValueError("ROB must hold at least one rename group")
        if self.num_phys_regs < 32 + self.width:
            raise ValueError(
                "need at least 32 + width physical registers, got %d"
                % self.num_phys_regs
            )
        if self.max_branches < 1:
            raise ValueError("need at least one branch checkpoint")
        if self.iq_entries < self.width:
            raise ValueError("issue queue smaller than rename width")
        if self.ldq_entries < 1 or self.stq_entries < 1:
            raise ValueError("load/store queues must be non-empty")
        self.mem.validate()

    def scaled(self, **overrides):
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def to_dict(self):
        """Every parameter as a plain dict, nested MemConfig included."""
        return asdict(self)

    def fingerprint(self):
        """Stable content hash of every *simulation-relevant* parameter.

        The display ``name`` is excluded: it carries no identity, so
        two configurations that merely share a name (two ad-hoc
        ``CoreConfig(...)`` both called ``"custom"``) hash differently,
        while renaming a parameter-identical config hashes the same —
        caches keyed on the fingerprint neither alias the former nor
        needlessly resimulate the latter.

        The digest is computed once per instance and kept in the
        instance dict.  That is safe because ``CoreConfig`` and its
        nested ``MemConfig`` are frozen, so no field changes after
        construction; :meth:`scaled` (``dataclasses.replace``) builds a
        fresh instance through ``__init__``, so a derived config never
        inherits the digest; and ``to_dict``, equality, ``hash`` and
        ``repr`` read dataclass fields only, so the digest never reaches
        the wire format or any comparison.  A pickled or deep-copied
        config carries it along, and it is the same digest.
        """
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            data = self.to_dict()
            data.pop("name")
            blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", digest)
        return digest


def config_from_dict(data):
    """Rebuild a :class:`CoreConfig` from :meth:`CoreConfig.to_dict` output.

    The inverse used wherever configurations travel as plain JSON —
    most importantly the cluster wire protocol, which ships each grid
    cell's full configuration to its workers.  Unknown fields raise
    (a configuration from another model version must not silently
    simulate truncated), and the rebuilt config is validated before
    use.
    """
    data = dict(data)
    mem = data.pop("mem", None)
    config = CoreConfig(
        mem=MemConfig(**mem) if mem is not None else MemConfig(), **data
    )
    config.validate()
    return config


def boom_config(size):
    """Return one of the paper's four BOOM configurations by name.

    ``size`` is one of ``small``, ``medium``, ``large``, ``mega``
    (case-insensitive).
    """
    size = size.lower()
    if size not in _PRESETS:
        raise ValueError(
            "unknown BOOM config %r (choose from %s)" % (size, sorted(_PRESETS))
        )
    return _PRESETS[size]


SMALL = CoreConfig(
    name="small",
    width=1,
    issue_width=1,
    mem_width=1,
    rob_entries=32,
    iq_entries=10,
    ldq_entries=8,
    stq_entries=8,
    num_phys_regs=52,
    max_branches=6,
)

MEDIUM = CoreConfig(
    name="medium",
    width=2,
    issue_width=2,
    mem_width=1,
    rob_entries=64,
    iq_entries=20,
    ldq_entries=16,
    stq_entries=16,
    num_phys_regs=80,
    max_branches=10,
)

LARGE = CoreConfig(
    name="large",
    width=3,
    issue_width=3,
    mem_width=1,
    rob_entries=96,
    iq_entries=30,
    ldq_entries=24,
    stq_entries=24,
    num_phys_regs=100,
    max_branches=14,
)

MEGA = CoreConfig(
    name="mega",
    width=4,
    issue_width=4,
    mem_width=2,
    rob_entries=128,
    iq_entries=40,
    ldq_entries=32,
    stq_entries=32,
    num_phys_regs=128,
    max_branches=18,
)

_PRESETS = {
    "small": SMALL,
    "medium": MEDIUM,
    "large": LARGE,
    "mega": MEGA,
}


def named_configs():
    """The four paper configurations in ascending width order."""
    return [SMALL, MEDIUM, LARGE, MEGA]
