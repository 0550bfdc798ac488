"""ShadowBinding reproduction.

A cycle-level reproduction of *ShadowBinding: Realizing Effective
Microarchitectures for In-Core Secure Speculation Schemes* (MICRO
2025): an out-of-order core model with pluggable secure-speculation
microarchitectures (STT-Rename, STT-Issue, NDA-Permissive), a
synthesis-substitute timing/area/power model, synthetic SPEC CPU2017
proxy workloads, and a campaign harness (``python -m repro run all``)
regenerating every table and figure of the paper's evaluation.

Quickstart::

    from repro import OoOCore, MEGA, assemble, make_scheme

    program = assemble('''
        li   t0, 5
        li   t1, 0
    loop:
        addi t1, t1, 7
        addi t0, t0, -1
        bne  t0, zero, loop
        sw   t1, 0(zero)
        halt
    ''')
    core = OoOCore(program, config=MEGA, scheme=make_scheme("stt-issue"))
    result = core.run()
    print(result.stats.summary())
"""

from repro.isa import Instruction, Opcode, Program, assemble, run_reference
from repro.pipeline import (
    CoreConfig,
    LARGE,
    MEDIUM,
    MEGA,
    OoOCore,
    SMALL,
    SimulationResult,
    boom_config,
    named_configs,
)
from repro.core import (
    BaselineScheme,
    DelayOnMissScheme,
    FenceScheme,
    NDAScheme,
    SCHEME_NAMES,
    STTIssueScheme,
    STTRenameScheme,
    ShadowTracker,
    make_scheme,
)

__version__ = "1.1.0"

__all__ = [
    "Instruction",
    "Opcode",
    "Program",
    "assemble",
    "run_reference",
    "CoreConfig",
    "SMALL",
    "MEDIUM",
    "LARGE",
    "MEGA",
    "boom_config",
    "named_configs",
    "OoOCore",
    "SimulationResult",
    "BaselineScheme",
    "STTRenameScheme",
    "STTIssueScheme",
    "NDAScheme",
    "FenceScheme",
    "DelayOnMissScheme",
    "ShadowTracker",
    "SCHEME_NAMES",
    "make_scheme",
    "__version__",
]
