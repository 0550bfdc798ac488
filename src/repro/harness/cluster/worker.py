"""Cluster worker: ask for a cell, simulate it, report it, repeat.

:func:`work` is the worker's side of the conversation in
:mod:`repro.harness.cluster.protocol`.  It funnels every cell through
the same :func:`~repro.harness.parallel.simulate_cell` the serial and
pool backends use (and therefore through the content-addressed program
cache), so a cell simulates bit-identically wherever it runs.

A cell that raises is reported as an ``error`` frame.  A hung cell
needs no wall-clock deadline here: the kernel's watchdog and
``max_cycles`` raise inside the cell.  Anything else that ends the
worker closes its socket, which the coordinator sees as the
connection ending before ``done``.
"""

import traceback

from repro.harness.cluster.protocol import (
    ProtocolError,
    recv_frame,
    send_frame,
    spec_from_wire,
)
from repro.harness.parallel import simulate_cell
from repro.workloads.program_cache import cached_spec_program


def work(sock):
    """Simulate the cells served on ``sock`` until the coordinator
    answers ``done`` or ends the connection; closes ``sock``."""
    try:
        send_frame(sock, {"kind": "steal"})
        reply = recv_frame(sock)
        while reply is not None and reply["kind"] == "cell":
            send_frame(sock, _report(spec_from_wire(reply["spec"])))
            reply = recv_frame(sock)
    except (OSError, ProtocolError):
        pass  # the coordinator ended the connection: the campaign aborted
    finally:
        sock.close()


def _report(spec):
    """The ``result`` frame of one simulated cell, or its ``error``."""
    try:
        result = simulate_cell(spec)
    except Exception as exc:
        return {"kind": "error", "error": "%s: %s" % (type(exc).__name__, exc),
                "traceback": traceback.format_exc()}
    # The memory image travels as the words the cell changed.
    benchmark, _config, _scheme, _kwargs, scale, seed = spec
    program = cached_spec_program(benchmark, scale=scale, seed=seed)
    return {"kind": "result", "result": result.to_dict(program)}
