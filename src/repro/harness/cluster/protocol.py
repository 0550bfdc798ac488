"""Wire protocol of the campaign cluster (stdlib-only, versioned).

**Framing.**  A frame is a 4-byte big-endian unsigned payload length
followed by that many bytes of UTF-8 JSON encoding one object with a
``kind`` field.  Frames larger than :data:`MAX_FRAME_BYTES` are
rejected (a corrupt length prefix must not allocate gigabytes).

**Conversation.**  Strictly request/response over one TCP connection
per worker, so the coordinator never interleaves replies.

==================  =====================================  ==========
worker sends        coordinator replies                    when
==================  =====================================  ==========
``hello``           ``welcome`` (cells total, protocol)    on connect
                    / ``reject`` (protocol or model
                    version mismatch)
``steal``           ``cell`` (cell_id + spec) /            worker idle
                    ``wait`` (queue empty, grid live) /
                    ``done`` (grid complete or failed)
``result``          ``ack``                                cell done
``error``           ``ack``                                cell raised
``bye``             ``ack``                                clean exit
==================  =====================================  ==========

**Telemetry.**  A ``result`` frame may carry an optional ``telemetry``
sibling object (see :func:`repro.obs.cell_telemetry`): wall-clock
seconds, replay counters, fast-forward engagement, and the worker's
peak RSS.  It rides *beside* the result, never inside it — stored
results must stay byte-identical across backends — and it is
deliberately unversioned: a coordinator ignores its absence, so the
field's introduction did not bump :data:`PROTOCOL_VERSION`.

**Error frames** carry the worker-side ``traceback`` beside the
message (protocol generation 2).  The simulation raised, so the
coordinator settles the cell as a ``deterministic``
:class:`~repro.harness.store.CellFailure` carrying both.  Generation 2
also carried a ``failure_kind`` naming a watchdog ``timeout``;
generation 6 drops it with the wall-clock watchdog that set it.

**Packed memory images** (protocol generation 3).  A ``result``
frame carries :meth:`~repro.pipeline.core.SimulationResult.to_dict`,
whose ``memory`` is a list of contiguous runs,
``[[base, [v0, v1, ...]], ...]``, instead of the generation-2
``{"address": value}`` object.  A generation-2 coordinator would call
``.items()`` on the list, so the bump makes a mixed pair refuse at
``hello`` rather than fail on the first result.

**Memory deltas** (protocol generation 4).  A ``result`` frame's
``memory`` holds only the words that differ from the cell's program's
initial image, and ``memory_base`` names that image by its digest
(``SimulationResult.to_dict(program)``): a campaign cell changes a
handful of its thousands of words, so the frame shrinks from tens of
kilobytes to under 2 KiB.  The coordinator decodes it to a view over
its own copy of the program's image (the pool ships results the same
way), and treats a frame that does not decode — a malformed image, or
a delta against another image — as a protocol error: the worker is
dropped and its cell requeued.  A generation-3 coordinator would read
the delta as the whole image, hence the bump.

**Cell specs on the wire.**  :func:`spec_to_wire` expands a spec tuple
into plain JSON — the *complete* ``CoreConfig`` parameter record
travels with every cell (via ``CoreConfig.to_dict`` /
:func:`~repro.pipeline.config.config_from_dict`), so a worker
simulates exactly the configuration the coordinator hashed, never a
same-named approximation.

**Model version** (protocol generation 5).  ``hello`` carries the
worker's :data:`~repro.harness.store.MODEL_VERSION`, the stamp hashed
into every cell key.  The coordinator rejects a worker whose stamp
differs from its own: the coordinator stores each result under a key
it computed with *its* version, so a worker running another model
would otherwise have its results trusted as this model's.  A worker
without the field (an older build) is rejected by the protocol
generation first.

**Requeue semantics.**  The coordinator owns the queue.  A cell
leaves the queue when stolen and is marked in-flight against that
worker; it completes on ``result``/``error``, and is pushed back to
the *front* of the queue if its worker dies first (socket EOF or
error).  Cells are deterministic and content-addressed, so a late
result for a requeued cell is indistinguishable from the rerun — the
first result for a cell wins and duplicates are ack'd and dropped.  A cell whose worker
dies ``max_cell_attempts`` times is *quarantined* (recorded as a
``poisoned`` :class:`~repro.harness.store.CellFailure`, never
requeued) so a worker-killing cell costs one cell, not every worker
in turn; a late result for a quarantined cell still wins and clears
the quarantine.
"""

import json
import socket
import struct

from repro.pipeline.config import config_from_dict

#: Protocol generation, exchanged in hello/welcome; mismatches refuse.
#: 2: structured error frames (``failure_kind``/``traceback``).
#: 3: result frames carry the packed-run memory image.
#: 4: result frames carry the memory words a cell changed.
#: 5: ``hello`` carries the model version instead of a per-scheme map.
#: 6: no ``heartbeat`` kind; error frames carry no ``failure_kind``.
PROTOCOL_VERSION = 6

#: Upper bound on one frame's payload (a campaign cell's result frame
#: is under 2 KiB; 64 MiB is comfortably above any real frame).
MAX_FRAME_BYTES = 64 << 20

_LENGTH = struct.Struct(">I")


class ProtocolError(Exception):
    """A malformed, oversized, or out-of-protocol frame."""


def frame_payload(message):
    """Serialise ``message`` to the frame payload bytes (size-checked)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds limit" % len(payload))
    return payload


def send_frame(sock, message):
    """Serialise ``message`` (a dict) and send it as one frame."""
    payload = frame_payload(message)
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_frame(sock):
    """Receive one frame; returns its dict, or ``None`` on clean EOF."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds limit" % length)
    payload = _recv_exact(sock, length)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("undecodable frame: %s" % exc)
    if not isinstance(message, dict) or "kind" not in message:
        raise ProtocolError("frame is not a kind-tagged object")
    return message


def _recv_exact(sock, count):
    """Read exactly ``count`` bytes; ``None`` on EOF at a frame boundary.

    EOF *inside* a frame (header or payload) raises
    :class:`ProtocolError` — callers uniformly treat that as a dead
    peer, never as a short read to reinterpret.
    """
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            continue
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def spec_to_wire(spec):
    """Expand a cell-spec tuple into its JSON wire form."""
    benchmark, config, scheme_name, scheme_kwargs, scale, seed = spec
    return {
        "benchmark": benchmark,
        "config": config.to_dict(),
        "scheme": scheme_name,
        "scheme_kwargs": dict(scheme_kwargs or {}),
        "scale": scale,
        "seed": seed,
    }


def spec_from_wire(data):
    """Rebuild the cell-spec tuple from :func:`spec_to_wire` output."""
    return (
        data["benchmark"],
        config_from_dict(data["config"]),
        data["scheme"],
        tuple(sorted(data.get("scheme_kwargs", {}).items())),
        data["scale"],
        data["seed"],
    )
