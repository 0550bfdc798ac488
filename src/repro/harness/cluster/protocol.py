"""Wire protocol of the loopback cluster (stdlib-only).

**Framing.**  A frame is a 4-byte big-endian unsigned payload length
followed by that many bytes of UTF-8 JSON encoding one object with a
``kind`` field.  Frames larger than :data:`MAX_FRAME_BYTES` are
rejected (a corrupt length prefix must not allocate gigabytes).

**Conversation.**  Each worker talks to the coordinator over its own
``socket.socketpair()``, so every frame comes from this process.  The
worker speaks first, and the coordinator answers every frame:

==================  ============================================
worker sends        coordinator answers
==================  ============================================
``steal``           ``cell`` (the next spec) or ``done``
``result``          ``cell`` (the next spec) or ``done``
``error``           ``cell`` (the next spec) or ``done``
==================  ============================================

``steal`` is the worker's first frame; after that it sends ``result``
or ``error`` for the cell it holds.  A cell therefore costs two
frames: its ``cell`` and its ``result``.  The coordinator answers
``done`` once its queue is empty or the campaign aborted, and the
worker then ends.

**Result frames** carry :meth:`~repro.pipeline.core.SimulationResult.to_dict`
coded against the cell's program: ``memory`` holds only the words
that differ from the program's initial image, and ``memory_base``
names that image by its digest.  The coordinator decodes the record
to a view over its own copy of the program's image, as the pool does.

**Error frames** carry the simulation's exception as ``error`` and
its ``traceback``; the coordinator settles the cell as a
``deterministic`` :class:`~repro.harness.store.CellFailure`.

**Cell specs on the wire.**  :func:`spec_to_wire` expands a spec tuple
into plain JSON — the *complete* ``CoreConfig`` parameter record
travels with every cell (via ``CoreConfig.to_dict`` /
:func:`~repro.pipeline.config.config_from_dict`), so a worker
simulates exactly the configuration the coordinator hashed, never a
same-named approximation.
"""

import json
import socket
import struct

from repro.pipeline.config import config_from_dict

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
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def shutdown(sock):
    """End both directions of ``sock``, waking whoever is blocked on
    either end of it; a socket already shut down or closed is left
    as it is."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


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
