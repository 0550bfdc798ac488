"""Columnar trace storage: typed-layout coercion, payload round-trips,
and corruption rejection.

The serialisation contract (trace-v2) is load-bearing for the disk
cache: a payload must survive array -> payload -> array bit-identically
on any host, and *anything* damaged — stale version, foreign
endianness, bad base64, truncated buffers, disagreeing lengths,
non-boolean flags — must raise ``ValueError`` so the cache re-records
instead of replaying garbage.
"""

import base64
import json
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.trace import (
    _ITEMSIZE,
    _PAYLOAD_ENDIAN,
    TRACE_FORMAT_VERSION,
    DynamicTrace,
    record_trace,
)
from repro.workloads.kernels import streaming_kernel

_U64 = st.integers(min_value=0, max_value=2**64 - 1)
_S64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _make_trace(pcs, next_pcs, results, addrs, taken, l1_hit):
    return DynamicTrace(
        program_name="prop", program_len=max(len(pcs), 1), entry=0,
        pcs=pcs, next_pcs=next_pcs, results=results, addrs=addrs,
        taken=taken, l1_hit=l1_hit,
    )


@st.composite
def _columns(draw, max_len=64):
    n = draw(st.integers(min_value=0, max_value=max_len))
    return (
        draw(st.lists(_U64, min_size=n, max_size=n)),
        draw(st.lists(_U64, min_size=n, max_size=n)),
        draw(st.lists(_S64, min_size=n, max_size=n)),
        draw(st.lists(_U64, min_size=n, max_size=n)),
        bytes(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
        bytes(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
    )


@given(cols=_columns())
@settings(max_examples=60, deadline=None)
def test_payload_roundtrip_is_bit_identical(cols):
    trace = _make_trace(*cols)
    payload = trace.to_payload()
    # Payloads must be plain JSON all the way down.
    clone = DynamicTrace.from_payload(json.loads(json.dumps(payload)))
    assert list(clone.pcs) == list(cols[0])
    assert list(clone.next_pcs) == list(cols[1])
    assert list(clone.results) == list(cols[2])
    assert list(clone.addrs) == list(cols[3])
    assert clone.taken == cols[4]
    assert clone.l1_hit == cols[5]
    # Second hop is byte-identical: serialisation is canonical.
    assert clone.to_payload() == payload


@given(cols=_columns())
@settings(max_examples=30, deadline=None)
def test_typed_layout_and_list_coercion_agree(cols):
    typed = _make_trace(*cols)
    assert typed.pcs.typecode == "Q" and typed.results.typecode == "q"
    assert isinstance(typed.taken, bytes)
    # Constructing from the already-typed columns must not copy.
    again = _make_trace(typed.pcs, typed.next_pcs, typed.results,
                        typed.addrs, typed.taken, typed.l1_hit)
    assert again.pcs is typed.pcs and again.taken is typed.taken
    assert again.to_payload() == typed.to_payload()


def _good_payload():
    trace = _make_trace([1, 2, 3], [2, 3, 3], [-7, 0, 5], [0, 64, 0],
                        b"\x00\x01\x00", b"\x01\x00\x00")
    return trace.to_payload()


def test_payload_declares_canonical_format():
    payload = _good_payload()
    assert payload["format_version"] == TRACE_FORMAT_VERSION
    assert payload["endian"] == _PAYLOAD_ENDIAN == "little"
    assert payload["itemsize"] == _ITEMSIZE == 8
    # The encoded words really are the little-endian raw buffer.
    raw = base64.b64decode(payload["pcs"])
    assert raw == b"".join(v.to_bytes(8, "little") for v in (1, 2, 3))


@pytest.mark.parametrize("mutation", [
    {"format_version": "trace-v1"},
    {"format_version": None},
    {"endian": "big"},
    {"itemsize": 4},
    {"pcs": "!!not base64!!"},
    {"taken": "!!not base64!!"},
    # Truncated word buffer: 3 words minus one byte.
    {"results": base64.b64encode(bytes(23)).decode("ascii")},
    # Column length disagreement: 2 words where siblings have 3.
    {"addrs": base64.b64encode(bytes(16)).decode("ascii")},
    {"taken": base64.b64encode(b"\x00\x01").decode("ascii")},
    # Non-boolean flag bytes would silently flip replay decisions.
    {"taken": base64.b64encode(b"\x00\x02\x00").decode("ascii")},
    {"l1_hit": base64.b64encode(b"\xff\x00\x00").decode("ascii")},
])
def test_damaged_payloads_are_rejected(mutation):
    payload = dict(_good_payload())
    payload.update(mutation)
    with pytest.raises(ValueError):
        DynamicTrace.from_payload(payload)


def test_good_payload_still_loads():
    clone = DynamicTrace.from_payload(_good_payload())
    assert list(clone.results) == [-7, 0, 5]


def test_recorded_trace_uses_typed_columns():
    trace = record_trace(streaming_kernel(iterations=2, array_words=32))
    assert isinstance(trace.pcs, array) and trace.pcs.typecode == "Q"
    assert isinstance(trace.results, array) and trace.results.typecode == "q"
    assert isinstance(trace.taken, bytes) and isinstance(trace.l1_hit, bytes)
    assert len(trace) == len(trace.pcs) == len(trace.taken)
    assert trace.pcs[0] == trace.entry
