"""Trace cache: identity, reuse, disk persistence, corrupt fallback,
and the replay contract of the recorded columns."""

import json

import pytest

from repro.isa.interp import run_reference
from repro.isa.trace import TRACE_FORMAT_VERSION, DynamicTrace, record_trace
from repro.workloads.characteristics import SPEC_PROFILES
from repro.workloads.kernels import chase_kernel, streaming_kernel
from repro.workloads.program_cache import (
    cache_stats,
    cached_program,
    cached_spec_trace,
    cached_trace,
    clear_cache,
    configure_disk_cache,
    program_key,
    scaled_profile,
    trace_key,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    previous = configure_disk_cache(None)
    clear_cache()
    yield
    clear_cache()
    configure_disk_cache(previous)


# -- recording semantics ----------------------------------------------------


def test_recorded_trace_matches_reference_run():
    """One column row per retired instruction; final next_pc parks on
    the halt, and the step count matches the reference interpreter."""
    program = streaming_kernel(iterations=8, array_words=64)
    trace = record_trace(program)
    interp = run_reference(program)
    assert interp.state.halted
    assert len(trace) == interp.instructions_retired
    assert trace.pcs[0] == program.entry
    # The final HALT step records its own PC (the replayer never
    # advances past it).
    assert trace.next_pcs[-1] == trace.pcs[-1]
    trace.check_program(program)  # must not raise


def test_payload_round_trip():
    program = chase_kernel(iterations=6, ring_words=32)
    trace = record_trace(program)
    clone = DynamicTrace.from_payload(
        json.loads(json.dumps(trace.to_payload())))
    assert list(clone.pcs) == list(trace.pcs)
    assert list(clone.next_pcs) == list(trace.next_pcs)
    assert list(clone.results) == list(trace.results)
    assert list(clone.addrs) == list(trace.addrs)
    assert bytes(clone.taken) == bytes(trace.taken)


def test_from_payload_rejects_foreign_format():
    program = streaming_kernel(iterations=4, array_words=64)
    payload = record_trace(program).to_payload()
    payload["format_version"] = "trace-v0-ancient"
    with pytest.raises(ValueError):
        DynamicTrace.from_payload(payload)


def test_check_program_rejects_wrong_program():
    trace = record_trace(streaming_kernel(iterations=4, array_words=64))
    with pytest.raises(ValueError):
        trace.check_program(chase_kernel(iterations=4, ring_words=32))


# -- cache identity ---------------------------------------------------------


def test_trace_key_tracks_program_identity_and_format(monkeypatch):
    profile = SPEC_PROFILES["503.bwaves"]
    base = trace_key(scaled_profile(profile, 0.05), 2017)
    assert base == trace_key(scaled_profile(profile, 0.05), 2017)
    assert base != trace_key(scaled_profile(profile, 0.1), 2017)
    assert base != trace_key(scaled_profile(profile, 0.05), 2018)
    assert base != program_key(scaled_profile(profile, 0.05), 2017)
    import repro.workloads.program_cache as module

    monkeypatch.setattr(module, "TRACE_FORMAT_VERSION", "trace-v999-test")
    assert trace_key(scaled_profile(profile, 0.05), 2017) != base


def test_repeated_requests_share_one_trace():
    profile = scaled_profile(SPEC_PROFILES["505.mcf"], 0.05)
    first = cached_trace(profile)
    second = cached_trace(profile)
    assert first is second  # same object, recorded once
    stats = cache_stats()
    assert stats["trace_misses"] == 1 and stats["trace_hits"] == 1
    assert stats["trace_entries"] == 1
    # A trace request primes the program cache too.
    assert cached_program(profile) is not None
    assert cache_stats()["hits"] == 1


def test_unknown_benchmark_raises_keyerror():
    with pytest.raises(KeyError):
        cached_spec_trace("no.such.benchmark", scale=0.05)


# -- disk layer -------------------------------------------------------------


def test_disk_round_trip_across_processes(tmp_path):
    """A second 'process' (fresh in-memory cache, same directory) loads
    the persisted trace instead of re-recording."""
    configure_disk_cache(tmp_path)
    profile = scaled_profile(SPEC_PROFILES["503.bwaves"], 0.05)
    first = cached_trace(profile)
    key = trace_key(profile, 2017)
    assert (tmp_path / ("%s.trace.json" % key)).is_file()

    clear_cache()  # simulate a fresh process sharing the directory
    second = cached_trace(profile)
    assert second is not first
    assert cache_stats()["trace_disk_hits"] == 1
    assert list(second.next_pcs) == list(first.next_pcs)
    assert list(second.results) == list(first.results)


def test_corrupt_disk_file_falls_back_to_rerecording(tmp_path):
    configure_disk_cache(tmp_path)
    profile = scaled_profile(SPEC_PROFILES["505.mcf"], 0.05)
    reference = cached_trace(profile)
    key = trace_key(profile, 2017)
    path = tmp_path / ("%s.trace.json" % key)

    for garbage in ("", "{not json", json.dumps({"format_version": "x"}),
                    json.dumps({"format_version": TRACE_FORMAT_VERSION})):
        path.write_text(garbage)
        clear_cache()
        recovered = cached_trace(profile)
        assert cache_stats()["trace_disk_hits"] == 0
        assert list(recovered.next_pcs) == list(reference.next_pcs)
        # The re-record repaired the file on disk.
        repaired = json.loads(path.read_text())
        assert repaired["format_version"] == TRACE_FORMAT_VERSION


def test_mismatched_persisted_trace_is_rerecorded(tmp_path):
    """A parseable file whose contents belong to a different program
    (key collision / stale wiring) fails check_program and re-records."""
    configure_disk_cache(tmp_path)
    profile = scaled_profile(SPEC_PROFILES["503.bwaves"], 0.05)
    key = trace_key(profile, 2017)
    impostor = record_trace(streaming_kernel(iterations=4, array_words=64))
    (tmp_path / ("%s.trace.json" % key)).write_text(
        json.dumps(impostor.to_payload()))

    trace = cached_trace(profile)
    trace.check_program(cached_program(profile))  # must not raise
    assert len(trace) != len(impostor)
