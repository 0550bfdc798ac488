"""Content-addressed program cache: identity, reuse, invalidation,
and the persistent (disk) layer."""

import gc
import io
import json
import pathlib
import tracemalloc

import pytest

from repro.isa.program import PackedImage
from repro.workloads.characteristics import SPEC_PROFILES
from repro.workloads.program_cache import (
    PROGRAM_FORMAT_VERSION,
    cache_stats,
    cached_program,
    cached_spec_program,
    clear_cache,
    configure_disk_cache,
    disk_cache_dir,
    program_key,
    scaled_profile,
)
from repro.workloads.spec2017 import spec_suite


@pytest.fixture(autouse=True)
def fresh_cache():
    previous = configure_disk_cache(None)
    clear_cache()
    yield
    clear_cache()
    configure_disk_cache(previous)


def test_repeated_requests_share_one_program():
    first = cached_spec_program("503.bwaves", scale=0.05)
    second = cached_spec_program("503.bwaves", scale=0.05)
    assert first is second  # same object, generated once
    stats = cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


def test_key_tracks_profile_seed_and_scale():
    profile = SPEC_PROFILES["503.bwaves"]
    base = program_key(scaled_profile(profile, 1.0), 2017)
    assert base == program_key(scaled_profile(profile, 1.0), 2017)
    assert base != program_key(scaled_profile(profile, 0.5), 2017)
    assert base != program_key(scaled_profile(profile, 1.0), 2018)
    other = SPEC_PROFILES["505.mcf"]
    assert base != program_key(scaled_profile(other, 1.0), 2017)


def test_generator_version_participates(monkeypatch):
    profile = scaled_profile(SPEC_PROFILES["503.bwaves"], 0.05)
    before = program_key(profile, 2017)
    import repro.workloads.program_cache as module

    monkeypatch.setattr(module, "GENERATOR_VERSION", "999-test")
    assert program_key(profile, 2017) != before


def test_cached_program_matches_direct_generation():
    from repro.workloads.generator import generate_program

    profile = scaled_profile(SPEC_PROFILES["548.exchange2"], 0.05)
    cached = cached_program(profile, seed=2017)
    direct = generate_program(profile, seed=2017)
    assert [str(i) for i in cached.instructions] == [
        str(i) for i in direct.instructions]
    assert cached.initial_memory == direct.initial_memory


def test_spec_suite_routes_through_cache():
    spec_suite(scale=0.05, benchmarks=("503.bwaves", "505.mcf"))
    assert cache_stats()["misses"] == 2
    spec_suite(scale=0.05, benchmarks=("503.bwaves", "505.mcf"))
    stats = cache_stats()
    assert stats["misses"] == 2 and stats["hits"] == 2


def test_unknown_benchmark_still_raises_keyerror():
    with pytest.raises(KeyError):
        cached_spec_program("no.such.benchmark", scale=0.05)


def test_spec_lookups_key_each_triple_once(monkeypatch):
    # A cell asks for its program and trace from several places; after
    # the first ask, a (benchmark, scale, seed) triple's keys are a
    # memo lookup.
    import repro.workloads.program_cache as module

    calls = []

    def counting(profile, seed):
        calls.append(seed)
        return program_key(profile, seed)

    monkeypatch.setattr(module, "program_key", counting)
    program = cached_spec_program("548.exchange2", scale=0.05)
    trace = module.cached_spec_trace("548.exchange2", scale=0.05)
    for _ in range(3):
        assert cached_spec_program("548.exchange2", scale=0.05) is program
        assert module.cached_spec_trace("548.exchange2", scale=0.05) is trace
        assert spec_suite(scale=0.05, benchmarks=["548.exchange2"]) == [
            ("548.exchange2", program)]
    assert len(calls) == 1
    # Another triple is keyed once more; clear_cache forgets the memo.
    cached_spec_program("548.exchange2", scale=0.05, seed=7)
    assert len(calls) == 2
    clear_cache()
    assert cached_spec_program("548.exchange2", scale=0.05) is not program
    assert len(calls) == 3


# -- disk layer -------------------------------------------------------------


def test_disk_cache_round_trips_across_processes(tmp_path):
    """A second 'process' (cleared in-memory cache) must reload the
    persisted program instead of regenerating, bit-identical."""
    configure_disk_cache(tmp_path)
    assert disk_cache_dir() == tmp_path
    first = cached_spec_program("548.exchange2", scale=0.05)
    assert len(list(tmp_path.glob("*.json"))) == 1

    clear_cache()  # simulate a fresh process sharing the directory
    second = cached_spec_program("548.exchange2", scale=0.05)
    assert second is not first
    assert cache_stats()["disk_hits"] == 1
    assert [str(i) for i in second.instructions] == [
        str(i) for i in first.instructions]
    assert second.initial_memory == first.initial_memory
    assert second.initial_regs == first.initial_regs
    assert (second.name, second.entry) == (first.name, first.entry)


def test_disk_files_hold_the_streaming_encoders_bytes(tmp_path):
    """Program and trace files are written in one ``json.dumps`` call;
    their bytes are those ``json.dump`` streams for the same payload."""
    from repro.workloads import program_cache

    configure_disk_cache(tmp_path)
    program = cached_spec_program("548.exchange2", scale=0.05)
    trace = program_cache.cached_spec_trace("548.exchange2", scale=0.05)
    (program_path,) = tmp_path.glob("*.%s.json" % PROGRAM_FORMAT_VERSION)
    (trace_path,) = tmp_path.glob("*.trace.json")
    for path, payload in (
            (program_path, program_cache._program_to_payload(program)),
            (trace_path, trace.to_payload())):
        streamed = io.StringIO()
        json.dump(payload, streamed, separators=(",", ":"))
        assert path.read_text() == streamed.getvalue(), path.name


def test_disk_cached_program_simulates_identically(tmp_path):
    """The deserialised program must drive the core to the exact same
    result as the in-memory generation."""
    from repro.pipeline.config import SMALL
    from repro.pipeline.core import OoOCore

    configure_disk_cache(tmp_path)
    generated = cached_spec_program("503.bwaves", scale=0.05)
    clear_cache()
    reloaded = cached_spec_program("503.bwaves", scale=0.05)
    a = OoOCore(generated, config=SMALL, warm_caches=True).run()
    b = OoOCore(reloaded, config=SMALL, warm_caches=True).run()
    assert a.to_dict() == b.to_dict()


def test_old_format_file_is_ignored(tmp_path, monkeypatch):
    """Program files in the layouts before PROGRAM_FORMAT_VERSION (the
    image as two JSON columns at ``<key>.program-v2.json``, and as a
    ``{"address": value}`` object at ``<key>.json``) are never opened:
    the program is regenerated, identically, and its current file
    written beside the old ones, which are never opened either."""
    from repro.workloads import program_cache
    from repro.workloads.generator import generate_program

    profile = scaled_profile(SPEC_PROFILES["503.bwaves"], 0.05)
    key = program_key(profile, 2017)
    direct = generate_program(profile, seed=2017)
    # The old layouts, each word changed so a misread would show.
    memory = direct.initial_memory
    program_fields = {
        "name": direct.name,
        "entry": direct.entry,
        "instructions": [[i.op.value, i.rd, i.rs1, i.rs2, i.imm, i.label]
                         for i in direct.instructions],
        "initial_regs": {str(r): v for r, v in direct.initial_regs.items()},
    }
    old = {
        tmp_path / ("%s.program-v2.json" % key): dict(
            program_fields, initial_memory=[
                list(memory), [v + 1 for v in memory.values()]]),
        tmp_path / ("%s.json" % key): dict(
            program_fields, initial_memory={
                str(a): v + 1 for a, v in memory.items()}),
    }
    for path, payload in old.items():
        path.write_text(json.dumps(payload))
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(pathlib.Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(program_cache, "open", recording_open, raising=False)
    configure_disk_cache(tmp_path)
    program = cached_spec_program("503.bwaves", scale=0.05)
    stats = cache_stats()
    assert stats["disk_hits"] == 0 and stats["misses"] == 1
    assert [str(i) for i in program.instructions] == [
        str(i) for i in direct.instructions]
    assert list(program.initial_memory.items()) == list(memory.items())
    assert program.image_digest == direct.image_digest
    # The regeneration wrote the current layout beside the old file,
    # and a fresh process reads it back in the image's own order.
    new_path = tmp_path / ("%s.%s.json" % (key, PROGRAM_FORMAT_VERSION))
    assert set(tmp_path.glob("*.json")) == set(old) | {new_path}
    clear_cache()
    reloaded = cached_spec_program("503.bwaves", scale=0.05)
    assert cache_stats()["disk_hits"] == 1
    assert list(reloaded.initial_memory.items()) == list(memory.items())
    assert set(opened) == {new_path.name}
    for path, payload in old.items():
        assert json.loads(path.read_text()) == payload


def test_program_file_with_ragged_columns_is_a_miss(tmp_path):
    configure_disk_cache(tmp_path)
    program = cached_spec_program("503.bwaves", scale=0.05)
    (path,) = tmp_path.glob("*.json")
    whole = path.read_text()
    payload = json.loads(whole)
    # 16,704 words are 133,632 bytes, a multiple of 3: the base64 text
    # has no padding, and dropping whole quanta drops three values.
    payload["initial_memory"]["values"] = \
        payload["initial_memory"]["values"][:-32]
    path.write_text(json.dumps(payload))
    clear_cache()
    reloaded = cached_spec_program("503.bwaves", scale=0.05)
    assert cache_stats()["disk_hits"] == 0
    assert list(reloaded.initial_memory.items()) == list(
        program.initial_memory.items())
    assert path.read_text() == whole  # rewritten whole


def warmed_l2(program):
    """The L2 snapshot the first warm core of ``program`` records."""
    from repro.pipeline.config import MEGA
    from repro.pipeline.core import OoOCore

    OoOCore(program, config=MEGA, warm_caches=True)
    (snapshot,) = [value for key, value in program.start_state.items()
                   if key[0] == "warm-l2"]
    return [list(cache_set) for cache_set in snapshot[0]], snapshot[1]


@pytest.mark.parametrize("disk", [False, True], ids=["generated", "loaded"])
def test_cached_images_are_the_generated_ones(disk, tmp_path):
    """Packing changes no word, no order, no digest and no warm-up."""
    from repro.workloads.generator import generate_program

    if disk:
        configure_disk_cache(tmp_path)
        for name in SPEC_PROFILES:
            cached_spec_program(name, scale=0.05)
        clear_cache()
    for name, profile in SPEC_PROFILES.items():
        cached = cached_spec_program(name, scale=0.05)
        direct = generate_program(scaled_profile(profile, 0.05), seed=2017)
        assert isinstance(cached.initial_memory, PackedImage), name
        assert type(direct.initial_memory) is dict
        assert list(cached.initial_memory.items()) == list(
            direct.initial_memory.items()), name
        assert cached.image_digest == direct.image_digest, name
        assert warmed_l2(cached) == warmed_l2(direct), name
    assert cache_stats()["disk_hits"] == (len(SPEC_PROFILES) if disk else 0)


#: Bytes a loaded program may retain per image word: two 8-byte columns,
#: 8 more bytes a word in its shuffled pointer ring, and the
#: instructions (18.4 for this program).  A dict of Python ints retains
#: about 90.
MAX_BYTES_PER_IMAGE_WORD = 32


def test_loaded_program_retains_its_image_packed(tmp_path):
    configure_disk_cache(tmp_path)
    cached_spec_program("503.bwaves", scale=0.05)
    clear_cache()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        program = cached_spec_program("503.bwaves", scale=0.05)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cache_stats()["disk_hits"] == 1
    words = len(program.initial_memory)
    assert words == 16_704
    assert retained / words <= MAX_BYTES_PER_IMAGE_WORD, (
        "the loaded program retains %.1f bytes per image word"
        % (retained / words))


def test_cached_image_is_read_only():
    program = cached_spec_program("548.exchange2", scale=0.05)
    address = next(iter(program.initial_memory))
    with pytest.raises(TypeError):
        program.initial_memory[address] = 1
    with pytest.raises(TypeError):
        program.initial_memory[-1] = 1
    assert -1 not in program.initial_memory


def test_corrupt_disk_entry_falls_back_to_regeneration(tmp_path):
    configure_disk_cache(tmp_path)
    cached_spec_program("503.bwaves", scale=0.05)
    (path,) = tmp_path.glob("*.json")
    path.write_text("{broken json")
    clear_cache()
    program = cached_spec_program("503.bwaves", scale=0.05)
    program.validate()
    stats = cache_stats()
    assert stats["disk_hits"] == 0 and stats["misses"] == 1
    # The regeneration repaired the on-disk entry.
    json.loads(path.read_text())


def test_disk_layer_optional():
    """With no directory configured nothing is written anywhere."""
    assert disk_cache_dir() is None
    program = cached_spec_program("503.bwaves", scale=0.05)
    program.validate()
