"""PackedImage: a read-only memory image over array columns that reads
exactly like the dict it packs."""

import pickle

import pytest

from repro.isa.program import PackedImage, Program, address_runs

#: Three runs, inserted out of address order, the middle one shuffled
#: (as a generated proxy's pointer ring is).
MEMORY = {
    0x1000: 5, 0x1001: -7, 0x1002: 0,
    0x100003: 9, 0x100001: 1 << 40, 0x100002: 3, 0x100000: -(1 << 63),
    8: (1 << 63) - 1,
}


def test_reads_like_the_dict_it_packs():
    image = PackedImage.pack(MEMORY)
    assert list(image) == list(MEMORY)
    assert list(image.keys()) == list(MEMORY.keys())
    assert list(image.values()) == list(MEMORY.values())
    assert list(image.items()) == list(MEMORY.items())
    assert len(image) == len(MEMORY)
    assert image == MEMORY and MEMORY == image
    for address, value in MEMORY.items():
        assert image[address] == value
        assert image.get(address) == value
        assert address in image
    assert min(image) == 8 and max(image.values()) == (1 << 63) - 1
    assert image.keys() == MEMORY.keys()


@pytest.mark.parametrize("address", [
    -1, 0, 7, 9, 0x0FFF, 0x1003, 0xFFFFF, 0x100004, 1 << 64])
def test_addresses_outside_every_run_miss(address):
    image = PackedImage.pack(MEMORY)
    assert address not in image
    assert image.get(address) is None
    assert image.get(address, 0) == 0
    with pytest.raises(KeyError):
        image[address]


def test_runs_are_the_contiguous_address_ranges():
    runs, addresses, values, slots = PackedImage.pack(MEMORY).columns()
    # Runs in column order name their first column; the shuffled one
    # lists its columns in slots.
    assert runs == [[8, 1, 7], [0x1000, 3, 0], [0x100000, 4, None]]
    assert list(addresses) == list(MEMORY)
    assert list(values) == list(MEMORY.values())
    assert [addresses[slot] for slot in slots] == [
        0x100000, 0x100001, 0x100002, 0x100003]
    assert address_runs([1, 2, 3, 7, 9, 10]) == [(0, 3), (3, 4), (4, 6)]
    assert address_runs([]) == []


def test_is_read_only():
    image = PackedImage.pack(MEMORY)
    with pytest.raises(TypeError):
        image[0x1000] = 1
    with pytest.raises(TypeError):
        del image[0x1000]
    assert not hasattr(image, "update")


def test_columns_rebuild_and_pickle_the_image():
    image = PackedImage.pack(MEMORY)
    rebuilt = PackedImage(*image.columns())
    assert list(rebuilt.items()) == list(MEMORY.items())
    assert list(pickle.loads(pickle.dumps(image)).items()) == list(
        MEMORY.items())


def test_empty_image():
    image = PackedImage.pack({})
    assert len(image) == 0 and list(image.items()) == []
    assert 0 not in image and image.get(0, 1) == 1
    assert Program([], initial_memory=image).image_digest \
        == Program([]).image_digest


def test_columns_that_disagree_are_refused():
    runs, addresses, values, slots = PackedImage.pack(MEMORY).columns()
    with pytest.raises(ValueError):
        PackedImage(runs, addresses, values[:-1], slots)
    with pytest.raises(ValueError):
        PackedImage(runs[:-1], addresses, values, slots)
    with pytest.raises(ValueError):
        PackedImage([runs[1], runs[0], runs[2]], addresses, values, slots)
    with pytest.raises(ValueError):
        PackedImage([[8, 2, 7], [9, 2, 0], [0x100000, 4, None]], addresses,
                    values, slots)
    with pytest.raises(ValueError):
        PackedImage([runs[0], [0x1000, 3, 6], runs[2]], addresses, values,
                    slots)
    with pytest.raises(ValueError):
        PackedImage(runs, addresses, values, slots[:-1])


def test_digest_is_the_dicts():
    image = PackedImage.pack(MEMORY)
    assert Program([], initial_memory=image).image_digest \
        == Program([], initial_memory=dict(MEMORY)).image_digest
    reordered = dict(sorted(MEMORY.items()))
    assert Program([], initial_memory=reordered).image_digest \
        == Program([], initial_memory=image).image_digest
