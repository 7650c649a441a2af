"""Property tests of the MMV and MMCK readers: arbitrary bytes and
mutated valid files (forged config values, forged u32 header fields,
flipped bytes, truncation, trailing bytes) give a result or a
FormatError. Any other exception fails, and so does a tracemalloc peak
above PEAK_LIMIT, the mark of an allocation sized by a forged field
rather than by the file.

The examples are derandomized, so a run is reproducible; raise
MAX_EXAMPLES for a longer search.
"""

import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmseqseg.dataio import (MAGIC_CHECKPOINT, MAGIC_VOLUME, FormatError,
                             load_checkpoint, read_volume, save_checkpoint,
                             write_volume)
from mmseqseg.network import ModelConfig, init_params

MAX_EXAMPLES = 150
PEAK_LIMIT = 4 * 2**20  # valid files here load within a few hundred KB
FUZZ = settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True,
                database=None)

# forged u32 values: boundaries, then anything
U32 = st.one_of(st.sampled_from([0, 1, 2, 4, 5, 64, 65, 2**16, 2**31,
                                 2**32 - 1]),
                st.integers(0, 2**32 - 1))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid files as bytes, and one scratch path per reader."""
    tmp = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_volume(tmp / "modal", rng.standard_normal((2, 2, 16, 16)), "modal")
    write_volume(tmp / "label", rng.integers(0, 5, size=(2, 16, 16)), "label")
    save_checkpoint(tmp / "ckpt", init_params(ModelConfig(
        modality_count=2, class_count=3, encoder_channels=(2, 2, 2, 2),
        convlstm_kernel=1)))
    valid = {name: (tmp / name).read_bytes()
             for name in ("modal", "label", "ckpt")}
    return valid, tmp / "probe"


def read_or_reject(reader, path, data):
    """reader(path) on data: a result or a FormatError, within PEAK_LIMIT."""
    path.write_bytes(data)
    tracemalloc.start()
    try:
        reader(path)
    except FormatError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < PEAK_LIMIT, peak


def checkpoint_fields(data):
    """Offsets of every u32 field of a valid checkpoint: version, config
    length, and per record the name length, ndim and each dim."""
    offsets = [4, 8]
    pos = 12 + struct.unpack_from("<I", data, 8)[0]
    while pos < len(data):
        offsets.append(pos)
        pos += 4 + struct.unpack_from("<I", data, pos)[0]
        (ndim,) = struct.unpack_from("<I", data, pos)
        dims = struct.unpack_from(f"<{ndim}I", data, pos + 4)
        offsets += [pos + 4 * i for i in range(1 + ndim)]
        pos += 4 * (1 + ndim) + 4 * math.prod(dims)
    return offsets


@st.composite
def forged_config(draw, data):
    """A checkpoint whose config has one value replaced by a drawn one."""
    (n,) = struct.unpack_from("<I", data, 8)
    lines = data[12:12 + n].decode("utf-8").splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    key = lines[i].partition("=")[0]
    value = draw(st.one_of(st.integers(0, 10**12).map(str),
                           st.lists(st.integers(0, 10**6), min_size=4,
                                    max_size=4).map(
                               lambda ws: ",".join(map(str, ws))),
                           st.text(max_size=8)))
    lines[i] = f"{key}={value}"
    raw = "\n".join(lines).encode("utf-8") + b"\n"
    return data[:8] + struct.pack("<I", len(raw)) + raw + data[12 + n:]


@st.composite
def mutated(draw, data, fields):
    """data after one to four drawn mutations, applied in order: a forged
    u32 at one of the given offsets, a flipped byte, a truncation or
    trailing bytes."""
    n = len(data)
    mutation = st.one_of(
        st.tuples(st.just("u32"), st.sampled_from(fields), U32),
        st.tuples(st.just("flip"), st.integers(0, n - 1), st.integers(0, 255)),
        st.tuples(st.just("cut"), st.integers(0, n - 1)),
        st.tuples(st.just("trail"), st.binary(min_size=1, max_size=32)))
    out = bytearray(data)
    for kind, *args in draw(st.lists(mutation, min_size=1, max_size=4)):
        if kind == "u32" and args[0] + 4 <= len(out):
            out[args[0]:args[0] + 4] = struct.pack("<I", args[1])
        elif kind == "flip" and args[0] < len(out):
            out[args[0]] = args[1]
        elif kind == "cut":
            del out[args[0]:]
        elif kind == "trail":
            out += args[0]
    return bytes(out)


def arbitrary(magic):
    return st.one_of(st.binary(max_size=256),
                     st.binary(max_size=256).map(lambda b: magic + b))


@FUZZ
@given(data=st.data())
def test_read_volume_mutated(files, data):
    valid, path = files
    name = data.draw(st.sampled_from(["modal", "label"]))
    read_or_reject(read_volume, path,
                   data.draw(mutated(valid[name], [4, 8, 12, 16, 17])))


@FUZZ
@given(data=st.data())
def test_read_volume_non_finite_voxel(files, data):
    # NaN or +-inf anywhere in a modal payload, with any sign and NaN
    # payload, is a FormatError naming the first such voxel
    valid, path = files
    out = bytearray(valid["modal"])
    shape = struct.unpack_from("<4I", out, 4)
    bad = data.draw(st.lists(st.integers(0, math.prod(shape) - 1),
                             min_size=1, max_size=3))
    for i in bad:
        bits = (0x7F800000 | data.draw(st.sampled_from([0, 1 << 31]))
                | data.draw(st.integers(0, (1 << 23) - 1)))
        struct.pack_into("<I", out, 21 + 4 * i, bits)
    path.write_bytes(bytes(out))
    first = tuple(int(i) for i in np.unravel_index(min(bad), shape))
    with pytest.raises(FormatError, match=re.escape(str(first))):
        read_volume(path)


@FUZZ
@given(raw=arbitrary(MAGIC_VOLUME))
def test_read_volume_arbitrary_bytes(files, raw):
    read_or_reject(read_volume, files[1], raw)


@FUZZ
@given(data=st.data())
def test_load_checkpoint_mutated(files, data):
    valid, path = files
    base = valid["ckpt"]
    if data.draw(st.booleans()):
        base = data.draw(forged_config(base))
    read_or_reject(load_checkpoint, path,
                   data.draw(mutated(base, checkpoint_fields(base))))


@FUZZ
@given(raw=arbitrary(MAGIC_CHECKPOINT + struct.pack("<I", 1)))
def test_load_checkpoint_arbitrary_bytes(files, raw):
    read_or_reject(load_checkpoint, files[1], raw)
