"""Volume/checkpoint formats, phantom generator, sequence extraction."""

import os
import struct

import numpy as np
import pytest

from mmseqseg import dataio
from mmseqseg.dataio import (BadMagicError, FormatError, NameCollisionError,
                             TruncatedPayloadError, UnknownDtypeError,
                             VersionError, gen_synthetic_case, load_checkpoint,
                             normalize_volume, read_volume, save_checkpoint,
                             write_volume)
from mmseqseg.network import ModelConfig, forward, init_params
from mmseqseg.training import SequenceDataset


def checkpoint_config(data):
    """(config text, offset of the tensor records) of checkpoint bytes."""
    (n,) = struct.unpack("<I", data[8:12])
    return data[12:12 + n].decode("utf-8"), 12 + n


def with_config(data, text):
    """Checkpoint bytes with the config text replaced."""
    _, rest = checkpoint_config(data)
    raw = text.encode("utf-8")
    return data[:8] + struct.pack("<I", len(raw)) + raw + data[rest:]


class TestVolumeFormat:
    def test_float_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vol = rng.standard_normal((4, 8, 16, 16)).astype(np.float32)
        path = tmp_path / "v.mmv"
        write_volume(path, vol, "modal")
        back, kind = read_volume(path)
        assert kind == "modal"
        np.testing.assert_array_equal(back, vol)

    def test_label_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        lbl = rng.integers(0, 5, size=(8, 16, 16)).astype(np.uint8)
        path = tmp_path / "l.mmv"
        write_volume(path, lbl, "label")
        back, kind = read_volume(path)
        assert kind == "label"
        np.testing.assert_array_equal(back, lbl)

    def test_header_predicts_file_size(self, tmp_path):
        vol = np.zeros((4, 6, 8, 10), dtype=np.float32)
        path = tmp_path / "v.mmv"
        write_volume(path, vol, "modal")
        assert os.path.getsize(path) == 4 * 6 * 8 * 10 * 4 + 21

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mmv"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(BadMagicError):
            read_volume(path)

    def test_truncation_detected(self, tmp_path):
        vol = np.zeros((1, 2, 4, 4), dtype=np.float32)
        path = tmp_path / "v.mmv"
        write_volume(path, vol, "modal")
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(TruncatedPayloadError):
            read_volume(path)

    @pytest.mark.parametrize("code", [0, 1])
    def test_forged_huge_dims(self, tmp_path, code):
        # the declared payload is checked against the file before read()
        path = tmp_path / "forged.mmv"
        path.write_bytes(b"MMV1" + struct.pack("<4I", *[0xFFFFFFFF] * 4)
                         + struct.pack("<B", code))
        with pytest.raises(FormatError, match="declares"):
            read_volume(path)

    def test_unknown_dtype(self, tmp_path):
        vol = np.zeros((1, 2, 4, 4), dtype=np.float32)
        path = tmp_path / "v.mmv"
        write_volume(path, vol, "modal")
        data = bytearray(path.read_bytes())
        data[20] = 9  # dtype code byte
        path.write_bytes(bytes(data))
        with pytest.raises(UnknownDtypeError):
            read_volume(path)

    def test_bad_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_volume(tmp_path / "x.mmv", np.zeros((2, 2)), "modal")


class TestCheckpointFormat:
    def make(self, seed=0):
        return init_params(ModelConfig(seed=seed, encoder_channels=(2, 3, 4, 5),
                                       input_height=16, input_width=16,
                                       sequence_length=2))

    def test_roundtrip_bit_exact(self, tmp_path):
        params = self.make()
        # dirty the BN state so the roundtrip covers it
        params.encoders[0][0].bn.running_mean += 0.5
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        loaded, config = load_checkpoint(path)
        assert config == params.config
        for name, t in params.named_tensors().items():
            np.testing.assert_array_equal(loaded.named_tensors()[name].data,
                                          t.data)
        for name, arr in params.named_state().items():
            np.testing.assert_array_equal(loaded.named_state()[name], arr)

    def test_forward_identical_after_reload(self, tmp_path):
        params = self.make(seed=7)
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        loaded, config = load_checkpoint(path)
        rng = np.random.default_rng(8)
        seq = rng.standard_normal((2, 4, 16, 16)).astype(np.float32)
        for a, b in zip(forward(params, seq, "eval"), forward(loaded, seq, "eval")):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mmck"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        params = self.make()
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        params = self.make()
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedPayloadError):
            load_checkpoint(path)

    @pytest.mark.parametrize("record", [
        struct.pack("<I", 0xFFFFFFFF),
        struct.pack("<I", 1) + b"x" + struct.pack("<I", 0xFFFFFFFF),
        struct.pack("<I", 1) + b"x" + struct.pack("<5I", 4, *[0xFFFFFFFF] * 4),
        # 2**64 elements, a count that wraps to 0 in int64 arithmetic
        struct.pack("<I", 1) + b"x" + struct.pack("<5I", 4, *[2**16] * 4),
    ], ids=["name_length", "ndim", "dims", "dims_wrap"])
    def test_forged_huge_record(self, tmp_path, record):
        path = tmp_path / "m.mmck"
        save_checkpoint(path, self.make())
        path.write_bytes(path.read_bytes() + record)
        with pytest.raises(FormatError, match="declares"):
            load_checkpoint(path)

    def test_config_text_pinned(self, tmp_path):
        params = init_params(ModelConfig(
            modality_count=2, class_count=3, encoder_channels=(4, 6, 8, 10),
            input_height=32, input_width=48, sequence_length=4,
            convlstm_kernel=5, seed=11))
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        text, _ = checkpoint_config(path.read_bytes())
        assert text == ("class_count=3\n"
                        "convlstm_kernel=5\n"
                        "encoder_channels=4,6,8,10\n"
                        "input_height=32\n"
                        "input_width=48\n"
                        "modality_count=2\n"
                        "seed=11\n"
                        "sequence_length=4\n")
        assert load_checkpoint(path)[1] == params.config

    def test_unknown_config_key_ignored(self, tmp_path):
        params = self.make()
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        data = path.read_bytes()
        text, _ = checkpoint_config(data)
        path.write_bytes(with_config(data, text + "lr_phase1=0.5\n"))
        assert load_checkpoint(path)[1] == params.config

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("seed=0\n", ""),
        lambda text: text.replace("seed=0\n", "seed=x\n"),
    ], ids=["missing-seed", "bad-seed"])
    def test_forged_config_is_format_error(self, tmp_path, edit):
        params = self.make()
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        data = path.read_bytes()
        text, _ = checkpoint_config(data)
        path.write_bytes(with_config(data, edit(text)))
        with pytest.raises(FormatError, match="seed"):
            load_checkpoint(path)


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = gen_synthetic_case(3, (16, 32, 32))
        b = gen_synthetic_case(3, (16, 32, 32))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        a = gen_synthetic_case(4, (16, 32, 32))
        b = gen_synthetic_case(5, (16, 32, 32))
        assert not np.array_equal(a[1], b[1])

    def test_label_histogram(self):
        for seed in range(5):
            _, labels = gen_synthetic_case(seed, (32, 64, 64))
            counts = np.bincount(labels.reshape(-1), minlength=5)
            assert counts[0] > 0.80 * labels.size
            assert np.all(counts[1:] > 0)

    def test_tumor_fraction_in_range(self):
        for seed in range(5):
            _, labels = gen_synthetic_case(seed, (32, 64, 64))
            frac = np.count_nonzero(labels) / labels.size
            assert 0.01 <= frac <= 0.10

    def test_t1c_contrast_of_enhancing_core(self):
        vol, labels = gen_synthetic_case(0, (32, 64, 64))
        t1c = vol[dataio.T1C_CHANNEL]
        margin = t1c[labels == 4].mean() - t1c[labels == 0].mean()
        assert margin >= 2 * dataio.NOISE_SIGMA

    def test_nesting_topology(self):
        # cores only appear where an edema shell was carved first, so
        # every tumor voxel class is spatially adjacent to the shell
        _, labels = gen_synthetic_case(1, (32, 64, 64))
        core = np.isin(labels, [2, 3, 4])
        assert core.any()
        # one-step axis dilation of the core must stay inside the tumor
        dilated = core.copy()
        for axis in range(3):
            for shift in (1, -1):
                dilated |= np.roll(core, shift, axis=axis)
        ring = dilated & ~core
        inside = labels[ring] != 0
        assert inside.mean() > 0.95

    def test_small_dims_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic_case(0, (8, 64, 64))

    def test_values_finite(self):
        vol, _ = gen_synthetic_case(2, (16, 32, 32))
        assert np.all(np.isfinite(vol))


class TestNormalize:
    def test_zscore(self):
        rng = np.random.default_rng(2)
        vol = rng.normal(5.0, 3.0, size=(4, 8, 8, 8))
        out = normalize_volume(vol)
        for c in range(4):
            assert abs(out[c].mean()) < 1e-4
            assert abs(out[c].std() - 1.0) < 1e-4

    def test_constant_channel_no_blowup(self):
        out = normalize_volume(np.full((1, 2, 2, 2), 3.0))
        np.testing.assert_array_equal(out, 0.0)


class TestExtractSequences:
    """Depth windows of a case, as SequenceDataset extracts them."""

    def test_sliding_window_count(self):
        vol = np.zeros((4, 10, 8, 8))
        lbl = np.zeros((10, 8, 8), dtype=np.uint8)
        assert len(SequenceDataset([(vol, lbl)], 3).windows) == 8

    def test_content_matches_direct_slicing(self):
        rng = np.random.default_rng(3)
        vol = rng.standard_normal((4, 7, 4, 4))
        lbl = rng.integers(0, 5, size=(7, 4, 4)).astype(np.uint8)
        ds = SequenceDataset([(vol, lbl)], 3)
        for window in ds.windows:
            start = window[1]
            stacks, labels = ds.fetch(window)
            for t in range(3):
                np.testing.assert_array_equal(stacks[t], vol[:, start + t])
                np.testing.assert_array_equal(labels[t], lbl[start + t])

    def test_too_long_raises(self):
        with pytest.raises(ValueError):
            SequenceDataset([(np.zeros((4, 2, 4, 4)),
                              np.zeros((2, 4, 4), dtype=np.uint8))], 3)
