"""Volume/checkpoint formats, phantom generator, sequence extraction."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from mmseqseg import dataio
from mmseqseg.cli import EXIT_DATA, main
from mmseqseg.dataio import (FormatError, gen_synthetic_case, load_checkpoint,
                             normalize_volume, read_volume, save_checkpoint,
                             write_volume)
from mmseqseg.network import (ModelConfig, ModelParams, forward, init_params,
                              parameter_count, predict_volume)
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

    @pytest.mark.parametrize("kind", ["modal", "label"])
    def test_read_holds_one_payload(self, tmp_path, kind):
        # the payload goes straight into the returned array, with no
        # bytes object of its size beside it
        rng = np.random.default_rng(2)
        vol = (rng.standard_normal((4, 8, 64, 64)).astype(np.float32)
               if kind == "modal"
               else rng.integers(0, 5, size=(32, 64, 64)).astype(np.uint8))
        path = tmp_path / "v.mmv"
        write_volume(path, vol, kind)
        tracemalloc.start()
        try:
            back, _ = read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.tobytes() == vol.tobytes()
        assert peak < 1.25 * vol.nbytes, (peak, vol.nbytes)

    def test_header_predicts_file_size(self, tmp_path):
        vol = np.zeros((4, 6, 8, 10), dtype=np.float32)
        path = tmp_path / "v.mmv"
        write_volume(path, vol, "modal")
        assert os.path.getsize(path) == 4 * 6 * 8 * 10 * 4 + 21

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mmv"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(FormatError, match="bad magic b'NOPE'"):
            read_volume(path)

    def test_truncation_detected(self, tmp_path):
        vol = np.zeros((1, 2, 4, 4), dtype=np.float32)
        path = tmp_path / "v.mmv"
        write_volume(path, vol, "modal")
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(FormatError, match="f32 payload declares"):
            read_volume(path)

    @pytest.mark.parametrize("code", [0, 1])
    def test_forged_huge_dims(self, tmp_path, code):
        # the declared payload is checked against the file before read()
        path = tmp_path / "forged.mmv"
        path.write_bytes(b"MMV1" + struct.pack("<4I", *[0xFFFFFFFF] * 4)
                         + struct.pack("<B", code))
        with pytest.raises(FormatError, match="declares"):
            read_volume(path)

    @pytest.mark.parametrize("code", [0, 1])
    def test_empty_extent_rejected(self, tmp_path, code):
        path = tmp_path / "empty.mmv"
        path.write_bytes(b"MMV1" + struct.pack("<4IB", 1, 0, 16, 16, code))
        with pytest.raises(FormatError, match="empty extent"):
            read_volume(path)

    def test_multichannel_label_rejected(self, tmp_path):
        # a well-sized u8 payload whose header declares 2 channels
        path = tmp_path / "l.mmv"
        path.write_bytes(b"MMV1" + struct.pack("<4IB", 2, 2, 4, 4, 1)
                         + bytes(2 * 2 * 4 * 4))
        with pytest.raises(FormatError, match="2 channels"):
            read_volume(path)

    def test_unknown_dtype(self, tmp_path):
        vol = np.zeros((1, 2, 4, 4), dtype=np.float32)
        path = tmp_path / "v.mmv"
        write_volume(path, vol, "modal")
        data = bytearray(path.read_bytes())
        data[20] = 9  # dtype code byte
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="unknown dtype code 9"):
            read_volume(path)

    def test_bad_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_volume(tmp_path / "x.mmv", np.zeros((2, 2)), "modal")


class TestCheckpointFormat:
    def make(self, seed=0):
        return init_params(ModelConfig(seed=seed, encoder_channels=(2, 3, 4, 5),
                                       sequence_length=2))

    def test_roundtrip_bit_exact(self, tmp_path):
        params = self.make()
        # dirty the BN state so the roundtrip covers it
        params.records()["enc1.s0.bn.running_mean"][...] += 0.5
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        loaded, config = load_checkpoint(path)
        assert config == params.config
        records = loaded.records()
        assert list(records) == list(params.records())
        for name, arr in params.records().items():
            np.testing.assert_array_equal(records[name], arr)

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
        with pytest.raises(FormatError, match="bad magic b'XXXX'"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        params = self.make()
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError,
                           match="unsupported checkpoint version 99"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        params = self.make()
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError, match="the file holds at most"):
            load_checkpoint(path)

    def test_duplicate_record_name(self, tmp_path, capsys):
        # the first record written again at the end of the file
        params = self.make()
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        data = path.read_bytes()
        _, start = checkpoint_config(data)
        name, first = next(iter(params.records().items()))
        end = start + 4 + len(name) + 4 + 4 * first.ndim + 4 * first.size
        path.write_bytes(data + data[start:end])
        with pytest.raises(FormatError, match=f"duplicate tensor name {name}"):
            load_checkpoint(path)
        volume = tmp_path / "v.mmv"
        write_volume(volume, np.zeros((4, 2, 16, 16), np.float32), "modal")
        assert main(["predict", "--model", str(path), "--volume", str(volume),
                     "--out", str(tmp_path / "o.mmv")]) == EXIT_DATA
        assert f"duplicate tensor name {name}" in capsys.readouterr().err
        assert not (tmp_path / "o.mmv").exists()

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["dec1.conv.kernel",
                                      "enc2.s1.bn.running_var"])
    def test_nonfinite_record_is_format_error(self, tmp_path, name, value):
        params = self.make()
        params.records()[name].flat[-1] = value
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        with pytest.raises(FormatError, match=f"{name} holds a non-finite"):
            load_checkpoint(path)

    def test_too_many_dims_is_format_error(self, tmp_path):
        # 65 dims, one of them 0: a well-sized empty payload numpy cannot
        # reshape
        path = tmp_path / "m.mmck"
        save_checkpoint(path, self.make())
        path.write_bytes(path.read_bytes() + struct.pack("<I", 1) + b"x"
                         + struct.pack("<66I", 65, 0, *[1] * 64))
        with pytest.raises(FormatError, match="65 dims"):
            load_checkpoint(path)

    @pytest.mark.parametrize("config", [
        dict(modality_count=1, class_count=1),
        dict(modality_count=2, class_count=3, encoder_channels=(4, 6, 8, 10),
             convlstm_kernel=5),
        dict(),
    ])
    def test_parameter_count_matches_model(self, config):
        params = ModelParams(ModelConfig(**config))
        held = params.records().values()
        assert parameter_count(params.config) == sum(a.size for a in held)

    @pytest.mark.parametrize("key, value", [
        ("encoder_channels", ",".join(["1000000000"] * 4)),
        ("encoder_channels", "8,16,32,2000"),
        ("modality_count", "10000000"),
        ("convlstm_kernel", "10001"),
        ("class_count", "1000000000"),
    ])
    @pytest.mark.parametrize("records", [False, True],
                             ids=["config-only", "with-records"])
    def test_forged_config_allocates_nothing(self, tmp_path, key, value,
                                             records):
        # a config that sizes the model beyond the file is rejected before
        # ModelParams allocates it
        path = tmp_path / "m.mmck"
        save_checkpoint(path, self.make())
        data = path.read_bytes()
        text, rest = checkpoint_config(data)
        lines = [f"{key}={value}" if line.startswith(key + "=") else line
                 for line in text.splitlines()]
        forged = with_config(data, "\n".join(lines) + "\n")
        if not records:
            forged = forged[:len(forged) - (len(data) - rest)]
        path.write_bytes(forged)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_unknown_tensor_rejected(self, tmp_path):
        path = tmp_path / "m.mmck"
        save_checkpoint(path, self.make())
        # a well-formed (2,) float32 record under a name no model has
        name = b"lstm.W_xz"
        path.write_bytes(path.read_bytes() + struct.pack("<I", len(name)) + name
                         + struct.pack("<2I", 1, 2) + bytes(8))
        with pytest.raises(FormatError, match="lstm.W_xz"):
            load_checkpoint(path)

    @staticmethod
    def record(name, arr):
        """One MMCK tensor record."""
        arr = np.asarray(arr, dtype="<f4")
        return (struct.pack("<I", len(name)) + name
                + struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape)
                + arr.tobytes())

    def test_old_layout_bias_folds_into_running_mean(self, tmp_path):
        params = self.make(seed=4)
        rng = np.random.default_rng(4)
        means = {name: view for name, view in params.records().items()
                 if name.endswith(".bn.running_mean")}
        for view in means.values():
            view[...] = rng.standard_normal(view.shape)
        # a file as written while conv-BN blocks had a conv bias: one
        # nonzero `<block>.bias` record per block
        path = tmp_path / "old.mmck"
        save_checkpoint(path, params)
        biases = {name.removesuffix("bn.running_mean") + "bias":
                  rng.standard_normal(view.shape).astype(np.float32)
                  for name, view in means.items()}
        assert len(biases) == 20
        path.write_bytes(path.read_bytes() + b"".join(
            self.record(name.encode(), b) for name, b in biases.items()))
        loaded, _ = load_checkpoint(path)
        records = loaded.records()
        for name, view in means.items():
            block = name.removesuffix("bn.running_mean")
            np.testing.assert_array_equal(records[name],
                                          view - biases[block + "bias"])
        vol = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        assert predict_volume(loaded, vol, 2).shape == (3, 16, 16)

    def test_old_layout_bias_of_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "old.mmck"
        save_checkpoint(path, self.make())
        path.write_bytes(path.read_bytes()
                         + self.record(b"enc0.s0.bias", np.zeros(3)))
        with pytest.raises(FormatError, match="enc0.s0.bias"):
            load_checkpoint(path)

    def test_bias_of_block_the_model_lacks_rejected(self, tmp_path):
        path = tmp_path / "m.mmck"
        save_checkpoint(path, self.make())
        path.write_bytes(path.read_bytes()
                         + self.record(b"enc4.s0.bias", np.zeros(2)))
        with pytest.raises(FormatError, match="enc4.s0.bias"):
            load_checkpoint(path)

    @staticmethod
    def record_shapes(config):
        """Every checkpoint record's (name, shape) in file order, built
        from the documented naming rule: each modality's encoder block
        per scale, the CMC tensors, each convLSTM gate's kernels and
        bias, the decoder stages and the classifier, then the running
        statistics of every batch norm, encoders first."""
        widths, m = config.encoder_channels, config.modality_count
        ch, k = widths[-1], config.convlstm_kernel
        enc = [(f"enc{mod}.s{s}", c, cin) for mod in range(m)
               for s, (cin, c) in enumerate(zip((1,) + widths[:-1], widths))]
        dec = [(f"dec{i}.conv", cout, cout) for i, cout in
               enumerate(widths[-2::-1] + widths[:1])]

        def convbn(name, c, cin):
            return [(f"{name}.kernel", (c, cin, 3, 3)),
                    (f"{name}.bn.scale", (c,)), (f"{name}.bn.shift", (c,))]

        out = [r for block in enc for r in convbn(*block)]
        for s, c in enumerate(widths):
            out += [(f"cmc{s}.weights", (c, m)), (f"cmc{s}.bias", (c,))]
        for g in "ifco":
            out += [(f"lstm.W_x{g}", (ch, ch, k, k)),
                    (f"lstm.W_h{g}", (ch, ch, k, k)), (f"lstm.b_{g}", (ch,))]
        for i, ((name, cout, _), cin) in enumerate(zip(dec, widths[::-1])):
            out += [(f"dec{i}.up.kernel", (cin, cout, 2, 2)),
                    (f"dec{i}.up.bias", (cout,))] + convbn(name, cout, cout)
        out += [("cls.kernel", (config.class_count, widths[0], 1, 1)),
                ("cls.bias", (config.class_count,))]
        for name, c, _ in enc + dec:
            out += [(f"{name}.bn.running_mean", (c,)),
                    (f"{name}.bn.running_var", (c,))]
        return out

    def test_records_land_in_their_modality_and_gate_slices(self, tmp_path):
        # record j holds the constant j: loading puts it in modality m's
        # rows of the grouped encoder block or gate g's rows of the
        # convLSTM stacks, and saving gives the same bytes back
        config = self.make().config
        shapes = self.record_shapes(config)
        assert len(shapes) == 130
        path = tmp_path / "m.mmck"
        save_checkpoint(path, self.make())
        _, start = checkpoint_config(path.read_bytes())
        data = path.read_bytes()[:start] + b"".join(
            self.record(name.encode(), np.full(shape, j))
            for j, (name, shape) in enumerate(shapes))
        path.write_bytes(data)
        params, _ = load_checkpoint(path)
        value = {name: j for j, (name, _) in enumerate(shapes)}
        for s, (p, c) in enumerate(zip(params.encoders,
                                       config.encoder_channels)):
            for mod in range(config.modality_count):
                rows = slice(mod * c, (mod + 1) * c)
                pre = f"enc{mod}.s{s}"
                assert np.all(p.kernel.data[rows] == value[pre + ".kernel"])
                for field in ("scale", "shift"):
                    assert np.all(getattr(p.bn, field).data[rows]
                                  == value[f"{pre}.bn.{field}"])
                for field in ("running_mean", "running_var"):
                    assert np.all(getattr(p.bn, field)[rows]
                                  == value[f"{pre}.bn.{field}"])
        ch = config.encoder_channels[-1]
        for i, g in enumerate("ifco"):
            rows = slice(i * ch, (i + 1) * ch)
            assert np.all(params.lstm.wx.data[rows] == value[f"lstm.W_x{g}"])
            assert np.all(params.lstm.wh.data[rows] == value[f"lstm.W_h{g}"])
            assert np.all(params.lstm.b.data[rows] == value[f"lstm.b_{g}"])
        assert np.all(params.cls_kernel.data == value["cls.kernel"])
        again = tmp_path / "again.mmck"
        save_checkpoint(again, params)
        assert again.read_bytes() == data

    def test_invalid_utf8_tensor_name_is_format_error(self, tmp_path):
        path = tmp_path / "m.mmck"
        save_checkpoint(path, self.make())
        path.write_bytes(path.read_bytes() + self.record(b"\xff\xfe", [0.0]))
        with pytest.raises(FormatError, match="UTF-8"):
            load_checkpoint(path)

    def test_invalid_utf8_config_is_format_error(self, tmp_path):
        path = tmp_path / "m.mmck"
        save_checkpoint(path, self.make())
        data = path.read_bytes()
        _, rest = checkpoint_config(data)
        raw = b"seed=\xff\n"
        path.write_bytes(data[:8] + struct.pack("<I", len(raw)) + raw
                         + data[rest:])
        with pytest.raises(FormatError, match="UTF-8"):
            load_checkpoint(path)

    def test_config_text_pinned(self, tmp_path):
        params = init_params(ModelConfig(
            modality_count=2, class_count=3, encoder_channels=(4, 6, 8, 10),
            sequence_length=4, convlstm_kernel=5, seed=11))
        path = tmp_path / "m.mmck"
        save_checkpoint(path, params)
        text, _ = checkpoint_config(path.read_bytes())
        assert text == ("class_count=3\n"
                        "convlstm_kernel=5\n"
                        "encoder_channels=4,6,8,10\n"
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
        # every checkpoint written while the model config held the slice
        # extents names them, in the sorted order config_text writes
        old = "".join(sorted((text + "input_height=64\ninput_width=64\n")
                             .splitlines(keepends=True)))
        seq = np.random.default_rng(2).standard_normal(
            (2, 4, 16, 16)).astype(np.float32)
        probs = forward(params, seq)
        for forged in (text + "lr_phase1=0.5\n", old):
            path.write_bytes(with_config(data, forged))
            loaded, config = load_checkpoint(path)
            assert config == params.config
            for name, value in params.records().items():
                assert loaded.records()[name].tobytes() == value.tobytes()
            assert forward(loaded, seq).tobytes() == probs.tobytes()

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

    def test_load_holds_one_record_beyond_the_model(self, tmp_path):
        # each record is copied into the model as it is read, so the peak
        # is the model plus about one record, not the model twice
        config = ModelConfig()
        path = tmp_path / "m.mmck"
        save_checkpoint(path, init_params(config))
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * parameter_count(config) * 4


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

    @pytest.mark.parametrize("seed,dims", [(0, (16, 32, 32)),
                                           (3, (19, 17, 23))])
    def test_noise_equals_one_volume_draw(self, seed, dims, monkeypatch):
        # the noise is drawn modality by modality; the oracle is the one
        # (4, D, H, W) float64 draw added to the class means, then cast
        states = []

        class Spy(np.random.Generator):
            def normal(self, *args, **kwargs):
                states.append(self.bit_generator.state)
                return super().normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng",
                            lambda s: Spy(np.random.PCG64(s)))
        vol, labels = gen_synthetic_case(seed, dims)
        monkeypatch.undo()
        oracle_rng = np.random.default_rng()
        oracle_rng.bit_generator.state = states[0]
        noise = oracle_rng.normal(0.0, dataio.NOISE_SIGMA, size=(4,) + dims)
        want = (dataio._CLASS_MEANS.T[:, labels] + noise).astype(np.float32)
        assert vol.dtype == np.float32 and vol.flags.c_contiguous
        assert vol.tobytes() == want.tobytes()

    def test_noise_draw_memory(self):
        # one modality's float64 noise at a time: below the 8 bytes per
        # voxel of a whole-volume float64 draw
        tracemalloc.start()
        try:
            gen_synthetic_case(0, (32, 64, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 32 * 64 * 64 * 8


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


    @staticmethod
    def expression_normalize(volume):
        """The whole-expression form of each channel's z-score."""
        volume = np.asarray(volume, dtype=np.float32)
        out = np.empty_like(volume)
        for c in range(volume.shape[0]):
            ch = volume[c]
            std = ch.std()
            out[c] = (ch - ch.mean()) / (std if std > 0 else 1.0)
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_bits_equal_expression(self, seed):
        img, _ = gen_synthetic_case(seed, (16, 32, 32))
        assert normalize_volume(img).tobytes() == \
            self.expression_normalize(img).tobytes()

    def test_zero_volume_bits_equal_expression(self):
        img = np.zeros((4, 2, 16, 16), dtype=np.float32)
        assert normalize_volume(img).tobytes() == \
            self.expression_normalize(img).tobytes()


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
