"""Command-line behavior: artifacts on disk, exit codes, determinism."""

import os
import struct

import numpy as np
import pytest

from mmseqseg.cli import (EXIT_DATA, EXIT_GRADCHECK, EXIT_OK, EXIT_USAGE,
                          ConfigError, main, parse_config_file, resolve_config)
from mmseqseg.dataio import read_volume, save_checkpoint, write_volume
from mmseqseg.network import ModelConfig, init_params


def run(*argv):
    return main(list(argv))


TINY_CFG = """
# desk-scale smoke configuration
encoder_channels = 2,3,4,5
input_height = 16
input_width = 16
sequence_length = 2
batch_size = 1
phase1_steps = 0
phase2_steps = 0
seed = 3
"""


@pytest.fixture
def tiny_data(tmp_path):
    data = tmp_path / "data"
    assert run("gen", "--out", str(data), "--count", "2", "--seed", "1",
               "--dims", "16,16,16") == EXIT_OK
    return data


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(TINY_CFG)
        model, train = resolve_config(parse_config_file(path))
        assert model.encoder_channels == (2, 3, 4, 5)
        assert train.phase1_steps == 0
        assert train.lr_phase1 == 1e-4  # untouched default
        assert model.sequence_length == train.sequence_length == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus_key = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    def test_flags_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\n")
        model, train = resolve_config(parse_config_file(path), {"seed": 9})
        assert model.seed == train.seed == 9


class TestGen:
    def test_file_count(self, tiny_data):
        files = sorted(os.listdir(tiny_data))
        assert files == ["case_0_img.mmv", "case_0_lbl.mmv",
                         "case_1_img.mmv", "case_1_lbl.mmv"]

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("gen", "--out", str(out), "--count", "1", "--seed", "7",
                "--dims", "16,16,16")
        assert (a / "case_0_img.mmv").read_bytes() == \
               (b / "case_0_img.mmv").read_bytes()

    def test_labels_valid(self, tiny_data):
        lbl, kind = read_volume(tiny_data / "case_0_lbl.mmv")
        assert kind == "label"
        assert lbl.max() <= 4

    def test_no_partial_files(self, tiny_data):
        assert not [n for n in os.listdir(tiny_data) if n.endswith(".partial")]

    @pytest.mark.parametrize("dims", ["a,16,16", "16,16"])
    def test_bad_dims_is_usage_error(self, tmp_path, dims):
        assert run("gen", "--out", str(tmp_path / "d"), "--dims", dims) \
            == EXIT_USAGE
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_zero_step_checkpoint_equals_init(self, tiny_data, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "out"
        assert run("train", "--config", str(cfg), "--data", str(tiny_data),
                   "--out", str(out)) == EXIT_OK
        from mmseqseg.dataio import load_checkpoint
        params, config = load_checkpoint(out / "model.mmck")
        fresh = init_params(config)
        for name, t in fresh.named_tensors().items():
            np.testing.assert_array_equal(params.named_tensors()[name].data,
                                          t.data)
        assert (out / "train.log").read_text() == ""
        assert "seed=3" in (out / "config.resolved").read_text()

    def test_log_line_count(self, tiny_data, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "out"
        assert run("train", "--config", str(cfg), "--data", str(tiny_data),
                   "--out", str(out), "--phase1-steps", "2",
                   "--phase2-steps", "1") == EXIT_OK
        lines = (out / "train.log").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_missing_data_dir(self, tmp_path):
        assert run("train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")) == EXIT_DATA

    def test_bad_config_key(self, tiny_data, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_key = 5\n")
        assert run("train", "--config", str(cfg), "--data", str(tiny_data),
                   "--out", str(tmp_path / "out")) == EXIT_USAGE

    @pytest.mark.parametrize("line", [
        "encoder_channels = 8,16,32",
        "encoder_channels = a,b,c,d",
        "input_height = 20",
        "seed = x",
    ])
    def test_bad_config_value(self, tiny_data, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run("train", "--config", str(cfg), "--data", str(tiny_data),
                   "--out", str(tmp_path / "out")) == EXIT_USAGE

    def test_resolved_config_reproduces_itself(self, tiny_data, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG)
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", str(cfg), "--data", str(tiny_data),
                   "--out", str(first)) == EXIT_OK
        resolved = first / "config.resolved"
        assert run("train", "--config", str(resolved), "--data",
                   str(tiny_data), "--out", str(second)) == EXIT_OK
        assert (second / "config.resolved").read_bytes() == \
            resolved.read_bytes()
        assert len(resolved.read_text().splitlines()) == 14


class TestEval:
    def test_oracle_mode_perfect(self, tiny_data, tmp_path):
        report = tmp_path / "report.txt"
        assert run("eval", "--data", str(tiny_data), "--report", str(report),
                   "--use-truth") == EXIT_OK
        text = report.read_text()
        assert text.startswith("mean_iu=1\n")
        for line in text.strip().splitlines():
            if "dice" in line or "ppv" in line or "sensitivity" in line:
                assert line.endswith("=1")

    def test_oracle_class_count_from_data(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        lbl = np.zeros((2, 16, 16), dtype=np.uint8)
        lbl[0, :4, :4] = 5
        write_volume(data / "case_0_img.mmv",
                     np.zeros((4, 2, 16, 16), dtype=np.float32), "modal")
        write_volume(data / "case_0_lbl.mmv", lbl, "label")
        report = tmp_path / "report.txt"
        assert run("eval", "--data", str(data), "--report", str(report),
                   "--use-truth") == EXIT_OK
        text = report.read_text()
        assert text.startswith("mean_iu=1\n")
        assert "iu[5]=1\n" in text

    def test_model_eval_writes_report(self, tiny_data, tmp_path):
        ckpt = tmp_path / "m.mmck"
        params = init_params(ModelConfig(seed=0, encoder_channels=(2, 3, 4, 5),
                                         input_height=16, input_width=16,
                                         sequence_length=2))
        save_checkpoint(ckpt, params)
        report = tmp_path / "report.txt"
        assert run("eval", "--model", str(ckpt), "--data", str(tiny_data),
                   "--report", str(report)) == EXIT_OK
        assert report.read_text().startswith("mean_iu=")

    def test_missing_model_is_usage_error(self, tiny_data, tmp_path):
        assert run("eval", "--data", str(tiny_data),
                   "--report", str(tmp_path / "r.txt")) == EXIT_USAGE


class TestPredict:
    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "m.mmck"
        params = init_params(ModelConfig(seed=1, encoder_channels=(2, 3, 4, 5),
                                         input_height=16, input_width=16,
                                         sequence_length=2))
        save_checkpoint(path, params)
        return path

    def test_output_dims_and_roundtrip(self, ckpt, tiny_data, tmp_path):
        out = tmp_path / "pred.mmv"
        assert run("predict", "--model", str(ckpt),
                   "--volume", str(tiny_data / "case_0_img.mmv"),
                   "--out", str(out)) == EXIT_OK
        lbl, kind = read_volume(out)
        assert kind == "label"
        assert lbl.shape == (16, 16, 16)
        assert lbl.max() <= 4

    def test_repeat_bit_identical(self, ckpt, tiny_data, tmp_path):
        a, b = tmp_path / "a.mmv", tmp_path / "b.mmv"
        for out in (a, b):
            run("predict", "--model", str(ckpt),
                "--volume", str(tiny_data / "case_0_img.mmv"),
                "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_indivisible_extent_rejected(self, ckpt, tmp_path):
        vol = np.zeros((4, 4, 20, 20), dtype=np.float32)
        path = tmp_path / "v.mmv"
        write_volume(path, vol, "modal")
        assert run("predict", "--model", str(ckpt), "--volume", str(path),
                   "--out", str(tmp_path / "o.mmv")) == EXIT_DATA

    def test_forged_volume_header_is_data_error(self, ckpt, tmp_path):
        # a 21-byte MMV whose header declares four 0xFFFFFFFF extents
        path = tmp_path / "forged.mmv"
        path.write_bytes(b"MMV1" + struct.pack("<4I", *[0xFFFFFFFF] * 4)
                         + b"\x00")
        assert run("predict", "--model", str(ckpt), "--volume", str(path),
                   "--out", str(tmp_path / "o.mmv")) == EXIT_DATA
        assert not (tmp_path / "o.mmv").exists()


class TestGradcheckCommand:
    def test_unreachable_tolerance_fails(self, capsys):
        assert run("gradcheck", "--seed", "0", "--tol", "1e-12") \
            == EXIT_GRADCHECK
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_fixed_seed_table_stable(self, capsys):
        # single identical invocation twice; compare printed tables
        run("gradcheck", "--seed", "0", "--tol", "1e-2")
        a = capsys.readouterr().out
        run("gradcheck", "--seed", "0", "--tol", "1e-2")
        b = capsys.readouterr().out
        strip = lambda s: "\n".join(l for l in s.splitlines()
                                    if not l.endswith("s"))
        assert strip(a) == strip(b)


class TestUsage:
    def test_unknown_command(self):
        assert run("frobnicate") == EXIT_USAGE
