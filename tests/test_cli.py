"""Command-line behavior: artifacts on disk, exit codes, determinism."""

import gc
import itertools
import os
import struct
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from mmseqseg import cli
from mmseqseg.cli import (EXIT_DATA, EXIT_GRADCHECK, EXIT_OK, EXIT_USAGE,
                          ConfigError, main, parse_config_file, resolve_config)
from mmseqseg.dataio import read_volume, save_checkpoint, write_volume
from mmseqseg.network import ModelConfig, init_params


def run(*argv):
    return main(list(argv))


TINY_CFG = """
# desk-scale smoke configuration
encoder_channels = 2,3,4,5
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
        model, train = resolve_config(parse_config_file(path), {})
        assert model.encoder_channels == (2, 3, 4, 5)
        assert train.phase1_steps == 0
        assert train.lr_phase1 == 1e-4  # untouched default
        assert model.sequence_length == train.sequence_length == 2

    def test_unknown_key_rejected(self, tmp_path):
        # config files written while the model config held the slice
        # extents name the last two keys; the data sets the slice size now
        path = tmp_path / "run.cfg"
        for key in ("bogus_key", "input_height", "input_width"):
            path.write_text(f"{key} = 1\n")
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
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

    @pytest.mark.parametrize("dims", ["a,16,16", "16,16", "8,16,16",
                                      "16,16,15"])
    def test_bad_dims_is_usage_error(self, tmp_path, dims):
        assert run("gen", "--out", str(tmp_path / "d"), "--dims", dims) \
            == EXIT_USAGE
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_usage_error(self, tmp_path, count, capsys):
        assert run("gen", "--out", str(tmp_path / "d"), "--count", count,
                   "--dims", "16,16,16") == EXIT_USAGE
        assert "--count" in capsys.readouterr().err
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
        "input_height = 20",  # no longer a key: rejected as unknown
        "seed = x",
        "seed = -3",
        "batch_size = 0",
        "modality_count = 0",
        "class_count = 0",
        "class_count = 257",
        "encoder_channels = 0,16,32,64",
        "sequence_length = 0",
        "convlstm_kernel = 2",
        "phase1_steps = -1",
        "phase2_steps = -1",
        "clip_norm = -1",
        "lr_phase1 = -0.1\nlr_phase2 = -1.0",
        "lr_phase1 = nan\nphase2_steps = 0",
        "lr_phase1 = inf",
        "lr_phase2 = -1e-7",
    ])
    def test_bad_config_value(self, tiny_data, tmp_path, line, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run("train", "--config", str(cfg), "--data", str(tiny_data),
                   "--out", str(tmp_path / "out")) == EXIT_USAGE
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_is_usage_error(self, tiny_data, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfeseed = 1\n")
        assert run("train", "--config", str(cfg), "--data", str(tiny_data),
                   "--out", str(tmp_path / "out")) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(cfg) in err[0]
        assert not (tmp_path / "out").exists()

    def test_negative_step_flag_is_usage_error(self, tiny_data, tmp_path):
        assert run("train", "--data", str(tiny_data), "--out",
                   str(tmp_path / "out"), "--phase1-steps", "-1") == EXIT_USAGE

    @pytest.mark.parametrize("command", ["gen", "train", "gradcheck"])
    def test_negative_seed_flag_is_usage_error(self, tiny_data, tmp_path,
                                               command, capsys):
        out = tmp_path / "out"
        argv = {"gen": ["--out", str(out), "--dims", "16,16,16"],
                "train": ["--data", str(tiny_data), "--out", str(out)],
                "gradcheck": []}[command]
        assert run(command, *argv, "--seed", "-1") == EXIT_USAGE
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_no_tumor_voxel_makes_nothing(self, tiny_data, tmp_path,
                                          capsys):
        # phase 1 draws only tumor-bearing windows; a corpus without any
        # is a data error found before --out is made
        for path in tiny_data.glob("*_lbl.mmv"):
            lbl, _ = read_volume(path)
            write_volume(path, np.zeros_like(lbl), "label")
        out = tmp_path / "out"
        assert run("train", "--data", str(tiny_data), "--out", str(out),
                   "--phase1-steps", "1") == EXIT_DATA
        assert "no tumor-bearing sequence" in capsys.readouterr().err
        assert not out.exists()

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
        assert len(resolved.read_text().splitlines()) == 12

    def test_failed_write_leaves_no_partial(self, tiny_data, tmp_path,
                                            monkeypatch, capsys):
        def failing(path, params):
            with open(path, "wb") as f:
                f.write(b"MMCK")
            raise OSError("disk full")
        monkeypatch.setattr(cli, "save_checkpoint", failing)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "out"
        assert run("train", "--config", str(cfg), "--data", str(tiny_data),
                   "--out", str(out)) == EXIT_DATA
        assert "disk full" in capsys.readouterr().err
        assert not list(out.rglob("*.partial"))


def mismatched_case(tmp_path, lbl_dims):
    """A data directory of one 16x16x16 image and labels of lbl_dims."""
    data = tmp_path / "mismatched"
    data.mkdir()
    write_volume(data / "case_0_img.mmv",
                 np.zeros((4, 16, 16, 16), dtype=np.float32), "modal")
    write_volume(data / "case_0_lbl.mmv", np.zeros(lbl_dims, dtype=np.uint8),
                 "label")
    return data


LBL_MISMATCHES = [(10, 16, 16), (20, 16, 16), (16, 32, 16), (16, 16, 32)]


class TestImageLabelAgreement:
    @pytest.mark.parametrize("lbl_dims", LBL_MISMATCHES)
    def test_train_rejects_mismatch(self, tmp_path, lbl_dims, capsys):
        out = tmp_path / "out"
        assert run("train", "--data", str(mismatched_case(tmp_path, lbl_dims)),
                   "--out", str(out)) == EXIT_DATA
        assert "case_0_lbl.mmv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lbl_dims", LBL_MISMATCHES)
    def test_eval_rejects_mismatch(self, tmp_path, lbl_dims, capsys):
        report = tmp_path / "report.txt"
        assert run("eval", "--data", str(mismatched_case(tmp_path, lbl_dims)),
                   "--report", str(report), "--use-truth") == EXIT_DATA
        assert "case_0_lbl.mmv" in capsys.readouterr().err
        assert not report.exists()


@pytest.fixture
def indivisible_corpus(tmp_path):
    """A 24x128x128 case, then a 16x20x20 one whose H x W does not divide
    by 16."""
    data = tmp_path / "indivisible"
    data.mkdir()
    rng = np.random.default_rng(0)
    for i, (d, h, w) in enumerate([(24, 128, 128), (16, 20, 20)]):
        write_volume(data / f"case_{i}_img.mmv",
                     rng.standard_normal((4, d, h, w)).astype(np.float32),
                     "modal")
        write_volume(data / f"case_{i}_lbl.mmv",
                     np.zeros((d, h, w), dtype=np.uint8), "label")
    return data


class TestCaseExtents:
    def test_eval_rejects_before_predicting(self, indivisible_corpus,
                                            tmp_path, capsys, monkeypatch):
        predicted = []
        monkeypatch.setattr(cli, "predict_volume",
                            lambda *a: predicted.append(a))
        ckpt = tmp_path / "m.mmck"
        save_checkpoint(ckpt, init_params(ModelConfig(seed=0)))
        report = tmp_path / "report.txt"
        assert run("eval", "--model", str(ckpt), "--data",
                   str(indivisible_corpus), "--report", str(report)) \
            == EXIT_DATA
        err = capsys.readouterr().err
        assert "case_1_img.mmv" in err and "20x20" in err
        assert predicted == [] and not report.exists()

    def test_train_rejects_before_making_output(self, indivisible_corpus,
                                                tmp_path, capsys):
        out = tmp_path / "out"
        assert run("train", "--data", str(indivisible_corpus),
                   "--out", str(out)) == EXIT_DATA
        assert "case_1_img.mmv" in capsys.readouterr().err
        assert not out.exists()


class TestModalityCount:
    """An image with other than modality_count modalities is a data error
    that names its file, found before train makes --out and before eval
    or predict predicts."""

    @pytest.fixture
    def corpus(self, tiny_data):
        path = tiny_data / "case_1_img.mmv"
        img, _ = read_volume(path)
        write_volume(path, img[:3], "modal")
        return tiny_data

    def test_train_rejects_before_making_output(self, corpus, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        assert run("train", "--data", str(corpus), "--out", str(out)) \
            == EXIT_DATA
        assert "case_1_img.mmv has 3 modalities" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_rejects_before_predicting(self, corpus, tmp_path, capsys,
                                            monkeypatch):
        predicted = []
        monkeypatch.setattr(cli, "predict_volume",
                            lambda *a: predicted.append(a))
        ckpt = tmp_path / "m.mmck"
        save_checkpoint(ckpt, init_params(ModelConfig(seed=0)))
        report = tmp_path / "report.txt"
        assert run("eval", "--model", str(ckpt), "--data", str(corpus),
                   "--report", str(report)) == EXIT_DATA
        assert "case_1_img.mmv has 3 modalities" in capsys.readouterr().err
        assert predicted == [] and not report.exists()

    def test_predict_rejects_before_predicting(self, corpus, tmp_path,
                                               capsys, monkeypatch):
        predicted = []
        monkeypatch.setattr(cli, "predict_volume",
                            lambda *a: predicted.append(a))
        ckpt, out = tmp_path / "m.mmck", tmp_path / "o.mmv"
        save_checkpoint(ckpt, init_params(ModelConfig(seed=0)))
        volume = corpus / "case_1_img.mmv"
        assert run("predict", "--model", str(ckpt), "--volume", str(volume),
                   "--out", str(out)) == EXIT_DATA
        assert f"{volume} has 3 modalities" in capsys.readouterr().err
        assert predicted == [] and not out.exists()


class TestLabelRange:
    """A label at or above class_count is a data error that names its
    file, found before train makes --out and before eval predicts."""

    @pytest.fixture
    def corpus(self, tiny_data):
        path = tiny_data / "case_1_lbl.mmv"
        lbl, _ = read_volume(path)
        lbl[0, 0, 0] = 7
        write_volume(path, lbl, "label")
        return tiny_data

    def test_train_rejects_before_making_output(self, corpus, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        assert run("train", "--data", str(corpus), "--out", str(out)) \
            == EXIT_DATA
        assert "case_1_lbl.mmv holds label 7" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_rejects_before_predicting(self, corpus, tmp_path, capsys,
                                            monkeypatch):
        predicted = []
        monkeypatch.setattr(cli, "predict_volume",
                            lambda *a: predicted.append(a))
        ckpt = tmp_path / "m.mmck"
        save_checkpoint(ckpt, init_params(ModelConfig(seed=0)))
        report = tmp_path / "report.txt"
        assert run("eval", "--model", str(ckpt), "--data", str(corpus),
                   "--report", str(report)) == EXIT_DATA
        assert "case_1_lbl.mmv holds label 7" in capsys.readouterr().err
        assert predicted == [] and not report.exists()


class TestNonFiniteVoxel:
    """A NaN or an infinity in a modal volume is a data error that names
    the file and the voxel, found when the file is read: before train
    makes --out and before eval or predict predicts, with no numpy
    warning on the way."""

    @pytest.fixture(params=[np.nan, np.inf, -np.inf])
    def corpus(self, tiny_data, request):
        path = tiny_data / "case_1_img.mmv"
        img, _ = read_volume(path)
        img[2, 5, 3, 7] = request.param
        write_volume(path, img, "modal")
        return tiny_data

    def rejects(self, capsys, tmp_path, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "case_1_img.mmv" in err[0] and "(2, 5, 3, 7)" in err[0]
        assert not list(tmp_path.rglob("*.partial"))

    def test_train(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        self.rejects(capsys, tmp_path, "train", "--data", str(corpus),
                     "--out", str(out), "--phase1-steps", "2",
                     "--phase2-steps", "1", "--batch-size", "1")
        assert not out.exists()

    def test_eval(self, corpus, tmp_path, capsys, monkeypatch):
        predicted = []
        monkeypatch.setattr(cli, "predict_volume",
                            lambda *a: predicted.append(a))
        ckpt, report = tmp_path / "m.mmck", tmp_path / "report.txt"
        save_checkpoint(ckpt, init_params(ModelConfig(seed=0)))
        self.rejects(capsys, tmp_path, "eval", "--model", str(ckpt),
                     "--data", str(corpus), "--report", str(report))
        assert predicted == [] and not report.exists()

    def test_predict(self, corpus, tmp_path, capsys, monkeypatch):
        predicted = []
        monkeypatch.setattr(cli, "predict_volume",
                            lambda *a: predicted.append(a))
        ckpt, out = tmp_path / "m.mmck", tmp_path / "o.mmv"
        save_checkpoint(ckpt, init_params(ModelConfig(seed=0)))
        self.rejects(capsys, tmp_path, "predict", "--model", str(ckpt),
                     "--volume", str(corpus / "case_1_img.mmv"),
                     "--out", str(out))
        assert predicted == [] and not out.exists()


class TestCaseOrder:
    """Each case is checked as it is read, in file-name order: the first
    bad case is the one reported, and eval opens its checkpoint before it
    reads any volume."""

    @pytest.fixture
    def corpus(self, tmp_path):
        # case_0 holds a label at class_count or above; case_1's H x W
        # does not divide by 16
        data = tmp_path / "two_faults"
        data.mkdir()
        for i, (d, h, w) in enumerate([(16, 16, 16), (16, 20, 20)]):
            lbl = np.zeros((d, h, w), dtype=np.uint8)
            lbl[0, 0, 0] = 7 if i == 0 else 1
            write_volume(data / f"case_{i}_img.mmv",
                         np.zeros((4, d, h, w), dtype=np.float32), "modal")
            write_volume(data / f"case_{i}_lbl.mmv", lbl, "label")
        return data

    def test_train_names_first_bad_case(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("train", "--data", str(corpus), "--out", str(out)) \
            == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "case_0_lbl.mmv holds label 7" in err[0]
        assert not out.exists()

    def test_eval_names_first_bad_case(self, corpus, tmp_path, capsys,
                                       monkeypatch):
        predicted = []
        monkeypatch.setattr(cli, "predict_volume",
                            lambda *a: predicted.append(a))
        ckpt, report = tmp_path / "m.mmck", tmp_path / "report.txt"
        save_checkpoint(ckpt, init_params(ModelConfig(seed=0)))
        assert run("eval", "--model", str(ckpt), "--data", str(corpus),
                   "--report", str(report)) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "case_0_lbl.mmv holds label 7" in err[0]
        assert predicted == [] and not report.exists()

    def test_eval_opens_checkpoint_before_any_volume(self, tiny_data,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        reads = []
        read = cli.read_volume
        monkeypatch.setattr(cli, "read_volume",
                            lambda path: reads.append(path) or read(path))
        ckpt, report = tmp_path / "m.mmck", tmp_path / "report.txt"
        ckpt.write_bytes(b"XXXX" + bytes(16))
        assert run("eval", "--model", str(ckpt), "--data", str(tiny_data),
                   "--report", str(report)) == EXIT_DATA
        assert "bad magic" in capsys.readouterr().err
        assert reads == [] and not report.exists()


class TestPathMixups:
    """A file where a directory belongs, or the reverse, exits 2 with
    one error line."""

    @pytest.mark.parametrize("argv", [
        ("eval", "--data", "{file}", "--report", "{dir}/r.txt", "--use-truth"),
        ("train", "--data", "{data}", "--out", "{file}"),
        ("gen", "--out", "{file}"),
        ("predict", "--model", "{ckpt}", "--volume", "{dir}",
         "--out", "{dir}/o.mmv"),
    ], ids=["eval-data-file", "train-out-file", "gen-out-file",
            "predict-volume-dir"])
    def test_data_error(self, argv, tiny_data, tmp_path, capsys):
        file = tmp_path / "a_file"
        file.write_text("")
        ckpt = tmp_path / "m.mmck"
        save_checkpoint(ckpt, init_params(ModelConfig(seed=0)))
        paths = dict(file=file, dir=tmp_path, data=tiny_data, ckpt=ckpt)
        assert run(*(a.format(**paths) for a in argv)) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_raw_volume_freed_before_predicting(self, ckpt, tiny_data,
                                                tmp_path, monkeypatch):
        # only the normalized copy of the volume is live while
        # predict_volume runs
        read, predict, raw = cli.read_volume, cli.predict_volume, []

        def reading(path):
            volume, kind = read(path)
            raw.append(weakref.ref(volume))
            return volume, kind

        def predicting(*args):
            gc.collect()
            assert raw[0]() is None
            return predict(*args)
        monkeypatch.setattr(cli, "read_volume", reading)
        monkeypatch.setattr(cli, "predict_volume", predicting)
        assert run("predict", "--model", str(ckpt),
                   "--volume", str(tiny_data / "case_0_img.mmv"),
                   "--out", str(tmp_path / "pred.mmv")) == EXIT_OK
        assert len(raw) == 1

    def test_window_longer_than_volume(self, tiny_data, tmp_path):
        # the window length only tiles the depth; it sizes nothing
        params = init_params(ModelConfig(seed=1, encoder_channels=(2, 3, 4, 5),
                                         sequence_length=10**9))
        ckpt, out = tmp_path / "long.mmck", tmp_path / "pred.mmv"
        save_checkpoint(ckpt, params)
        assert run("predict", "--model", str(ckpt),
                   "--volume", str(tiny_data / "case_0_img.mmv"),
                   "--out", str(out)) == EXIT_OK
        assert read_volume(out)[0].shape == (16, 16, 16)

    def test_indivisible_extent_rejected(self, ckpt, tmp_path, capsys):
        # reported by predict's own extent check, which names the file
        vol = np.zeros((4, 4, 20, 20), dtype=np.float32)
        path = tmp_path / "v.mmv"
        write_volume(path, vol, "modal")
        assert run("predict", "--model", str(ckpt), "--volume", str(path),
                   "--out", str(tmp_path / "o.mmv")) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{path} has H x W 20x20" in err and "divisible by 16" in err
        assert not (tmp_path / "o.mmv").exists()

    def test_forged_volume_header_is_data_error(self, ckpt, tmp_path):
        # a 21-byte MMV whose header declares four 0xFFFFFFFF extents
        path = tmp_path / "forged.mmv"
        path.write_bytes(b"MMV1" + struct.pack("<4I", *[0xFFFFFFFF] * 4)
                         + b"\x00")
        assert run("predict", "--model", str(ckpt), "--volume", str(path),
                   "--out", str(tmp_path / "o.mmv")) == EXIT_DATA
        assert not (tmp_path / "o.mmv").exists()

    def test_nonfinite_checkpoint_weight_is_data_error(self, tiny_data,
                                                       tmp_path, capsys):
        params = init_params(ModelConfig(seed=1, encoder_channels=(2, 3, 4, 5),
                                         sequence_length=2))
        params.cls_kernel.data[0, 0] = np.nan
        ckpt, out = tmp_path / "nan.mmck", tmp_path / "o.mmv"
        save_checkpoint(ckpt, params)
        assert run("predict", "--model", str(ckpt),
                   "--volume", str(tiny_data / "case_0_img.mmv"),
                   "--out", str(out)) == EXIT_DATA
        assert "cls.kernel holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_checkpoint_tensor_is_data_error(self, ckpt, tiny_data,
                                                     tmp_path):
        # a well-formed (2,) float32 record under a name no model has
        name = b"lstm.W_xz"
        ckpt.write_bytes(ckpt.read_bytes() + struct.pack("<I", len(name)) + name
                         + struct.pack("<2I", 1, 2) + bytes(8))
        out = tmp_path / "o.mmv"
        assert run("predict", "--model", str(ckpt),
                   "--volume", str(tiny_data / "case_0_img.mmv"),
                   "--out", str(out)) == EXIT_DATA
        assert not out.exists()


class TestGradcheckCommand:
    def test_lines_count_kinks(self, capsys):
        assert run("gradcheck", "--seed", "21") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert len(lines) == 39 and all(" kinks=" in l for l in lines)
        # two max-pool inputs lie within the step of a tie at seed 21
        assert "maxpool2x2           seed=21 max_rel_err=6.123e-11 kinks=2 pass" \
            in lines


    def test_time_from_a_monotonic_clock(self, capsys, monkeypatch):
        # the wall clock jumps back an hour at each read; the table's
        # time does not follow it
        clock = itertools.count(7200.0, -3600.0)
        monkeypatch.setattr(cli.time, "time", lambda: next(clock))
        monkeypatch.setattr(cli, "run_suite", lambda **kw: [])
        assert run("gradcheck") == EXIT_OK
        assert capsys.readouterr().out == "0/0 checks passed in 0.0s\n"

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "-inf"])
    def test_bad_tolerance_is_usage_error(self, tol, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_suite",
                            lambda **kw: pytest.fail("a check ran"))
        assert run("gradcheck", f"--tol={tol}") == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: --tol must be positive and finite"]

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


def test_import_loads_no_pool_machinery():
    # a fresh interpreter's `import mmseqseg.cli` loads no thread-pool,
    # process or queue module, adds ctypes to none that numpy loads (numpy
    # itself imports it), and looks up no BLAS symbol: predict_volume
    # does both on first use. Every workload's set-up time is this import
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import numpy; "
            "before = set(sys.modules); import mmseqseg.cli; "
            "from mmseqseg.network import _blas_threads; "
            "print(*[m for m in ('concurrent.futures', 'multiprocessing', "
            "'queue') if m in sys.modules], *[m for m in ('ctypes',) "
            "if m in sys.modules and m not in before], "
            "_blas_threads.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
