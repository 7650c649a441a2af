"""Command-line surface: gen / train / eval / predict / gradcheck.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure, 4 gradcheck failure. Output files are written to a .partial
path and renamed only on completion.
"""

import argparse
import os
import sys
import time
from dataclasses import fields

from . import metrics
from .dataio import (MIN_EXTENT, FormatError, gen_synthetic_case,
                     load_checkpoint, normalize_volume, read_volume,
                     save_checkpoint, write_volume)
from .gradsuite import run_suite
from .network import (N_SCALES, ModelConfig, config_text, init_params,
                      parse_config, predict_volume)
from .tensor import NumericalError
from .training import SequenceDataset, TrainConfig, run_two_phase

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_GRADCHECK = 4

# The config-file keys: every field of the two config dataclasses.
CONFIG_KEYS = {f.name for cls in (ModelConfig, TrainConfig) for f in fields(cls)}


class ConfigError(ValueError):
    pass


def parse_config_file(path):
    """`key = value` lines, # comments; returns dict of raw strings.
    The file is UTF-8; any other bytes are a ConfigError naming it."""
    out = {}
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from e
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def resolve_config(file_values, overrides):
    """(ModelConfig, TrainConfig) from the dataclass defaults, then the
    config file, then flag overrides (flags win)."""
    raw = dict(file_values)
    raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    try:
        return parse_config(ModelConfig, raw), parse_config(TrainConfig, raw)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def atomic_write(path, writer):
    """writer(partial_path); rename only on success."""
    partial = str(path) + ".partial"
    writer(partial)
    os.replace(partial, path)


def write_text(path, text):
    """atomic_write of a text file; the handle is closed before the rename."""
    def writer(partial):
        with open(partial, "w") as f:
            f.write(text)

    atomic_write(path, writer)


def load_cases(data_dir):
    """Reads case_<i>_img.mmv / case_<i>_lbl.mmv pairs into a dict from
    label file name to (normalized image, labels). Cases come in the
    string order of their file names, so case_10 precedes case_2, and
    train's windows follow this order. An image and its labels must
    share (D, H, W), and H and W must divide by 2**N_SCALES, so a bad
    case fails before any training or prediction runs."""
    cases = {}
    names = sorted(n for n in os.listdir(data_dir) if n.endswith("_img.mmv"))
    if not names:
        raise FormatError(f"no case_*_img.mmv files in {data_dir}")
    for name in names:
        img, kind = read_volume(os.path.join(data_dir, name))
        if kind != "modal":
            raise FormatError(f"{name} is not a modal volume")
        lbl_name = name.replace("_img.mmv", "_lbl.mmv")
        lbl, kind = read_volume(os.path.join(data_dir, lbl_name))
        if kind != "label":
            raise FormatError(f"{lbl_name} is not a label volume")
        if img.shape[1:] != lbl.shape:
            raise FormatError(
                f"{name} has (D, H, W) {img.shape[1:]} but {lbl_name} has "
                f"{lbl.shape}")
        check_extents(name, img)
        cases[lbl_name] = (normalize_volume(img), lbl)
    return cases


def check_extents(name, img):
    """A data error naming the image file if the H or W of its
    (M, D, H, W) volume does not divide by 2**N_SCALES."""
    div = 2 ** N_SCALES
    if img.shape[2] % div or img.shape[3] % div:
        raise FormatError(
            f"{name} has H x W {img.shape[2]}x{img.shape[3]}; both must "
            f"be divisible by {div}")


def check_cases(cases, config):
    """A data error naming the first case whose image has other than
    modality_count modalities or whose label file holds a value of
    class_count or more."""
    for lbl_name, (img, lbl) in cases.items():
        check_modalities(lbl_name.replace("_lbl.mmv", "_img.mmv"), img,
                         config)
        if lbl.max() >= config.class_count:
            raise FormatError(f"{lbl_name} holds label {lbl.max()}, but "
                              f"class_count is {config.class_count}")


def check_modalities(name, img, config):
    """A data error naming the image file if its (M, D, H, W) volume has
    other than modality_count modalities."""
    if img.shape[0] != config.modality_count:
        raise FormatError(f"{name} has {img.shape[0]} modalities, but "
                          f"modality_count is {config.modality_count}")


def cmd_gen(args):
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 3 or min(dims) < MIN_EXTENT:
        raise ConfigError(f"--dims must be D,H,W, each at least {MIN_EXTENT}")
    if args.count < 1:
        raise ConfigError("--count must be at least 1")
    if args.seed < 0:
        raise ConfigError("--seed must not be negative")
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        volume, labels = gen_synthetic_case(args.seed + i, dims)
        atomic_write(os.path.join(args.out, f"case_{i}_img.mmv"),
                     lambda p: write_volume(p, volume, "modal"))
        atomic_write(os.path.join(args.out, f"case_{i}_lbl.mmv"),
                     lambda p: write_volume(p, labels, "label"))
    print(f"wrote {args.count} case pairs to {args.out}")
    return EXIT_OK


def cmd_train(args):
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {
        "seed": args.seed,
        "phase1_steps": args.phase1_steps,
        "phase2_steps": args.phase2_steps,
        "batch_size": args.batch_size,
    }
    model_cfg, train_cfg = resolve_config(file_values, overrides)
    cases = load_cases(args.data)
    check_cases(cases, model_cfg)
    dataset = SequenceDataset(list(cases.values()), train_cfg.sequence_length)
    if train_cfg.phase1_steps and not dataset.tumor_windows:
        raise FormatError("no tumor-bearing sequence available for phase 1")
    params = init_params(model_cfg)

    os.makedirs(args.out, exist_ok=True)
    records = run_two_phase(train_cfg, params, dataset)
    atomic_write(os.path.join(args.out, "model.mmck"),
                 lambda p: save_checkpoint(p, params))
    write_text(os.path.join(args.out, "train.log"),
               "".join(r + "\n" for r in records))
    write_text(os.path.join(args.out, "config.resolved"),
               config_text(model_cfg, train_cfg))
    print(f"trained {len(records)} steps; checkpoint at "
          f"{os.path.join(args.out, 'model.mmck')}")
    return EXIT_OK


def cmd_eval(args):
    cases = load_cases(args.data)
    truths = [lbl for _, lbl in cases.values()]
    if args.use_truth:
        k = max(int(lbl.max()) for lbl in truths) + 1
        preds = truths
    else:
        params, config = load_checkpoint(args.model)
        k = config.class_count
        check_cases(cases, config)
        preds = [predict_volume(params, img, config.sequence_length)
                 for img, _ in cases.values()]
    report = metrics.evaluate(preds, truths, k)
    write_text(args.report, report.to_text())
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_predict(args):
    params, config = load_checkpoint(args.model)
    volume, kind = read_volume(args.volume)
    if kind != "modal":
        raise FormatError(f"{args.volume} is not a modal volume")
    check_modalities(args.volume, volume, config)
    check_extents(args.volume, volume)
    volume = normalize_volume(volume)  # the raw copy dies before predicting
    labels = predict_volume(params, volume, config.sequence_length)
    atomic_write(args.out, lambda p: write_volume(p, labels, "label"))
    print(f"wrote label volume to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args):
    if args.seed < 0:
        raise ConfigError("--seed must not be negative")
    if args.tol is not None and not 0 < args.tol < float("inf"):
        raise ConfigError("--tol must be positive and finite")
    t0 = time.perf_counter()
    results = run_suite(seeds=tuple(range(args.seed, args.seed + 3)),
                        tol=args.tol)
    failed = 0
    for name, seed, report in results:
        status = "pass" if report.passed else "FAIL"
        print(f"{name:<20} seed={seed} max_rel_err={report.worst():.3e} "
              f"kinks={report.kinks} {status}")
        failed += 0 if report.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed "
          f"in {time.perf_counter() - t0:.1f}s")
    return EXIT_OK if failed == 0 else EXIT_GRADCHECK


def build_parser():
    p = argparse.ArgumentParser(
        prog="mmseqseg",
        description="Multi-modal slice-sequence segmentation engine")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic case pairs")
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, default=4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--dims", default="32,64,64")
    g.set_defaults(fn=cmd_gen)

    t = sub.add_parser("train", help="two-phase training run")
    t.add_argument("--config")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int)
    t.add_argument("--phase1-steps", type=int, dest="phase1_steps")
    t.add_argument("--phase2-steps", type=int, dest="phase2_steps")
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--model")
    e.add_argument("--data", required=True)
    e.add_argument("--report", required=True)
    e.add_argument("--use-truth", action="store_true",
                   help="score ground truth against itself (oracle mode)")
    e.set_defaults(fn=cmd_eval)

    pr = sub.add_parser("predict", help="predict a label volume")
    pr.add_argument("--model", required=True)
    pr.add_argument("--volume", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(fn=cmd_predict)

    gc = sub.add_parser("gradcheck", help="run the gradient-check battery")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--tol", type=float, default=None)
    gc.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    if args.command == "eval" and not args.use_truth and not args.model:
        print("error: eval requires --model (or --use-truth)", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
