"""The three benchmark workloads.

Each workload prepares its inputs from the benchmark seed in `setup`,
runs one timed unit of work in `run_unit`, and checks that unit's
outputs in `check`, outside the timed region. Program functions are
always called through their module (`training.train_step`, not a bound
name), so the tracer's rebinding reaches them.
"""

import os
import shutil

import numpy as np

from mmseqseg import dataio, gradsuite, metrics, network, training

LR = 1e-2  # the A2 acceptance run's phase-1 learning rate
SEQ_LEN = 3


def case_seed(seed, i):
    return seed * 16 + i


class Train:
    """The A2 training configuration through `training.train_step`."""

    name = "train"
    units = "train steps"  # the timed unit
    ops = "train steps"  # what attempted and failed count
    min_units = 20  # enough steps for the loss-trend check to mean something

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.dims = (16, 32, 32) if tiny else (32, 64, 64)
        self.batch = 3
        self.losses = []

    def setup(self):
        cases = []
        for i in range(4):
            img, lbl = dataio.gen_synthetic_case(case_seed(self.seed, i), self.dims)
            cases.append((dataio.normalize_volume(img), lbl))
        self.dataset = training.SequenceDataset(cases, SEQ_LEN)
        self.alpha = training.compute_class_weights([l for _, l in cases], 5).alpha
        self.config = training.TrainConfig(
            batch_size=self.batch, sequence_length=SEQ_LEN, lr_phase1=LR,
            lr_phase2=LR / 10, seed=self.seed)
        self.params = network.init_params(network.ModelConfig(seed=self.seed))
        self.named = self.params.named_tensors()
        self.opt_state = training.OptimizerState(self.named)
        self.rng = np.random.default_rng(self.seed)

    def reference(self):
        pass

    def items_per_unit(self):
        return self.batch

    def run_unit(self, i):
        batch = training.sample_phase1(self.dataset, self.rng, self.batch)
        return training.train_step(self.params, self.named, batch, self.alpha,
                                   self.opt_state, LR, self.config)

    def check(self, i, loss):
        self.losses.append(loss)
        if np.isfinite(loss):
            return 1, []
        return 1, [f"step {i}: loss {loss} is not finite"]

    def finish(self):
        """The mean loss of the last tenth of the run is below the first's."""
        tenth = max(1, len(self.losses) // 10)
        first = float(np.mean(self.losses[:tenth]))
        last = float(np.mean(self.losses[-tenth:]))
        if last < first:
            return []
        return [f"loss did not fall: first tenth {first:.6f}, last {last:.6f}"]

    def loss_end(self):
        return float(np.mean(self.losses[-10:]))


class Eval:
    """The CLI eval path on one case per unit: load the checkpoint, read
    the modal and label volumes, normalize, predict, score."""

    name = "eval"
    units = "eval cases"
    ops = "eval cases"
    min_units = 2
    n_cases = 2

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.dims = (16, 32, 32) if tiny else (48, 128, 128)
        self.workdir = workdir
        self.ckpt = os.path.join(workdir, "model.mmck")
        self.paths = [(os.path.join(workdir, f"case_{i}_img.mmv"),
                       os.path.join(workdir, f"case_{i}_lbl.mmv"))
                      for i in range(self.n_cases)]

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.images = []
        for i, (img_path, lbl_path) in enumerate(self.paths):
            img, lbl = dataio.gen_synthetic_case(case_seed(self.seed, i), self.dims)
            dataio.write_volume(img_path, img, "modal")
            dataio.write_volume(lbl_path, lbl, "label")
            self.images.append((img, lbl))
        params = network.init_params(network.ModelConfig(seed=self.seed))
        dataio.save_checkpoint(self.ckpt, params)

    def reference(self):
        """Per-window labels from `network.forward`, and their report."""
        params, config = dataio.load_checkpoint(self.ckpt)
        k = config.class_count
        self.expected = []
        for img, lbl in self.images:
            vol = dataio.normalize_volume(img)
            d = vol.shape[1]
            ref = np.empty(lbl.shape, dtype=np.uint8)
            for start in range(0, d, SEQ_LEN):
                idx = np.minimum(np.arange(start, start + SEQ_LEN), d - 1)
                probs = network.forward(params, vol[:, idx].transpose(1, 0, 2, 3))
                for j in range(min(SEQ_LEN, d - start)):
                    ref[start + j] = probs[j].argmax(axis=0)
            report = metrics.evaluate([ref], [lbl], k).to_text()
            self.expected.append((ref, report))

    def items_per_unit(self):
        d, h, w = self.dims
        return d * h * w

    def run_unit(self, i):
        img_path, lbl_path = self.paths[i % self.n_cases]
        params, config = dataio.load_checkpoint(self.ckpt)
        img, img_kind = dataio.read_volume(img_path)
        lbl, lbl_kind = dataio.read_volume(lbl_path)
        pred = network.predict_volume(params, dataio.normalize_volume(img),
                                      config.sequence_length)
        report = metrics.evaluate([pred], [lbl], config.class_count)
        return img_kind, lbl_kind, pred, report

    def check(self, i, out):
        img_kind, lbl_kind, pred, report = out
        ref, ref_report = self.expected[i % self.n_cases]
        errors = []
        if (img_kind, lbl_kind) != ("modal", "label"):
            errors.append(f"case {i}: read kinds {img_kind}, {lbl_kind}")
        if pred.shape != ref.shape or not np.array_equal(pred, ref):
            errors.append(f"case {i}: labels differ from the per-window reference")
        if report.to_text() != ref_report:
            errors.append(f"case {i}: report differs from the reference report")
        return 1, errors

    def finish(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        return []


class GradCheck:
    """`gradsuite.run_suite` over one seed of the A1 battery per unit.

    The battery's seeds are the program's own (0, 1, 2, as A1 and
    `mmseqseg gradcheck --seed 0` use); the benchmark seed picks the
    starting one. Other gradsuite seeds are not drawn: the end-to-end
    probe fails at many of them because its finite differences cross
    ReLU and max-pool kinks, which says nothing about the time a pass
    takes.
    """

    name = "gradcheck"
    units = "battery passes"
    ops = "checks"
    min_units = 2
    battery_seeds = (0, 1, 2)

    def __init__(self, seed, tiny, workdir):
        self.seed = seed

    def setup(self):
        pass

    def reference(self):
        pass

    def items_per_unit(self):
        return len(gradsuite.CHECKS)

    def run_unit(self, i):
        seeds = self.battery_seeds
        return gradsuite.run_suite(seeds=(seeds[(self.seed + i) % len(seeds)],))

    def check(self, i, results):
        errors = [f"{name} seed={seed}: {report!r}"
                  for name, seed, report in results if not report.passed]
        return len(results), errors

    def finish(self):
        return []


WORKLOADS = {w.name: w for w in (Train, Eval, GradCheck)}
