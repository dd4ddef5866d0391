"""The three benchmark workloads, each driving ncelm through its public API.

All of them use the acceptance fixture: |V| = 16, Zipf exponent 1.8 with the
truth table of seed 7, learning rate 0.4, decay 0.95, batch 64, dim 4. The
truth table stays fixed so that ``final_kl_nats`` compares like with like
across seeds; ``--seed`` picks the sampled corpus and the training seeds.

A workload is a closed loop with one client. ``setup`` generates the inputs
and warms up every code path once; ``run_round`` is one unit of timed work,
repeated by the runner until the run's time is up; ``finish`` runs the checks
that need several rounds. Each operation is bracketed by two runs of
``calibrate``, the host-speed kernel the runner installs, whose mean time is
kept with the operation. Operations are ``trainer.train`` calls in the two
training workloads and ``cli.main`` calls in cli-lab. An operation fails when
it raises, exits non-zero, or its output fails a check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ncelm import cli, corpus, trainer

VOCAB = 16
ZIPF_S = 1.8
TRUTH_SEED = 7
OPT = dict(learning_rate=0.4, lr_decay=0.95, batch_size=64, dim=4)

# final_kl_nats averages over the first KL_ROUNDS rounds, each with its own
# training seed, so it is a fixed function of --seed once that many rounds ran.
KL_ROUNDS = 12

# Acceptance 4: NCE at k = 50 ends within this many nats of MLE.
NCE50_GAP_NATS = 0.05


@dataclass
class Op:
    """One timed operation."""

    kind: str
    seconds: float
    steps: int  # SGD steps taken inside it; 0 for operations that do not train
    ok: bool
    host_s: float  # mean time of the calibration kernel just before and after it


def _no_calibration() -> float:
    """Stands in for the kernel until the runner installs it, as in set-up."""
    return 1.0


def _steps(epochs: int, n_pairs: int, batch_size: int = OPT["batch_size"]) -> int:
    return epochs * math.ceil(n_pairs / batch_size)


def _report_error(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class TrainWorkload:
    """``trainer.train`` on N_PAIRS sampled pairs, one epoch and one eval per call.

    ``runs`` lists (label, objective, k); NCE runs use learned_zc and every
    sampled objective uses unigram noise.
    """

    N_PAIRS = 100_000
    EPOCHS = 1
    WARMUP_PAIRS = 2_048

    def __init__(self, seed: int, runs: tuple[tuple[str, str, int], ...]):
        self.seed = seed
        self.runs = runs
        self.kl: dict[str, list[float]] = {label: [] for label, _, _ in runs}
        self.failed_checks = 0
        self.calibrate = _no_calibration

    def _config(self, objective: str, k: int, train_seed: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            objective=objective, k=k, z_mode="learned_zc", noise="unigram",
            epochs=self.EPOCHS, eval_every=self.EPOCHS, seed=train_seed, **OPT,
        )

    def train_seed(self, round_index: int) -> int:
        return 1000 * self.seed + round_index

    def setup(self) -> None:
        self.truth = corpus.make_zipf_truth(VOCAB, ZIPF_S, seed=TRUTH_SEED)
        self.pairs = corpus.generate_synthetic_corpus(self.truth, self.N_PAIRS, seed=self.seed)
        warm = self.pairs[: self.WARMUP_PAIRS]
        for _, objective, k in self.runs:
            trainer.train(self._config(objective, k, self.seed), warm, VOCAB, truth=self.truth)

    def _train(self, label: str, objective: str, k: int, train_seed: int) -> tuple[Op, float]:
        cfg = self._config(objective, k, train_seed)
        host = self.calibrate()
        t0 = time.perf_counter()
        try:
            params, history = trainer.train(cfg, self.pairs, VOCAB, truth=self.truth)
        except Exception:
            seconds = time.perf_counter() - t0
            _report_error(f"train {label} seed {train_seed}")
            return Op(label, seconds, 0, False, (host + self.calibrate()) / 2), math.nan
        seconds = time.perf_counter() - t0
        host = (host + self.calibrate()) / 2
        kl = history[-1].kl_truth
        finite = all(
            np.all(np.isfinite(getattr(params, name)))
            for name in ("target_emb", "context_emb", "bias", "log_zc")
        )
        ok = finite and len(history) == 1 and math.isfinite(kl)
        if not ok:
            print(f"check failed: train {label} seed {train_seed}: non-finite output", file=sys.stderr)
        steps = _steps(self.EPOCHS, self.N_PAIRS)
        return Op(label, seconds, steps, ok, host), kl

    def run_round(self, round_index: int) -> list[Op]:
        train_seed = self.train_seed(round_index)
        ops, kls = [], {}
        for label, objective, k in self.runs:
            op, kls[label] = self._train(label, objective, k, train_seed)
            ops.append(op)
        if round_index < KL_ROUNDS:
            for label, kl in kls.items():
                self.kl[label].append(kl)
        self.check_round(ops, kls, train_seed)
        return ops

    def check_round(self, ops: list[Op], kls: dict[str, float], train_seed: int) -> None:
        """Checks comparing the runs of one round; none by default."""

    def finish(self) -> None:
        """Checks that need every round; none by default."""


class TrainSmallK(TrainWorkload):
    """MLE, NCE k=1 and NS k=5: steps bound by numpy call overhead."""

    def __init__(self, seed: int):
        super().__init__(seed, (("mle", "mle_exact", 1), ("nce-k1", "nce", 1), ("ns-k5", "ns", 5)))

    def final_kl(self) -> list[float]:
        # Negative sampling is biased by design; only MLE and NCE are judged.
        return self.kl["mle"] + self.kl["nce-k1"]

    def check_round(self, ops, kls, train_seed):
        # Acceptance 6: negative sampling with unigram noise ends further from
        # the truth than NCE does.
        ns = next(op for op in ops if op.kind == "ns-k5")
        if ns.ok and not kls["ns-k5"] > kls["nce-k1"]:
            print(f"check failed: NS KL {kls['ns-k5']:.4f} <= NCE KL {kls['nce-k1']:.4f} "
                  f"at seed {train_seed}", file=sys.stderr)
            ns.ok = False


class TrainLargeK(TrainWorkload):
    """NCE k=50: steps bound by (n, k, dim) gathers and memory.

    A call on 100k pairs lasts 1.2-1.7 s; 25k pairs make it about 0.3 s, so a
    30 s run holds some 80 calls, and the calibration kernel around each call
    samples the host's speed every few tenths of a second. The final eval's
    (n, k + 1, dim) float64 gathers are then 41 MB, still above glibc's
    32 MiB ceiling for reusing freed heap memory, so each call maps and
    faults in fresh pages as it does at 100k pairs.

    The MLE reference runs for acceptance 4's gap are made after the timed
    body, with the training seeds of the KL rounds.
    """

    N_PAIRS = 25_000

    def __init__(self, seed: int):
        super().__init__(seed, (("nce-k50", "nce", 50),))
        self.mle_kl: list[float] = []

    def finish(self) -> None:
        nce_kl = self.kl["nce-k50"]
        for round_index in range(len(nce_kl)):
            cfg = self._config("mle_exact", 1, self.train_seed(round_index))
            _, history = trainer.train(cfg, self.pairs, VOCAB, truth=self.truth)
            self.mle_kl.append(history[-1].kl_truth)
        gap = float(np.mean(nce_kl) - np.mean(self.mle_kl))
        if not gap <= NCE50_GAP_NATS:
            print(f"check failed: KL(NCE k=50) - KL(MLE) = {gap:+.4f} nats", file=sys.stderr)
            self.failed_checks += len(nce_kl)

    def final_kl(self) -> list[float]:
        return self.kl["nce-k50"] + self.mle_kl


class CliLab:
    """In-process ``cli.main`` calls on a small generated corpus.

    One round is the full lab sequence: gen-data, train (NCE and MLE, with an
    eval and a checkpoint every epoch), eval, sweep, gradcheck, equiv-check.
    Round r trains with the r % KL_ROUNDS-th training seed, so later rounds
    repeat earlier ones; every output file and every stdout of a repeat must
    be byte-identical to the first run with that seed.
    """

    TOKENS = 10_000
    EPOCHS = 3
    SWEEP_KS = (1, 5)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.reference: dict[tuple[int, int], str] = {}
        self.kl_by_seed: dict[int, list[float]] = {}
        self.failed_checks = 0
        self.calibrate = _no_calibration

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _commands(self, train_seed: int) -> list[tuple[list[str], list[str], int]]:
        """(argv, files written, SGD steps) of one round, in order."""
        data = self._path("data")
        corpus_flags = ["--corpus", data + ".txt", "--truth", data + ".truth"]
        opt = ["--lr", str(OPT["learning_rate"]), "--lr-decay", str(OPT["lr_decay"]),
               "--batch-size", str(OPT["batch_size"]), "--dim", str(OPT["dim"]),
               "--noise", "unigram", "--z-mode", "learned_zc", "--epochs", str(self.EPOCHS),
               "--seed", str(train_seed)]
        steps = _steps(self.EPOCHS, self.TOKENS)
        out = [([
            "gen-data", "--vocab-size", str(VOCAB), "--zipf-s", str(ZIPF_S),
            "--tokens", str(self.TOKENS), "--seed", str(TRUTH_SEED), "--out-prefix", data,
        ], [data + ".txt", data + ".truth", data + ".config"], 0)]
        for objective in ("nce", "mle"):
            model = self._path(f"{objective}.model")
            written = [model, model + ".metrics.csv", model + ".config"]
            written += [f"{model}.ep{e}.model" for e in range(1, self.EPOCHS + 1)]
            out.append(([
                "train", *corpus_flags, "--objective", objective, "--k", "5",
                "--eval-every", "1", "--checkpoint-every", "--out", model, *opt,
            ], written, steps))
        out.append((["eval", "--model", self._path("nce.model"), *corpus_flags], [], 0))
        sweep = self._path("sweep.csv")
        out.append(([
            "sweep", *corpus_flags, "--objective", "nce",
            "--ks", ",".join(map(str, self.SWEEP_KS)), "--eval-every", str(self.EPOCHS),
            "--out", sweep, *opt,
        ], [sweep, sweep + ".config"], len(self.SWEEP_KS) * steps))
        out.append((["gradcheck", "--seed", str(train_seed)], [], 0))
        out.append((["equiv-check", "--seed", str(train_seed)], [], 0))
        return out

    def setup(self) -> None:
        # Data generation is the round's first command; the warm-up is one
        # whole round with the first training seed.
        self.failed_checks += sum(not op.ok for op in self.run_round(0))

    def run_round(self, round_index: int) -> list[Op]:
        seed_index = round_index % KL_ROUNDS
        train_seed = 1000 * self.seed + seed_index
        ops = []
        for i, (argv, written, steps) in enumerate(self._commands(train_seed)):
            out = io.StringIO()
            host = self.calibrate()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
            except Exception:
                seconds = time.perf_counter() - t0
                _report_error(" ".join(argv))
                ops.append(Op(argv[0], seconds, 0, False, (host + self.calibrate()) / 2))
                continue
            seconds = time.perf_counter() - t0
            host = (host + self.calibrate()) / 2
            ok = code == 0 and self._check(argv, out.getvalue(), written, (seed_index, i))
            if code != 0:
                print(f"check failed: {argv[0]} exited {code}", file=sys.stderr)
            ops.append(Op(argv[0], seconds, steps, ok, host))
        if seed_index not in self.kl_by_seed and all(op.ok for op in ops):
            self.kl_by_seed[seed_index] = self._read_kl()
        return ops

    def _check(self, argv: list[str], stdout: str, written: list[str], key) -> bool:
        command = argv[0]
        lines = stdout.splitlines()
        if command in ("gradcheck", "equiv-check") and (not lines or lines[-1] != f"{command} PASS"):
            print(f"check failed: {command} did not print PASS", file=sys.stderr)
            return False
        if command == "eval":
            values = {ln.split()[0]: ln.split()[-1] for ln in lines
                      if ln.startswith(("cross_entropy", "kl_mean"))}
            if set(values) != {"cross_entropy", "kl_mean"} or not all(
                math.isfinite(float(v)) for v in values.values()
            ):
                print(f"check failed: eval printed {stdout!r}", file=sys.stderr)
                return False
        digest = hashlib.sha256(stdout.encode())
        for path in written:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        first = self.reference.setdefault(key, digest.hexdigest())
        if first != digest.hexdigest():
            print(f"check failed: {' '.join(argv)} output differs from its first run",
                  file=sys.stderr)
            return False
        return True

    def _read_kl(self) -> list[float]:
        kl = []
        for objective in ("nce", "mle"):
            with open(self._path(f"{objective}.model.metrics.csv"), encoding="utf-8") as fh:
                kl.append(float(fh.read().splitlines()[-1].split(",")[2]))
        with open(self._path("sweep.csv"), encoding="utf-8") as fh:
            kl += [float(line.split(",")[2]) for line in fh.read().splitlines()[1:]]
        return kl

    def finish(self) -> None:
        pass

    def final_kl(self) -> list[float]:
        return [kl for values in self.kl_by_seed.values() for kl in values]


def make(name: str, seed: int, workdir: str):
    if name == "train-small-k":
        return TrainSmallK(seed)
    if name == "train-large-k":
        return TrainLargeK(seed)
    if name == "cli-lab":
        return CliLab(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train-small-k", "train-large-k", "cli-lab")

# Spans each workload must record at least one call of in a traced run.
_TRAIN_SPANS = (
    "seeding.derive_rng", "corpus.generate_synthetic_corpus", "noise.sample_array",
    "nce.classifier_logits", "nce.mc_grad", "nce.mc_loss", "model.apply_gradient",
    "model.params_finite", "model.log_likelihood", "model.log_partitions",
    "trainer.train", "trainer.kl_truth_model",
)
EXPECTED_SPANS = {
    "train-small-k": _TRAIN_SPANS + ("negsampling.ns_grad", "model.grad_log_likelihood"),
    "train-large-k": _TRAIN_SPANS,
    "cli-lab": (
        "seeding.derive_rng", "corpus.generate_synthetic_stream", "corpus.read_corpus_tokens",
        "corpus.write_corpus_tokens", "corpus.pairs_from_tokens", "corpus.read_truth",
        "noise.sample_array", "model.grad_log_likelihood", "model.log_likelihood",
        "model.log_partitions", "model.apply_gradient", "model.params_finite",
        "model.save_model", "model.load_model", "nce.classifier_logits", "nce.mc_loss",
        "nce.mc_grad", "negsampling.ns_grad", "trainer.train", "trainer.kl_truth_model",
        "checks.finite_diff_gradient", "checks.run_gradcheck", "checks.run_equiv_check",
        "cli.main",
    ),
}
