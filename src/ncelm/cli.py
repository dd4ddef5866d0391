"""Command-line front end: data generation, training, evaluation, checks.

Exit codes are a stable scripting contract:
  0 success, 1 verification failure, 2 usage or I/O error, 3 divergence.

Every command that writes an output file also writes ``<out>.config`` echoing
the resolved flag values and tool version, so any artifact can be regenerated
from its sidecar alone. Numeric results meant for downstream analysis go to
CSV files, never to parsed stdout text.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .checks import GRADCHECK_SUITES, run_equiv_check, run_gradcheck
from .corpus import (
    DENSE_GRIDS,
    MAX_VOCAB_SIZE,
    GroundTruthTable,
    build_vocab,
    check_vocab_cap,
    generate_synthetic_stream,
    make_zipf_truth,
    pair_count_matrix,
    pairs_from_tokens,
    read_corpus_tokens,
    read_truth,
    write_corpus_tokens,
    write_truth,
)
from .model import Z_FIXED_ONE, Z_LEARNED_ZC, load_model, normalization_stats, save_model
from .trainer import (
    OBJ_MLE,
    OBJ_NCE,
    OBJ_NS,
    TrainConfig,
    TrainingDiverged,
    cross_entropy,
    kl_truth_rows,
    sweep_runs,
    train,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

_OBJECTIVES = {"mle": OBJ_MLE, "nce": OBJ_NCE, "ns": OBJ_NS}
_Z_MODES = {
    "learned_zc": Z_LEARNED_ZC,
    "fixed_one": Z_FIXED_ONE,
    "learned": Z_LEARNED_ZC,
    "fixed": Z_FIXED_ONE,
}

SWEEP_HEADER = "k,seed,final_kl,final_ce,median_abs_log_z"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow is reported by the finiteness checks, as exit 2 or 3, not
        # by numpy's RuntimeWarnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError, MemoryError) as exc:
        # numpy's MemoryError names the allocation: "Unable to allocate ...".
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each command's ``func``
    default is bound here, so patching a ``_cmd_*`` function later has no
    effect on :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="ncelm",
        description="Bigram log-bilinear language model: exact MLE, "
        "noise contrastive estimation, and negative sampling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic corpus and its ground truth")
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--zipf-s", type=float, default=1.2, help="rank-frequency exponent")
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one model and write metrics + model files")
    _add_data_flags(p, truth_required=False)
    p.add_argument("--objective", type=str.lower, choices=sorted(_OBJECTIVES), required=True)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-every", action="store_true",
                   help="also write <out>.ep<N>.model at each metrics epoch")
    p.add_argument("--out", required=True, help="model file; metrics go to <out>.metrics.csv")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="report cross-entropy, KL to truth, normalizer spread")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--truth")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="train once per (k, seed) and tabulate final metrics")
    _add_data_flags(p, truth_required=True)
    p.add_argument("--objective", type=str.lower, choices=("nce", "ns"), default="nce")
    _add_train_flags(p)
    p.add_argument("--ks", required=True, help="comma list of positive k values, ascending")
    p.add_argument("--seeds", type=int, default=1, help="number of seeds, base-seed upward")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--which", choices=GRADCHECK_SUITES + ("all",), default="all")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("equiv-check", help="NS vs NCE agreement at k = vocab size")
    p.add_argument("--vocab-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--force-k", type=int, default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_equiv_check)
    return parser


def _add_data_flags(p, truth_required: bool) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--truth", required=truth_required)


def _add_train_flags(p) -> None:
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--z-mode", type=str.lower, choices=sorted(_Z_MODES), default="fixed_one")
    p.add_argument("--noise", default="uniform",
                   help="uniform | unigram | flattened:<alpha>, alpha in (0, 1)")
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--lr-decay", type=float, default=0.98)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--eval-every", type=int, default=10)
    p.add_argument("--dim", type=int, default=16)


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def _check_vocab_size(size: int) -> None:
    if not 2 <= size <= MAX_VOCAB_SIZE:
        raise ValueError(f"--vocab-size must be in [2, {MAX_VOCAB_SIZE}]: {DENSE_GRIDS}")


def _check_seed(seed: int) -> None:
    # train and sweep check theirs as TrainConfig.seed.
    if seed < 0:
        raise ValueError("--seed must be >= 0")


def _cmd_gen_data(args) -> int:
    _check_vocab_size(args.vocab_size)
    _check_seed(args.seed)
    if args.tokens < 1:
        raise ValueError("--tokens must be >= 1")
    truth = make_zipf_truth(args.vocab_size, args.zipf_s, args.seed)
    vocab = build_vocab(f"w{i}" for i in range(args.vocab_size))
    ids = generate_synthetic_stream(truth, args.tokens, args.seed)
    write_corpus_tokens(args.out_prefix + ".txt", (vocab.words[i] for i in ids))
    write_truth(args.out_prefix + ".truth", truth, vocab)
    _write_config(args.out_prefix, args)
    print(f"wrote {args.out_prefix}.txt and {args.out_prefix}.truth")
    return EXIT_OK


def _read(reader, path):
    """``reader(path)``, with the path in front of a ValueError about the file."""
    try:
        return reader(path)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None


def _load_training_data(args):
    tokens = _read(read_corpus_tokens, args.corpus)
    truth, vocab = _read(read_truth, args.truth) if args.truth else (None, None)
    try:
        if vocab is None:
            vocab = build_vocab(tokens)
            check_vocab_cap(len(vocab))
        pairs = pairs_from_tokens(tokens, vocab)
    except ValueError as exc:
        raise ValueError(f"{args.corpus}: {exc}") from None
    return pairs, len(vocab), truth, vocab


def _train_config(args, objective: str, seed: int) -> TrainConfig:
    z_mode = _Z_MODES[args.z_mode]
    if objective == OBJ_NS and z_mode == Z_LEARNED_ZC:
        print(
            "warning: negative sampling has no learnable normalizer; "
            "z is frozen at 1",
            file=sys.stderr,
        )
    return TrainConfig(
        objective=objective,
        k=args.k,
        z_mode=z_mode,
        noise=args.noise,
        learning_rate=args.lr,
        lr_decay=args.lr_decay,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=seed,
        eval_every=args.eval_every,
        dim=args.dim,
    )


def _cmd_train(args) -> int:
    pairs, n_words, truth, vocab = _load_training_data(args)
    config = _train_config(args, _OBJECTIVES[args.objective], args.seed)

    def checkpoint(run, epoch, params, row) -> None:
        save_model(f"{args.out}.ep{epoch}.model", params, vocab)

    params, history = train(config, pairs, n_words, truth=truth,
                            on_eval=checkpoint if args.checkpoint_every else None)
    save_model(args.out, params, vocab)
    write_metrics_csv(history, args.out + ".metrics.csv")
    _write_config(args.out, args)
    last = history[-1]
    print(f"final epoch {last.epoch} cross_entropy {last.cross_entropy:.9g}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    params, vocab = _read(load_model, args.model)
    tokens = _read(read_corpus_tokens, args.corpus)
    try:
        pairs = pairs_from_tokens(tokens, vocab)
    except ValueError as exc:
        raise ValueError(
            f"{args.corpus}: corpus does not match the vocabulary of {args.model}: {exc}"
        ) from None
    grid = pair_count_matrix(pairs, len(vocab))
    zstats = normalization_stats(params, np.flatnonzero(grid.sum(axis=1)))
    ce = cross_entropy(params, grid)
    values = {"cross-entropy": ce, **{f"log Z {name}": v for name, v in zstats.items()}}
    if args.truth:
        truth, tvocab = _read(read_truth, args.truth)
        if set(tvocab.words) != set(vocab.words):
            raise ValueError(f"{args.truth}: ground-truth vocabulary does not match {args.model}")
        # A model trained without --truth lists its words in corpus order.
        order = [tvocab.index[w] for w in vocab.words]
        truth = GroundTruthTable(truth.cond[np.ix_(order, order)], truth.context_marginal[order])
        rows = kl_truth_rows(truth, params)
        values.update((f"KL of context {vocab.words[c]}", kl) for c, kl in enumerate(rows))
        values["mean KL"] = rows.mean()
    # Every value is checked before any is printed: a failed eval prints nothing.
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} is {v}: the model's scores overflow")
    print(f"cross_entropy {ce:.9g}")
    print(f"log_z min {zstats['min']:.9g} median {zstats['median']:.9g} max {zstats['max']:.9g}")
    if args.truth:
        for c, kl in enumerate(rows):
            print(f"kl {vocab.words[c]} {kl:.9g}")
        print(f"kl_mean {values['mean KL']:.9g}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        ks = [int(x) for x in args.ks.split(",")]  # an empty item is an error too
    except ValueError:
        raise ValueError(f"bad --ks value {args.ks!r}") from None
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    pairs, n_words, truth, _ = _load_training_data(args)
    objective = _OBJECTIVES[args.objective]
    # Bad k lists, seed counts and TrainConfig values fail before any file is written.
    base = _train_config(args, objective, args.seed)
    bases = [replace(base, seed=args.seed + offset) for offset in range(args.seeds)]
    rows = sweep_runs(bases, ks, pairs, n_words, truth)
    _write_config(args.out, args)
    # The (seed, k) runs train in lockstep, up to trainer.LOCKSTEP_PAIRS
    # shuffled pairs per call. Rows are flushed as each call finishes, and a
    # diverged run leaves the rows of the runs before it in (seed, k) order,
    # as a serial loop would.
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        fh.flush()
        for config, row in rows:
            fh.write(
                f"{config.k},{config.seed},{row.kl_truth:.9g},"
                f"{row.cross_entropy:.9g},{row.median_abs_log_z:.9g}\n"
            )
            fh.flush()
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    _check_seed(args.seed)
    result = run_gradcheck(which=args.which, seed=args.seed, corrupt=args.corrupt)
    print(result.report())
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def _cmd_equiv_check(args) -> int:
    _check_vocab_size(args.vocab_size)
    _check_seed(args.seed)
    result = run_equiv_check(
        vocab_size=args.vocab_size, seed=args.seed, force_k=args.force_k
    )
    print(result.report())
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def _write_config(out_base: str, args) -> None:
    """Sidecar listing all resolved flag values, one per line, sorted."""
    skip = {"func", "command"}
    with open(out_base + ".config", "w", encoding="utf-8") as fh:
        fh.write(f"command = {args.command}\n")
        fh.write(f"version = {__version__}\n")
        for name in sorted(vars(args)):
            if name in skip:
                continue
            fh.write(f"{name.replace('_', '-')} = {getattr(args, name)}\n")


if __name__ == "__main__":
    sys.exit(main())
