import math
import re
import subprocess
import sys

import numpy as np
import pytest

from ncelm.cli import MAX_VOCAB_SIZE
from ncelm.corpus import GroundTruthTable, build_vocab, read_corpus_tokens, read_truth, write_truth
from ncelm.model import init_params, load_model, save_model


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ncelm.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def gen_fixture(tmp_path, tokens=2000, seed=7, vocab_size=8):
    tmp_path.mkdir(parents=True, exist_ok=True)
    prefix = tmp_path / "fix"
    r = run_cli("gen-data", "--vocab-size", vocab_size, "--zipf-s", "1.5",
                "--tokens", tokens, "--seed", seed, "--out-prefix", prefix)
    assert r.returncode == 0, r.stderr
    return prefix


def test_gen_data_is_deterministic_and_self_consistent(tmp_path):
    p1 = gen_fixture(tmp_path / "a")
    p2 = gen_fixture(tmp_path / "b")
    assert (p1.with_suffix(".txt")).read_bytes() == (p2.with_suffix(".txt")).read_bytes()
    assert (p1.with_suffix(".truth")).read_bytes() == (p2.with_suffix(".truth")).read_bytes()
    truth, vocab = read_truth(str(p1) + ".truth")
    toks = read_corpus_tokens(str(p1) + ".txt")
    assert len(toks) == 2000
    assert set(toks) <= set(vocab.words)
    assert (tmp_path / "a" / "fix.config").exists()


def test_gen_data_unigram_tracks_marginal(tmp_path):
    prefix = gen_fixture(tmp_path, tokens=100000, vocab_size=16)
    truth, vocab = read_truth(str(prefix) + ".truth")
    toks = read_corpus_tokens(str(prefix) + ".txt")
    counts = np.zeros(16)
    for t in toks:
        counts[vocab.id_of(t)] += 1
    # Spearman's rho, the correlation of the ranks; neither side has ties.
    ranks = np.argsort(np.argsort([counts, truth.context_marginal], axis=1), axis=1)
    rho = np.corrcoef(ranks)[0, 1]
    assert rho >= 0.9


def test_gen_data_usage_errors(tmp_path):
    r = run_cli("gen-data", "--vocab-size", 1, "--tokens", 10,
                "--out-prefix", tmp_path / "x")
    assert r.returncode == 2
    r = run_cli("gen-data", "--vocab-size", 4, "--tokens", 0,
                "--out-prefix", tmp_path / "x")
    assert r.returncode == 2
    # The cap is checked before anything is allocated or written.
    r = run_cli("gen-data", "--vocab-size", MAX_VOCAB_SIZE + 1, "--tokens", 10,
                "--out-prefix", tmp_path / "x")
    assert r.returncode == 2
    assert f"--vocab-size must be in [2, {MAX_VOCAB_SIZE}]" in r.stderr
    assert not (tmp_path / "x.txt").exists()
    r = run_cli("equiv-check", "--vocab-size", MAX_VOCAB_SIZE + 1)
    assert r.returncode == 2
    assert str(MAX_VOCAB_SIZE) in r.stderr


def train_args(prefix, out, *extra):
    return ["train", "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth",
            "--epochs", 4, "--eval-every", 2, "--batch-size", 32, "--dim", 4,
            "--seed", 3, "--out", out, *extra]


def test_train_writes_model_metrics_config(tmp_path):
    prefix = gen_fixture(tmp_path)
    out = tmp_path / "m.model"
    r = run_cli(*train_args(prefix, out, "--objective", "nce", "--k", 3))
    assert r.returncode == 0, r.stderr
    assert out.exists()
    lines = (tmp_path / "m.model.metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,cross_entropy,kl_truth,median_abs_log_z,objective,seconds"
    assert len(lines) == 3  # epochs 2 and 4
    config = (tmp_path / "m.model.config").read_text()
    assert "objective = nce" in config and "version = " in config


def test_train_is_byte_identical_across_runs(tmp_path):
    prefix = gen_fixture(tmp_path)
    outs = []
    for name in ("r1.model", "r2.model"):
        out = tmp_path / name
        r = run_cli(*train_args(prefix, out, "--objective", "nce", "--k", 3,
                                "--z-mode", "learned_zc"))
        assert r.returncode == 0, r.stderr
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    a = (tmp_path / "r1.model.metrics.csv").read_bytes()
    b = (tmp_path / "r2.model.metrics.csv").read_bytes()
    assert a == b


def test_train_missing_corpus_is_io_error(tmp_path):
    r = run_cli("train", "--corpus", tmp_path / "nope.txt", "--objective", "mle",
                "--out", tmp_path / "m.model")
    assert r.returncode == 2
    assert "error" in r.stderr.lower()


def test_train_ns_with_learned_z_warns_and_freezes(tmp_path):
    prefix = gen_fixture(tmp_path)
    out = tmp_path / "ns.model"
    r = run_cli(*train_args(prefix, out, "--objective", "ns", "--z-mode", "learned"))
    assert r.returncode == 0, r.stderr
    assert "frozen" in r.stderr
    params, _ = load_model(out)
    assert np.all(params.log_zc == 0)


def test_train_divergence_exit_code(tmp_path):
    prefix = gen_fixture(tmp_path, tokens=500)
    r = run_cli(*train_args(prefix, tmp_path / "d.model", "--objective", "mle",
                            "--lr", 1e12))
    assert r.returncode == 3
    assert "diverged" in r.stderr
    assert re.search(r"epoch \d+, step \d+: first non-finite block "
                     r"(target_emb|context_emb|bias|log_zc)", r.stderr)
    # Finite parameters whose scores overflow: epoch 1's metrics are finite,
    # epoch 2's are not, and neither the model nor its metrics are written.
    small = gen_fixture(tmp_path / "small", tokens=400, seed=0)
    data = ["--corpus", f"{small}.txt", "--truth", f"{small}.truth"]
    run = ["--lr", 1e12, "--epochs", 2, "--eval-every", 1, "--dim", 2]
    r = run_cli("train", *data, "--objective", "nce", *run, "--checkpoint-every",
                "--out", tmp_path / "n.model")
    assert r.returncode == 3
    assert "training diverged at epoch 2, step" in r.stderr
    assert "non-finite metric cross_entropy" in r.stderr
    assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")  # no RuntimeWarnings
    assert (tmp_path / "n.model.ep1.model").exists()
    for name in ("n.model", "n.model.metrics.csv", "n.model.ep2.model"):
        assert not (tmp_path / name).exists()
    r = run_cli("sweep", *data, "--ks", 1, *run, "--out", tmp_path / "s.csv")
    assert r.returncode == 3
    assert "k=1: training diverged at epoch 2" in r.stderr
    assert (tmp_path / "s.csv").read_text().splitlines() == ["k,seed,final_kl,final_ce,median_abs_log_z"]
    # A non-finite rate is a usage error, not a divergence.
    for lr in ("nan", "inf"):
        r = run_cli(*train_args(prefix, tmp_path / "d.model", "--objective", "mle", "--lr", lr))
        assert r.returncode == 2
        assert "learning_rate must be finite and > 0" in r.stderr
    # So is an empty embedding.
    r = run_cli(*train_args(prefix, tmp_path / "z.model", "--objective", "mle", "--dim", 0))
    assert r.returncode == 2
    assert "dim must be >= 1" in r.stderr
    assert not (tmp_path / "z.model").exists()


def test_eval_uniform_model_reports_log_vocab(tmp_path):
    vocab = build_vocab(["a", "b", "c", "d"])
    params = init_params(4, 2, seed=0)
    params.target_emb[:] = 0.0
    params.context_emb[:] = 0.0
    model_path = tmp_path / "zero.model"
    save_model(model_path, params, vocab)
    corpus_path = tmp_path / "c.txt"
    corpus_path.write_text("a b c d a b\n")
    r = run_cli("eval", "--model", model_path, "--corpus", corpus_path)
    assert r.returncode == 0, r.stderr
    ce = float(r.stdout.splitlines()[0].split()[1])
    # stdout carries 9 significant digits
    assert ce == pytest.approx(math.log(4), abs=1e-7)
    assert not any(line.startswith("kl") for line in r.stdout.splitlines())


def test_eval_matches_trainer_reported_ce(tmp_path):
    prefix = gen_fixture(tmp_path)
    out = tmp_path / "m.model"
    r = run_cli(*train_args(prefix, out, "--objective", "mle"))
    assert r.returncode == 0, r.stderr
    final_ce = float((tmp_path / "m.model.metrics.csv").read_text()
                     .splitlines()[-1].split(",")[1])
    r = run_cli("eval", "--model", out, "--corpus", f"{prefix}.txt",
                "--truth", f"{prefix}.truth")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    ce = float(lines[0].split()[1])
    assert ce == pytest.approx(final_ce, abs=1e-6)
    kl_lines = [l for l in lines if l.startswith("kl ")]
    assert len(kl_lines) == 8  # one row per word context
    assert any(l.startswith("kl_mean ") for l in lines)


def test_eval_vocab_mismatch_is_error(tmp_path):
    vocab = build_vocab(["a", "b"])
    params = init_params(2, 2, seed=0)
    model_path = tmp_path / "m.model"
    save_model(model_path, params, vocab)
    corpus_path = tmp_path / "c.txt"
    corpus_path.write_text("a b z\n")
    r = run_cli("eval", "--model", model_path, "--corpus", corpus_path)
    assert r.returncode == 2
    assert "vocabulary" in r.stderr


def _eval_fixture(tmp_path):
    vocab = build_vocab(["a", "b"])
    model_path = tmp_path / "m.model"
    save_model(model_path, init_params(2, 2, seed=0), vocab)
    corpus_path = tmp_path / "c.txt"
    corpus_path.write_text("a b a\n")
    return model_path, corpus_path


def test_eval_model_with_nan_is_usage_error(tmp_path):
    model_path, corpus_path = _eval_fixture(tmp_path)
    lines = model_path.read_text().splitlines()
    bias_row = lines.index("bias") + 1
    lines[bias_row] = "nan " + lines[bias_row].split(" ", 1)[1]
    model_path.write_text("\n".join(lines) + "\n")
    r = run_cli("eval", "--model", model_path, "--corpus", corpus_path)
    assert r.returncode == 2
    assert "non-finite" in r.stderr and "Traceback" not in r.stderr
    assert "cross_entropy" not in r.stdout


def test_eval_overflowing_model_is_usage_error(tmp_path):
    # Finite parameters whose scores overflow give a non-finite cross-entropy.
    model_path, corpus_path = _eval_fixture(tmp_path)
    params, vocab = load_model(model_path)
    params.target_emb[:] = 1e200
    params.context_emb[:] = 1e200
    save_model(model_path, params, vocab)
    r = run_cli("eval", "--model", model_path, "--corpus", corpus_path)
    assert r.returncode == 2
    assert "cross-entropy is nan" in r.stderr and "Traceback" not in r.stderr
    assert "cross_entropy" not in r.stdout


def test_eval_overflowing_unseen_context_is_usage_error(tmp_path):
    # The corpus never has c as a context, so cross-entropy and log Z are
    # finite and only c's KL row to the truth overflows.
    vocab = build_vocab(["a", "b", "c"])
    params = init_params(3, 2, seed=0)
    params.target_emb[:] = 1e200
    params.context_emb[vocab.id_of("c")] = 1e200
    save_model(tmp_path / "m.model", params, vocab)
    (tmp_path / "c.txt").write_text("a b a b c\n")
    truth = GroundTruthTable(cond=np.full((3, 3), 1 / 3), context_marginal=np.full(3, 1 / 3))
    write_truth(tmp_path / "t.truth", truth, vocab)
    r = run_cli("eval", "--model", tmp_path / "m.model", "--corpus", tmp_path / "c.txt",
                "--truth", tmp_path / "t.truth")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["error: KL of context c is nan: the model's scores overflow"]


def test_eval_empty_model_is_usage_error(tmp_path):
    model_path, corpus_path = _eval_fixture(tmp_path)
    model_path.write_text("")
    r = run_cli("eval", "--model", model_path, "--corpus", corpus_path)
    assert r.returncode == 2
    assert "empty" in r.stderr and "Traceback" not in r.stderr


def test_truncated_truth_is_usage_error(tmp_path):
    prefix = gen_fixture(tmp_path)
    truth_path = tmp_path / "fix.truth"
    lines = truth_path.read_text().splitlines()
    truth_path.write_text("\n".join(lines[:3]) + "\n")
    r = run_cli(*train_args(prefix, tmp_path / "m.model", "--objective", "mle"))
    assert r.returncode == 2
    assert "truncated" in r.stderr and "Traceback" not in r.stderr


def test_sweep_row_count_and_determinism(tmp_path):
    prefix = gen_fixture(tmp_path, tokens=1200)
    args = ["sweep", "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth",
            "--ks", "1,3,5", "--seeds", 3, "--epochs", 2, "--eval-every", 2,
            "--batch-size", 32, "--dim", 3]
    r1 = run_cli(*args, "--out", tmp_path / "s1.csv")
    r2 = run_cli(*args, "--out", tmp_path / "s2.csv")
    assert r1.returncode == 0, r1.stderr
    lines = (tmp_path / "s1.csv").read_text().splitlines()
    assert lines[0] == "k,seed,final_kl,final_ce,median_abs_log_z"
    assert len(lines) == 1 + 3 * 3
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()


def test_sweep_rejects_bad_ks(tmp_path):
    prefix = gen_fixture(tmp_path, tokens=500)
    # Each bad flag is an exit-2 usage error raised before any output file
    # is written.
    for bad in (["--ks", "5,2"], ["--ks", "1,x"], ["--ks", "3,3"], ["--ks", "0,2"],
                ["--ks", "1", "--seeds", 0], ["--ks", "1", "--dim", 0]):
        r = run_cli("sweep", "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth",
                    *bad, "--out", tmp_path / "s.csv")
        assert r.returncode == 2, bad
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
        assert not (tmp_path / "s.csv").exists()
        assert not (tmp_path / "s.csv.config").exists()


def test_gradcheck_command_and_negative_control():
    r = run_cli("gradcheck", "--which", "mle")
    assert r.returncode == 0, r.stdout
    for block in ("target_emb", "context_emb", "bias", "log_zc"):
        assert block in r.stdout
    r = run_cli("gradcheck", "--which", "mle", "--corrupt")
    assert r.returncode == 1
    assert "FAIL" in r.stdout


def test_equiv_check_command_and_negative_control():
    r = run_cli("equiv-check", "--vocab-size", 8, "--seed", 1)
    assert r.returncode == 0, r.stdout
    assert "max |dloss|" in r.stdout and "max |dgrad|" in r.stdout
    r = run_cli("equiv-check", "--vocab-size", 8, "--seed", 1, "--force-k", 7)
    assert r.returncode == 1


def test_unknown_command_and_flag_are_usage_errors():
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("gradcheck", "--bogus-flag", 1).returncode == 2


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "0.1.0" in r.stdout
