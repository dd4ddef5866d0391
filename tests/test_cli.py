import contextlib
import io
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncelm import cli
from ncelm import corpus as corpus_module
from ncelm import model as model_module
from ncelm.cli import MAX_VOCAB_SIZE
from ncelm.corpus import (
    GroundTruthTable,
    build_vocab,
    generate_synthetic_stream,
    make_zipf_truth,
    pairs_from_tokens,
    read_corpus_tokens,
    read_truth,
    write_corpus_tokens,
    write_truth,
)
from ncelm.model import Z_LEARNED_ZC, init_params, load_model, save_model
from ncelm.trainer import TrainConfig, TrainingDiverged, kl_truth_rows, train


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
        counts[vocab.index[t]] += 1
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



@pytest.mark.parametrize("zipf_s", ["1e400", "nan"])
def test_gen_data_rejects_an_exponent_that_is_not_finite(tmp_path, zipf_s):
    code, out, err = _main("gen-data", "--vocab-size", 4, "--zipf-s", zipf_s, "--tokens", 10,
                           "--out-prefix", tmp_path / "x")
    assert (code, out) == (2, "")
    assert err == f"error: zipf exponent must be finite, got {float(zipf_s)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("zipf_s", ["1e4", "-1e4"])
def test_gen_data_rejects_an_exponent_whose_rank_weights_underflow_or_overflow(tmp_path, zipf_s):
    # 4**-1e4 underflows to 0 and 2**1e4 overflows to inf: a truth row with
    # a zero (or NaN) weight is refused before any file is written.
    code, out, err = _main("gen-data", "--vocab-size", 4, f"--zipf-s={zipf_s}", "--tokens", 50,
                           "--out-prefix", tmp_path / "x")
    assert (code, out) == (2, "")
    assert err == f"error: zipf exponent {float(zipf_s)} gives a rank weight of 0 or inf over 4 words\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_data_out_of_memory_is_a_usage_error(tmp_path, monkeypatch):
    # The stream is replaced: a real allocation of this size could succeed
    # on a host that overcommits memory, and then be filled.
    message = ("Unable to allocate 7.28 TiB for an array with shape (999999999999,) "
               "and data type float64")

    def out_of_memory(truth, n_tokens, seed):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate_synthetic_stream", out_of_memory)
    code, out, err = _main("gen-data", "--vocab-size", 4, "--tokens", 10**12,
                           "--out-prefix", tmp_path / "x")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def _wide_lab(root, n_words):
    """A corpus of ``n_words`` distinct words, each once, and a truth over
    them: each word is followed by the next, with probability 1."""
    root.mkdir()
    words = [f"w{i}" for i in range(n_words)]
    (root / "c.txt").write_text(" ".join(words) + "\n")
    rows = [" ".join("1" if j == (i + 1) % n_words else "0" for j in range(n_words))
            for i in range(n_words)]
    (root / "t.truth").write_text("\n".join([f"gt v1 {n_words}", " ".join(words),
                                             f"marginal {rows[-1]}", *rows]) + "\n")
    return root


def test_train_sweep_and_eval_cap_the_vocabulary(tmp_path):
    # Every SGD step and eval takes dense (|V| + 1) x |V| grids: an over-size
    # vocabulary is a usage error before anything is trained or written.
    lab = _wide_lab(tmp_path / "wide", MAX_VOCAB_SIZE + 1)
    corpus, truth, out = lab / "c.txt", lab / "t.truth", lab / "out"
    for args, source in ((["train", "--objective", "mle"], corpus),
                         (["train", "--objective", "mle", "--truth", truth], truth),
                         (["sweep", "--truth", truth, "--ks", 1], truth)):
        code, stdout, err = _main(*args, "--corpus", corpus, "--epochs", 1, "--out", out)
        _assert_usage_error(code, stdout, err, source)
        assert f"{MAX_VOCAB_SIZE + 1} words, more than {MAX_VOCAB_SIZE}" in err
        assert sorted(p.name for p in lab.iterdir()) == ["c.txt", "t.truth"]
    model = tmp_path / "wide.model"
    vocab = build_vocab(f"w{i}" for i in range(MAX_VOCAB_SIZE + 1))
    save_model(model, init_params(len(vocab), 2, seed=0), vocab)
    _assert_usage_error(*_main("eval", "--model", model, "--corpus", corpus), model)


def test_train_accepts_a_vocabulary_at_the_cap(tmp_path):
    lab = _wide_lab(tmp_path / "lab", MAX_VOCAB_SIZE)
    code, _, err = _main("train", "--corpus", lab / "c.txt", "--objective", "mle", "--epochs", 1,
                         "--batch-size", 2 * MAX_VOCAB_SIZE, "--dim", 2, "--out", lab / "m.model")
    assert code == 0, err
    assert len(load_model(lab / "m.model")[1]) == MAX_VOCAB_SIZE


def test_over_cap_files_are_refused_from_their_header(tmp_path, monkeypatch):
    # A truth or model file over the cap is refused from its header line:
    # no row is parsed, and a header that claims more words than the file
    # holds gets the cap's message, not "truncated".
    lab = _wide_lab(tmp_path / "wide", MAX_VOCAB_SIZE + 1)
    corpus, wide_truth = lab / "c.txt", lab / "t.truth"
    wide_model = tmp_path / "wide.model"
    save_model(wide_model, init_params(MAX_VOCAB_SIZE + 1, 2, seed=0),
               build_vocab(f"w{i}" for i in range(MAX_VOCAB_SIZE + 1)))
    small = build_vocab(["a", "b"])
    lying_truth, lying_model = tmp_path / "lying.truth", tmp_path / "lying.model"
    write_truth(lying_truth, GroundTruthTable(np.full((2, 2), 0.5), np.full(2, 0.5)), small)
    save_model(lying_model, init_params(2, 2, seed=0), small)
    for path, header in ((lying_truth, "gt v1 20000"), (lying_model, "lblm v1 20000 2 exact")):
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header, *lines[1:]]) + "\n")
    parsed = []
    parse_rows = corpus_module.parse_rows
    counting = lambda lines, cols, what: parsed.append(what) or parse_rows(lines, cols, what)
    monkeypatch.setattr(corpus_module, "parse_rows", counting)
    monkeypatch.setattr(model_module, "parse_rows", counting)
    train = ["train", "--objective", "mle", "--corpus", corpus, "--epochs", 1, "--out", lab / "out"]
    for args, source, n in ((train + ["--truth", wide_truth], wide_truth, MAX_VOCAB_SIZE + 1),
                            (train + ["--truth", lying_truth], lying_truth, 20000),
                            (["eval", "--model", wide_model, "--corpus", corpus], wide_model,
                             MAX_VOCAB_SIZE + 1),
                            (["eval", "--model", lying_model, "--corpus", corpus], lying_model, 20000)):
        code, stdout, err = _main(*args)
        _assert_usage_error(code, stdout, err, source)
        assert f"{source}: {n} words, more than {MAX_VOCAB_SIZE}: " in err
    assert parsed == []
    # The counter sees the rows of a file under the cap.
    save_model(tmp_path / "ok.model", init_params(2, 2, seed=0), small)
    load_model(tmp_path / "ok.model")
    assert parsed == ["block 'target_emb'", "block 'context_emb'", "block 'bias'", "block 'log_zc'"]


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


def test_in_process_calls_after_a_usage_error_give_the_same_bytes(tmp_path):
    # main builds its parser once per process; neither a parse error nor a
    # usage error from a command leaves state that changes the next call.
    prefix = gen_fixture(tmp_path)
    runs = []
    for name in ("r1.model", "r2.model"):
        out = tmp_path / name
        code, stdout, _ = _main(*train_args(prefix, out, "--objective", "nce", "--k", 3))
        assert code == 0
        files = [out, tmp_path / f"{name}.metrics.csv", tmp_path / f"{name}.config"]
        runs.append((stdout, [f.read_bytes().replace(name.encode(), b"") for f in files]))
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            cli.main(["train", "--objective", "nce", "--k", "not-a-number"])
        assert exc.value.code == 2
        code, _, err = _main(*train_args(prefix, out, "--objective", "nce", "--k", 0))
        assert code == 2 and err.startswith("error:")
    assert runs[0] == runs[1]


def test_checkpoints_written_at_eval_epochs(tmp_path):
    # --checkpoint-every writes <out>.ep<N>.model at each metrics epoch N:
    # the model file that training for N epochs writes. A checkpoint that
    # cannot be written is an I/O error, exit 2, and leaves no model file.
    prefix = gen_fixture(tmp_path, tokens=600)

    def run(out, epochs, *extra):
        return _main("train", "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth",
                     "--objective", "nce", "--k", 2, "--epochs", epochs, "--eval-every", 2,
                     "--dim", 3, "--out", tmp_path / out, *extra)

    assert run("run.model", 5, "--checkpoint-every")[0] == 0
    assert sorted(p.name for p in tmp_path.glob("*.ep*")) == [
        "run.model.ep2.model", "run.model.ep4.model", "run.model.ep5.model"]
    assert (tmp_path / "run.model.ep5.model").read_bytes() == (tmp_path / "run.model").read_bytes()
    for epoch in (2, 4):
        assert run(f"e{epoch}.model", epoch)[0] == 0
        want = (tmp_path / f"e{epoch}.model").read_bytes()
        assert (tmp_path / f"run.model.ep{epoch}.model").read_bytes() == want
    assert len(list(tmp_path.glob("*.ep*"))) == 3  # none without the flag
    (tmp_path / "bad.model.ep2.model").mkdir()
    code, _, err = run("bad.model", 3, "--checkpoint-every")
    assert code == 2 and err.startswith("error: ") and "bad.model.ep2.model" in err
    assert not (tmp_path / "bad.model").exists()


def test_train_missing_corpus_is_io_error(tmp_path):
    r = run_cli("train", "--corpus", tmp_path / "nope.txt", "--objective", "mle",
                "--out", tmp_path / "m.model")
    assert r.returncode == 2
    assert "error" in r.stderr.lower()


def test_corpus_content_errors_name_the_corpus(tmp_path):
    prefix = gen_fixture(tmp_path)
    one_word, unknown = tmp_path / "one.txt", tmp_path / "unknown.txt"
    one_word.write_text("a a a\n")
    unknown.write_text("w0 w1 zz\n")
    for corpus, truth, message in ((one_word, [], "degenerate vocabulary"),
                                   (unknown, ["--truth", f"{prefix}.truth"], "unknown token 'zz'")):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["train", "--corpus", str(corpus), *truth, "--objective", "mle",
                             "--out", str(tmp_path / "m.model")])
        assert code == 2
        assert err.getvalue().startswith(f"error: {corpus}: {message}"), err.getvalue()


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
    # So are an empty embedding and one wider than the vocabulary cap, past
    # which a bilinear score gains no rank: refused before any allocation.
    for dim, message in ((0, "dim must be >= 1"), (MAX_VOCAB_SIZE + 1, f"dim must be <= {MAX_VOCAB_SIZE}")):
        r = run_cli(*train_args(prefix, tmp_path / "z.model", "--objective", "mle", "--dim", dim))
        assert r.returncode == 2
        assert message in r.stderr
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


def test_eval_reads_a_truth_of_the_same_words_in_another_order(tmp_path):
    # A model trained without --truth lists its words in corpus order, not
    # the ground truth's: eval puts the truth in the model's order. A truth
    # over other words is still refused, naming both files.
    prefix = gen_fixture(tmp_path)
    model_path = tmp_path / "m.model"
    code, _, err = _main("train", "--corpus", f"{prefix}.txt", "--objective", "mle", "--epochs", 2,
                         "--dim", 3, "--out", model_path)
    assert (code, err) == (0, "")
    params, vocab = load_model(model_path)
    truth, tvocab = read_truth(f"{prefix}.truth")
    assert vocab.words != tvocab.words and set(vocab.words) == set(tvocab.words)
    cond = np.array([[truth.cond[tvocab.index[c], tvocab.index[w]] for w in vocab.words]
                     for c in vocab.words])
    marginal = np.array([truth.context_marginal[tvocab.index[c]] for c in vocab.words])
    rows = kl_truth_rows(GroundTruthTable(cond, marginal), params)
    code, out, err = _main("eval", "--model", model_path, "--corpus", f"{prefix}.txt",
                           "--truth", f"{prefix}.truth")
    assert (code, err) == (0, "")
    want = [f"kl {w} {kl:.9g}" for w, kl in zip(vocab.words, rows)] + [f"kl_mean {rows.mean():.9g}"]
    assert out.splitlines()[2:] == want
    other = gen_fixture(tmp_path / "other", vocab_size=9)
    code, out, err = _main("eval", "--model", model_path, "--corpus", f"{prefix}.txt",
                           "--truth", f"{other}.truth")
    assert (code, out) == (2, "")
    assert err == f"error: {other}.truth: ground-truth vocabulary does not match {model_path}\n"


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
    params.context_emb[vocab.index["c"]] = 1e200
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


@pytest.fixture(scope="module")
def eval_lab(tmp_path_factory):
    """A 5-word learned_zc model, its ground truth and a corpus that eval accepts."""
    root = tmp_path_factory.mktemp("eval_lab")
    truth = make_zipf_truth(5, 1.2, seed=2)
    vocab = build_vocab(f"w{i}" for i in range(5))
    params = init_params(5, 3, seed=4, z_mode=Z_LEARNED_ZC)
    params.log_zc[:] = np.linspace(-0.5, 0.5, 6)
    save_model(root / "m.model", params, vocab)
    write_truth(root / "t.truth", truth, vocab)
    ids = generate_synthetic_stream(truth, 200, seed=2)
    write_corpus_tokens(root / "c.txt", (vocab.words[i] for i in ids))
    return root


def _eval_in_process(lab, model, truth, corpus=None):
    """Exit code, stdout and stderr of an in-process eval."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--model", str(model), "--corpus", str(corpus or lab / "c.txt"),
                         "--truth", str(truth)])
    return code, out.getvalue(), err.getvalue()


def _assert_usage_error(code, out, err, path=None):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    if path is not None:  # the file at fault
        assert str(path) in err, err


def _dim_zero(lines):
    """The model as dim 0 would write it: empty rows in both embedding blocks."""
    lines = [lines[0].replace(" 5 3 ", " 5 0 ")] + lines[1:]
    for i in (*range(7, 12), *range(13, 19)):
        lines[i] = ""
    return lines


# (file, edit of its lines, expected error text). Lines 1-5 of the model are
# its vocabulary, lines 7-11 and 13-18 its embedding rows; line 3 of the
# truth is its first conditional row.
_MALFORMED = {
    "truth-negative-size": ("truth", lambda lines: ["gt v1 -5"], "header"),
    "truth-trailing-row": ("truth", lambda lines: lines + [lines[-1]], "trailing content"),
    "truth-ragged-row": ("truth", lambda lines: lines[:3] + [lines[3].rsplit(" ", 1)[0]] + lines[4:],
                         "has 4 fields, expected 5"),
    "model-trailing-row": ("model", lambda lines: lines + ["0.5"], "trailing content"),
    "model-dim-zero": ("model", _dim_zero, "header"),
    "model-duplicate-word": ("model", lambda lines: lines[:4] + ["w0"] + lines[5:], "5 distinct words"),
    "model-empty-word": ("model", lambda lines: lines[:2] + [""] + lines[3:], "5 distinct words"),
    "model-word-with-space": ("model", lambda lines: lines[:2] + ["w1 w9"] + lines[3:], "5 distinct words"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_eval_rejects_malformed_model_and_truth_files(eval_lab, tmp_path, case):
    which, edit, message = _MALFORMED[case]
    paths = {"model": eval_lab / "m.model", "truth": eval_lab / "t.truth"}
    lines = paths[which].read_text().splitlines()
    paths[which] = tmp_path / paths[which].name
    paths[which].write_text("\n".join(edit(lines)) + "\n")
    code, out, err = _eval_in_process(eval_lab, paths["model"], paths["truth"])
    _assert_usage_error(code, out, err, paths[which])
    assert message in err


@pytest.mark.parametrize("which", ["model", "truth", "corpus"])
def test_reader_errors_name_their_file(eval_lab, tmp_path, which):
    paths = {"model": eval_lab / "m.model", "truth": eval_lab / "t.truth", "corpus": eval_lab / "c.txt"}
    data = bytearray(paths[which].read_bytes())
    data[1] = 0xB0  # not UTF-8
    paths[which] = tmp_path / paths[which].name
    paths[which].write_bytes(bytes(data))
    code, out, err = _eval_in_process(eval_lab, paths["model"], paths["truth"], paths["corpus"])
    _assert_usage_error(code, out, err)
    assert err.startswith(f"error: {paths[which]}: 'utf-8' codec can't decode byte 0xb0")


# Each property mutates one saved file, the model or the truth, and runs eval
# on it with the other file pristine. derandomize keeps Tier-1 deterministic.
_PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
_KIND = st.sampled_from(["model", "truth"])


def _eval_mutated(lab, kind, data: bytes):
    """Exit code, stdout and stderr of eval on the mutated file, and its path."""
    mutated = lab / f"mutated.{kind}"
    mutated.write_bytes(data)
    if kind == "model":
        return (*_eval_in_process(lab, mutated, lab / "t.truth"), mutated)
    return (*_eval_in_process(lab, lab / "m.model", mutated), mutated)


def _original(lab, kind) -> bytes:
    return (lab / ("m.model" if kind == "model" else "t.truth")).read_bytes()


def test_pristine_files_pass_eval(eval_lab):
    code, out, err = _eval_in_process(eval_lab, eval_lab / "m.model", eval_lab / "t.truth")
    assert (code, err) == (0, "") and out.startswith("cross_entropy ")


@_PROPERTY
@given(kind=_KIND, data=st.data())
def test_dropping_lines_is_a_usage_error(eval_lab, kind, data):
    lines = _original(eval_lab, kind).decode().splitlines()
    dropped = data.draw(st.sets(st.integers(0, len(lines) - 1), min_size=1))
    kept = [line for i, line in enumerate(lines) if i not in dropped]
    text = "".join(line + "\n" for line in kept)
    _assert_usage_error(*_eval_mutated(eval_lab, kind, text.encode()))


@_PROPERTY
@given(kind=_KIND, value=st.sampled_from(["nan", "inf", "-inf"]), data=st.data())
def test_a_non_finite_field_is_a_usage_error(eval_lab, kind, value, data):
    lines = [line.split(" ") for line in _original(eval_lab, kind).decode().splitlines()]
    # Floats follow the model's vocabulary lines and the truth's "marginal" label.
    first = 6 if kind == "model" else 2
    fields = [(i, j) for i in range(first, len(lines)) for j, field in enumerate(lines[i])
              if field not in ("marginal", "target_emb", "context_emb", "bias", "log_zc")]
    i, j = data.draw(st.sampled_from(fields))
    lines[i][j] = value
    text = "".join(" ".join(line) + "\n" for line in lines)
    _assert_usage_error(*_eval_mutated(eval_lab, kind, text.encode()))


def _usage_error_or_ok(code, out, err, path):
    # A number cut short or a flipped digit can leave a valid file with other
    # values, so success is allowed; anything else must be a clean usage error
    # that names the file.
    if code == 0:
        assert err == "" and out.startswith("cross_entropy ")
    else:
        _assert_usage_error(code, out, err, path)


@_PROPERTY
@given(kind=_KIND, data=st.data())
def test_a_cut_file_is_read_or_rejected(eval_lab, kind, data):
    original = _original(eval_lab, kind)
    cut = data.draw(st.integers(0, len(original) - 1))
    _usage_error_or_ok(*_eval_mutated(eval_lab, kind, original[:cut]))


@_PROPERTY
@given(kind=_KIND, data=st.data())
def test_a_flipped_bit_is_read_or_rejected(eval_lab, kind, data):
    original = bytearray(_original(eval_lab, kind))
    bit = data.draw(st.integers(0, 8 * len(original) - 1))
    original[bit // 8] ^= 1 << (bit % 8)
    _usage_error_or_ok(*_eval_mutated(eval_lab, kind, bytes(original)))


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


def test_sweep_ns_with_learned_z_warns_once(tmp_path):
    # One warning per command, not one per seed.
    prefix = gen_fixture(tmp_path, tokens=300)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["sweep", "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth",
                         "--objective", "ns", "--z-mode", "learned", "--ks", "1,2", "--seeds", "2",
                         "--epochs", "1", "--dim", "2", "--out", str(tmp_path / "s.csv")])
    assert code == 0
    assert err.getvalue().splitlines() == [
        "warning: negative sampling has no learnable normalizer; z is frozen at 1"
    ]
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + 2 * 2


def _main(*args):
    """In-process ``cli.main``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def test_sweep_rows_equal_solo_sweeps(tmp_path):
    # All (seed, k) runs train in lockstep; each row is the one a sweep of
    # that run alone writes.
    prefix = gen_fixture(tmp_path, tokens=700)
    args = ["sweep", "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth", "--objective", "nce",
            "--z-mode", "learned", "--noise", "unigram", "--epochs", 2, "--eval-every", 1,
            "--batch-size", 24, "--dim", 3]
    code, _, err = _main(*args, "--ks", "1,3,7", "--seeds", 2, "--seed", 4, "--out", tmp_path / "all.csv")
    assert code == 0, err
    lines = (tmp_path / "all.csv").read_text().splitlines()
    want = [lines[0]]
    for seed in (4, 5):
        for k in (1, 3, 7):
            code, _, err = _main(*args, "--ks", k, "--seed", seed, "--out", tmp_path / "one.csv")
            assert code == 0, err
            _, row = (tmp_path / "one.csv").read_text().splitlines()
            want.append(row)
    assert lines == want


def test_sweep_divergence_leaves_the_rows_of_the_serial_loop(tmp_path):
    # At lr 1.6e6 the run of seed 1, k = 5 overflows a metric in epoch 2.
    # The sweep exits 3 with that run named and leaves the rows that training
    # the runs one after another, in (seed, k) order, writes before it.
    prefix = gen_fixture(tmp_path, tokens=400, seed=0)
    opt = dict(learning_rate=1.6e6, epochs=2, eval_every=1, dim=2)
    code, _, err = _main("sweep", "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth",
                         "--ks", "1,3,5", "--seeds", 3, "--lr", opt["learning_rate"], "--epochs", 2,
                         "--eval-every", 1, "--dim", 2, "--out", tmp_path / "s.csv")
    truth, vocab = read_truth(f"{prefix}.truth")
    pairs = pairs_from_tokens(read_corpus_tokens(f"{prefix}.txt"), vocab)
    rows, failure = ["k,seed,final_kl,final_ce,median_abs_log_z"], None
    with np.errstate(all="ignore"):
        for seed in range(3):
            for k in (1, 3, 5):
                try:
                    _, history = train(TrainConfig(objective="nce", k=k, seed=seed, **opt),
                                       pairs, len(vocab), truth=truth)
                except TrainingDiverged as exc:
                    failure = f"error: seed={seed}, k={k}: {exc}\n"
                    break
                last = history[-1]
                rows.append(f"{k},{seed},{last.kl_truth:.9g},{last.cross_entropy:.9g},"
                            f"{last.median_abs_log_z:.9g}")
            if failure:
                break
    assert failure is not None and failure.startswith("error: seed=1, k=5: training diverged at epoch 2")
    assert (code, err) == (3, failure)
    assert (tmp_path / "s.csv").read_text().splitlines() == rows
    assert len(rows) == 1 + 5


def test_sweep_rejects_bad_ks(tmp_path):
    prefix = gen_fixture(tmp_path, tokens=500)
    # Each bad flag is an exit-2 usage error raised before any output file
    # is written.
    for bad in (["--ks", "5,2"], ["--ks", "1,x"], ["--ks", "3,3"], ["--ks", "0,2"],
                ["--ks", "1,"], ["--ks", "1,,5"], ["--ks", ",1"],
                ["--ks", "1", "--seeds", 0], ["--ks", "1", "--dim", 0],
                ["--ks", "1", "--dim", MAX_VOCAB_SIZE + 1], ["--ks", "1", "--noise", "bogus"],
                ["--ks", "1", "--noise", "flattened:2"]):
        r = run_cli("sweep", "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth",
                    *bad, "--out", tmp_path / "s.csv")
        assert r.returncode == 2, bad
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
        if "," in bad[1] and "" in bad[1].split(","):  # an empty item
            assert r.stderr == f"error: bad --ks value {bad[1]!r}\n"
        assert not (tmp_path / "s.csv").exists()
        assert not (tmp_path / "s.csv.config").exists()


def test_sweep_refuses_unigram_noise_with_an_unseen_word_before_writing(tmp_path):
    # The truth lists w0..w7 and the corpus never holds w2: unigram noise
    # gives it probability 0, a usage error before any file is written.
    prefix = gen_fixture(tmp_path, tokens=300)
    corpus = tmp_path / "no_w2.txt"
    corpus.write_text("w0 w1 w3 w4 w5 w6 w7 w0 w1 w3\n")
    code, out, err = _main("sweep", "--corpus", corpus, "--truth", f"{prefix}.truth", "--ks", 1,
                           "--noise", "unigram", "--epochs", 1, "--out", tmp_path / "s.csv")
    assert (code, out) == (2, "")
    assert err == "error: unsupported word in noise distribution: word id 2 has count 0\n"
    assert not (tmp_path / "s.csv").exists()
    assert not (tmp_path / "s.csv.config").exists()


@pytest.mark.parametrize("command,flags,batch", [
    ("train", ["--k", 10**21], 32),
    ("train", ["--k", 2**62], 32),  # k * n_c wraps in int64 once n_c >= 2
    ("sweep", ["--ks", f"1,{10**21}"], 32),
    ("train", ["--k", 2**53 + 1, "--batch-size", 1], 1),  # float64 rounds it to 2**53
    ("train", ["--k", 2**62 - 1, "--batch-size", 2], 2),  # fits int64, rounds in float64
    ("train", ["--k", 2**53, "--batch-size", 1], 1),  # each step fits; the epoch's totals wrap
])
def test_k_whose_noise_counts_overflow_int64_is_a_usage_error(tmp_path, command, flags, batch):
    # An epoch draws k noise words for each of its n pairs; its counts are
    # exact up to 2**53, float64's integers. Checked before any numpy
    # arithmetic and before any file is written, whatever the batch.
    prefix = gen_fixture(tmp_path, tokens=300)
    code, out, err = _main(command, "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth",
                           "--objective", "nce", "--epochs", 1, *flags, "--out", tmp_path / "o")
    k = flags[1] if command == "train" else 10**21
    assert (code, out) == (2, "")
    assert err == (f"error: k={k} is too large: k noise words for each of an epoch's 300 "
                   "pairs exceed 2**53, past which float64 counts are inexact\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fix.config", "fix.truth", "fix.txt"]


def test_batch_larger_than_the_data_trains_as_one_full_batch(tmp_path):
    # A batch of 10**21 pairs, past int64, is clamped to the data before any
    # numpy arithmetic: the files are those of a batch of exactly the 300
    # pairs of 300 tokens.
    prefix = gen_fixture(tmp_path, tokens=300)
    files = []
    for batch in (10**21, 300):
        out = tmp_path / f"b{batch}.model"
        code, _, err = _main(*train_args(prefix, out, "--objective", "nce", "--batch-size", batch))
        assert (code, err) == (0, "")
        files.append([out.read_bytes(), (tmp_path / f"b{batch}.model.metrics.csv").read_bytes()])
    assert files[0] == files[1]


@pytest.mark.parametrize("spec,message", [
    ("flattened:0", "flattening exponent out of range (0, 1): 0.0"),  # that is uniform
    ("flattened:1", "flattening exponent out of range (0, 1): 1.0"),  # that is unigram
    ("flattened:nan", "flattening exponent out of range (0, 1): nan"),
    ("flattened:oops", "bad flattening exponent in 'flattened:oops'"),
    ("gaussian", "unknown noise spec 'gaussian' (expected uniform, unigram, or flattened:<alpha>)"),
])
def test_noise_spec_outside_its_range_is_a_usage_error(tmp_path, spec, message):
    # The flattening exponent lies in the open interval (0, 1), as the
    # --noise help says; anything else is refused before any file is written.
    prefix = gen_fixture(tmp_path, tokens=300)
    code, out, err = _main(*train_args(prefix, tmp_path / "o", "--objective", "nce",
                                       "--noise", spec))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fix.config", "fix.truth", "fix.txt"]


@pytest.mark.parametrize("command,flags,message", [
    ("gen-data", ["--vocab-size", 4, "--tokens", 10, "--out-prefix", "{tmp}/o"], "--seed must be >= 0"),
    ("train", ["--corpus", "{prefix}.txt", "--objective", "mle", "--out", "{tmp}/o"], "seed must be >= 0"),
    ("sweep", ["--corpus", "{prefix}.txt", "--truth", "{prefix}.truth", "--ks", "1,2", "--out", "{tmp}/o"],
     "seed must be >= 0"),
    ("gradcheck", [], "--seed must be >= 0"),
    ("equiv-check", [], "--seed must be >= 0"),
])
def test_a_negative_seed_is_a_usage_error_that_writes_nothing(tmp_path, command, flags, message):
    # Seeds are non-negative: each command refuses -1 with one error line
    # that names the seed, before any file is written.
    prefix = gen_fixture(tmp_path, tokens=300)
    args = [str(a).format(prefix=prefix, tmp=tmp_path) for a in flags]
    code, out, err = _main(command, *args, "--seed", -1)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fix.config", "fix.truth", "fix.txt"]


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
