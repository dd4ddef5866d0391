"""Acceptance gate: eight end-to-end criteria at desk scale.

Each test prints exactly one PASS/FAIL line with its headline numbers and
asserts both the substantive claim and its runtime budget. The shared
"standard fixture" is a skewed synthetic bigram corpus: |V| = 16, Zipf-shaped
conditional rows with exponent 1.8, 100k pairs, everything seeded.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from ncelm import nce, noise, trainer
from ncelm.checks import finite_diff_gradient, run_equiv_check, run_gradcheck
from ncelm.corpus import generate_synthetic_corpus, make_zipf_truth, pair_count_matrix
from ncelm.model import Z_LEARNED_ZC, CellCounts, grad_log_likelihood, init_params, log_partitions
from ncelm.seeding import STREAM_DATA, STREAM_NOISE, derive_rng
from ncelm.trainer import TrainConfig, sweep_runs, train

FIXTURE_VOCAB = 16
FIXTURE_TOKENS = 100_000
FIXTURE_ZIPF_S = 1.8
FIXTURE_SEED = 7

# One optimizer recipe for every fixture experiment, so the objectives are
# compared under equal update budgets.
BASE_OPT = dict(
    learning_rate=0.4, lr_decay=0.95, epochs=25, batch_size=64, eval_every=25
)


@pytest.fixture(scope="module")
def fixture_data():
    truth = make_zipf_truth(FIXTURE_VOCAB, FIXTURE_ZIPF_S, seed=FIXTURE_SEED)
    pairs = generate_synthetic_corpus(truth, FIXTURE_TOKENS, seed=FIXTURE_SEED)
    return truth, pairs


def report(n, label, ok, detail):
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"acceptance {n} ({label}) failed: {detail}"


def test_acceptance_1_gradient_correctness():
    start = time.perf_counter()
    result = run_gradcheck(which="all", seed=0)
    elapsed = time.perf_counter() - start
    worst = max(
        float(line.split("worst_err")[1].split()[0])
        for line in result.lines
        if "worst_err" in line
    )
    ok = result.ok and elapsed < 10.0
    report(1, "gradient correctness", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_2_ns_nce_equivalence():
    start = time.perf_counter()
    good = run_equiv_check(vocab_size=8, seed=1)
    control = run_equiv_check(vocab_size=8, seed=1, force_k=7)
    elapsed = time.perf_counter() - start
    ok = good.ok and not control.ok and elapsed < 1.0
    report(2, "NS==NCE at k=|V|", ok,
           f"agree to 1e-10, control k=7 deviates, {elapsed:.2f}s")


def test_acceptance_3_k_limit_recovers_mle_gradient():
    start = time.perf_counter()
    V, d = 12, 4
    finals, monotone = [], True
    for m in range(5):
        rng = derive_rng(9, STREAM_DATA, m)
        params = init_params(V, d, 100 + m, z_mode=Z_LEARNED_ZC)
        # spread the probabilities out, then pin normalizers to the true
        # partition so the adjusted weights are honest probabilities
        params.target_emb *= 5.0
        params.context_emb *= 5.0
        params.bias[:] = rng.normal(0, 1, V)
        params.log_zc[:] = log_partitions(params)
        pairs = np.stack(
            [rng.integers(0, V + 1, 60), rng.integers(0, V, 60)], axis=1
        )
        counts = pair_count_matrix(pairs, V)
        g_mle = grad_log_likelihood(params, CellCounts(counts, None)).vector
        cosines = []
        for k in (1, 10, 100, 1000):
            cfg = nce.NceConfig(k=k, q=noise.uniform(V))
            g = nce.exact_grad_analysis(params, counts, cfg).vector
            cosines.append(float(g @ g_mle / (np.linalg.norm(g) * np.linalg.norm(g_mle))))
        monotone &= all(b >= a for a, b in zip(cosines, cosines[1:]))
        finals.append(cosines[-1])
    elapsed = time.perf_counter() - start
    ok = monotone and min(finals) >= 0.999 and elapsed < 30.0
    report(3, "k to infinity limit", ok,
           f"monotone={monotone}, worst final cosine {min(finals):.6f}, {elapsed:.1f}s")


def test_acceptance_4_consistency_sweep(fixture_data):
    start = time.perf_counter()
    truth, pairs = fixture_data
    base = TrainConfig(objective="mle_exact", dim=4, seed=0, **BASE_OPT)
    _, mle_hist = train(base, pairs, FIXTURE_VOCAB, truth=truth)
    mle_kl = mle_hist[-1].kl_truth
    ks = [1, 2, 5, 10, 25, 50]
    # The 30 NCE runs (5 seeds x 6 k) train in one lockstep call.
    bases = [TrainConfig(objective="nce", z_mode=Z_LEARNED_ZC, noise="unigram", dim=4,
                         seed=seed, **BASE_OPT) for seed in range(5)]
    finals = {k: [] for k in ks}
    for config, row in sweep_runs(bases, ks, pairs, FIXTURE_VOCAB, truth):
        finals[config.k].append(row.kl_truth)
    assert all(len(kls) == 5 for kls in finals.values())
    mean_kl = [float(np.mean(finals[k])) for k in ks]
    elapsed = time.perf_counter() - start
    violations = sum(b > a for a, b in zip(mean_kl, mean_kl[1:]))
    gap = mean_kl[-1] - mle_kl
    ok = gap <= 0.05 and violations <= 1 and elapsed < 600.0
    report(4, "consistency sweep", ok,
           f"KL(k=50)-KL(MLE) {gap:+.4f} nats, {violations} violations, {elapsed:.0f}s")


def test_acceptance_5_self_normalization(fixture_data):
    start = time.perf_counter()
    truth, pairs = fixture_data
    cfg = TrainConfig(objective="nce", k=25, z_mode="fixed_one", noise="uniform",
                      dim=4, seed=0, **BASE_OPT)
    _, hist = train(cfg, pairs, FIXTURE_VOCAB, truth=truth)
    med = hist[-1].median_abs_log_z
    elapsed = time.perf_counter() - start
    ok = med <= 0.5 and elapsed < 120.0
    report(5, "self-normalization", ok, f"median |log Z| {med:.3f} nats, {elapsed:.0f}s")


def test_acceptance_6_ns_bias(fixture_data):
    start = time.perf_counter()
    truth, pairs = fixture_data
    shared = dict(k=5, noise="unigram", dim=16, seed=0, **BASE_OPT)
    _, mle_hist = train(
        TrainConfig(objective="mle_exact", dim=16, seed=0, **BASE_OPT),
        pairs, FIXTURE_VOCAB, truth=truth,
    )
    _, nce_hist = train(
        TrainConfig(objective="nce", z_mode=Z_LEARNED_ZC, **shared),
        pairs, FIXTURE_VOCAB, truth=truth,
    )
    _, ns_hist = train(
        TrainConfig(objective="ns", **shared), pairs, FIXTURE_VOCAB, truth=truth
    )
    mle_kl = mle_hist[-1].kl_truth
    nce_kl = nce_hist[-1].kl_truth
    ns_kl = ns_hist[-1].kl_truth
    elapsed = time.perf_counter() - start
    ok = ns_kl >= 2 * nce_kl and ns_kl - mle_kl >= 0.1 and elapsed < 300.0
    report(6, "negative sampling bias", ok,
           f"NS {ns_kl:.3f} vs NCE {nce_kl:.3f} vs MLE {mle_kl:.3f} nats, {elapsed:.0f}s")


def test_acceptance_7_monte_carlo_unbiasedness():
    start = time.perf_counter()
    V, d, k, n, resamples = 8, 3, 2, 60, 10_000
    rng = derive_rng(11, STREAM_DATA)
    params = init_params(V, d, 11, z_mode=Z_LEARNED_ZC)
    params.log_zc[:] = rng.normal(0.0, 0.5, V + 1)
    contexts = np.concatenate([np.arange(V + 1), rng.integers(0, V + 1, n - (V + 1))])
    words = rng.integers(0, V, n)
    pairs = np.stack([contexts, words], axis=1)
    q = noise.uniform(V)
    cfg = nce.NceConfig(k=k, q=q)
    counts = pair_count_matrix(pairs, V)
    oracle = finite_diff_gradient(lambda p: nce.exact_loss(p, counts, cfg), params).vector
    total = np.zeros_like(oracle)
    total_sq = np.zeros_like(oracle)
    n_c = counts.sum(axis=1)
    # The draw path the trainer takes for one batch of the n pairs.
    table = noise.alias_table(q) if noise.draws_words(k, n, V) else None
    for r in range(resamples):
        draws = noise.sample_array(q, k * n_c, derive_rng(11, STREAM_NOISE, r), table)
        g = nce.mc_grad(params, CellCounts(counts, draws), cfg).vector
        total += g
        total_sq += g * g
    mean = total / resamples
    se = np.sqrt(np.maximum(total_sq / resamples - mean**2, 0.0) / resamples)
    z = np.abs(mean - oracle) / np.where(se > 0, se, np.inf)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(z <= 4.0)) and elapsed < 120.0
    report(7, "Monte Carlo unbiasedness", ok,
           f"max deviation {z.max():.2f} SE over {len(z)} coords, {elapsed:.0f}s")


def test_acceptance_8_cli_determinism(tmp_path):
    start = time.perf_counter()

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "ncelm.cli", *map(str, args)],
            capture_output=True, text=True,
        )

    prefix = tmp_path / "fix"
    r = cli("gen-data", "--vocab-size", 12, "--zipf-s", "1.5", "--tokens", 4000,
            "--seed", 3, "--out-prefix", prefix)
    assert r.returncode == 0, r.stderr
    pairs_of_files = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.model"
        r = cli("train", "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth",
                "--objective", "nce", "--k", 4, "--z-mode", "learned_zc",
                "--epochs", 4, "--eval-every", 2, "--batch-size", 32, "--dim", 4,
                "--seed", 5, "--out", out)
        assert r.returncode == 0, r.stderr
        sweep_out = tmp_path / f"{tag}.csv"
        r = cli("sweep", "--corpus", f"{prefix}.txt", "--truth", f"{prefix}.truth",
                "--ks", "1,3", "--seeds", 2, "--epochs", 2, "--eval-every", 2,
                "--batch-size", 32, "--dim", 4, "--out", sweep_out)
        assert r.returncode == 0, r.stderr
        pairs_of_files.append(
            (out.read_bytes(), (tmp_path / f"{tag}.model.metrics.csv").read_bytes(),
             sweep_out.read_bytes())
        )
    elapsed = time.perf_counter() - start
    ok = pairs_of_files[0] == pairs_of_files[1]
    report(8, "CLI determinism", ok,
           f"model, metrics, and sweep byte-identical, {elapsed:.0f}s")
