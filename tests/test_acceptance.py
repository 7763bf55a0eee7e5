"""Acceptance suite: one test per criterion, one printed line per verdict.

Most criteria aggregate over fixed seed sets; everything in the package
is bit-deterministic given a seed, so these runs are reproducible.
"""

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from transfercluster import (
    EncoderParams,
    EnsembleState,
    FeatureMatrix,
    ProbeSplit,
    Prototypes,
    TrainConfig,
    backward,
    clustering_accuracy,
    consistency_loss,
    ema_corrected,
    ema_update,
    estimate_class_count,
    forward,
    initialize,
    kl_loss,
    kl_loss_gradients,
    predict,
    pretrain_encoder,
    save_encoder,
    silhouette,
    soft_assign,
    soft_assign_grads,
    synth_mixture,
    target_distribution,
    train,
)
from transfercluster.cli import main as cli_main
from transfercluster.encoder import LayerParams
from transfercluster.manifest import read_manifest

from test_metrics import direct_silhouette, permutation_accuracy


def report(number, description, ok):
    # Write past pytest's capture so the verdict always reaches the console.
    sys.__stdout__.write(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}\n")
    sys.__stdout__.flush()
    assert ok, f"criterion {number} failed: {description}"


# -----------------------------------------------------------------------
# 1. Gradient fidelity
# -----------------------------------------------------------------------


def full_loss_and_grads(enc, protos, x, q, p_ref, omega):
    z = forward(enc, x)
    p = soft_assign(z, protos)
    loss = kl_loss(q, p) + omega * consistency_loss(p, p_ref)[0]
    gz_kl, gc_kl = kl_loss_gradients(z, protos, q)
    _, gp = consistency_loss(p, p_ref)
    gz_c, gc_c = soft_assign_grads(z, protos, omega * gp)
    enc_grads, _ = backward(enc, x, gz_kl + gz_c)
    return loss, enc_grads, gc_kl + gc_c


def test_criterion_1_gradient_fidelity():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(20):
        n, k, d, c, hidden = 20, 3, 8, 3, 10
        enc = EncoderParams(
            [LayerParams(rng.normal(scale=0.4, size=(hidden, d)),
                         rng.normal(scale=0.1, size=hidden))],
            LayerParams(rng.normal(scale=0.4, size=(c, hidden)),
                        rng.normal(scale=0.1, size=c)),
            d,
        )
        protos = Prototypes(rng.normal(size=(k, c)))
        x = rng.normal(size=(n, d))
        q = rng.dirichlet(np.ones(k), size=n)
        p_ref = rng.dirichlet(np.ones(k), size=n)
        omega = 0.7

        def loss_value():
            p = soft_assign(forward(enc, x), protos)
            return kl_loss(q, p) + omega * consistency_loss(p, p_ref)[0]

        _, enc_grads, grad_centers = full_loss_and_grads(enc, protos, x, q, p_ref, omega)
        analytic = [*enc_grads, grad_centers]
        arrays = [enc.bottleneck.weights, enc.bottleneck.bias,
                  enc.layers[0].weights, enc.layers[0].bias, protos.centers]
        assert len(analytic) == len(arrays)
        h = 1e-5
        for got, arr in zip(analytic, arrays):
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + h
                up = loss_value()
                arr[idx] = keep - h
                down = loss_value()
                arr[idx] = keep
                fd[idx] = (up - down) / (2 * h)
            err = np.linalg.norm(got - fd) / max(np.linalg.norm(got),
                                                 np.linalg.norm(fd), 1e-10)
            worst = max(worst, err)
    elapsed = time.time() - start
    report(1, f"gradients vs finite differences (worst rel err {worst:.2e}, "
              f"{elapsed:.1f}s)", worst <= 1e-4 and elapsed < 5.0)


# -----------------------------------------------------------------------
# 2. Assignment algebra
# -----------------------------------------------------------------------


def test_criterion_2_assignment_algebra():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(50):
        z = rng.normal(scale=rng.uniform(0.2, 20.0), size=(12, 4))
        protos = Prototypes(rng.normal(scale=3.0, size=(5, 4)))
        p = soft_assign(z, protos)
        ok &= bool(np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9)
        q = target_distribution(p)
        ok &= bool(np.abs(q.sum(axis=1) - 1.0).max() <= 1e-9)
    one_hot = np.eye(4)[rng.integers(0, 4, size=30)]
    ok &= bool(np.array_equal(target_distribution(one_hot), one_hot))
    sharpened = 0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        base = rng.dirichlet(np.ones(k), size=2)
        p = np.array([np.roll(row, s) for row in base for s in range(k)])
        q = target_distribution(p)
        sharpened += bool((q.max(axis=1) >= p.max(axis=1) - 1e-12).all())
    ok &= sharpened == 1000
    report(2, f"assignment algebra (sharpening held in {sharpened}/1000 "
              "balanced instances)", ok)


# -----------------------------------------------------------------------
# 3. EMA exactness
# -----------------------------------------------------------------------


def test_criterion_3_ema_exactness():
    rng = np.random.default_rng(303)
    p = rng.dirichlet(np.ones(3), size=5)
    worst = 0.0
    for beta in (0.0, 0.3, 0.6, 0.9):
        state = EnsembleState.zeros(5, 3, beta)
        for _ in range(100):
            state = ema_update(state, p)
            worst = max(worst, float(np.abs(ema_corrected(state) - p).max()))
    state = EnsembleState.zeros(1, 1, 0.6)
    state = ema_update(state, np.array([[0.2]]))
    state = ema_update(state, np.array([[0.8]]))
    two_step = float(ema_corrected(state)[0, 0])
    ok = worst <= 1e-12 and abs(two_step - 0.575) <= 1e-12
    report(3, f"EMA bias correction exact (worst dev {worst:.1e}, "
              f"two-step value {two_step})", ok)


# -----------------------------------------------------------------------
# 4. ACC oracle equivalence
# -----------------------------------------------------------------------


def test_criterion_4_acc_oracle_equivalence():
    rng = np.random.default_rng(404)
    exact = 0
    for _ in range(200):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(k, 50))
        truth = rng.integers(0, k, size=n)
        predicted = rng.integers(0, k, size=n)
        acc, _ = clustering_accuracy(truth, predicted)
        exact += acc == permutation_accuracy(truth.tolist(), predicted.tolist())
    report(4, f"matching ACC equals exhaustive-permutation ACC in {exact}/200",
           exact == 200)


# -----------------------------------------------------------------------
# 5. Silhouette oracle equivalence
# -----------------------------------------------------------------------


def test_criterion_5_silhouette_oracle_equivalence():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        k = int(rng.integers(2, 6))
        x = rng.normal(size=(n, int(rng.integers(2, 6))))
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size < 2:
            labels[0], labels[1] = 0, 1
        worst = max(worst, abs(silhouette(x, labels) - direct_silhouette(x, labels)))
    report(5, f"vectorized silhouette vs direct evaluation (worst dev {worst:.1e})",
           worst <= 1e-10)


# -----------------------------------------------------------------------
# 6. End-to-end clustering, easy regime
# -----------------------------------------------------------------------


def run_pipeline(seed, sep, variant="baseline"):
    labeled, unlabeled, truth = synth_mixture(5, 5, 100, 20, sep, seed=10_000 + seed)
    encoder = pretrain_encoder(labeled, seed=seed)
    config = TrainConfig(k=5, variant=variant, seed=seed)
    ready, protos, _ = initialize(encoder, unlabeled, config)
    init_labels, _ = predict(ready, protos, unlabeled)
    trace = train(ready, protos, unlabeled, config)
    init_acc, _ = clustering_accuracy(truth, init_labels)
    final_acc, _ = clustering_accuracy(truth, trace.assignments)
    return init_acc, final_acc


def test_criterion_6_easy_regime():
    hits = 0
    slowest = 0.0
    for seed in range(10):
        start = time.time()
        _, final_acc = run_pipeline(seed, sep=6.0)
        slowest = max(slowest, time.time() - start)
        hits += final_acc >= 0.95
    report(6, f"easy regime ACC >= 0.95 in {hits}/10 seeds "
              f"(slowest seed {slowest:.1f}s)", hits >= 9 and slowest < 60.0)


# -----------------------------------------------------------------------
# 7. Annealing beats its own k-means start, hard regime
# -----------------------------------------------------------------------


def test_criterion_7_hard_regime_refinement():
    init_accs, base_accs, pi_accs = [], [], []
    for seed in range(10):
        init_acc, base_acc = run_pipeline(seed, sep=2.5)
        init_accs.append(init_acc)
        base_accs.append(base_acc)
        _, pi_acc = run_pipeline(seed, sep=2.5, variant="pi")
        pi_accs.append(pi_acc)
    init_mean = float(np.mean(init_accs))
    base_mean = float(np.mean(base_accs))
    pi_mean = float(np.mean(pi_accs))
    ok = base_mean >= init_mean and pi_mean >= base_mean - 0.02
    report(7, f"hard regime means: k-means {init_mean:.3f}, annealed {base_mean:.3f}, "
              f"pi {pi_mean:.3f}", ok)


# -----------------------------------------------------------------------
# 8. Category-count estimation
# -----------------------------------------------------------------------


def test_criterion_8_count_estimation():
    split = ProbeSplit(frozenset({0, 1, 2, 3}), frozenset({4}))
    ok = True
    summary = []
    for k_true in (3, 5, 8):
        hits = 0
        for seed in range(10):
            labeled, unlabeled, truth = synth_mixture(
                5, k_true, 150, 32, 6.0, seed=8000 + 17 * seed + k_true
            )
            rows = np.concatenate(
                [np.nonzero(truth == c)[0][:50] for c in range(k_true)]
            )
            novel = FeatureMatrix(unlabeled.values[rows],
                                  tuple(unlabeled.ids[i] for i in rows))
            rep = estimate_class_count(labeled, novel, split, k_max=20,
                                       tau=0.01, seed=seed, threads=1)
            hits += abs(rep.k_final - k_true) <= 1
        summary.append(f"K={k_true}: {hits}/10")
        ok &= hits >= 8
    report(8, "count estimate within +-1 (" + ", ".join(summary) + ")", ok)


# -----------------------------------------------------------------------
# 9. CLI determinism from manifests
# -----------------------------------------------------------------------


def digest_outputs(manifest_path):
    record = read_manifest(manifest_path)
    digests = {}
    for name, path in record["outputs"].items():
        digests[name] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    digests["manifest"] = hashlib.sha256(Path(manifest_path).read_bytes()).hexdigest()
    return digests


def test_criterion_9_cli_determinism(tmp_path):
    data = tmp_path / "data"
    model = tmp_path / "model"
    assert cli_main(["synth", "--labeled-classes", "3", "--unlabeled-classes", "3",
                     "--per-class", "20", "--dim", "6", "--sep", "7", "--seed", "2",
                     "--out-dir", str(data)]) == 0
    assert cli_main(["pretrain", "--labeled", str(data / "labeled.csv"),
                     "--hidden", "16", "--epochs", "5", "--seed", "2",
                     "--out-dir", str(model)]) == 0
    runs = {
        "cluster": ["cluster", "--encoder", str(model / "encoder.dtce"),
                    "--data", str(data / "unlabeled.csv"), "--k", "3",
                    "--warmup", "1", "--epochs", "2", "--seed", "2",
                    "--out-dir", str(tmp_path / "cluster")],
        "estimate-k": ["estimate-k", "--encoder", str(model / "encoder.dtce"),
                       "--probe", str(data / "labeled.csv"),
                       "--data", str(data / "unlabeled.csv"), "--k-max", "4",
                       "--seed", "2", "--out-dir", str(tmp_path / "estimate")],
        "sweep": ["sweep", "--encoder", str(model / "encoder.dtce"),
                  "--data", str(data / "unlabeled.csv"),
                  "--truth", str(data / "unlabeled_truth.csv"),
                  "--sweep", "k", "--values", "2,3", "--warmup", "1",
                  "--epochs", "1", "--seed", "2", "--out-dir", str(tmp_path / "sweep")],
    }
    for argv in runs.values():
        assert cli_main(argv) == 0
    assert cli_main(["eval", "--assignments", str(tmp_path / "cluster" / "assignments.csv"),
                     "--truth", str(data / "unlabeled_truth.csv"),
                     "--out-dir", str(tmp_path / "eval")]) == 0

    manifests = [data / "synth.manifest", model / "pretrain.manifest",
                 tmp_path / "cluster" / "cluster.manifest",
                 tmp_path / "estimate" / "estimate-k.manifest",
                 tmp_path / "sweep" / "sweep.manifest",
                 tmp_path / "eval" / "eval.manifest"]
    stable = True
    for manifest in manifests:
        baseline = digest_outputs(manifest)
        for _ in range(3):
            assert cli_main(["rerun", str(manifest)]) == 0
            stable &= digest_outputs(manifest) == baseline
    report(9, f"all {len(manifests)} commands replay bit-identically x3", stable)

# -----------------------------------------------------------------------
# 10. Sensitivity-sweep shapes via the sweep command
# -----------------------------------------------------------------------


def write_truth(path, ids, labels):
    path.write_text("id,label\n" + "\n".join(f"{i},{t}" for i, t in zip(ids, labels)) + "\n")


def read_sweep_acc(out_dir):
    rows = (out_dir / "sweep_results.csv").read_text().strip().split("\n")[1:]
    return {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}


def test_criterion_10a_bottleneck_sweep_shape(tmp_path):
    """Category structure spans 10 directions; 30 more carry scaled noise.

    The bottleneck effect at this scale is a gentle bump over seed noise,
    so the check averages a fixed four-seed set (deterministic, like the
    rest of the suite) and asserts the mean curve peaks at c = K.
    """
    values = (2, 5, 10, 15, 20)
    from transfercluster.seeding import rng_for

    curves = []
    for rs in range(4):
        _, unlabeled, truth = synth_mixture(5, 10, 50, 10, 5.0, seed=6300 + rs)
        rng = rng_for(rs, "pad")
        padded = np.hstack([unlabeled.values,
                            2.0 * rng.standard_normal((unlabeled.n_rows, 30))])
        unl = FeatureMatrix(padded, unlabeled.ids)
        from transfercluster.dataset import save_features

        data = tmp_path / f"unl{rs}.csv"
        truth_path = tmp_path / f"truth{rs}.csv"
        save_features(data, unl, "csv")
        write_truth(truth_path, unl.ids, truth)
        enc_path = tmp_path / f"enc{rs}.dtce"
        save_encoder(enc_path, EncoderParams([], None, 40))
        out = tmp_path / f"sw{rs}"
        assert cli_main(["sweep", "--encoder", str(enc_path), "--data", str(data),
                         "--truth", str(truth_path), "--sweep", "bottleneck",
                         "--k", "10", "--values", ",".join(map(str, values)),
                         "--warmup", "5", "--epochs", "25", "--seed", str(rs),
                         "--out-dir", str(out)]) == 0
        table = read_sweep_acc(out)
        curves.append([table[v] for v in values])
    mean = np.mean(curves, axis=0)
    peak = values[int(np.argmax(mean))]
    report("10a", f"bottleneck sweep mean ACC {np.round(mean, 3).tolist()} "
                  f"peaks at c={peak} (true K=10)", abs(peak - 10) <= 2)


def test_criterion_10b_cluster_count_sweep_shape(tmp_path):
    """Count-sweep asymmetry: guessing low hurts more than guessing high."""
    from transfercluster.dataset import save_features

    at_true, low_below_high = 0, 0
    for seed in range(10):
        labeled, unlabeled, truth = synth_mixture(5, 10, 50, 20, 6.0, seed=6100 + seed)
        encoder = pretrain_encoder(labeled, seed=seed)
        enc_path = tmp_path / f"enc{seed}.dtce"
        save_encoder(enc_path, encoder)
        data = tmp_path / f"unl{seed}.csv"
        truth_path = tmp_path / f"truth{seed}.csv"
        save_features(data, unlabeled, "csv")
        write_truth(truth_path, unlabeled.ids, truth)
        out = tmp_path / f"sw{seed}"
        assert cli_main(["sweep", "--encoder", str(enc_path), "--data", str(data),
                         "--truth", str(truth_path), "--sweep", "k",
                         "--values", "8,10,12", "--warmup", "5", "--epochs", "25",
                         "--seed", str(seed), "--out-dir", str(out)]) == 0
        table = read_sweep_acc(out)
        at_true += table[10] > table[8] and table[10] > table[12]
        low_below_high += table[8] < table[12]
    ok = at_true >= 7 and low_below_high >= 7
    report("10b", f"count sweep: ACC peaks at true K in {at_true}/10, "
                  f"low guess worse than high in {low_below_high}/10", ok)
