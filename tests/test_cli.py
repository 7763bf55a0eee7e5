"""End-to-end tests for the command-line pipeline and its manifests."""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transfercluster
from transfercluster import cli
from transfercluster.cli import main
from transfercluster.dataset import LabeledSet, load_features, load_labeled, split_probes
from transfercluster.encoder import EncoderParams, LayerParams, forward, load_encoder, save_encoder
from transfercluster.estimator import estimate_class_count, sweep_report_to_csv
from transfercluster.manifest import read_manifest, write_manifest


# How a bad value in an id,value file is spelled, by test case suffix.
BAD_ID_VALUES = {"int64-overflow": str(2**63), "underscore": "1_0", "space": " 7",
                 "arabic-indic-digit": "\u0662", "plus-sign": "+3"}

# A synth command that replays, one manifest line per argument.
SYNTH_MANIFEST = b"command=synth\n" + b"\n".join(
    f"argv.{i}={arg}".encode() for i, arg in enumerate(
        ["synth", "--labeled-classes", "2", "--unlabeled-classes", "2", "--per-class", "5",
         "--dim", "2", "--sep", "6", "--out-dir", "OUT"]))


def run(*argv):
    return main([str(a) for a in argv])


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run("synth", "--labeled-classes", 3, "--unlabeled-classes", 3,
               "--per-class", 25, "--dim", 8, "--sep", 7, "--seed", 5,
               "--out-dir", out)
    assert code == 0
    return out


@pytest.fixture()
def encoder_path(synth_dir, tmp_path):
    out = tmp_path / "enc"
    code = run("pretrain", "--labeled", synth_dir / "labeled.csv",
               "--hidden", 32, "--epochs", 8, "--seed", 1, "--out-dir", out)
    assert code == 0
    return out / "encoder.dtce"


class TestSynth:
    def test_writes_expected_files(self, synth_dir):
        labeled = (synth_dir / "labeled.csv").read_text().strip().split("\n")
        unlabeled = (synth_dir / "unlabeled.csv").read_text().strip().split("\n")
        assert len(labeled) == 76 and len(unlabeled) == 76
        assert labeled[0].endswith(",label")
        assert (synth_dir / "unlabeled_truth.csv").exists()
        assert (synth_dir / "synth.manifest").exists()

    def test_missing_flag_is_usage_error(self, tmp_path):
        assert run("synth", "--labeled-classes", 3) == 1

    def test_same_invocation_same_digests(self, tmp_path):
        args = ("synth", "--labeled-classes", 2, "--unlabeled-classes", 2,
                "--per-class", 10, "--dim", 4, "--sep", 6, "--seed", 3)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out-dir", a) == 0
        assert run(*args, "--out-dir", b) == 0
        assert digest(a / "labeled.csv") == digest(b / "labeled.csv")
        assert digest(a / "unlabeled.csv") == digest(b / "unlabeled.csv")

    def test_binary_format(self, tmp_path):
        out = tmp_path / "bin"
        assert run("synth", "--labeled-classes", 2, "--unlabeled-classes", 2,
                   "--per-class", 5, "--dim", 3, "--sep", 6, "--seed", 0,
                   "--format", "binary", "--out-dir", out) == 0
        assert (out / "labeled.dtcf").read_bytes()[:4] == b"DTCF"


class TestPretrain:
    @pytest.mark.parametrize("flags", [("--batch-size", 0), ("--batch-size", -4),
                                       ("--hidden", 0), ("--hidden", -3)],
                             ids=["batch-0", "batch-negative", "hidden-0", "hidden-negative"])
    def test_size_below_one_is_usage_error(self, synth_dir, tmp_path, capsys, flags):
        out = tmp_path / "enc"
        assert run("pretrain", "--labeled", synth_dir / "labeled.csv", *flags,
                   "--epochs", 1, "--out-dir", out) == 1
        assert "must be at least 1" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("label", ["-1", str(10**23), "1_0", " 7", "\u0662", "+3"])
    def test_label_outside_the_written_range_is_data_error(self, synth_dir, tmp_path,
                                                           capsys, label):
        lines = (synth_dir / "labeled.csv").read_text().splitlines()
        lines[1] = ",".join([*lines[1].split(",")[:-1], label])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "enc"
        assert run("pretrain", "--labeled", bad, "--epochs", 1, "--out-dir", out) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 2: label '{label}' is outside 0..2**63 - 1\n")
        assert not out.exists()


class TestCluster:
    def test_zero_epochs_is_kmeans_init(self, synth_dir, encoder_path, tmp_path):
        out = tmp_path / "run"
        code = run("cluster", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv", "--k", 3,
                   "--warmup", 0, "--epochs", 0, "--seed", 2, "--out-dir", out)
        assert code == 0
        lines = (out / "assignments.csv").read_text().strip().split("\n")
        assert lines[0] == "id,cluster"
        assert len(lines) == 76
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace == ["epoch,phase,kl_loss,consistency_loss,omega"]

    def test_reports_accuracy_with_truth(self, synth_dir, encoder_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = run("cluster", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv", "--k", 3,
                   "--warmup", 2, "--epochs", 4, "--seed", 2,
                   "--truth", synth_dir / "unlabeled_truth.csv", "--out-dir", out)
        assert code == 0
        printed = capsys.readouterr().out
        assert "acc=" in printed and "nmi=" in printed

    def test_auto_k(self, synth_dir, encoder_path, tmp_path):
        out = tmp_path / "run"
        code = run("cluster", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv", "--auto-k",
                   "--probe", synth_dir / "labeled.csv", "--k-max", 5,
                   "--warmup", 1, "--epochs", 2, "--seed", 2, "--out-dir", out)
        assert code == 0
        assert (out / "auto_k_sweep.csv").exists()
        assert (out / "assignments.csv").exists()

    def test_auto_k_below_two_is_data_error(self, tmp_path, capsys):
        """An estimate of one novel class is a data outcome, not a usage error."""
        data, enc, out = tmp_path / "data", tmp_path / "enc", tmp_path / "run"
        assert run("synth", "--labeled-classes", 5, "--unlabeled-classes", 4,
                   "--per-class", 40, "--dim", 12, "--sep", 6, "--seed", 1,
                   "--out-dir", data) == 0
        assert run("pretrain", "--labeled", data / "labeled.csv", "--hidden", 32,
                   "--epochs", 10, "--seed", 1, "--out-dir", enc) == 0
        code = run("cluster", "--encoder", enc / "encoder.dtce",
                   "--data", data / "unlabeled.csv", "--auto-k",
                   "--probe", data / "labeled.csv", "--k-max", 6,
                   "--warmup", 1, "--epochs", 2, "--seed", 3, "--out-dir", out)
        assert code == 2
        assert "k_final=1 (k_hat=1)" in capsys.readouterr().err
        assert (out / "auto_k_sweep.csv").exists()
        assert not (out / "assignments.csv").exists()

    def test_auto_k_checks_training_settings_before_the_estimate(
            self, synth_dir, encoder_path, tmp_path, capsys, monkeypatch):
        """A bad training setting exits 1 before the count sweep runs."""
        def no_estimate(*args, **kwargs):
            raise AssertionError("the count estimate ran")

        monkeypatch.setattr(cli, "estimate_class_count", no_estimate)
        out = tmp_path / "run"
        assert run("cluster", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv", "--auto-k",
                   "--probe", synth_dir / "labeled.csv", "--k-max", 5,
                   "--variant", "te", "--ema-momentum", 1.5, "--out-dir", out) == 1
        assert "ema momentum must be in [0, 1)" in capsys.readouterr().err
        assert not (out / "auto_k_sweep.csv").exists()

    def test_k_or_auto_k_required(self, synth_dir, encoder_path, tmp_path):
        assert run("cluster", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv",
                   "--out-dir", tmp_path / "x") == 1

    def test_k_and_auto_k_together_is_usage_error(self, synth_dir, encoder_path, tmp_path):
        assert run("cluster", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv", "--k", 3, "--auto-k",
                   "--probe", synth_dir / "labeled.csv", "--out-dir", tmp_path / "x") == 1

    def test_missing_checkpoint_is_data_error(self, synth_dir, tmp_path):
        assert run("cluster", "--encoder", tmp_path / "nope.dtce",
                   "--data", synth_dir / "unlabeled.csv", "--k", 3,
                   "--out-dir", tmp_path / "x") == 2

    @pytest.mark.parametrize("edit", ["missing", "extra"])
    def test_truth_id_mismatch_is_data_error(self, synth_dir, encoder_path, tmp_path,
                                             capsys, edit):
        lines = (synth_dir / "unlabeled_truth.csv").read_text().strip().split("\n")
        lines = lines[:-1] if edit == "missing" else lines + ["no-such-row,0"]
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join(lines) + "\n")
        assert run("cluster", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv", "--k", 3,
                   "--warmup", 0, "--epochs", 0, "--truth", truth,
                   "--out-dir", tmp_path / "x") == 2
        assert "id mismatch" in capsys.readouterr().err

    def test_trace_has_epoch_rows(self, synth_dir, encoder_path, tmp_path):
        out = tmp_path / "run"
        assert run("cluster", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv", "--k", 3,
                   "--warmup", 2, "--epochs", 3, "--seed", 0, "--out-dir", out) == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[1].startswith("0,warmup,")
        assert lines[-1].startswith("4,main,")

    @pytest.mark.parametrize("command", ["cluster", "sweep"])
    def test_zero_ramp_is_usage_error(self, synth_dir, encoder_path, tmp_path, capsys,
                                      command):
        """``--ramp 0`` is rejected like any ramp below 1, not read as unset."""
        extra = (["--k", 3] if command == "cluster" else
                 ["--truth", synth_dir / "unlabeled_truth.csv", "--sweep", "k",
                  "--values", "3"])
        assert run(command, "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv", *extra, "--ramp", 0,
                   "--warmup", 1, "--epochs", 1, "--out-dir", tmp_path / "x") == 1
        assert "ramp length must be at least 1 epoch, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (("--variant", "baseline", "--sigma", -1), "perturb sigma must be non-negative"),
        (("--variant", "te", "--ema-momentum", 1.5), "ema momentum must be in [0, 1)"),
    ], ids=["sigma-negative", "momentum-above-one"])
    def test_regularizer_setting_out_of_range_is_usage_error(
            self, synth_dir, encoder_path, tmp_path, capsys, monkeypatch, flags, message):
        """Rejected with the training config, before any initialization work."""
        def no_initialize(*args):
            raise AssertionError("initialize ran")

        monkeypatch.setattr(cli, "initialize", no_initialize)
        out = tmp_path / "run"
        assert run("cluster", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv", "--k", 3, *flags,
                   "--out-dir", out) == 1
        assert message in capsys.readouterr().err
        assert not (out / "cluster.manifest").exists()


class TestEstimateK:
    def test_report_fields(self, synth_dir, encoder_path, tmp_path):
        out = tmp_path / "est"
        code = run("estimate-k", "--encoder", encoder_path,
                   "--probe", synth_dir / "labeled.csv",
                   "--data", synth_dir / "unlabeled.csv",
                   "--k-max", 6, "--seed", 4, "--out-dir", out)
        assert code == 0
        report = (out / "estimate_report.txt").read_text()
        assert "k_hat=" in report and "k_final=" in report
        sweep = (out / "sweep.csv").read_text().strip().split("\n")
        assert sweep[0] == "K,probe_acc,cvi,inertia"
        assert len(sweep) == 8

    def test_k_max_zero_single_point(self, synth_dir, encoder_path, tmp_path):
        out = tmp_path / "est"
        assert run("estimate-k", "--encoder", encoder_path,
                   "--probe", synth_dir / "labeled.csv",
                   "--data", synth_dir / "unlabeled.csv",
                   "--k-max", 0, "--seed", 4, "--out-dir", out) == 0
        sweep = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(sweep) == 2
        assert sweep[1].startswith("0,")

    def test_without_n_probe_every_class_is_a_probe(self, synth_dir, encoder_path,
                                                     tmp_path):
        out = tmp_path / "est"
        assert run("estimate-k", "--encoder", encoder_path,
                   "--probe", synth_dir / "labeled.csv",
                   "--data", synth_dir / "unlabeled.csv",
                   "--k-max", 5, "--seed", 2, "--out-dir", out) == 0
        encoder = load_encoder(encoder_path)
        probe = load_labeled(synth_dir / "labeled.csv", "csv")
        data = load_features(synth_dir / "unlabeled.csv", "csv")
        report = estimate_class_count(
            LabeledSet(forward(encoder, probe.features), probe.labels),
            forward(encoder, data), split_probes(probe, None, 0.8, 2), 5, 0.01, 2,
        )
        assert (out / "sweep.csv").read_text() == sweep_report_to_csv(report)


class TestEval:
    def test_relabeled_truth_scores_one(self, tmp_path):
        assignments = tmp_path / "a.csv"
        truth = tmp_path / "t.csv"
        assignments.write_text("id,cluster\nr0,2\nr1,2\nr2,0\nr3,0\n")
        truth.write_text("id,label\nr0,1\nr1,1\nr2,5\nr3,5\n")
        out = tmp_path / "eval"
        assert run("eval", "--assignments", assignments, "--truth", truth,
                   "--out-dir", out) == 0
        report = (out / "eval_report.txt").read_text()
        assert "acc=1.0" in report
        assert "nmi=1.0" in report
        assert "count_error=0" in report

    def test_csv_format(self, tmp_path):
        assignments = tmp_path / "a.csv"
        truth = tmp_path / "t.csv"
        assignments.write_text("id,cluster\nx,0\ny,1\n")
        truth.write_text("id,label\nx,0\ny,0\n")
        out = tmp_path / "eval"
        assert run("eval", "--assignments", assignments, "--truth", truth,
                   "--format", "csv", "--out-dir", out) == 0
        lines = (out / "eval_report.csv").read_text().strip().split("\n")
        assert lines[0] == "metric,value"
        assert lines[3] == "count_error,1"

    def test_disjoint_ids_is_join_error(self, tmp_path):
        assignments = tmp_path / "a.csv"
        truth = tmp_path / "t.csv"
        assignments.write_text("id,cluster\nr0,0\n")
        truth.write_text("id,label\nq0,0\n")
        assert run("eval", "--assignments", assignments, "--truth", truth,
                   "--out-dir", tmp_path / "e") == 2


class TestSweep:
    def test_k_sweep_table(self, synth_dir, encoder_path, tmp_path):
        out = tmp_path / "sw"
        code = run("sweep", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv",
                   "--truth", synth_dir / "unlabeled_truth.csv",
                   "--sweep", "k", "--values", "2,3,4",
                   "--warmup", 1, "--epochs", 2, "--seed", 3, "--out-dir", out)
        assert code == 0
        lines = (out / "sweep_results.csv").read_text().strip().split("\n")
        assert lines[0] == "value,acc,nmi"
        assert [l.split(",")[0] for l in lines[1:]] == ["2", "3", "4"]

    def test_bottleneck_sweep_needs_k(self, synth_dir, encoder_path, tmp_path):
        assert run("sweep", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv",
                   "--truth", synth_dir / "unlabeled_truth.csv",
                   "--sweep", "bottleneck", "--values", "2,3",
                   "--out-dir", tmp_path / "x") == 1

    @pytest.mark.parametrize("flags,message", [
        (("--sweep", "k", "--values", "2", "--lr", -1),
         "learning rate must be positive and finite"),
        (("--sweep", "k", "--values", "2,1"), "k must be at least 2, got 1"),
        (("--sweep", "bottleneck", "--k", 3, "--values", "3,0"),
         "bottleneck dimension must be at least 1, got 0"),
    ], ids=["lr-negative", "second-k-below-two", "second-bottleneck-below-one"])
    def test_every_point_is_checked_before_any_file_is_read(self, tmp_path, capsys,
                                                            flags, message):
        """Every input path here is missing, which would exit 2."""
        missing = tmp_path / "missing"
        assert run("sweep", "--encoder", missing, "--data", missing, "--truth", missing,
                   *flags, "--out-dir", tmp_path / "out") == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_values_is_usage_error(self, synth_dir, encoder_path, tmp_path):
        assert run("sweep", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv",
                   "--truth", synth_dir / "unlabeled_truth.csv",
                   "--sweep", "k", "--values", ",",
                   "--out-dir", tmp_path / "x") == 1


class TestManifests:
    def test_rerun_reproduces_bit_identical_outputs(self, synth_dir, encoder_path, tmp_path):
        out = tmp_path / "run"
        args = ("cluster", "--encoder", encoder_path,
                "--data", synth_dir / "unlabeled.csv", "--k", 3,
                "--warmup", 1, "--epochs", 2, "--seed", 8, "--out-dir", out)
        assert run(*args) == 0
        first = {p.name: digest(p) for p in out.iterdir()}
        assert run("rerun", out / "cluster.manifest") == 0
        second = {p.name: digest(p) for p in out.iterdir()}
        assert first == second

    def test_rerun_refuses_changed_input(self, synth_dir, encoder_path, tmp_path, capsys):
        out = tmp_path / "run"
        data = synth_dir / "unlabeled.csv"
        assert run("cluster", "--encoder", encoder_path, "--data", data, "--k", 3,
                   "--warmup", 0, "--epochs", 1, "--seed", 0, "--out-dir", out) == 0
        data.write_text(data.read_text().replace("\n", "\r\n"))
        assert run("rerun", out / "cluster.manifest") == 2
        assert "input 'data'" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [b"command=eval\nargv.x=eval", b"command=eval\n\xff=1",
                                       b"command=rerun\nargv.0=rerun\nargv.1=MANIFEST",
                                       b"command=eval\nconfig.seed=0",
                                       b"command=eval\nargv.0=eval\nargv.2=--k",
                                       b"command=eval\nargv.0=eval",
                                       b"command=eval\nargv.0=synth\nargv.1=--out-dir\n"
                                       b"argv.2=OUT",
                                       SYNTH_MANIFEST.replace(b"\nargv.1=", b"\nargv. 1="),
                                       SYNTH_MANIFEST.replace(b"\nargv.1=",
                                                              b"\nargv.01=--seed\nargv.1=")],
                             ids=["bad-argv-index", "not-utf8", "replays-rerun",
                                  "no-argv", "argv-gap", "replayed-usage-error",
                                  "command-argv-mismatch", "spaced-argv-index",
                                  "repeated-argv-index"])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, lines):
        manifest = tmp_path / "bad.manifest"
        lines = lines.replace(b"MANIFEST", str(manifest).encode())
        manifest.write_bytes(lines.replace(b"OUT", str(tmp_path / "out").encode()) + b"\n")
        assert run("rerun", manifest) == 2
        assert f"error: {manifest}" in capsys.readouterr().err

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    @pytest.mark.parametrize("where", ["out-dir", "flag-value"])
    def test_line_break_in_argument_is_usage_error(self, tmp_path, capsys, brk, where):
        """A manifest holds one argument per line, so an argument with a line
        break is refused before anything is written."""
        out = tmp_path / f"x{brk}y" if where == "out-dir" else tmp_path / "out"
        seed = "5" if where == "out-dir" else f"5{brk}"
        assert run("synth", "--labeled-classes", 2, "--unlabeled-classes", 2,
                   "--per-class", 10, "--dim", 4, "--sep", 6, "--seed", seed,
                   "--out-dir", out) == 1
        assert "line break" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_manifest_records_inputs_and_outputs(self, synth_dir):
        record = read_manifest(synth_dir / "synth.manifest")
        assert record["command"] == "synth"
        assert record["argv"][0] == "synth"
        assert "labeled" in record["outputs"]

    def test_manifest_digests_inputs(self, synth_dir, encoder_path, tmp_path):
        out = tmp_path / "run"
        assert run("cluster", "--encoder", encoder_path,
                   "--data", synth_dir / "unlabeled.csv", "--k", 3,
                   "--warmup", 0, "--epochs", 1, "--seed", 0, "--out-dir", out) == 0
        text = (out / "cluster.manifest").read_text()
        assert f"input.data={synth_dir / 'unlabeled.csv'}" in text
        assert f"input.data.sha256={digest(synth_dir / 'unlabeled.csv')}" in text


class TestErrorPaths:
    def test_nan_data_file_is_validation_error(self, encoder_path, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,f0\na,1.0\nb,NaN\n")
        assert run("cluster", "--encoder", encoder_path, "--data", bad,
                   "--k", 2, "--out-dir", tmp_path / "x") == 2

    @pytest.mark.parametrize("case", ["dtce-header-only", "dtce-tag-0", "dtce-tag-7",
                                      "dtce-bn-flag-7", "csv-not-utf8",
                                      "truth-not-utf8", "dtcf-no-columns",
                                      "truth-repeated-id", "assignments-repeated-id",
                                      "truth-int64-overflow", "assignments-int64-overflow",
                                      "truth-underscore", "truth-space",
                                      "truth-arabic-indic-digit", "assignments-plus-sign"])
    def test_malformed_file_is_data_error(self, synth_dir, encoder_path, tmp_path,
                                          capsys, case):
        bad = tmp_path / "bad"
        truth = synth_dir / "unlabeled_truth.csv"
        files = {"--encoder": encoder_path, "--data": synth_dir / "unlabeled.csv",
                 "--truth": truth, "--format": "csv"}
        command = ("cluster", "--k", 2, "--warmup", 0, "--epochs", 0)
        error = f"error: {bad}"
        if case == "dtce-header-only":
            bad.write_bytes(encoder_path.read_bytes()[:10])
            files["--encoder"] = bad
        elif case.startswith("dtce-tag-"):
            blob = bytearray(encoder_path.read_bytes())
            assert blob[18] == 1   # the first layer's activation byte
            blob[18] = int(case[-1])
            bad.write_bytes(bytes(blob))
            files["--encoder"] = bad
            error = f"error: {bad}: unknown activation tag {case[-1]}"
        elif case == "dtce-bn-flag-7":
            blob = bytearray(encoder_path.read_bytes())
            flag = 10 + 9 * blob[9]   # after the header and each layer's (in, out, tag)
            assert blob[flag] == 0
            blob[flag] = 7
            bad.write_bytes(bytes(blob))
            files["--encoder"] = bad
            error = f"error: {bad}: bottleneck flag must be 0 or 1, got 7"
        elif case == "csv-not-utf8":
            bad.write_bytes(b"id,f0\n\xff,1.0\n")
            files["--data"] = bad
        elif case == "truth-not-utf8":
            bad.write_bytes(truth.read_bytes() + b"\xff,0\n")
            files["--truth"] = bad
        elif case.endswith("repeated-id") or case.split("-", 1)[1] in BAD_ID_VALUES:
            assert "\nu1,0\n" in truth.read_text()
            assignments = tmp_path / "assignments.csv"
            assignments.write_text(truth.read_text().replace("id,label", "id,cluster", 1))
            source = assignments if case.startswith("assignments") else truth
            files = {"--assignments": assignments, "--truth": truth}
            files["--" + case.split("-")[0]] = bad
            command = ("eval",)
            if case.endswith("repeated-id"):
                bad.write_text(source.read_text() + "u1,1\n")
                error = f"error: {bad}: line 77: repeated id 'u1'"
            else:
                value = BAD_ID_VALUES[case.split("-", 1)[1]]
                lineno = source.read_text().split("\n").index("u1,0") + 1
                bad.write_text(source.read_text().replace("\nu1,0\n", f"\nu1,{value}\n"))
                error = (f"error: {bad}: line {lineno}: '{value}' is not an integer "
                         "in -(2**63 - 1)..2**63 - 1")
        else:
            bad.write_bytes(struct.pack("<4sBIIB", b"DTCF", 1, 2, 0, 0))
            files.update({"--data": bad, "--format": "binary"})
        argv = [token for pair in files.items() for token in pair]
        assert run(*command, *argv, "--out-dir", tmp_path / "x") == 2
        assert error in capsys.readouterr().err

    def test_bottleneck_below_one_is_checked_before_any_file_is_read(self, tmp_path, capsys):
        """Every input path here is missing, which would exit 2."""
        missing = tmp_path / "missing"
        assert run("cluster", "--encoder", missing, "--data", missing, "--k", 3,
                   "--bottleneck", 0, "--out-dir", tmp_path / "out") == 1
        assert "bottleneck dimension must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ("cluster", "--k", 99),
        ("cluster", "--auto-k", "--probe", "MISSING", "--bottleneck", 99),
        ("sweep", "--truth", "MISSING", "--sweep", "bottleneck", "--k", 3, "--values", "3,99"),
    ], ids=["cluster-k", "cluster-auto-k-bottleneck", "sweep-second-bottleneck"])
    def test_bottleneck_wider_than_the_trunk_is_refused_before_the_data_is_read(
            self, tmp_path, capsys, flags):
        """A 16-unit encoder and a missing data file, which would exit 2."""
        encoder, missing = tmp_path / "enc.dtce", tmp_path / "missing"
        save_encoder(encoder, EncoderParams([LayerParams(np.zeros((16, 8)), np.zeros(16))],
                                            None, 8))
        flags = [missing if flag == "MISSING" else flag for flag in flags]
        assert run(*flags, "--encoder", encoder, "--data", missing,
                   "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "error: bottleneck dimension 99 exceeds the encoder's trunk width 16\n")
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_exits_3_also_on_rerun(self, synth_dir, encoder_path, tmp_path,
                                                     capsys):
        """A bottleneck of 1e300 * I leaves every embedding finite but its
        squared distances do not fit a double."""
        encoder = load_encoder(encoder_path)
        width = encoder.trunk_output_dim
        huge = tmp_path / "huge.dtce"
        save_encoder(huge, EncoderParams(encoder.layers, LayerParams(1e300 * np.eye(width),
                                                                     np.zeros(width)),
                                         encoder.input_dim))
        argv = ["estimate-k", "--encoder", str(huge), "--probe", str(synth_dir / "labeled.csv"),
                "--data", str(synth_dir / "unlabeled.csv"), "--k-max", "4",
                "--out-dir", str(tmp_path / "out")]
        assert run(*argv) == 3
        assert capsys.readouterr().err == (
            "error: k-means++ distances overflow; rescale the data\n")
        manifest = tmp_path / "estimate-k.manifest"
        write_manifest(manifest, "estimate-k", argv, {}, {"encoder": huge}, {},
                       transfercluster.__version__)
        assert run("rerun", manifest) == 3
        assert capsys.readouterr().err.endswith("error: replayed command exited with 3\n")

    @pytest.mark.parametrize("case", ["synth-sep-nan", "synth-sep-inf", "pretrain-lr-nan",
                                      "pretrain-lr-inf", "cluster-lr-nan", "cluster-lr-inf"])
    def test_non_finite_setting_is_usage_error(self, synth_dir, encoder_path, tmp_path,
                                               capsys, case):
        """A NaN or infinite setting exits 1 before any work or output."""
        command, flag, value = case.split("-")
        args = {
            "synth": ("--labeled-classes", 2, "--unlabeled-classes", 2, "--per-class", 10,
                      "--dim", 4),
            "pretrain": ("--labeled", synth_dir / "labeled.csv", "--epochs", 1),
            "cluster": ("--encoder", encoder_path, "--data", synth_dir / "unlabeled.csv",
                        "--k", 3, "--warmup", 0, "--epochs", 1),
        }[command]
        out = tmp_path / "x"
        assert run(command, *args, f"--{flag}", value, "--out-dir", out) == 1
        assert "must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,expected", [("--assignments", "id,cluster"),
                                               ("--truth", "id,label")])
    @pytest.mark.parametrize("header", ["swapped", "feature-csv"])
    def test_id_file_takes_only_its_own_header(self, synth_dir, tmp_path, capsys,
                                               flag, expected, header):
        """``--assignments`` takes an id,cluster file and ``--truth`` an
        id,label file; any other header, such as the other file's or a
        labelled feature CSV's, exits 2 and names the expected one."""
        truth = synth_dir / "unlabeled_truth.csv"
        assignments = tmp_path / "assignments.csv"
        assignments.write_text(truth.read_text().replace("id,label", "id,cluster", 1))
        files = {"--assignments": assignments, "--truth": truth}
        if header == "swapped":
            files[flag] = files["--truth" if flag == "--assignments" else "--assignments"]
        else:
            files[flag] = synth_dir / "labeled.csv"
        argv = [token for pair in files.items() for token in pair]
        assert run("eval", *argv, "--out-dir", tmp_path / "e") == 2
        assert f"error: {files[flag]}: expected header '{expected}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--probe", "--data"])
    @pytest.mark.parametrize("defect", ["nan", "repeated-id", "short-row"])
    def test_feature_file_error_names_the_file_once(self, synth_dir, encoder_path,
                                                    tmp_path, capsys, flag, defect):
        files = {"--probe": synth_dir / "labeled.csv", "--data": synth_dir / "unlabeled.csv"}
        lines = files[flag].read_text().splitlines()
        fields = lines[1].split(",")
        if defect == "nan":
            lines[1] = ",".join([fields[0], "NaN", *fields[2:]])
            message = f"non-finite value in row id '{fields[0]}'"
        elif defect == "repeated-id":
            lines.append(lines[1])
            message = "row ids are not unique"
        else:
            lines[1] = ",".join(fields[:-1])
            message = f"line 2: expected {len(fields)} fields, got {len(fields) - 1}"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        files[flag] = bad
        argv = [token for pair in files.items() for token in pair]
        assert run("estimate-k", "--encoder", encoder_path, *argv, "--k-max", 3,
                   "--out-dir", tmp_path / "x") == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_unknown_command(self):
        assert run("frobnicate") == 1


@pytest.mark.parametrize("command", ["estimate-k", "sweep"])
def test_worker_threads_leave_outputs_unchanged(synth_dir, encoder_path, tmp_path,
                                                monkeypatch, command):
    """DTC_THREADS fans sweep points out to workers without changing results."""
    if command == "estimate-k":
        flags = ("--probe", synth_dir / "labeled.csv", "--k-max", 5)
        outputs = ("sweep.csv", "estimate_report.txt")
    else:
        flags = ("--truth", synth_dir / "unlabeled_truth.csv", "--sweep", "k",
                 "--values", "2,3", "--warmup", 1, "--epochs", 2)
        outputs = ("sweep_results.csv",)
    args = (command, "--encoder", encoder_path, "--data", synth_dir / "unlabeled.csv",
            "--seed", 1, *flags)
    serial, threaded = tmp_path / "serial", tmp_path / "threaded"
    monkeypatch.delenv("DTC_THREADS", raising=False)
    assert run(*args, "--out-dir", serial) == 0
    monkeypatch.setenv("DTC_THREADS", "3")
    assert run(*args, "--out-dir", threaded) == 0
    for name in outputs:
        assert digest(serial / name) == digest(threaded / name)


@pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5", " 2", "\u0662"])
@pytest.mark.parametrize("command", ["estimate-k", "cluster-auto-k", "sweep"])
def test_malformed_worker_threads_is_usage_error(tmp_path, monkeypatch, capsys, command,
                                                 value):
    """A DTC_THREADS that is set but not a positive integer exits 1 before
    any file is read: every input path here is missing, which would exit 2."""
    missing = tmp_path / "missing"
    flags = {
        "estimate-k": ("estimate-k", "--probe", missing),
        "cluster-auto-k": ("cluster", "--auto-k", "--probe", missing),
        "sweep": ("sweep", "--truth", missing, "--sweep", "k", "--values", "2"),
    }[command]
    monkeypatch.setenv("DTC_THREADS", value)
    assert run(*flags, "--encoder", missing, "--data", missing,
               "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        f"error: DTC_THREADS must be a positive integer, got {value!r}\n")
    assert not (tmp_path / "out").exists()


def run_at_one_and_two_threads(argv, out):
    """Run the CLI with ``argv`` in a fresh process at one and at two BLAS,
    OpenMP and ``DTC_THREADS`` threads, writing to ``out / "1"`` and
    ``out / "2"``; a fresh process, because BLAS reads its thread count
    once at load time."""
    src = str(Path(transfercluster.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   DTC_THREADS=threads, PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "transfercluster.cli",
                        *map(str, argv), "--out-dir", out / threads],
                       env=env, capture_output=True, check=True)


@pytest.mark.parametrize("command", ["estimate-k", "cluster"])
def test_blas_threads_leave_outputs_unchanged(synth_dir, encoder_path, tmp_path, command):
    """One and two BLAS and OpenMP threads write the same bytes."""
    if command == "estimate-k":
        flags = ("--probe", synth_dir / "labeled.csv", "--k-max", 5)
        outputs = ("sweep.csv", "estimate_report.txt")
    else:
        flags = ("--k", 3, "--variant", "pi", "--warmup", 2, "--epochs", 4)
        outputs = ("assignments.csv", "trace.csv")
    run_at_one_and_two_threads([command, "--encoder", encoder_path,
                                "--data", synth_dir / "unlabeled.csv", "--seed", 1, *flags],
                               tmp_path)
    for name in outputs:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_kmeans_centroid_sums_do_not_depend_on_the_thread_count(tmp_path):
    """The estimate-k benchmark's mixture at seed 3 (2 000 rows, 64
    columns), through the CLI at k_max 13.  With dense ``onehot.T @ x``
    centroid products, OpenBLAS split their 1 000-row sums differently at
    two threads, and candidate 13's inertia in ``sweep.csv`` changed in its
    last digits; exact grid sums give the same bytes at either count."""
    data, enc = tmp_path / "data", tmp_path / "enc"
    assert run("synth", "--labeled-classes", 10, "--unlabeled-classes", 10, "--per-class", 100,
               "--dim", 64, "--sep", 6, "--seed", 3, "--out-dir", data) == 0
    assert run("pretrain", "--labeled", data / "labeled.csv", "--seed", 0,
               "--out-dir", enc) == 0
    run_at_one_and_two_threads(["estimate-k", "--encoder", enc / "encoder.dtce",
                                "--probe", data / "labeled.csv", "--data", data / "unlabeled.csv",
                                "--k-max", 13, "--n-probe", 4, "--seed", 0], tmp_path)
    one, two = (tmp_path / threads / "sweep.csv" for threads in ("1", "2"))
    assert one.read_bytes() == two.read_bytes()
