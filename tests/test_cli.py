"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "samples.csv"
    assert (
        main(
            [
                "simulate",
                "tnn",
                "--out",
                str(path),
                "--windows",
                "120",
            ]
        )
        == 0
    )
    return path


class TestWorkloads:
    def test_lists_suite(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "tnn" in out
        assert "parboil-cutcp" in out
        assert "testing" in out


class TestSimulate:
    def test_writes_csv(self, sample_csv, capsys):
        assert sample_csv.exists()
        header = sample_csv.read_text().splitlines()[0]
        assert header == "metric,time,work,metric_count"

    def test_unknown_workload_fails_cleanly(self, tmp_path, capsys):
        code = main(["simulate", "not-a-workload", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrainAnalyze:
    def test_train_then_analyze(self, sample_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", str(sample_csv), "--model", str(model_path)]) == 0
        assert model_path.exists()
        assert (
            main(
                [
                    "analyze",
                    "--model",
                    str(model_path),
                    "--data",
                    str(sample_csv),
                    "--top",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bottleneck pool" in out
        assert "measured" in out

    def test_analyze_missing_model(self, sample_csv, tmp_path, capsys):
        code = main(
            ["analyze", "--model", str(tmp_path / "no.json"), "--data", str(sample_csv)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTma:
    def test_tma_renders_tree(self, capsys):
        assert main(["tma", "onnx", "--windows", "60"]) == 0
        out = capsys.readouterr().out
        assert "memory_bound" in out
        assert "main bottleneck:" in out


class TestParsePerf:
    def test_parse_perf(self, tmp_path, capsys):
        perf_file = tmp_path / "perf.txt"
        perf_file.write_text(
            "1.0,1000,,instructions,1,100\n"
            "1.0,2000,,cycles,1,100\n"
            "1.0,10,,cache-misses,1,100\n"
        )
        out_csv = tmp_path / "out.csv"
        assert main(["parse-perf", str(perf_file), "--out", str(out_csv)]) == 0
        assert out_csv.exists()
        assert "cache-misses" in out_csv.read_text()

    def test_parse_perf_not_utf8_fails_cleanly(self, tmp_path, capsys):
        perf_file = tmp_path / "perf.txt"
        perf_file.write_bytes(b"1.0,1000,,instructions,1,100\n1.0,\xff\xfe\n")
        out_csv = tmp_path / "out.csv"
        assert main(["parse-perf", str(perf_file), "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {perf_file}: not UTF-8 text")
        assert err.count("\n") == 1
        assert not out_csv.exists()


class TestPlot:
    def test_plot_svg(self, sample_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", str(sample_csv), "--model", str(model_path)])
        svg_path = tmp_path / "plot.svg"
        assert (
            main(
                [
                    "plot",
                    "--model",
                    str(model_path),
                    "--metric",
                    "idq.dsb_uops",
                    "--out",
                    str(svg_path),
                ]
            )
            == 0
        )
        assert svg_path.exists()

    def test_plot_terminal(self, sample_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", str(sample_csv), "--model", str(model_path)])
        assert (
            main(["plot", "--model", str(model_path), "--metric", "idq.dsb_uops"])
            == 0
        )
        out = capsys.readouterr().out
        assert "idq.dsb_uops" in out

    def test_plot_unknown_metric(self, sample_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", str(sample_csv), "--model", str(model_path)])
        assert (
            main(["plot", "--model", str(model_path), "--metric", "nope"]) == 2
        )


class TestReport:
    def test_report_prints_agreement(self, capsys):
        assert (
            main(
                [
                    "report",
                    "--train-windows",
                    "60",
                    "--test-windows",
                    "48",
                    "--top",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "agreement:" in out
        assert "tnn" in out


class TestWhatIf:
    def test_whatif_sweep(self, sample_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", str(sample_csv), "--model", str(model_path)])
        assert (
            main(
                [
                    "whatif",
                    "--model",
                    str(model_path),
                    "--data",
                    str(sample_csv),
                    "--factors",
                    "2",
                    "--top",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "biggest projected win" in out


class TestTrace:
    def test_trace_collect(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        assert (
            main(
                [
                    "trace",
                    "branchy",
                    "--uops",
                    "4000",
                    "--window",
                    "1000",
                    "--intensities",
                    "0.2,0.8",
                    "--out",
                    str(out_csv),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "IPC" in out
        assert out_csv.exists()
        assert "trace.branch_mispredicts" in out_csv.read_text()

    def test_trace_with_model(self, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        model_path = tmp_path / "trace-model.json"
        main(
            ["trace", "mixed", "--uops", "6000", "--window", "1000",
             "--out", str(csv_path)]
        )
        main(["train", str(csv_path), "--model", str(model_path)])
        assert (
            main(
                ["trace", "pointer_chase", "--uops", "4000", "--window",
                 "1000", "--intensities", "0.8", "--model", str(model_path),
                 "--top", "4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Memory" in out or "trace." in out

    def test_unknown_kernel(self, capsys):
        assert main(["trace", "quantum"]) == 2

    @pytest.mark.parametrize(
        "kernel, intensities",
        [("stream", "1.7,-3"), ("codebloat", "nan"), ("pointer_chase", "nan")],
    )
    def test_bad_intensities_exit_2(self, kernel, intensities, capsys):
        argv = ["trace", kernel, "--uops", "8000", "--window", "4000",
                "--intensities", intensities]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: kernel intensity")
        assert captured.err.count("\n") == 1


class TestCoverage:
    def test_coverage_report(self, sample_csv, capsys):
        assert (
            main(["coverage", "--data", str(sample_csv), "--min-samples", "5"])
            == 0
        )
        out = capsys.readouterr().out
        assert "decades" in out

    def test_train_prints_coverage_warnings(self, sample_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        assert (
            main(
                [
                    "train",
                    str(sample_csv),
                    "--model",
                    str(model_path),
                    "--min-samples",
                    "10000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "coverage warning" in out


class TestReportArchive:
    def test_report_archives_run(self, tmp_path, capsys):
        archive_dir = tmp_path / "archive"
        assert (
            main(
                ["report", "--train-windows", "48", "--test-windows", "24",
                 "--archive", str(archive_dir)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "archived" in out
        from repro.io import load_experiment

        archive = load_experiment(archive_dir)
        assert len(archive.workloads()) == 27


class TestFaultsim:
    def test_faultsim_collector_faults_pass(self, capsys):
        # Each collector fault must leave its trace in its victim's
        # quality report: a quarantined sample, a dropped metric.
        assert (
            main(
                ["faultsim", "--train-windows", "48", "--test-windows", "24",
                 "--corrupt-samples", "1", "--drop-metrics", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fault plan" in out
        assert "corrupt-sample" in out and "drop-metric" in out
        assert "1 quarantined sample(s)" in out
        assert "PASS" in out

    def test_faultsim_verify_baseline_skips_victims(self, capsys):
        # Victims differ from the baseline by design; every bystander
        # must match it bit for bit.
        assert (
            main(
                ["faultsim", "--train-windows", "48", "--test-windows", "24",
                 "--corrupt-samples", "1", "--drop-metrics", "1",
                 "--verify-baseline"]
            )
            == 0
        )
        assert "all surviving workloads bit-identical" in capsys.readouterr().out

    def test_faultsim_no_faults_passes(self, capsys):
        assert (
            main(
                ["faultsim", "--train-windows", "48", "--test-windows", "24",
                 "--corrupt-samples", "0"]
            )
            == 0
        )


class TestReportResilienceFlags:
    def test_report_accepts_resilience_flags(self, capsys):
        assert (
            main(
                ["report", "--train-windows", "48", "--test-windows", "24",
                 "--top", "3", "--failure-policy", "skip"]
            )
            == 0
        )
        assert "agreement:" in capsys.readouterr().out


class TestDerived:
    def test_derived_metrics_printed(self, capsys):
        assert main(["derived", "graph500", "--windows", "60"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out
        assert "l3_mpki" in out
        assert "dsb_coverage" in out
