import csv

import numpy as np
import pytest

from dirad import cli, evaluation, synthgen
from dirad.cli import main
from dirad.distance import DistanceVariant
from dirad.nnd import NndConfig


def run(argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run(
        ["synth", "--family", "gaussian", "--a", "0.7", "--seed", "7",
         "--n-train", "60", "--n-test-normal", "25", "--n-test-anomalous", "25",
         "--m", "3", "--out", out]
    )
    assert code == 0
    return out


@pytest.fixture
def low_dir(tmp_path):
    """Unlabelled training rows under a schema with low attributes."""
    out = tmp_path / "low"
    out.mkdir()
    rng = np.random.default_rng(5)
    rows = ["x,y,z,w"] + [
        ",".join(repr(float(v)) for v in row)
        for row in rng.standard_normal((40, 4)) * [1.0, 2.0, 0.5, 3.0]
    ]
    (out / "train.csv").write_text("\n".join(rows) + "\n")
    (out / "schema.txt").write_text("x,low\ny,high\nz,none\nw,low\n")
    return out


class TestSynth:
    def test_writes_three_files(self, synth_dir):
        for name in ("train.csv", "test.csv", "schema.txt"):
            assert (synth_dir / name).exists()

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        other = tmp_path / "again"
        run(["synth", "--family", "gaussian", "--a", "0.7", "--seed", "7",
             "--n-train", "60", "--n-test-normal", "25", "--n-test-anomalous", "25",
             "--m", "3", "--out", other])
        for name in ("train.csv", "test.csv", "schema.txt"):
            assert (synth_dir / name).read_bytes() == (other / name).read_bytes()

    def test_out_of_range_shift_is_usage_error(self, tmp_path, capsys):
        code = run(["synth", "--family", "gaussian", "--a", "1.5",
                    "--out", tmp_path / "x"])
        assert code == 1
        assert "shift" in capsys.readouterr().err

    def test_b_alias_for_bernoulli(self, tmp_path):
        out = tmp_path / "bern"
        assert run(["synth", "--family", "bernoulli", "--b", "0.3",
                    "--n-train", "30", "--out", out]) == 0
        assert (out / "train.csv").exists()


class TestBench:
    def test_cv_run_writes_results(self, synth_dir, tmp_path):
        out = tmp_path / "results"
        code = run(
            ["bench", "--data", synth_dir / "test.csv",
             "--schema", synth_dir / "schema.txt",
             "--detectors", "nnd,alp", "--variants", "absolute,ramp",
             "--k", "4", "--alp-k", "3", "--alp-l", "4",
             "--folds", "5", "--seed", "1", "--out-dir", out]
        )
        assert code == 0
        summary = read_rows(out / "summary.csv")
        assert len(summary) == 4  # 2 detectors x 2 variants, signed never scheduled
        cells = {(r["detector"], r["variant"]) for r in summary}
        assert cells == {("nnd", "absolute"), ("nnd", "ramp"),
                         ("alp", "absolute"), ("alp", "ramp")}
        folds = read_rows(out / "folds.csv")
        assert len(folds) == 4 * 6  # 5 folds + mean per cell

    def test_nnd_three_variant_rows(self, synth_dir, tmp_path):
        out = tmp_path / "r2"
        code = run(["bench", "--data", synth_dir / "test.csv",
                    "--schema", synth_dir / "schema.txt",
                    "--detectors", "nnd", "--k", "4",
                    "--folds", "5", "--seed", "1", "--out-dir", out])
        assert code == 0
        summary = read_rows(out / "summary.csv")
        assert {r["variant"] for r in summary} == {"absolute", "ramp", "signed"}

    def test_signed_with_alp_rejected_at_validation(self, synth_dir, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["bench", "--data", synth_dir / "test.csv",
                 "--schema", synth_dir / "schema.txt",
                 "--detectors", "alp", "--variants", "absolute,signed",
                 "--out-dir", tmp_path / "never"])
        assert err.value.code == 2

    def test_sweep_grid_shape(self, tmp_path):
        out = tmp_path / "sweep"
        code = run(["bench", "--sweep", "gaussian", "--shifts", "0.0,0.5,1.0",
                    "--replicates", "2", "--detectors", "nnd",
                    "--variants", "absolute,ramp", "--k", "2", "--seed", "3",
                    "--out-dir", out])
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 3 * 2  # shifts x variants
        assert {r["shift"] for r in rows} == {"0.0", "0.5", "1.0"}
        assert all(r["replicates"] == "2" for r in rows)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_partial_failure(self, threads, tmp_path, monkeypatch, capsys):
        # ALP k=1000 cannot fit 1,000 training rows: every ALP cell fails,
        # in (config, shift) order, and the NND cells are still written.
        monkeypatch.setenv("DIRAD_THREADS", threads)
        out = tmp_path / "sweep"
        code = run(["bench", "--sweep", "gaussian", "--shifts", "0.0,0.5",
                    "--replicates", "2", "--detectors", "nnd,alp",
                    "--nnd-variants", "ramp", "--k", "3", "--alp-k", "1000",
                    "--out-dir", out])
        assert code == 1
        rows = read_rows(out / "sweep.csv")
        assert [(r["detector"], r["variant"], r["shift"]) for r in rows] == [
            ("nnd", "ramp", "0.0"), ("nnd", "ramp", "0.5")]
        assert capsys.readouterr().err.splitlines() == [
            f"cell failed: alp:{variant} shift={shift}: "
            f"k must be in [1, 999], got 1000"
            for variant in ("absolute", "ramp") for shift in ("0.0", "0.5")
        ]

    def test_sweep_builds_each_problem_once(self, tmp_path, monkeypatch):
        generated = []

        def counting_generate(spec):
            generated.append(spec)
            return synthgen.generate(spec)

        monkeypatch.setattr(evaluation, "generate", counting_generate)
        out = tmp_path / "sweep"
        assert run(["bench", "--sweep", "gaussian", "--shifts", "0.2,0.7",
                    "--replicates", "2", "--detectors", "nnd", "--k", "4",
                    "--seed", "5", "--out-dir", out]) == 0
        assert len(generated) == 4  # 2 shifts x 2 replicates, not x 3 variants
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 3 * 2
        for row in rows:
            # The reference fits and scores one config at a time.
            config = NndConfig(DistanceVariant(row["variant"]), k=4)
            aurocs = []
            for spec in synthgen.grid("gaussian", [float(row["shift"])], 2, 5):
                train, test = synthgen.generate(spec)
                scaler, model = evaluation.fit_detector(config, train)
                scores = evaluation.score_queries(scaler, model, test)
                aurocs.append(evaluation.auroc(scores, test.labels))
            assert row["mean_auroc"] == repr(float(np.mean(aurocs)))

    def test_bench_rerun_byte_identical(self, synth_dir, tmp_path):
        args = ["bench", "--data", synth_dir / "test.csv",
                "--schema", synth_dir / "schema.txt", "--detectors", "nnd",
                "--k", "3", "--folds", "5", "--seed", "2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out-dir", out1]) == 0
        assert run(args + ["--out-dir", out2]) == 0
        assert (out1 / "folds.csv").read_bytes() == (out2 / "folds.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_requires_sweep_or_data(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["bench", "--out-dir", tmp_path / "x"])
        assert err.value.code == 2


class TestScore:
    @pytest.mark.parametrize("data", ["synth", "low"])
    @pytest.mark.parametrize("variant", ["absolute", "ramp"])
    def test_training_file_scores_half_with_k1(self, data, variant, request,
                                               tmp_path):
        # Every training record is its own nearest neighbour: raw 0 -> 0.5.
        # With low attributes this holds only if the queries are oriented
        # exactly like the training records.
        data_dir = request.getfixturevalue(f"{data}_dir")
        out = tmp_path / "scores.csv"
        code = run(["score", "--train", data_dir / "train.csv",
                    "--schema", data_dir / "schema.txt",
                    "--detector", "nnd", "--variant", variant, "--k", "1",
                    "--queries", data_dir / "train.csv", "--out", out])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == {"synth": 60, "low": 40}[data]
        assert all(float(r["score"]) == 0.5 for r in rows)

    def test_empty_query_file(self, synth_dir, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "scores.csv"
        code = run(["score", "--train", synth_dir / "train.csv",
                    "--schema", synth_dir / "schema.txt",
                    "--queries", empty, "--out", out])
        assert code == 0
        assert out.read_text() == "row,score\n"

    def test_schema_mismatch_fails(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,cols\n1,2\n")
        code = run(["score", "--train", synth_dir / "train.csv",
                    "--schema", synth_dir / "schema.txt",
                    "--queries", bad, "--out", tmp_path / "s.csv"])
        assert code == 1

    def test_save_and_reload_model(self, synth_dir, low_dir, tmp_path):
        model_path = tmp_path / "model.npz"
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run(["score", "--train", synth_dir / "train.csv",
                    "--schema", synth_dir / "schema.txt",
                    "--detector", "alp", "--variant", "ramp",
                    "--alp-k", "3", "--alp-l", "4",
                    "--save-model", model_path,
                    "--queries", synth_dir / "test.csv", "--out", out1]) == 0
        assert run(["score", "--model", model_path,
                    "--schema", synth_dir / "schema.txt",
                    "--queries", synth_dir / "test.csv", "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # Without --schema the bundle's own label rule reads the labelled CSV.
        out3 = tmp_path / "s3.csv"
        assert run(["score", "--model", model_path,
                    "--queries", synth_dir / "test.csv", "--out", out3]) == 0
        assert out1.read_bytes() == out3.read_bytes()
        # A bundle fitted under low attributes orients its queries the same
        # way: with k=1 every training row still scores exactly 0.5.
        low_model, low1, low2 = (tmp_path / "low.npz", tmp_path / "l1.csv",
                                 tmp_path / "l2.csv")
        assert run(["score", "--train", low_dir / "train.csv",
                    "--schema", low_dir / "schema.txt", "--k", "1",
                    "--save-model", low_model,
                    "--queries", low_dir / "train.csv", "--out", low1]) == 0
        assert run(["score", "--model", low_model,
                    "--queries", low_dir / "train.csv", "--out", low2]) == 0
        assert low1.read_bytes() == low2.read_bytes()
        assert all(float(r["score"]) == 0.5 for r in read_rows(low2))

    def test_directory_as_out_is_one_error_and_leaves_no_tmp(self, synth_dir,
                                                             tmp_path, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        code = run(["score", "--train", synth_dir / "train.csv",
                    "--schema", synth_dir / "schema.txt",
                    "--queries", synth_dir / "test.csv", "--out", out])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert out.is_dir() and not any(out.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "outdir"]

    def test_failed_rename_keeps_existing_output(self, synth_dir, tmp_path,
                                                 monkeypatch, capsys):
        out = tmp_path / "scores.csv"
        out.write_bytes(b"row,score\n1,0.25\n")

        def refuse(src, dst):
            raise OSError(f"cannot rename {src} to {dst}")

        monkeypatch.setattr(cli.os, "replace", refuse)
        code = run(["score", "--train", synth_dir / "train.csv",
                    "--schema", synth_dir / "schema.txt",
                    "--queries", synth_dir / "test.csv", "--out", out])
        monkeypatch.undo()
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot rename")
        assert out.read_bytes() == b"row,score\n1,0.25\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "scores.csv"]

    def test_scores_in_unit_interval(self, synth_dir, tmp_path):
        out = tmp_path / "scores.csv"
        assert run(["score", "--train", synth_dir / "train.csv",
                    "--schema", synth_dir / "schema.txt",
                    "--detector", "nnd", "--variant", "signed",
                    "--queries", synth_dir / "test.csv", "--out", out]) == 0
        values = [float(r["score"]) for r in read_rows(out)]
        assert all(0.0 < v < 1.0 for v in values)


@pytest.fixture
def table3_summary(tmp_path):
    """The published mean-AUROC table in the bench summary format."""
    datasets = ["ai4i2020", "diabetes-risk", "fertility", "heart-failure",
                "phishing-websites", "post-operative", "qualitative-bankruptcy",
                "south-german-credit", "thoraric-surgery", "wdbc", "wisconsin",
                "wpbc"]
    columns = {
        ("nnd", "absolute"): [0.823, 0.971, 0.602, 0.715, 0.901, 0.476, 1.000,
                              0.648, 0.597, 0.950, 0.995, 0.570],
        ("nnd", "ramp"): [0.922, 0.923, 0.653, 0.769, 0.927, 0.504, 1.000,
                          0.718, 0.624, 0.976, 0.994, 0.625],
        ("nnd", "signed"): [0.724, 0.716, 0.540, 0.735, 0.804, 0.557, 0.998,
                            0.683, 0.583, 0.969, 0.995, 0.633],
        ("alp", "absolute"): [0.877, 0.895, 0.581, 0.734, 0.927, 0.459, 1.000,
                              0.648, 0.634, 0.957, 0.872, 0.537],
        ("alp", "ramp"): [0.924, 0.926, 0.636, 0.766, 0.936, 0.484, 1.000,
                          0.714, 0.621, 0.981, 0.995, 0.654],
    }
    lines = ["dataset,detector,variant,mean_auroc"]
    for (det, var), values in columns.items():
        for ds, v in zip(datasets, values):
            lines.append(f"{ds},{det},{var},{v}")
    path = tmp_path / "summary.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestStats:
    def test_published_table_p_values(self, table3_summary, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run(["stats", "--results", table3_summary, "--detector", "nnd",
                    "--compare", "ramp:absolute", "--compare", "ramp:signed",
                    "--holm", "--out", out])
        assert code == 0
        rows = read_rows(out)
        by_pair = {(r["greater"], r["lesser"]): r for r in rows}
        assert float(by_pair[("ramp", "absolute")]["p"]) == pytest.approx(0.0117, abs=0.003)
        assert float(by_pair[("ramp", "signed")]["p"]) == pytest.approx(0.0227, abs=0.004)
        assert float(by_pair[("ramp", "absolute")]["holm_p"]) == pytest.approx(0.0233, abs=0.003)
        printed = capsys.readouterr().out
        assert "p(nnd ramp > absolute)" in printed

    def test_alp_comparison(self, table3_summary):
        code = run(["stats", "--results", table3_summary, "--detector", "alp",
                    "--compare", "ramp:absolute"])
        assert code == 0

    def test_identical_columns_error(self, table3_summary):
        code = run(["stats", "--results", table3_summary, "--detector", "nnd",
                    "--compare", "ramp:ramp"])
        assert code == 1

    def test_missing_variant_error(self, table3_summary, capsys):
        code = run(["stats", "--results", table3_summary, "--detector", "alp",
                    "--compare", "ramp:signed"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no rows for")

    @pytest.mark.parametrize("text", [
        "variant,dataset,mean_auroc\nramp,wdbc,0.9\n",
        "detector,dataset,mean_auroc\nnnd,wdbc,0.9\n",
        "detector,variant,mean_auroc\nnnd,ramp,0.9\n",
        "detector,variant,dataset\nnnd,ramp,wdbc\n",
        "detector,variant,dataset,mean_auroc\nnnd,ramp,wdbc,0.9\nnnd,ramp,wpbc\n",
    ], ids=["no-detector", "no-variant", "no-dataset", "no-mean_auroc", "short-row"])
    def test_malformed_results_error(self, text, tmp_path, capsys):
        results = tmp_path / "summary.csv"
        results.write_text(text)
        code = run(["stats", "--results", results, "--detector", "nnd",
                    "--compare", "ramp:absolute"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("method", ["approx", "exact"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "high"])
    def test_non_finite_auroc_names_its_line(self, table3_summary, method, value,
                                             capsys):
        # Line 14 holds the first nnd:ramp row, after the header and 12 rows.
        text = table3_summary.read_text().replace("nnd,ramp,0.922", f"nnd,ramp,{value}")
        table3_summary.write_text(text)
        code = run(["stats", "--results", table3_summary, "--detector", "nnd",
                    "--compare", "ramp:absolute", "--method", method, "--holm"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {table3_summary}: line 14: mean_auroc must be a finite "
            f"number, got {value!r}"
        ]


class TestDiagnose:
    @pytest.mark.parametrize("down", ["high", "low"])
    def test_report_and_suggestions(self, down, tmp_path, capsys):
        # down's anomalies are low: a mistake under down,high, and exactly
        # what down,low declares.
        data = tmp_path / "d.csv"
        data.write_text(
            "up,down,y\n"
            "0.1,0.9,normal\n0.2,0.8,normal\n"
            "0.9,0.1,anomalous\n0.8,0.2,anomalous\n"
        )
        schema = tmp_path / "s.txt"
        schema_text = f"up,high\ndown,{down}\nlabel,y,anomalous,normal\n"
        schema.write_text(schema_text)
        assert run(["diagnose", "--data", data, "--schema", schema]) == 0
        out = capsys.readouterr().out
        assert "flagged" in out
        if down == "high":
            assert "- down,high" in out and "+ down,none" in out
        else:
            assert "down," not in out
        assert "- up,high" not in out
        # The schema file itself is untouched.
        assert schema.read_text() == schema_text


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family=gaussian\nshift=0.4\nseed=5\nn-train=30\n")
        out1 = tmp_path / "a"
        assert run(["synth", "--config", cfg, "--out", out1]) == 0
        # Overriding the seed on the command line wins over the config.
        out2 = tmp_path / "b"
        assert run(["synth", "--config", cfg, "--seed", "6", "--out", out2]) == 0
        assert (out1 / "train.csv").read_bytes() != (out2 / "train.csv").read_bytes()

    def test_equals_spelling_matches_two_tokens(self, synth_dir, tmp_path):
        cfg = tmp_path / "k1.cfg"
        cfg.write_text("k=1\nfolds=3\n")
        data = ["bench", "--data", synth_dir / "test.csv",
                "--schema", synth_dir / "schema.txt", "--variants", "ramp"]
        outs = [tmp_path / name for name in ("default", "split", "joined")]
        assert run(data + ["--folds", "3", "--out-dir", outs[0]]) == 0
        assert run(data + ["--config", cfg, "--out-dir", outs[1]]) == 0
        assert run(data + [f"--config={cfg}", "--out-dir", outs[2]]) == 0
        summaries = [(out / "summary.csv").read_bytes() for out in outs]
        assert summaries[1] == summaries[2] != summaries[0]

    def test_equals_spelled_flag_wins(self, table3_summary, tmp_path):
        # --compare appends, so a config value that is not skipped would add
        # a second comparison to the report.
        cfg = tmp_path / "stats.cfg"
        cfg.write_text("compare=ramp:absolute\n")
        reports = []
        for config in (["--config", cfg], [f"--config={cfg}"]):
            for compare in (["--compare", "ramp:signed"], ["--compare=ramp:signed"]):
                reports.append(tmp_path / f"report{len(reports)}.csv")
                assert run(["stats", *config, "--results", table3_summary,
                            *compare, "--out", reports[-1]]) == 0
        assert [r["lesser"] for r in read_rows(reports[0])] == ["signed"]
        assert len({report.read_bytes() for report in reports}) == 1


def write_oversized_inputs(root):
    """Inputs whose one long field exceeds the csv module's 131,072-char limit."""
    long_field = "1" * 200_000
    (root / "schema.txt").write_text("x,high\nlabel,label,anomalous,normal\n")
    (root / "train.csv").write_text("x\n1\n2\n")
    (root / "big.csv").write_text(f"x,label\n{long_field},normal\n")
    (root / "big_summary.csv").write_text(
        f"detector,variant,dataset,mean_auroc\nnnd,ramp,d{long_field},0.9\n"
    )


@pytest.mark.parametrize("bad, message", [
    ("big.csv", "field larger than field limit"),
    ("wrong.csv", "schema/header mismatch"),
])
def test_bad_data_file_is_named(bad, message, tmp_path, monkeypatch, capsys):
    # Of two --data files under one schema, the error names the bad one.
    monkeypatch.chdir(tmp_path)
    write_oversized_inputs(tmp_path)
    (tmp_path / "good.csv").write_text("x,label\n1,normal\n2,anomalous\n")
    (tmp_path / "wrong.csv").write_text("y,label\n1,normal\n")
    assert run(["bench", "--data", "good.csv", "--data", bad,
                "--schema", "schema.txt", "--out-dir", "x"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}")


@pytest.mark.parametrize("second", ["b/x.csv", "a/x.csv"])
def test_repeated_dataset_id_is_rejected(second, tmp_path, monkeypatch, capsys):
    # Results are keyed by file stem, so two --data files named x.csv would
    # write two `x` groups into summary.csv.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "schema.txt").write_text("x,high\nlabel,label,anomalous,normal\n")
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.csv").write_text("x,label\n1,normal\n2,anomalous\n")
    assert run(["bench", "--data", "a/x.csv", "--data", second,
                "--schema", "schema.txt", "--out-dir", "out"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"error: --data a/x.csv and {second} share the dataset id 'x'"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, threads", [
    (["synth", "--config", "missing.cfg", "--out", "x"], None),
    (["bench", "--sweep", "gaussian", "--shifts", "0.5", "--replicates", "1",
      "--out-dir", "x"], "x"),
    (["bench", "--sweep", "gaussian", "--shifts", "0.5", "--replicates", "1",
      "--out-dir", "x"], "0"),
    (["bench", "--sweep", "gaussian", "--shifts", "0.5", "--replicates", "1",
      "--out-dir", "x"], "-4"),
    (["bench", "--data", "a.csv", "--schema", "a.txt", "--schema", "b.txt",
      "--out-dir", "x"], None),
    (["bench", "--data", "big.csv", "--schema", "schema.txt", "--out-dir", "x"],
     None),
    (["score", "--train", "train.csv", "--schema", "schema.txt", "--k", "1",
      "--queries", "big.csv", "--out", "x"], None),
    (["diagnose", "--data", "big.csv", "--schema", "schema.txt"], None),
    (["stats", "--results", "big_summary.csv", "--compare", "ramp:absolute"], None),
], ids=["missing-config", "bad-threads", "zero-threads", "negative-threads",
        "data-schema-counts", "bench-long-field", "score-long-field",
        "diagnose-long-field", "stats-long-field"])
def test_input_error_is_one_line(argv, threads, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_oversized_inputs(tmp_path)
    if threads is not None:
        monkeypatch.setenv("DIRAD_THREADS", threads)
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "x").exists()
