import csv
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirad
from dirad import alp, cli, evaluation, synthgen
from dirad.cli import main
from dirad.distance import DistanceVariant
from dirad.nnd import NndConfig

DATA = Path(__file__).parent / "data"

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


def write_wide_training_column(root, labelled):
    """Training rows whose x1 is twenty 0s plus 1e308 and -1e308: its
    semi-IQR is 0 and half its range overflows. Returns (data, schema)."""
    x2 = np.round(np.random.default_rng(1).standard_normal(22), 3)
    rows = [f"{a!r},{float(b)!r}" for a, b in zip([0.0] * 20 + [1e308, -1e308], x2)]
    header, schema = "x1,x2", "x1,high\nx2,high\n"
    if labelled:
        rows = [r + ",normal" for r in rows] + ["1.0,5.0,anomalous", "3.0,3.0,anomalous"]
        header, schema = header + ",label", schema + "label,label,anomalous,normal\n"
    (root / "data.csv").write_text("\n".join([header] + rows) + "\n")
    (root / "schema.txt").write_text(schema)
    return root / "data.csv", root / "schema.txt"


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

    def test_negative_exponent_value_reaches_the_range_check(self, tmp_path, capsys):
        # argparse alone would read -1e-1 as an option and exit 2.
        assert run(["synth", "--family", "gaussian", "--a", "-1e-1",
                    "--out", tmp_path / "x"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: shift for gaussian must lie in [0.0, 1.0], got -0.1"
        ]

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cv_partial_failure(self, threads, tmp_path, monkeypatch, capsys):
        # good's folds train on 8 normals, so ALP k=8 fails in fold 1;
        # oneclass has no anomalies, so every cell on it fails. The failures
        # come in (dataset, config) order and only good's NND rows are written.
        monkeypatch.setenv("DIRAD_THREADS", threads)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "schema.txt").write_text("x,high\ny,low\nlabel,label,anomalous,normal\n")
        normals = [f"{0.1 * i},{1.0 - 0.07 * i},normal" for i in range(10)]
        anomalies = ["2.5,-1.0,anomalous", "3.0,0.2,anomalous", "1.9,-2.0,anomalous"]
        (tmp_path / "good.csv").write_text("\n".join(["x,y,label", *normals, *anomalies]) + "\n")
        (tmp_path / "oneclass.csv").write_text("\n".join(["x,y,label", *normals[:7]]) + "\n")
        code = run(["bench", "--data", "good.csv", "--data", "oneclass.csv",
                    "--schema", "schema.txt", "--detectors", "nnd,alp",
                    "--k", "3", "--alp-k", "8", "--alp-l", "4", "--out-dir", "out"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"cell failed: dataset=good detector=alp:{variant}: fold 1/5 of good "
            f"failed: k must be in [1, 7], got 8"
            for variant in ("absolute", "ramp")
        ] + [
            f"cell failed: dataset=oneclass detector={cell}: both classes must be "
            f"present to run cross-validation"
            for cell in ("nnd:absolute", "nnd:ramp", "nnd:signed",
                         "alp:absolute", "alp:ramp")
        ]
        nnd_cells = [("good", "nnd", v) for v in ("absolute", "ramp", "signed")]
        summary = read_rows(tmp_path / "out" / "summary.csv")
        assert [(r["dataset"], r["detector"], r["variant"]) for r in summary] == nnd_cells
        folds = read_rows(tmp_path / "out" / "folds.csv")
        assert [(r["dataset"], r["detector"], r["variant"], r["fold"]) for r in folds] == [
            (*cell, fold) for cell in nnd_cells for fold in ("1", "2", "3", "4", "5", "mean")
        ]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_too_few_normals_fails_only_that_dataset(self, threads, synth_dir, tmp_path,
                                                     monkeypatch, capsys):
        # small has 3 normals for 5 folds: its cells fail, the other file's
        # results are still written.
        monkeypatch.setenv("DIRAD_THREADS", threads)
        lines = (synth_dir / "test.csv").read_text().splitlines()
        normals = [row for row in lines[1:] if row.endswith(",normal")]
        anomalies = [row for row in lines[1:] if row.endswith(",anomalous")]
        small = tmp_path / "small.csv"
        small.write_text("\n".join([lines[0], *normals[:3], *anomalies[:3]]) + "\n")
        out = tmp_path / "out"
        code = run(["bench", "--data", synth_dir / "test.csv", "--data", small,
                    "--schema", synth_dir / "schema.txt", "--detectors", "nnd",
                    "--nnd-variants", "ramp,signed", "--k", "3", "--out-dir", out])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"cell failed: dataset=small detector=nnd:{variant}: need at least 5 "
            f"normal records for 5-fold CV, got 3"
            for variant in ("ramp", "signed")
        ]
        summary = read_rows(out / "summary.csv")
        assert [(r["dataset"], r["variant"]) for r in summary] == [
            ("test", "ramp"), ("test", "signed")]

    def test_one_fold_is_a_usage_error(self, synth_dir, tmp_path, capsys):
        code = run(["bench", "--data", synth_dir / "test.csv",
                    "--schema", synth_dir / "schema.txt", "--folds", "1",
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err == "error: folds must be >= 2, got 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, message", [
        ("--k", "k must be >= 1, got 0"),
        ("--alp-k", "k must be >= 1, got 0"),
        ("--alp-l", "l must be >= 1, got 0"),
    ], ids=["k", "alp-k", "alp-l"])
    def test_zero_neighbours_is_a_usage_error(self, flag, message, synth_dir, tmp_path,
                                              capsys):
        code = run(["bench", "--data", synth_dir / "test.csv",
                    "--schema", synth_dir / "schema.txt", "--detectors", "nnd,alp",
                    flag, "0", "--out-dir", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

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

    def test_undefined_score_fails_only_its_cell(self, tmp_path, capsys):
        # The last anomaly scales to finite values (semi-IQRs 0.40-0.81), but its
        # signed risk overflows to -inf and its adirectional distance to +inf:
        # only nnd:signed fails, naming the row of the fold's test set (20
        # held-out normals, then 11 anomalies).
        assert run(["synth", "--family", "gaussian", "--shift", "1", "--m", "6",
                    "--n-test-normal", "100", "--n-test-anomalous", "10",
                    "--out", tmp_path]) == 0
        schema = tmp_path / "schema.txt"
        schema.write_text("".join(f"x{j},{'high' if j % 2 else 'none'}\n" for j in range(1, 7))
                          + "label,label,anomalous,normal\n")
        data = tmp_path / "data.csv"
        data.write_text((tmp_path / "test.csv").read_text()
                        + "-6e307,6e307,-6e307,6e307,-6e307,6e307,anomalous\n")
        capsys.readouterr()
        out = tmp_path / "out"
        code = run(["bench", "--data", data, "--schema", schema, "--detectors", "nnd",
                    "--nnd-variants", "ramp,signed", "--k", "3", "--out-dir", out])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "cell failed: dataset=data detector=nnd:signed: fold 1/5 of data failed: "
            "query row 31 has an undefined score: its distances overflow"
        ]
        assert [r["variant"] for r in read_rows(out / "summary.csv")] == ["ramp"]

    def test_scaling_overflow_fails_each_fold_cell(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data.csv"
        # 1.7e308 overflows for any semi-IQR below 0.94; every fold's is.
        data.write_text((synth_dir / "test.csv").read_text() + "1.7e308,0,0,anomalous\n")
        code = run(["bench", "--data", data, "--schema", synth_dir / "schema.txt",
                    "--detectors", "nnd", "--nnd-variants", "ramp", "--k", "3",
                    "--out-dir", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "cell failed: dataset=data detector=nnd:ramp: fold 1/5 of data failed: "
            "scaling overflowed on attribute x1"
        ]

    def test_training_scale_overflow_fails_each_fold_cell(self, tmp_path, capsys):
        data, schema = write_wide_training_column(tmp_path, labelled=True)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = run(["bench", "--data", data, "--schema", schema, "--detectors", "nnd",
                        "--nnd-variants", "ramp", "--k", "3", "--out-dir", out])
        assert code == 1
        assert [str(w.message) for w in seen] == []
        assert capsys.readouterr().err.splitlines() == [
            "cell failed: dataset=data detector=nnd:ramp: fold 1/5 of data failed: "
            "scaling overflowed on attribute x1"
        ]
        assert read_rows(out / "summary.csv") == []

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

    @pytest.mark.parametrize("extra", [
        ["--data", "test.csv"], ["--schema", "schema.txt"], ["--folds", "3"],
    ], ids=["data", "schema", "folds"])
    def test_sweep_rejects_cv_flags(self, extra, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(["bench", "--sweep", "gaussian", "--replicates", "2", "--shifts", "0.5",
                 *extra, "--out-dir", tmp_path / "never"])
        assert err.value.code == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert lines == [f"dirad bench: error: {extra[0]} cannot be used with --sweep"]
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("extra", [
        ["--shifts", "0.5"], ["--replicates", "7"], ["--replicates", "0"], ["--no-scale"],
    ], ids=["shifts", "replicates", "replicates-0", "no-scale"])
    def test_cv_rejects_sweep_flags(self, extra, synth_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(["bench", "--data", synth_dir / "test.csv", "--schema",
                 synth_dir / "schema.txt", *extra, "--out-dir", tmp_path / "never"])
        assert err.value.code == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert lines == [
            f"dirad bench: error: {extra[0]} applies only to --sweep, not to --data"]
        assert not (tmp_path / "never").exists()

    def test_unset_folds_and_replicates_default_to_5_and_10(self, synth_dir, tmp_path):
        cv = ["bench", "--data", synth_dir / "test.csv", "--schema", synth_dir / "schema.txt",
              "--detectors", "nnd", "--variants", "ramp", "--k", "3"]
        assert run(cv + ["--out-dir", tmp_path / "a"]) == 0
        assert run(cv + ["--folds", "5", "--out-dir", tmp_path / "b"]) == 0
        assert (tmp_path / "a" / "folds.csv").read_bytes() == (
            tmp_path / "b" / "folds.csv").read_bytes()
        sweep = ["bench", "--sweep", "gaussian", "--shifts", "0.5", "--detectors", "nnd",
                 "--variants", "ramp", "--k", "3"]
        assert run(sweep + ["--out-dir", tmp_path / "c"]) == 0
        assert read_rows(tmp_path / "c" / "sweep.csv")[0]["replicates"] == "10"


class TestScore:
    @pytest.mark.parametrize("schema", ["x1,high\nx2,high\nx3,high\n",
                                        "x1,high\nx2,none\nx3,high\n"])
    @pytest.mark.parametrize("variant", ["absolute", "ramp", "signed"])
    def test_huge_finite_query_scores_one(self, schema, variant, tmp_path, capsys):
        # Scaled by a semi-IQR near 0.67 the row stays finite, but every
        # distance (and the signed risk) overflows to inf, which contracts to
        # its limit 1.0; the overflow is expected and prints nothing.
        assert run(["synth", "--family", "gaussian", "--shift", "1", "--m", "3",
                    "--n-train", "200", "--out", tmp_path]) == 0
        capsys.readouterr()
        (tmp_path / "schema.txt").write_text(schema)
        queries = tmp_path / "huge.csv"
        queries.write_text("x1,x2,x3\n" + ",".join(["1e308"] * 3) + "\n")
        out = tmp_path / "scores.csv"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = run(["score", "--train", tmp_path / "train.csv",
                        "--schema", tmp_path / "schema.txt", "--detector", "nnd",
                        "--variant", variant, "--queries", queries, "--out", out])
        assert code == 0
        assert [str(w.message) for w in seen] == []
        assert capsys.readouterr().err == ""
        assert out.read_text() == "row,score\n1,1.0\n"

    def test_huge_signed_training_row_fits_silently(self, tmp_path, capsys):
        # Scaled by a semi-IQR near 0.2, the first row's six 1e307s sum past
        # the float range: the top of the signed risk is inf, and a finite
        # query's risk takes the limit score 0.0.
        rows = np.round(np.random.default_rng(0).standard_normal((60, 6)) * 0.3, 3)
        rows[0] = 1e307
        header = ",".join(f"x{j}" for j in range(6))
        train = tmp_path / "train.csv"
        train.write_text("\n".join([header, *(",".join(map(repr, r.tolist())) for r in rows)])
                         + "\n")
        (tmp_path / "schema.txt").write_text("".join(f"x{j},high\n" for j in range(6)))
        queries = tmp_path / "queries.csv"
        queries.write_text(header + "\n" + ",".join(["0.5"] * 6) + "\n")
        out = tmp_path / "scores.csv"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = run(["score", "--train", train, "--schema", tmp_path / "schema.txt",
                        "--variant", "signed", "--k", "3", "--queries", queries,
                        "--out", out])
        assert code == 0
        assert [str(w.message) for w in seen] == []
        assert out.read_text() == "row,score\n1,0.0\n"

    @pytest.mark.parametrize("role", ["data", "train", "queries"])
    @pytest.mark.parametrize("cell", ["inf", "nan", "1e309"])
    def test_non_finite_cell_is_named(self, role, cell, synth_dir, tmp_path, capsys):
        lines = (synth_dir / ("train.csv" if role == "train" else "test.csv")).read_text()
        lines = lines.splitlines()
        row = lines[2].split(",")
        row[lines[0].split(",").index("x2")] = cell
        lines[2] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        schema = synth_dir / "schema.txt"
        if role == "data":
            argv = ["bench", "--data", bad, "--schema", schema, "--out-dir", tmp_path / "out"]
        else:
            files = {"train": synth_dir / "train.csv", "queries": synth_dir / "test.csv",
                     role: bad}
            argv = ["score", "--train", files["train"], "--schema", schema,
                    "--queries", files["queries"], "--out", tmp_path / "scores.csv"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: row 2, column 'x2': {cell!r} is not a finite number\n")

    @pytest.mark.parametrize("detector, variant", [
        ("nnd", "ramp"), ("nnd", "absolute"), ("alp", "ramp"),
    ])
    def test_scores_do_not_depend_on_the_blas_core_type(self, detector, variant, tmp_path):
        # No score goes through BLAS, so OpenBLAS's SSE3 kernels (Prescott),
        # which any x86-64 CPU can run, give the bytes of the default ones. A
        # BLAS that ignores the variable passes trivially.
        assert run(["synth", "--family", "gaussian", "--a", "0.5", "--seed", "7",
                    "--n-train", "200", "--n-test-normal", "100",
                    "--n-test-anomalous", "100", "--out", tmp_path]) == 0
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        src = str(Path(dirad.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        written = []
        for core in (None, "Prescott"):
            out = tmp_path / f"scores-{core}.csv"
            subprocess.run(
                [sys.executable, "-m", "dirad.cli", "score", "--train", tmp_path / "train.csv",
                 "--schema", tmp_path / "schema.txt", "--detector", detector,
                 "--variant", variant, "--queries", tmp_path / "test.csv", "--out", out],
                env=env if core is None else {**env, "OPENBLAS_CORETYPE": core},
                capture_output=True, timeout=120, check=True,
            )
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_scaling_overflow_names_its_attribute(self, synth_dir, tmp_path, capsys):
        # x1's semi-IQR is below 1, so 1e308 scales past the float range.
        queries = tmp_path / "huge.csv"
        queries.write_text("x1,x2,x3\n" + ",".join(["1e308"] * 3) + "\n")
        out = tmp_path / "scores.csv"
        code = run(["score", "--train", synth_dir / "train.csv",
                    "--schema", synth_dir / "schema.txt",
                    "--queries", queries, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {queries}: scaling overflowed on attribute x1\n")
        assert not out.exists()

    def test_training_scale_overflow_names_its_attribute(self, tmp_path, capsys):
        train, schema = write_wide_training_column(tmp_path, labelled=False)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1,x2\n0.5,0.5\n")
        out = tmp_path / "scores.csv"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = run(["score", "--train", train, "--schema", schema, "--detector", "nnd",
                        "--variant", "ramp", "--k", "3", "--queries", queries, "--out", out])
        assert code == 1
        assert [str(w.message) for w in seen] == []
        assert capsys.readouterr().err == (
            f"error: {train}: scaling overflowed on attribute x1\n")
        assert not out.exists()

    def test_undefined_score_is_one_error_naming_its_row(self, tmp_path, capsys):
        # Row 2's signed risk overflows to -inf and its adirectional distance
        # to +inf; their sum has no limit, so no scores file is written.
        assert run(["synth", "--family", "gaussian", "--shift", "1", "--m", "4",
                    "--n-train", "200", "--out", tmp_path]) == 0
        capsys.readouterr()
        (tmp_path / "schema.txt").write_text("x1,high\nx2,none\nx3,high\nx4,none\n")
        queries = tmp_path / "q.csv"
        queries.write_text("x1,x2,x3,x4\n0,0,0,0\n-1e308,1e308,-1e308,1e308\n")
        out = tmp_path / "scores.csv"
        code = run(["score", "--train", tmp_path / "train.csv",
                    "--schema", tmp_path / "schema.txt", "--detector", "nnd",
                    "--variant", "signed", "--queries", queries, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {queries}: query row 2 has an undefined score: its distances overflow\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("train, variant, query, expected", [
        # The huge training row's self-NN distances overflow, and under ramp
        # it lies at distance 0 from every query: D = inf, d finite, lp = 1.
        ("huge", "ramp", "0.1,0.2,-0.3", "row,score\n1,0.0\n"),
        # A huge query: d = inf against a finite D, lp = 0.
        ("train", "absolute", "1e308,1e308,1e308", "row,score\n1,1.0\n"),
        ("train", "ramp", "1e308,1e308,1e308", "row,score\n1,1.0\n"),
        # The huge query on the huge row: d_1 = 0 beside D_1 = inf, but
        # d_i = D_i = inf further out, which has no limit.
        ("huge", "absolute", "1e308,1e308,1e308", None),
    ])
    def test_alp_infinite_distances_take_their_limits(self, train, variant, query,
                                                      expected, tmp_path, capsys):
        assert run(["synth", "--family", "gaussian", "--shift", "1", "--m", "3",
                    "--n-train", "200", "--out", tmp_path]) == 0
        capsys.readouterr()
        plain = (tmp_path / "train.csv").read_text()
        (tmp_path / "huge.csv").write_text(plain + "1e308,1e308,1e308\n")
        queries = tmp_path / "q.csv"
        queries.write_text(f"x1,x2,x3\n{query}\n")
        out = tmp_path / "scores.csv"
        code = run(["score", "--train", tmp_path / f"{train}.csv",
                    "--schema", tmp_path / "schema.txt", "--detector", "alp",
                    "--variant", variant, "--queries", queries, "--out", out])
        err = capsys.readouterr().err
        if expected is None:
            assert code == 1 and not out.exists()
            assert err == (f"error: {queries}: query row 1 has an undefined score: "
                           "its distances overflow\n")
        else:
            assert code == 0 and err == ""
            assert out.read_text() == expected

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

    def test_blank_query_file_writes_the_header_only(self, synth_dir, tmp_path, capsys):
        # A byte-order mark and blank lines hold no records either.
        blank = tmp_path / "blank.csv"
        blank.write_text("\ufeff\n  \n", encoding="utf-8")
        out = tmp_path / "scores.csv"
        assert run(["score", "--train", synth_dir / "train.csv",
                    "--schema", synth_dir / "schema.txt",
                    "--queries", blank, "--out", out]) == 0
        assert out.read_bytes() == b"row,score\n"
        assert capsys.readouterr().out.endswith(f"wrote 0 scores to {out}\n")

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

    def test_save_model_searches_the_full_table_once(self, synth_dir, tmp_path,
                                                      monkeypatch):
        # Saving an ALP model searches its full self-kNN table once, and the
        # scores that follow gather from it; scoring without saving searches
        # only the gathered rows, and both write the same bytes.
        calls, real = [], alp.self_knn_batch

        def spy(train, k, spec, **given):
            calls.append(given.get("rows"))
            return real(train, k, spec, **given)

        monkeypatch.setattr(alp, "self_knn_batch", spy)
        fit = ["score", "--train", synth_dir / "train.csv",
               "--schema", synth_dir / "schema.txt", "--detector", "alp",
               "--variant", "ramp", "--queries", synth_dir / "test.csv"]
        saved, unsaved = tmp_path / "saved.csv", tmp_path / "unsaved.csv"
        assert run(fit + ["--save-model", tmp_path / "m.npz", "--out", saved]) == 0
        assert calls == [None]
        calls.clear()
        assert run(fit + ["--out", unsaved]) == 0
        assert len(calls) == 1 and calls[0] is not None
        assert saved.read_bytes() == unsaved.read_bytes()

    # The committed bundle's schema is risk,high / safety,low / size,none.
    @pytest.mark.parametrize("attributes, message", [
        ("risk,low\nsafety,low\nsize,none\n",
         "attribute 'risk' is low here but high in the model bundle"),
        ("risk,high\nsafety,low\nmass,none\n",
         "attribute 'mass' is not in the model bundle"),
        ("safety,low\nrisk,high\n",
         "attribute 'size' of the model bundle is missing"),
    ], ids=["direction", "name", "count"])
    def test_schema_contradicting_the_bundle_is_rejected(self, attributes, message,
                                                         tmp_path, capsys):
        schema = tmp_path / "s.txt"
        schema.write_text(attributes + "label,status,anomalous\n")
        out = tmp_path / "b.csv"
        assert run(["score", "--model", DATA / "nnd-ramp.npz", "--schema", schema,
                    "--queries", DATA / "queries.csv", "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {schema}: {message}"]
        assert not out.exists()

    def test_schema_matching_the_bundle_in_another_order(self, tmp_path):
        schema = tmp_path / "s.txt"
        schema.write_text("size,none\nrisk,high\nsafety,low\nlabel,status,anomalous\n")
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out, extra in ((out1, ["--schema", schema]), (out2, [])):
            assert run(["score", "--model", DATA / "nnd-ramp.npz", *extra,
                        "--queries", DATA / "queries.csv", "--out", out]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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

    @pytest.mark.parametrize("extra, config", [
        (["--train", "data/train.csv"], None),
        (["--save-model", "other.npz"], None),
        (["--config", "save.cfg"], "save_model=other.npz\n"),
    ], ids=["train", "save-model", "config-save-model"])
    def test_model_rejects_fit_flags(self, synth_dir, tmp_path, monkeypatch,
                                     capsys, extra, config):
        monkeypatch.chdir(tmp_path)
        assert run(["score", "--train", "data/train.csv", "--schema", "data/schema.txt",
                    "--save-model", "model.npz", "--queries", "data/test.csv",
                    "--out", "s1.csv"]) == 0
        if config is not None:
            (tmp_path / "save.cfg").write_text(config)
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            run(["score", "--model", "model.npz", *extra,
                 "--queries", "data/test.csv", "--out", "s2.csv"])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: --train and --save-model cannot be used with --model"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("extra, config", [
        (["--detector", "alp"], None),
        (["--variant", "signed"], None),
        (["--k", "3"], None),
        (["--alp-k", "auto"], None),
        (["--alp-l", "5"], None),
        (["--config", "fit.cfg"], "detector=alp\n"),
    ], ids=["detector", "variant", "k", "alp-k", "alp-l", "config-detector"])
    def test_model_rejects_detector_flags(self, synth_dir, tmp_path, monkeypatch,
                                          capsys, extra, config):
        monkeypatch.chdir(tmp_path)
        assert run(["score", "--train", "data/train.csv", "--schema", "data/schema.txt",
                    "--save-model", "model.npz", "--queries", "data/test.csv",
                    "--out", "s1.csv"]) == 0
        if config is not None:
            (tmp_path / "fit.cfg").write_text(config)
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            run(["score", "--model", "model.npz", *extra,
                 "--queries", "data/test.csv", "--out", "s2.csv"])
        assert err.value.code == 2
        flag = extra[0] if config is None else "--detector"
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"dirad score: error: {flag} cannot be used with --model: "
            f"the bundle fixes the detector")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_usage_error_prints_the_commands_usage(self, synth_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(["score", "--queries", synth_dir / "test.csv", "--out", tmp_path / "s.csv"])
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: dirad score [-h]")
        assert lines[-1] == ("dirad score: error: --train and --schema are required "
                             "when --model is not given")
        assert not (tmp_path / "s.csv").exists()

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

    def test_labelled_train_file_fits_on_normal_rows_only(self, tmp_path):
        # The anomalies sit among the queries, so a fit that took them in
        # would give those queries near-zero distances and move the scaler.
        (tmp_path / "schema.txt").write_text("x,high\ny,none\nlabel,label,anomalous,normal\n")
        rng = np.random.default_rng(8)
        normal = [f"{a},{b},normal" for a, b in rng.standard_normal((30, 2)).tolist()]
        anomalous = [f"{4.0 + a},{b},anomalous"
                     for a, b in rng.standard_normal((6, 2)).tolist()]
        files = {
            "mixed.csv": ["x,y,label", *normal[:15], *anomalous, *normal[15:]],
            "normal.csv": ["x,y,label", *normal],
            "all_normal.csv": ["x,y,label", *normal[:15],
                               *(row.replace("anomalous", "normal") for row in anomalous),
                               *normal[15:]],
        }
        for name, lines in files.items():
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        scores = {}
        for name in files:
            out = tmp_path / f"scores_{name}"
            assert run(["score", "--train", tmp_path / name,
                        "--schema", tmp_path / "schema.txt", "--k", "2",
                        "--queries", tmp_path / "mixed.csv", "--out", out]) == 0
            scores[name] = out.read_bytes()
        assert scores["mixed.csv"] == scores["normal.csv"] != scores["all_normal.csv"]

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

    @settings(max_examples=60, deadline=None)
    @given(table=st.dictionaries(
        st.tuples(*[st.text(st.characters(blacklist_categories=("Cs", "Cc"))
                            | st.sampled_from(',"\r\n'), max_size=6)] * 3),
        st.floats(allow_nan=False, allow_infinity=False), max_size=6,
    ))
    def test_summary_round_trips_through_the_stats_reader(self, table):
        # Ids and variant names with commas, quotes, line breaks, spaces and
        # non-ASCII text come back as the same keys; each float as the same repr.
        results = [evaluation.ExperimentResult(ds, det, var, (auc,), auc)
                   for (ds, det, var), auc in table.items()]
        expected: dict = {}
        for (ds, det, var), auc in table.items():
            expected.setdefault((det, var), {})[ds] = repr(auc)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "summary.csv"
            path.write_text(evaluation.summary_csv(results), encoding="utf-8")
            got = cli._read_summary([path])
        assert {key: {ds: repr(v) for ds, v in column.items()}
                for key, column in got.items()} == expected

    def test_bench_ids_with_commas_and_quotes_reach_stats(self, tmp_path, monkeypatch):
        # A dataset id is its file stem, written as a quoted field where needed.
        monkeypatch.chdir(tmp_path)
        stems = ["a,b", 'say "hi"', "naïve set", "plain", "e, f"]
        for seed, stem in enumerate(stems):
            assert run(["synth", "--family", "gaussian", "--a", "0.3", "--seed", seed,
                        "--n-train", "30", "--n-test-normal", "15",
                        "--n-test-anomalous", "15", "--m", "3", "--out", "gen"]) == 0
            Path("gen/test.csv").rename(f"{stem}.csv")
        data = [arg for stem in stems for arg in ("--data", f"{stem}.csv")]
        assert run(["bench", *data, "--schema", "gen/schema.txt",
                    "--variants", "ramp,absolute", "--out-dir", "out"]) == 0
        assert {r["dataset"] for r in read_rows("out/summary.csv")} == set(stems)
        assert {r["dataset"] for r in read_rows("out/folds.csv")} == set(stems)
        assert run(["stats", "--results", "out/summary.csv",
                    "--compare", "ramp:absolute", "--out", "report.csv"]) == 0
        assert read_rows("report.csv")[0]["n"] == "5"

    def test_leading_bom_is_ignored(self, table3_summary, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_text("\ufeff" + table3_summary.read_text(), encoding="utf-8")
        reports = [tmp_path / "plain.csv", tmp_path / "bom_report.csv"]
        for results, report in zip((table3_summary, bom), reports):
            assert run(["stats", "--results", results, "--compare", "ramp:absolute",
                        "--holm", "--out", report]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    @pytest.mark.parametrize("split", [False, True], ids=["one-file", "two-files"])
    def test_repeated_row_is_rejected(self, split, tmp_path, capsys):
        # A repeat must not silently replace the row read first.
        header = "dataset,detector,variant,mean_auroc"
        rows = [f"d{i},nnd,{v},{0.5 + 0.05 * i + (0.02 if v == 'ramp' else 0.0)}"
                for i in range(1, 7) for v in ("absolute", "ramp")]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        if split:
            first.write_text("\n".join([header, *rows]) + "\n")
            second.write_text(f"{header}\nd1,nnd,ramp,0.1\n")
            results = ["--results", first, "--results", second]
            repeat = f"{second}: line 2"
        else:
            first.write_text("\n".join([header, *rows, "d1,nnd,ramp,0.1"]) + "\n")
            results = ["--results", first]
            repeat = f"{first}: line 14"
        out = tmp_path / "report.csv"
        assert run(["stats", *results, "--compare", "ramp:absolute", "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {repeat}: detector=nnd variant=ramp dataset=d1 repeats "
            f"{first}: line 3"
        ]
        assert not out.exists()


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

    @pytest.mark.parametrize("csv_text, rows", [
        # A mean wider than 12 characters in fixed point takes exponent form.
        ("u,a,y\n0.1,1e308,normal\n0.2,0,normal\n0.9,-1e308,anomalous\n0.8,0,anomalous\n",
         ["u                          0.1500       0.8500       0.7000  no",
          "a                     5.0000e+307 -5.0000e+307 -1.0000e+308  yes"]),
        # Two normal rows at 1e308 sum past the float range; their mean does not.
        ("a,y\n1e308,normal\n1e308,normal\n0,anomalous\n",
         ["a                     1.0000e+308       0.0000 -1.0000e+308  yes"]),
    ], ids=["wide-mean", "overflowing-sum"])
    def test_rows_line_up_with_the_header(self, csv_text, rows, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text(csv_text)
        schema = tmp_path / "s.txt"
        names = csv_text.split("\n")[0].split(",")[:-1]
        schema.write_text("".join(f"{name},high\n" for name in names)
                          + "label,y,anomalous,normal\n")
        assert run(["diagnose", "--data", data, "--schema", schema]) == 0
        assert capsys.readouterr().out.splitlines()[: len(rows) + 1] == [
            "attribute             normal_mean    anom_mean   difference  flagged", *rows]

    def test_attribute_declared_twice_names_the_schema(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("u,y\n0.1,normal\n0.9,anomalous\n")
        schema = tmp_path / "s.txt"
        schema.write_text("u,high\nu,low\nlabel,y,anomalous,normal\n")
        assert run(["diagnose", "--data", data, "--schema", schema]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {schema}: line 2: attribute 'u' is declared twice"
        ]

    @pytest.mark.parametrize("spelling", [["--tau", "-1e-3"], ["--config", "tau.cfg"]],
                             ids=["two-tokens", "config"])
    def test_negative_exponent_tau_matches_equals_spelling(self, spelling, tmp_path,
                                                           monkeypatch, capsys):
        # argparse alone reads -1e-3 as an option: "expected one argument".
        monkeypatch.chdir(tmp_path)
        Path("d.csv").write_text("u,y\n0.1,normal\n0.9,anomalous\n0.5,anomalous\n")
        Path("s.txt").write_text("u,high\nlabel,y,anomalous,normal\n")
        Path("tau.cfg").write_text("tau=-1e-3\n")
        diagnose = ["diagnose", "--data", "d.csv", "--schema", "s.txt"]
        assert run([*diagnose, "--tau=-1e-3"]) == 0
        expected = capsys.readouterr()
        assert run([*diagnose, *spelling]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_non_finite_tau_is_one_error(self, tau, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("u,y\n0.1,normal\n0.9,anomalous\n")
        schema = tmp_path / "s.txt"
        schema.write_text("u,high\nlabel,y,anomalous,normal\n")
        assert run(["diagnose", "--data", data, "--schema", schema, f"--tau={tau}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: tau must be a finite number, got {float(tau)!r}"
        ]

    def test_minus_inf_as_two_tokens_is_one_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("u,y\n0.1,normal\n0.9,anomalous\n")
        schema = tmp_path / "s.txt"
        schema.write_text("u,high\nlabel,y,anomalous,normal\n")
        assert run(["diagnose", "--data", data, "--schema", schema, "--tau", "-inf"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: tau must be a finite number, got -inf"
        ]


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

    def test_blank_comment_and_boolean_lines(self, table3_summary, tmp_path):
        # holm=true adds the flag and no_scale=false adds nothing: each run
        # matches the same command line without the file.
        cfg = tmp_path / "stats.cfg"
        cfg.write_text("# defaults\n\n   \nholm=true\nno_scale=false\n")
        reports = [tmp_path / "by_config.csv", tmp_path / "by_flag.csv"]
        assert run(["stats", "--config", cfg, "--results", table3_summary,
                    "--compare", "ramp:absolute", "--out", reports[0]]) == 0
        assert run(["stats", "--holm", "--results", table3_summary,
                    "--compare", "ramp:absolute", "--out", reports[1]]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        assert read_rows(reports[0])[0]["holm_p"] != ""
        sweep = ["bench", "--sweep", "gaussian", "--shifts", "0.5",
                 "--replicates", "1", "--variants", "ramp"]
        outs = [tmp_path / "sweep_config", tmp_path / "sweep_flags"]
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("no_scale=false\n# k for NND\nk=2\n")
        assert run([*sweep, "--config", cfg, "--out-dir", outs[0]]) == 0
        assert run([*sweep, "--k", "2", "--out-dir", outs[1]]) == 0
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()

    def test_line_without_equals_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# ok\nseed=3\noops\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "x"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}:3: expected key=value, got 'oops'"
        ]
        assert not (tmp_path / "x").exists()

    def test_empty_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("seed=3\n=5\n")
        assert run(["synth", "--config", cfg, "--family", "gaussian", "--a", "0.5",
                    "--out", tmp_path / "z"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}:2: expected key=value, got '=5'"
        ]
        assert not (tmp_path / "z").exists()

    def test_leading_bom_is_ignored(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("\ufeffseed=5\nn_train=30\n", encoding="utf-8")
        synth = ["synth", "--family", "gaussian", "--a", "0.4"]
        outs = [tmp_path / "by_config", tmp_path / "by_flags"]
        assert run([*synth, "--config", cfg, "--out", outs[0]]) == 0
        assert run([*synth, "--seed", "5", "--n-train", "30", "--out", outs[1]]) == 0
        assert (outs[0] / "train.csv").read_bytes() == (outs[1] / "train.csv").read_bytes()

    def test_trailing_config_without_path(self, tmp_path, capsys):
        assert run(["synth", "--out", tmp_path / "x", "--config"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --config expects a file path"
        ]


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


@pytest.mark.parametrize("argv", [
    ["bench", "--data", "good.csv", "--data", "bad.csv", "--schema", "schema.txt",
     "--out-dir", "x"],
    ["bench", "--data", "good.csv", "--schema", "bad.txt", "--out-dir", "x"],
    ["score", "--train", "bad.csv", "--schema", "schema.txt",
     "--queries", "good.csv", "--out", "x"],
    ["score", "--train", "train.csv", "--schema", "schema.txt", "--k", "1",
     "--queries", "bad.csv", "--out", "x"],
    ["diagnose", "--data", "bad.csv", "--schema", "schema.txt"],
    ["synth", "--config", "bad.cfg", "--out", "x"],
    ["stats", "--results", "summary.csv", "--results", "bad.csv",
     "--compare", "ramp:absolute", "--out", "x"],
], ids=["data", "schema", "train", "queries", "diagnose-data", "config", "results"])
def test_undecodable_file_is_named(argv, tmp_path, monkeypatch, capsys):
    # Each bad file is valid but for one byte that is not UTF-8.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "schema.txt").write_text("x,high\nlabel,label,anomalous,normal\n")
    (tmp_path / "train.csv").write_text("x\n1\n2\n")
    (tmp_path / "good.csv").write_text("x,label\n1,normal\n2,anomalous\n")
    (tmp_path / "summary.csv").write_text(
        "detector,variant,dataset,mean_auroc\nnnd,ramp,d,0.9\nnnd,absolute,d,0.8\n"
    )
    (tmp_path / "bad.csv").write_bytes(b"x,label\n1,normal\n2,anomalous\xff\n")
    (tmp_path / "bad.txt").write_bytes(b"x,high\nlabel,label,anomalous\xff,normal\n")
    (tmp_path / "bad.cfg").write_bytes(b"family=gaussian\nshift=0.5\xff\n")
    bad = next(arg for arg in argv if arg.startswith("bad."))
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["score", "bench", "diagnose"])
def test_schema_with_leading_bom_reads_as_without(command, synth_dir, tmp_path, capsys):
    plain = synth_dir / "schema.txt"
    bom = tmp_path / "bom.txt"
    bom.write_text("\ufeff" + plain.read_text(), encoding="utf-8")
    seen = []
    for schema, out in ((plain, tmp_path / "plain"), (bom, tmp_path / "bom")):
        argv = {
            "score": ["score", "--train", synth_dir / "train.csv", "--schema", schema,
                      "--queries", synth_dir / "test.csv", "--out", out / "scores.csv"],
            "bench": ["bench", "--data", synth_dir / "test.csv", "--schema", schema,
                      "--folds", "3", "--out-dir", out],
            "diagnose": ["diagnose", "--data", synth_dir / "test.csv", "--schema", schema],
        }[command]
        assert run(argv) == 0
        files = sorted((f.name, f.read_bytes()) for f in out.glob("*")) if out.exists() else []
        seen.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
    assert seen[0] == seen[1]


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


CV_ARGS = ["--data", "x.csv", "--schema", "schema.txt"]
SWEEP_ARGS = ["--sweep", "gaussian", "--replicates", "1"]


@pytest.mark.parametrize("flags, message", [
    # Each would write every row twice, or only a header, and exit 0.
    ([*SWEEP_ARGS, "--shifts", "0.5,0.5"], "--shifts selects 0.5 twice"),
    ([*SWEEP_ARGS, "--shifts", "0.5,.5"], "--shifts selects 0.5 twice"),
    ([*SWEEP_ARGS, "--shifts", ","], "--shifts selects nothing"),
    ([*SWEEP_ARGS, "--shifts", ""], "--shifts selects nothing"),
    ([*SWEEP_ARGS, "--detectors", ""], "--detectors selects nothing"),
    ([*CV_ARGS, "--detectors", ""], "--detectors selects nothing"),
    ([*CV_ARGS, "--detectors", "alp,nnd,alp"], "--detectors selects 'alp' twice"),
    ([*CV_ARGS, "--variants", "ramp,ramp"], "--variants selects 'ramp' twice"),
    ([*CV_ARGS, "--detectors", "nnd,alp", "--alp-variants", ","],
     "--alp-variants selects nothing"),
    # Exited 1, but said only "could not convert string to float: 'x'".
    ([*SWEEP_ARGS, "--shifts", "0.5, x"], "--shifts: 'x' is not a number"),
], ids=["shift-twice", "shift-twice-spelt-apart", "comma-shifts", "empty-shifts",
        "no-sweep-detector", "no-cv-detector", "detector-twice", "variant-twice",
        "no-alp-variant", "non-numeric-shift"])
def test_empty_or_repeated_selection_is_rejected(
    flags, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "schema.txt").write_text("x,high\nlabel,label,anomalous,normal\n")
    (tmp_path / "x.csv").write_text("x,label\n1,normal\n2,anomalous\n")
    assert run(["bench", *flags, "--out-dir", "out"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_selection_for_an_unselected_detector_is_not_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["bench", *SWEEP_ARGS, "--shifts", "0.5", "--detectors", "nnd",
                "--nnd-variants", "ramp", "--alp-variants", "", "--out-dir", "out"]) == 0
    assert len(read_rows("out/sweep.csv")) == 1


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
