"""End-to-end tests for the command-line runner: exit codes, CSV outputs,
byte-determinism and chart rendering."""

import math
import subprocess
import sys

import numpy as np

from gn_lens import Spectrum, pseudo_condition_number
from gn_lens.cli import main


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


ANALYZE_CFG = """
experiment = basic
data = synthetic
d = 4
n = 50
kind = linear_deep
k = 2
m = 6
L = 3
seeds = 0
"""


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 4

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, "bad.cfg", "bad_key = 3\n")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_duplicate_key(self, tmp_path):
        cfg = write_config(tmp_path, "dup.cfg", "d = 3\nd = 4\n")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_malformed_line(self, tmp_path):
        cfg = write_config(tmp_path, "line.cfg", "just words\n")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_error_message_carries_line_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.cfg", "d = 3\nbad_key = 1\n")
        main(["analyze", "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err and "bad_key" in err

    def test_numeric_failure(self, tmp_path):
        # A zero covariance leaves every GN eigenvalue at the rank cutoff.
        cfg = write_config(tmp_path, "zero.cfg", ANALYZE_CFG.replace(
            "seeds = 0", "seeds = 0\ncov_spectrum = 0,0,0,0"))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, "ok.cfg", ANALYZE_CFG)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_gn_over_the_cap_is_refused_before_allocation(self, tmp_path,
                                                          capsys):
        # kd = 1.2e6: a dense GN would need 10.5 TiB.
        cfg = write_config(tmp_path, "big.cfg", "data = synthetic\nd = 2000\n"
                           "n = 8\nkind = linear_deep\nk = 600\nm = 4\nL = 2\n"
                           "seeds = 0\n")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "1200000x1200000" in err and "exceeds the cap 10000" in err
        assert "Traceback" not in err

    def test_out_of_memory(self, tmp_path, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 800. MiB")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_memory)
        cfg = write_config(tmp_path, "ok.cfg", ANALYZE_CFG)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "not enough memory" in err and "800. MiB" in err
        assert "Traceback" not in err


class TestAnalyze:
    def test_identity_network_on_white_data(self, tmp_path):
        # Two orthogonal samples scaled so the second moment is exactly I;
        # a single identity-size layer then has a perfectly conditioned GN.
        r = math.sqrt(2.0)
        data = tmp_path / "white.csv"
        data.write_text(f"{r!r},0.0\n0.0,{r!r}\n")
        cfg = write_config(tmp_path, "id.cfg", f"""
data = csv
data_path = {data}
kind = linear_deep
dims = 2,1
""")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = read_table(tmp_path / "analysis.csv")[0]
        assert float(row["kappa"]) == 1.0
        assert row["wall_ms"] == ""

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "a.cfg", ANALYZE_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["analyze", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["analyze", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "analysis.csv").read_bytes() == \
            (out2 / "analysis.csv").read_bytes()
        assert (out1 / "terms.csv").read_bytes() == \
            (out2 / "terms.csv").read_bytes()

    def test_spectrum_dump_reproduces_kappa(self, tmp_path):
        cfg = write_config(tmp_path, "a.cfg", ANALYZE_CFG)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path),
                     "--spectrum"]) == 0
        kappa = float(read_table(tmp_path / "analysis.csv")[0]["kappa"])
        values = [float(r["eigenvalue"])
                  for r in read_table(tmp_path / "spectrum.csv")]
        recomputed = pseudo_condition_number(Spectrum.from_values(values))
        assert abs(recomputed - kappa) < 1e-12 * kappa
        sens = read_table(tmp_path / "rank_sensitivity.csv")
        assert float(sens[0]["kappa"]) == 1.0

    def test_seed_override_changes_seed_column(self, tmp_path):
        cfg = write_config(tmp_path, "a.cfg", ANALYZE_CFG)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path),
                     "--seed-override", "77"]) == 0
        assert read_table(tmp_path / "analysis.csv")[0]["seed"] == "77"


SWEEP_CFG = """
experiment = depth
data = synthetic
d = 4
n = 60
kind = linear_deep
k = 2
m = 6
axis = L
values = 1,2,3
seeds = 0,1
"""


class TestSweep:
    def test_row_grid_and_order(self, tmp_path):
        cfg = write_config(tmp_path, "s.cfg", SWEEP_CFG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_table(tmp_path / "sweep.csv")
        assert [(r["L"], r["seed"]) for r in rows] == [
            ("1", "0"), ("1", "1"), ("2", "0"), ("2", "1"),
            ("3", "0"), ("3", "1")]

    def test_reruns_byte_identical_with_parallelism(self, tmp_path):
        cfg = write_config(tmp_path, "s.cfg", SWEEP_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep", "--config", cfg, "--out", str(out1),
                     "--jobs", "4"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2),
                     "--jobs", "1"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == \
            (out2 / "sweep.csv").read_bytes()

    def test_partial_failure_logs_and_succeeds(self, tmp_path):
        cfg = write_config(tmp_path, "s.cfg",
                           SWEEP_CFG.replace("values = 1,2,3", "values = 0,2"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_table(tmp_path / "sweep.csv")
        assert {r["L"] for r in rows} == {"2"}
        log = (tmp_path / "errors.log").read_text()
        assert "L=0" in log

    def test_all_cells_failing_is_numeric_error(self, tmp_path):
        cfg = write_config(tmp_path, "s.cfg",
                           SWEEP_CFG.replace("values = 1,2,3", "values = 0"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_bad_axis(self, tmp_path):
        cfg = write_config(tmp_path, "s.cfg",
                           SWEEP_CFG.replace("axis = L", "axis = d"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_svg_rendered(self, tmp_path):
        cfg = write_config(tmp_path, "s.cfg", SWEEP_CFG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--svg"]) == 0
        svg = (tmp_path / "sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


TRAIN_CFG = """
experiment = fit
data = synthetic
d = 3
n = 20
kind = linear_deep
k = 2
m = 5
L = 2
seeds = 0
lr = 0.05
epochs = 5
"""


class TestTrain:
    def test_trace_rows_per_epoch(self, tmp_path):
        cfg = write_config(tmp_path, "t.cfg", TRAIN_CFG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_table(tmp_path / "trace.csv")
        assert [r["epoch"] for r in rows] == ["0", "1", "2", "3", "4", "5"]
        losses_proxy = [float(r["kappa"]) for r in rows]
        assert all(np.isfinite(losses_proxy))

    def test_zero_epochs_single_row(self, tmp_path):
        cfg = write_config(tmp_path, "t.cfg",
                           TRAIN_CFG.replace("epochs = 5", "epochs = 0"))
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_table(tmp_path / "trace.csv")
        assert len(rows) == 1 and rows[0]["epoch"] == "0"

    def test_svg_traces_rendered(self, tmp_path):
        cfg = write_config(tmp_path, "t.cfg", TRAIN_CFG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path),
                     "--svg"]) == 0
        assert (tmp_path / "trace_loss.svg").exists()
        assert (tmp_path / "trace_kappa.svg").exists()

    def test_leaky_bound_lands_in_other_column(self, tmp_path):
        cfg = write_config(tmp_path, "t.cfg", """
data = synthetic
d = 6
n = 4
kind = leaky_one_hidden
k = 2
m = 8
alpha = 0.1
seeds = 0
lr = 0.01
epochs = 2
""")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_table(tmp_path / "trace.csv")
        for r in rows:
            assert r["bound_convex"] == ""
            assert float(r["bound_other"]) >= float(r["kappa"]) * (1 - 1e-10)


class TestPrune:
    def test_rows_cover_fraction_grid(self, tmp_path):
        cfg = write_config(tmp_path, "p.cfg", TRAIN_CFG + "fractions = 0,0.5\n")
        assert main(["prune", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_table(tmp_path / "prune.csv")
        cells = {(r["fraction"], r["epoch"]) for r in rows}
        assert cells == {("0.0", "0"), ("0.0", "5"),
                         ("0.5", "0"), ("0.5", "5")}


class TestWhiten:
    def test_report_and_output_data(self, tmp_path):
        cfg = write_config(tmp_path, "w.cfg", """
data = synthetic
d = 5
n = 200
cov_spectrum = logspace:2,-2
data_seed = 3
""")
        assert main(["whiten", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = read_table(tmp_path / "whiten.csv")[0]
        assert float(report["kappa_before"]) > 100
        assert float(report["kappa_after"]) <= 1 + 1e-6
        from gn_lens import empirical_covariance, load_csv
        white = load_csv(tmp_path / "whitened.csv")
        cov = empirical_covariance(white)
        assert np.allclose(cov, np.eye(5), atol=1e-8)


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, "a.cfg", ANALYZE_CFG)
        proc = subprocess.run(
            [sys.executable, "-m", "gn_lens.cli", "analyze", "--config", cfg,
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "analysis.csv").exists()
