"""Each command accepts only the flags it reads; `init_sigma` is read only by
`init = gaussian`, and `data_seed` on `data = idx` only with `limit > 0`, so
elsewhere each is refused before any data. `seeds` is checked under
`--seed-override` too, and a prune grid evaluates each checkpoint once."""

import struct

import numpy as np
import pytest

from gn_lens import (Dataset, NetworkSpec, TrainConfig, cli,
                     synthesize_gaussian, trainer)
from gn_lens.cli import main
from gn_lens.trainer import TrainTrace, pruning_experiment

SMALL = {"data": "synthetic", "d": "6", "n": "32", "seeds": "0,1"}
DEEP = {**SMALL, "kind": "linear_deep", "k": "2", "m": "8", "L": "3"}
TRAIN = {"lr": "0.01", "epochs": "2", "batch_size": "8"}
CONFIGS = {
    "analyze": DEEP,
    "sweep": {**SMALL, "kind": "linear_deep", "k": "2", "m": "8",
              "axis": "L", "values": "2,3"},
    "train": {**DEEP, **TRAIN},
    "prune": {**DEEP, **TRAIN, "fractions": "0,0.5"},
    "whiten": {"data": "synthetic", "d": "6", "n": "32"},
}
# Each flag besides --config and --out, with its arguments.
FLAGS = {"--jobs": ["--jobs", "1"], "--svg": ["--svg"],
         "--spectrum": ["--spectrum"],
         "--seed-override": ["--seed-override", "3"]}
# The flags each command takes; of them, only `sweep` reads `--jobs`.
READS = {
    "analyze": {"--jobs", "--spectrum", "--seed-override"},
    "sweep": {"--jobs", "--svg", "--seed-override"},
    "train": {"--jobs", "--svg", "--seed-override"},
    "prune": {"--jobs", "--seed-override"},
    "whiten": {"--jobs"},
}
UNREAD = [(command, flag) for command in READS for flag in FLAGS
          if flag not in READS[command]]
READ = [(command, flag) for command in READS for flag in sorted(READS[command])]


def write(tmp_path, cfg):
    path = tmp_path / "case.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return str(path)


def run(tmp_path, command, cfg, *flags):
    return main([command, "--config", write(tmp_path, cfg), "--out",
                 str(tmp_path / "out"), *flags])


def no_data(monkeypatch):
    """Make loading any data fail the test."""
    for loader in ("synthesize_gaussian", "load_csv", "load_idx"):
        monkeypatch.setattr(
            cli, loader,
            lambda *a, _name=loader, **k: pytest.fail(f"{_name} ran"))


@pytest.mark.parametrize("command, flag", UNREAD,
                         ids=[f"{c}{f}" for c, f in UNREAD])
def test_a_flag_the_command_does_not_read_is_refused(
        tmp_path, capsys, monkeypatch, command, flag):
    no_data(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, CONFIGS[command], *FLAGS[flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(FLAGS[flag])}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# The file each flag adds to the command's outputs, if any.
WRITES = {"--svg": {"sweep": "sweep.svg", "train": "trace_kappa.svg"},
          "--spectrum": {"analyze": "spectrum.csv"}}


@pytest.mark.parametrize("command, flag", READ,
                         ids=[f"{c}{f}" for c, f in READ])
def test_a_flag_the_command_reads_still_runs(tmp_path, command, flag):
    assert run(tmp_path, command, CONFIGS[command], *FLAGS[flag]) == 0
    written = WRITES.get(flag, {}).get(command)
    if written:
        assert (tmp_path / "out" / written).exists()
    if flag == "--seed-override":
        table = next(p for p in (tmp_path / "out").glob("*.csv")
                     if p.name != "terms.csv")
        header, *rows = table.read_text().splitlines()
        seed = header.split(",").index("seed")
        assert {row.split(",")[seed] for row in rows} == {"3"}


NON_GAUSSIAN = [None, "kaiming_normal", "xavier_normal", "aligned_svd"]


@pytest.mark.parametrize("command", ["analyze", "sweep", "train", "prune"])
@pytest.mark.parametrize("scheme", NON_GAUSSIAN,
                         ids=["default", *NON_GAUSSIAN[1:]])
def test_init_sigma_is_refused_unless_the_init_is_gaussian(
        tmp_path, capsys, monkeypatch, command, scheme):
    no_data(monkeypatch)
    cfg = {**CONFIGS[command], "init_sigma": "0.1"}
    if scheme is not None:
        cfg["init"] = scheme
    assert run(tmp_path, command, cfg, "--jobs", "1") == 2
    assert capsys.readouterr().err == (
        f"config error: key 'init_sigma': init = {scheme or 'kaiming_normal'}"
        " does not read it\n")
    assert not list((tmp_path / "out").glob("*.csv"))


def test_init_sigma_is_read_by_a_gaussian_init(tmp_path):
    kappas = []
    for sigma in ("0.1", "0.7"):
        cfg = {**DEEP, "init": "gaussian", "init_sigma": sigma}
        assert run(tmp_path, "analyze", cfg) == 0
        kappas.append((tmp_path / "out" / "analysis.csv").read_text())
    assert kappas[0] != kappas[1]


def write_idx_images(path, n=30):
    images = np.random.default_rng(0).integers(0, 256, size=(n, 2, 3))
    path.write_bytes(struct.pack(">IIII", 0x00000803, n, 2, 3)
                     + images.astype(np.uint8).tobytes())


IDX_NET = {"kind": "linear_deep", "k": "2", "m": "4", "L": "2", "seeds": "0"}


@pytest.mark.parametrize("limit", [None, "0"], ids=["no_limit", "limit_0"])
def test_an_idx_data_seed_without_a_positive_limit_is_refused(
        tmp_path, capsys, monkeypatch, limit):
    no_data(monkeypatch)
    cfg = {"data": "idx", "data_path": tmp_path / "missing.idx",
           "data_seed": "5", **IDX_NET}
    if limit is not None:
        cfg["limit"] = limit
    assert run(tmp_path, "analyze", cfg) == 2
    assert capsys.readouterr().err == (
        "config error: key 'data_seed': data = idx with limit = 0 does not "
        "read it\n")


def test_an_idx_data_seed_with_a_positive_limit_is_read(tmp_path):
    write_idx_images(tmp_path / "images.idx")
    tables = []
    for data_seed in ("5", "6"):
        cfg = {"data": "idx", "data_path": tmp_path / "images.idx",
               "limit": "20", "data_seed": data_seed, **IDX_NET}
        assert run(tmp_path, "analyze", cfg) == 0
        tables.append((tmp_path / "out" / "analysis.csv").read_text())
    assert tables[0] != tables[1]


@pytest.mark.parametrize("seeds, message", [
    ("-5", "key 'seeds': must be >= 0, got -5"),
    ("2..1", "key 'seeds' lists no seed: '2..1'"),
])
def test_seeds_are_checked_under_seed_override(tmp_path, capsys, monkeypatch,
                                               seeds, message):
    no_data(monkeypatch)
    cfg = {**DEEP, "seeds": seeds}
    assert run(tmp_path, "analyze", cfg, "--seed-override", "3") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def count_evaluations(monkeypatch):
    calls = []
    real = trainer.checkpoint_metrics

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "checkpoint_metrics", counting)
    return calls


SPEC = NetworkSpec(kind="linear_deep", dims=(6, 8, 8, 2))


def teacher_data():
    ds = synthesize_gaussian(d=6, n=32, covariance_spectrum=np.ones(6),
                             seed=0)
    z = np.random.default_rng(1).standard_normal((2, 6))
    return Dataset(X=ds.X, Y=z @ ds.X)


def test_a_prune_grid_evaluates_each_checkpoint_once(monkeypatch):
    calls = count_evaluations(monkeypatch)
    cfg = TrainConfig(learning_rate=0.01, epochs=6, batch_size=16,
                      trace_every=2)
    cells = pruning_experiment(SPEC, teacher_data(), [0.0, 0.3, 0.6], [0, 1],
                               cfg)
    assert sum(len(c.trace.checkpoints) for c in cells) == 24
    assert len(calls) == 24
    for cell in cells:
        assert cell.at_init is cell.trace.at_init
        assert cell.kappa_init == cell.trace.checkpoints[0].kappa


def test_a_cell_whose_initial_loss_diverges_keeps_its_epoch_0_row(
        tmp_path, monkeypatch):
    calls = count_evaluations(monkeypatch)
    cfg = {**DEEP, **TRAIN, "fractions": "0,0.5", "init": "gaussian",
           "init_sigma": "1e5"}
    assert run(tmp_path, "prune", cfg) == 0
    header, *rows = (tmp_path / "out" / "prune.csv").read_text().splitlines()
    columns = header.split(",")
    rows = [dict(zip(columns, row.split(","))) for row in rows]
    # Four cells, each with its epoch-0 row and no checkpoint after it.
    assert [(r["seed"], r["fraction"], r["epoch"]) for r in rows] == [
        (s, f, "0") for s in ("0", "1") for f in ("0.0", "0.5")]
    assert all(float(r["kappa"]) > 1 for r in rows)
    assert len(calls) == 4


def test_the_trace_leaves_its_initial_metrics_out_of_repr_and_equality():
    ds = teacher_data()
    params = trainer.init(SPEC, seed=0)
    _, trace = trainer.train(SPEC, params, ds,
                             TrainConfig(learning_rate=0.01, epochs=1))
    assert trace.at_init.kappa == trace.checkpoints[0].kappa
    assert "at_init" not in repr(trace)
    assert trace == TrainTrace(checkpoints=trace.checkpoints,
                               diverged=trace.diverged)
