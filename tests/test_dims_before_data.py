"""`build_spec` is the one parser of a config's network, and it reads every
network key, `dims` included, before any data is loaded: a bad `dims`
exits 2 with one stderr line naming the key, even beside a data file that
does not exist, under `analyze`, `train` and `sweep`. Only what needs the
data waits for it: `dims` against the data's d, and a conv kernel against
the signal length. Each call builds one `NetworkSpec`."""

import pytest

from gn_lens import NetworkSpec
from gn_lens.cli import build_spec
from test_command_keys import no_data, run
from test_network_values_before_data import TRAIN, missing_csv

SYNTHETIC = {"data": "synthetic", "d": "6", "n": "12", "seeds": "0"}
# Each kind's sweep axis: explicit `dims` leave `L` and `m` unread.
AXIS = {"residual": ("beta", "0,0.5"), "leaky_one_hidden": ("alpha", "0,0.5"),
        "linear_conv": ("filters", "1,2")}


def with_command(cfg, command):
    """`cfg` with the keys `command` needs: the training keys, or the kind's
    sweep axis."""
    if command == "train":
        return {**cfg, **TRAIN}
    if command == "sweep":
        axis, values = AXIS[cfg["kind"]]
        return {**cfg, "axis": axis, "values": values}
    return cfg


# name -> (network keys, the message after "config error: ")
BAD_DIMS = {
    "not_an_integer": ({"kind": "residual", "dims": "6,x"},
                       "key 'dims': bad integer list: '6,x'"),
    "empty": ({"kind": "residual", "dims": ""},
              "key 'dims': must list at least the input and output width, "
              "got ''"),
    "one_width": ({"kind": "residual", "dims": "6"},
                  "key 'dims': must list at least the input and output "
                  "width, got '6'"),
    "zero_width": ({"kind": "residual", "dims": "6,0,2"},
                   "key 'dims': must be >= 1, got 0"),
    "leaky_two_hidden": ({"kind": "leaky_one_hidden", "dims": "6,4,4,2"},
                         "one-hidden kinds need dims = [d, m, k]"),
}


@pytest.mark.parametrize("command", ["analyze", "train", "sweep"])
@pytest.mark.parametrize("name", sorted(BAD_DIMS))
def test_a_bad_dims_is_refused_by_name_before_any_data(
        tmp_path, capsys, monkeypatch, name, command):
    no_data(monkeypatch)
    net, message = BAD_DIMS[name]
    cfg = with_command({**missing_csv(tmp_path), **net}, command)
    assert run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert "dims" in err and err.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []


# name -> (network keys, the message once the data is loaded)
NEEDS_THE_DATA = {
    "dims_off_d": ({"kind": "residual", "dims": "5,7,7,2"},
                   "key 'dims': must start with the data's d=6, "
                   "got '5,7,7,2'"),
    "kernel_over_signal": ({"kind": "linear_conv", "filters": "2",
                            "kernel": "9"},
                           "kernel 9 exceeds signal length 6"),
}


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("name", sorted(NEEDS_THE_DATA))
def test_what_needs_the_data_waits_for_it(tmp_path, capsys, name, command):
    net, message = NEEDS_THE_DATA[name]
    # Beside a missing file, the file is the first error...
    cfg = with_command({**missing_csv(tmp_path), **net}, command)
    assert run(tmp_path, command, cfg) == 4
    assert capsys.readouterr().err.startswith("i/o error: ")
    # ...and with data, the message is the one that needs it; a sweep
    # refuses it at set-up, before any cell runs.
    assert run(tmp_path, command, with_command({**SYNTHETIC, **net},
                                               command)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_before_the_data_the_input_width_stands_in():
    dense = {"kind": "residual", "k": "2", "m": "4", "L": "3", "beta": "0.5"}
    assert build_spec(dense).dims == (1, 4, 4, 2)
    assert build_spec(dense, 6).dims == (6, 4, 4, 2)
    explicit = {"kind": "linear_deep", "dims": "5,7,2"}
    assert build_spec(explicit).dims == (5, 7, 2)
    assert build_spec(explicit, 5).dims == (5, 7, 2)
    conv = {"kind": "linear_conv", "filters": "2", "kernel": "4"}
    assert build_spec(conv).dims == (7,)
    assert build_spec(conv, 12).conv_lengths() == [12, 9, 6]


def counted_specs(monkeypatch):
    """A list that gains an entry for every NetworkSpec built, by any
    route (`dataclasses.replace` included)."""
    built = []
    check = NetworkSpec.__post_init__

    def counted(spec):
        built.append(spec)
        check(spec)

    monkeypatch.setattr(NetworkSpec, "__post_init__", counted)
    return built


def test_each_build_is_one_spec(tmp_path, monkeypatch):
    built = counted_specs(monkeypatch)
    net = {"kind": "linear_deep", "k": "2", "m": "4"}
    assert run(tmp_path, "analyze", {**SYNTHETIC, **net}) == 0
    # Once before the data, once with it.
    assert len(built) == 2
    built.clear()
    cfg = {**SYNTHETIC, **net, "seeds": "0,1", "axis": "L",
           "values": "1,2,3"}
    assert run(tmp_path, "sweep", cfg) == 0
    # Before the data, at set-up, and once per cell.
    assert len(built) == 2 + 3 * 2
