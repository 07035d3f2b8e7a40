"""Config-driven command-line runner: analyze / sweep / train / prune / whiten.

Experiments are described by flat key=value config files, results land in CSV
tables with a fixed row schema (plus optional native SVG line charts), and all
outputs are byte-deterministic for a given config and seed list.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, is_dataclass, replace
from functools import partial

import numpy as np

from .bounds import LayerTerm
from .data import (
    Dataset,
    load_csv,
    load_idx,
    synthesize_gaussian,
    whiten,
    write_csv,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    FormatError,
    GnLensError,
    SpecError,
    ValidationError,
)
from .linalg import RankPolicy, rank_sensitivity_sweep
from .network import (
    ALIGNED_KINDS,
    EVALUATED_KINDS,
    INIT_SCHEMES,
    KINDS,
    LINEAR_CONV,
    LINEAR_DEEP,
    TRAINABLE_KINDS,
    Draw,
    NetworkSpec,
    Params,
    init,
)
from .trainer import (
    DataTerms,
    Metrics,
    TrainConfig,
    checkpoint_metrics,
    data_terms,
    pruning_experiment,
    train,
)

# ---------------------------------------------------------------------------
# Config parsing


# The keys each data source reads; `whiten` and `eigen_floor` apply to all.
_SOURCE_KEYS = {
    "synthetic": {"d", "n", "cov_spectrum", "data_seed"},
    "csv": {"data_path", "label_column"},
    "idx": {"data_path", "limit", "data_seed"},
}
_DATA_KEYS = set().union(*_SOURCE_KEYS.values())
_NETWORK_KEYS = set().union(*KINDS.values())
# The keys each command reads: `whiten` reads only the data keys.
_WHITEN_KEYS = {"data", *_DATA_KEYS, "whiten", "eigen_floor"}
_EVALUATE_KEYS = _WHITEN_KEYS | _NETWORK_KEYS | {
    "experiment", "kind", "init", "init_sigma", "seeds", "rank_policy"}
_TRAIN_KEYS = {"lr", "epochs", "batch_size", "trace_every", "teacher_seed"}

ALLOWED_KEYS = {
    "analyze": _EVALUATE_KEYS,
    "sweep": _EVALUATE_KEYS | {"axis", "values"},
    "train": _EVALUATE_KEYS | _TRAIN_KEYS,
    "prune": _EVALUATE_KEYS | _TRAIN_KEYS | {"fractions"},
    "whiten": _WHITEN_KEYS,
}


def parse_config(path: str, command: str) -> dict:
    """Read a flat key=value file, rejecting unknown or duplicate keys."""
    allowed = ALLOWED_KEYS[command]
    cfg: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} for command {command!r}"
            )
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def _read(cfg, key, default, parse, what):
    """`parse(cfg[key])`, or `default` (None: required) if the key is absent."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return parse(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {what}: {cfg[key]!r}") from exc


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _int_list(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _as_int(cfg, key, default=None):
    return _read(cfg, key, default, int, "not an integer")


def _as_float(cfg, key, default=None):
    return _read(cfg, key, default, float, "not a number")


def _as_float_list(cfg, key, default=None):
    return _read(cfg, key, default, _float_list, "bad number list")


def _as_int_list(cfg, key, default=None):
    return _read(cfg, key, default, _int_list, "bad integer list")


def _as_bool(cfg, key):
    """False where the key is absent."""
    value = cfg.get(key, "false").lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: not a boolean: {cfg[key]!r}")


def _checked(key, value, ok, what):
    """`value`, read from config key `key`, if `ok` (a comparison of it,
    so False for NaN)."""
    if not ok:
        raise ConfigError(f"key {key!r}: must be {what}, got {value!r}")
    return value


def _at_least(key, value, low):
    return _checked(key, value, value >= low, f">= {low}")


def parse_rank_policy(text: str) -> RankPolicy | None:
    """'default', 'analytic:<r>', 'relative:<tol>' or 'absolute:<tol>'."""
    if text == "default":
        return None
    if ":" not in text:
        raise ConfigError(f"key 'rank_policy': bad policy {text!r}")
    mode, arg = text.split(":", 1)
    try:
        if mode == "analytic":
            return RankPolicy.analytic(int(arg))
        if mode == "relative":
            return RankPolicy.relative(float(arg))
        if mode == "absolute":
            return RankPolicy.absolute(float(arg))
    except (ValueError, ValidationError) as exc:
        raise ConfigError(
            f"key 'rank_policy': bad policy {text!r}: {exc}") from exc
    raise ConfigError(f"key 'rank_policy': bad mode {mode!r}")


def _cov_spectrum(cfg, d: int) -> np.ndarray:
    text = cfg.get("cov_spectrum", "ones")
    if text == "ones":
        return np.ones(d)
    try:
        if text.startswith("logspace:"):
            a, b = (float(v) for v in text[len("logspace:"):].split(","))
            with np.errstate(over="ignore"):
                values = np.logspace(a, b, d)
        else:
            values = np.array(_float_list(text), dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"bad cov_spectrum {text!r}") from exc
    if values.size != d:
        raise ConfigError(f"cov_spectrum lists {values.size} values, need d={d}")
    if not (np.isfinite(values) & (values >= 0)).all():
        raise ConfigError(f"key 'cov_spectrum': entries must be finite and "
                          f">= 0, got {text!r}")
    return values


def load_dataset(cfg: dict) -> Dataset:
    """The config's dataset, whitened if it asks; every data key is checked
    before any data is synthesized or read."""
    source = cfg.get("data", "synthetic")
    if source not in _SOURCE_KEYS:
        raise ConfigError(f"key 'data': unknown source {source!r}")
    for key in cfg:
        if key in _DATA_KEYS and key not in _SOURCE_KEYS[source]:
            raise ConfigError(f"key {key!r}: data = {source} does not read it")
    if source != "synthetic" and "data_path" not in cfg:
        raise ConfigError(f"key 'data_path': required by data = {source}")
    if source == "synthetic":
        d = _at_least("d", _as_int(cfg, "d"), 1)
        n = _at_least("n", _as_int(cfg, "n"), 1)
        load = partial(synthesize_gaussian, d=d, n=n,
                       covariance_spectrum=_cov_spectrum(cfg, d),
                       seed=_data_seed(cfg))
    elif source == "csv":
        load = partial(load_csv, cfg["data_path"],
                       label_column=_as_bool(cfg, "label_column"))
    else:
        limit = _at_least("limit", _as_int(cfg, "limit", 0), 0)
        if "data_seed" in cfg and limit == 0:
            raise ConfigError("key 'data_seed': data = idx with limit = 0 "
                              "does not read it")
        load = partial(load_idx, cfg["data_path"], limit=limit,
                       seed=_data_seed(cfg))
    white = _as_bool(cfg, "whiten")
    if "eigen_floor" in cfg and not white:
        raise ConfigError("key 'eigen_floor': whiten = false does not read it")
    eigen_floor = _eigen_floor(cfg) if white else None
    ds = load()
    if white:
        ds, _ = whiten(ds, eigen_floor=eigen_floor)
    return ds


def _data_seed(cfg: dict) -> int:
    return _at_least("data_seed", _as_int(cfg, "data_seed", 0), 0)


def _eigen_floor(cfg: dict) -> float:
    floor = _as_float(cfg, "eigen_floor", 1e-10)
    return _checked("eigen_floor", floor, 0 <= floor < 1, "in [0, 1)")


# Sweep axis -> a value every net reading it accepts (an int: integer axis).
_SWEEP_AXES = {"L": 2, "m": 1, "beta": 0.0, "alpha": 0.0, "kernel": 1, "filters": 1}


def check_kind(cfg: dict, trains: bool = False, axis: str | None = None) -> str:
    """The config's kind, if the command can run it and it reads every key."""
    kind = cfg.get("kind", LINEAR_DEEP)
    if kind not in KINDS:
        raise SpecError(f"unknown network kind {kind!r}")
    if trains and kind not in TRAINABLE_KINDS:
        raise SpecError(f"kind {kind!r} is not trainable")
    if kind not in EVALUATED_KINDS:
        raise SpecError(f"kind {kind!r} has no analytic GN builder")
    if axis is not None and axis not in KINDS[kind]:
        raise ConfigError(f"key 'axis': kind {kind!r} does not read {axis!r}")
    if axis in ("L", "m") and "dims" in cfg:
        raise ConfigError(f"key 'axis': explicit 'dims' leave {axis!r} unread")
    for key in cfg:
        if key in _NETWORK_KEYS and key not in KINDS[kind]:
            raise ConfigError(f"key {key!r}: kind {kind!r} does not read it")
        if key in ("k", "m", "L") and "dims" in cfg:
            raise ConfigError(f"key {key!r}: explicit 'dims' leave it unread")
    if cfg.get("init") == "aligned_svd" and kind not in ALIGNED_KINDS:
        raise ConfigError("key 'init': aligned init is defined for "
                          f"linear/residual kinds, not {kind!r}")
    return kind


def _spec_before_data(cfg: dict) -> NetworkSpec:
    """The config's NetworkSpec at a stand-in input width that every check
    of its keys passes: every network key but `dims` parsed and
    range-checked, with no data. A value is the file's text or, for a
    sweep's axis, a typed number, which `int` and `float` keep as is."""
    kind = cfg.get("kind", LINEAR_DEEP)
    beta = _as_float(cfg, "beta", 0.0)
    alpha = _as_float(cfg, "alpha", 0.01)
    if kind == LINEAR_CONV:
        filters = _at_least("filters", _as_int(cfg, "filters"), 1)
        kernel = _at_least("kernel", _as_int(cfg, "kernel"), 1)
        conv_layers = ((filters, 1, kernel), (filters, filters, kernel))
        # The shortest signal that both layers fit.
        return NetworkSpec(kind=kind, dims=(2 * kernel - 1,),
                           conv_layers=conv_layers)
    # Explicit `dims` wait for the data's d; one hidden layer, as every
    # dense kind takes, stands in for them.
    widths = (1, 1)
    if "dims" not in cfg:
        k = _as_int(cfg, "k")
        m = _as_int(cfg, "m")
        depth = _at_least("L", _as_int(cfg, "L", 2), 1)
        widths = (*([m] * (depth - 1)), k)
    return NetworkSpec(kind=kind, dims=(1, *widths), beta=beta, alpha=alpha)


def build_spec(cfg: dict, data_d: int) -> NetworkSpec:
    """Assemble a NetworkSpec from config keys and the data's input width."""
    spec = _spec_before_data(cfg)
    if spec.kind == LINEAR_CONV:
        return replace(spec, dims=(data_d,))
    if "dims" not in cfg:
        return replace(spec, dims=(data_d, *spec.dims[1:]))
    dims = tuple(_as_int_list(cfg, "dims"))
    if dims[:1] != (data_d,):
        raise ConfigError(f"key 'dims': must start with the data's "
                          f"d={data_d}, got {cfg['dims']!r}")
    return replace(spec, dims=dims)


def _init_scheme(cfg: dict) -> str:
    scheme = cfg.get("init", "kaiming_normal")
    if scheme not in INIT_SCHEMES:
        raise ConfigError(f"key 'init': unknown scheme {scheme!r}, "
                          f"expected one of {INIT_SCHEMES}")
    return scheme


def _init_sigma(cfg: dict) -> float:
    """The `sigma` of `network.init`, which only `init = gaussian` reads;
    the scheme is checked first."""
    scheme = _init_scheme(cfg)
    if "init_sigma" in cfg and scheme != "gaussian":
        raise ConfigError(f"key 'init_sigma': init = {scheme} does not read it")
    sigma = _as_float(cfg, "init_sigma", 1.0)
    return _checked("init_sigma", sigma, 0 <= sigma < math.inf,
                    "finite and >= 0")


def init_params(spec: NetworkSpec, cfg: dict, seed: int,
                draw: Draw | None = None) -> Params:
    """`network.init` with the config's scheme and sigma."""
    return init(spec, scheme=_init_scheme(cfg), seed=seed,
                sigma=_init_sigma(cfg), draw=draw)


def _check_before_data(cfg: dict, args, trains: bool = False,
                       axis: str | None = None):
    """(kind, rank policy, seeds), with the init, for a command that trains
    the training keys, and the network keys but `dims` (and a sweep's axis)
    checked: every check that needs no data, so that a config is refused
    before any data is loaded."""
    kind = check_kind(cfg, trains=trains, axis=axis)
    policy = parse_rank_policy(cfg.get("rank_policy", "default"))
    seeds = _seeds(cfg, args)
    _init_sigma(cfg)
    if trains:
        _train_config(cfg, 0)
        _teacher_seed(cfg)
    _spec_before_data(cfg if axis is None else {**cfg, axis: _SWEEP_AXES[axis]})
    return kind, policy, seeds


def _seeds(cfg: dict, args) -> list[int]:
    seeds = _as_int_list(cfg, "seeds", [0])
    if not seeds:
        raise ConfigError(f"key 'seeds' lists no seed: {cfg['seeds']!r}")
    _at_least("seeds", min(seeds), 0)
    if args.seed_override is not None:
        return [_at_least("--seed-override", args.seed_override, 0)]
    return seeds


# ---------------------------------------------------------------------------
# Result rows and CSV output


@dataclass
class ResultRow:
    experiment: str = ""
    seed: object = None
    L: object = None
    m: object = None
    d: object = None
    k: object = None
    n: object = None
    beta: object = None
    alpha: object = None
    fraction: object = None
    epoch: object = None
    kappa: object = None
    bound_convex: object = None
    bound_max: object = None
    bound_other: object = None
    kappa_sigma: object = None
    rank_policy: object = None
    wall_ms: object = None


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))
TERM_COLUMNS = tuple(f.name for f in fields(LayerTerm))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def write_rows(path: str, header, rows) -> None:
    """Rows are tuples, or records whose fields are the header's columns."""
    lines = [header, *(astuple(r) if is_dataclass(r) else r for r in rows)]
    _write_text(path, "".join(",".join(map(_fmt, line)) + "\n" for line in lines))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _row(label: str, seed: int, spec: NetworkSpec, ds: Dataset,
         policy: RankPolicy | None, result, **columns) -> ResultRow:
    """A result row from a Metrics or a Checkpoint (which has no kappa_sigma)."""
    # m is a conv net's filter count, or a dense net's widest hidden layer.
    m = (spec.conv_layers[0][0] if spec.kind == LINEAR_CONV
         else max(spec.dims[1:-1], default=None))
    return ResultRow(
        experiment=label, seed=seed, L=spec.depth, m=m, d=ds.d,
        k=spec.widths[-1], n=ds.n,
        beta=spec.beta, alpha=spec.alpha, kappa=result.kappa,
        bound_convex=result.bound_convex, bound_max=result.bound_max,
        bound_other=result.bound_other,
        rank_policy="default" if policy is None else policy.describe(),
        **columns,
    )


# ---------------------------------------------------------------------------
# Metric evaluation shared by analyze / sweep


def evaluate_instance(spec: NetworkSpec, params: Params, ds: Dataset,
                      policy: RankPolicy | None,
                      terms: DataTerms | None = None) -> Metrics:
    """kappa plus every applicable bound for one (spec, params, dataset).

    Kept as its own function: the benchmark (`bench/`) times each sweep cell
    by this name."""
    return checkpoint_metrics(spec, params, ds, policy, terms)


def _cell_results(out_dir: str, command: str, axis: str, cells, results):
    """The results of the (value, seed) `cells` that did not fail. Each
    error goes to errors.log as one line, in grid order."""
    failures = [f"cell {i} ({axis}={value}, seed={seed}): {result}\n"
                for i, ((value, seed), result) in enumerate(zip(cells, results))
                if isinstance(result, GnLensError)]
    if failures:
        _write_text(os.path.join(out_dir, "errors.log"), "".join(failures))
    done = [r for r in results if not isinstance(r, GnLensError)]
    if not done:
        raise DegenerateDataError(f"every {command} cell failed")
    return done


# ---------------------------------------------------------------------------
# SVG rendering (native, line charts with median +/- std bands)


def render_svg(series, title: str, x_label: str, y_label: str) -> str:
    """Render (label, xs, medians, stds) series as a minimal SVG line chart."""
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 30, 50
    xs_all = [x for _, xs, _, _ in series for x in xs]
    ys_low = [m - s for _, _, med, std in series for m, s in zip(med, std)]
    ys_high = [m + s for _, _, med, std in series for m, s in zip(med, std)]
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_low), max(ys_high)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def px(x):
        return left + (x - x_min) / (x_max - x_min) * (width - left - right)

    def py(y):
        return height - bottom - (y - y_min) / (y_max - y_min) * (height - top - bottom)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.1f})">{y_label}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
        f'stroke="black"/>',
    ]
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4
        yv = y_min + (y_max - y_min) * i / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{height - bottom + 16}" '
            f'text-anchor="middle" font-size="10">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{py(yv) + 3:.1f}" text-anchor="end" '
            f'font-size="10">{yv:.3g}</text>'
        )
    for idx, (label, xs, med, std) in enumerate(series):
        color = colors[idx % len(colors)]
        upper = [(px(x), py(m + s)) for x, m, s in zip(xs, med, std)]
        lower = [(px(x), py(m - s)) for x, m, s in zip(xs, med, std)]
        band = " ".join(f"{x:.2f},{y:.2f}" for x, y in upper + lower[::-1])
        parts.append(
            f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" '
            f'stroke="none"/>'
        )
        line = " ".join(f"{px(x):.2f},{py(m):.2f}" for x, m in zip(xs, med))
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - right - 4}" y="{top + 14 * (idx + 1)}" '
            f'text-anchor="end" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analyze(cfg: dict, out_dir: str, args) -> int:
    _, policy, seeds = _check_before_data(cfg, args)
    seed = seeds[0]
    ds = load_dataset(cfg)
    spec = build_spec(cfg, ds.d)
    params = init_params(spec, cfg, seed)
    result = evaluate_instance(spec, params, ds, policy)
    row = _row(cfg.get("experiment", "analyze"), seed, spec, ds, policy,
               result, kappa_sigma=result.kappa_sigma)
    write_rows(os.path.join(out_dir, "analysis.csv"), RESULT_COLUMNS, [row])
    if result.terms:
        write_rows(os.path.join(out_dir, "terms.csv"), TERM_COLUMNS,
                   result.terms)
    if args.spectrum:
        write_rows(os.path.join(out_dir, "spectrum.csv"),
                   ("index", "eigenvalue"), enumerate(result.spectrum.values))
        write_rows(os.path.join(out_dir, "rank_sensitivity.csv"),
                   ("rank", "kappa"), rank_sensitivity_sweep(result.spectrum))
    return 0


def cmd_sweep(cfg: dict, out_dir: str, args) -> int:
    axis = cfg.get("axis")
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"axis must be one of {tuple(_SWEEP_AXES)}, got {axis!r}")
    values = _as_float_list(cfg, "values")
    if not values:
        raise ConfigError("sweep values must be non-empty")
    if isinstance(_SWEEP_AXES[axis], int):
        if not all(v.is_integer() for v in values):
            raise ConfigError(f"key 'values': axis {axis} takes integers, "
                              f"got {cfg['values']!r}")
        values = [int(v) for v in values]
    kind, policy, seeds = _check_before_data(cfg, args, axis=axis)
    _at_least("--jobs", args.jobs, 0)
    ds = load_dataset(cfg)
    label = cfg.get("experiment", "sweep")
    # What fails at the neutral axis value, or in an aligned init on widths no
    # axis but L and m changes, fails every cell alike: refuse it once.
    spec = build_spec({**cfg, axis: _SWEEP_AXES[axis]}, ds.d)
    if _init_scheme(cfg) == "aligned_svd" and axis not in ("L", "m"):
        init_params(spec, cfg, seeds[0])
    # What the cells read of the dataset, built once for all of them.
    terms = data_terms(ds, kind)

    # The run's one draw keeps the last cell's layers, and only those.
    draw = Draw()

    def run_cell(value, seed):
        """The cell's row, or the error that failed it."""
        try:
            spec = build_spec({**cfg, axis: value}, ds.d)
            params = init_params(spec, cfg, seed, draw)
            result = evaluate_instance(spec, params, ds, policy, terms)
            return _row(f"{label}:{axis}={value}", seed, spec, ds, policy,
                        result, kappa_sigma=result.kappa_sigma)
        except GnLensError as exc:
            return exc

    cells = [(value, seed) for value in values for seed in seeds]
    results = [None] * len(cells)
    # Cells run seed by seed (values in the config's order), so that a cell
    # reuses the layers its seed drew for the previous value; rows and errors
    # stay in grid order.
    for j, seed in enumerate(seeds):
        for i, value in enumerate(values):
            results[i * len(seeds) + j] = run_cell(value, seed)
    rows = _cell_results(out_dir, "sweep", axis, cells, results)
    write_rows(os.path.join(out_dir, "sweep.csv"), RESULT_COLUMNS, rows)
    if args.svg:
        per_value = {}
        for (value, _), row in zip(cells, results):
            if isinstance(row, ResultRow):
                per_value.setdefault(float(value), []).append(row.kappa)
        xs = sorted(per_value)
        med = [float(np.median(per_value[x])) for x in xs]
        std = [float(np.std(per_value[x])) for x in xs]
        _write_text(os.path.join(out_dir, "sweep.svg"),
                    render_svg([("kappa", xs, med, std)],
                               title=f"{label}: kappa vs {axis}",
                               x_label=axis, y_label="kappa"))
    return 0


def _teacher_targets(cfg: dict, spec: NetworkSpec, ds: Dataset) -> Dataset:
    k = spec.dims[-1]
    if ds.Y is not None:
        if ds.Y.shape[0] != k:
            raise ConfigError(f"key 'label_column': the labels are "
                              f"{ds.Y.shape[0]} target row(s), but the "
                              f"network has k = {k} outputs")
        return ds
    rng = np.random.default_rng(_teacher_seed(cfg))
    z = rng.standard_normal((k, ds.d)) / np.sqrt(ds.d)
    return Dataset(X=ds.X, Y=z @ ds.X)


def _teacher_seed(cfg: dict) -> int:
    """The seed of the teacher targets, which only data without labels reads;
    `data = csv` with `label_column = true` alone has labels."""
    if ("teacher_seed" in cfg and cfg.get("data") == "csv"
            and _as_bool(cfg, "label_column")):
        raise ConfigError(
            "key 'teacher_seed': label_column = true does not read it")
    return _at_least("teacher_seed", _as_int(cfg, "teacher_seed", 10_000), 0)


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=_at_least("lr", _as_float(cfg, "lr"), 0),
        epochs=_at_least("epochs", _as_int(cfg, "epochs"), 0),
        batch_size=_at_least("batch_size", _as_int(cfg, "batch_size", 0), 0),
        seed=seed,
        trace_every=_at_least("trace_every", _as_int(cfg, "trace_every", 1), 1),
    )


def cmd_train(cfg: dict, out_dir: str, args) -> int:
    _, policy, seeds = _check_before_data(cfg, args, trains=True)
    ds = load_dataset(cfg)
    spec = build_spec(cfg, ds.d)
    label = cfg.get("experiment", "train")
    with_targets = _teacher_targets(cfg, spec, ds)
    terms = data_terms(ds, spec.kind)
    rows = []
    traces = []
    for seed in seeds:
        params = init_params(spec, cfg, seed)
        _, trace = train(spec, params, with_targets, _train_config(cfg, seed),
                         policy, terms)
        # Only the checkpoints: the trace also holds checkpoint 0's spectrum.
        traces.append((seed, trace.checkpoints))
        rows += [_row(label, seed, spec, ds, policy, cp, epoch=cp.epoch)
                 for cp in trace.checkpoints]
    write_rows(os.path.join(out_dir, "trace.csv"), RESULT_COLUMNS, rows)
    if args.svg and any(cps for _, cps in traces):
        for name, grab in (("loss", lambda c: c.loss), ("kappa", lambda c: c.kappa)):
            series = [
                (f"{name} seed {seed}",
                 [c.epoch for c in cps],
                 [grab(c) for c in cps],
                 [0.0] * len(cps))
                for seed, cps in traces if cps
            ]
            _write_text(os.path.join(out_dir, f"trace_{name}.svg"),
                        render_svg(series, title=f"{label}: {name}",
                                   x_label="epoch", y_label=name))
    return 0


def cmd_prune(cfg: dict, out_dir: str, args) -> int:
    _, policy, seeds = _check_before_data(cfg, args, trains=True)
    fractions = [_checked("fractions", f, 0 <= f <= 1, "in [0, 1]")
                 for f in _as_float_list(cfg, "fractions", [0.0, 0.5, 0.9])]
    if not fractions:
        raise ConfigError(
            f"key 'fractions' lists no fraction: {cfg['fractions']!r}")
    ds = load_dataset(cfg)
    spec = build_spec(cfg, ds.d)
    label = cfg.get("experiment", "prune")
    with_targets = _teacher_targets(cfg, spec, ds)
    results = pruning_experiment(
        spec, with_targets, fractions, seeds, _train_config(cfg, 0),
        scheme=_init_scheme(cfg), policy=policy,
        init_sigma=_init_sigma(cfg), terms=data_terms(ds, spec.kind))
    cells = [(fraction, seed) for seed in seeds for fraction in fractions]
    rows = []
    for cell in _cell_results(out_dir, "prune", "fraction", cells, results):
        rows.append(_row(label, cell.seed, spec, ds, policy, cell.at_init,
                         fraction=cell.fraction, epoch=0,
                         kappa_sigma=cell.at_init.kappa_sigma))
        if cell.trace.checkpoints:
            cp = cell.trace.checkpoints[-1]
            rows.append(_row(label, cell.seed, spec, ds, policy, cp,
                             fraction=cell.fraction, epoch=cp.epoch))
    write_rows(os.path.join(out_dir, "prune.csv"), RESULT_COLUMNS, rows)
    return 0


def cmd_whiten(cfg: dict, out_dir: str, args) -> int:
    if "whiten" in cfg:
        _checked("whiten", cfg["whiten"], _as_bool(cfg, "whiten"), "true")
    eigen_floor = _eigen_floor(cfg)
    ds = load_dataset({key: value for key, value in cfg.items()
                       if key not in ("whiten", "eigen_floor")})
    white, report = whiten(ds, eigen_floor=eigen_floor)
    write_csv(os.path.join(out_dir, "whitened.csv"), white)
    write_rows(
        os.path.join(out_dir, "whiten.csv"),
        ("kappa_before", "kappa_after", "eigen_floor"),
        [(report.kappa_before, report.kappa_after, eigen_floor)],
    )
    return 0


COMMANDS = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "train": cmd_train,
    "prune": cmd_prune,
    "whiten": cmd_whiten,
}


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gn-lens",
        description="Gauss-Newton conditioning experiments for small networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--jobs", type=int, default=0,
                       help="accepted and unread: every command runs on "
                            "the calling thread and starts no worker "
                            "(sweep refuses a negative value)")
        # `--jobs` aside, a command takes only the flags it reads.
        if name in ("sweep", "train"):
            p.add_argument("--svg", action="store_true",
                           help="also render SVG charts")
        if name == "analyze":
            p.add_argument("--spectrum", action="store_true",
                           help="dump the full eigenvalue list")
        if name != "whiten":
            p.add_argument("--seed-override", type=int, default=None,
                           help="replace the config's seed list with one seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.command)
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out, args)
    except (ConfigError, SpecError) as exc:
        # Every spec the CLI builds comes from the config, so an
        # inconsistent spec is a config error too.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except GnLensError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"not enough memory for this config: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
