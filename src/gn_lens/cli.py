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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields, is_dataclass

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
    INIT_SCHEMES,
    KINDS,
    LEAKY_ONE_HIDDEN,
    LINEAR_CONV,
    LINEAR_DEEP,
    RESIDUAL,
    Draw,
    NetworkSpec,
    Params,
    init,
)
from .trainer import (
    EVALUATED_KINDS,
    Metrics,
    TrainConfig,
    checkpoint_metrics,
    pruning_experiment,
    train,
)

# ---------------------------------------------------------------------------
# Config parsing


_COMMON_KEYS = {
    "experiment", "data", "data_path", "label_column", "limit", "d", "n",
    "cov_spectrum", "data_seed", "whiten", "eigen_floor", "kind", "dims",
    "k", "m", "L", "beta", "alpha", "filters", "kernel", "init",
    "init_sigma", "seeds", "rank_policy",
}

_TRAIN_KEYS = {"lr", "epochs", "batch_size", "trace_every", "teacher_seed"}

ALLOWED_KEYS = {
    "analyze": _COMMON_KEYS,
    "sweep": _COMMON_KEYS | {"axis", "values"},
    "train": _COMMON_KEYS | _TRAIN_KEYS,
    "prune": _COMMON_KEYS | _TRAIN_KEYS | {"fractions"},
    "whiten": _COMMON_KEYS,
}


class ConfigKeyError(ConfigError):
    """A required key is absent, or the kind does not read a key that is set:
    either fails every cell of a sweep alike."""


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
            raise ConfigKeyError(f"missing required key {key!r}")
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
        raise ConfigError(f"bad rank_policy {text!r}")
    mode, arg = text.split(":", 1)
    try:
        if mode == "analytic":
            return RankPolicy.analytic(int(arg))
        if mode == "relative":
            return RankPolicy.relative(float(arg))
        if mode == "absolute":
            return RankPolicy.absolute(float(arg))
    except (ValueError, ValidationError) as exc:
        raise ConfigError(f"bad rank_policy {text!r}: {exc}") from exc
    raise ConfigError(f"bad rank_policy mode {mode!r}")


def _cov_spectrum(cfg, d: int) -> np.ndarray:
    text = cfg.get("cov_spectrum", "ones")
    if text == "ones":
        return np.ones(d)
    try:
        if text.startswith("logspace:"):
            a, b = (float(v) for v in text[len("logspace:"):].split(","))
            return np.logspace(a, b, d)
        values = np.array(_float_list(text), dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"bad cov_spectrum {text!r}") from exc
    if values.size != d:
        raise ConfigError(f"cov_spectrum lists {values.size} values, need d={d}")
    return values


def load_dataset(cfg: dict) -> Dataset:
    source = cfg.get("data", "synthetic")
    if source == "synthetic":
        d = _at_least("d", _as_int(cfg, "d"), 1)
        n = _at_least("n", _as_int(cfg, "n"), 1)
        ds = synthesize_gaussian(
            d=d, n=n, covariance_spectrum=_cov_spectrum(cfg, d),
            seed=_at_least("data_seed", _as_int(cfg, "data_seed", 0), 0),
        )
    elif source == "csv":
        if "data_path" not in cfg:
            raise ConfigError("data=csv requires data_path")
        ds = load_csv(cfg["data_path"], label_column=_as_bool(cfg, "label_column"))
    elif source == "idx":
        if "data_path" not in cfg:
            raise ConfigError("data=idx requires data_path")
        ds = load_idx(
            cfg["data_path"], limit=_as_int(cfg, "limit", 0),
            seed=_at_least("data_seed", _as_int(cfg, "data_seed", 0), 0),
        )
    else:
        raise ConfigError(f"unknown data source {cfg['data']!r}")
    if _as_bool(cfg, "whiten"):
        ds, _ = whiten(ds, eigen_floor=_eigen_floor(cfg))
    return ds


def _eigen_floor(cfg: dict) -> float:
    floor = _as_float(cfg, "eigen_floor", 1e-10)
    return _checked("eigen_floor", floor, 0 <= floor < 1, "in [0, 1)")


_SWEEP_AXES = ("L", "m", "beta", "alpha", "kernel", "filters")

# The axes each kind's network reads; explicit dims leave L and m unread.
_AXES_READ = {
    LINEAR_DEEP: ("L", "m"),
    RESIDUAL: ("L", "m", "beta"),
    LEAKY_ONE_HIDDEN: ("L", "m", "alpha"),
    LINEAR_CONV: ("kernel", "filters"),
}


def build_spec(cfg: dict, data_d: int, overrides: dict | None = None) -> NetworkSpec:
    """Assemble a NetworkSpec from config keys (plus per-cell overrides)."""
    values = dict(cfg)
    for key, val in (overrides or {}).items():
        values[key] = str(val)
    kind = values.get("kind", LINEAR_DEEP)
    # A kind the table does not list is left to NetworkSpec and the commands.
    for key in ("beta", "alpha", "kernel", "filters"):
        if key in values and key not in _AXES_READ.get(kind, _SWEEP_AXES):
            raise ConfigKeyError(f"key {key!r}: kind {kind!r} does not read it")
    beta = _as_float(values, "beta", 0.0)
    alpha = _as_float(values, "alpha", 0.01)
    if kind == LINEAR_CONV:
        filters = _at_least("filters", _as_int(values, "filters"), 1)
        kernel = _at_least("kernel", _as_int(values, "kernel"), 1)
        conv_layers = ((filters, 1, kernel), (filters, filters, kernel))
        return NetworkSpec(kind=kind, dims=(data_d,), conv_layers=conv_layers)
    if "dims" in values:
        dims = tuple(_as_int_list(values, "dims"))
        if dims[:1] != (data_d,):
            raise ConfigError(f"key 'dims': must start with the data's "
                              f"d={data_d}, got {values['dims']!r}")
    else:
        k = _as_int(values, "k")
        m = _as_int(values, "m")
        depth = _at_least("L", _as_int(values, "L", 2), 1)
        dims = (data_d, *([m] * (depth - 1)), k)
    return NetworkSpec(kind=kind, dims=dims, beta=beta, alpha=alpha)


def _init_scheme(cfg: dict) -> str:
    scheme = cfg.get("init", "kaiming_normal")
    if scheme not in INIT_SCHEMES:
        raise ConfigError(f"key 'init': unknown scheme {scheme!r}, "
                          f"expected one of {INIT_SCHEMES}")
    return scheme


def _init_sigma(cfg: dict) -> float:
    sigma = _as_float(cfg, "init_sigma", 1.0)
    return _checked("init_sigma", sigma, 0 <= sigma < math.inf,
                    "finite and >= 0")


def init_params(spec: NetworkSpec, cfg: dict, seed: int,
                draw: Draw | None = None) -> Params:
    """`network.init` with the config's scheme and sigma."""
    return init(spec, scheme=_init_scheme(cfg), seed=seed,
                sigma=_init_sigma(cfg), draw=draw)


def _seeds(cfg: dict, args) -> list[int]:
    seeds = _as_int_list(cfg, "seeds", [0])
    if args.seed_override is not None:
        return [_at_least("--seed-override", args.seed_override, 0)]
    if not seeds:
        raise ConfigError(f"key 'seeds' lists no seed: {cfg['seeds']!r}")
    _at_least("seeds", min(seeds), 0)
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
    if spec.kind == LINEAR_CONV:
        m = spec.conv_layers[0][0]
        k = spec.conv_lengths()[-1] * spec.conv_layers[-1][0]
    else:
        hidden = spec.dims[1:-1]
        m, k = (max(hidden) if hidden else None), spec.dims[-1]
    return ResultRow(
        experiment=label, seed=seed, L=spec.depth, m=m, d=ds.d, k=k, n=ds.n,
        beta=spec.beta, alpha=spec.alpha, kappa=result.kappa,
        bound_convex=result.bound_convex, bound_max=result.bound_max,
        bound_other=result.bound_other,
        rank_policy="default" if policy is None else policy.describe(),
        **columns,
    )


# ---------------------------------------------------------------------------
# Metric evaluation shared by analyze / sweep


def evaluate_instance(spec: NetworkSpec, params: Params, ds: Dataset,
                      policy: RankPolicy | None) -> Metrics:
    """kappa plus every applicable bound for one (spec, params, dataset).

    Kept as its own function: the benchmark (`bench/`) times each sweep cell
    by this name."""
    return checkpoint_metrics(spec, params, ds, policy)


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
    ds = load_dataset(cfg)
    spec = build_spec(cfg, ds.d)
    policy = parse_rank_policy(cfg.get("rank_policy", "default"))
    seed = _seeds(cfg, args)[0]
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
        raise ConfigError(f"axis must be one of {_SWEEP_AXES}, got {axis!r}")
    values = _as_float_list(cfg, "values")
    if not values:
        raise ConfigError("sweep values must be non-empty")
    if axis in ("L", "m", "kernel", "filters"):
        if not all(v.is_integer() for v in values):
            raise ConfigError(f"key 'values': axis {axis} takes integers, "
                              f"got {cfg['values']!r}")
        values = [int(v) for v in values]
    seeds = _seeds(cfg, args)
    ds = load_dataset(cfg)
    policy = parse_rank_policy(cfg.get("rank_policy", "default"))
    label = cfg.get("experiment", "sweep")
    # A bad init or init_sigma, a kind with no GN builder, an axis or a key
    # the network does not read, a missing key, or an aligned init that
    # fails on widths no axis but L and m changes, fails or mislabels every
    # cell alike: report it once.
    scheme = _init_scheme(cfg)
    _init_sigma(cfg)
    kind = cfg.get("kind", LINEAR_DEEP)
    if kind not in KINDS:
        raise SpecError(f"unknown network kind {kind!r}")
    if kind not in EVALUATED_KINDS:
        raise SpecError(f"kind {kind!r} has no analytic GN builder")
    if axis not in _AXES_READ[kind]:
        raise ConfigError(f"key 'axis': kind {kind!r} does not read {axis!r}")
    if axis in ("L", "m") and "dims" in cfg:
        raise ConfigError(f"key 'axis': explicit 'dims' leave {axis!r} unread")
    try:
        spec = build_spec(cfg, ds.d, overrides={axis: values[0]})
    except ConfigKeyError:
        raise
    except GnLensError:
        spec = None  # a bad axis value fails only its own cells
    if spec is not None and scheme == "aligned_svd" and axis not in ("L", "m"):
        init_params(spec, cfg, seeds[0])

    # Each worker keeps the last draw it made, and only that one.
    workers = threading.local()

    def run_cell(cell):
        """The cell's row, or the error that failed it."""
        value, seed = cell
        try:
            spec = build_spec(cfg, ds.d, overrides={axis: value})
            if not hasattr(workers, "draw"):
                workers.draw = Draw()
            params = init_params(spec, cfg, seed, workers.draw)
            result = evaluate_instance(spec, params, ds, policy)
            return _row(f"{label}:{axis}={value}", seed, spec, ds, policy,
                        result, kappa_sigma=result.kappa_sigma)
        except GnLensError as exc:
            return exc

    cells = [(value, seed) for value in values for seed in seeds]
    # Cells run seed by seed (by position in `seeds`, values in the config's
    # order), so that a cell reuses the layers its worker drew for the
    # previous value; rows and errors stay in grid order.
    order = sorted(range(len(cells)), key=lambda i: i % len(seeds))
    results = [None] * len(cells)
    with ThreadPoolExecutor(max_workers=args.jobs or os.cpu_count() or 1) as pool:
        for i, result in zip(order, pool.map(run_cell, [cells[i] for i in order])):
            results[i] = result
    failures = [f"cell {i} ({axis}={value}, seed={seed}): {result}\n"
                for i, ((value, seed), result) in enumerate(zip(cells, results))
                if isinstance(result, GnLensError)]
    if failures:
        _write_text(os.path.join(out_dir, "errors.log"), "".join(failures))
    rows = [row for row in results if isinstance(row, ResultRow)]
    if not rows:
        raise DegenerateDataError("every sweep cell failed")
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
    if ds.Y is not None:
        return ds
    rng = np.random.default_rng(
        _at_least("teacher_seed", _as_int(cfg, "teacher_seed", 10_000), 0))
    k = spec.dims[-1]
    z = rng.standard_normal((k, ds.d)) / np.sqrt(ds.d)
    return Dataset(X=ds.X, Y=z @ ds.X)


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=_at_least("lr", _as_float(cfg, "lr"), 0),
        epochs=_at_least("epochs", _as_int(cfg, "epochs"), 0),
        batch_size=_as_int(cfg, "batch_size", 0),
        seed=seed,
        trace_every=_at_least("trace_every", _as_int(cfg, "trace_every", 1), 1),
    )


def cmd_train(cfg: dict, out_dir: str, args) -> int:
    ds = load_dataset(cfg)
    spec = build_spec(cfg, ds.d)
    policy = parse_rank_policy(cfg.get("rank_policy", "default"))
    seeds = _seeds(cfg, args)
    label = cfg.get("experiment", "train")
    with_targets = _teacher_targets(cfg, spec, ds)
    rows = []
    traces = []
    for seed in seeds:
        params = init_params(spec, cfg, seed)
        _, trace = train(spec, params, with_targets, _train_config(cfg, seed),
                         policy)
        traces.append((seed, trace))
        rows += [_row(label, seed, spec, ds, policy, cp, epoch=cp.epoch)
                 for cp in trace.checkpoints]
    write_rows(os.path.join(out_dir, "trace.csv"), RESULT_COLUMNS, rows)
    if args.svg and any(t.checkpoints for _, t in traces):
        for name, grab in (("loss", lambda c: c.loss), ("kappa", lambda c: c.kappa)):
            series = [
                (f"{name} seed {seed}",
                 [c.epoch for c in t.checkpoints],
                 [grab(c) for c in t.checkpoints],
                 [0.0] * len(t.checkpoints))
                for seed, t in traces if t.checkpoints
            ]
            _write_text(os.path.join(out_dir, f"trace_{name}.svg"),
                        render_svg(series, title=f"{label}: {name}",
                                   x_label="epoch", y_label=name))
    return 0


def cmd_prune(cfg: dict, out_dir: str, args) -> int:
    ds = load_dataset(cfg)
    spec = build_spec(cfg, ds.d)
    policy = parse_rank_policy(cfg.get("rank_policy", "default"))
    seeds = _seeds(cfg, args)
    fractions = [_checked("fractions", f, 0 <= f <= 1, "in [0, 1]")
                 for f in _as_float_list(cfg, "fractions", [0.0, 0.5, 0.9])]
    label = cfg.get("experiment", "prune")
    with_targets = _teacher_targets(cfg, spec, ds)
    cells = pruning_experiment(
        spec, with_targets, fractions, seeds, _train_config(cfg, 0),
        scheme=_init_scheme(cfg), policy=policy,
        init_sigma=_init_sigma(cfg))
    rows = []
    for cell in cells:
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
    ds = load_dataset({**cfg, "whiten": "false"})
    eigen_floor = _eigen_floor(cfg)
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
                       help="parallel workers (0 = all cores)")
        p.add_argument("--svg", action="store_true",
                       help="also render SVG charts")
        p.add_argument("--spectrum", action="store_true",
                       help="dump the full eigenvalue list (analyze)")
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
