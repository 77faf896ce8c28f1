"""Experiment families, scenario generation, and the disk-writing harness.

A flat key = value config names one experiment: population size,
horizon, replication count, master seed, price and noise settings, and
the experiment kind, which fixes the sampling intervals of the user
coefficients and the demand profile:

    baseline        alpha_i ~ U[1,2], beta_i ~ U[4,8],  d_t ~ U[3,6]
    paramset2       alpha_i ~ U[1,3], beta_i ~ U[3,10], d_t ~ U[2,5]
    repeated-dt:P   baseline intervals; ceil(P*T) randomly chosen slots
                    share one freshly drawn demand value
    blocked-dt:B    baseline intervals; d_t constant on consecutive
                    blocks of B slots

alpha_rev is c_rev * max_t d_t, computed after the kind transform so it
reflects the demand profile actually run. run_experiment writes
trajectory.csv (replication 0), regret.csv, and summary.json; outputs
are byte-reproducible from (config, seed) and never embed the output
path, so reruns into different directories compare equal.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Optional, TextIO, get_args, get_type_hints

import numpy as np
import orjson
from numpy.typing import NDArray

from .analysis import RegretReport, build_regret_report, summarize
from .model import Population, Scenario, _check_finite, _check_scale
from .offline import compute_y_star
from .online import Draws, OnlineConfig, Trajectory, run_replications
from .rng import substream

__all__ = [
    "ExperimentConfig",
    "parse_experiment_kind",
    "parse_config",
    "build_scenario",
    "scenario_and_capacity",
    "run_experiment",
    "write_table",
    "write_trajectory_csv",
    "write_regret_csv",
]

#: rows write_table formats at once: its cell strings stay a few hundred kB
TABLE_BLOCK = 256

#: sampling intervals (alpha, beta, d) per named parameter set
KIND_INTERVALS = {
    "baseline": ((1.0, 2.0), (4.0, 8.0), (3.0, 6.0)),
    "paramset2": ((1.0, 3.0), (3.0, 10.0), (2.0, 5.0)),
}


def _parse_value(kind: type, text: str, what: str):
    """text as a str, an int or a float (kind); the ValueError names what was being parsed."""
    if kind is str:
        return text
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} must be {expected}, got '{text}'") from None


class _KindError(ValueError):
    """An experiment kind parse_experiment_kind refuses; parse_config names its source."""


def parse_experiment_kind(kind: str) -> tuple[str, Optional[float]]:
    """Split an experiment-kind string into (family, parameter).

    "baseline" and "paramset2" carry no parameter; "repeated-dt:P" has
    a fraction P in [0, 1]; "blocked-dt:B" has an integer block size
    B >= 1.
    """
    if kind in KIND_INTERVALS:
        return kind, None
    family, sep, arg = kind.partition(":")
    if family == "repeated-dt":
        if not sep:
            raise ValueError("repeated-dt requires a fraction, e.g. repeated-dt:0.3")
        p = _parse_value(float, arg, "repeated-dt fraction")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"repeated-dt fraction must be in [0, 1], got {p}")
        return family, p
    if family == "blocked-dt":
        if not sep:
            raise ValueError("blocked-dt requires a block size, e.g. blocked-dt:4")
        b = _parse_value(int, arg, "blocked-dt block size")
        if b < 1:
            raise ValueError(f"blocked-dt block size must be >= 1, got {b}")
        return family, b
    raise ValueError(
        f"unknown experiment kind '{kind}' (expected baseline, paramset2, "
        "repeated-dt:P, or blocked-dt:B)"
    )


def _key(default, help: str):
    """A config key's default and its --help description (field metadata "help")."""
    return field(default=default, metadata={"help": help})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment from a master seed.

    The kind fixes the sampling intervals (see intervals()); other
    intervals need a Population and Scenario built directly. y_capacity
    None means commit the closed-form optimum of the drawn scenario.
    The fields are the only list of run settings: parse_config reads
    each by its annotated type, run_experiment writes all but out_dir
    to summary.json, and the cli's --help and override flags read each
    name, default and description (_key). Construction parses the kind
    once and keeps its (family, parameter) for intervals() and
    build_scenario. Every field must have its annotated type
    (a bool is not an int, an int is accepted for a float), else
    TypeError names the key; a float field must be finite
    (model._check_finite), n_users, horizon and reps in [1, sys.maxsize]
    (a size in range but too large for memory still fails in numpy),
    out_dir non-empty, and c_rev, noise_sd, y_capacity and ridge must
    keep the magnitudes a run forms, at the extremes of the kind's
    intervals, within the scale contract (model._check_scale), else
    ValueError names the key. Float fields are stored as float, so a
    config equals the one parse_config reads.
    """

    experiment: str = _key("baseline", "baseline | paramset2 | repeated-dt:P | blocked-dt:B")
    n_users: int = _key(100, "population size N")
    horizon: int = _key(100, "number of slots T")
    reps: int = _key(1000, "Monte Carlo replications")
    seed: int = _key(42, "master seed; every stream derives from it")
    c_rev: float = _key(1.0, "revenue price constant: alpha_rev = c_rev * max d_t")
    ridge: float = _key(OnlineConfig.ridge_param, "estimator regularization weight")
    noise_sd: float = _key(Scenario.noise_sd, "per-user response noise standard deviation")
    y_capacity: Optional[float] = _key(None, "committed capacity override (default: closed form)")
    out_dir: str = _key("results", "output directory")

    def __post_init__(self):
        for name, kind in _KEY_TYPES.items():
            value = getattr(self, name)
            _check_key(name, value)
            if kind is float and value is not None:
                object.__setattr__(self, name, float(value))
        try:
            kind = parse_experiment_kind(self.experiment)
        except ValueError as exc:
            raise _KindError(exc) from None
        object.__setattr__(self, "_kind", kind)
        (a_lo, a_hi), (b_lo, b_hi), (d_lo, d_hi) = self.intervals()
        n = self.n_users
        # the kind's extremes (the largest gamma1, |gamma2| and alpha_rev, the least d_t^2) for
        # one slot: the closed-form capacity's bound is the same at every horizon
        scales = (n, 1, n / b_lo, -n * a_hi / b_lo, a_hi, b_hi, d_hi, d_lo * d_lo)
        scales += (self.c_rev * d_hi, self.noise_sd)
        names = dict(alpha_rev="c_rev", ridge_param="ridge")
        _check_scale(scales, self.y_capacity, ridge=self.ridge, names=names)

    def intervals(self) -> tuple[tuple[float, float], ...]:
        """The kind's (alpha, beta, d) sampling intervals; the variants use baseline's."""
        return KIND_INTERVALS.get(self._kind[0], KIND_INTERVALS["baseline"])


_HINTS = get_type_hints(ExperimentConfig)
#: value type of each config key without Optional, and the keys that may be None
_KEY_TYPES = {
    k: next(a for a in get_args(h) or (h,) if a is not type(None)) for k, h in _HINTS.items()
}
_OPTIONAL_KEYS = {k for k, h in _HINTS.items() if type(None) in get_args(h)}


def _check_key(name: str, value) -> None:
    """ExperimentConfig's checks of one key's value on its own: type, finiteness, range."""
    kind, optional = _KEY_TYPES[name], name in _OPTIONAL_KEYS
    if value is None and optional:
        return
    # bool is an int subclass, and no key holds one
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        expected = kind.__name__ + (" or None" if optional else "")
        raise TypeError(f"{name} must be {expected}, got {value!r}")
    if kind is float:
        _check_finite(name, value)
    if name in ("n_users", "horizon", "reps") and not 1 <= value <= sys.maxsize:
        raise ValueError(f"{name} must be in [1, {sys.maxsize}], got {value}")
    # substream takes only u64 seeds; reject others here, where the key is known
    if name == "seed" and not 0 <= value < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {value}")
    if name == "c_rev" and value <= 0:
        raise ValueError(f"c_rev must be > 0, got {value}")
    if name == "out_dir" and not value:  # Path("") is the working directory
        raise ValueError("out_dir must not be empty")


def parse_config(text: str, overrides: Iterable[tuple[str, str, str]] = ()) -> ExperimentConfig:
    """Parse flat key = value text ('#' starts a comment), then overrides, into one config.

    Each override is (source, key, value text) and replaces the key's
    value, a later one an earlier one. A line with an unknown or duplicate
    key, or not of the form key = value, is rejected with its line number.
    A value that does not parse as its key's type, or an experiment kind
    parse_experiment_kind refuses, is rejected naming its source: 'config
    line 3: seed' for a line, else the override's source (a flag, an
    environment variable). Omitted keys keep their defaults. A value that
    an override replaces must still pass its key's own checks (_check_key).
    """
    data: dict[str, object] = {}
    sources: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        if key not in _KEY_TYPES:
            raise ValueError(f"config line {lineno}: unknown key '{key}'")
        if key in data:
            raise ValueError(f"config line {lineno}: duplicate key '{key}'")
        sources[key] = f"config line {lineno}: {key}"
        data[key] = _parse_value(_KEY_TYPES[key], value, sources[key])
    for source, key, value in overrides:
        if key in data:
            _check_key(key, data[key])
        sources[key] = source
        data[key] = _parse_value(_KEY_TYPES[key], value, source)
    try:
        return ExperimentConfig(**data)
    except _KindError as exc:
        raise ValueError(f"{sources['experiment']}: {exc}") from None


def build_scenario(config: ExperimentConfig, rng: np.random.Generator) -> Scenario:
    """Draw one scenario: coefficients, demand, kind transform, alpha_rev.

    The stream is consumed in a fixed order (alphas, betas, demand,
    then any kind-specific draws) so scenarios are reproducible per
    (config, stream).
    """
    (a_lo, a_hi), (b_lo, b_hi), (d_lo, d_hi) = config.intervals()
    family, param = config._kind
    n = config.n_users
    t_hor = config.horizon
    # Population copies the draws; freeing them here lets Scenario's scale check reuse their memory
    population = Population(rng.uniform(a_lo, a_hi, n), rng.uniform(b_lo, b_hi, n))
    if family == "blocked-dt":
        # a block of B >= T slots is one block of T: repeating a huge B would fill memory
        block = min(param, t_hor)
        n_blocks = math.ceil(t_hor / block)
        d = np.repeat(rng.uniform(d_lo, d_hi, n_blocks), block)[:t_hor]
    else:
        d = rng.uniform(d_lo, d_hi, t_hor)
        if family == "repeated-dt":
            # guard against 0.3*100 = 30.000000000000004 ceiling to 31
            k = math.ceil(param * t_hor - 1e-9)
            if k >= 1:
                idx = rng.choice(t_hor, size=k, replace=False)
                d[idx] = rng.uniform(d_lo, d_hi)
    alpha_rev = config.c_rev * float(d.max())
    return Scenario(
        population=population,
        demand=d,
        alpha_rev=alpha_rev,
        noise_sd=config.noise_sd,
    )


def scenario_and_capacity(
    config: ExperimentConfig, scenario: Optional[Scenario] = None
) -> tuple[Scenario, float]:
    """The config's scenario, drawn from substream (seed, 0) unless given, and its capacity.

    The capacity is config.y_capacity when set, without computing the
    closed-form optimum; otherwise compute_y_star, which may be negative.
    """
    if scenario is None:
        scenario = build_scenario(config, substream(config.seed, 0))
    y = compute_y_star(scenario) if config.y_capacity is None else config.y_capacity
    return scenario, y


def write_table(f: TextIO, columns: dict[str, NDArray]) -> None:
    """CSV of equal-length columns: a header of their names, then one row per index.

    Each block of TABLE_BLOCK rows of a numeric column is one orjson.dumps:
    an int prints as its decimal, a float (cast to float64) as the shortest
    text that parses back to its bits, in exponent form (1.234e-7, 1e16)
    unless 0 or 1e-5 <= |x| < 1e16. Bool and string columns take str value
    by value. Open files with newline="" so every line ends in "\\n". Columns
    of unequal lengths, or a cell that is nan or +-inf as written (it has no
    CSV spelling; a long double past float64's range casts to inf) raise
    ValueError before any write; the latter names its column and 1-based row.
    """
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns must have equal lengths, got {lengths}")
    written = dict(columns)
    for name, col in columns.items():
        if col.dtype.kind in "fiu":
            # orjson reads a C-contiguous array in native byte order
            dtype = np.float64 if col.dtype.kind == "f" else col.dtype.newbyteorder("=")
            with np.errstate(over="ignore"):  # the finiteness check below names the cell
                written[name] = x = np.ascontiguousarray(col, dtype=dtype)
            finite = np.isfinite(x)
            if not np.all(finite):
                i = int(np.argmin(finite))
                raise ValueError(  # !s: format() shows a long double past float64 as inf
                    f"column {name} row {i + 1} is {col[i]!s}: CSV cells must be finite"
                )
    f.write(",".join(columns) + "\n")
    for start in range(0, min(lengths.values(), default=0), TABLE_BLOCK):
        cells = []
        for col in written.values():
            block = col[start : start + TABLE_BLOCK]
            if col.dtype.kind in "fiu":
                text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
                cells.append(text.split(","))
            else:
                cells.append(map(str, block.tolist()))
        f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Per-slot CSV of one episode (fixed column order)."""
    columns = {
        "t": traj.t,
        "d_t": traj.d,
        "lambda_online": traj.lambda_online,
        "lambda_star": traj.lambda_star,
        "gamma1_hat": traj.gamma1_hat,
        "gamma2_hat": traj.gamma2_hat,
        "Q_online": traj.q_online,
        "Q_star": traj.q_star,
        "cost_online": traj.cost_online,
        "cost_star": traj.cost_star,
    }
    with open(path, "w", newline="") as f:
        write_table(f, columns)


def write_regret_csv(path: Path, report: RegretReport) -> None:
    """Per-slot regret/bias/variance CSV (fixed column order)."""
    columns = {
        "t": report.t,
        "R_t_mean": report.gap_mean,
        "R_t_se": report.gap_se,
        "cum_regret": report.cum_regret,
        "lambda_bias": report.lambda_bias,
        "lambda_var": report.lambda_var,
        "gamma1_bias": report.gamma1_bias,
        "gamma1_var": report.gamma1_var,
    }
    with open(path, "w", newline="") as f:
        write_table(f, columns)


def run_experiment(
    config: ExperimentConfig,
    *,
    scenario: Optional[Scenario] = None,
    draws: Optional[Draws] = None,
) -> dict:
    """Scenario draw, offline solve, replication sweep, analysis, files.

    Writes trajectory.csv (replication 0), regret.csv (when analysis is
    possible; otherwise any earlier regret.csv is removed), and
    summary.json under config.out_dir, and returns the summary dict.
    The summary records every config field but out_dir, with y_capacity
    the committed capacity (the closed form when the field is unset).
    Analysis failures that have a defined meaning (fewer than 2
    replications, horizon too short for the fit window, an optimal price
    ~0 where the relative tracking error is undefined) are reported in
    the summary instead of aborting. A summary value that is not finite
    raises ValueError naming its keys, and no file is written.
    scenario, when given, is the config's scenario as build_scenario
    draws it from substream (seed, 0), built by the caller, and draws
    are passed to run_replications: drpsim sweep builds each kind's
    scenario once and draws every kind's noise in one pass
    (online.draw_replications), with unchanged outputs.
    """
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory '{out_dir}': {exc}") from exc
    scenario, y = scenario_and_capacity(config, scenario)
    y_closed = y if config.y_capacity is None else compute_y_star(scenario)
    sweep = run_replications(
        scenario, y, config.reps, config.seed, ridge_param=config.ridge, draws=draws
    )

    (a_int, b_int, d_int) = config.intervals()
    summary: dict = asdict(config)
    del summary["out_dir"]  # outputs never embed their path
    summary |= {
        "alpha_interval": [a_int[0], a_int[1]],
        "beta_interval": [b_int[0], b_int[1]],
        "d_interval": [d_int[0], d_int[1]],
        "alpha_rev": float(scenario.alpha_rev),
        "gamma1": float(scenario.population.gamma1),
        "gamma2": float(scenario.population.gamma2),
        "y_star_closed_form": float(y_closed),
        "y_capacity": float(y),
        "degenerate_events": int(sweep.degenerate_events),
        "fallback_events": int(sweep.fallback_events),
    }

    try:
        report = build_regret_report(sweep)
    except ValueError as exc:
        report = None
        summary["analysis"] = None
        summary["analysis_note"] = str(exc)
    else:
        summary["analysis"] = summarize(report)
    # RFC 8259 JSON has no NaN or Infinity: fail before any file is written
    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        flat = summary | {f"analysis.{k}": v for k, v in (summary["analysis"] or {}).items()}
        bad = sorted(k for k, v in flat.items() if isinstance(v, float) and not math.isfinite(v))
        raise ValueError(f"summary.json cannot hold non-finite values: {', '.join(bad)}") from None

    write_trajectory_csv(out_dir / "trajectory.csv", sweep.first_trajectory)
    if report is None:
        # a regret.csv left by an earlier run would contradict this summary
        (out_dir / "regret.csv").unlink(missing_ok=True)
    else:
        write_regret_csv(out_dir / "regret.csv", report)
    (out_dir / "summary.json").write_text(text + "\n")
    return summary

