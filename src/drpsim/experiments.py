"""Experiment families, scenario generation, and the disk-writing harness.

A flat key = value config names one experiment: population size,
horizon, replication count, master seed, sampling intervals for the
user coefficients and the demand profile, and the experiment kind:

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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TextIO, get_args, get_type_hints

import numpy as np
from numpy.typing import NDArray

from .analysis import RegretReport, build_regret_report, summarize
from .model import Population, Scenario
from .offline import compute_y_star
from .online import Trajectory, run_replications
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

#: default sampling intervals (alpha, beta, d) per named parameter set
KIND_INTERVALS = {
    "baseline": ((1.0, 2.0), (4.0, 8.0), (3.0, 6.0)),
    "paramset2": ((1.0, 3.0), (3.0, 10.0), (2.0, 5.0)),
}


def _parse_number(number: type, text: str, what: str):
    """int(text) or float(text); the error names what was being parsed."""
    try:
        return number(text)
    except ValueError:
        expected = "an integer" if number is int else "a number"
        raise ValueError(f"{what} must be {expected}, got '{text}'") from None


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
        p = _parse_number(float, arg, "repeated-dt fraction")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"repeated-dt fraction must be in [0, 1], got {p}")
        return family, p
    if family == "blocked-dt":
        if not sep:
            raise ValueError("blocked-dt requires a block size, e.g. blocked-dt:4")
        b = _parse_number(int, arg, "blocked-dt block size")
        if b < 1:
            raise ValueError(f"blocked-dt block size must be >= 1, got {b}")
        return family, float(b)
    raise ValueError(
        f"unknown experiment kind '{kind}' (expected baseline, paramset2, "
        "repeated-dt:P, or blocked-dt:B)"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment from a master seed.

    Interval fields left as None fall back to the kind's defaults
    (repeated-dt/blocked-dt use the baseline intervals). y_capacity
    None means commit the closed-form optimum of the drawn scenario.
    Every field must have its annotated type (a bool is not an int, an
    int is accepted for a float), else TypeError names the key. Float
    fields are stored as float, so a config equals the one parse_config
    reads.
    """

    experiment: str = "baseline"
    n_users: int = 100
    horizon: int = 100
    reps: int = 1000
    seed: int = 42
    c_rev: float = 1.0
    ridge: float = 0.001
    noise_sd: float = 1.0
    coupled_noise: bool = False
    y_capacity: Optional[float] = None
    alpha_low: Optional[float] = None
    alpha_high: Optional[float] = None
    beta_low: Optional[float] = None
    beta_high: Optional[float] = None
    d_low: Optional[float] = None
    d_high: Optional[float] = None
    out_dir: str = "results"

    def __post_init__(self):
        for name, kind in _KEY_TYPES.items():
            value = getattr(self, name)
            optional = name in _OPTIONAL_KEYS
            if value is None and optional:
                continue
            # bool is an int subclass, so only bool keys may hold one
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
                expected = kind.__name__ + (" or None" if optional else "")
                raise TypeError(f"{name} must be {expected}, got {value!r}")
            if kind is float:
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
                object.__setattr__(self, name, float(value))
        parse_experiment_kind(self.experiment)
        for name in ("n_users", "horizon", "reps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # substream keys on the seed's low 64 bits: larger seeds would alias
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.c_rev <= 0:
            raise ValueError(f"c_rev must be > 0, got {self.c_rev}")
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        for name, (lo, hi) in zip(("alpha", "beta", "d"), self.intervals()):
            keys = f"{name}_low, {name}_high"
            if lo <= 0 or hi <= 0:
                raise ValueError(f"interval bounds {keys} must be > 0, got [{lo}, {hi}]")
            if lo > hi:
                raise ValueError(f"interval bounds {keys} out of order: [{lo}, {hi}]")

    def intervals(self) -> tuple[tuple[float, float], ...]:
        """Resolved (alpha, beta, d) sampling intervals."""
        family, _ = parse_experiment_kind(self.experiment)
        defaults = KIND_INTERVALS.get(family, KIND_INTERVALS["baseline"])
        overrides = (
            (self.alpha_low, self.alpha_high),
            (self.beta_low, self.beta_high),
            (self.d_low, self.d_high),
        )
        return tuple(
            (lo if lo is not None else dlo, hi if hi is not None else dhi)
            for (lo, hi), (dlo, dhi) in zip(overrides, defaults)
        )


_HINTS = get_type_hints(ExperimentConfig)
#: value type of each config key without Optional, and the keys that may be None
_KEY_TYPES = {
    k: next(a for a in get_args(h) or (h,) if a is not type(None)) for k, h in _HINTS.items()
}
_OPTIONAL_KEYS = {k for k, h in _HINTS.items() if type(None) in get_args(h)}
_INT_KEYS = {k for k, t in _KEY_TYPES.items() if t is int}
_FLOAT_KEYS = {k for k, t in _KEY_TYPES.items() if t is float}
_BOOL_KEYS = {k for k, t in _KEY_TYPES.items() if t is bool}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key = value text ('#' starts a comment) into a config.

    Unknown or duplicate keys, and values that do not parse as the key's
    type, are rejected with the offending line number; omitted keys keep
    their defaults.
    """
    data: dict[str, object] = {}
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
        if key in _INT_KEYS or key in _FLOAT_KEYS:
            number = int if key in _INT_KEYS else float
            data[key] = _parse_number(number, value, f"config line {lineno}: {key}")
        elif key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered not in ("true", "false"):
                raise ValueError(
                    f"config line {lineno}: expected true/false, got '{value}'"
                )
            data[key] = lowered == "true"
        else:
            data[key] = value
    return ExperimentConfig(**data)


def build_scenario(config: ExperimentConfig, rng: np.random.Generator) -> Scenario:
    """Draw one scenario: coefficients, demand, kind transform, alpha_rev.

    The stream is consumed in a fixed order (alphas, betas, demand,
    then any kind-specific draws) so scenarios are reproducible per
    (config, stream).
    """
    (a_lo, a_hi), (b_lo, b_hi), (d_lo, d_hi) = config.intervals()
    family, param = parse_experiment_kind(config.experiment)
    n = config.n_users
    t_hor = config.horizon
    alphas = rng.uniform(a_lo, a_hi, n)
    betas = rng.uniform(b_lo, b_hi, n)
    if family == "blocked-dt":
        block = int(param)
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
        population=Population(alphas, betas),
        demand=d,
        alpha_rev=alpha_rev,
        noise_sd=config.noise_sd,
    )


def scenario_and_capacity(config: ExperimentConfig) -> tuple[Scenario, float]:
    """The config's scenario, drawn from substream (seed, 0), and its capacity.

    The capacity is config.y_capacity when set, without computing the
    closed-form optimum; otherwise compute_y_star, which may be negative.
    """
    scenario = build_scenario(config, substream(config.seed, 0))
    y = compute_y_star(scenario) if config.y_capacity is None else config.y_capacity
    return scenario, y


def write_table(f: TextIO, columns: dict[str, NDArray]) -> None:
    """CSV of equal-length columns: a header of their names, then one row per index.

    Each value is written as str of its tolist() form, so ints print as
    ints and floats as the shortest decimal that round-trips to the same
    double. Open files with newline="" so every line ends in "\\n".
    """
    f.write(",".join(columns) + "\n")
    for row in zip(*(c.tolist() for c in columns.values())):
        f.write(",".join(map(str, row)) + "\n")


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


def run_experiment(config: ExperimentConfig) -> dict:
    """Scenario draw, offline solve, replication sweep, analysis, files.

    Writes trajectory.csv (replication 0), regret.csv (when analysis is
    possible; otherwise any earlier regret.csv is removed), and
    summary.json under config.out_dir, and returns the summary dict.
    Analysis failures that have a defined meaning (fewer than 2
    replications, horizon too short for the fit window, an optimal price
    ~0 where the relative tracking error is undefined) are reported in
    the summary instead of aborting; the per-slot CSV is always written.
    """
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory '{out_dir}': {exc}") from exc

    scenario, y = scenario_and_capacity(config)
    y_closed = y if config.y_capacity is None else compute_y_star(scenario)
    sweep = run_replications(
        scenario,
        y,
        config.reps,
        config.seed,
        ridge_param=config.ridge,
        coupled_noise=config.coupled_noise,
    )

    write_trajectory_csv(out_dir / "trajectory.csv", sweep.first_trajectory)

    (a_int, b_int, d_int) = config.intervals()
    summary: dict = {
        "experiment": config.experiment,
        "n_users": config.n_users,
        "horizon": config.horizon,
        "reps": config.reps,
        "seed": config.seed,
        "c_rev": config.c_rev,
        "ridge": config.ridge,
        "noise_sd": config.noise_sd,
        "coupled_noise": config.coupled_noise,
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
        summary["analysis"] = None
        summary["analysis_note"] = str(exc)
        # a regret.csv left by an earlier run would contradict this summary
        (out_dir / "regret.csv").unlink(missing_ok=True)
    else:
        write_regret_csv(out_dir / "regret.csv", report)
        summary["analysis"] = summarize(report)

    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary

