"""Independent reference for drpsim's replication loop, and the noise floor.

Nothing here imports drpsim. The reference re-derives everything from
(experiment kind, N, T, seed) with the closed forms and the stream
layout documented in ``drpsim/rng.py``:

* stream (seed, *path) is Philox keyed on the 128-bit blake2b digest of
  the seed packed as '<Q' followed by each path component as '<q';
* stream (seed, 0) draws alphas, betas, the demand profile, then any
  kind-specific demand draws;
* stream (seed, 1, r) draws replication r: the slot-1 price
  U[0, 2*alpha_rev/N], then per slot the online noise vector followed
  by the counterfactual noise vector.

The loop is written out plainly, one slot at a time, and compared with
the program's replication matrices at a tolerance that admits only
floating-point reassociation.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExperimentSpec",
    "stream",
    "draw_scenario",
    "reference_replication",
    "compare_replication",
    "noise_floor",
    "PRICE_RTOL",
    "COST_TOL",
]

#: relative tolerance on prices; ROADMAP's batched prototype differed by 3e-11
PRICE_RTOL = 1e-9
#: tolerance on stage costs, relative to max(1, |cost|); the prototype differed by 3e-10
COST_TOL = 1e-9

#: (alpha, beta, d) sampling intervals of the two named parameter sets
_INTERVALS = {
    "baseline": ((1.0, 2.0), (4.0, 8.0), (3.0, 6.0)),
    "paramset2": ((1.0, 3.0), (3.0, 10.0), (2.0, 5.0)),
}
#: pricing loop constants: degenerate-denominator and condition-number limits
_DENOM_TOL = 1e-9
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment of a workload, with the program's default knobs."""

    kind: str
    n: int
    horizon: int
    reps: int
    seed: int
    c_rev: float = 1.0
    ridge: float = 0.001
    noise_sd: float = 1.0


def stream(seed: int, *path: int) -> np.random.Generator:
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF))
    for p in path:
        h.update(struct.pack("<q", p))
    return np.random.Generator(np.random.Philox(key=np.frombuffer(h.digest(), dtype=np.uint64)))


@dataclass(frozen=True)
class RefScenario:
    alphas: np.ndarray
    betas: np.ndarray
    d: np.ndarray
    alpha_rev: float
    y: float
    lambda_star: np.ndarray


def draw_scenario(spec: ExperimentSpec) -> RefScenario:
    """Scenario draw plus closed-form Y* and lambda* path."""
    family, _, arg = spec.kind.partition(":")
    (a_lo, a_hi), (b_lo, b_hi), (d_lo, d_hi) = _INTERVALS.get(family, _INTERVALS["baseline"])
    rng = stream(spec.seed, 0)
    n, t_hor = spec.n, spec.horizon
    alphas = rng.uniform(a_lo, a_hi, n)
    betas = rng.uniform(b_lo, b_hi, n)
    if family == "blocked-dt":
        block = int(arg)
        d = np.repeat(rng.uniform(d_lo, d_hi, math.ceil(t_hor / block)), block)[:t_hor]
    else:
        d = rng.uniform(d_lo, d_hi, t_hor)
        if family == "repeated-dt":
            k = math.ceil(float(arg) * t_hor - 1e-9)
            if k >= 1:
                # the slots are drawn before the shared value
                idx = rng.choice(t_hor, size=k, replace=False)
                d[idx] = rng.uniform(d_lo, d_hi)
    alpha_rev = spec.c_rev * float(d.max())
    g1 = float(np.sum(1.0 / betas))
    s = float(np.sum(alphas / betas))
    y = (t_hor * alpha_rev * (1 + g1) ** 2 - s * (1 + g1) * float(d.sum())) / (
        float((d * d).sum()) * (1 + g1)
    )
    lam_star = (y * d + s) / (n + n * g1)
    return RefScenario(alphas, betas, d, alpha_rev, y, lam_star)


def _stage_cost(sc: RefScenario, x: np.ndarray, t: int) -> float:
    n = x.shape[0]
    q = float(x.sum())
    user = float(np.sum(0.5 * sc.betas * x * x + sc.alphas * x)) / n
    gap = q - sc.y * sc.d[t]
    return user + gap * gap / (2.0 * n)


def reference_replication(spec: ExperimentSpec, sc: RefScenario, r: int) -> dict[str, np.ndarray]:
    """lambda_online, cost_online and cost_star of replication r."""
    n, t_hor, sd, ridge = spec.n, spec.horizon, spec.noise_sd, spec.ridge
    rng = stream(spec.seed, 1, r)
    lam = float(rng.uniform(0.0, 2.0 * sc.alpha_rev / n))
    suu = su = sz = suz = 0.0
    lam_on = np.empty(t_hor)
    c_on = np.empty(t_hor)
    c_st = np.empty(t_hor)
    base = -sc.alphas / sc.betas
    for t in range(t_hor):
        if t > 0:
            a00, a01, a11 = suu + ridge, su, t + ridge
            mean = 0.5 * (a00 + a11)
            disc = math.hypot(0.5 * (a00 - a11), a01)
            if mean - disc <= 0.0 or mean + disc > _COND_LIMIT * (mean - disc):
                g1 = g2 = 0.0
            else:
                det = a00 * a11 - a01 * a01
                g1 = (a11 * suz - a01 * sz) / det
                g2 = (a00 * sz - a01 * suz) / det
            denom = n * g1 + n
            if abs(denom) >= _DENOM_TOL:
                lam = (sc.y * sc.d[t] - g2) / denom
        eps_on = rng.normal(0.0, sd, n) if sd else np.zeros(n)
        eps_cf = rng.normal(0.0, sd, n) if sd else np.zeros(n)
        x_on = n * lam / sc.betas + base + eps_on
        x_st = n * sc.lambda_star[t] / sc.betas + base + eps_cf
        lam_on[t] = lam
        c_on[t] = _stage_cost(sc, x_on, t)
        c_st[t] = _stage_cost(sc, x_st, t)
        u = n * lam
        z = float(x_on.sum())
        suu += u * u
        su += u
        sz += z
        suz += u * z
    return {"lambda_online": lam_on, "cost_online": c_on, "cost_star": c_st}


def compare_replication(
    ref: dict[str, np.ndarray], got: dict[str, np.ndarray]
) -> list[str]:
    """Names of the series where the program departs from the reference."""
    bad = []
    lam_ref, lam_got = ref["lambda_online"], np.asarray(got["lambda_online"])
    if lam_got.shape != lam_ref.shape or not np.all(
        np.abs(lam_got - lam_ref) <= PRICE_RTOL * np.abs(lam_ref)
    ):
        bad.append("lambda_online")
    for key in ("cost_online", "cost_star"):
        c_ref, c_got = ref[key], np.asarray(got[key])
        if c_got.shape != c_ref.shape or not np.all(
            np.abs(c_got - c_ref) <= COST_TOL * np.maximum(1.0, np.abs(c_ref))
        ):
            bad.append(key)
    return bad


def noise_floor(specs: list[ExperimentSpec], max_block: int = 1 << 20) -> tuple[float, int]:
    """Seconds to draw the loop's noise volume from the same streams.

    Each replication's stream is opened, its slot-1 uniform drawn, and
    its T*2*N normals drawn in blocks of at most max_block values, with
    the program out of the loop. Returns (seconds, normals drawn).
    """
    drawn = 0
    t0 = time.perf_counter()
    for spec in specs:
        per_slot = 2 * spec.n
        rows = max(1, max_block // per_slot)
        for r in range(spec.reps):
            rng = stream(spec.seed, 1, r)
            rng.uniform()
            left = spec.horizon
            while left:
                k = min(rows, left)
                rng.normal(0.0, spec.noise_sd, (k, 2, spec.n))
                left -= k
                drawn += k * per_slot
    return time.perf_counter() - t0, drawn
