import numpy as np
import pytest

from drpsim import Population, Scenario, online


def _random_scenario(rng, n=None, t=None, noise_sd=1.0):
    """Small random scenario for oracle cross-checks."""
    n = int(rng.integers(1, 11)) if n is None else n
    t = int(rng.integers(1, 6)) if t is None else t
    alphas = rng.uniform(0.5, 3.0, n)
    betas = rng.uniform(0.5, 5.0, n)
    d = tuple(float(v) for v in rng.uniform(0.5, 4.0, t))
    alpha_rev = float(rng.uniform(0.5, 2.0)) * max(d)
    return Scenario(
        population=Population(alphas, betas),
        demand=d,
        alpha_rev=alpha_rev,
        noise_sd=noise_sd,
    )


@pytest.fixture
def scenario_factory():
    return _random_scenario


@pytest.fixture
def unit_scenario():
    """N=1, T=1, alpha=0, beta=1, d=1, alpha_rev=1: every closed form is 1 or 2."""
    return Scenario(
        population=Population([0.0], [1.0]),
        demand=(1.0,),
        alpha_rev=1.0,
        noise_sd=0.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1905)


@pytest.fixture
def pools(monkeypatch):
    """The ThreadPoolExecutors drpsim.online constructs during the test, in order."""
    made = []

    class Counted(online.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(online, "ThreadPoolExecutor", Counted)
    return made
