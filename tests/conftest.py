from __future__ import annotations

import pytest
from hypothesis import settings

from qmaj import grids, rearrange, states

# every property test draws the same examples on every run, with no example
# database and no deadline, so a test that sets only max_examples keeps
# Tier-1 deterministic
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def half_grid() -> grids.GridSpec:
    return grids.default_grid(modes=1, hbar="half")


@pytest.fixture(scope="session")
def one_grid() -> grids.GridSpec:
    return grids.default_grid(modes=1, hbar="one")


@pytest.fixture(scope="session")
def fock(half_grid):
    """Rendered Fock Wigner functions |0>..|5> on the default grid."""
    return {n: states.render(states.Fock(n), half_grid) for n in range(6)}


@pytest.fixture(scope="session")
def vacuum_ref(half_grid):
    return states.reference(states.VACUUM, half_grid)


@pytest.fixture(scope="session")
def zoo(half_grid):
    """The recurring mixed bag of states used by property suites."""
    specs = {
        "fock0": "vacuum",
        "fock1": "fock:1",
        "fock4": "fock:4",
        "thermal04": "thermal(nbar=0.4)",
        "coherent": "coherent(alpha=1.2)",
        "cat2": "cat(alpha=2)",
        "on23": "on(a=2, n=3)",
        "lossy1": "lossy(eta=0.7, fock:1)",
        "rho1": "mix(0.75:cat(alpha=2), 0.25:fock:7)",
        "rho2": "mix(0.5:on(a=2,n=3), 0.5:fock:1)",
    }
    return {k: states.render(v, half_grid) for k, v in specs.items()}


@pytest.fixture
def two_cpus(monkeypatch):
    """Build a verdict's second operand on the worker thread, as on any host
    with two usable CPUs (see rearrange._ahead)."""
    monkeypatch.setattr(rearrange, "_cpus", lambda: 2)


@pytest.fixture
def fresh():
    """A copy of a function in its storage form, sharing its arrays: a new
    object, for which no rearrangement is kept (see rearrange._rearrange)."""

    def copy(f: grids.SampledDistribution) -> grids.SampledDistribution:
        values = None if f.factors or f.fold is not None else f.values
        kw = {"fold": f.fold, "group": f.group}
        if isinstance(f, grids.ReferenceDistribution):
            kw["integrable"] = f.integrable
        return type(f)(f.grid, values, f.factors, **kw)

    return copy
