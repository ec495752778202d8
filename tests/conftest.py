import os
import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

from kernel_spectra.quadrature import uniform_rule
from kernel_spectra.spectra import (
    assemble,
    cross_validate_k2,
    eigenfunction,
    eigensolve,
)

settings.register_profile(
    "default",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


# the N = 256 K2 matrix fill costs several seconds, so it and the spectra it
# builds on are session-scoped and shared by the spectra, calculus, and
# acceptance test modules


@pytest.fixture(scope="session")
def rule256():
    return uniform_rule()


@pytest.fixture(scope="session")
def op256(rule256):
    return assemble(rule256)


@pytest.fixture(scope="session")
def spec256(op256):
    return eigensolve(op256)


@pytest.fixture(scope="session")
def rule400():
    return uniform_rule(100, 4)


@pytest.fixture(scope="session")
def spec400(rule400):
    return eigensolve(assemble(rule400))


@pytest.fixture(scope="session")
def rule512():
    return uniform_rule(128, 4)


@pytest.fixture(scope="session")
def spec512(rule512):
    return eigensolve(assemble(rule512))


@pytest.fixture(scope="session")
def xcheck256(rule256, spec256):
    return cross_validate_k2(rule256, count=10, spectrum=spec256)


@pytest.fixture(scope="session")
def handles400(spec400, rule400):
    return [eigenfunction(spec400, j, rule400) for j in range(1, 100)]


@pytest.fixture
def traced_peak():
    """A call fn(*args) -> (its value, the peak bytes tracemalloc saw during it)."""
    def run(fn, *args):
        tracemalloc.start()
        try:
            value = fn(*args)
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
