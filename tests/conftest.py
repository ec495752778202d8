import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

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


@pytest.fixture
def run_fresh():
    """stdout of a script run in a new interpreter that imports kernel_spectra from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(script):
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    return run
