import os

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """``dynamics.beside`` forks only where the process may run on two CPUs;
    on a host that gives fewer, report two, so that the suite exercises the
    fork paths it pins on every host. Tests of the one-CPU rule patch
    ``os.sched_getaffinity`` themselves."""
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
