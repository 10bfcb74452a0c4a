"""Shared test set-up: hypothesis draws the same examples on every run and
keeps no example database, so a run is reproducible.  Its other cache (the
constants it reads from the source) goes to a temporary directory removed
at the end of the run, so no ``.hypothesis/`` directory is written.  A
test's own ``@settings`` (max_examples, deadline) still applies on top of
this profile.  The ``tracer`` fixture counts the calls of functions under test."""

import tempfile

import numpy as np
import pytest
from hypothesis import configuration, settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_home.name)


def pytest_unconfigure(config):
    _home.cleanup()


class Tracer:
    """Wraps functions under test, for the length of a test.  Each call of a watched function
    is logged by its label, in order, and its array arguments' shapes are recorded under the
    label and under scope + label (scope, "" unless a test sets it, names what is running)."""

    def __init__(self, monkeypatch):
        self.monkeypatch, self.scope, self.log, self.calls = monkeypatch, "", [], {}

    def watch(self, owner, name: str, label: str | None = None):
        real, label = getattr(owner, name), label or name

        def traced(*args, **kwargs):
            self.log.append(label)
            shapes = tuple(np.shape(a) for a in args if isinstance(a, np.ndarray))
            for key in dict.fromkeys((label, self.scope + label)):
                self.calls.setdefault(key, []).append(shapes)
            return real(*args, **kwargs)

        self.monkeypatch.setattr(owner, name, traced)

    def table(self, expected: dict) -> dict:
        """The calls in the form of expected: per key, their number where it holds a number,
        else the shapes of each call's array arguments, in order."""
        return {key: (len if isinstance(want, int) else list)(self.calls.get(key, []))
                for key, want in expected.items()}


@pytest.fixture
def tracer(monkeypatch):
    return Tracer(monkeypatch)
