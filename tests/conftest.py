"""Shared test set-up: hypothesis draws the same examples on every run and
keeps no example database, so a run is reproducible.  Its other cache (the
constants it reads from the source) goes to a temporary directory removed
at the end of the run, so no ``.hypothesis/`` directory is written.  A
test's own ``@settings`` (max_examples, deadline) still applies on top of
this profile."""

import tempfile

from hypothesis import configuration, settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_home.name)


def pytest_unconfigure(config):
    _home.cleanup()
