"""Test-session setup shared by every test module."""

import os

import pytest


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    """Keep hypothesis's cache files, such as the source constants it
    collects from the test modules, in a pytest temporary directory rather
    than in the checkout.  Hypothesis reads the variable on its first
    storage access, which comes at collection, before any fixture runs."""
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = str(config._tmp_path_factory.mktemp("hypothesis"))
