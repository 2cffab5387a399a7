"""Shared fixtures: keep the on-disk result store out of the user's cache.

The experiment harness persists runs in a content-addressed store (default
``~/.cache/repro-cars``); tests must neither read a developer's warm store
nor leave entries behind, so every test sees a session-scoped temporary
root.  The store is session-scoped (not per-test) so figure functions keep
sharing runs within a test session, as they do in production.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ snapshots and trace digests from current runs",
    )


@pytest.fixture(scope="session")
def _store_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("result-store"))


@pytest.fixture(autouse=True)
def isolated_result_store(_store_root, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", _store_root)
    yield
