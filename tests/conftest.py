import pytest

from mixeuler import expansion


@pytest.fixture
def rank_view_only(monkeypatch):
    """Make the auto engine fail unless it takes the rank view.

    Only matroids built during the test are held to it: the auto engine
    picks a view at a matroid's first query and keeps it on the matroid.
    """

    def refuse(*args):
        raise AssertionError("auto engine took the flat view")

    monkeypatch.setattr(expansion, "_flat_view", refuse)
