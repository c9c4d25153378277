import pytest

from mixeuler import expansion


@pytest.fixture
def rank_view_only(monkeypatch):
    """Make the degree DP fail unless it takes the rank view.

    Only matroids built during the test are held to it: the DP picks a
    view at a matroid's first query and keeps it on the matroid.
    """

    def refuse(*args):
        raise AssertionError("the DP took the flat view")

    monkeypatch.setattr(expansion, "_flat_view", refuse)
