import pytest

from permutiple import search


@pytest.fixture(autouse=True)
def fresh_caches():
    """Every test starts and ends with both search caches empty, so a plan
    or a search cached by one test cannot stand in for the code under a
    monkeypatch in another."""
    caches = (search._plan, search._search)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
