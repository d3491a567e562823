import pytest

from hgpoly import corpus, pba


@pytest.fixture(scope="session")
def named():
    return corpus.named_corpus()


@pytest.fixture(scope="session")
def small_corpus():
    return corpus.small_corpus()


@pytest.fixture(scope="session")
def pba2():
    return pba.pba_setup(2)


@pytest.fixture(scope="session")
def pba3():
    return pba.pba_setup(3)


@pytest.fixture
def fresh_pba_setups():
    """Empty the process's shared pba setups before and after the test, so
    a test that patches the set-up path builds under its patch, and leaves
    no setup built under it for the tests after it."""
    pba._build_setup.cache_clear()
    yield
    pba._build_setup.cache_clear()
