import numpy as np
import pytest

from dyadwave import refinable


@pytest.fixture(scope="session")
def registry():
    return refinable.load_registry()


@pytest.fixture(scope="session")
def haar(registry):
    return registry["haar"]


@pytest.fixture(scope="session")
def db2(registry):
    return registry["db2"]


@pytest.fixture(scope="session")
def db3(registry):
    return registry["db3"]


@pytest.fixture(scope="session")
def db4(registry):
    return registry["db4"]


@pytest.fixture(scope="session")
def spline24(registry):
    return registry["spline24"]


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture()
def at_buffer():
    """call(size, kernel, *args): kernel(*args) run with numpy's ufunc
    buffer at size, checking that the kernel leaves that size as it was."""
    def call(size, kernel, *args):
        with np.errstate():
            np.setbufsize(size)
            out = kernel(*args)
            assert np.getbufsize() == size
        return out

    return call
