import os

import numpy as np
import pytest
import scipy

from exseq.refsimplex import make_reference_cell


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs_dir, "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def pytest_report_header(config):
    # criterion 08's detail line depends on the BLAS thread count, so gate
    # outputs compare only between runs that show the same count
    env = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    threads = _blas_threads()
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"BLAS threads {'unknown' if threads is None else threads}, "
            f"OPENBLAS_NUM_THREADS={env}")


@pytest.fixture(scope="session")
def rc3():
    return make_reference_cell(3).cell


@pytest.fixture(scope="session")
def rc2():
    return make_reference_cell(2).cell


@pytest.fixture(scope="session")
def rc1():
    return make_reference_cell(1).cell


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
