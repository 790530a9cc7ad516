import os

import numpy as np
import pytest
import scipy

from exseq.refsimplex import make_reference_cell


def pytest_report_header(config):
    # criterion 08's detail line depends on the BLAS thread count, so gate
    # outputs compare only between runs that show the same setting
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"OPENBLAS_NUM_THREADS={threads}")


@pytest.fixture(scope="session")
def rc3():
    return make_reference_cell(3)


@pytest.fixture(scope="session")
def rc2():
    return make_reference_cell(2)


@pytest.fixture(scope="session")
def rc1():
    return make_reference_cell(1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
