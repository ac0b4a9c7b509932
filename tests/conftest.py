import pytest

from voterchain.verify import run_verify


@pytest.fixture(scope="session")
def verify_results():
    """The session's one `verify --fast --seed 0` run, with the negative
    control appended; the run without it is the same list less its last
    row.  Tests that need an unmutated row read it here."""
    return run_verify(seed=0, fast=True, inject_gamma_error=True)
