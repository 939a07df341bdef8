import pytest
from hypothesis import settings

from protoseq import construct_si

# every property test draws its examples from a fixed derandomized stream,
# so each run checks the same inputs
settings.register_profile("protoseq", derandomize=True, deadline=None, max_examples=150)
settings.load_profile("protoseq")


@pytest.fixture
def example_set():
    """The worked three-user set with duty factors 2/3, 1/3, 1/3."""
    return construct_si(["2/3", "1/3", "1/3"])
