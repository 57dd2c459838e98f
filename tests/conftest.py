import pytest
from hypothesis import HealthCheck, settings

from pik.endos import compose, inverse

settings.register_profile(
    "pik",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pik")


@pytest.fixture
def commutator_endo():
    """[a, b] = a^-1 b^-1 a b of two flagged automorphisms, as a composition."""

    def com(a, b):
        return compose(compose(compose(inverse(a), inverse(b)), a), b)

    return com
