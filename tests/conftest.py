import mpmath as mp
import pytest

_DPS = mp.mp.dps


@pytest.fixture(autouse=True)
def mpmath_precision_is_left_alone():
    """Every mpmath oracle sets its precision with ``mp.workdps``: a global
    assignment would change the precision of every oracle run after it."""
    assert mp.mp.dps == _DPS, "mpmath's global precision was changed at import"
    yield
    assert mp.mp.dps == _DPS, "the test changed mpmath's global precision"
