import mpmath as mp
import numpy as np
import pytest

_DPS = mp.mp.dps


@pytest.fixture(autouse=True)
def mpmath_precision_is_left_alone():
    """Every mpmath oracle sets its precision with ``mp.workdps``: a global
    assignment would change the precision of every oracle run after it."""
    assert mp.mp.dps == _DPS, "mpmath's global precision was changed at import"
    yield
    assert mp.mp.dps == _DPS, "the test changed mpmath's global precision"


@pytest.fixture(autouse=True)
def numpy_ufunc_state_is_left_alone():
    """akrvoro changes numpy's ufunc buffer size only inside its own loops
    and its error handling only inside ``np.errstate``: either one left
    changed would change numpy's behaviour for every caller after it."""
    bufsize, err = np.getbufsize(), np.geterr()
    yield
    assert np.getbufsize() == bufsize, "the test left numpy's ufunc buffer size changed"
    assert np.geterr() == err, "the test left numpy's error handling changed"
