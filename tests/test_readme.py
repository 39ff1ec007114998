"""The README's quick start runs, and its commented values hold."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    """The README's first python code block, run; its names as a dict."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_quick_start_runs_and_its_comments_hold():
    ns = quick_start()
    av, f = ns["av"], ns["f"]
    assert av.apply(ns["e2"], 16, 2, 0.4) == pytest.approx(0.16, abs=1e-14)
    estimate = av.extrapolate(ns["series"]).limit_estimate
    assert estimate == pytest.approx(av.limit(f, (0.5, 0.5), 2), rel=1e-2)
    assert av.limit(f, (0.5, 0.5), 2) == pytest.approx(-0.25 * math.e, rel=1e-14)
    d = ns["d"]
    assert d.e_term + d.f_term + d.g_residual == pytest.approx(d.total, abs=1e-12)
