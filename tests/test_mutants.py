"""Deliberately wrong builds that ``verify`` must refuse.

Each mutant is patched in process, and a test asserts that some criterion
reports FAIL under it.  Caught so far:

- e. the support window drops up to 1e-6 of the weights' mass per axis
  (delta = 1e-6 in place of SUPPORT_DELTA): criterion 1 sums the windowed
  weights that every operator sums, so their lost mass shows in the
  partition of unity.

Not yet caught, each with the reason it passes today:

- a. the square's operator pairs x's weights with y's window and the
  reverse: both 2-d functions that ``verify`` uses are symmetric under
  s <-> t, so the swap changes no value it checks.
- b. every limit is evaluated at the transposed point: the same symmetry.
- c. the drift term of every limit is scaled by 1.01: criterion 4 accepts
  an error of 1e-2 and criteria 5 and 6 one of 2e-2, more than 1% moves.
- d. every limit is scaled by 1.01: the same tolerances.
- f. the 2-d reduction drops its Kahan compensation: its effect stays in
  the last bits, below every tolerance of ``verify`` by design.
"""

import math

from akrvoro import _kernels
from akrvoro.acceptance import run_criterion


def test_criterion_1_passes_the_unpatched_build():
    assert run_criterion(1).passed


def test_criterion_1_fails_a_support_window_that_drops_mass(monkeypatch):
    # mutant e: delta = 1e-6 in place of SUPPORT_DELTA
    monkeypatch.setattr(_kernels, "_SUPPORT_LOG", math.log(2.0 / 1e-6) / 2.0)
    assert not run_criterion(1).passed
