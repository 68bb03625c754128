"""Input checks of the library, each called once with an input it refuses."""

import os

import numpy as np
import pytest

from harperlab import (RationalFrequency, build_phi, build_rep, build_uv, coefficient_sheet,
                       dual_check, farey, gaps, hamiltonian, label_to_index, phi_cumulative,
                       recursion_sheets, render, symmetrized_sheet, track_gap)
from harperlab.butterfly import ButterflyDataset
from harperlab.coefficients import CoefficientSheet
from harperlab.lyapunov import _brent

F13 = RationalFrequency(1, 3)


def sheet(kind="c", values=None):
    """A window-1 sheet of 1/3 at beta 0.5, z 4.2."""
    return CoefficientSheet(kind, F13, 0.5, 4.2, 1, np.zeros((3, 3)) if values is None else values)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: sheet(kind="x"), ValueError, "unknown sheet kind 'x'"),
    (lambda: sheet(values=np.zeros((2, 2))), ValueError, "does not match the window"),
    (lambda: sheet().value(2, 0), IndexError, "(2, 0) outside window 1"),
    (lambda: sheet().line(0, 0), ValueError, "slope must be +1 or -1"),
    (lambda: coefficient_sheet(F13, 0.0, 4.2, window=1), ValueError, "coupling must be positive"),
    (lambda: recursion_sheets(F13, 1.0, 4.2, window=1), ValueError, "need 0 < beta < 1"),
    (lambda: symmetrized_sheet(sheet(), sheet()), ValueError, "(right, left) pair"),
    (lambda: build_phi(sheet(), sheet()), ValueError, "(c, d) pair"),
    (lambda: farey(0), ValueError, "order must be >= 1"),
    (lambda: phi_cumulative(0), ValueError, "n must be >= 1"),
    (lambda: hamiltonian(build_rep(F13, 0.0, 0.0), 0.0), ValueError, "coupling must be positive"),
    (lambda: build_uv(build_rep(F13, 0.0, 0.0), -1.0), ValueError, "coupling must be positive"),
    (lambda: gaps(F13, -0.5), ValueError, "coupling must be nonnegative"),
    (lambda: dual_check(F13, 0.0), ValueError, "coupling must be positive"),
    (lambda: label_to_index((1, 0), RationalFrequency(2, 5)), ValueError,
     "gives gap index 5 outside 1..q-1"),
    (lambda: track_gap((0, 1), RationalFrequency(5, 8), [0.0, 1.0]), ValueError,
     "beta grid must be positive"),
    (lambda: render(ButterflyDataset(1.0, 1, (), 1e-9), os.devnull), ValueError,
     "empty dataset"),
], ids=["sheet-kind", "sheet-shape", "sheet-value", "sheet-line", "sheet-beta",
        "recursion-beta", "symmetrized-pair", "phi-pair", "farey-0", "phi-cumulative-0",
        "hamiltonian-beta", "ladder-beta", "gaps-beta", "dual-beta", "label-index",
        "track-grid-0", "render-empty"])
def test_refused_inputs_raise_and_say_why(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)


def test_brent_returns_b_when_f_vanishes_there():
    assert _brent(lambda x: x - 1.0, 0.0, 1.0, -1.0, 0.0) == 1.0
