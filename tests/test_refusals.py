"""Input checks of the library, each called once with an input it refuses."""

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from harperlab import (RationalFrequency, build_phi, build_rep, build_uv, chambers,
                       coefficient_sheet, critical_scan, dual_check, farey, gaps, hamiltonian,
                       label_to_index, phi_cumulative, recursion_sheets, render, rho_images,
                       symmetrized_sheet, track_gap)
from harperlab import coefficients, spectrum
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
    (lambda: gaps(F13, -0.5), ValueError, "coupling must be finite and nonnegative, got -0.5"),
    (lambda: dual_check(F13, 0.0), ValueError, "coupling must be positive"),
    (lambda: label_to_index((1, 0), RationalFrequency(2, 5)), ValueError,
     "gives gap index 5 outside 1..q-1"),
    (lambda: track_gap((0, 1), RationalFrequency(5, 8), [0.0, 1.0]), ValueError,
     "beta grid must be positive"),
    (lambda: render(ButterflyDataset(1.0, 1, (), 1e-9), os.devnull), ValueError,
     "empty dataset"),
    (lambda: chambers(RationalFrequency(987, 1597), 2.0), ArithmeticError,
     "-2 beta^q leaves the float64 range at q=1597, beta=2.0"),
    (lambda: rho_images(build_rep(F13, math.pi / 3, 0.0), 1.0), np.linalg.LinAlgError,
     "u*v + beta nearly singular at beta=1.0 (cond="),
    (lambda: critical_scan(F13, 0.5, SimpleNamespace(lo=10.0, hi=11.0, j=1, label=(0, 1))),
     ValueError, "gap (0, 1) at 1/3: f(a) and f(b) must have different signs"),
], ids=["sheet-kind", "sheet-shape", "sheet-value", "sheet-line", "sheet-beta",
        "recursion-beta", "symmetrized-pair", "phi-pair", "farey-0", "phi-cumulative-0",
        "hamiltonian-beta", "ladder-beta", "gaps-beta", "dual-beta", "label-index",
        "track-grid-0", "render-empty", "chambers-beta-power", "rho-singular",
        "scan-no-sign-change"])
def test_refused_inputs_raise_and_say_why(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)


def test_brent_returns_b_when_f_vanishes_there():
    assert _brent(lambda x: x - 1.0, 0.0, 1.0, -1.0, 0.0) == 1.0


def test_a_complex_coefficient_sheet_is_refused(monkeypatch):
    """A Harper matrix that is not Hermitian (i/10 on the diagonal) breaks the
    conjugation symmetry the sheet folds with, so its entries come out complex
    and `coefficient_sheet` refuses them."""
    real = spectrum.harper_matrix
    monkeypatch.setattr(coefficients, "harper_matrix",
                        lambda freq, *args: real(freq, *args) + 0.1j * np.eye(freq.q))
    with pytest.raises(ArithmeticError, match="sheet entries should be real; worst imaginary"):
        coefficient_sheet(F13, 0.5, 4.2, window=1)
