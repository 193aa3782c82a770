"""Verdicts pinned to a published phase-space majorization theorem.

F. Nicola and P. Tilli, "The Faber-Krahn inequality for the short-time
Fourier transform", Invent. Math. 230, 1-30 (2022), prove that the Husimi
function of any state puts at most 1 - exp(-s / (2 pi hbar)) of its mass on
any set of measure s, and that coherent states reach the bound.  With
hbar = 1/2 the vacuum's regular Husimi curve is therefore 1 - exp(-s / pi),
and every regular Husimi curve lies below it: the vacuum majorizes the
Husimi function of every state, and is equivalent to that of a coherent
state.  These checks compare the engine with the theorem, not with its own
past output.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from qmaj import states
from qmaj.compare import Outcome, compare
from qmaj.rearrange import lorenz_curves

compare_module = importlib.import_module("qmaj.compare")

# the vacuum's curve meets the closed form to 5.5e-6 on the default grid
# (the grid's error); the check allows twice that
HUSIMI_CURVE_TOL = 2 * 5.5e-6


@pytest.fixture(scope="module")
def husimi_vacuum(half_grid):
    return states.render("vacuum", half_grid, rep=states.HUSIMI)


def test_vacuum_husimi_curve_is_the_faber_krahn_bound(husimi_vacuum):
    pos, neg = lorenz_curves(husimi_vacuum)
    bound = 1.0 - np.exp(-pos.s / np.pi)
    assert np.abs(pos.L - bound).max() <= HUSIMI_CURVE_TOL
    # a Husimi function is positive: its negative curve is the point (0, 0)
    assert neg.s.tolist() == [0.0] and neg.L.tolist() == [0.0]


@pytest.mark.parametrize(
    "spec, outcome",
    [
        ("fock:1", Outcome.MAJORIZES),
        ("fock:2", Outcome.MAJORIZES),
        ("fock:5", Outcome.MAJORIZES),
        ("thermal(nbar=1)", Outcome.MAJORIZES),
        ("cat(alpha=1)", Outcome.MAJORIZES),
        ("lossy(eta=0.7, fock:1)", Outcome.MAJORIZES),
        ("coherent(alpha=1)", Outcome.EQUIVALENT),
    ],
)
def test_vacuum_majorizes_every_husimi_function(husimi_vacuum, half_grid, spec, outcome):
    husimi = states.render(spec, half_grid, rep=states.HUSIMI)
    assert compare(husimi_vacuum, husimi).outcome is outcome
    # every curve is sound, so the verdict read only the blocks that can
    # decide it
    for curve in lorenz_curves(husimi_vacuum) + lorenz_curves(husimi):
        assert curve._blocks(compare_module.BLOCK).sound
