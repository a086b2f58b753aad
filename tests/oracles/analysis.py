"""Rational-nullspace invariants: the oracle of the Farkas semiflows.

:mod:`repro.petri.invariants` derives place invariants (semiflows) with the
Farkas algorithm over non-negative integers.  This module computes the
plain linear-algebra answer independently -- the incidence matrix and a
basis of its left/right nullspace by exact rational Gaussian elimination --
so every semiflow can be checked to annihilate the incidence matrix and to
lie in the span of this basis (``tests/test_petri_analysis_export.py``).

It also checks the DFS translation: every Boolean state variable of a DFS
node is encoded as a pair of complementary places (``x_0``/``x_1``) whose
token count is preserved by every transition, so each such pair must appear
as a place invariant.
"""

from fractions import Fraction

import numpy as np


def incidence_matrix(net):
    """Return ``(matrix, place_names, transition_names)``.

    ``matrix[i][j]`` is the net token change of place ``i`` when transition
    ``j`` fires (produced minus consumed).  Read arcs do not contribute.
    """
    place_names = sorted(net.places)
    transition_names = sorted(net.transitions)
    place_index = {name: i for i, name in enumerate(place_names)}
    matrix = np.zeros((len(place_names), len(transition_names)), dtype=np.int64)
    for j, transition in enumerate(transition_names):
        for place, weight in net.consumed_places(transition).items():
            matrix[place_index[place], j] -= weight
        for place, weight in net.produced_places(transition).items():
            matrix[place_index[place], j] += weight
    return matrix, place_names, transition_names


def _rational_nullspace(matrix):
    """Return a basis of the (right) nullspace of an integer matrix.

    Gaussian elimination over exact rationals (``fractions.Fraction``) keeps
    the result integral after clearing denominators, which is what invariant
    vectors need.
    """
    rows, cols = matrix.shape
    work = [[Fraction(int(matrix[r, c])) for c in range(cols)] for r in range(rows)]
    pivot_cols = []
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for row in range(pivot_row, rows):
            if work[row][col] != 0:
                pivot = row
                break
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        factor = work[pivot_row][col]
        work[pivot_row] = [value / factor for value in work[pivot_row]]
        for row in range(rows):
            if row != pivot_row and work[row][col] != 0:
                scale = work[row][col]
                work[row] = [
                    value - scale * pivot_value
                    for value, pivot_value in zip(work[row], work[pivot_row])
                ]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == rows:
            break
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vector = [Fraction(0)] * cols
        vector[free] = Fraction(1)
        for row_index, col in enumerate(pivot_cols):
            vector[col] = -work[row_index][free]
        # Clear denominators and normalise sign.
        denominators = [value.denominator for value in vector]
        lcm = 1
        for denominator in denominators:
            lcm = lcm * denominator // _gcd(lcm, denominator)
        integral = [int(value * lcm) for value in vector]
        gcd = 0
        for value in integral:
            gcd = _gcd(gcd, abs(value))
        if gcd > 1:
            integral = [value // gcd for value in integral]
        if any(value < 0 for value in integral) and not any(value > 0 for value in integral):
            integral = [-value for value in integral]
        basis.append(integral)
    return basis


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def place_invariants(net):
    """Return a list of place invariants, each a ``{place: weight}`` dict.

    A place invariant is an integer weighting of places whose weighted token
    sum is constant under every transition firing (a left nullspace vector of
    the incidence matrix).  Zero entries are omitted from the dictionaries.
    """
    matrix, place_names, _ = incidence_matrix(net)
    basis = _rational_nullspace(matrix.T)
    invariants = []
    for vector in basis:
        invariant = {
            place_names[i]: weight for i, weight in enumerate(vector) if weight != 0
        }
        if invariant:
            invariants.append(invariant)
    return invariants


def transition_invariants(net):
    """Return a list of transition invariants, each a ``{transition: count}`` dict.

    A transition invariant is a firing-count vector that returns the net to
    the same marking (a right nullspace vector of the incidence matrix).
    """
    matrix, _, transition_names = incidence_matrix(net)
    basis = _rational_nullspace(matrix)
    invariants = []
    for vector in basis:
        invariant = {
            transition_names[i]: count for i, count in enumerate(vector) if count != 0
        }
        if invariant:
            invariants.append(invariant)
    return invariants


def invariant_value(invariant, marking):
    """Evaluate the weighted token sum of *invariant* at *marking*."""
    return sum(weight * marking[place] for place, weight in invariant.items())
