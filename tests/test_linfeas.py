"""Exact feasibility solving over the open unit box."""

import os
import random
import re
import subprocess
import sys
import textwrap
import unittest
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from blprover import linfeas
from blprover.linfeas import FeasibilityResult, LinConstraint, solve
from support import reference_solve


def _holds(constraint, point):
    total = sum(coeff * point[var] for var, coeff in constraint.coefficients.items())
    return total < constraint.bound if constraint.strict else total <= constraint.bound


class TestLinearFeasibility(unittest.TestCase):
    def _assert_witness(self, result, constraints):
        self.assertTrue(result.feasible)
        for index, value in result.witness.items():
            self.assertIsInstance(value, Fraction)
            self.assertTrue(0 <= value < 1, f"x{index}={value} outside the box")
        for constraint in constraints:
            self.assertTrue(_holds(constraint, result.witness), constraint)

    def test_empty_system(self):
        result = solve([], [])
        self.assertEqual(result, FeasibilityResult(True, {}))

    def test_box_only(self):
        result = solve([], [1, 2])
        self._assert_witness(result, [])
        self.assertEqual(set(result.witness), {1, 2})

    def test_single_strict(self):
        constraints = [LinConstraint({1: 1, 2: -1}, 0, strict=True)]
        self._assert_witness(solve(constraints, [1, 2]), constraints)

    def test_sum_squeeze_infeasible(self):
        # x1 + x2 >= 1 together with x1 + x2 < 1
        constraints = [
            LinConstraint({1: -1, 2: -1}, -1),
            LinConstraint({1: 1, 2: 1}, 1, strict=True),
        ]
        self.assertFalse(solve(constraints, [1, 2]).feasible)

    def test_sum_squeeze_non_strict_boundary(self):
        constraints = [
            LinConstraint({1: -1, 2: -1}, -1),
            LinConstraint({1: 1, 2: 1}, 1),
        ]
        self._assert_witness(solve(constraints, [1, 2]), constraints)

    def test_strict_cycle_infeasible(self):
        constraints = [
            LinConstraint({1: 1, 2: -1}, 0, strict=True),
            LinConstraint({2: 1, 3: -1}, 0, strict=True),
            LinConstraint({3: 1, 1: -1}, 0, strict=True),
        ]
        self.assertFalse(solve(constraints, [1, 2, 3]).feasible)

    def test_equality_via_two_inequalities(self):
        constraints = [
            LinConstraint({1: 1, 2: -1}, 0),
            LinConstraint({2: 1, 1: -1}, 0),
        ]
        result = solve(constraints, [1, 2])
        self._assert_witness(result, constraints)
        self.assertEqual(result.witness[1], result.witness[2])

    def test_constant_rows(self):
        self.assertFalse(solve([LinConstraint({}, 0, strict=True)], [1]).feasible)
        self.assertTrue(solve([LinConstraint({}, 0)], [1]).feasible)
        self.assertFalse(solve([LinConstraint({}, -1)], []).feasible)

    def test_unlisted_variable_rejected(self):
        with self.assertRaises(ValueError):
            solve([LinConstraint({7: 1}, 0)], [1])

    def test_tight_strict_chain_still_feasible(self):
        # scaled encoding of 1/2 < x2 < x1 with x1 + x2 > 3/2
        constraints = [
            LinConstraint({2: -2}, -1, strict=True),
            LinConstraint({2: 1, 1: -1}, 0, strict=True),
            LinConstraint({1: -2, 2: -2}, -3, strict=True),
        ]
        result = solve(constraints, [1, 2])
        self._assert_witness(result, constraints)
        self.assertEqual(result.witness, {1: Fraction(7, 8), 2: Fraction(3, 4)})

    def test_non_integer_input_rejected(self):
        for bad in (Fraction(1, 2), 0.5, True):
            with self.assertRaisesRegex(ValueError, re.escape(repr(bad))):
                solve([LinConstraint({1: bad}, 0)], [1])
            with self.assertRaisesRegex(ValueError, re.escape(repr(bad))):
                solve([LinConstraint({1: 1}, bad)], [1])

    def test_iterator_input_is_rechecked(self):
        rows = [LinConstraint({1: -2}, -1, strict=True), LinConstraint({1: 4}, 3)]
        self.assertEqual(solve(iter(rows), [1]), solve(rows, [1]))
        # Simulate an elimination bug that loses the row x1 > 1/2: the final
        # re-check must still see that row when it came from a one-shot iterator.
        primitive = linfeas._primitive

        def lose_row(coeffs, bound, strict):
            return None if strict and coeffs == (-2,) else primitive(coeffs, bound, strict)

        with mock.patch.object(linfeas, "_primitive", lose_row):
            with self.assertRaisesRegex(AssertionError, "witness fails an input row"):
                solve(iter(rows[:1]), [1])

    def test_positive_multiples_are_kept_once(self):
        # Scaled copies change no verdict or witness, so only the work shows
        # them: every row, input or combined, passes through _primitive once.
        def rows_made(scales):
            rows = [LinConstraint({1: k, 2: -k}, k, strict=True) for k in scales]
            rows.append(LinConstraint({1: -1, 2: 2}, 0))
            spy = mock.Mock(wraps=linfeas._primitive)
            with mock.patch.object(linfeas, "_primitive", spy):
                result = solve(rows, [1, 2])
            return result, spy.call_count

        single, single_rows = rows_made([1])
        scaled, scaled_rows = rows_made([1, 2, 3])
        self.assertEqual(scaled, single)
        self.assertEqual(scaled_rows, single_rows + 2)

    def test_interval_check_survives_optimised_mode(self):
        # Under -O assert statements vanish; a solver bug that lets the
        # infeasible pair 1/2 <= x1 <= 1/4 through must still stop at the
        # back-substitution interval check.
        script = textwrap.dedent(
            """
            import sys
            from blprover import linfeas

            if __debug__:
                sys.exit("assertions are still enabled")
            primitive = linfeas._primitive

            def keep_going(coeffs, bound, strict):
                try:
                    return primitive(coeffs, bound, strict)
                except linfeas._InfeasibleRow:
                    return None

            linfeas._primitive = keep_going
            rows = [linfeas.LinConstraint({1: -2}, -1), linfeas.LinConstraint({1: 4}, 1)]
            try:
                linfeas.solve(rows, [1])
            except AssertionError as exc:
                sys.exit(0 if "empty interval" in str(exc) else f"wrong check fired: {exc}")
            sys.exit("an infeasible system came back feasible")
            """
        )
        src = str(Path(linfeas.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_agrees_with_grid_enumeration(self):
        rng = random.Random(8)
        grid = [Fraction(k, 6) for k in range(6)]
        for _ in range(80):
            var_ids = [1, 2] if rng.random() < 0.7 else [1, 2, 3]
            constraints = [
                LinConstraint(
                    {i: rng.randint(-2, 2) for i in var_ids},
                    rng.randint(-2, 2),
                    strict=rng.random() < 0.5,
                )
                for _ in range(rng.randint(1, 4))
            ]
            result = solve(constraints, var_ids)
            grid_hit = any(
                all(_holds(c, dict(zip(var_ids, point))) for c in constraints)
                for point in product(grid, repeat=len(var_ids))
            )
            if grid_hit:
                # the exact solver must certainly find a point
                self._assert_witness(result, constraints)
            elif result.feasible:
                # a witness off the sixths grid is fine, but must check out
                self._assert_witness(result, constraints)


@st.composite
def _systems(draw):
    # Ids from 10 up make the repr elimination order differ from numeric
    # order.  A row mentions at most four variables: nearly all of the
    # prover's rows are that sparse, and dense random rows make elimination
    # blow up.
    var_ids = draw(st.lists(st.integers(1, 15), min_size=1, max_size=8, unique=True))
    row = st.builds(
        LinConstraint,
        st.dictionaries(st.sampled_from(var_ids), st.integers(-3, 3), max_size=4),
        st.integers(-4, 4),
        st.booleans(),
    )
    return draw(st.lists(row, max_size=12)), var_ids


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_systems())
def test_agrees_with_the_fraction_solver(system):
    constraints, var_ids = system
    expected = reference_solve(constraints, var_ids)
    result = solve(constraints, var_ids)
    assert result.feasible == expected.feasible
    assert result.witness == expected.witness
    if expected.witness is not None:
        assert list(result.witness) == list(expected.witness)
        assert all(type(value) is Fraction for value in result.witness.values())


if __name__ == "__main__":
    unittest.main()
