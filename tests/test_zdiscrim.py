import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from discrimlab import zdiscrim
from discrimlab.zdiscrim import (
    BallSpec,
    ZnHom,
    _canonical_rows,
    _half_ball,
    _lex_first_member,
    lower_bound_value,
    minimal_complexity,
    theta,
)
from discrimlab.errors import AscentExhausted, BudgetExceeded
import oracles
from oracles import (
    ball_points,
    box_filtered_half_ball,
    brute_minimal_complexity,
    brute_shell_vectors,
    half_ball_points,
    interval_half_width,
    siegel_bound,
    siegel_small_kernel,
    verify_bijection,
)


class TestTheta:
    def test_coefficients_are_base_powers(self):
        assert theta(3, 2).coefficients == (1, 5, 25)
        assert theta(1, 7).coefficients == (1,)
        assert theta(4, 1).coefficients == (1, 3, 9, 27)
        # the retraction at p stretches theta by p: t_i -> u^(p (2R+1)^(i-1))
        assert tuple(7 * c for c in theta(2, 2).coefficients) == (7, 35)

    def test_n1_is_identity(self):
        h = theta(1, 5)
        for t in range(-5, 6):
            assert h((t,)) == t

    def test_complexity(self):
        assert theta(3, 2).complexity == 25
        assert theta(1, 9).complexity == 1

    @given(st.integers(1, 4), st.integers(0, 3))
    def test_bijection_small(self, n, R):
        assert verify_bijection(n, R)

    def test_half_width(self):
        assert interval_half_width(2, 1) == 4
        assert interval_half_width(3, 2) == 62

    def test_image_fills_interval_edge(self):
        # the all-R corner maps to the interval endpoint
        h = theta(3, 1)
        assert h((1, 1, 1)) == interval_half_width(3, 1)

    @given(
        st.integers(1, 3),
        st.integers(0, 2),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    def test_linearity(self, n, R, v, w):
        h = theta(3, R)
        assert h([x + y for x, y in zip(v, w)]) == h(v) + h(w)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            theta(3, 1)((1, 1))


def _shell_ms(n):
    """Every m whose cube [-m, m]^n has at most 10^5 points, up to m = 40."""
    m = 1
    while (2 * m + 1) ** n <= 10**5 and m <= 40:
        yield m
        m += 1


class TestShells:
    """The oracles' brute-force shells, whose sizes the budget's closed form rests on."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_brute_force_in_order(self, n):
        # the shell filtered from the whole cube, lex order, first nonzero entry positive
        for m in _shell_ms(n):
            cube = itertools.product(range(-m, m + 1), repeat=n)
            expect = [
                v for v in cube
                if max(map(abs, v)) == m and next(x for x in v if x) > 0
            ]
            shell = brute_shell_vectors(n, m)
            assert [tuple(v) for v in shell.tolist()] == expect, m
            assert len(shell) == ((2 * m + 1) ** n - (2 * m - 1) ** n) // 2


class TestHalfBall:
    @pytest.mark.parametrize("shape", ["l1", "box"])
    def test_matches_box_filter(self, shape):
        for n in range(1, 6):
            for R in range(7):
                spec = BallSpec(shape, R)
                assert np.array_equal(_half_ball(n, spec), box_filtered_half_ball(n, spec)), (n, R)


# (n, R, budget) per shape.  At n = 4 the box searches for R >= 2 run past
# any budget near the default; 30,000 is one the brute force reaches cheaply.
_ORACLE_CASES = (
    [(2, R, zdiscrim.DEFAULT_ENUM_BUDGET) for R in range(7)]
    + [(3, R, zdiscrim.DEFAULT_ENUM_BUDGET) for R in range(7)]
    + [(4, R, 30_000) for R in range(4)]
)


def _outcome(search, n, spec, budget):
    try:
        return search(n, spec, budget)
    except BudgetExceeded:
        return "budget exceeded"


@lru_cache(maxsize=None)
def _oracle_outcome(n, shape, R, budget):
    return _outcome(brute_minimal_complexity, n, BallSpec(shape, R), budget)


class TestMinimalComplexity:
    @pytest.mark.parametrize("block_cells", [None, 1, 7])
    @pytest.mark.parametrize("shape", ["l1", "box"])
    def test_matches_unblocked_oracle(self, shape, block_cells, monkeypatch):
        if block_cells is not None:
            monkeypatch.setattr(zdiscrim, "SCAN_BLOCK_CELLS", block_cells)
        for n, R, budget in _ORACLE_CASES:
            expect = _oracle_outcome(n, shape, R, budget)
            got = _outcome(minimal_complexity, n, BallSpec(shape, R), budget)
            assert got == expect, (n, R)

    def test_budget_checked_before_the_shell_is_built(self, monkeypatch):
        # n = 2 shells hold 4m candidates: 4, 12, 24 cumulative
        built = []

        def spy(n, m):
            built.append(m)
            return _canonical_rows(n, m)

        monkeypatch.setattr(zdiscrim, "_canonical_rows", spy)
        for budget, expect in [(11, [1]), (23, [1, 2])]:
            built.clear()
            with pytest.raises(BudgetExceeded):
                minimal_complexity(2, BallSpec("l1", 6), budget=budget)
            assert built == expect
        built.clear()
        assert minimal_complexity(2, BallSpec("l1", 6), budget=40)[0] == 4
        assert built == [1, 2, 3, 4]

    @pytest.mark.parametrize("shape", ["l1", "box"])
    def test_start_at_previous_minimum_keeps_the_result(self, shape):
        # the CLI's sweep: radius R starts at the minimum of radius R - 1
        outcomes = []
        for n, R, budget in _ORACLE_CASES:
            if R == 0:
                continue
            previous = _outcome(minimal_complexity, n, BallSpec(shape, R - 1), budget)
            if previous == "budget exceeded":
                continue
            spec = BallSpec(shape, R)
            expect = _outcome(minimal_complexity, n, spec, budget)
            got = _outcome(partial(minimal_complexity, start=previous[0]), n, spec, budget)
            assert got == expect, (n, R)
            outcomes.append(got)
        # n = 4, box R = 2 passes the budget after R = 1 found 7
        assert ("budget exceeded" in outcomes) == (shape == "box")

    def test_no_shell_below_start_is_built(self, monkeypatch):
        # n = 2 shells hold 4m candidates: 4, 12, 24, 40 cumulative
        built = []

        def spy(n, m):
            built.append(m)
            return _canonical_rows(n, m)

        monkeypatch.setattr(zdiscrim, "_canonical_rows", spy)
        assert minimal_complexity(2, BallSpec("l1", 6), budget=40, start=3)[0] == 4
        assert built == [3, 4]
        # the budget counts shells 1..m whatever the start
        built.clear()
        with pytest.raises(BudgetExceeded):
            minimal_complexity(2, BallSpec("l1", 6), budget=23, start=3)
        assert built == []
        with pytest.raises(ValueError):
            minimal_complexity(2, BallSpec("l1", 6), start=0)

    @pytest.mark.parametrize("shape", ["l1", "box"])
    def test_budget_edge_is_the_closed_form(self, shape):
        # shells 1..m hold ((2m+1)^n - 1) / 2 candidates: that budget
        # answers and one less raises, from shell 1 and from the previous
        # radius's minimum; R = 0 searches no shell
        for n, R, budget in _ORACLE_CASES:
            answer = _oracle_outcome(n, shape, R, budget)
            if R == 0 or answer == "budget exceeded":
                continue
            edge = ((2 * answer[0] + 1) ** n - 1) // 2
            spec = BallSpec(shape, R)
            for start in {1, _oracle_outcome(n, shape, R - 1, budget)[0]}:
                assert minimal_complexity(n, spec, edge, start=start) == answer, (n, R, start)
                with pytest.raises(BudgetExceeded):
                    minimal_complexity(n, spec, edge - 1, start=start)

    @pytest.mark.parametrize("shape", ["l1", "box"])
    def test_radius_zero_witness_is_shell_one_first_row(self, shape):
        # the punctured ball is empty, so every vector discriminates, and
        # the lex-first one is shell 1's first row, whatever the budget
        for n in range(2, 6):
            spec = BallSpec(shape, 0)
            expect = (1, ZnHom(tuple(int(c) for c in brute_shell_vectors(n, 1)[0])))
            assert expect[1].coefficients == (0,) * (n - 1) + (1,)
            assert minimal_complexity(n, spec) == expect
            assert minimal_complexity(n, spec, budget=0) == expect
            assert brute_minimal_complexity(n, spec) == expect

    def test_start_above_the_theta_ceiling_is_typed(self):
        # theta(2, 2) has complexity 5, and theta(1, 2) complexity 1
        assert minimal_complexity(2, BallSpec("l1", 2), start=5)[0] == 5
        for n, start in [(2, 6), (2, 100), (1, 2)]:
            with pytest.raises(ValueError, match=r"start must lie in 1\.\."):
                minimal_complexity(n, BallSpec("l1", 2), start=start)

    def test_no_shell_outlives_the_search(self):
        # numpy reports its buffers to tracemalloc, so a kept shell would
        # show; the first search sets up numpy's own lazy state
        minimal_complexity(4, BallSpec("l1", 2))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            minimal_complexity(4, BallSpec("l1", 4))
            after = tracemalloc.get_traced_memory()[0]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert after - before < 64 * 1024

    def test_theta_ceiling_violation_is_typed(self, monkeypatch):
        monkeypatch.setattr(zdiscrim, "theta", lambda n, R: ZnHom((1,) * n))
        with pytest.raises(AscentExhausted) as exc:
            minimal_complexity(2, BallSpec("l1", 2))
        err = exc.value
        assert (err.ceiling, err.R) == (1, 2)
        assert err.witness == ((1, 1), (1, -1))

    def test_frozen_small_values(self):
        m, h = minimal_complexity(2, BallSpec("l1", 1))
        assert m == 1
        m, h = minimal_complexity(2, BallSpec("l1", 2))
        assert m == 2

    def test_frozen_values_past_the_default_budget(self):
        # at n = 4, shells 1..22 hold 2,050,312 candidates and shells 1..28
        # hold 5,278,120, both past the default budget
        lifted = 10**12
        assert minimal_complexity(4, BallSpec("box", 2), lifted) == (22, ZnHom((7, -22, -21, -19)))
        assert minimal_complexity(4, BallSpec("l1", 6), lifted)[0] == 28

    def test_shell_name_is_an_alias_of_the_canonical_rows(self):
        assert zdiscrim._shell_vectors_cached is zdiscrim._canonical_rows

    def test_witness_discriminates(self):
        for R in range(1, 5):
            spec = BallSpec("l1", R)
            m, h = minimal_complexity(2, spec)
            assert h.complexity == m
            assert all(h(v) != 0 for v in ball_points(2, spec) if any(v))

    def test_upper_bounded_by_theta(self):
        for n, R in [(2, 3), (3, 2)]:
            m, _ = minimal_complexity(n, BallSpec("box", R))
            assert m <= theta(n, R).complexity

    def test_minimality(self):
        # nothing strictly below the reported complexity discriminates
        spec = BallSpec("l1", 3)
        m, _ = minimal_complexity(2, spec)
        pts = [v for v in ball_points(2, spec) if any(v)]
        for c1 in range(-(m - 1), m):
            for c2 in range(-(m - 1), m):
                if (c1, c2) == (0, 0):
                    continue
                assert any(c1 * v[0] + c2 * v[1] == 0 for v in pts)

    def test_n1_trivial(self):
        m, h = minimal_complexity(1, BallSpec("l1", 9))
        assert m == 1 and h.coefficients == (1,)

    def test_box_at_least_l1(self):
        for R in range(1, 4):
            ml, _ = minimal_complexity(2, BallSpec("l1", R))
            mb, _ = minimal_complexity(2, BallSpec("box", R))
            assert mb >= ml

    def test_empty_ball(self):
        m, h = minimal_complexity(3, BallSpec("l1", 0))
        assert m == 1 and h.n == 3


class TestOrbitReduction:
    """The signed-permutation reduction of the complexity search against the brute-force shells."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_canonical_rows_and_lex_first_members(self, n):
        for m in _shell_ms(n):
            # the least shell row of each orbit, keyed by its sorted |v|
            least = {}
            for v in map(tuple, brute_shell_vectors(n, m).tolist()):
                least.setdefault(tuple(sorted(map(abs, v))), v)
            canonical = [tuple(c) for c in _canonical_rows(n, m).tolist()]
            assert canonical == sorted(least), (n, m)
            assert len(canonical) == math.comb(m + n - 1, n - 1), (n, m)
            for c in canonical:
                assert _lex_first_member(c) == least[c], (n, m, c)

    @pytest.mark.parametrize("shape", ["l1", "box"])
    def test_primitive_filter_keeps_the_result(self, shape, monkeypatch):
        specs = [(n, BallSpec(shape, R), budget) for n, R, budget in _ORACLE_CASES]
        expect = [_outcome(minimal_complexity, *case) for case in specs]
        # the same search against every half-ball point, primitive or not
        full = {(n, spec): half_ball_points(n, spec) for n, spec, _ in specs}
        assert any(len(full[n, spec]) > len(_half_ball(n, spec)) for n, spec, _ in specs)
        monkeypatch.setattr(zdiscrim, "_half_ball", lambda n, spec: full[n, spec])
        assert [_outcome(minimal_complexity, *case) for case in specs] == expect


class TestSiegel:
    def test_bound_values(self):
        assert siegel_bound(2, 10) == 20
        assert siegel_bound(3, 3) == 3
        assert siegel_bound(4, 10) == 3  # floor(40^(1/3))

    def test_kernel_examples(self):
        assert siegel_small_kernel((3, -2, 1), 3) == (1, 1, -1)
        v = siegel_small_kernel((1, 1), 1)
        assert v[0] * 1 + v[1] * 1 == 0

    def test_seeded_random_instances(self):
        rng = random.Random(12345)
        for _ in range(300):
            n = rng.randint(2, 4)
            B = rng.randint(1, 10)
            a = tuple(rng.randint(-B, B) for _ in range(n))
            if not any(a):
                continue
            v = siegel_small_kernel(a, B)
            assert any(v)
            assert sum(c * x for c, x in zip(a, v)) == 0
            assert max(abs(x) for x in v) <= siegel_bound(n, B)

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError):
            siegel_small_kernel((0, 0), 5)

    def test_bound_violation_is_typed(self, monkeypatch):
        # the kernel of (1, 3) is spanned by (3, -1), of height 3
        monkeypatch.setattr(oracles, "siegel_bound", lambda n, B: 1)
        with pytest.raises(AscentExhausted) as exc:
            siegel_small_kernel((1, 3), 3)
        err = exc.value
        assert (err.ceiling, err.R, err.witness) == (1, None, (1, 3))

    def test_rejects_oversized_entries(self):
        with pytest.raises(ValueError):
            siegel_small_kernel((7, 1), 3)


class TestLowerBound:
    def test_values(self):
        assert lower_bound_value(2, 5) == Fraction(3, 4)
        assert lower_bound_value(3, 4) == Fraction(1, 27)
        assert lower_bound_value(2, 2) == 0

    def test_vacuous_region(self):
        assert lower_bound_value(2, 1) <= 0
        assert lower_bound_value(3, 3) == 0

    def test_below_exact_minimum(self):
        for n, R in [(2, R) for R in range(1, 8)] + [(3, R) for R in range(1, 4)]:
            m, _ = minimal_complexity(n, BallSpec("l1", R))
            assert Fraction(m) >= lower_bound_value(n, R)

    def test_needs_two_unknowns(self):
        with pytest.raises(ValueError):
            lower_bound_value(1, 5)
