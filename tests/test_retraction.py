import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrimlab import eocgroup, retraction
from discrimlab.eocgroup import DEFAULT_BALL_CAP, EocGroup
from discrimlab.errors import AscentExhausted, GroupSpecError
from discrimlab.freewords import Alphabet, Word, parse_word
from discrimlab.retraction import (
    ThetaSpec,
    apply_chain,
    apply_theta,
    complexity_curve,
    complexity_record,
    compose_chain,
    hom_complexity,
    minimal_discriminating_p,
    subtower,
)
from discrimlab.zdiscrim import lower_bound_value, theta

from oracles import (
    ball_image_count,
    brute_first_collision,
    chain_of_retractions,
    per_syllable_apply_theta,
)
from test_eocgroup import RAAG_SPECS, group_and_elements, groups

A = Alphabet(2)
a, b = A.generators()


@pytest.fixture(scope="module")
def G1():
    return EocGroup(A, [(a, 1)])


@pytest.fixture(scope="module")
def G2():
    return EocGroup(A, [(a, 2)])


@pytest.fixture(scope="module")
def tower():
    return EocGroup(A, [(a, 1), (b, 1)])


class TestImages:
    def test_t_image_exponents(self, G1, G2):
        spec = ThetaSpec(G1, 2, 7)
        assert apply_theta(spec, G1.element("t1.1")) == spec.target.base_element(a**7)
        spec = ThetaSpec(G2, 2, 7)
        assert apply_theta(spec, G2.element("t1.2")) == spec.target.base_element(a**35)

    def test_base_words_fixed(self, G1):
        spec = ThetaSpec(G1, 1, 3)
        w = G1.element("g2 g1")
        img = apply_theta(spec, w)
        assert img.tokens() == "g2 g1"

    def test_abelian_restriction_is_scaled_theta(self, G2):
        # u^e t^v maps to u^(e + p * theta(v))
        spec = ThetaSpec(G2, 1, 5)
        target = spec.target
        th = theta(2, 1)
        for e in range(-2, 3):
            for v in itertools.product(range(-1, 2), repeat=2):
                if not any(v):
                    continue
                w = G2.abelian_element(0, e, v)
                expected = target.base_element(a ** (e + 5 * th(v)))
                assert apply_theta(spec, w) == expected

    def test_homomorphism_on_ball(self, G1):
        spec = ThetaSpec(G1, 2, 4)
        B = G1.ball(2)[:20]
        for x, y in itertools.product(B, B):
            assert apply_theta(spec, x * y) == apply_theta(spec, x) * apply_theta(spec, y)

    def test_retraction_fixes_t_free_elements(self, G1):
        spec = ThetaSpec(G1, 3, 2)
        for w in G1.ball(4):
            if "t" not in w.tokens() and "T" not in w.tokens():
                assert apply_theta(spec, w).tokens() == w.tokens()


    def test_matches_per_syllable_oracle(self, G1, G2, tower):
        groups = (G1, G2, EocGroup(A, [(a * b * a.inverse() * a.inverse(), 1)]), tower)
        for group in groups:
            ball = group.ball(4)
            for p in (1, 2, 5, 9):
                spec = ThetaSpec(group, 4, p)
                for w in ball:
                    assert apply_theta(spec, w) == per_syllable_apply_theta(spec, w)


# u words by shape: not cyclically reduced (conjugates of g1 and of g2),
# then cyclically reduced
COMPLEXITY_US = ["g2 g1 G2", "g1 g2 G1", "g1", "g1 g2"]


class TestHomComplexity:
    @pytest.mark.parametrize("u_text", COMPLEXITY_US)
    def test_closed_form_matches_built_power(self, u_text):
        # |u^k| for the longest t-image, k = p * (2R+1)^(n-1), by building u^k
        A3 = Alphabet(3)
        u = parse_word(A3, u_text)
        for n in (1, 2, 3):
            group = EocGroup(A3, [(u, n)])
            for R in range(5):
                for p in range(1, 6):
                    k = p * (2 * R + 1) ** (n - 1)
                    assert hom_complexity(ThetaSpec(group, R, p)) == len(u**k)

    def test_builds_no_power(self, monkeypatch):
        spec = ThetaSpec(EocGroup(A, [(b * a * b.inverse(), 2)]), 4, 5)

        def no_power(self, n):
            raise AssertionError("hom_complexity built a power of u")

        monkeypatch.setattr(Word, "__pow__", no_power)
        assert hom_complexity(spec) == 2 + 5 * 9


class TestMinimalP:
    def test_frozen_values(self, G1):
        assert minimal_discriminating_p(G1, 0) == 1
        assert minimal_discriminating_p(G1, 1) == 2

    def test_p1_failure_witness(self, G1):
        # a^-1 t is nontrivial but dies under the p = 1 retraction
        w = G1.element("G1 t1.1")
        assert not w.is_trivial()
        assert apply_theta(ThetaSpec(G1, 1, 1), w).is_trivial()
        assert not apply_theta(ThetaSpec(G1, 1, 2), w).is_trivial()

    def test_minimality_bracket(self, G1):
        for R in (1, 2, 3):
            p = minimal_discriminating_p(G1, R)
            ball = G1.ball(R)
            below = {apply_theta(ThetaSpec(G1, R, p - 1), w) for w in ball}
            assert len(below) < len(ball)

    def test_triviality_oracle_agreement(self, G1):
        R = 3
        p = minimal_discriminating_p(G1, R)
        spec = ThetaSpec(G1, R, p)
        for w in G1.ball(R):
            assert w.is_trivial() == apply_theta(spec, w).is_trivial()


class TestCurve:
    def test_record_fields(self, G1):
        rec = complexity_record(G1, 2)
        assert rec.p_min == 4
        assert rec.complexity == 4  # |u| = 1, p_min = 4
        assert rec.lower_bound == lower_bound_value(2, 2)
        assert rec.ball_size == 33

    def test_r0_trivial_task(self, G1):
        rec = complexity_record(G1, 0)
        assert rec.p_min == 1 and rec.complexity == 1

    def test_monotone_and_bounded_below(self, G2):
        curve = complexity_curve(G2, range(5))
        cs = [r.complexity for r in curve]
        assert cs == sorted(cs)
        for rec in curve:
            if rec.lower_bound > 0:
                assert Fraction(rec.complexity) >= rec.lower_bound

    def test_rank2_dominates_rank1(self, G1, G2):
        c1 = complexity_curve(G1, range(2, 5))
        c2 = complexity_curve(G2, range(2, 5))
        assert all(x2.complexity >= x1.complexity for x1, x2 in zip(c1, c2))


class TestSubtower:
    def test_built_once_and_kept(self):
        tower = EocGroup(A, [(a, 1), (b, 1)])
        sub = subtower(tower)
        assert subtower(tower) is sub
        assert ThetaSpec(tower, 2, 5).target is sub
        assert [(s.u, s.rank) for s in sub.stages] == [(a, 1)]

    def test_chain_builds_no_group_on_a_fresh_tower(self, monkeypatch):
        # the composite is a substitution into the free base: no subtower
        tower = EocGroup(A, [(a, 1), (b, 1)])
        built = []
        init = EocGroup.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(EocGroup, "__init__", counting_init)
        chain = compose_chain(tower, 2)
        for p in (1, chain.p):
            for w in tower.ball(2):
                apply_chain(tower, 2, p, w)
        assert built == [] and tower._subtower is None


class TestAscentCeiling:
    # a ceiling of 1 lies below the floor, which the real ceiling never does
    # (TestFloor.test_floor_below_ceiling), so the ascent here starts at p = 1;
    # a RAAG spec returns its floor before any walk, so only multi-letter
    # specs reach the raise

    def test_minimal_p_reports_collision_at_ceiling(self, monkeypatch):
        monkeypatch.setattr(retraction, "_p_ceiling", lambda group, R: 1)
        monkeypatch.setattr(retraction, "_floor", lambda group, R, k: 1)
        group, _ = _walk_group("g1g2")
        with pytest.raises(AscentExhausted) as exc:
            minimal_discriminating_p(group, 2)
        err = exc.value
        assert (err.ceiling, err.R) == (1, 2)
        w, w2 = err.witness
        assert w != w2 and (w.tokens(), w2.tokens()) == ("t1.1", "g1 g2")
        spec = ThetaSpec(group, 2, 1)
        assert apply_theta(spec, w) == apply_theta(spec, w2)

    def test_compose_chain_reports_collision_at_ceiling(self, monkeypatch):
        monkeypatch.setattr(retraction, "_p_ceiling", lambda group, R: 1)
        monkeypatch.setattr(retraction, "_floor", lambda group, R, k: 1)
        group, _ = _walk_group("rank3")
        with pytest.raises(AscentExhausted) as exc:
            compose_chain(group, 2)
        err = exc.value
        assert (err.ceiling, err.R) == (1, 2)
        w, w2 = err.witness
        assert w != w2 and (w.tokens(), w2.tokens()) == ("g2", "t2.1")
        assert chain_of_retractions(group, 2, 1, w) == chain_of_retractions(group, 2, 1, w2)


class TestComposeChain:
    def test_single_stage_matches_minimal_p(self, G1):
        chain = compose_chain(G1, 2)
        assert chain.p == minimal_discriminating_p(G1, 2)

    def test_two_stage_discriminates(self, tower):
        chain = compose_chain(tower, 2)
        # injectivity re-verified independently
        images = [chain_of_retractions(tower, 2, chain.p, w) for w in tower.ball(2)]
        assert len(set(images)) == len(images)

    def test_submultiplicativity_exact(self, tower):
        chain = compose_chain(tower, 2)
        assert chain.bound == math.prod(chain.stage_complexities)
        assert len(chain.submultiplicative) == len(tower.generators())
        for tok_text, img_len in chain.submultiplicative:
            assert img_len <= chain.bound

    def test_composite_fixes_base(self, tower):
        chain = compose_chain(tower, 1)
        for text in ("g1", "g2", "g1 g2 G1"):
            w = tower.element(text)
            assert apply_chain(tower, 1, chain.p, w).tokens() == text


# (free rank, stages as (u, rank), largest R checked)
WALK_SPECS = {
    "g1-rank1": (2, [("g1", 1)], 4),
    "g1-rank2": (2, [("g1", 2)], 3),
    "tower": (2, [("g1", 1), ("g2", 1)], 3),
    "rank3": (3, [("g1 g3 G1", 1), ("g2", 1)], 2),
    "g1g2": (2, [("g1 g2", 1)], 4),
}


def _walk_group(label, specs=WALK_SPECS):
    rank, stages, rmax = specs[label]
    alphabet = Alphabet(rank)
    return EocGroup(alphabet, [(parse_word(alphabet, u), n) for u, n in stages]), rmax


def _ascent_top(ascent, group, R):
    """(last p the ascent tries, whether it succeeds there)."""
    try:
        return ascent(group, R), True
    except AscentExhausted as e:
        return e.ceiling, False


class TestTreeWalk:
    """The BFS-tree walk against the per-element scan it replaced."""

    @pytest.mark.parametrize("label", sorted(WALK_SPECS))
    def test_theta_walk_matches_per_element_scan(self, label):
        group, rmax = _walk_group(label)
        for R in range(1, rmax + 1):
            ball = group.ball(R)
            top, found = _ascent_top(minimal_discriminating_p, group, R)
            for p in range(1, top + 1):
                spec = ThetaSpec(group, R, p)
                expected = brute_first_collision(ball, lambda w: apply_theta(spec, w))
                assert (expected is None) == (found and p == top)
                assert retraction._images_injective(group, R, p, ball, 1) == expected

    @pytest.mark.parametrize("label", sorted(WALK_SPECS))
    def test_chain_walk_matches_per_element_scan(self, label):
        group, rmax = _walk_group(label)
        for R in range(1, rmax + 1):
            ball = group.ball(R)
            top, found = _ascent_top(lambda g, r: compose_chain(g, r).p, group, R)
            for p in range(1, top + 1):
                expected = brute_first_collision(
                    ball, lambda w: chain_of_retractions(group, R, p, w)
                )
                assert (expected is None) == (found and p == top)
                assert retraction._images_injective(group, R, p, ball, len(group.stages)) == expected

    def test_multi_letter_u_p_min_is_radius(self):
        # G1 t1.1 g1 and g2 t1.1 G2 are one element; when the strip broke
        # ties by offsets they had two normal forms, and both ascents ran
        # out of p at R=3 with that pair as the witness
        group, _ = _walk_group("g1g2")
        for R in range(1, 6):
            assert minimal_discriminating_p(group, R) == R
            assert compose_chain(group, R).p == R


# (free rank, stages as (u, rank), largest R checked) for the floor
FLOOR_SPECS = {
    "g1": (2, [("g1", 1)], 5),
    "g1g2G1": (2, [("g1 g2 G1", 1)], 5),
    "g1g1g2": (2, [("g1 g1 g2", 1)], 5),
    "g2g1G2": (2, [("g2 g1 G2", 1)], 5),
    "tower": (2, [("g1", 1), ("g2", 1)], 4),
    "tower-g2g2g1": (2, [("g1", 1), ("g2 g2 g1", 1)], 4),
}


# WALK_SPECS and the towers, for the floor against the ceiling
CEILING_SPECS = {
    **WALK_SPECS,
    "tower-g2g2g1": FLOOR_SPECS["tower-g2g2g1"],
    "tower3": (2, [("g1", 1), ("g2", 1), ("g1 g2", 1)], 8),
}


def _split_pairs_below_floor(group, R, k, cap=DEFAULT_BALL_CAP):
    """Check every split pair below the floor of the top `k` stages; return how many there are.

    For each p below the floor, each of the top k stages whose u^p fits
    (2|z| + p|v| <= 2R - 1) gives a pair, and at least one stage does.
    Each pair must lie in the radius-R ball, be distinct, and be merged by
    the retractions at p.
    """
    ball = set(group.ball(R, cap=cap))
    top = len(group.stages)
    pairs = 0
    for p in range(1, retraction._floor(group, R, k)):
        fits = [s for s in range(top - k, top) if len(group.stages[s].u ** p) <= 2 * R - 1]
        assert fits, (k, R, p)
        for s in fits:
            w, w2 = retraction._split_pair(group, s, R, p)
            assert w in ball and w2 in ball and w != w2, (s, R, p)
            if k == 1:
                spec = ThetaSpec(group, R, p)
                assert apply_theta(spec, w) == apply_theta(spec, w2), (R, p)
            else:
                assert chain_of_retractions(group, R, p, w) == chain_of_retractions(
                    group, R, p, w2
                ), (s, R, p)
            pairs += 1
    return pairs


def _walk_p_min(group, R, k):
    """Least injective p by walking every p from 1, with no floor."""
    ball = group.ball(R)
    for p in range(1, retraction._p_ceiling(group, R) + 1):
        if retraction._images_injective(group, R, p, ball, k) is None:
            return p
    raise AssertionError(f"no injective p up to the ceiling at R={R}")


class TestFloor:
    """The split pairs the p ascent starts above."""

    @pytest.mark.parametrize("label", sorted(FLOOR_SPECS))
    def test_pairs_below_floor_collide_in_ball(self, label):
        group, rmax = _walk_group(label, FLOOR_SPECS)
        for k in sorted({1, len(group.stages)}):
            for R in range(rmax + 1):
                _split_pairs_below_floor(group, R, k)

    @pytest.mark.parametrize("label", sorted(FLOOR_SPECS))
    def test_floor_not_above_walk_p_min(self, label):
        group, rmax = _walk_group(label, FLOOR_SPECS)
        for k in sorted({1, len(group.stages)}):
            for R in range(rmax + 1):
                assert retraction._floor(group, R, k) <= _walk_p_min(group, R, k), (k, R)

    @pytest.mark.parametrize("label", sorted(CEILING_SPECS))
    def test_floor_below_ceiling(self, label):
        # so the ascent tries at least one p, and its witness is a collision
        group, _ = _walk_group(label, CEILING_SPECS)
        for k in sorted({1, len(group.stages)}):
            for R in range(9):
                floor = retraction._floor(group, R, k)
                assert floor <= max(1, 2 * R) < retraction._p_ceiling(group, R), (k, R)

    def test_floor_is_p_min_for_single_letter_u(self):
        group = EocGroup(A, [(a, 1)])
        for R in range(8):
            floor = retraction._floor(group, R, 1)
            assert floor == max(1, 2 * R)
            assert minimal_discriminating_p(group, R) == floor

    def test_split_pair_of_conjugated_u(self):
        # u = g1 g2 G1 at R = 3: u^3 = g1 g2 g2 g2 G1 (5 <= 2R - 1 letters)
        # splits as b = g1 g2 g2 and a = g2 G1, so t g1 G2 collides with b
        group, _ = _walk_group("g1g2G1", FLOOR_SPECS)
        assert retraction._floor(group, 3, 1) == 4
        w, w2 = retraction._split_pair(group, 0, 3, 3)
        assert w == group.element("t1.1 g1 G2")
        assert w2.tokens() == "g1 g2 g2"

    def test_certificate_is_the_split_pair(self):
        # g1 g1 g2: the floor is p_min at every R, so no certificate walks
        group, rmax = _walk_group("g1g1g2", FLOOR_SPECS)
        for R in range(rmax + 1):
            rec = complexity_record(group, R)
            assert rec.p_min == retraction._floor(group, R, 1)
            if rec.p_min == 1:
                assert rec.certificate is None
            else:
                assert rec.certificate == retraction._split_pair(group, 0, R, rec.p_min - 1)
        assert [w.tokens() for w in rec.certificate] == ["G2 G1 G1 t1.1 G2", "g1 g1 g2 g1 g1"]

    def test_certificate_rules_out_p_below_p_min(self, monkeypatch):
        # with the floor at 1, p_min - 1 is never below it, so the
        # certificate is the walk's collision at p_min - 1
        monkeypatch.setattr(retraction, "_floor", lambda group, R, k: 1)
        group, rmax = _walk_group("g1g1g2", FLOOR_SPECS)
        for R in range(rmax + 1):
            rec = complexity_record(group, R)
            if rec.p_min == 1:
                assert rec.certificate is None
            else:
                spec = ThetaSpec(group, R, rec.p_min - 1)
                expected = brute_first_collision(group.ball(R), lambda w: apply_theta(spec, w))
                assert rec.certificate == expected
        assert rec.p_min == 4

    def test_one_walk_per_record(self, monkeypatch):
        # the ascent's first walk succeeds and the certificate is closed
        # form, so p_min - 1 is not walked a second time
        walks = []
        walk = retraction._images_injective

        def counted(group, R, p, ball, k):
            walks.append((R, p))
            return walk(group, R, p, ball, k)

        monkeypatch.setattr(retraction, "_images_injective", counted)
        group, rmax = _walk_group("g1g1g2", FLOOR_SPECS)
        p_min = [complexity_record(group, R).p_min for R in range(rmax + 1)]
        assert walks == list(enumerate(p_min))


class TestRaagFloor:
    """The floor is p_min on RAAG specs, with the walk as the oracle."""

    @pytest.mark.parametrize("label", sorted(RAAG_SPECS))
    def test_walk_injective_at_floor_and_split_pair_below(self, label):
        group, rmax = _walk_group(label, RAAG_SPECS)
        assert group._raag
        top = len(group.stages)
        for k in sorted({1, top}):
            for R in range(1, rmax + 1):
                ball = group.ball(R)
                floor = retraction._floor(group, R, k)
                assert floor == 2 * R
                assert retraction._images_injective(group, R, floor, ball, k) is None, (k, R)
                assert retraction._images_injective(group, R, floor - 1, ball, k) is not None, (k, R)
                # every stage's u has one letter, so each retracted stage's
                # split pair collides at floor - 1
                for s in range(top - k, top):
                    w, w2 = retraction._split_pair(group, s, R, floor - 1)
                    assert w in ball and w2 in ball and w != w2, (k, R, s)
                    if k == 1:
                        spec = ThetaSpec(group, R, floor - 1)
                        assert apply_theta(spec, w) == apply_theta(spec, w2), (R, s)
                    else:
                        assert chain_of_retractions(group, R, floor - 1, w) == chain_of_retractions(
                            group, R, floor - 1, w2
                        ), (R, s)

    # p_min at R = 0..3 for k = 1 and k = every stage
    @pytest.mark.parametrize(
        "label, p_min, walked", [("tower", [1, 2, 4, 6], False), ("g1g2", [1, 1, 2, 3], True)]
    )
    def test_ascent_walks_only_multi_letter_specs(self, label, p_min, walked, monkeypatch):
        calls = []
        walk = retraction._images_injective

        def counted(group, R, p, ball, k):
            calls.append(p)
            return walk(group, R, p, ball, k)

        monkeypatch.setattr(retraction, "_images_injective", counted)
        group, _ = _walk_group(label)
        for R in range(4):
            for k in sorted({1, len(group.stages)}):
                assert retraction._least_injective_p(group, R, DEFAULT_BALL_CAP, k) == p_min[R]
        assert bool(calls) == walked

    @pytest.mark.parametrize("label, walked", [("tower", False), ("g1-rank2", False), ("g1g2", True)])
    def test_raag_commands_build_no_tree(self, label, walked):
        # the ball is only counted (EocGroup.ball_size), so no layer is grown
        for command in (
            lambda group: complexity_curve(group, range(5)),
            lambda group: compose_chain(group, 4),
            lambda group: minimal_discriminating_p(group, 4),
        ):
            group, _ = _walk_group(label)
            command(group)
            assert (group._ends != [1]) == walked


# the walk's own key, and two that clash: a constant key makes one run of the
# whole ball, and the key mod 4 makes four runs that mix distinct images
KEY = eocgroup._key
KEYS = pytest.mark.parametrize(
    "key",
    [KEY, lambda m: np.zeros(len(m), dtype=np.int64), lambda m: KEY(m) & 3],
    ids=["key", "constant", "mod4"],
)


def _mat_mul(m, n):
    """The 2x2 product over F_P, written apart from the library's."""
    P = 2**31 - 1
    return (
        (m[0] * n[0] + m[1] * n[2]) % P,
        (m[0] * n[1] + m[1] * n[3]) % P,
        (m[2] * n[0] + m[3] * n[2]) % P,
        (m[2] * n[1] + m[3] * n[3]) % P,
    )


def _phi_of_tokens(group, target, text):
    """phi of a word of `target` (a subtower of `group`, or its free base), folded token by token."""
    m = (1, 0, 0, 1)
    for tok in target.parse_tokens(text):
        m = _mat_mul(m, eocgroup._phi(group, target._token_syllable(tok)))
    return m


def _count_images(monkeypatch):
    """The elements, in call order, that the walk passes to its `image` from now on."""
    mapped = []
    walk = retraction._first_collision

    def counted(ball, matrices, image):
        return walk(ball, matrices, lambda w: mapped.append(w) or image(w))

    monkeypatch.setattr(retraction, "_first_collision", counted)
    return mapped


class TestFingerprints:
    """The one layered walk: equal keys are settled exactly and the ball-order pair is kept.

    Every p keys the whole ball; only elements whose keys clash are mapped,
    in ball order, up to the first repeat.
    """

    @KEYS
    @pytest.mark.parametrize("label", sorted(WALK_SPECS))
    def test_walk_settles_runs_as_per_element_scan(self, label, key, monkeypatch):
        monkeypatch.setattr(eocgroup, "_key", key)
        group, rmax = _walk_group(label)
        for k in sorted({1, len(group.stages)}):
            for R in range(1, rmax + 1):
                ball = group.ball(R)
                for p in range(1, _walk_p_min(group, R, k) + 1):
                    if k == 1:
                        spec = ThetaSpec(group, R, p)
                        image = lambda w: apply_theta(spec, w)
                    else:
                        image = lambda w: chain_of_retractions(group, R, p, w)
                    expected = brute_first_collision(ball, image)
                    assert retraction._images_injective(group, R, p, ball, k) == expected

    @pytest.mark.parametrize("label", sorted(WALK_SPECS))
    def test_walk_fingerprints_every_element_once(self, label, monkeypatch):
        # each ball element's key is the key of phi of its exact image,
        # folded token by token
        group, R = _walk_group(label)
        ball = group.ball(R)
        for k in sorted({1, len(group.stages)}):
            p = _walk_p_min(group, R, k)
            if k < len(group.stages):
                target = subtower(group)
                texts = [per_syllable_apply_theta(ThetaSpec(group, R, p), w).tokens() for w in ball]
            else:
                target = EocGroup(group.alphabet, [])
                texts = [chain_of_retractions(group, R, p, w).tokens() for w in ball]
            expected = [_phi_of_tokens(group, target, text) for text in texts]
            recorded = []
            monkeypatch.setattr(eocgroup, "_key", lambda m: recorded.append(KEY(m)) or recorded[-1])
            assert retraction._images_injective(group, R, p, ball, k) is None
            assert np.concatenate(recorded).tolist() == KEY(np.array(expected).reshape(-1, 2, 2)).tolist()

    # homomorphisms of G1 onto the free base, as the images of g1, g2 and
    # t1.1, with the pair of ball indices a ball-order scan stops at;
    # sending a generator to 1 merges it with the root, whose key the walk
    # records before any other
    @KEYS
    @pytest.mark.parametrize(
        "g1, g2, t, pair",
        [
            ("g1", "g2", "", (0, 5)),
            ("", "g2", "g2", (0, 1)),
            ("", "", "", (0, 1)),
            ("g1", "g1", "g1 g1 g1", (1, 2)),
            ("g1", "g2", "g1 g1 g1 g1 g1 g1", None),
        ],
        ids=["t-trivial", "g1-trivial", "trivial", "g2-to-g1", "theta-6"],
    )
    def test_walk_of_any_homomorphism_matches_per_element_scan(self, g1, g2, t, pair, key, monkeypatch):
        monkeypatch.setattr(eocgroup, "_key", key)
        group = EocGroup(A, [(a, 1)])
        ball = group.ball(3)
        images = {1: parse_word(A, g1), 2: parse_word(A, g2), ("t", 0, 1): parse_word(A, t)}
        for x in list(images):
            inverse = -x if isinstance(x, int) else ("t", 0, -1)
            images[inverse] = images[x].inverse()

        def image(w):
            out = A.identity()
            for tok in group.parse_tokens(w.tokens()):
                out = out * images[tok]
            return out

        letters = [images[tok].letters for tok in group.generator_tokens()]
        matrices = [eocgroup._phi(group, tuple(2 * x for x in word)) for word in letters]
        expected = brute_first_collision(ball, image)
        assert retraction._first_collision(ball, matrices, image) == expected
        assert (expected and (ball.index(expected[0]), ball.index(expected[1]))) == pair

    # p = 1 collides early in the R = 7 ball; p = 11, one below p_min,
    # collides deep in the R = 6 ball
    @pytest.mark.parametrize("R, p, index, size", [(7, 1, 5, 46_367), (6, 11, 6_270, 10_945)])
    def test_failing_walk_matches_per_element_scan(self, R, p, index, size):
        group = EocGroup(A, [(a, 1)])
        ball = group.ball(R)
        pair = retraction._images_injective(group, R, p, ball, 1)
        assert pair == brute_first_collision(ball, lambda w: apply_theta(ThetaSpec(group, R, p), w))
        assert (ball.index(pair[1]), len(ball)) == (index, size)

    @pytest.mark.parametrize("label", sorted(WALK_SPECS))
    def test_walk_at_p_min_maps_no_element(self, label, monkeypatch):
        # no two images at p_min share a real key, so no element is mapped
        group, R = _walk_group(label)
        ball = group.ball(R)
        ks = sorted({1, len(group.stages)})
        p_min = [retraction._least_injective_p(group, R, DEFAULT_BALL_CAP, k) for k in ks]
        mapped = _count_images(monkeypatch)
        for k, p in zip(ks, p_min):
            assert retraction._images_injective(group, R, p, ball, k) is None
        assert mapped == []

    @pytest.mark.parametrize("R, p, index", [(7, 1, 5), (6, 11, 6_270)])
    def test_clashing_walk_maps_ball_order_up_to_pair(self, R, p, index, monkeypatch):
        # with every key equal, the walk maps the ball in order and stops at
        # the pair's second element
        group = EocGroup(A, [(a, 1)])
        ball = group.ball(R)
        monkeypatch.setattr(eocgroup, "_key", lambda m: np.zeros(len(m), dtype=np.int64))
        mapped = _count_images(monkeypatch)
        pair = retraction._images_injective(group, R, p, ball, 1)
        assert pair == brute_first_collision(ball, lambda w: apply_theta(ThetaSpec(group, R, p), w))
        assert pair[1] == ball[index] and mapped == list(ball[: index + 1])

    def test_walk_memory_bounded(self):
        # the R = 7 ball has 46,367 elements; holding all their images
        # took 16.6 MB
        group = EocGroup(A, [(a, 1)])
        ball = group.ball(7)
        tracemalloc.start()
        try:
            assert retraction._images_injective(group, 7, 14, ball, 1) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


# the g1/g2 tower and a three-stage tower with multi-letter u's
PHI_SPECS = {
    "tower": WALK_SPECS["tower"],
    "rank3-three-stage": (3, [("g2", 2), ("G2 G3", 1), ("g1 g3 G2", 1)], 2),
}


class TestPhi:
    """phi is a homomorphism of each walk target: the group, each subtower and the free base."""

    @pytest.mark.parametrize("label", sorted(PHI_SPECS))
    def test_generators_times_inverses_are_the_identity(self, label):
        group, _ = _walk_group(label, PHI_SPECS)
        target = group
        while True:
            for g in target.generators():
                syl, = g.syllables
                inverse, = g.inverse().syllables
                assert _mat_mul(eocgroup._phi(group, syl), eocgroup._phi(group, inverse)) == (1, 0, 0, 1)
                # each subtower's own phi is the restriction of the group's
                assert eocgroup._phi(target, syl) == eocgroup._phi(group, syl)
            if not target.stages:
                break
            target = subtower(target)

    @pytest.mark.parametrize("label", sorted(PHI_SPECS))
    def test_u_commutes_with_its_t_images(self, label):
        group, _ = _walk_group(label, PHI_SPECS)
        for j, stage in enumerate(group.stages):
            U = _phi_of_tokens(group, group, stage.u.tokens())
            for i in range(1, stage.rank + 1):
                T = eocgroup._phi(group, group._token_syllable(("t", j, i)))
                assert T != (1, 0, 0, 1)
                assert _mat_mul(U, T) == _mat_mul(T, U), (j, i)

    @pytest.mark.parametrize("label", sorted(PHI_SPECS))
    def test_syllables_map_as_their_tokens(self, label):
        # abelian syllables u_j^e t^v with e != 0 occur in the ball, though
        # no generator image is one
        group, R = _walk_group(label, PHI_SPECS)
        for w in group.ball(R):
            by_syllable = (1, 0, 0, 1)
            for syl in w.syllables:
                by_syllable = _mat_mul(by_syllable, eocgroup._phi(group, syl))
            assert by_syllable == _phi_of_tokens(group, group, w.tokens()), w


def assert_one_syllable_images(group, R, p):
    """``_image`` of each generator is its one-syllable image under the oracle retractions.

    For the top stage, the image normalized in the subtower; for all
    stages, the composite's word, doubled.
    """
    k = len(group.stages)
    for g in group.generators():
        syl, = g.syllables
        top = per_syllable_apply_theta(ThetaSpec(group, R, p), g)
        assert top.syllables == (retraction._image(group, R, p, 1, syl),), (g, R, p)
        word = chain_of_retractions(group, R, p, g)
        assert retraction._image(group, R, p, k, syl) == tuple(2 * x for x in word.letters), (g, R, p)


class TestOneSyllableImages:
    """``_image`` of every generator is the oracle's one-syllable image, for the top stage and for all."""

    @pytest.mark.parametrize("label", sorted(CEILING_SPECS))
    def test_specs(self, label):
        group, _ = _walk_group(label, CEILING_SPECS)
        for R, p in itertools.product(range(4), (1, 2, 7)):
            assert_one_syllable_images(group, R, p)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(groups(), st.integers(0, 3), st.integers(1, 12))
    def test_random_groups(self, group, R, p):
        assert_one_syllable_images(group, R, p)


class TestSubstitution:
    """``apply_chain`` substitutes u-powers for t-syllables: the composite of one retraction per stage."""

    @pytest.mark.parametrize("label", sorted(WALK_SPECS))
    def test_matches_chain_of_retractions(self, label):
        group, rmax = _walk_group(label)
        for R, p in itertools.product(range(rmax + 1), (1, 2, 7)):
            for w in group.ball(R):
                assert apply_chain(group, R, p, w) == chain_of_retractions(group, R, p, w)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(group_and_elements(), st.integers(0, 3), st.integers(1, 12))
    def test_random_groups(self, case, R, p):
        group, x, y = case
        for w in (x, y, x * y):
            assert apply_chain(group, R, p, w) == chain_of_retractions(group, R, p, w)

    def test_rejects_what_a_retraction_rejects(self, tower, G1):
        w = tower.element("t1.1 t2.1")
        for args in ((2, 0, w), (-1, 3, w), (2, 3, G1.element("t1.1"))):
            with pytest.raises(ValueError):
                apply_chain(tower, *args)


def _corpus(n, seed):
    """n seeded random groups: free rank 2-3, 1-3 stages, |u| 1-4 as drawn, t-rank 1-3.

    Draws that validation rejects (u trivial once reduced, a proper power,
    or commensurable with another stage's u) are drawn again.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        alphabet = Alphabet(rng.randint(2, 3))
        letters = [*range(1, alphabet.rank + 1), *range(-alphabet.rank, 0)]
        stages = []
        for _ in range(rng.randint(1, 3)):
            u = Word(alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 4))])
            stages.append((u, rng.randint(1, 3)))
        try:
            out.append(EocGroup(alphabet, stages))
        except GroupSpecError:
            pass
    return out


def _family_floor(group, R, k):
    """The floor of the (z^-1 t z v^-j, v^m) pairs that the split pair replaced.

    The pair lies in the radius-R ball for j <= (R - 1 - 2|z|) // |v| and
    m <= R // |v|, and rules out every p <= j + m.
    """
    best = 0
    for stage in group.stages[len(group.stages) - k :]:
        z, v = stage.u.cyclic_decomposition()
        if R > 2 * len(z):
            best = max(best, (R - 1 - 2 * len(z)) // len(v) + R // len(v))
    return 1 + best


class TestCorpus:
    """Canonical balls and both ascents over random specs (ROADMAP items 1 and 5)."""

    def test_balls_and_ascents(self):
        cap = 20_000
        points = ascents = pairs = raised = 0
        for group in _corpus(60, 0):
            for R in range(3 if len(group.stages) == 3 else 4):
                points += 1
                # the oracle keeps u-powers as runs, so it checks every point,
                # however long the last t-generator's image
                assert len(group.ball(R, cap=cap)) == ball_image_count(group, R, 40), (group.stages, R)
                # every split pair below the floor collides in the ball, the
                # floor is never below the pair family it replaced, and the
                # walk at the floor is injective, so each ascent walks once
                # (and neither runs past _p_ceiling); on one stage both
                # ascents run and agree
                for k in sorted({1, len(group.stages)}):
                    floor = retraction._floor(group, R, k)
                    family = _family_floor(group, R, k)
                    assert floor >= family, (group.stages, R, k)
                    raised += floor > family
                    pairs += _split_pairs_below_floor(group, R, k, cap)
                    if k == 1:
                        assert minimal_discriminating_p(group, R, cap=cap) == floor, (group.stages, R)
                    if k == len(group.stages):
                        assert compose_chain(group, R, cap=cap).p == floor, (group.stages, R)
                    ascents += 1
        assert points == 228
        assert (ascents, pairs, raised) == (320, 462, 24)
