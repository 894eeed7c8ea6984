import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from discrimlab import retraction
from discrimlab.eocgroup import EocGroup
from discrimlab.errors import AscentExhausted
from discrimlab.freewords import Alphabet, Word, join_letters, parse_word
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

from oracles import brute_first_collision, per_syllable_apply_theta

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
        cs = [r.complexity for r in curve.records]
        assert cs == sorted(cs)
        for rec in curve.records:
            if rec.lower_bound > 0:
                assert Fraction(rec.complexity) >= rec.lower_bound

    def test_rank2_dominates_rank1(self, G1, G2):
        c1 = complexity_curve(G1, range(2, 5)).records
        c2 = complexity_curve(G2, range(2, 5)).records
        assert all(x2.complexity >= x1.complexity for x1, x2 in zip(c1, c2))

    def test_slope_reported(self, G1):
        curve = complexity_curve(G1, range(1, 5))
        assert curve.loglog_slope is not None


class TestSubtower:
    def test_built_once_and_kept(self):
        tower = EocGroup(A, [(a, 1), (b, 1)])
        sub = subtower(tower)
        assert subtower(tower) is sub
        assert ThetaSpec(tower, 2, 5).target is sub
        assert [(s.u, s.rank) for s in sub.stages] == [(a, 1)]

    def test_chain_builds_no_group_once_subtowers_exist(self, monkeypatch):
        tower = EocGroup(A, [(a, 1), (b, 1)])
        chain = compose_chain(tower, 2)
        built = []
        init = EocGroup.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(EocGroup, "__init__", counting_init)
        for p in (1, chain.p):
            for w in tower.ball(2):
                apply_chain(tower, 2, p, w)
        assert built == []


class TestAscentCeiling:
    # a ceiling of 1 lies below the floor, which the real ceiling never does
    # (TestFloor.test_floor_below_ceiling), so the ascent here starts at p = 1

    def test_minimal_p_reports_collision_at_ceiling(self, G1, monkeypatch):
        monkeypatch.setattr(retraction, "_p_ceiling", lambda group, R: 1)
        monkeypatch.setattr(retraction, "_floor_family", lambda group, R, k: None)
        with pytest.raises(AscentExhausted) as exc:
            minimal_discriminating_p(G1, 2)
        err = exc.value
        assert (err.ceiling, err.R) == (1, 2)
        w, w2 = err.witness
        assert w != w2
        spec = ThetaSpec(G1, 2, 1)
        assert apply_theta(spec, w) == apply_theta(spec, w2)

    def test_compose_chain_reports_collision_at_ceiling(self, tower, monkeypatch):
        monkeypatch.setattr(retraction, "_p_ceiling", lambda group, R: 1)
        monkeypatch.setattr(retraction, "_floor_family", lambda group, R, k: None)
        with pytest.raises(AscentExhausted) as exc:
            compose_chain(tower, 2)
        err = exc.value
        assert (err.ceiling, err.R) == (1, 2)
        w, w2 = err.witness
        assert w != w2
        assert apply_chain(tower, 2, 1, w) == apply_chain(tower, 2, 1, w2)


class TestComposeChain:
    def test_single_stage_matches_minimal_p(self, G1):
        chain = compose_chain(G1, 2)
        assert chain.p == minimal_discriminating_p(G1, 2)

    def test_two_stage_discriminates(self, tower):
        chain = compose_chain(tower, 2)
        # injectivity re-verified independently
        images = [apply_chain(tower, 2, chain.p, w) for w in tower.ball(2)]
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
                assert retraction._collision(group, R, p, ball, 1) == expected
                assert retraction._images_injective(group, R, p, ball) == expected

    @pytest.mark.parametrize("label", sorted(WALK_SPECS))
    def test_chain_walk_matches_per_element_scan(self, label):
        group, rmax = _walk_group(label)
        for R in range(1, rmax + 1):
            ball = group.ball(R)
            top, found = _ascent_top(lambda g, r: compose_chain(g, r).p, group, R)
            for p in range(1, top + 1):
                expected = brute_first_collision(ball, lambda w: apply_chain(group, R, p, w))
                assert (expected is None) == (found and p == top)
                assert retraction._collision(group, R, p, ball, len(group.stages)) == expected

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


def _floor(group, R, k):
    family = retraction._floor_family(group, R, k)
    return family, 1 if family is None else 1 + family[1] + family[2]


def _walk_p_min(group, R, k):
    """Least injective p by walking every p from 1, with no floor."""
    ball = group.ball(R)
    for p in range(1, retraction._p_ceiling(group, R) + 1):
        if retraction._collision(group, R, p, ball, k) is None:
            return p
    raise AssertionError(f"no injective p up to the ceiling at R={R}")


class TestFloor:
    """The closed-form pairs the p ascent starts above."""

    @pytest.mark.parametrize("label", sorted(FLOOR_SPECS))
    def test_pairs_below_floor_collide_in_ball(self, label):
        group, rmax = _walk_group(label, FLOOR_SPECS)
        for k in sorted({1, len(group.stages)}):
            for R in range(rmax + 1):
                family, floor = _floor(group, R, k)
                for p in range(1, floor):
                    w, w2 = retraction._floor_pair(group, family, p)
                    assert group.word_length(w) <= R and group.word_length(w2) <= R
                    assert w != w2
                    if k == 1:
                        spec = ThetaSpec(group, R, p)
                        assert apply_theta(spec, w) == apply_theta(spec, w2)
                    else:
                        assert apply_chain(group, R, p, w) == apply_chain(group, R, p, w2)

    @pytest.mark.parametrize("label", sorted(FLOOR_SPECS))
    def test_floor_not_above_walk_p_min(self, label):
        group, rmax = _walk_group(label, FLOOR_SPECS)
        for k in sorted({1, len(group.stages)}):
            for R in range(rmax + 1):
                assert _floor(group, R, k)[1] <= _walk_p_min(group, R, k), (k, R)

    @pytest.mark.parametrize("label", sorted(CEILING_SPECS))
    def test_floor_below_ceiling(self, label):
        # so the ascent tries at least one p, and its witness is a collision
        group, _ = _walk_group(label, CEILING_SPECS)
        for k in sorted({1, len(group.stages)}):
            for R in range(9):
                floor = retraction._floor(retraction._floor_family(group, R, k))
                assert floor <= max(1, 2 * R) < retraction._p_ceiling(group, R), (k, R)

    def test_floor_is_p_min_for_single_letter_u(self):
        group = EocGroup(A, [(a, 1)])
        for R in range(8):
            floor = _floor(group, R, 1)[1]
            assert floor == max(1, 2 * R)
            assert minimal_discriminating_p(group, R) == floor

    def test_conjugated_family_beats_unconjugated(self):
        # u = g1 g2 G1: (t u^-j, u^m) fits no m >= 1 at R = 3, since
        # |u| = 3, but (G1 t g1 g2^-j, g2^m) fits m <= 3
        group, _ = _walk_group("g1g2G1", FLOOR_SPECS)
        assert _floor(group, 3, 1) == ((0, 0, 3), 4)
        assert [w.tokens() for w in retraction._floor_pair(group, (0, 0, 3), 3)] == [
            "G1 t1.1 g1",
            "g2 g2 g2",
        ]

    def test_certificate_rules_out_p_below_p_min(self):
        # g1 g1 g2 at R = 5: the floor is 3 but p_min is 4, so the
        # certificate is the walk's collision at p = 3
        group, rmax = _walk_group("g1g1g2", FLOOR_SPECS)
        for R in range(rmax + 1):
            rec = complexity_record(group, R)
            family, floor = _floor(group, R, 1)
            if rec.p_min == 1:
                assert rec.certificate is None
            elif rec.p_min == floor:
                assert rec.certificate == retraction._floor_pair(group, family, floor - 1)
            else:
                spec = ThetaSpec(group, R, rec.p_min - 1)
                expected = brute_first_collision(group.ball(R), lambda w: apply_theta(spec, w))
                assert rec.certificate == expected
        assert (rec.p_min, floor) == (4, 3)


class TestFingerprints:
    """The one depth-first walk: equal fingerprints are settled exactly and the ball-order pair is kept.

    There is no early stop, so every p walks the whole ball.
    """

    # a constant fingerprint makes one run of the whole ball, and mod 4
    # makes four runs that mix distinct images
    @pytest.mark.parametrize(
        "fingerprint",
        [hash, lambda image: 0, lambda image: hash(image) & 3],
        ids=["hash", "constant", "mod4"],
    )
    @pytest.mark.parametrize("label", sorted(WALK_SPECS))
    def test_walk_settles_runs_as_per_element_scan(self, label, fingerprint, monkeypatch):
        monkeypatch.setattr(retraction, "_fingerprint", fingerprint)
        group, rmax = _walk_group(label)
        for k in sorted({1, len(group.stages)}):
            for R in range(1, rmax + 1):
                ball = group.ball(R)
                for p in range(1, _walk_p_min(group, R, k) + 1):
                    if k == 1:
                        spec = ThetaSpec(group, R, p)
                        image = lambda w: apply_theta(spec, w)
                    else:
                        image = lambda w: apply_chain(group, R, p, w)
                    expected = brute_first_collision(ball, image)
                    assert retraction._collision(group, R, p, ball, k) == expected

    @pytest.mark.parametrize("label", sorted(WALK_SPECS))
    def test_walk_fingerprints_every_element_once(self, label, monkeypatch):
        group, R = _walk_group(label)
        ball = group.ball(R)
        for k in sorted({1, len(group.stages)}):
            p = _walk_p_min(group, R, k)

            def image(w):
                # as the walk keeps them: bare letters once in the free base
                img = retraction._retract(group, R, p, w, k)
                return img if img.group.stages else retraction._base_letters(img)

            seen = []
            monkeypatch.setattr(retraction, "_fingerprint", lambda img: seen.append(img) or hash(img))
            assert retraction._collision(group, R, p, ball, k) is None
            assert Counter(seen) == Counter(map(image, ball))

    # homomorphisms of G1 onto the free base, as the images of g1, g2 and
    # t1.1, with the pair of ball indices a ball-order scan stops at;
    # sending a generator to 1 merges it with the root, whose fingerprint
    # the walk records before any other
    @pytest.mark.parametrize(
        "fingerprint",
        [hash, lambda image: 0, lambda image: hash(image) & 3],
        ids=["hash", "constant", "mod4"],
    )
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
    def test_walk_of_any_homomorphism_matches_per_element_scan(self, g1, g2, t, pair, fingerprint, monkeypatch):
        monkeypatch.setattr(retraction, "_fingerprint", fingerprint)
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
        expected = brute_first_collision(ball, image)
        assert retraction._first_collision(ball, letters, (), join_letters) == expected
        assert (expected and (ball.index(expected[0]), ball.index(expected[1]))) == pair

    # p = 1 collides early in the R = 7 ball; p = 11, one below p_min,
    # collides deep in the R = 6 ball
    @pytest.mark.parametrize("R, p, index, size", [(7, 1, 5, 46_367), (6, 11, 6_270, 10_945)])
    def test_failing_walk_matches_per_element_scan(self, R, p, index, size):
        group = EocGroup(A, [(a, 1)])
        ball = group.ball(R)
        pair = retraction._collision(group, R, p, ball, 1)
        assert pair == brute_first_collision(ball, lambda w: apply_theta(ThetaSpec(group, R, p), w))
        assert (ball.index(pair[1]), len(ball)) == (index, size)

    def test_walk_memory_bounded(self):
        # the R = 7 ball has 46,367 elements; holding all their images
        # took 16.6 MB
        group = EocGroup(A, [(a, 1)])
        ball = group.ball(7)
        tracemalloc.start()
        try:
            assert retraction._collision(group, 7, 14, ball, 1) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
