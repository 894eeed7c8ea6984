import itertools
from fractions import Fraction

import pytest

from discrimlab import retraction
from discrimlab.eocgroup import EocGroup
from discrimlab.errors import AscentExhausted
from discrimlab.freewords import Alphabet, parse_word
from discrimlab.retraction import (
    ThetaSpec,
    apply_chain,
    apply_theta,
    complexity_curve,
    complexity_record,
    compose_chain,
    minimal_discriminating_p,
    subtower,
    t_image,
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
        assert t_image(ThetaSpec(G1, 2, 7), 1) == a**7
        assert t_image(ThetaSpec(G2, 2, 7), 2) == a**35

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
                assert apply_theta(spec, w, target) == expected

    def test_homomorphism_on_ball(self, G1):
        spec = ThetaSpec(G1, 2, 4)
        target = spec.target
        B = G1.ball(2)[:20]
        for x, y in itertools.product(B, B):
            assert apply_theta(spec, x * y, target) == apply_theta(
                spec, x, target
            ) * apply_theta(spec, y, target)

    def test_retraction_fixes_t_free_elements(self, G1):
        spec = ThetaSpec(G1, 3, 2)
        for w in G1.ball(4):
            if "t" not in w.tokens() and "T" not in w.tokens():
                assert apply_theta(spec, w).tokens() == w.tokens()


    def test_matches_per_syllable_oracle(self, G1, G2, tower):
        groups = (G1, G2, EocGroup(A, [(a * b * a.inverse() * a.inverse(), 1)]), tower)
        for group in groups:
            ball = group.ball(4)
            target = subtower(group)
            for p in (1, 2, 5, 9):
                spec = ThetaSpec(group, 4, p)
                for w in ball:
                    assert apply_theta(spec, w, target) == per_syllable_apply_theta(
                        spec, w, target
                    )


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
            target = subtower(G1)
            below = {apply_theta(ThetaSpec(G1, R, p - 1), w, target) for w in ball}
            assert len(below) < len(ball)

    def test_triviality_oracle_agreement(self, G1):
        R = 3
        p = minimal_discriminating_p(G1, R)
        spec = ThetaSpec(G1, R, p)
        target = spec.target
        for w in G1.ball(R):
            assert w.is_trivial() == apply_theta(spec, w, target).is_trivial()


class TestCurve:
    def test_record_fields(self, G1):
        rec = complexity_record(G1, 2)
        assert rec.p_min == 4
        assert rec.complexity == rec.upper_model == 4  # |u| = 1
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
    def test_minimal_p_reports_collision_at_ceiling(self, G1, monkeypatch):
        monkeypatch.setattr(retraction, "_p_ceiling", lambda group, R: 1)
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
        bound = 1
        for c in chain.stage_complexities:
            bound *= c
        for tok_text, img_len, prod in chain.submultiplicative:
            assert img_len <= prod == bound

    def test_composite_fixes_base(self, tower):
        chain = compose_chain(tower, 1)
        for text in ("g1", "g2", "g1 g2 G1"):
            w = tower.element(text)
            assert apply_chain(tower, 1, chain.p, w).tokens() == text


# (free rank, stages as (u, rank), largest R checked); u = g1 g2 has no
# injective p up to the ceiling at R = 3 (its normal form is not canonical)
WALK_SPECS = {
    "g1-rank1": (2, [("g1", 1)], 4),
    "g1-rank2": (2, [("g1", 2)], 3),
    "tower": (2, [("g1", 1), ("g2", 1)], 3),
    "rank3": (3, [("g1 g3 G1", 1), ("g2", 1)], 2),
    "g1g2": (2, [("g1 g2", 1)], 3),
}


def _walk_group(label):
    rank, stages, rmax = WALK_SPECS[label]
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
        target = subtower(group)
        for R in range(1, rmax + 1):
            ball = group.ball(R)
            top, found = _ascent_top(minimal_discriminating_p, group, R)
            for p in range(1, top + 1):
                spec = ThetaSpec(group, R, p)
                expected = brute_first_collision(ball, lambda w: apply_theta(spec, w, target))
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

    def test_noncanonical_u_witness_kept(self):
        group, _ = _walk_group("g1g2")
        for ascent in (minimal_discriminating_p, compose_chain):
            with pytest.raises(AscentExhausted) as exc:
                ascent(group, 3)
            assert [w.tokens() for w in exc.value.witness] == ["g2 t1.1 G2", "G1 t1.1 g1"]
