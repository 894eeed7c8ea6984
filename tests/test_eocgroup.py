import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from discrimlab.eocgroup import AbelianSyllable, EocGroup, load_group_spec
from discrimlab.errors import BudgetExceeded, GroupSpecError, WordFormatError
from discrimlab.freewords import Alphabet, Word, conjugate, parse_word

from oracles import raag_ball_size

A = Alphabet(2)
a, b = A.generators()


@pytest.fixture(scope="module")
def G():
    """Single extension along u = a, rank 1."""
    return EocGroup(A, [(a, 1)])


@pytest.fixture(scope="module")
def tower():
    """Two stages (a, 1), (b, 1)."""
    return EocGroup(A, [(a, 1), (b, 1)])


class TestValidation:
    def test_proper_power_u_rejected(self):
        with pytest.raises(GroupSpecError):
            EocGroup(A, [(a**2, 1)])

    def test_trivial_u_rejected(self):
        with pytest.raises(GroupSpecError):
            EocGroup(A, [(A.identity(), 1)])

    def test_commensurable_stages_rejected(self):
        with pytest.raises(GroupSpecError) as exc:
            EocGroup(A, [(a, 1), (a.inverse(), 2)])
        assert exc.value.stage == 1

    def test_conjugate_stages_rejected(self):
        # accepting u2 = b a b^-1 next to u1 = a gave two normal forms of one
        # element: t1.1 g1 G2 t2.1 and t1.1 G2 t2.1 g2 g1 G2, whose quotient
        # normalized to the identity
        witness = {"free_rank": 2, "stages": [{"u": "g1", "rank": 1}, {"u": "g2 g1 G2", "rank": 1}]}
        with pytest.raises(GroupSpecError) as exc:
            load_group_spec(json.dumps(witness))
        assert exc.value.stage == 1
        for u1, u2 in (("g1", "g2 G1 G2"), ("g1 g2", "g2 g1"), ("g1 g2", "G1 G2")):
            with pytest.raises(GroupSpecError):
                EocGroup(A, [(parse_word(A, u1), 1), (parse_word(A, u2), 1)])
        EocGroup(A, [(a * b, 1), (a * b.inverse(), 1)])

    def test_zero_rank_rejected(self):
        with pytest.raises(GroupSpecError):
            EocGroup(A, [(a, 0)])

    def test_spec_document_roundtrip(self):
        doc = {"free_rank": 2, "stages": [{"u": "g1 g2", "rank": 2}]}
        g = load_group_spec(json.dumps(doc))
        assert g.alphabet.rank == 2
        assert g.stages[0].u == a * b and g.stages[0].rank == 2

    def test_bad_json(self):
        with pytest.raises(GroupSpecError):
            load_group_spec("{not json")
        with pytest.raises(GroupSpecError):
            load_group_spec("[]")


class TestWordProblem:
    def test_t_commutes_with_u(self, G):
        assert G.element("g1 t1.1 G1 T1.1").is_trivial()

    def test_t_does_not_commute_with_b(self, G):
        assert not G.element("g2 t1.1 G2 T1.1").is_trivial()

    def test_t_commutes_with_u_powers(self, G):
        assert G.element("g1 g1 t1.1 G1 G1 T1.1").is_trivial()

    def test_conjugation_does_not_collapse(self, G):
        w = G.element("g2 t1.1 G2")
        assert not w.is_trivial()
        assert w != G.element("t1.1")

    def test_t_letters_free_over_distinct_cosets(self, G):
        # b t b^-1 and t generate no unexpected relation at short length
        x = G.element("g2 t1.1 G2")
        t = G.element("t1.1")
        assert not (x * t * x.inverse() * t.inverse()).is_trivial()

    def test_inverse(self, G):
        for text in ("g1 t1.1 g2", "t1.1 t1.1 G2", "g2 g1 t1.1"):
            w = G.element(text)
            assert (w * w.inverse()).is_trivial()
            assert (w.inverse() * w).is_trivial()

    def test_normal_form_idempotent(self, G):
        w = G.element("g1 g1 t1.1 G1 g2 t1.1")
        assert G.element(w.tokens()) == w

    def test_multiplication_is_homomorphic_exhaustive(self, G):
        B = G.ball(2)
        elems = random.Random(7).sample(B, 12)
        for x, y in itertools.product(elems, elems):
            joint = G.element(
                G.parse_tokens(x.tokens()) + G.parse_tokens(y.tokens())
            )
            assert joint == x * y

    def test_tower_mixed_commutation(self, tower):
        # t2 commutes with b but not with a
        assert tower.element("g2 t2.1 G2 T2.1").is_trivial()
        assert not tower.element("g1 t2.1 G1 T2.1").is_trivial()
        # t1 and t2 do not commute with each other
        assert not tower.element("t1.1 t2.1 T1.1 T2.1").is_trivial()


class TestBall:
    def test_layer_sizes_single_stage(self, G):
        assert [len(G.ball(r)) for r in range(6)] == [1, 7, 33, 143, 609, 2583]
        G2 = EocGroup(A, [(a, 2)])
        assert [len(G2.ball(r)) for r in range(6)] == [1, 9, 53, 285, 1513, 8017]

    def test_layer_sizes_tower(self, tower):
        assert [len(tower.ball(r)) for r in range(3)] == [1, 9, 57]

    def test_raag_sizes_match_growth_series(self):
        # single-letter u's give right-angled Artin groups; the clique
        # polynomial counts the cliques of the generators' commutation graph
        for stages, clique_poly, rmax in (
            ([(a, 1)], (1, 3, 1), 7),
            ([(a, 2)], (1, 4, 3, 1), 5),
            ([(a, 1), (b, 1)], (1, 4, 2), 4),
        ):
            group = EocGroup(A, stages)
            sizes = [len(group.ball(R)) for R in range(rmax + 1)]
            assert sizes == [raag_ball_size(clique_poly, R) for R in range(rmax + 1)]

    def test_ball_distinct(self, G):
        B = G.ball(3)
        assert len(set(B)) == len(B)

    def test_word_length(self, G):
        assert G.word_length(G.identity()) == 0
        assert G.word_length(G.element("t1.1")) == 1
        # a t a^-1 reduces to t (commutation), length 1
        assert G.word_length(G.element("g1 t1.1 G1")) == 1
        assert G.word_length(G.element("g2 t1.1 G2")) == 3

    def test_cap(self):
        g = EocGroup(A, [(a, 1)])
        with pytest.raises(BudgetExceeded):
            g.ball(8, cap=50)

    def test_cap_mid_layer_leaves_group_usable(self):
        # the radius-1 and radius-2 balls have 7 and 33 elements, so cap 5
        # trips inside layer 1 and cap 10 inside layer 2
        g = EocGroup(A, [(a, 1)])
        with pytest.raises(BudgetExceeded):
            g.ball(3, cap=5)
        with pytest.raises(BudgetExceeded):
            g.ball(3, cap=10)
        assert len(g.ball(3)) == 143
        assert g.word_length(g.element("g2 t1.1 G2")) == 3


class TestTokens:
    def test_roundtrip(self, G):
        for text in ("g1 t1.1", "g2 t1.1 G2 g1", "t1.1 t1.1 g1"):
            w = G.element(text)
            assert G.element(w.tokens()) == w

    def test_unknown_stage(self, G):
        with pytest.raises(WordFormatError):
            G.parse_tokens("t2.1")

    def test_bad_t_index(self, G):
        with pytest.raises(WordFormatError):
            G.parse_tokens("t1.2")

    def test_malformed(self, G):
        with pytest.raises(WordFormatError):
            G.parse_tokens("t1")

    def test_base_token_errors_carry_position(self, G):
        for text in ("g1 t1.1 g3", "g1 t1.1 x2"):
            with pytest.raises(WordFormatError) as exc:
                G.parse_tokens(text)
            assert exc.value.position == 8

    def test_base_element(self, G):
        w = parse_word(A, "g1 g2 G1")
        assert G.base_element(w).tokens() == "g1 g2 G1"

    def test_abelian_element_normalizes_pure_u_power(self, G):
        # u^2 with zero t-part is base material
        e = G.abelian_element(0, 2, (0,))
        assert e == G.element("g1 g1")


class TestHashes:
    def test_ball_hashes_distinct(self, G):
        # G1 and G2 letters, and u-exponents -1 and -2, hash apart
        B = G.ball(5)
        assert len({hash(x) for x in B}) == len(B)

    def test_abelian_syllable_separates_minus_one_and_minus_two(self):
        assert hash(AbelianSyllable(0, -1, (1,))) != hash(AbelianSyllable(0, -2, (1,)))
        assert hash(AbelianSyllable(0, 1, (-1,))) != hash(AbelianSyllable(0, 1, (-2,)))


@st.composite
def groups(draw):
    """Free rank 2-3, 1-2 pairwise non-conjugate stages, |u| 1-3, t-rank 1-2."""
    alphabet = Alphabet(draw(st.integers(2, 3)))
    letter = st.sampled_from(
        [i for i in range(1, alphabet.rank + 1)] + [-i for i in range(1, alphabet.rank + 1)]
    )
    stages = []
    for _ in range(draw(st.integers(1, 2))):
        u = Word(alphabet, draw(st.lists(letter, min_size=1, max_size=3)))
        assume(u and not u.is_proper_power())
        assume(not any(conjugate(u, v) or conjugate(u, v.inverse()) for v, _ in stages))
        stages.append((u, draw(st.integers(1, 2))))
    return EocGroup(alphabet, stages)


@st.composite
def group_and_elements(draw):
    group = draw(groups())
    tokens = st.lists(st.sampled_from(group.generator_tokens()), max_size=8)
    return group, group.element(draw(tokens)), group.element(draw(tokens))


class TestTailProducts:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(group_and_elements())
    def test_product_equals_full_renormalization(self, case):
        G, x, y = case
        assert x * y == G._from_syllables(x.syllables + y.syllables)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(group_and_elements())
    def test_strip_idempotent_on_canonical_syllables(self, case):
        G, x, y = case
        syls = (x * y).syllables
        for i, syl in enumerate(syls):
            if not isinstance(syl, Word):
                continue
            left = syls[i - 1] if i > 0 else None
            right = syls[i + 1] if i + 1 < len(syls) else None
            ls = left.stage if isinstance(left, AbelianSyllable) else None
            rs = right.stage if isinstance(right, AbelianSyllable) else None
            assert G._strip(syl, ls, rs) == (0, syl, 0)


class TestNormalFormStructure:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(group_and_elements())
    def test_product_syllables_alternate(self, case):
        G, x, y = case
        syls = (x * y).syllables
        for syl in syls:
            if isinstance(syl, Word):
                assert not syl.is_identity()
            else:
                assert any(syl.t_exps)
        for left, right in zip(syls, syls[1:]):
            assert not (isinstance(left, Word) and isinstance(right, Word))
            if isinstance(left, AbelianSyllable) and isinstance(right, AbelianSyllable):
                assert left.stage != right.stage


def assert_ball_tree(group, radius):
    """Every ball element is its recorded BFS parent times its recorded generator."""
    ball = group.ball(radius)
    gens = group.generators()
    assert len(group._tree_parents) == len(group._tree_gens) == len(group._lengths)
    assert (group._tree_parents[0], group._tree_gens[0]) == (-1, -1)
    for k in range(1, len(ball)):
        parent = group._tree_parents[k]
        assert group._lengths[ball[parent]] == group._lengths[ball[k]] - 1
        assert ball[k] == ball[parent] * gens[group._tree_gens[k]]


class TestBallTree:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(groups(), st.integers(0, 3))
    def test_element_is_parent_times_generator(self, G, radius):
        assert_ball_tree(G, radius)

    def test_generators_follow_token_order(self, tower):
        assert tower.generators() == [tower.element([tok]) for tok in tower.generator_tokens()]

    def test_tree_rolls_back_with_the_layers(self):
        g = EocGroup(A, [(a, 1)])
        with pytest.raises(BudgetExceeded):
            g.ball(3, cap=5)
        assert len(g._tree_parents) == len(g._tree_gens) == len(g._lengths) == 1
        assert len(g.ball(3)) == 143
        assert_ball_tree(g, 3)
