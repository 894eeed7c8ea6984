import itertools
import json
import random

import pytest

from discrimlab.eocgroup import EocGroup, load_group_spec
from discrimlab.errors import BudgetExceeded, GroupSpecError, WordFormatError
from discrimlab.freewords import Alphabet, parse_word

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
        assert [len(G.ball(r)) for r in range(4)] == [1, 7, 33, 143]

    def test_layer_sizes_tower(self, tower):
        assert [len(tower.ball(r)) for r in range(3)] == [1, 9, 57]

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

    def test_base_element(self, G):
        w = parse_word(A, "g1 g2 G1")
        assert G.base_element(w).tokens() == "g1 g2 G1"

    def test_abelian_element_normalizes_pure_u_power(self, G):
        # u^2 with zero t-part is base material
        e = G.abelian_element(0, 2, (0,))
        assert e == G.element("g1 g1")
