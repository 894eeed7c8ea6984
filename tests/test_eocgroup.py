import bisect
import collections
import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from discrimlab import eocgroup
from discrimlab.eocgroup import EocGroup, load_group_spec
from discrimlab.errors import BudgetExceeded, GroupSpecError, WordFormatError
from discrimlab.freewords import Alphabet, Word, conjugate, parse_word

from oracles import (
    ball_image_count,
    product_power,
    raag_ball_size,
    stack_normal_form,
    word_length,
)

A = Alphabet(2)
a, b = A.generators()

KEY = eocgroup._key


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
        assert word_length(G, G.identity()) == 0
        assert word_length(G, G.element("t1.1")) == 1
        # a t a^-1 reduces to t (commutation), length 1
        assert word_length(G, G.element("g1 t1.1 G1")) == 1
        assert word_length(G, G.element("g2 t1.1 G2")) == 3

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
        assert word_length(g, g.element("g2 t1.1 G2")) == 3


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

    # positions as the str.split() / str.index scan reported them, for
    # base and t-tokens after tabs, runs of spaces, leading blanks and U+3000
    @pytest.mark.parametrize(
        "text, position",
        [
            ("g1\tt1.1\tt2.1", 8),
            ("t1.1   g1  g3", 11),
            ("  \t t1.1 t1.2", 9),
            ("g1\u3000x1", 3),
            ("\u3000t1.1\u3000\u3000t1.1 t1.1x", 12),
        ],
    )
    def test_error_position_after_any_blanks(self, G, text, position):
        with pytest.raises(WordFormatError) as exc:
            G.parse_tokens(text)
        assert exc.value.position == position

    def test_base_element(self, G):
        w = parse_word(A, "g1 g2 G1")
        assert G.base_element(w).tokens() == "g1 g2 G1"

    def test_abelian_element_normalizes_pure_u_power(self, G):
        # u^2 with zero t-part is base material
        e = G.abelian_element(0, 2, (0,))
        assert e == G.element("g1 g1")

    def test_u_power_reduces_against_the_base_syllable_before(self):
        # the syllables G1 . u^-1 t . g1 once printed as G1 g1 G2 G1 t1.1 g1
        G = EocGroup(A, [(parse_word(A, "g1 g2 G1"), 1)])
        w = G.element("G1 g1 G2 G1 t1.1 g1")
        assert len(w.syllables) == 3
        assert w.tokens() == "G2 G1 t1.1 g1"

    def test_ball_prints_reduced_and_parses_back(self):
        G = EocGroup(A, [(parse_word(A, "g1 g2 G1"), 1)])
        for w in G.ball(4):
            tokens = w.tokens().split()
            assert not any(x.swapcase() == y for x, y in zip(tokens, tokens[1:])), tokens
            assert G.element(w.tokens()) == w


class TestHashes:
    def test_ball_hashes_distinct(self):
        # G1 and G2 letters, and u-exponents -1 and -2, hash apart
        B = EocGroup(A, [(a, 1)]).ball(7)
        assert len(B) == 46_367
        assert len({hash(x) for x in B}) == len(B)

    def test_minus_one_and_minus_two_hash_apart(self, G):
        pairs = (
            ("G1 t1.1", "G1 G1 t1.1"),  # u^-1 t against u^-2 t
            ("g1 T1.1", "g1 T1.1 T1.1"),  # t^-1 against t^-2
            ("G1", "G2"),
        )
        for x, y in pairs:
            assert hash(G.element(x)) != hash(G.element(y))


def ball_digest(group, radius):
    """sha256 of the ball's tokens in ball order and of its BFS tree arrays."""
    ball = group.ball(radius)
    h = hashlib.sha256()
    h.update("\n".join(e.tokens() for e in ball).encode())
    h.update(b"\n" + ",".join(map(str, group._tree_parents)).encode())
    h.update(b"\n" + ",".join(map(str, group._tree_gens)).encode())
    return h.hexdigest()


# digests frozen from the normal form that stored syllables as objects;
# the first-collision witnesses of the p ascent depend on this order
FROZEN_BALLS = pytest.mark.parametrize(
    "stages, radius, size, digest",
    [
        ([(a, 1)], 5, 2583, "71d763a4bf3d4a40653b7d032e37232c60c738f388a551cc5d8685f2af3b13c9"),
        ([(a, 2)], 4, 1513, "2f7e1834a68e5986756ba5808a4ea07f5da89465b3a4ed3fed9de0da1a97f956"),
        ([(a, 1), (b, 1)], 4, 1969, "80c2fa49b13d8d2ff65ae50a401d9083f47734c5610da2ea237268126cae354e"),
        # multi-letter u, frozen from the ball built by the generic
        # normalizer before one-generator products had their own method
        ([(a * a * b, 1)], 5, 4595, "412536b98ac2d220c110fe89d6693039f126b34705a4572c2a373dfeb108890a"),
        ([(a * b * a.inverse(), 2)], 4, 2553, "619df37b75856a9d7401cec0c6a3b79f280bd9d41f98796bc4cf791f0d41a865"),
    ],
)


class TestBallOrder:
    @FROZEN_BALLS
    def test_bfs_order_frozen(self, stages, radius, size, digest):
        group = EocGroup(A, stages)
        assert len(group.ball(radius)) == size
        assert ball_digest(group, radius) == digest

    def test_regrown_after_cap_matches_uninterrupted(self):
        # ball sizes 1, 7, 37, 187, 929: each cap trips inside a layer, after
        # that layer's first insertions
        stages = [(a * a * b, 1)]
        group = EocGroup(A, stages)
        for cap in (5, 100, 500):
            with pytest.raises(BudgetExceeded):
                group.ball(4, cap=cap)
            assert len(group._tree_parents) == len(group._tree_gens) == group._ends[-1]
        assert ball_digest(group, 4) == ball_digest(EocGroup(A, stages), 4)


def general(group):
    """`group`, set to grow its ball by the rule of multi-letter specs, also on a RAAG spec.

    That rule resolves candidates by back edges, commuting squares, keys
    and normal forms (``EocGroup._grow_layer``).
    """
    group._raag = False
    return group


@pytest.fixture(
    params=[lambda m: np.zeros(len(m), dtype=np.int64), lambda m: KEY(m) & 3],
    ids=["constant", "mod4"],
)
def clashing_key(request, monkeypatch):
    """Patch the ball's key to one that clashes, and grow every group's ball by keys.

    A constant key settles every candidate against the whole ball, and the
    key mod 4 makes four runs that mix distinct elements.  Every group
    built under the patch takes the general rule (``general``), so its
    layers are settled by keys, also on RAAG specs.
    """
    monkeypatch.setattr(eocgroup, "_key", request.param)
    init = EocGroup.__init__

    def init_general(self, *args):
        init(self, *args)
        general(self)

    monkeypatch.setattr(EocGroup, "__init__", init_general)


class TestClashingKeys:
    """Balls grown with clashing keys are the frozen ones: only normal forms merge candidates."""

    @FROZEN_BALLS
    def test_bfs_order_frozen(self, clashing_key, stages, radius, size, digest):
        TestBallOrder().test_bfs_order_frozen(stages, radius, size, digest)

    def test_regrown_after_cap_matches_uninterrupted(self, clashing_key):
        TestBallOrder().test_regrown_after_cap_matches_uninterrupted()

    def test_word_length(self, clashing_key):
        TestBall().test_word_length(EocGroup(A, [(a, 1)]))

    def test_square_rollback(self, clashing_key):
        TestSquares().test_cap_rolls_the_row_back()


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


def is_abelian(syl):
    """Abelian syllables (2 * stage + 1, 2e, 2v...) lead with an odd entry."""
    return syl[0] % 2 == 1


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
            if is_abelian(syl):
                continue
            left = syls[i - 1] if i > 0 else None
            right = syls[i + 1] if i + 1 < len(syls) else None
            ls = left[0] // 2 if left else None
            rs = right[0] // 2 if right else None
            assert G._strip(syl, ls, rs) == (0, syl, 0)


class TestNormalFormStructure:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(group_and_elements())
    def test_product_syllables_alternate(self, case):
        G, x, y = case
        syls = (x * y).syllables
        for syl in syls:
            assert all(type(v) is int for v in syl)
            if is_abelian(syl):
                stage = syl[0] // 2
                assert 0 <= stage < len(G.stages)
                assert len(syl) == 2 + G.stages[stage].rank
                assert all(v % 2 == 0 for v in syl[1:])
                assert any(syl[2:])
            else:
                # doubled letters of a nonempty reduced word
                assert syl and all(v % 2 == 0 and 0 < abs(v) <= 2 * G.alphabet.rank for v in syl)
                assert Word(G.alphabet, [v // 2 for v in syl]).letters == tuple(v // 2 for v in syl)
        for left, right in zip(syls, syls[1:]):
            assert is_abelian(left) or is_abelian(right)
            if is_abelian(left) and is_abelian(right):
                assert left[0] != right[0]


def tokens_group(stages, rank=2):
    """The group of (u tokens, t-rank) stages over F_rank."""
    alphabet = Alphabet(rank)
    return EocGroup(alphabet, [(parse_word(alphabet, u), n) for u, n in stages])


# (free rank, stages as (u, rank), largest R checked): every stage's u is one
# base letter, so the group is a free product of free abelian factors and F
RAAG_SPECS = {
    "g1-rank1": (2, [("g1", 1)], 4),
    "g1-rank2": (2, [("g1", 2)], 4),
    "g2-rank3": (2, [("g2", 3)], 4),
    "G2-F3": (3, [("G2", 1)], 4),
    "tower": (2, [("g1", 1), ("g2", 1)], 4),
    "tower-21": (2, [("g1", 2), ("g2", 1)], 4),
    "tower-G1g2": (2, [("G1", 2), ("g2", 2)], 4),
    "tower-F3": (3, [("g1", 1), ("g2", 2), ("g3", 1)], 3),
}


# (free rank, [(u tokens, t-rank), ...])
CANONICAL_SPECS = (
    (2, [("g1", 1)]),
    (2, [("g1", 2)]),
    (2, [("G2", 1)]),
    (2, [("g1", 1), ("g2", 1)]),
    (2, [("g2", 2), ("G1", 1)]),
    (3, [("g3", 1)]),
    (3, [("g1", 1), ("G3", 2)]),
    (2, [("g1 g2", 1)]),
    (2, [("g1 g1 g2", 1)]),
    (2, [("g1 g2 G1", 2)]),
    (2, [("g1 g2 G1 G2", 1)]),
    (2, [("g1", 1), ("g2", 1), ("g1 g2", 1)]),
)


@functools.lru_cache(maxsize=None)
def canonical_group(index):
    """One group per spec, kept so that its ball grows once across examples."""
    rank, stages = CANONICAL_SPECS[index]
    return tokens_group(stages, rank)


@st.composite
def canonical_words(draw, count, max_tokens):
    group = canonical_group(draw(st.integers(0, len(CANONICAL_SPECS) - 1)))
    tokens = st.lists(st.sampled_from(group.generator_tokens()), max_size=max_tokens)
    return group, [draw(tokens) for _ in range(count)]


class TestGroupLaws:
    """Group laws of the normal form, on single- and multi-letter u's."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(canonical_words(2, 8))
    def test_element_of_concatenation_is_product(self, case):
        G, (x, y) = case
        assert G.element(x + y) == G.element(x) * G.element(y)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(canonical_words(3, 6))
    def test_associative(self, case):
        G, words = case
        x, y, z = map(G.element, words)
        assert (x * y) * z == x * (y * z)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(canonical_words(2, 8))
    def test_inverse_of_product(self, case):
        G, words = case
        x, y = map(G.element, words)
        assert (x * y).inverse() == y.inverse() * x.inverse()
        assert (x * x.inverse()).is_trivial()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(canonical_words(1, 4))
    def test_word_length_of_inverse(self, case):
        G, (x,) = case
        w = G.element(x)
        # every radius-4 ball here has at most 11,825 elements, so the cap
        # turns an element missing from the ball into a failure, not a long search
        cap = 12_000
        assert word_length(G, w, cap) == word_length(G, w.inverse(), cap) <= len(x)


def assert_times_is_stack_normal_form(group, radius):
    """Every ball element times every generator agrees with the stack normalizer."""
    for w in group.ball(radius):
        for gen in group._generator_syllables:
            expected = stack_normal_form(group, (gen,), w.syllables).syllables
            assert group._times(w.syllables, gen) == expected, (w, gen)


class TestTimesGenerator:
    @pytest.mark.parametrize("u", ["g1", "g1 g1 g2", "g1 g2 G1", "g1 g2"])
    def test_single_stage(self, u):
        # u = g1 g2: a letter after an abelian tail can strip to another
        # letter (g1 = u G2), and a base tail's strip can move
        assert_times_is_stack_normal_form(EocGroup(A, [(parse_word(A, u), 1)]), 4)

    @pytest.mark.parametrize("stages", [[(a, 1), (b, 1)], [(a, 1), (b, 1), (a * b, 1)]])
    def test_towers(self, stages):
        assert_times_is_stack_normal_form(EocGroup(A, stages), 4)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(groups(), st.integers(0, 3))
    def test_random_groups(self, G, radius):
        assert_times_is_stack_normal_form(G, radius)


@st.composite
def pinching_words(draw, count):
    """Raw token words of a ``CANONICAL_SPECS`` group with u_j^e runs inserted.

    A run sits alone or between a t-letter of stage j and its inverse,
    where the t-part cancels (a pinch); a run next to a t-letter of stage j
    is absorbed into its abelian syllable.
    """
    group = canonical_group(draw(st.integers(0, len(CANONICAL_SPECS) - 1)))
    tokens = group.generator_tokens()

    def run(tok, e, sandwich):
        letters = list(product_power(group.stages[tok[1]].u, e).letters)
        return [tok, *letters, (*tok[:2], -tok[2])] if sandwich else letters

    t_tokens = [tok for tok in tokens if not isinstance(tok, int)]
    piece = st.one_of(
        st.sampled_from(tokens).map(lambda tok: [tok]),
        st.builds(run, st.sampled_from(t_tokens), st.integers(-2, 2), st.booleans()),
    )
    words = [sum(draw(st.lists(piece, max_size=6)), []) for _ in range(count)]
    return group, words


def raw_syllables(group, tokens):
    return tuple(map(group._token_syllable, tokens))


def inverse_tokens(tokens):
    return [-tok if isinstance(tok, int) else (*tok[:2], -tok[2]) for tok in reversed(tokens)]


class TestStackNormalForm:
    """The fold of ``_times`` against the stack normalizer of ``oracles``."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(pinching_words(2))
    def test_element_product_inverse_and_fold(self, case):
        G, (xt, yt) = case
        x, y = G.element(xt), G.element(yt)
        assert x == stack_normal_form(G, raw_syllables(G, xt))
        assert x * y == stack_normal_form(G, y.syllables, x.syllables)
        assert x.inverse() == stack_normal_form(G, raw_syllables(G, inverse_tokens(xt)))
        concatenated = x.syllables + y.syllables
        assert G._from_syllables(concatenated) == stack_normal_form(G, concatenated)


def assert_ball_tree(group, radius):
    """Every ball element is its recorded BFS parent times its recorded generator."""
    ball = group.ball(radius)
    gens = group.generators()
    assert len(group._tree_parents) == len(group._tree_gens) == group._ends[-1]
    assert (group._tree_parents[0], group._tree_gens[0]) == (-1, -1)
    # no element repeats, so an element's layer is its word length
    # (``oracles.word_length``), and each tree edge is a geodesic step
    assert len(set(ball)) == len(ball)
    for k in range(1, len(ball)):
        parent = group._tree_parents[k]
        assert bisect.bisect_right(group._ends, parent) == bisect.bisect_right(group._ends, k) - 1
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
        assert len(g._tree_parents) == len(g._tree_gens) == g._ends[-1] == 1
        assert len(g.ball(3)) == 143
        assert_ball_tree(g, 3)


class TestBallOracle:
    """Ball sizes against ``oracles.ball_image_count``, which uses no normal-form code."""

    @pytest.mark.parametrize("u", ["g1", "g1 g2", "g1 g1 g2", "g1 g2 G1 G2"])
    def test_single_stage(self, u):
        group = tokens_group([(u, 1)])
        for R in range(5):
            assert len(group.ball(R)) == ball_image_count(group, R, 40), R

    def test_g1g2_sizes(self):
        # a strip that broke ties by offsets gave 183, 897 and 4,383 elements
        group = tokens_group([("g1 g2", 1)])
        assert [len(group.ball(R)) for R in range(3, 6)] == [181, 869, 4157]
        assert ball_image_count(group, 5, 40) == 4157

    def test_three_stage_tower(self):
        group = tokens_group([("g1", 1), ("g2", 1), ("g1 g2", 1)])
        assert len(group.ball(3)) == ball_image_count(group, 3, 40) == 753

    @pytest.mark.parametrize("grow", [lambda g: g, general], ids=["automaton", "general"])
    @pytest.mark.parametrize(
        "stages, radius", [([("g1", 1)], 6), ([("g1", 2)], 4), ([("g1", 1), ("g2", 1)], 4)]
    )
    def test_layers_skip_the_generic_normalizer(self, monkeypatch, grow, stages, radius):
        # no product at all: the shortlex automaton makes no duplicate, and
        # on the general rule commuting squares settle every duplicate, so
        # no normal form is built, and _from_syllables is a fold of _times
        group = grow(tokens_group(stages))
        calls = []
        times = EocGroup._times

        def spy(self, *args):
            calls.append(args)
            return times(self, *args)

        monkeypatch.setattr(EocGroup, "_times", spy)
        group.ball(radius)
        assert calls == []

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(groups(), st.integers(0, 3))
    def test_random_groups(self, G, radius):
        assert len(G.ball(radius)) == ball_image_count(G, radius, 40)


def ball_state(group, radius):
    """The ball's tree arrays, layer ends, normal forms and phi keys."""
    group.ball(radius)
    keys, _ = group._tree_keys(
        group._ends[-1], [eocgroup._phi(group, syl) for syl in group._generator_syllables]
    )
    return (
        list(group._tree_parents),
        list(group._tree_gens),
        list(group._ends),
        [group._form(k) for k in range(group._ends[-1])],
        keys.tobytes(),
    )


def without_squares(monkeypatch, group):
    """Patch the group's commute table to all-False: every duplicate goes through the keys."""
    monkeypatch.setattr(group, "_commute", np.zeros_like(group._commute))
    return group


class TestSquares:
    """Balls grown by commuting squares are the balls grown without them."""

    @FROZEN_BALLS
    def test_frozen_specs(self, monkeypatch, stages, radius, size, digest):
        assert ball_state(general(EocGroup(A, stages)), radius) == ball_state(
            without_squares(monkeypatch, general(EocGroup(A, stages))), radius
        )

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(groups(), st.integers(0, 3))
    def test_random_groups(self, G, radius):
        with pytest.MonkeyPatch.context() as monkeypatch:
            bare = EocGroup(G.alphabet, [(s.u, s.rank) for s in G.stages])
            bare = without_squares(monkeypatch, general(bare))
            assert ball_state(general(G), radius) == ball_state(bare, radius)

    def test_commute_table(self, tower):
        # t1.1 commutes with g1 and G1, t2.1 with g2 and G2; no t's of one stage
        tokens = tower.generator_tokens()
        pairs = {(tokens[h], tokens[g]) for h, g in zip(*np.nonzero(tower._commute))}
        t1, t2 = ("t", 0, 1), ("t", 1, 1)
        expected = set()
        for t, letter in ((t1, 1), (t2, 2)):
            for x in ((*t[:2], 1), (*t[:2], -1)):
                for y in (letter, -letter):
                    expected |= {(x, y), (y, x)}
        assert pairs == expected
        assert not EocGroup(A, [(a * b, 1)])._commute.any()
        assert not EocGroup(A, [])._commute.any()
        assert EocGroup(A, [(a * b, 2)])._commute.any()

    @pytest.mark.parametrize(
        "stages, radius",
        [([("g1", 1)], 5), ([("g1", 2)], 4), ([("g1", 1), ("g2", 1)], 4), ([("g1 g2", 2)], 4)],
    )
    def test_row_resolves_every_candidate(self, stages, radius):
        # the row entry of candidate (parent, g) is the ball index of
        # parent * g if the last layer has it, else -1; every g is a
        # candidate, the one that undoes the parent's own with entry -1
        group = general(tokens_group(stages))
        n = len(group.generator_tokens())
        for r in range(1, radius + 1):
            group.ball(r)
            prev_lo, lo, size = ([0] + group._ends)[-3:]
            layer = {group._form(k): k for k in range(lo, size)}
            expected = [
                layer.get(group._times(group._form(p), group._generator_syllables[g]), -1)
                for p in range(prev_lo, lo)
                for g in range(n)
            ]
            assert group._row.tolist() == expected, r
            undo = [
                (p - prev_lo) * n + group._inverse[group._tree_gens[p]]
                for p in range(max(prev_lo, 1), lo)
            ]
            assert all(expected[c] == -1 for c in undo), r

    def test_cap_rolls_the_row_back(self):
        # ball sizes 1, 7, 33, 143, 609: each cap trips inside a layer
        stages = [(a, 1)]
        group = general(EocGroup(A, stages))
        for cap in (5, 10, 100, 500):
            row = group._row
            with pytest.raises(BudgetExceeded):
                group.ball(4, cap=cap)
            assert group._row is row
            assert len(group._tree_parents) == len(group._tree_gens) == group._ends[-1]
            group.ball(len(group._ends))
        uninterrupted = general(EocGroup(A, stages))
        assert ball_state(group, 5) == ball_state(uninterrupted, 5)
        assert np.array_equal(group._row, uninterrupted._row)

    def test_ball_and_curve_leave_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma on its first call, which costs a CLI
        # command time and memory
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"free_rank": 2, "stages": [{"u": "g1", "rank": 1}]}))
        script = (
            "import sys\n"
            "from discrimlab.cli import main\n"
            f"main(['ball', '--spec', {str(spec)!r}, '--rmax', '4'])\n"
            f"main(['curve', '--spec', {str(spec)!r}, '--rmax', '4'])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(eocgroup.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines()[-1] == "False"


def assert_back_edges_exact(group, radius):
    """Each layer's back edges are the candidates whose normal form is already in the ball.

    Each such form lies in the layer two back.  `group` has grown no ball,
    and grows it by the general rule (``general``), also on a RAAG spec.
    """
    general(group)
    n = len(group.generator_tokens())
    for r in range(1, radius + 1):
        group.ball(r - 1)
        two_back, lo, size = ([0, 0] + group._ends)[-3:]
        ball = {group._form(k): k for k in range(size)}
        found = [
            ball.get(group._times(group._form(p), group._generator_syllables[g]))
            for p in range(lo, size)
            for g in range(n)
        ]
        old = [c for c, k in enumerate(found) if k is not None]
        assert sorted(group._back_edges(lo).tolist()) == old, r
        assert all(two_back <= found[c] < lo for c in old), r
        # the candidate that undoes its parent's generator is old
        undo = [
            (p - lo) * n + group._inverse[group._tree_gens[p]] for p in range(max(lo, 1), size)
        ]
        assert set(undo) <= set(old), r


class TestBackEdges:
    """Back edges find every old candidate, and nothing else."""

    @FROZEN_BALLS
    def test_frozen_specs(self, stages, radius, size, digest):
        assert_back_edges_exact(EocGroup(A, stages), radius)

    @pytest.mark.parametrize(
        "rank, stages, radius",
        [(2, [("g1 g2", 1)], 5), (2, [], 6), (3, [("g2", 2), ("G2 G3", 1), ("g1 g3 G2", 1)], 3)],
        ids=["g1g2", "free", "free-rank-3-tower"],
    )
    def test_named_specs(self, rank, stages, radius):
        assert_back_edges_exact(tokens_group(stages, rank), radius)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(groups(), st.integers(1, 3))
    def test_random_groups(self, G, radius):
        assert_back_edges_exact(EocGroup(G.alphabet, [(s.u, s.rank) for s in G.stages]), radius)


@st.composite
def raag_groups(draw):
    """Free rank 2-3, 0-3 stages whose u's are distinct base letters, t-rank 1-2."""
    alphabet = Alphabet(draw(st.integers(2, 3)))
    letters = draw(st.lists(st.integers(1, alphabet.rank), max_size=3, unique=True))
    stages = [
        (Word(alphabet, [draw(st.sampled_from([x, -x]))]), draw(st.integers(1, 2))) for x in letters
    ]
    return EocGroup(alphabet, stages)


def count_settles(monkeypatch):
    """Record the radius of each layer that ``_settle`` keys, over every group."""
    radii = []
    settle = EocGroup._settle

    def spy(self, *args):
        radii.append(len(self._ends))
        return settle(self, *args)

    monkeypatch.setattr(EocGroup, "_settle", spy)
    return radii


def assert_automaton_is_general(stages, radius, rank=2):
    """The automaton grows the ball that the general rule grows, element by element."""
    group = tokens_group(stages, rank)
    assert group._raag
    assert ball_state(group, radius) == ball_state(general(tokens_group(stages, rank)), radius)


# the frozen balls whose every u is one letter
RAAG_FROZEN_BALLS = pytest.mark.parametrize(
    "stages, radius",
    [(s, r) for s, r, *_ in FROZEN_BALLS.args[1] if all(len(u) == 1 for u, _ in s)],
)


class TestAutomaton:
    """A RAAG ball grown by its shortlex automaton is the ball of the general rule."""

    @pytest.mark.parametrize(
        "rank, stages, clique_poly, radius",
        [
            (2, [], (1, 2), 9),
            (3, [], (1, 3), 6),
            (2, [("g1", 1)], (1, 3, 1), 7),
            (2, [("g1", 2)], (1, 4, 3, 1), 6),
            (2, [("G1", 3)], (1, 5, 6, 4, 1), 5),
            (2, [("g1", 1), ("g2", 1)], (1, 4, 2), 6),
            (2, [("g1", 2), ("G2", 2)], (1, 6, 6, 2), 4),
            (3, [("g1", 1), ("g2", 2), ("g3", 1)], (1, 7, 5, 1), 4),
            (2, [("g1", 6)], (1, 8, 21, 35, 35, 21, 7, 1), 4),
        ],
    )
    def test_layer_sizes_match_growth_series(self, rank, stages, clique_poly, radius):
        group = tokens_group(stages, rank)
        group.ball(radius)
        assert [hi - lo for lo, hi in zip([0] + group._ends, group._ends)] == [
            raag_ball_size(clique_poly, r) - raag_ball_size(clique_poly, r - 1)
            for r in range(radius + 1)
        ]

    def test_multi_letter_u_takes_the_general_rule(self):
        for stages in ([("g1 g2", 1)], [("g1", 1), ("g1 g2", 1)]):
            group = tokens_group(stages)
            group.ball(3)
            assert not group._raag
            assert len(group._trans) == 0 and len(group._row)

    @RAAG_FROZEN_BALLS
    def test_frozen_specs(self, monkeypatch, stages, radius):
        settled = count_settles(monkeypatch)
        group = EocGroup(A, stages)
        group.ball(radius)
        # the automaton settles no layer, and the general rule every one
        assert settled == []
        assert ball_state(group, radius) == ball_state(general(EocGroup(A, stages)), radius)
        assert settled == list(range(1, radius + 1))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(raag_groups(), st.integers(0, 4))
    def test_random_raag_groups(self, G, radius):
        bare = general(EocGroup(G.alphabet, [(s.u, s.rank) for s in G.stages]))
        assert ball_state(G, radius) == ball_state(bare, radius)

    def test_rank_six(self):
        assert_automaton_is_general([("g1", 6)], 3)

    @pytest.mark.parametrize("rank, radius", [(2, 6), (3, 4)])
    def test_free_group(self, rank, radius):
        assert_automaton_is_general([], radius, rank)

    def test_cap_leaves_the_ball_untouched(self):
        # ball sizes 1, 7, 33, 143, 609: each cap trips inside a layer, which
        # is counted before anything is appended
        group = EocGroup(A, [(a, 1)])
        for cap in (5, 10, 100, 500):
            tree, states = (bytes(group._tree_parents), bytes(group._tree_gens)), group._states
            ends = list(group._ends)
            message = f"cap of {cap} elements at radius {len(ends)}$"
            with pytest.raises(BudgetExceeded, match=message):
                group.ball(4, cap=cap)
            assert (bytes(group._tree_parents), bytes(group._tree_gens)) == tree
            assert group._ends == ends and group._states is states
            group.ball(len(group._ends))
        assert ball_state(group, 5) == ball_state(EocGroup(A, [(a, 1)]), 5)

    def test_construction_builds_no_row(self):
        # a group that never grows a ball pays for no automaton
        for stages in ([], [(a, 1)], [(a, 2), (b, 1)]):
            group = EocGroup(A, stages)
            assert group._trans.shape == (0, len(group.generator_tokens()))
            group.ball(0)
            assert len(group._trans) == 0
            group.ball(1)
            # only the identity's state has a row
            assert len(group._trans) == 1


def tree(group):
    """The ball's tree arrays and layer ends."""
    return bytes(group._tree_parents), bytes(group._tree_gens), list(group._ends)


def budget_error(call):
    """The message of the ``BudgetExceeded`` that `call` raises, else None."""
    try:
        call()
    except BudgetExceeded as e:
        return str(e)
    return None


class TestBallSize:
    """``ball_size`` counts a RAAG ball from its automaton's states, with no tree."""

    @pytest.mark.parametrize(
        "rank, stages",
        [(rank, stages) for rank, stages, _ in RAAG_SPECS.values()] + [(2, [("g1 g2", 1)])],
    )
    def test_equals_ball_length(self, rank, stages):
        counted, grown = tokens_group(stages, rank), tokens_group(stages, rank)
        assert [counted.ball_size(R) for R in range(6)] == [len(grown.ball(R)) for R in range(6)]
        # a multi-letter spec is counted by its ball
        assert (counted._ends == [1]) == counted._raag
        with pytest.raises(ValueError):
            counted.ball_size(-1)

    @pytest.mark.parametrize(
        "stages, clique_poly",
        [([("g1", 1)], (1, 3, 1)), ([("g1", 2)], (1, 4, 3, 1)), ([("g1", 1), ("g2", 1)], (1, 4, 2))],
    )
    def test_matches_growth_series_to_radius_40(self, stages, clique_poly):
        group = tokens_group(stages)
        sizes = [group.ball_size(R, cap=10**40) for R in range(41)]
        assert sizes == [raag_ball_size(clique_poly, R) for R in range(41)]
        assert sizes[-1] > 2**63
        assert group._ends == [1]

    # u = g1: ball sizes 1, 7, 33, 143, 609, 2583; u = g1 rank 2: 1, 9, 53,
    # 285, 1513, 8017; cap 0 never trips at radius 0
    @pytest.mark.parametrize("cap", [0, 5, 8, 10, 100, 500, 2582, 2583, 8017])
    @pytest.mark.parametrize("radius", [0, 3, 5])
    @pytest.mark.parametrize("stages", [[(a, 1)], [(a, 2)]])
    def test_cap_matches_ball(self, stages, radius, cap):
        counted, grown = EocGroup(A, stages), EocGroup(A, stages)
        message = budget_error(lambda: counted.ball_size(radius, cap))
        assert message == budget_error(lambda: grown.ball(radius, cap))
        if message is None:
            assert counted.ball_size(radius, cap) == len(grown.ball(radius))

    def test_cap_checks_radii_when_first_counted(self):
        # as ball checks a layer when it first grows it: a cached count, like
        # a cached layer, is returned under any cap
        group = EocGroup(A, [(a, 1)])
        assert group.ball_size(5, cap=10**6) == 2583
        assert group.ball_size(5, cap=100) == 2583
        message = "ball enumeration exceeded cap of 2583 elements at radius 6"
        assert budget_error(lambda: group.ball_size(6, cap=2583)) == message
        # a layer counted under a larger cap is still checked when it grows
        message = "ball enumeration exceeded cap of 100 elements at radius 3"
        assert budget_error(lambda: group.ball(5, cap=100)) == message
        assert group._ends == [1, 7, 33]

    def test_cap_on_a_grown_ball_matches_the_general_rule(self):
        raag, general_rule = EocGroup(A, [(a, 1)]), general(EocGroup(A, [(a, 1)]))
        for group in (raag, general_rule):
            assert len(group.ball(3, cap=10**6)) == 143
            assert len(group.ball(3, cap=100)) == 143
        message = "ball enumeration exceeded cap of 100 elements at radius 4"
        assert budget_error(lambda: raag.ball(4, cap=100)) == message
        assert budget_error(lambda: general_rule.ball(4, cap=100)) == message

    @pytest.mark.parametrize(
        "rank, stages", [(2, [("g1", 1)]), (2, [("g1", 2)]), (3, [("g1", 1), ("g2", 2), ("g3", 1)])]
    )
    def test_counting_and_growing_commute(self, rank, stages):
        fresh = tokens_group(stages, rank)
        fresh.ball(4)
        counted_first = tokens_group(stages, rank)
        counted_first.ball_size(6, cap=10**9)
        counted_first.ball(4)
        grown_first = tokens_group(stages, rank)
        grown_first.ball(4)
        assert grown_first.ball_size(4) == counted_first.ball_size(4) == fresh._ends[-1]
        assert tree(counted_first) == tree(fresh) == tree(grown_first)


class TestClashingMask:
    """``_clashing`` against a count of every key."""

    @staticmethod
    def brute(keys):
        counts = collections.Counter(keys.tolist())
        return [counts[k] > 1 for k in keys.tolist()]

    @pytest.mark.parametrize("size", [0, 1, 2, 1000, 50_000])
    @pytest.mark.parametrize("repeats", ["none", "few", "all-equal"])
    def test_matches_counter(self, size, repeats):
        rng = np.random.default_rng(size)
        keys = rng.integers(0, 2**64, size, dtype=np.uint64)
        if repeats == "few" and size:
            keys[rng.integers(0, size, 8)] = keys[rng.integers(0, size, 8)]
        if repeats == "all-equal":
            keys[:] = 2**64 - 1
        assert eocgroup._clashing(keys).tolist() == self.brute(keys)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(
            st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**63, 2**64 - 1]), max_size=300
        )
    )
    def test_random_keys(self, values):
        keys = np.array(values, dtype=np.uint64)
        assert eocgroup._clashing(keys).tolist() == self.brute(keys)
