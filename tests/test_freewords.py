import pytest
from hypothesis import given, strategies as st

from discrimlab.eocgroup import EocGroup
from discrimlab.freewords import (
    Alphabet,
    Word,
    conjugate,
    coset_strip,
    parse_word,
    power_membership,
)
from discrimlab.errors import BudgetExceeded, WordFormatError

from oracles import (
    F2_RELABELINGS,
    ball_size_f2,
    brute_power_membership,
    free_words,
    orbit_representatives,
    relabel,
)

A = Alphabet(2)
a, b = A.generators()

letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12)


def W(*ls):
    return Word(A, ls)


class TestReduction:
    def test_free_reduction(self):
        assert W(1, -1).is_identity()
        assert W(1, 2, -2, -1).is_identity()
        assert W(1, 2, -2, 1).letters == (1, 1)

    def test_multiplication_cancels_at_junction(self):
        assert (a * a.inverse()).is_identity()
        assert ((a * b) * (b.inverse() * a)).letters == (1, 1)

    @given(letters, letters)
    def test_mul_matches_reduction_of_concatenation(self, xs, ys):
        assert W(*xs) * W(*ys) == W(*(xs + ys))

    @given(letters, letters)
    def test_inverse_antihomomorphism(self, xs, ys):
        v, w = W(*xs), W(*ys)
        assert (v * w).inverse() == w.inverse() * v.inverse()

    @given(letters)
    def test_inverse_involution(self, xs):
        w = W(*xs)
        assert w.inverse().inverse() == w
        assert (w * w.inverse()).is_identity()

    def test_rejects_letters_outside_alphabet(self):
        with pytest.raises(ValueError):
            W(3)
        with pytest.raises(ValueError):
            W(0)

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(1)


class TestPowersAndRoots:
    @given(letters, st.integers(-5, 5), st.integers(-5, 5))
    def test_power_additivity(self, xs, m, n):
        w = W(*xs)
        assert w**m * w**n == w ** (m + n)

    def test_power_of_conjugate(self):
        w = a * b * a.inverse()  # (a b a^-1)^3 = a b^3 a^-1
        assert (w**3).letters == (1, 2, 2, 2, -1)

    def test_cyclic_decomposition_roundtrip(self):
        w = a * b * a * b.inverse() * a.inverse()
        z, v = w.cyclic_decomposition()
        assert z * v * z.inverse() == w
        # core is cyclically reduced
        assert not v.letters or v.letters[0] != -v.letters[-1]

    def test_root(self):
        r, e = ((a * b) ** 4).root()
        assert r == a * b and e == 4
        r, e = (a * b).root()
        assert r == a * b and e == 1
        assert ((a * b) ** 4).is_proper_power()
        assert not (a * b).is_proper_power()

    def test_root_of_conjugated_power(self):
        w = b * (a**3) * b.inverse()
        r, e = w.root()
        assert e == 3 and r == b * a * b.inverse()

    def test_trivial_has_no_root(self):
        with pytest.raises(ValueError):
            A.identity().root()


class TestPowerMembership:
    def test_exact_powers(self):
        u = a * b
        for k in range(-6, 7):
            assert power_membership(u, u**k) == k

    def test_non_powers(self):
        assert power_membership(a, b) is None
        assert power_membership(a * b, a * b * a) is None
        assert power_membership(a, a * b * a.inverse()) is None

    def test_conjugated_u(self):
        u = b * a * b.inverse()
        assert power_membership(u, u**5) == 5

    def test_closed_form_matches_brute_force(self):
        # every nontrivial u with |u| <= 3 (proper powers included) against
        # every g with |g| <= 7 over F2.  A relabeling phi of the generators
        # is an automorphism, so u^k == g iff phi(u)^k == phi(g): the brute
        # force runs once per orbit of u, and each u' = phi(u) of the orbit
        # is checked against every phi(g), which runs over all g.
        words = free_words(A, 7)
        relabeled = [[relabel(phi, g) for g in words] for phi in F2_RELABELINGS]
        us = free_words(A, 3)[1:]
        pairs = set()
        for u in orbit_representatives(us):
            expected = [brute_power_membership(u, g) for g in words]
            done = set()
            for phi, gs in zip(F2_RELABELINGS, relabeled):
                u2 = relabel(phi, u)
                if u2 in done:
                    continue
                done.add(u2)
                for g2, k in zip(gs, expected):
                    assert power_membership(u2, g2) == k, (u2, g2)
                pairs.update((u2, g2) for g2 in gs)
        assert len(pairs) == len(us) * len(words) == 52 * 4373


class TestCosetStrip:
    def test_offsets_folded(self):
        g = a**3 * b * a**-2
        assert coset_strip(a, g) == (3, b, -2)

    def test_reconstruction(self):
        for g in (b, a * b * a, b * a**4, a**-2 * b * a * b * a**3):
            s, h, t = coset_strip(a, g)
            assert a**s * h * a**t == g

    def test_minimality_against_brute_force(self):
        u = a * b
        g = b.inverse() * a * b * a
        _, h, _ = coset_strip(u, g)
        best = min(
            len(u**-i * g * u**-j) for i in range(-8, 9) for j in range(-8, 9)
        )
        assert len(h) == best

    def test_rejects_power_of_u(self):
        with pytest.raises(ValueError):
            coset_strip(a, a**4)

    def test_rejects_proper_power_u(self):
        with pytest.raises(ValueError):
            coset_strip(a**2, b)


class TestBall:
    """The free ball: the ball of an extension-of-centralizers group with no stages."""

    def test_sizes_match_closed_form(self):
        for R in range(5):
            assert len(EocGroup(A, []).ball(R)) == ball_size_f2(R) == 2 * 3**R - 1

    def test_elements_distinct_and_within_radius(self):
        B = EocGroup(A, []).ball(3)
        assert len(set(B)) == len(B)
        assert all(len(parse_word(A, w.tokens())) <= 3 for w in B)
        assert {parse_word(A, w.tokens()) for w in B} == set(free_words(A, 3))

    def test_cap(self):
        with pytest.raises(BudgetExceeded):
            EocGroup(A, []).ball(10, cap=100)

    def test_cap_boundary(self):
        # the cap is checked before each element is stored: a cap of exactly
        # the ball size succeeds, one less raises
        for R in range(1, 5):
            size = 2 * 3**R - 1
            assert len(EocGroup(A, []).ball(R, cap=size)) == size
            with pytest.raises(BudgetExceeded):
                EocGroup(A, []).ball(R, cap=size - 1)

    def test_rank_three(self):
        A3 = Alphabet(3)
        # |B_R| = 1 + 6 * (5^R - 1) / 4 for rank 3
        assert len(EocGroup(A3, []).ball(2)) == 1 + 6 + 30


class TestHashing:
    def test_g1_and_g2_inverses_hash_apart(self):
        assert hash(W(-1)) != hash(W(-2))
        assert hash(W(-1, -2, -1)) != hash(W(-2, -1, -1))

    def test_ball_hashes_distinct(self):
        B = free_words(A, 7)
        assert len({hash(w) for w in B}) == len(B)

    @given(letters)
    def test_equal_words_hash_equal(self, xs):
        assert hash(W(*xs)) == hash(Word._raw(A, W(*xs).letters))


class TestConjugacy:
    def test_rotations_and_conjugates(self):
        assert conjugate(a * b, b * a)
        assert conjugate(a, b * a * b.inverse())
        assert conjugate(A.identity(), A.identity())

    def test_non_conjugates(self):
        assert not conjugate(a, a.inverse())
        assert not conjugate(a * b, a * b.inverse())
        assert not conjugate(a, a * a)

    @given(letters, letters)
    def test_conjugating_by_any_word(self, xs, ys):
        x, y = W(*xs), W(*ys)
        assert conjugate(x, y * x * y.inverse())


class TestParsing:
    def test_roundtrip(self):
        w = a * b.inverse() * a
        assert parse_word(A, w.tokens()) == w
        assert parse_word(A, "") == A.identity()

    def test_reduction_on_parse(self):
        assert parse_word(A, "g1 G1 g2") == b

    def test_malformed_token_position(self):
        with pytest.raises(WordFormatError) as exc:
            parse_word(A, "g1 x2 g2")
        assert exc.value.position == 3

    def test_out_of_range_index(self):
        with pytest.raises(WordFormatError):
            parse_word(A, "g3")

    # positions as the str.split() / str.index scan reported them: tabs,
    # runs of spaces, leading blanks and U+3000 all separate tokens
    @pytest.mark.parametrize(
        "text, position",
        [
            ("g1\tg2\tx1", 6),
            ("g1   g2  g3", 9),
            ("  \t g1 G7", 7),
            ("g1\u3000x1", 3),
            ("\u3000g2\u3000\u3000g1 g1x", 8),
        ],
    )
    def test_error_position_after_any_blanks(self, text, position):
        with pytest.raises(WordFormatError) as exc:
            parse_word(A, text)
        assert exc.value.position == position
