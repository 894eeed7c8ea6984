"""The row-scan double-coset strip against the brute-force box scan.

Both scan the same (s, t) box with the same key, so they must agree
exactly, offsets included.  The exhaustive tests run the brute force once
per orbit of u under relabeling the generators (a signed permutation of
g1, g2) and compare every relabeled input with the relabeled answer.  A
relabeling preserves word length, products and powers and leaves s and t
alone, so the brute force commutes with it; every u (with two words:
every u1, each with one partner u2) and every g is therefore checked
against the brute force, at an eighth of its cost.

``_strip_search`` works on letter tuples in any encoding closed under
negation; the tests pass it plain ``Word`` letters through ``strip``, and
the random tests also pass it the doubled letters of the normal form.
The random tests check the canonical key (the lex-least shortest h, which
the normal form uses) against the brute force too.  Relabeling does not
preserve lex order, so the exhaustive tests check the default key only.
"""

import pytest
from hypothesis import given, settings, strategies as st

from discrimlab import freewords
from discrimlab.freewords import Alphabet, Word, _strip_search, parse_word

from oracles import (
    F2_RELABELINGS,
    brute_strip_search,
    free_words,
    orbit_representatives,
    relabel,
)

A = Alphabet(2)

SWAP = {1: 2, -1: -2, 2: 1, -2: -1}

G5 = free_words(A, 5)
U3 = [u for u in free_words(A, 3) if u and not u.is_proper_power()]
U3_REPS = orbit_representatives(U3)

# (u_left, u_right) from two amalgamating words
PATTERNS = {
    "u,u": lambda u1, u2: (u1, u1),
    "u,None": lambda u1, u2: (u1, None),
    "None,u": lambda u1, u2: (None, u1),
    "u1,u2": lambda u1, u2: (u1, u2),
}


def letters(w):
    """The letters of a Word; None stays None."""
    return None if w is None else w.letters


def doubled(w):
    """The doubled letters of a Word, as an eocgroup base syllable; None stays None."""
    return None if w is None else tuple([2 * x for x in w.letters])


def strip(g, u_left, u_right, canonical=False):
    """``_strip_search`` on the letters of Words, with h wrapped back into a Word.

    The wrap does not reduce, so an unreduced h compares unequal.
    """
    s, h, t = _strip_search(g.letters, letters(u_left), letters(u_right), canonical=canonical)
    return s, Word._raw(g.alphabet, h), t


def assert_matches_brute_force(g, u_left, u_right):
    """The strip agrees with the brute force under both keys, on plain and on doubled letters."""
    for canonical in (False, True):
        s, h, t = brute_strip_search(g, u_left, u_right, canonical=canonical)
        assert strip(g, u_left, u_right, canonical) == (s, h, t)
        got = _strip_search(doubled(g), doubled(u_left), doubled(u_right), canonical=canonical)
        assert got == (s, doubled(h), t)


def test_inputs_cover_the_stated_sets():
    assert len(G5) == 1 + 4 + 12 + 36 + 108 + 324
    assert len(U3) == 4 + 8 + 32
    assert len(U3_REPS) == 6


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_exhaustive_against_brute_force(pattern):
    for u in U3_REPS:
        # u2 is the g1 <-> g2 swap of u, which is never a power of u
        u_left, u_right = PATTERNS[pattern](u, relabel(SWAP, u))
        for g in G5:
            s, h, t = brute_strip_search(g, u_left, u_right)
            for phi in F2_RELABELINGS:
                got = strip(relabel(phi, g), relabel(phi, u_left), relabel(phi, u_right))
                assert got == (s, relabel(phi, h), t), (g, u_left, u_right, phi)


non_power = (
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4)
    .map(lambda ls: Word(A, ls))
    .filter(lambda u: u and not u.is_proper_power())
)
words10 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10).map(lambda ls: Word(A, ls))


@settings(max_examples=300, deadline=None)
@given(words10, non_power, non_power, st.sampled_from(sorted(PATTERNS)))
def test_random_against_brute_force(g, u1, u2, pattern):
    u_left, u_right = PATTERNS[pattern](u1, u2)
    assert_matches_brute_force(g, u_left, u_right)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(words10, non_power, non_power, st.sampled_from(sorted(PATTERNS)), st.integers(-3, 3), st.integers(-3, 3))
def test_canonical_h_depends_only_on_the_double_coset(g, u1, u2, pattern, i, j):
    u_left, u_right = PATTERNS[pattern](u1, u2)
    one = A.identity()
    moved = (u_left or one) ** i * g * (u_right or one) ** j
    h = strip(g, u_left, u_right, canonical=True)[1]
    s2, h2, t2 = strip(moved, u_left, u_right, canonical=True)
    assert h2 == h
    assert (u_left or one) ** s2 * h2 * (u_right or one) ** t2 == moved


words14 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=14).map(lambda ls: Word(A, ls))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(words14, non_power, non_power, st.sampled_from(sorted(PATTERNS)))
def test_long_words_against_brute_force(g, u1, u2, pattern):
    # past 10 letters most rows of the box lie beyond the row where the
    # scan stops, so these are the inputs where a wrong stop would show
    u_left, u_right = PATTERNS[pattern](u1, u2)
    assert_matches_brute_force(g, u_left, u_right)


def measured_rows(monkeypatch, g, u):
    """The rows x = u^-s * g, as letter tuples, that ``strip(g, u, u)`` measures."""
    rows = []
    row_minimum = freewords._row_minimum

    def spy(x, right, bound):
        rows.append(x)
        return row_minimum(x, right, bound)

    monkeypatch.setattr(freewords, "_row_minimum", spy)
    strip(g, u, u)
    return rows


# (u, g, s): u = z v z^-1 and g = z v^k w with w a suffix of u^-1, so that
# the row x = u^-s * g starts with z v^-1, yet some u^-t cancels more of x
# than the letters after that z v^-1: the scan must go on past row s
REACHED_ROWS = [
    ("g1 g2 g1", "G2 G1", 1),
    ("g1 g1 g2", "g1 g1 g2 G1", 2),
    ("g1 g2 G1", "g1 g2 g2", 3),
    ("g2 g1 g2 g1 G2", "g2 G1 G2", 1),
]


@pytest.mark.parametrize("u, g, s", REACHED_ROWS)
def test_reach_into_the_u_block_keeps_scanning(monkeypatch, u, g, s):
    u, g = parse_word(A, u), parse_word(A, g)
    z, v = u.cyclic_decomposition()
    lead = z.letters + v.inverse().letters
    x = u ** -s * g
    assert x.letters[: len(lead)] == lead
    assert (u ** -(s + 1) * g).letters in measured_rows(monkeypatch, g, u)
    assert strip(g, u, u) == brute_strip_search(g, u, u)
