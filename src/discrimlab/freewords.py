"""Exact word arithmetic in a finitely generated free group.

Letters are nonzero signed integers: ``+i`` is the i-th generator, ``-i``
its inverse (1-based, up to the alphabet rank).  A :class:`Word` always
stores the freely reduced form, so two words are equal in the group iff
their letter tuples are equal.

Serialization: space-separated tokens, ``g<i>`` for a generator and
``G<i>`` for its inverse, e.g. ``"g1 g2 G1"``.

The kernels work on reduced letter tuples in any encoding closed under
negation: the plain letters of a :class:`Word`, or the doubled letters of
an ``eocgroup`` base syllable.  ``join_letters`` multiplies two of them.
``_split`` is the one place that writes u = z v z^-1 with v cyclically
reduced; u^e = z (v^sign(e))^|e| z^-1 is then reduced as written
(``_power``).  Powers, roots, conjugacy, u-power membership and the
double-coset strip (``_strip_search``) all take u apart through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import WordFormatError

_TOKEN_RE = re.compile(r"([gG])([0-9]+)$")
# one whitespace-separated token of a word or an element; its start is the
# position a WordFormatError reports
_CHUNK_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class Alphabet:
    """Generating set of the free base group F_rank.

    The base group stands in for the ambient torsion-free hyperbolic
    group, which has to be non-abelian; rank 1 is rejected.
    """

    rank: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError(f"alphabet rank must be >= 2, got {self.rank}")

    def identity(self) -> "Word":
        return Word(self, ())

    def generators(self) -> list["Word"]:
        return [Word(self, (i,)) for i in range(1, self.rank + 1)]


def join_letters(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced product of two reduced letter tuples.

    Both sides are already reduced, so only the junction can cancel; when
    its two letters do not, the product is the concatenation.
    """
    if not (a and b and a[-1] == -b[0]):
        return a + b
    i = len(a)
    j = 0
    n = len(b)
    while i > 0 and j < n and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _split(letters: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(z, v, v^-1, z^-1) for reduced letters u = z v z^-1, v cyclically reduced."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    v = letters[lo:hi]
    return letters[:lo], v, tuple([-x for x in reversed(v)]), letters[hi:]


def _power(letters: tuple[int, ...], e: int) -> tuple[int, ...]:
    """The letters of u^e for reduced letters u: z (v^sign(e))^|e| z^-1.

    v is cyclically reduced and the junctions with z were reduced in u,
    so the product is reduced as written.
    """
    if not e:
        return ()
    z, v, vinv, zinv = _split(letters)
    return z + (v if e > 0 else vinv) * abs(e) + zinv


def _reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class Word:
    """A freely reduced word; the canonical representative of its group element.

    The hash is computed on the first ``hash()`` and kept, so the many
    intermediate words of a product chain that are never hashed do not pay
    for it.  It hashes the doubled letters: CPython's ``hash(-1)`` equals
    ``hash(-2)``, so hashing the letters themselves would give every pair of
    words that differ only by ``G1`` against ``G2`` the same hash.
    """

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int]):
        letters = tuple(letters)
        for x in letters:
            if x == 0 or abs(x) > alphabet.rank:
                raise ValueError(f"letter {x} outside alphabet of rank {alphabet.rank}")
        self.alphabet = alphabet
        self.letters = _reduce_letters(letters)
        self._hash = None

    @classmethod
    def _raw(cls, alphabet: Alphabet, reduced: tuple[int, ...]) -> "Word":
        # internal fast path: caller guarantees `reduced` is already reduced
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.letters = reduced
        w._hash = None
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and (self.alphabet is other.alphabet or self.alphabet == other.alphabet)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(tuple([2 * x for x in self.letters]))
        return h

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot multiply words over different alphabets")
        return Word._raw(self.alphabet, join_letters(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word._raw(self.alphabet, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        return Word._raw(self.alphabet, _power(self.letters, n))

    def is_identity(self) -> bool:
        return not self.letters

    def cyclic_decomposition(self) -> tuple["Word", "Word"]:
        """Split as conjugator z and cyclically reduced core v with self = z v z^-1."""
        z, v, _, _ = _split(self.letters)
        return Word._raw(self.alphabet, z), Word._raw(self.alphabet, v)

    def root(self) -> tuple["Word", int]:
        """Largest-exponent expression self = r ** e with r not a proper power.

        In a free group the centralizer of a nontrivial element is the
        cyclic group generated by this root.
        """
        if not self.letters:
            raise ValueError("trivial word has no root")
        z, v, _, zinv = _split(self.letters)
        m = len(v)
        for d in range(1, m):
            if m % d == 0 and v[:d] * (m // d) == v:
                return Word._raw(self.alphabet, z + v[:d] + zinv), m // d
        return self, 1

    def is_proper_power(self) -> bool:
        return bool(self.letters) and self.root()[1] > 1

    def tokens(self) -> str:
        return " ".join(f"g{x}" if x > 0 else f"G{-x}" for x in self.letters)

    def __repr__(self) -> str:
        return f"Word({self.tokens()!r})" if self.letters else "Word('')"


def parse_letter(alphabet: Alphabet, token: str, position: int) -> int:
    """The signed letter of one ``g<i>``/``G<i>`` token found at `position`."""
    m = _TOKEN_RE.match(token)
    if not m:
        raise WordFormatError(f"malformed token {token!r}", position)
    idx = int(m.group(2))
    if not 1 <= idx <= alphabet.rank:
        raise WordFormatError(
            f"generator index {idx} out of range 1..{alphabet.rank}", position
        )
    return idx if m.group(1) == "g" else -idx


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the ``g<i>``/``G<i>`` token format, rejecting malformed tokens."""
    letters = [parse_letter(alphabet, m.group(), m.start()) for m in _CHUNK_RE.finditer(text)]
    return Word(alphabet, letters)


def conjugate(x: Word, y: Word) -> bool:
    """Whether x and y are conjugate in the free group.

    Two words are conjugate iff their cyclically reduced cores are cyclic
    rotations of each other.
    """
    cx = _split(x.letters)[1]
    cy = _split(y.letters)[1]
    return len(cx) == len(cy) and any(
        cx == cy[k:] + cy[:k] for k in range(max(len(cy), 1))
    )


def power_membership(u: Word, g: Word) -> Optional[int]:
    """Return k with u**k == g, or None if g is not a power of u.

    With u = z v z^-1 split by :func:`_split`, u**k is z (v^sign(k))^|k| z^-1
    reduced as written, so |g| fixes |k| and the letters of g decide the
    sign.
    """
    if u.is_identity():
        raise ValueError("u must be nontrivial")
    if g.is_identity():
        return 0
    z, v, vinv, zinv = _split(u.letters)
    k, rest = divmod(len(g) - 2 * len(z), len(v))
    if k < 1 or rest:
        return None
    if g.letters == z + v * k + zinv:
        return k
    if g.letters == z + vinv * k + zinv:
        return -k
    return None


def _strip_search(
    g: tuple[int, ...],
    u_left: Optional[tuple[int, ...]],
    u_right: Optional[tuple[int, ...]],
    *,
    canonical: bool = False,
) -> tuple[int, tuple[int, ...], int]:
    """Double-coset minimization g = uL^s * h * uR^t over a fixed (s, t) box.

    All three are reduced letter tuples in one encoding (see the module
    docstring), and h comes back in it; a missing u is None.  The box
    bound is sound: once |s| or |t| exceeds it, the surviving letters of
    the corresponding power block alone make h longer than g, so no
    minimizer lies outside.  Among the (s, t) of least len(h), the least
    key (|s|, |t|, s, t) wins: ties go to smallest |s|, then |t|.  Those
    offsets are relative to g, so two representatives of one double coset
    can strip to two different shortest h.  With `canonical`, the least
    key is (h, |s|, |t|, s, t): the lex-least shortest h, which depends
    only on the double coset <uL> g <uR>.  Lex order on doubled letters is
    lex order on plain letters.

    The box is scanned row by row.  Row s builds x = uL^-s * g by one
    product from its neighbouring row, and measures |x * uR^-t| for every
    t by letter comparisons (:func:`_row_minimum`); only the (s, t) of
    least length build h.

    Each direction sigma of s stops at the first row that provably cannot
    be beaten by the rows after it.  Write uL = z v z^-1 with v cyclically
    reduced, and let row s = sigma k (k >= 0), x = uL^(-sigma k) * g,
    start with the letters z v^-sigma, so x = z v^-sigma y.  Then row k + j is
    z (v^-sigma)^(j+1) y, reduced as written: x with j more copies of
    v^-sigma after z, and the same last |y| = |x| - |z| - |v| letters.  The
    letters that uR^-t cancels in x * uR^-t are the common prefix of x^-1
    and uR^-t; :func:`_row_minimum` bounds that prefix for every t by its
    reach.  If the reach is at most |y|, the cancellation lies inside y^-1
    and ends at the same letter in every later row, whose first letter
    after y^-1 is again the first letter of v^sigma.  So every later row
    measures exactly j|v| more than this one for each t: its h is strictly
    longer than the minimum, and the scan keeps every (s, t) of least
    length under either key.  Otherwise the scan goes on, to the box bound
    at most.
    """
    ulen = max(len(u_left) if u_left else 1, len(u_right) if u_right else 1)
    bound = 2 * len(g) + 2 * ulen + 4
    right = _split(u_right) if u_right else None
    least, ts, reach = _row_minimum(g, right, bound)
    # the rows (s, x, every t of length `least`) of the least length so far
    rows = [(0, g, ts)]
    if u_left is not None:
        z, v, vinv, zinv = _split(u_left)
        # rows (s, uL^-s * g), each one product from its neighbour, up to the
        # first that starts with z v^-sigma and lies beyond the reach of uR
        for sign, step, lead in ((1, z + vinv + zinv, z + vinv), (-1, u_left, z + v)):
            x, x_reach = g, reach
            for k in range(1, bound + 1):
                if x_reach <= len(x) - len(lead) and x[: len(lead)] == lead:
                    break
                x = join_letters(step, x)
                n, ts, x_reach = _row_minimum(x, right, bound)
                if n < least:
                    least, rows = n, [(sign * k, x, ts)]
                elif n == least:
                    rows.append((sign * k, x, ts))
    keys = []
    for s, x, ts in rows:
        for t in ts:
            h = join_letters(x, _power(u_right, -t)) if t else x
            keys.append((h, abs(s), abs(t), s, t) if canonical else (abs(s), abs(t), s, t, h))
    key = min(keys)
    return (key[3], key[0], key[4]) if canonical else (key[2], key[4], key[3])


def _row_minimum(x: tuple[int, ...], right: Optional[tuple], bound: int) -> tuple[int, list, int]:
    """Least |x * uR^-t| over |t| <= bound; returns (length, every t of it, reach).

    `x` and `right` are letter tuples: `right` holds z, v, v^-1 and z^-1
    from :func:`_split` of uR = z v z^-1.  With k = |t| and
    sigma = sign(t), the word uR^-t = z (v^-sigma)^k z^-1 is reduced as
    written, so |x * uR^-t| = |x| + 2|z| + k|v| - 2c, where c is the common
    prefix of x^-1 and that word.  Let Q be the common prefix of x^-1 and
    the infinite word z (v^-sigma)^inf.  While |z| + k|v| <= Q, c is
    |z| + k|v| plus the common prefix of the rest of x^-1 with z^-1; once
    |z| + k|v| > Q, c = Q and the length rises strictly with k, so the
    scan of that sign stops there with every t of the least length found.

    In both cases c <= Q + |z|, so the reach, the larger Q of the two
    signs plus |z|, bounds the letters of x that any t cancels.  A missing
    uR (`right` None) admits only t = 0, and the reach is 0.
    """
    n = len(x)
    if right is None:
        return n, [0], 0
    zl, v, vinv, zinv = right
    lz = len(zl)
    best, ties = n, [0]
    qmax = 0
    # letter i of x^-1 is -x[~i]
    for sigma, core in ((1, vinv), (-1, v)):
        lv = len(core)
        q = 0
        while q < n and -x[~q] == (zl[q] if q < lz else core[(q - lz) % lv]):
            q += 1
        if q > qmax:
            qmax = q
        for k in range(1, bound + 1):
            m = lz + k * lv
            if m > q:
                c = q
            else:
                c = m
                while c - m < lz and c < n and -x[~c] == zinv[c - m]:
                    c += 1
            length = n + 2 * lz + k * lv - 2 * c
            if length < best:
                best, ties = length, [sigma * k]
            elif length == best:
                ties.append(sigma * k)
            if m > q:
                break
    return best, ties, qmax + lz


def coset_strip(u: Word, g: Word) -> tuple[int, Word, int]:
    """(s, h, t) with g = u^s * h * u^t and h a shortest element of <u> g <u>.

    Requires u not a proper power and g outside <u>; pure powers of u
    belong to the abelian side of the amalgam and are rejected here.
    """
    if u.is_identity() or u.is_proper_power():
        raise ValueError("u must be nontrivial and not a proper power")
    if power_membership(u, g) is not None:
        raise ValueError("g lies in <u>; no double-coset strip exists")
    s, h, t = _strip_search(g.letters, u.letters, u.letters)
    return s, Word._raw(g.alphabet, h), t

