"""Exact word arithmetic in a finitely generated free group.

Letters are nonzero signed integers: ``+i`` is the i-th generator, ``-i``
its inverse (1-based, up to the alphabet rank).  A :class:`Word` always
stores the freely reduced form, so two words are equal in the group iff
their letter tuples are equal.

Serialization: space-separated tokens, ``g<i>`` for a generator and
``G<i>`` for its inverse, e.g. ``"g1 g2 G1"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BudgetExceeded, WordFormatError

DEFAULT_BALL_CAP = 2_000_000

_TOKEN_RE = re.compile(r"([gG])([0-9]+)$")


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

    def generator(self, i: int) -> "Word":
        if not 1 <= i <= self.rank:
            raise ValueError(f"generator index {i} out of range 1..{self.rank}")
        return Word(self, (i,))

    def generators(self) -> list["Word"]:
        return [Word(self, (i,)) for i in range(1, self.rank + 1)]


def _reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class Word:
    """A freely reduced word; the canonical representative of its group element."""

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int]):
        letters = tuple(letters)
        for x in letters:
            if x == 0 or abs(x) > alphabet.rank:
                raise ValueError(f"letter {x} outside alphabet of rank {alphabet.rank}")
        self.alphabet = alphabet
        self.letters = _reduce_letters(letters)
        self._hash = hash(self.letters)

    @classmethod
    def _raw(cls, alphabet: Alphabet, reduced: tuple[int, ...]) -> "Word":
        # internal fast path: caller guarantees `reduced` is already reduced
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.letters = reduced
        w._hash = hash(reduced)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot multiply words over different alphabets")
        a, b = self.letters, other.letters
        # cancel at the junction only; both sides are already reduced
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return Word._raw(self.alphabet, a[:i] + b[j:])

    def inverse(self) -> "Word":
        return Word._raw(self.alphabet, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word._raw(self.alphabet, ())
        z, v = self.cyclic_decomposition()
        core = v.letters if n > 0 else tuple(-x for x in reversed(v.letters))
        zl = z.letters
        zinv = tuple(-x for x in reversed(zl))
        # z * v^n * z^-1 is reduced as written: v is cyclically reduced and
        # the junctions with z were reduced in the original word
        return Word._raw(self.alphabet, zl + core * abs(n) + zinv)

    def is_identity(self) -> bool:
        return not self.letters

    def cyclic_decomposition(self) -> tuple["Word", "Word"]:
        """Split as conjugator z and cyclically reduced core v with self = z v z^-1."""
        letters = self.letters
        lo, hi = 0, len(letters)
        while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
            lo += 1
            hi -= 1
        return (
            Word._raw(self.alphabet, letters[:lo]),
            Word._raw(self.alphabet, letters[lo:hi]),
        )

    def root(self) -> tuple["Word", int]:
        """Largest-exponent expression self = r ** e with r not a proper power.

        In a free group the centralizer of a nontrivial element is the
        cyclic group generated by this root.
        """
        if not self.letters:
            raise ValueError("trivial word has no root")
        z, v = self.cyclic_decomposition()
        core = v.letters
        m = len(core)
        for d in range(1, m + 1):
            if m % d:
                continue
            if core[:d] * (m // d) == core:
                root_core = core[:d]
                zl = z.letters
                zinv = tuple(-x for x in reversed(zl))
                return Word._raw(self.alphabet, zl + root_core + zinv), m // d
        raise AssertionError("unreachable: every word is a power of itself")

    def is_proper_power(self) -> bool:
        return bool(self.letters) and self.root()[1] > 1

    def tokens(self) -> str:
        return " ".join(f"g{x}" if x > 0 else f"G{-x}" for x in self.letters)

    def __repr__(self) -> str:
        return f"Word({self.tokens()!r})" if self.letters else "Word('')"


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the ``g<i>``/``G<i>`` token format, rejecting malformed tokens."""
    letters = []
    pos = 0
    for chunk in text.split():
        pos = text.index(chunk, pos)
        m = _TOKEN_RE.match(chunk)
        if not m:
            raise WordFormatError(f"malformed token {chunk!r}", pos)
        idx = int(m.group(2))
        if not 1 <= idx <= alphabet.rank:
            raise WordFormatError(
                f"generator index {idx} out of range 1..{alphabet.rank}", pos
            )
        letters.append(idx if m.group(1) == "g" else -idx)
        pos += len(chunk)
    return Word(alphabet, letters)


def power_membership(u: Word, g: Word) -> Optional[int]:
    """Return k with u**k == g, or None if g is not a power of u."""
    if u.is_identity():
        raise ValueError("u must be nontrivial")
    if g.is_identity():
        return 0
    _, core = u.cyclic_decomposition()
    bound = -(-len(g) // len(core)) + len(u)
    for k in range(1, bound + 1):
        p = u**k
        if len(p) > len(g) + 2 * len(u):
            break
        if p == g:
            return k
        if p.inverse() == g:
            return -k
    return None


@dataclass(frozen=True)
class CosetStrip:
    """Decomposition g = u^left_exp * middle * u^right_exp with minimal middle."""

    left_exp: int
    middle: Word
    right_exp: int


def _strip_search(
    g: Word, u_left: Optional[Word], u_right: Optional[Word]
) -> tuple[int, Word, int]:
    """Double-coset minimization g = uL^s * h * uR^t over a fixed (s, t) box.

    The box bound is sound: once |s| or |t| exceeds it, the surviving
    letters of the corresponding power block alone make h longer than g,
    so no minimizer lies outside.  The least key (len(h), |s|, |t|, s, t)
    wins: ties go to smallest |s|, then |t|.

    The box is scanned row by row.  Row s builds x = uL^-s * g once, by
    one product from its neighbouring row, and measures |x * uR^-t| for
    every t by letter comparisons (:func:`_row_minimum`); only the
    winning (s, t) builds h.
    """
    ulen = max(len(u_left) if u_left else 1, len(u_right) if u_right else 1)
    bound = 2 * len(g) + 2 * ulen + 4
    # rows (s, uL^-s * g), each one product away from its neighbour
    rows = [(0, g)]
    if u_left is not None:
        for sign, step in ((1, u_left.inverse()), (-1, u_left)):
            x = g
            for k in range(1, bound + 1):
                x = step * x
                rows.append((sign * k, x))
    # a trivial uR leaves every t in a row at |x|, so t = 0 wins each row
    right = None
    if u_right:
        z, v = u_right.cyclic_decomposition()
        right = (z.letters, z.inverse().letters, v.inverse().letters, v.letters)
    best_key = best_x = None
    for s, x in rows:
        n, t = _row_minimum(x, right, bound) if right else (len(x), 0)
        key = (n, abs(s), abs(t), s, t)
        if best_key is None or key < best_key:
            best_key, best_x = key, x
    s, t = best_key[3], best_key[4]
    h = best_x * (u_right ** (-t)) if t else best_x
    return s, h, t


def _row_minimum(x: Word, right: tuple, bound: int) -> tuple[int, int]:
    """Least (|x * uR^-t|, |t|, t) over |t| <= bound; returns (length, t).

    `right` holds the letters of z, z^-1, v^-1 and v, where uR = z v z^-1
    is split by :meth:`Word.cyclic_decomposition`.  With k = |t| and
    sigma = sign(t), the word uR^-t = z (v^-sigma)^k z^-1 is reduced as
    written, so |x * uR^-t| = |x| + 2|z| + k|v| - 2c, where c is the common
    prefix of x^-1 and that word.  Let Q be the common prefix of x^-1 and
    the infinite word z (v^-sigma)^inf.  While |z| + k|v| <= Q, c is
    |z| + k|v| plus the common prefix of the rest of x^-1 with z^-1; once
    |z| + k|v| > Q, c = Q and the length rises strictly with k, so the
    scan of that sign stops there.
    """
    xs = x.letters
    n = len(xs)
    zl, zinv, vinv, v = right
    lz = len(zl)
    best = (n, 0, 0)
    # letter i of x^-1 is -xs[~i]
    for sigma, core in ((1, vinv), (-1, v)):
        lv = len(core)
        q = 0
        while q < n and -xs[~q] == (zl[q] if q < lz else core[(q - lz) % lv]):
            q += 1
        for k in range(1, bound + 1):
            m = lz + k * lv
            if m > q:
                c = q
            else:
                c = m
                while c - m < lz and c < n and -xs[~c] == zinv[c - m]:
                    c += 1
            cand = (n + 2 * lz + k * lv - 2 * c, k, sigma * k)
            if cand < best:
                best = cand
            if m > q:
                break
    return best[0], best[2]


def coset_strip(u: Word, g: Word) -> CosetStrip:
    """Shortest representative of the double coset <u> g <u>.

    Requires u not a proper power and g outside <u>; pure powers of u
    belong to the abelian side of the amalgam and are rejected here.
    """
    if u.is_identity() or u.is_proper_power():
        raise ValueError("u must be nontrivial and not a proper power")
    if power_membership(u, g) is not None:
        raise ValueError("g lies in <u>; no double-coset strip exists")
    s, h, t = _strip_search(g, u, u)
    return CosetStrip(s, h, t)


def ball(alphabet: Alphabet, radius: int, cap: int = DEFAULT_BALL_CAP) -> list[Word]:
    """All reduced words of length <= radius, in BFS layer order.

    Reduced words are canonical in a free group, so BFS with the literal
    tuples as dedup keys enumerates each element exactly once.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    out = [alphabet.identity()]
    frontier = [()]
    letters = [i for i in range(1, alphabet.rank + 1)] + [
        -i for i in range(1, alphabet.rank + 1)
    ]
    for _ in range(radius):
        new: list[tuple[int, ...]] = []
        for w in frontier:
            last = w[-1] if w else 0
            for x in letters:
                if x != -last:
                    new.append(w + (x,))
        if len(out) + len(new) > cap:
            raise BudgetExceeded(
                f"ball of radius {radius} exceeds cap of {cap} elements"
            )
        out.extend(Word._raw(alphabet, w) for w in new)
        frontier = new
    return out
