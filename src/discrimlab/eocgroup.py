"""Extensions of centralizers over a free base group.

G' = F *_<u> (<u> x Z^n), iterated over several stages whose amalgamating
elements u all lie in the base free group and are pairwise
non-commensurable.  Elements are kept in a canonical alternating syllable
form, which decides the word problem: two words represent the same
element iff they normalize to the same syllable sequence.

Syllables are plain tuples of even or odd integers, so hashing and
comparing elements are tuple operations done in C:
  * base syllable: a reduced word of the free base group, stored as its
    letters doubled, e.g. ``g1 G2`` as ``(2, -4)``;
  * abelian syllable of stage j: u_j^e * t_1^(v_1) ... t_n^(v_n) with
    v != 0, stored as ``(2j+1, 2e, 2v_1, ..., 2v_n)`` (a pure u-power is
    base material and is never stored here).
The first entry of an abelian syllable is odd and every entry of a base
syllable is even, so ``syl[0] & 1`` tells the two kinds apart.  Doubling
keeps CPython's ``hash(-1) == hash(-2)`` from giving ``G1`` and ``G2``,
or u^-1 and u^-2, the same hash.  The group keeps each stage's u as
doubled letters too, and the ``freewords`` letter kernels work on either
encoding: ``_u_power`` is ``freewords._power`` of that u (for the normal
form when a t-part cancels, for ``tokens``, and for
``retraction._image`` when it maps t-letters to u-powers), and a
strip passes the doubled syllable and u's to ``freewords._strip_search``
as they are.  Words enter and leave this form only at the element API
(tokens, ``base_element``, ``abelian_element``).

Canonical form:
  * adjacent syllables are unmergeable (alternation);
  * every base syllable is the minimal representative of its double
    coset with respect to the u's of its abelian neighbors, with the
    stripped u-powers folded into the neighbors' e-exponents.  Among the
    shortest words of the double coset it is the lex-least one (the strip's
    ``canonical`` key), a choice that depends on the double coset alone and
    not on the word that entered it.  The strip
    (``freewords._strip_search``) scans its (s, t) box row by row,
    measuring each row by letter comparisons and stopping each direction
    of s at the first row that provably cannot hold a shortest word; it is
    memoized per group.

Products fold one syllable at a time.  ``_times(head, syl)`` multiplies
canonical syllables by one reduced syllable, by cases on the last
syllable of `head`, the tail:
  * a base syllable after an abelian tail is stripped against the tail's
    stage, and s folds into the tail (a u-power of that stage strips to
    nothing);
  * a base syllable joins a base tail, and the joined word is stripped
    against its left neighbour, s folding into it; an empty join drops
    the tail;
  * an abelian syllable after an abelian tail of another stage is
    appended; after one of its own stage the two add entrywise, and if
    the t-part cancels (a pinch) the pure u-power u^e is multiplied onto
    the rest, one level of recursion, which re-strips the base syllable
    the pinch exposes against its left neighbour alone (at e = 0 that
    changes nothing: the lex-least shortest word of <uL> b <u> is also
    that of <uL> b);
  * an abelian syllable after a base tail strips the tail between its
    left neighbour and the syllable's stage, and s and t fold into the
    two.  If nothing is left the tail was a u-power, so the two abelian
    syllables it separated are of distinct stages and stay apart.
Each case rewrites only the last syllables of `head`, and leaves them
canonical: a strip depends on its neighbours' stages, not on their
u-exponents, so the syllables before them stay canonical too.  Each case
therefore returns the canonical form of head * syl, and as the canonical
form is unique, every normalization is the fold ``_from_syllables`` of
``_times`` over raw syllables: a word from scratch, a product a * b as
b's syllables folded onto a's, and a ball layer as each element times
one generator syllable.  A stripped base syllable is stored as the strip
cache's tuple, which elements share, not as a new one per element.

A group is immutable, so it keeps what it computes: strips, ball layers
and, built lazily once, its subtower (the group with the top stage
removed, see ``retraction.subtower``) and the matrices of the collision
walk's fingerprint homomorphism (``retraction._phi``), but no
retractions, which are substitutions (``retraction._image``).
Retractions onto the subtower share one set of caches across words and
p values.

The ball is one list of elements in BFS order, grown a layer at a time;
the ball of radius r is its first ``_ends[r]`` entries.  It keeps its
BFS tree: every element is first built as parent * generator, and two
flat integer arrays record, per ball index, the parent's ball index and
the generator's index in ``generator_tokens()`` order.  A layer that
exceeds the cap is rolled back from the list and both arrays, so a
homomorphism can be evaluated on the whole ball with one product per
element, a layer at a time (``retraction._first_collision``).  A layer
does not multiply an element by the inverse of its tree generator: that
product is the element's tree parent, one layer down, and with one
normal form per element it would only find that parent's syllables in
the ball.

Element serialization extends the base word format with ``t<stage>.<i>``
and ``T<stage>.<i>`` tokens, stages and indices 1-based.
"""

from __future__ import annotations

import json
import operator
import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import BudgetExceeded, GroupSpecError, WordFormatError
from .freewords import (
    Alphabet,
    Word,
    _CHUNK_RE,
    _power,
    _strip_search,
    conjugate,
    join_letters,
    parse_letter,
    parse_word,
    power_membership,
)

DEFAULT_BALL_CAP = 500_000

_T_TOKEN_RE = re.compile(r"([tT])([0-9]+)\.([0-9]+)$")

# token model: base letters are signed ints as in freewords; t-letters are
# triples ('t', stage_index0, signed generator index)
Token = Union[int, tuple]


@dataclass(frozen=True)
class EocStage:
    u: Word
    rank: int


class EocElement:
    """An element of an extension-of-centralizer group in canonical form."""

    __slots__ = ("group", "syllables")

    def __init__(self, group: "EocGroup", syllables: tuple[tuple[int, ...], ...]):
        self.group = group
        self.syllables = syllables

    def is_trivial(self) -> bool:
        return not self.syllables

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EocElement)
            and self.group is other.group
            and self.syllables == other.syllables
        )

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __mul__(self, other: "EocElement") -> "EocElement":
        if self.group is not other.group:
            raise ValueError("elements of different groups")
        return self.group._from_syllables(other.syllables, self.syllables)

    def inverse(self) -> "EocElement":
        inv = []
        for syl in reversed(self.syllables):
            if syl[0] & 1:
                inv.append((syl[0], *[-x for x in syl[1:]]))
            else:
                inv.append(tuple([-x for x in reversed(syl)]))
        return self.group._from_syllables(tuple(inv))

    def tokens(self) -> str:
        parts = []
        # base letters not yet printed: a base syllable waits for the u^e of
        # the abelian syllable after it, so that the two reduce freely
        letters: tuple[int, ...] = ()
        for syl in self.syllables:
            if not syl[0] & 1:
                letters = syl
                continue
            # an abelian syllable u^e t^v prints as the letters of u^e, then its t's
            stage = syl[0] >> 1
            letters = join_letters(letters, self.group._u_power(stage, syl[1] >> 1))
            parts.extend(_letter_tokens(letters))
            letters = ()
            for i, v in enumerate(syl[2:], start=1):
                token = f"t{stage + 1}.{i}" if v > 0 else f"T{stage + 1}.{i}"
                parts.extend([token] * (abs(v) >> 1))
        parts.extend(_letter_tokens(letters))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"EocElement({self.tokens()!r})"


class EocGroup:
    """Handle for G' = F *_<u_1> (<u_1> x Z^(n_1)) *_<u_2> ... over F = F_rank.

    Immutable after construction; all operations are pure.  Ball layers
    and double-coset strips are memoized on the handle.
    """

    def __init__(self, alphabet: Alphabet, stages: Sequence[tuple[Word, int]]):
        self.alphabet = alphabet
        validated = []
        for j, (u, rank) in enumerate(stages):
            if u.alphabet != alphabet:
                raise GroupSpecError("u over a different alphabet", stage=j)
            if u.is_identity():
                raise GroupSpecError("u must be nontrivial", stage=j)
            root, exp = u.root()
            if exp > 1:
                raise GroupSpecError(
                    f"u is a proper power ({root.tokens()!r})^{exp}", stage=j
                )
            if rank < 1:
                raise GroupSpecError("extension rank must be >= 1", stage=j)
            validated.append(EocStage(u, rank))
        # for u's that are not proper powers, commensurable means conjugate
        # to the other u or to its inverse
        for j in range(len(validated)):
            for i in range(j):
                ui, uj = validated[i].u, validated[j].u
                if conjugate(ui, uj) or conjugate(ui, uj.inverse()):
                    raise GroupSpecError(
                        f"u commensurable with stage {i}'s u", stage=j
                    )
        self.stages: tuple[EocStage, ...] = tuple(validated)
        self._strip_cache: dict = {}
        self._membership_cache: dict = {}
        self._subtower: Optional[EocGroup] = None
        # the matrices of retraction._phi, built on its first call
        self._phi: Optional[tuple] = None
        # doubled letters of u by stage, for _strip (None: no neighbour) and _u_power
        self._u_letters = {j: _base_syllable(stage.u) for j, stage in enumerate(self.stages)}
        self._u_letters[None] = None
        tokens = self.generator_tokens()
        self._generator_syllables = [self._token_syllable(tok) for tok in tokens]
        # _forward_gens[g]: the generators that do not undo generator g, by
        # index; the last entry, also read as index -1 (the identity's tree
        # generator), holds them all
        inverse = [
            tokens.index(-tok if isinstance(tok, int) else (*tok[:2], -tok[2])) for tok in tokens
        ]
        self._forward_gens = [
            tuple(h for h in range(len(tokens)) if h != inverse[g]) for g in range(len(tokens))
        ] + [tuple(range(len(tokens)))]
        # ball cache: the elements in BFS order, _ends[r] of them of word
        # length <= r, and the length of every element so far, keyed by its
        # syllables
        self._ball: list[EocElement] = [self.identity()]
        self._ends: list[int] = [1]
        self._lengths: dict[tuple, int] = {(): 0}
        # the ball's BFS tree, by ball index: element k was first built as
        # _ball[_tree_parents[k]] * generator _tree_gens[k]; -1 for the identity
        self._tree_parents = array("i", [-1])
        self._tree_gens = array("i", [-1])

    # -- construction helpers -------------------------------------------------

    def identity(self) -> EocElement:
        return EocElement(self, ())

    def generator_tokens(self) -> list[Token]:
        """Generating set in the fixed deterministic order used by ball BFS."""
        toks: list[Token] = []
        toks.extend(range(1, self.alphabet.rank + 1))
        toks.extend(-i for i in range(1, self.alphabet.rank + 1))
        for j, stage in enumerate(self.stages):
            toks.extend(("t", j, i) for i in range(1, stage.rank + 1))
            toks.extend(("t", j, -i) for i in range(1, stage.rank + 1))
        return toks

    def generators(self) -> list[EocElement]:
        """The generators as elements, in ``generator_tokens()`` order."""
        return [EocElement(self, (gen,)) for gen in self._generator_syllables]

    def parse_tokens(self, text: str) -> list[Token]:
        tokens: list[Token] = []
        for chunk in _CHUNK_RE.finditer(text):
            token, pos = chunk.group(), chunk.start()
            m = _T_TOKEN_RE.match(token)
            if not m:
                tokens.append(parse_letter(self.alphabet, token, pos))
            else:
                stage = int(m.group(2)) - 1
                idx = int(m.group(3))
                if not 0 <= stage < len(self.stages):
                    raise WordFormatError(f"unknown stage {stage + 1}", pos)
                if not 1 <= idx <= self.stages[stage].rank:
                    raise WordFormatError(
                        f"t-index {idx} out of range for stage {stage + 1}", pos
                    )
                tokens.append(("t", stage, idx if m.group(1) == "t" else -idx))
        return tokens

    def element(self, tokens: Union[str, Iterable[Token]]) -> EocElement:
        """Normalize a raw token sequence (or serialized string) to canonical form."""
        if isinstance(tokens, str):
            tokens = self.parse_tokens(tokens)
        return self._from_syllables(tuple(map(self._token_syllable, tokens)))

    def _token_syllable(self, tok: Token) -> tuple[int, ...]:
        if isinstance(tok, int):
            return (2 * tok,)
        _, stage, idx = tok
        v = [0] * self.stages[stage].rank
        v[abs(idx) - 1] = 2 if idx > 0 else -2
        return (2 * stage + 1, 0, *v)

    def base_element(self, w: Word) -> EocElement:
        return self._from_syllables((_base_syllable(w),))

    def abelian_element(self, stage: int, u_exp: int, t_exps: Sequence[int]) -> EocElement:
        if len(t_exps) != self.stages[stage].rank:
            raise ValueError("t-exponent vector has wrong length")
        if not any(t_exps):
            # a pure u-power is base material
            return self._from_syllables((self._u_power(stage, u_exp),))
        return self._from_syllables(
            ((2 * stage + 1, 2 * u_exp, *[2 * v for v in t_exps]),)
        )

    # -- normalization --------------------------------------------------------

    def _u_power(self, stage: int, e: int) -> tuple[int, ...]:
        """The base syllable of u_stage^e (``freewords._power``)."""
        return _power(self._u_letters[stage], e)

    # No library code calls this: the strip absorbs u-powers.  Only
    # perfbench/tracer.py, which wraps it by name, and
    # tests/test_tracer_targets.py still need it.
    def _power_of(self, stage: int, g: tuple[int, ...]) -> Optional[int]:
        """k with u_stage^k == g for the base syllable g, or None."""
        key = (stage, g)
        try:
            return self._membership_cache[key]
        except KeyError:
            k = self._membership_cache[key] = power_membership(
                self.stages[stage].u, _syllable_word(self.alphabet, g)
            )
            return k

    def _strip(
        self, g: tuple[int, ...], left_stage: Optional[int], right_stage: Optional[int]
    ) -> tuple[int, tuple[int, ...], int]:
        """(s, h, t) with g = uL^s * h * uR^t, h the canonical base syllable."""
        key = (g, left_stage, right_stage)
        try:
            return self._strip_cache[key]
        except KeyError:
            u = self._u_letters
            result = self._strip_cache[key] = _strip_search(
                g, u[left_stage], u[right_stage], canonical=True
            )
            return result

    def _times(
        self, head: tuple[tuple[int, ...], ...], syl: tuple[int, ...]
    ) -> tuple[tuple[int, ...], ...]:
        """The canonical syllables of head * syl, for canonical syllables `head`.

        `syl` is a reduced base syllable, possibly empty, or an abelian
        syllable with a nonzero t-part (see the module docstring).  A base
        tail of `head` need only be reduced, as after a pinch: a base `syl`
        joins it and strips the join again.
        """
        tail = head[-1] if head else None
        if syl and syl[0] & 1:
            if tail is None:
                return (syl,)
            if tail[0] & 1:
                if tail[0] != syl[0]:
                    # abelian syllables of distinct stages do not merge
                    return head + (syl,)
                syl = (syl[0], *map(operator.add, tail[1:], syl[1:]))
                if any(syl[2:]):
                    return head[:-1] + (syl,)
                # the t-part cancelled: the pure u-power is base material
                return self._times(head[:-1], self._u_power(syl[0] >> 1, syl[1] >> 1))
            # strip the base tail between its left neighbour and syl, and fold
            # s and t into them; if h is empty the tail was a u-power, so left
            # and syl are of distinct stages and do not merge
            left = head[-2] if len(head) > 1 else None
            s, h, t = self._strip(tail, left[0] >> 1 if left else None, syl[0] >> 1)
            if not (s or t):
                return head + (syl,)
            if t:
                syl = (syl[0], syl[1] + 2 * t, *syl[2:])
            if left is None:
                return (h, syl) if h else (syl,)
            if s:
                left = (left[0], left[1] + 2 * s, *left[2:])
            return head[:-2] + ((left, h, syl) if h else (left, syl))
        if tail is not None and not tail[0] & 1:
            # a base syl joins a base tail, and the join replaces the tail
            syl = join_letters(tail, syl)
            head = head[:-1]
            tail = head[-1] if head else None
        if tail is None:
            return (syl,) if syl else ()
        # strip the base syl against the abelian tail's stage and fold s into
        # the tail; a u-power strips to nothing
        s, h, _ = self._strip(syl, tail[0] >> 1, None)
        if not s:
            return head + (h,) if h else head
        tail = (tail[0], tail[1] + 2 * s, *tail[2:])
        return head[:-1] + ((tail, h) if h else (tail,))

    def _from_syllables(
        self, raw: tuple[tuple[int, ...], ...], head: tuple[tuple[int, ...], ...] = ()
    ) -> EocElement:
        """Normal form of the canonical syllables `head` followed by `raw`.

        The fold of ``_times`` over `raw`, so each syllable of `raw` must be
        one that ``_times`` takes.  With ``head=()`` this normalizes `raw`
        from scratch; a product a * b folds b's syllables onto a's.
        """
        for syl in raw:
            head = self._times(head, syl)
        return EocElement(self, head)

    # -- word problem and ball enumeration ------------------------------------

    def _grow_layer(self, cap: int) -> None:
        ball = self._ball
        depth = len(self._ends)
        start = self._ends[-2] if depth > 1 else 0
        lengths = self._lengths
        parents, gens = self._tree_parents, self._tree_gens
        times = self._times
        gen_syllables = self._generator_syllables
        forward = self._forward_gens
        size = layer = len(ball)
        for parent, elem in enumerate(ball[start:], start):
            head = elem.syllables
            # the generator that undoes the parent's own gives its tree parent
            for g in forward[gens[parent]]:
                key = times(head, gen_syllables[g])
                lengths.setdefault(key, depth)
                if len(lengths) > size:
                    size += 1
                    if size > cap:
                        # keep the cache at whole layers so a later call can regrow
                        del lengths[key]
                        for e in ball[layer:]:
                            del lengths[e.syllables]
                        del ball[layer:], parents[layer:], gens[layer:]
                        raise BudgetExceeded(
                            f"ball enumeration exceeded cap of {cap} elements at radius {depth}"
                        )
                    ball.append(EocElement(self, key))
                    parents.append(parent)
                    gens.append(g)
        self._ends.append(size)

    def ball(self, radius: int, cap: int = DEFAULT_BALL_CAP) -> list[EocElement]:
        """All elements of word length <= radius, BFS layer order, deduplicated."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        while len(self._ends) <= radius:
            self._grow_layer(cap)
        return self._ball[: self._ends[radius]]

    def word_length(self, w: EocElement, cap: int = DEFAULT_BALL_CAP) -> int:
        """Exact minimal token count over all representatives, via BFS from 1."""
        if w.group is not self:
            raise ValueError("element of a different group")
        while w.syllables not in self._lengths:
            self._grow_layer(cap)
        return self._lengths[w.syllables]


def _base_syllable(w: Word) -> tuple[int, ...]:
    """The base syllable of a reduced word: its letters doubled."""
    return tuple([2 * x for x in w.letters])


def _letter_tokens(syl: tuple[int, ...]) -> list[str]:
    """The ``g<i>``/``G<i>`` tokens of doubled letters."""
    return [f"g{x >> 1}" if x > 0 else f"G{-x >> 1}" for x in syl]


def _syllable_word(alphabet: Alphabet, syl: tuple[int, ...]) -> Word:
    """The reduced word of a base syllable: its entries halved."""
    return Word._raw(alphabet, tuple([x >> 1 for x in syl]))


def load_group_spec(text: str) -> EocGroup:
    """Parse the group spec document: {"free_rank": k, "stages": [{"u":..., "rank":...}]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GroupSpecError(f"spec is not valid JSON: {e}") from e
    # an integer is a JSON int: type() rejects true and false, which are bools
    if not isinstance(doc, dict) or type(doc.get("free_rank")) is not int:
        raise GroupSpecError("spec must be an object with an integer 'free_rank' field")
    entries = doc.get("stages", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise GroupSpecError("'stages' must be a list of objects")
    alphabet = Alphabet(doc["free_rank"])
    stages = []
    for j, entry in enumerate(entries):
        if not isinstance(entry.get("u"), str) or type(entry.get("rank")) is not int:
            raise GroupSpecError("a stage needs a string 'u' and an integer 'rank'", stage=j)
        stages.append((parse_word(alphabet, entry["u"]), entry["rank"]))
    return EocGroup(alphabet, stages)
