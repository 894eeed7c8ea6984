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
``retraction.apply_theta`` when it maps t-letters to u-powers), and a
strip passes the doubled syllable and u's to ``freewords._strip_search``
as they are.  Words enter and leave this form only at the element API
(tokens, ``base_element``, ``abelian_element``) and on u-power
membership misses.

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

Products normalize only the changed tail.  For a canonical a, pushing a's
syllables onto an empty stack changes nothing, so a * b starts the stack
at a's syllables and pushes only b's; the pushes leave some prefix of
length k untouched.  The strip pass then starts at index k-1, the last
syllable whose right neighbour may have changed.  That is exact because
the strip is idempotent on a canonical middle: h already is the lex-least
shortest word of its double coset, and a nonempty h is reached from
itself only at s = t = 0, so ``_strip(h, ls, rs)`` returns (0, h, 0) for
every syllable before k-1.

The ball multiplies canonical elements by one generator at a time, and
``_times_generator`` does that product by cases on the last syllable: a
base letter joins a base tail, which is then stripped against its left
neighbour, or follows an abelian tail and is stripped against the tail's
stage (a u-power strips to nothing; s folds into the neighbour either
way); a t-letter merges into an abelian tail of its stage, is appended
after an abelian tail of another stage, or follows a base tail, which is
stripped between its left neighbour and the t-letter with s and t folded
into the two.  If that strip leaves nothing, the tail was a u-power, so
the two abelian syllables it separated are of distinct stages and stay
apart.  Only the pinch of a cancelled t-part goes to ``_from_syllables``.
Each case does only the steps of that normalization whose outcome is not
known in advance, so the two agree syllable for syllable; a stripped base
syllable is stored as the strip cache's tuple, which elements share, not
as a new one per element.

A group is immutable, so it keeps what it computes: strips, u-power
memberships, ball layers and, built lazily once, its subtower (the group
with the top stage removed, see ``retraction.subtower``) and its top-stage
retractions by (R, p) (``retraction._theta_spec``).  Retractions onto the
subtower therefore share one set of caches across words, p values and
stages.

The ball keeps its BFS tree: every element is first built as
parent * generator, and two flat integer arrays record, per ball index,
the parent's ball index and the generator's index in
``generator_tokens()`` order.  They grow and roll back with the layers,
so a homomorphism can be evaluated on the whole ball with one product
per element (``retraction._first_collision``).  A layer does not multiply
an element by the inverse of its tree generator: that product is the
element's tree parent, one layer down, and with one normal form per
element it would only find that parent's syllables in the ball.

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
        self._theta_specs: dict = {}
        # doubled letters of u by stage, for _strip (None: no neighbour) and _u_power
        self._u_letters = {j: _base_syllable(stage.u) for j, stage in enumerate(self.stages)}
        self._u_letters[None] = None
        tokens = self.generator_tokens()
        self._generator_syllables = [(self._token_syllable(tok),) for tok in tokens]
        # _forward_gens[g]: the generators that do not undo generator g, by
        # index; the last entry, also read as index -1 (the identity's tree
        # generator), holds them all
        inverse = [
            tokens.index(-tok if isinstance(tok, int) else (*tok[:2], -tok[2])) for tok in tokens
        ]
        self._forward_gens = [
            tuple(h for h in range(len(tokens)) if h != inverse[g]) for g in range(len(tokens))
        ] + [tuple(range(len(tokens)))]
        # ball cache: layers[r] = list of elements of word length exactly r,
        # and the length of every element so far, keyed by its syllables
        self._layers: list[list[EocElement]] = [[self.identity()]]
        self._lengths: dict[tuple, int] = {(): 0}
        # the ball's BFS tree, by ball index: element k was first built as
        # ball[_tree_parents[k]] * generator _tree_gens[k]; -1 for the identity
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
        return [EocElement(self, gen) for gen in self._generator_syllables]

    def parse_tokens(self, text: str) -> list[Token]:
        tokens: list[Token] = []
        pos = 0
        for chunk in text.split():
            pos = text.index(chunk, pos)
            m = _T_TOKEN_RE.match(chunk)
            if not m:
                tokens.append(parse_letter(self.alphabet, chunk, pos))
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
            pos += len(chunk)
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

    def _push(self, stack: list[tuple[int, ...]], syl: tuple[int, ...]) -> int:
        """Push one syllable, merging with the stack top until stable.

        Returns the length of the stack prefix the push left untouched.
        """
        while True:
            if not syl:
                return len(stack)
            if not stack:
                stack.append(syl)
                return 0
            top = stack[-1]
            if top[0] & 1:
                if syl[0] & 1:
                    if top[0] != syl[0]:
                        break
                    stack.pop()
                    syl = (top[0], *map(operator.add, top[1:], syl[1:]))
                    if not any(syl[2:]):
                        # the t-part cancelled: a pure u-power is base material
                        syl = self._u_power(syl[0] >> 1, syl[1] >> 1)
                    continue
                # top is abelian, syl is base: absorb syl into top if it is a u-power
                k = self._power_of(top[0] >> 1, syl)
                if k is None:
                    break
                stack.pop()
                syl = (top[0], top[1] + 2 * k, *top[2:])
            elif syl[0] & 1:
                # top is base, syl is abelian: absorb top into syl if it is a u-power
                k = self._power_of(syl[0] >> 1, top)
                if k is None:
                    break
                stack.pop()
                syl = (syl[0], syl[1] + 2 * k, *syl[2:])
            else:
                stack.pop()
                syl = join_letters(top, syl)
        stack.append(syl)
        return len(stack) - 1

    def _from_syllables(
        self, raw: tuple[tuple[int, ...], ...], head: tuple[tuple[int, ...], ...] = ()
    ) -> EocElement:
        """Normal form of the canonical syllables `head` followed by `raw`.

        With ``head=()`` this normalizes `raw` from scratch; otherwise only
        the tail that `raw` changes is normalized (see the module docstring).
        """
        # structural pass: alternation, pinches, u-power absorption
        out = list(head)
        kept = len(out)
        for syl in raw:
            k = self._push(out, syl)
            if k < kept:
                kept = k
        # canonical pass: strip base syllables against their abelian neighbors,
        # from the last syllable whose right neighbour may have changed
        n = len(out)
        i = kept - 1 if kept else 0
        while i < n:
            syl = out[i]
            if syl[0] & 1:
                i += 1
                continue
            # alternation: both neighbours of a base syllable are abelian
            left = out[i - 1] if i else None
            right = out[i + 1] if i + 1 < n else None
            if left is None and right is None:
                i += 1
                continue
            s, h, t = self._strip(
                syl,
                left[0] >> 1 if left else None,
                right[0] >> 1 if right else None,
            )
            # a missing neighbour has no u to strip, so its exponent is 0
            if s:
                out[i - 1] = (left[0], left[1] + 2 * s, *left[2:])
            if t:
                out[i + 1] = (right[0], right[1] + 2 * t, *right[2:])
            if h:
                out[i] = h
                i += 1
            else:
                # only possible between abelian neighbors of distinct stages
                del out[i]
                n -= 1
        return EocElement(self, tuple(out))

    def _times_generator(
        self, head: tuple[tuple[int, ...], ...], g: int
    ) -> tuple[tuple[int, ...], ...]:
        """The syllables of head * generator g, for canonical syllables `head`.

        Equal to ``_from_syllables(self._generator_syllables[g], head)``;
        the cases below do only the steps of that normalization whose
        outcome is not known in advance, and the rest go to it.
        """
        raw = self._generator_syllables[g]
        gen = raw[0]
        if not head:
            return (gen,)
        tail = head[-1]
        if gen[0] & 1:
            if tail[0] & 1:
                if tail[0] != gen[0]:
                    # abelian syllables of distinct stages do not merge
                    return head + (gen,)
                syl = (tail[0], tail[1], *map(operator.add, tail[2:], gen[2:]))
                if any(syl[2:]):
                    return head[:-1] + (syl,)
            else:
                # strip the base tail between its left neighbour and gen, and
                # fold s and t into them; if h is empty the tail was a u-power,
                # so left and gen are of distinct stages and do not merge
                left = head[-2] if len(head) > 1 else None
                s, h, t = self._strip(tail, left[0] >> 1 if left else None, gen[0] >> 1)
                if not (s or t):
                    return head + (gen,)
                if t:
                    gen = (gen[0], 2 * t, *gen[2:])
                if left is None:
                    return (h, gen) if h else (gen,)
                if s:
                    left = (left[0], left[1] + 2 * s, *left[2:])
                return head[:-2] + ((left, h, gen) if h else (left, gen))
            # the t-part cancelled: a pure u-power pinches into its neighbours
            return self._from_syllables(raw, head).syllables
        if tail[0] & 1:
            # strip the letter against the tail's stage and fold s into the
            # tail; a u-power strips to nothing, as the push would absorb it
            s, h, _ = self._strip(gen, tail[0] >> 1, None)
            if not s:
                return head + (h,)
            tail = (tail[0], tail[1] + 2 * s, *tail[2:])
            return head[:-1] + ((tail, h) if h else (tail,))
        # one letter joins a reduced word by cancelling its last letter or not
        syl = tail[:-1] if tail[-1] == -gen[0] else tail + gen
        if not syl:
            return head[:-1]
        if len(head) == 1:
            return (syl,)
        # strip the new tail against its left neighbour; a u-power strips to
        # nothing and folds into the neighbour, as the push would absorb it
        left = head[-2]
        s, h, _ = self._strip(syl, left[0] >> 1, None)
        if not s:
            return head[:-1] + (h,)
        left = (left[0], left[1] + 2 * s, *left[2:])
        return head[:-2] + ((left, h) if h else (left,))

    # -- word problem and ball enumeration ------------------------------------

    def _grow_layer(self, cap: int) -> None:
        frontier = self._layers[-1]
        depth = len(self._layers)
        new: list[EocElement] = []
        lengths = self._lengths
        parents, gens = self._tree_parents, self._tree_gens
        times = self._times_generator
        forward = self._forward_gens
        size = len(lengths)
        first = size - len(frontier)
        for parent, elem in enumerate(frontier, start=first):
            head = elem.syllables
            # the generator that undoes the parent's own gives its tree parent
            for g in forward[gens[parent]]:
                key = times(head, g)
                lengths.setdefault(key, depth)
                if len(lengths) > size:
                    size += 1
                    if size > cap:
                        # keep the cache at whole layers so a later call can regrow
                        del lengths[key]
                        for e in new:
                            del lengths[e.syllables]
                        del parents[len(lengths):]
                        del gens[len(lengths):]
                        raise BudgetExceeded(
                            f"ball enumeration exceeded cap of {cap} elements at radius {depth}"
                        )
                    new.append(EocElement(self, key))
                    parents.append(parent)
                    gens.append(g)
        self._layers.append(new)

    def ball(self, radius: int, cap: int = DEFAULT_BALL_CAP) -> list[EocElement]:
        """All elements of word length <= radius, BFS layer order, deduplicated."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        while len(self._layers) <= radius:
            self._grow_layer(cap)
        out: list[EocElement] = []
        for layer in self._layers[: radius + 1]:
            out.extend(layer)
        return out

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
