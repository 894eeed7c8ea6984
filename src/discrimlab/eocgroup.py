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
removed, see ``retraction.subtower``) and the matrices of its fingerprint
homomorphism (``_phi``), but no retractions, which are substitutions
(``retraction._image``).  The ball's index tables (``_inverse``,
``_commute``) are built in ``__init__``.  Retractions onto the subtower
share one set of caches across words and p values.

The ball is its BFS tree, grown a layer at a time.  Two flat integer
arrays record, per ball index, the parent's ball index and the
generator's index in ``generator_tokens()`` order; the ball of radius r
is the first ``_ends[r]`` entries, and ``ball(r)`` is a read-only view
of them.  A layer's candidates are the pairs (parent, generator) over
the last layer, in ball order and then token order, and each new
element's tree entry is its least candidate (``_grow_layer``).  When
every u is one base letter the group is a right-angled Artin group, and
a finite automaton of its shortlex-least words keeps exactly the new
elements' least candidates (``_grow_raag_layer``); the ball keeps only
the last layer's automaton states.  Each element has exactly one
accepted word, so the accepted words of length L count sphere L:
``ball_size`` counts them from the number of words in each state, in
exact integers and with no tree, and the tree takes each layer's size,
and its cap check, from those counts.  On other specs, back edges from
the last layer's resolution row (``_row``) find the old candidates,
commuting squares of the defining relations link equal ones into
classes, and keys by phi, a homomorphism into SL(2, F_P) (``_phi``,
hashed to 64 bits by ``_key``), prove most live classes distinct; only
runs of equal keys are settled by normal forms (``_settle``).  A layer
that exceeds the cap is not kept.  A normal form is built on demand
along the tree path, the parent's times the generator (``_times``), and
kept by ball index (``_form``); the view builds its elements that way.
``_tree_keys``, the one tree evaluator, evaluates a homomorphism into
SL(2, F_P) on the whole ball with one product per element
(``retraction._first_collision`` uses it with phi after a retraction).
The walk and the layer settle take their clashing keys from one
``_clashing``, which sorts one copy of the keys, and confirm each clash
exactly: the layer by normal forms, the walk by the retraction's own
map.

Element serialization extends the base word format with ``t<stage>.<i>``
and ``T<stage>.<i>`` tokens, stages and indices 1-based.
"""

from __future__ import annotations

import json
import operator
import random
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Union

import numpy as np

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

# phi, from a group into SL(2, F_P): entries lie below P < 2^31, so a
# product of two stays below 2^62 and a sum of two such below 2^63
_P = 2**31 - 1
_IDENTITY = (1, 0, 0, 1)
# elements per numpy block of a layer, which bounds a layer's temporaries
_BLOCK = 8192
# odd weights of the four entries in an element's key
_MIX = (0x5851F42D4C957F2D, 0x14057B7EF767814F, 0x2545F4914F6CDD1D, 0x3C6EF372FE94F82B)


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
        # every stage's u is one base letter: a right-angled Artin group,
        # whose ball grows by its shortlex automaton (``_grow_raag_layer``)
        # and on which the split-pair floor is p_min
        # (``retraction._least_injective_p``)
        self._raag = all(len(stage.u) == 1 for stage in self.stages)
        self._strip_cache: dict = {}
        self._subtower: Optional[EocGroup] = None
        # the matrices of _phi, built on its first call
        self._phi: Optional[tuple] = None
        # doubled letters of u by stage, for _strip (None: no neighbour) and _u_power
        self._u_letters = {j: _base_syllable(stage.u) for j, stage in enumerate(self.stages)}
        self._u_letters[None] = None
        tokens = self.generator_tokens()
        self._generator_syllables = [self._token_syllable(tok) for tok in tokens]
        # the ball's index tables, by generator index; row -1 is the
        # identity's.  _inverse[g] undoes g (-1 for the identity, which no
        # generator undoes).  _commute[h, g]: h and g commute by a defining
        # relation, as two t's of one stage, or as a t of stage j and a
        # letter that is u_j or its inverse; g = h and g = h^-1 are left out
        inverse = [
            tokens.index(-tok if isinstance(tok, int) else (*tok[:2], -tok[2])) for tok in tokens
        ] + [-1]
        self._inverse = np.array(inverse, dtype=np.intp)
        single = {abs(s.u.letters[0]): j for j, s in enumerate(self.stages) if len(s.u) == 1}
        centres = [tok[1] if isinstance(tok, tuple) else single.get(abs(tok)) for tok in tokens]
        self._commute = np.array(
            [
                [c is not None and c == d and g not in (h, inverse[h]) for g, d in enumerate(centres)]
                for h, c in enumerate(centres + [None])
            ],
            dtype=bool,
        )
        # the ball's BFS tree, by ball index: element k is element
        # _tree_parents[k] times generator _tree_gens[k] (-1 for the
        # identity), and the elements of word length <= r are the first _ends[r]
        self._tree_parents = array("i", [-1])
        self._tree_gens = array("i", [-1])
        self._ends: list[int] = [1]
        # the normal forms built so far, by ball index (_form)
        self._forms: dict[int, tuple] = {0: ()}
        # a RAAG spec's shortlex automaton: state ids by letter set (a bitmask
        # of generator indices) in order of id, the rows built so far
        # (_transitions), and the state of each element of the last layer
        self._state_ids = {0: 0}
        self._trans = np.empty((0, len(tokens)), dtype=np.int32)
        self._states = np.zeros(1, dtype=np.int32)
        # its counts (ball_size): the ball's size by radius, counted so far,
        # and the number of elements in each state on the last counted layer
        self._sizes = [1]
        self._counts = [1]
        # other specs: the last layer's phi matrices as int32, and its
        # resolution row, read by the next layer's back edges and squares:
        # per candidate of the layer, the ball index of its element if the
        # layer has it, else -1 (empty for the identity)
        self._layer_matrices = np.array(_IDENTITY, dtype=np.int32).reshape(1, 2, 2)
        self._row = np.empty(0, dtype=np.int32)

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
        return power_membership(self.stages[stage].u, _syllable_word(self.alphabet, g))

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

    def _form(self, k: int) -> tuple[tuple[int, ...], ...]:
        """The canonical syllables of ball element k, built along its tree path and kept."""
        forms, parents = self._forms, self._tree_parents
        path = []
        while k not in forms:
            path.append(k)
            k = parents[k]
        head = forms[k]
        for k in reversed(path):
            head = forms[k] = self._times(head, self._generator_syllables[self._tree_gens[k]])
        return head

    def _back_edges(self, lo: int) -> np.ndarray:
        """The next layer's old candidates, read from the last layer's row (``_grow_layer``)."""
        n = len(self._generator_syllables)
        c = np.flatnonzero(self._row >= 0)
        # candidate c is (Y, h), and it resolved to P, so (P, h^-1) is Y
        return (self._row[c] - lo) * n + self._inverse[c % n]

    def _squares(
        self, prev_lo: int, lo: int, c: np.ndarray, parents: np.ndarray, gens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The commuting squares of candidates `c`, with their parents and generators.

        Returns the candidates linked to another of the layer, and those
        others (the square rule of ``_grow_layer``).
        """
        n = len(self._generator_syllables)
        tree_parents = np.frombuffer(self._tree_parents, dtype=np.intc)
        h = np.frombuffer(self._tree_gens, dtype=np.intc)[parents]
        at = np.flatnonzero(self._commute[h, gens])
        c, g, h, q = c[at], gens[at], h[at], tree_parents[parents[at]]
        # x: the ball index of q g if the last layer has it, else -1
        x = self._row[(q - prev_lo) * n + g]
        linked = x >= 0
        return c[linked], (x[linked] - lo) * n + h[linked]

    def _live_classes(self, prev_lo: int, lo: int) -> tuple[np.ndarray, np.ndarray]:
        """The next layer's live classes (``_grow_layer``), by their least candidates.

        Returns those and each candidate's class label.  The candidates are
        linked by commuting squares, in blocks of whole parents, and a class
        that a back edge reaches is old.
        """
        n = len(self._generator_syllables)
        count = (self._ends[-1] - lo) * n
        src, dst = [], []
        step = _BLOCK // n * n
        for start in range(0, count, step):
            c = np.arange(start, min(start + step, count))
            rows, gens = np.divmod(c, n)
            linked, other = self._squares(prev_lo, lo, c, rows + lo, gens)
            src.append(linked)
            dst.append(other)
        labels = _classes(count, np.concatenate(src), np.concatenate(dst))
        live = labels == np.arange(count)
        live[labels[self._back_edges(lo)]] = False
        return np.flatnonzero(live), labels

    def _grow_layer(self, cap: int) -> None:
        """Add the next BFS layer; past `cap` elements, raise and keep none of it.

        With n generators, candidate c is (lo + c // n, c % n) on every
        layer, and each new element's tree entry is its least candidate.  A
        RAAG spec keeps the candidates that its shortlex automaton accepts
        (``_grow_raag_layer``); other specs settle them as follows.

        Back edges find every old candidate.  Each defining relation has
        even length, so a candidate c = P g, with P of word length L, has
        length L + 1 or L - 1, and c is old exactly when P g lies in layer
        L - 1.  Then (P g, g^-1) is a candidate of layer L that resolved to
        P, as ``_row`` records (``_back_edges``); when g undoes P's own
        generator, that candidate is P's tree edge.

        Commuting squares settle most of the other duplicates without a
        normal form.  Take a candidate c = P g whose parent P = Q h has a
        tree generator h that commutes with g by a defining relation
        (``_commute``).  Then c = (Q g) h.  If X = Q g is in layer L (its
        row entry is not -1), c equals the candidate (X, h) of this layer,
        and the two are linked; else X lies two layers back and c is old.
        If h undoes X's generator, (X, h) is old, and so is c, which
        equals it.  A class of linked candidates is one element, and it is
        live if no back edge reaches a member.

        The live classes are settled by keys, and by normal forms where
        keys clash, in candidate order (``_settle``).
        """
        if self._raag:
            return self._grow_raag_layer(cap)
        prev_lo, lo, size = ([0, 0] + self._ends)[-3:]
        reps, labels = self._live_classes(prev_lo, lo)
        kept, matrices, settled, merged = self._settle(lo, reps)
        count = len(kept)
        self._check_cap(size + count, cap, len(self._ends))
        self._layer_matrices = matrices
        del reps, matrices
        # the ball index of each class's element, by its least candidate
        index = np.full(len(labels), -1, dtype=np.int32)
        index[kept] = np.arange(size, size + count, dtype=np.int32)
        index[list(merged)] = index[list(merged.values())]
        self._row = index[labels]
        del index, labels
        rows, gens = np.divmod(kept, len(self._generator_syllables))
        rows += lo
        self._tree_parents.frombytes(rows.astype(np.intc).tobytes())
        self._tree_gens.frombytes(gens.astype(np.intc).tobytes())
        self._forms.update(
            zip((size + np.searchsorted(kept, list(settled))).tolist(), settled.values())
        )
        self._ends.append(size + count)

    def _check_cap(self, size: int, cap: int, radius: int) -> None:
        """Raise if the ball of `radius` has `size` elements, past `cap`."""
        if size > cap:
            raise BudgetExceeded(
                f"ball enumeration exceeded cap of {cap} elements at radius {radius}"
            )

    def _grow_raag_layer(self, cap: int) -> None:
        """Add the next layer of a RAAG spec by its shortlex automaton (``_grow_layer``).

        Candidate (P, g) is kept exactly when ``_trans[s, g] >= 0``, s the
        state of P, and that entry is the new element's state; the layer's
        size comes from ``ball_size``, and is checked against the cap,
        before anything is appended.  A state is a set of letters, F(1) =
        {} and, with C(z) the letters that commute with z (``_commute``)
        and < the token order,

            F(w z) = (F(w) & C(z)) | {y in C(z) : y < z} | {z^-1}.

        1. A tree path is its element's shortlex-least word: by induction on
           the layer, as the tree edge is the least candidate (P, g), and
           (ball index of P, g) orders the words (path of P) g lexically.
        2. In a RAAG the reduced words are the geodesics, those of one
           element are related by commutations, and a word is reduced
           exactly when it has no factor x v x^-1 with every letter of v in
           C(x) (Hermiller and Meier, *Algorithms and geometry for graph
           products of groups*, 1995).
        3. A word is the lex-least of its commutation class exactly when it
           has no factor b v a with a < b, where a commutes with b and with
           every letter of v (Anisimov and Knuth, *Inhomogeneous sorting*).
        4. A prefix of a shortlex-least word is shortlex-least, so for a
           shortlex-least w only the factors of 2 and 3 that end at g need
           checking, and one exists exactly when g is in F(w): y is barred
           after w z by z itself (y = z^-1, or y in C(z) and y < z), or by
           an earlier letter, which needs z in C(y).
        So the kept candidates are the new elements' shortlex-least words,
        one per element, each its element's least candidate.  Hence the
        words of length L that the automaton accepts are in one-to-one
        correspondence with sphere L, which is how ``ball_size`` counts it.
        """
        radius, (lo, size) = len(self._ends), ([0] + self._ends)[-2:]
        total = self.ball_size(radius, cap)
        # the layer may have been counted before, under another cap
        self._check_cap(total, cap, radius)
        count = total - size
        # counting the layer built the rows of the last layer's states
        trans, states = self._trans, self._states
        new = np.empty(count, dtype=np.int32)
        done = 0
        for start in range(0, len(states), _BLOCK):
            t = trans[states[start : start + _BLOCK]].ravel()
            kept = np.flatnonzero(t >= 0)
            new[done : done + len(kept)] = t[kept]
            done += len(kept)
            rows, gens = np.divmod(kept, trans.shape[1])
            rows += lo + start
            self._tree_parents.frombytes(rows.astype(np.intc).tobytes())
            self._tree_gens.frombytes(gens.astype(np.intc).tobytes())
        self._states = new
        self._ends.append(size + count)

    def _transitions(self) -> np.ndarray:
        """The shortlex automaton's table (``_grow_raag_layer``), with a row for each state met.

        A state is met as a target of a row, when ``ball_size`` counts a
        layer, so the states with no row yet are those of the last counted
        layer.  A rank-r stage reaches about 2^(r+1) states.
        """
        ids, built = self._state_ids, len(self._trans)
        if built == len(ids):
            return self._trans
        n, inverse = len(self._generator_syllables), self._inverse.tolist()
        commute = [sum(c << y for y, c in enumerate(row)) for row in self._commute[:n].tolist()]
        rows = []
        for f in list(ids)[built:]:
            row = []
            for z, c in enumerate(commute):
                target = f & c | c & ((1 << z) - 1) | 1 << inverse[z]
                row.append(-1 if f >> z & 1 else ids.setdefault(target, len(ids)))
            rows.append(row)
        self._trans = np.concatenate([self._trans, np.array(rows, dtype=np.int32).reshape(-1, n)])
        return self._trans

    def _settle(self, lo: int, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict, dict]:
        """The new classes among the live classes of the next layer, by keys (``_grow_layer``).

        `reps` are the classes' least candidates, each keyed by phi from
        the last layer's matrices.  A class whose key no other class shares
        is new; the others (``_clashing``, which the collision walk uses
        too) are settled by normal forms, in candidate order.  Returns the new
        classes' least candidates and matrices, the normal forms built for
        new classes and, for each class settled as equal to an earlier one,
        that class, by least candidate.
        """
        gen_syllables = self._generator_syllables
        n = len(gen_syllables)
        g = np.array([_phi(self, syl) for syl in gen_syllables], dtype=np.int64).reshape(-1, 2, 2)
        rows, gens = np.divmod(reps, n)
        keys = np.empty(len(reps), dtype=np.uint64)
        matrices = np.empty((len(reps), 2, 2), dtype=np.int32)
        for start in range(0, len(reps), _BLOCK):
            block = slice(start, start + _BLOCK)
            keys[block] = _layer_keys(
                self._layer_matrices, rows[block], g, gens[block], matrices[block]
            )
        clash = _clashing(keys)
        del keys, rows, gens
        times, form = self._times, self._form
        # seen maps a normal form to the first class with it
        seen, merged = {}, {}
        for i in reps[clash].tolist():
            row, h = divmod(i, n)
            syllables = times(form(lo + row), gen_syllables[h])
            j = seen.setdefault(syllables, i)
            if j != i:
                merged[i] = j
        settled = {i: syllables for syllables, i in seen.items()}
        new = ~clash
        new[np.searchsorted(reps, list(settled))] = True
        return reps[new], matrices[new], settled, merged

    def _tree_keys(
        self, n: int, matrices: Sequence[tuple[int, ...]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The keys of the first `n` ball elements, n a layer end, under a homomorphism.

        The homomorphism, into SL(2, F_P), sends the i-th generator
        (``generator_tokens()`` order) to ``matrices[i]``, (a, b, c, d).  It is evaluated over the
        BFS tree one layer at a time: an element's matrix is its parent's
        times its generator's, mod P, in blocks of ``_BLOCK`` elements
        (``_layer_keys``, which keys the ball's candidates too).  Only the
        previous and the current layer's matrices are kept, as int32, so
        it holds 16 bytes per element of two layers and 8 per ball
        element, the 64-bit key of its four entries (``_key``).  Returns
        the keys and the int32 matrices of the layer that ends at `n`.
        """
        tree_parents = np.frombuffer(self._tree_parents, dtype=np.intc, count=n)
        tree_gens = np.frombuffer(self._tree_gens, dtype=np.intc, count=n)
        g = np.array(matrices, dtype=np.int64).reshape(-1, 2, 2)
        keys = np.empty(n, dtype=np.uint64)
        root = np.array(_IDENTITY, dtype=np.int64).reshape(1, 2, 2)
        prev, keys[:1] = root.astype(np.int32), _key(root)
        prev_lo = 0
        for lo, hi in zip(self._ends, self._ends[1:]):
            if lo == n:
                break
            layer = np.empty((hi - lo, 2, 2), dtype=np.int32)
            for start in range(lo, hi, _BLOCK):
                stop = min(start + _BLOCK, hi)
                keys[start:stop] = _layer_keys(
                    prev,
                    tree_parents[start:stop] - prev_lo,
                    g,
                    tree_gens[start:stop],
                    layer[start - lo : stop - lo],
                )
            prev, prev_lo = layer, lo
        return keys, prev

    def ball_size(self, radius: int, cap: int = DEFAULT_BALL_CAP) -> int:
        """The number of elements of word length <= radius, ``len(self.ball(radius, cap))``.

        On a RAAG spec nothing is enumerated.  The shortlex automaton
        accepts exactly one word per element (``_grow_raag_layer``), so
        sphere L has sum(c_L) elements, where c_L[s] counts the accepted
        words of length L that end in state s: c_0 is 1 at state 0, and
        c_(L+1)[t] is the sum of c_L[s] over the entries
        ``_trans[s, g] = t >= 0``, in exact integers.  The sizes are kept
        by radius, and a radius is checked against `cap` when it is first
        counted, as ``ball`` checks a layer when it is first grown.
        """
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        if not self._raag:
            return len(self.ball(radius, cap))
        sizes = self._sizes
        for r in range(1, radius + 1):
            if r == len(sizes):
                rows = self._transitions().tolist()
                counts = [0] * len(self._state_ids)
                for row, c in zip(rows, self._counts):
                    for t in row:
                        if t >= 0:
                            counts[t] += c
                self._counts = counts
                sizes.append(sizes[-1] + sum(counts))
                self._check_cap(sizes[r], cap, r)
        return sizes[radius]

    def ball(self, radius: int, cap: int = DEFAULT_BALL_CAP) -> Sequence[EocElement]:
        """All elements of word length <= radius, BFS layer order, deduplicated.

        A read-only view of the ball's first entries, which builds each
        element from its tree path when it is read.
        """
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        while len(self._ends) <= radius:
            self._grow_layer(cap)
        return _Ball(self, self._ends[radius])


class _Ball(Sequence):
    """The first `size` elements of a group's ball in BFS order, each built when read."""

    __slots__ = ("_group", "_size")

    def __init__(self, group: EocGroup, size: int):
        self._group = group
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(self._size))]
        k = operator.index(i)
        if k < 0:
            k += self._size
        if not 0 <= k < self._size:
            raise IndexError("ball index out of range")
        return EocElement(self._group, self._group._form(k))


def _base_syllable(w: Word) -> tuple[int, ...]:
    """The base syllable of a reduced word: its letters doubled."""
    return tuple([2 * x for x in w.letters])


def _letter_tokens(syl: tuple[int, ...]) -> list[str]:
    """The ``g<i>``/``G<i>`` tokens of doubled letters."""
    return [f"g{x >> 1}" if x > 0 else f"G{-x >> 1}" for x in syl]


def _syllable_word(alphabet: Alphabet, syl: tuple[int, ...]) -> Word:
    """The reduced word of a base syllable: its entries halved."""
    return Word._raw(alphabet, tuple([x >> 1 for x in syl]))


def _mat_mul(m: tuple[int, ...], n: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two matrices (a, b, c, d) over F_P."""
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % _P, (a * f + b * h) % _P, (c * e + d * g) % _P, (c * f + d * h) % _P)


def _mat_pow(m: tuple[int, ...], e: int) -> tuple[int, ...]:
    """m^e for m in SL(2, F_P) and any integer e."""
    if e < 0:
        a, b, c, d = m
        m, e = (d, -b % _P, -c % _P, a), -e
    out = None
    while True:
        if e & 1:
            out = m if out is None else _mat_mul(out, m)
        e >>= 1
        if not e:
            return out or _IDENTITY
        m = _mat_mul(m, m)


def _phi(group: EocGroup, syl: tuple[int, ...]) -> tuple[int, ...]:
    """phi of one syllable of `group`, of one of its subtowers or of the free base.

    phi sends each base letter to a seeded random matrix of SL(2, F_P),
    and t_{j,i} to U_j^(x_{j,i}), U_j = phi(u_j), for a seeded exponent
    x_{j,i}.  The t's of stage j commute with U_j and with each other, so
    phi is a homomorphism of the group, and, as the letters are drawn
    first and then the stages in order, its restriction to a subtower is
    the subtower's own phi.  An abelian syllable u_j^e t^v maps to
    U_j^(e + sum x_{j,i} v_i), taken as U_j^e times each phi(t_{j,i})^(v_i).
    The matrices of the letters, of each U_j and of each t_{j,i} are
    built on first use and kept by `group`.  The ball keys its candidates
    by the group's phi, and the collision walk keys its images by the same
    phi restricted to the retraction's target.
    """
    if group._phi is None:
        rng = random.Random(2011)
        group._phi = letters, units, ts = {}, [], []
        for i in range(1, group.alphabet.rank + 1):
            a, b, c = rng.randrange(1, _P), rng.randrange(_P), rng.randrange(_P)
            letters[2 * i] = (a, b, c, (1 + b * c) * pow(a, -1, _P) % _P)
            letters[-2 * i] = _mat_pow(letters[2 * i], -1)
        for j, stage in enumerate(group.stages):
            # a base syllable needs only the letters, drawn above
            units.append(_phi(group, group._u_letters[j]))
            ts.append([_mat_pow(units[j], rng.randrange(1, _P)) for _ in range(stage.rank)])
    letters, units, ts = group._phi
    if not syl:
        return _IDENTITY
    if not syl[0] & 1:
        return reduce(_mat_mul, [letters[x] for x in syl])
    j = syl[0] >> 1
    # the t-part is nonzero, so there is at least one factor
    factors = [_mat_pow(t, v >> 1) for t, v in zip(ts[j], syl[2:]) if v]
    return reduce(_mat_mul, factors, _mat_pow(units[j], syl[1] >> 1))


def _key(m: np.ndarray) -> np.ndarray:
    """One key per matrix of `m`: its four entries dotted with ``_MIX``, mod 2^64."""
    return m.reshape(-1, 4).view(np.uint64) @ np.array(_MIX, dtype=np.uint64)


def _clashing(keys: np.ndarray) -> np.ndarray:
    """The mask of the entries of the uint64 `keys` whose value occurs more than once.

    One sorted copy, compared with itself shifted by one, gives the
    repeated values, each taken once.  A table of at least 2 len(keys)
    flags, indexed by a key's top bits, marks those of the repeated
    values, so only the entries whose flag is set, the clashing ones and
    a few more, are looked up among the repeated values.
    """
    s = np.sort(keys)
    repeated = s[1:][s[1:] == s[:-1]]
    del s
    clash = np.zeros(len(keys), dtype=bool)
    if len(repeated):
        repeated = repeated[np.append(True, repeated[1:] != repeated[:-1])]
        bits = (2 * len(keys)).bit_length()
        shift = np.uint64(64 - bits)
        table = np.zeros(1 << bits, dtype=bool)
        table[repeated >> shift] = True
        maybe = np.flatnonzero(table[keys >> shift])
        k = keys[maybe]
        clash[maybe] = repeated.take(np.searchsorted(repeated, k), mode="clip") == k
    return clash


def _classes(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The least node connected to each of n nodes by the edges src[i] -- dst[i].

    Min-label propagation: every edge lowers both ends' labels to the lesser
    of the two, and each label then jumps to its own node's label, until
    the two ends of every edge agree.  Each node is the source of at most
    one edge.
    """
    labels = np.arange(n)
    while True:
        a, b = labels[src], labels[dst]
        if np.array_equal(a, b):
            return labels
        low = np.minimum(a, b)
        labels[src] = low
        np.minimum.at(labels, dst, low)
        labels = labels[labels]


def _layer_keys(
    prev: np.ndarray, parents: np.ndarray, g: np.ndarray, gens: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The keys of prev[parents] * g[gens] mod P, one block of a layer.

    `prev` holds a layer's matrices as int32, as every entry is below
    2^31, and is widened to int64 for the product; the products go to
    `out` as int32 and are keyed by ``_key``.
    """
    m = np.matmul(np.take(prev, parents, axis=0).astype(np.int64), np.take(g, gens, axis=0))
    m %= _P
    out[...] = m
    return _key(m)


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
