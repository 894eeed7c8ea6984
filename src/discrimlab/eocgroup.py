"""Extensions of centralizers over a free base group.

G' = F *_<u> (<u> x Z^n), iterated over several stages whose amalgamating
elements u all lie in the base free group and are pairwise
non-commensurable.  Elements are kept in a canonical alternating syllable
form, which decides the word problem: two words represent the same
element iff they normalize to the same syllable sequence.

Syllables:
  * base syllable: a reduced word of the free base group, stored as the
    ``Word`` itself;
  * abelian syllable of stage j: u_j^e * t_1^(v_1) ... t_n^(v_n) with
    v != 0 (a pure u-power is base material and is never stored here).

Canonical form:
  * adjacent syllables are unmergeable (alternation);
  * every base syllable is the minimal representative of its double
    coset with respect to the u's of its abelian neighbors, with the
    stripped u-powers folded into the neighbors' e-exponents (fixed
    tie-break: minimal length, then smallest |s|, then |t|).  The strip
    (``freewords._strip_search``) scans its (s, t) box row by row,
    measuring each row by letter comparisons, and is memoized per group.

Products normalize only the changed tail.  For a canonical a, pushing a's
syllables onto an empty stack changes nothing, so a * b starts the stack
at a's syllables and pushes only b's; the pushes leave some prefix of
length k untouched.  The strip pass then starts at index k-1, the last
syllable whose right neighbour may have changed.  That is exact because
the strip is idempotent on a canonical middle: h already has minimal
length in its double coset, so (len h, 0, 0, 0, 0) is the least key and
``_strip(h, ls, rs)`` returns (0, h, 0) for every syllable before k-1.

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
per element (``retraction._first_collision``).

Element serialization extends the base word format with ``t<stage>.<i>``
and ``T<stage>.<i>`` tokens, stages and indices 1-based.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import BudgetExceeded, GroupSpecError, WordFormatError
from .freewords import (
    DEFAULT_BALL_CAP,
    Alphabet,
    Word,
    _strip_search,
    conjugate,
    parse_letter,
    parse_word,
    power_membership,
)

_T_TOKEN_RE = re.compile(r"([tT])([0-9]+)\.([0-9]+)$")

# token model: base letters are signed ints as in freewords; t-letters are
# triples ('t', stage_index0, signed generator index)
Token = Union[int, tuple]


@dataclass(frozen=True)
class EocStage:
    u: Word
    rank: int


@dataclass(frozen=True)
class AbelianSyllable:
    stage: int  # 0-based
    u_exp: int
    t_exps: tuple[int, ...]  # never all zero in normal position

    def __hash__(self) -> int:
        # doubled exponents: hash(-1) == hash(-2) would merge u^-1 with u^-2
        return hash((self.stage, 2 * self.u_exp, *[2 * v for v in self.t_exps]))


# a base syllable is stored as its reduced Word itself
Syllable = Union[Word, AbelianSyllable]


class EocElement:
    """An element of an extension-of-centralizer group in canonical form."""

    __slots__ = ("group", "syllables", "_hash")

    def __init__(self, group: "EocGroup", syllables: tuple[Syllable, ...]):
        self.group = group
        self.syllables = syllables
        self._hash = hash(syllables)

    def is_trivial(self) -> bool:
        return not self.syllables

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EocElement)
            and self.group is other.group
            and self.syllables == other.syllables
        )

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "EocElement") -> "EocElement":
        if self.group is not other.group:
            raise ValueError("elements of different groups")
        return self.group._from_syllables(other.syllables, self.syllables)

    def inverse(self) -> "EocElement":
        inv: list[Syllable] = []
        for syl in reversed(self.syllables):
            if isinstance(syl, Word):
                inv.append(syl.inverse())
            else:
                inv.append(
                    AbelianSyllable(
                        syl.stage, -syl.u_exp, tuple(-v for v in syl.t_exps)
                    )
                )
        return self.group._from_syllables(tuple(inv))

    def tokens(self) -> str:
        parts = []
        for syl in self.syllables:
            if isinstance(syl, Word):
                parts.append(syl.tokens())
            else:
                u = self.group.stages[syl.stage].u
                if syl.u_exp:
                    parts.append((u ** syl.u_exp).tokens())
                for i, v in enumerate(syl.t_exps, start=1):
                    if v > 0:
                        parts.extend([f"t{syl.stage + 1}.{i}"] * v)
                    elif v < 0:
                        parts.extend([f"T{syl.stage + 1}.{i}"] * (-v))
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
        self._generator_syllables = [
            (self._token_syllable(tok),) for tok in self.generator_tokens()
        ]
        # ball cache: layers[r] = list of elements of word length exactly r
        self._layers: list[list[EocElement]] = [[self.identity()]]
        self._lengths: dict[EocElement, int] = {self.identity(): 0}
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

    def _token_syllable(self, tok: Token) -> Syllable:
        if isinstance(tok, int):
            return Word(self.alphabet, (tok,))
        _, stage, idx = tok
        v = [0] * self.stages[stage].rank
        v[abs(idx) - 1] = 1 if idx > 0 else -1
        return AbelianSyllable(stage, 0, tuple(v))

    def base_element(self, w: Word) -> EocElement:
        return self._from_syllables((w,))

    def abelian_element(self, stage: int, u_exp: int, t_exps: Sequence[int]) -> EocElement:
        if len(t_exps) != self.stages[stage].rank:
            raise ValueError("t-exponent vector has wrong length")
        return self._from_syllables(
            (AbelianSyllable(stage, u_exp, tuple(t_exps)),)
        )

    # -- normalization --------------------------------------------------------

    def _power_of(self, stage: int, g: Word) -> Optional[int]:
        key = (stage, g)
        if key not in self._membership_cache:
            self._membership_cache[key] = power_membership(self.stages[stage].u, g)
        return self._membership_cache[key]

    def _strip(
        self, g: Word, left_stage: Optional[int], right_stage: Optional[int]
    ) -> tuple[int, Word, int]:
        key = (g, left_stage, right_stage)
        if key not in self._strip_cache:
            u_left = self.stages[left_stage].u if left_stage is not None else None
            u_right = self.stages[right_stage].u if right_stage is not None else None
            self._strip_cache[key] = _strip_search(g, u_left, u_right)
        return self._strip_cache[key]

    def _push(self, stack: list[Syllable], syl: Syllable) -> int:
        """Push one syllable, merging with the stack top until stable.

        Returns the length of the stack prefix the push left untouched.
        """
        while True:
            base = isinstance(syl, Word)
            if base:
                if syl.is_identity():
                    return len(stack)
            elif not any(syl.t_exps):
                # degenerate: pure u-power, route to the base side
                syl = self.stages[syl.stage].u ** syl.u_exp
                continue
            if not stack:
                stack.append(syl)
                return len(stack) - 1
            top = stack[-1]
            if isinstance(top, Word):
                if base:
                    stack.pop()
                    syl = top * syl
                    continue
                # top is base, syl is abelian: absorb top into syl if it is a u-power
                k = self._power_of(syl.stage, top)
                if k is not None:
                    stack.pop()
                    syl = AbelianSyllable(syl.stage, syl.u_exp + k, syl.t_exps)
                    continue
            elif base:
                k = self._power_of(top.stage, syl)
                if k is not None:
                    stack.pop()
                    syl = AbelianSyllable(top.stage, top.u_exp + k, top.t_exps)
                    continue
            elif top.stage == syl.stage:
                stack.pop()
                syl = AbelianSyllable(
                    top.stage,
                    top.u_exp + syl.u_exp,
                    tuple(a + b for a, b in zip(top.t_exps, syl.t_exps)),
                )
                continue
            stack.append(syl)
            return len(stack) - 1

    def _from_syllables(
        self, raw: tuple[Syllable, ...], head: tuple[Syllable, ...] = ()
    ) -> EocElement:
        """Normal form of the canonical syllables `head` followed by `raw`.

        With ``head=()`` this normalizes `raw` from scratch; otherwise only
        the tail that `raw` changes is normalized (see the module docstring).
        """
        # structural pass: alternation, pinches, u-power absorption
        out: list[Syllable] = list(head)
        kept = len(out)
        for syl in raw:
            kept = min(kept, self._push(out, syl))
        # canonical pass: strip base syllables against their abelian neighbors,
        # from the last syllable whose right neighbour may have changed
        i = max(kept - 1, 0)
        while i < len(out):
            syl = out[i]
            if not isinstance(syl, Word):
                i += 1
                continue
            # alternation: both neighbours of a base syllable are abelian
            ls = out[i - 1].stage if i > 0 else None
            rs = out[i + 1].stage if i + 1 < len(out) else None
            if ls is None and rs is None:
                i += 1
                continue
            s, h, t = self._strip(syl, ls, rs)
            # a missing neighbour has no u to strip, so its exponent is 0
            if s:
                left = out[i - 1]
                out[i - 1] = AbelianSyllable(ls, left.u_exp + s, left.t_exps)
            if t:
                right = out[i + 1]
                out[i + 1] = AbelianSyllable(rs, right.u_exp + t, right.t_exps)
            if h.is_identity():
                # only possible between abelian neighbors of distinct stages
                del out[i]
            else:
                out[i] = h
                i += 1
        return EocElement(self, tuple(out))

    # -- word problem and ball enumeration ------------------------------------

    def _grow_layer(self, cap: int) -> None:
        frontier = self._layers[-1]
        depth = len(self._layers)
        new: list[EocElement] = []
        parents, gens = self._tree_parents, self._tree_gens
        first = len(self._lengths) - len(frontier)
        for parent, elem in enumerate(frontier, start=first):
            for g, gen in enumerate(self._generator_syllables):
                cand = self._from_syllables(gen, elem.syllables)
                if cand not in self._lengths:
                    if len(self._lengths) >= cap:
                        # keep the cache at whole layers so a later call can regrow
                        for e in new:
                            del self._lengths[e]
                        del parents[len(self._lengths):]
                        del gens[len(self._lengths):]
                        raise BudgetExceeded(
                            f"ball enumeration exceeded cap of {cap} elements at radius {depth}"
                        )
                    self._lengths[cand] = depth
                    new.append(cand)
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
        while w not in self._lengths:
            self._grow_layer(cap)
        return self._lengths[w]


def load_group_spec(text: str) -> EocGroup:
    """Parse the group spec document: {"free_rank": k, "stages": [{"u":..., "rank":...}]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GroupSpecError(f"spec is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "free_rank" not in doc:
        raise GroupSpecError("spec must be an object with a 'free_rank' field")
    alphabet = Alphabet(int(doc["free_rank"]))
    stages = []
    for j, entry in enumerate(doc.get("stages", [])):
        try:
            u = parse_word(alphabet, entry["u"])
            rank = int(entry["rank"])
        except (KeyError, TypeError) as e:
            raise GroupSpecError(f"bad stage entry: {e}", stage=j) from e
        stages.append((u, rank))
    return EocGroup(alphabet, stages)
