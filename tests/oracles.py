"""Brute-force reference implementations that the library's closed forms replace.

They are meant to be slow and obviously right, and share no code path
with what they check beyond word products and the theta map
(``stack_normal_form`` also shares the strip, which has its own oracle, and
``chain_of_retractions`` normalizes in each subtower, which the
substitution it checks never does; ``brute_raw_word_agreement`` runs
the normal form and ``apply_chain`` per word, which the walk it checks
builds incrementally).  The
u-powers of every oracle are chains of products (``running_powers``,
``product_power``), or runs of one period (``ball_image_count``), not
``Word.__pow__``: the library builds every u-power with its kernel
``freewords._power``.
The test inputs come from here as well: the free-word enumerator and its
relabelings, and the Z^n box and ball points.  The Siegel small-kernel
search checks, on seeded rows, the lemma that ``zdiscrim.lower_bound_value``
rests on; the library has no search of its own for it.
"""

import itertools
import math
import operator
import random
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from discrimlab.bigpowers import (
    DEFAULT_SAMPLES,
    DEFAULT_SWEEP_CAP,
    PaddedWordSpec,
)
from discrimlab.eocgroup import DEFAULT_BALL_CAP, EocElement, EocGroup
from discrimlab.errors import AscentExhausted, BudgetExceeded, CertificationError
from discrimlab.freewords import Alphabet, Word, join_letters
from discrimlab.retraction import ThetaSpec, apply_chain
from discrimlab.zdiscrim import DEFAULT_ENUM_BUDGET, BallSpec, ZnHom, theta

IntVector = tuple[int, ...]


def free_words(alphabet: Alphabet, radius: int) -> list[Word]:
    """All reduced words of length <= radius, in BFS layer order.

    Each layer extends the previous one by every letter, g1..gk then
    G1..Gk, that does not cancel the last letter.
    """
    letters = [*range(1, alphabet.rank + 1), *range(-1, -alphabet.rank - 1, -1)]
    out, frontier = [()], [()]
    for _ in range(radius):
        frontier = [w + (x,) for w in frontier for x in letters if not (w and w[-1] == -x)]
        out += frontier
    return [Word(alphabet, w) for w in out]


# the 8 automorphisms of F2 that permute g1, g2 and flip their signs
F2_RELABELINGS = [
    {1: s1 * p1, -1: -s1 * p1, 2: s2 * p2, -2: -s2 * p2}
    for p1, p2 in ((1, 2), (2, 1))
    for s1 in (1, -1)
    for s2 in (1, -1)
]


def relabel(phi: dict, w: Optional[Word]) -> Optional[Word]:
    """The image of w under a relabeling of the generators; None stays None."""
    return None if w is None else Word(w.alphabet, [phi[x] for x in w.letters])


def orbit_representatives(words: Sequence[Word]) -> list[Word]:
    """The first word of each orbit under ``F2_RELABELINGS``; the orbits must exhaust `words`."""
    reps, seen = [], set()
    for w in words:
        if w not in seen:
            reps.append(w)
            seen.update(relabel(phi, w) for phi in F2_RELABELINGS)
    assert seen == set(words)
    return reps


def box_points(n: int, R: int) -> list[IntVector]:
    """All of [-R, R]^n, in lex order."""
    return list(itertools.product(range(-R, R + 1), repeat=n))


def ball_points(n: int, spec: BallSpec) -> list[IntVector]:
    points = box_points(n, spec.radius)
    if spec.shape == "box":
        return points
    return [v for v in points if sum(abs(t) for t in v) <= spec.radius]


def half_ball_points(n: int, spec: BallSpec) -> np.ndarray:
    """The punctured ball's points with positive first nonzero entry, as int64 rows."""
    half = [v for v in ball_points(n, spec) if next((c for c in v if c != 0), 0) > 0]
    return np.array(half, dtype=np.int64).reshape(-1, n)


def box_filtered_half_ball(n: int, spec: BallSpec) -> np.ndarray:
    """The punctured ball's primitive points with positive first nonzero entry, from the box.

    Builds all of [-R, R]^n in lex order, keeps the rows after its center
    (the points with positive first nonzero entry), then those in the
    ball and those whose entries have gcd 1.
    """
    R = spec.radius
    box = np.indices((2 * R + 1,) * n, dtype=np.int64).reshape(n, -1).T - R
    half = box[len(box) // 2 + 1 :]
    if spec.shape == "l1":
        half = half[np.abs(half).sum(axis=1) <= R]
    return half[np.gcd.reduce(np.abs(half), axis=1) == 1]


def interval_half_width(n: int, R: int) -> int:
    """Half-width ((2R+1)^n - 1) / 2 of theta's image interval; always exact."""
    return ((2 * R + 1) ** n - 1) // 2


def verify_bijection(n: int, R: int) -> bool:
    """Whether theta(n, R) maps [-R, R]^n one-to-one onto its interval, point by point."""
    h = theta(n, R)
    half = interval_half_width(n, R)
    seen = set()
    for v in box_points(n, R):
        img = h(v)
        if abs(img) > half or img in seen:
            return False
        seen.add(img)
    return len(seen) == 2 * half + 1


def running_powers(u: Word, bound: int) -> dict[int, Word]:
    """u^k for |k| <= bound, each one product from the last: u^k = u^(k-1) * u."""
    powers = {0: u.alphabet.identity()}
    u_inv = u.inverse()
    for k in range(1, bound + 1):
        powers[k] = powers[k - 1] * u
        powers[-k] = powers[1 - k] * u_inv
    return powers


def brute_strip_search(
    g: Word, u_left: Optional[Word], u_right: Optional[Word], *, canonical: bool = False
) -> tuple[int, Word, int]:
    """Exhaustive double-coset minimization: g = uL^s * h * uR^t.

    Measures h = (uL^-s * g) * uR^-t for every (s, t) in the box that
    ``freewords._strip_search`` scans and keeps the least key
    (len(h), |s|, |t|, s, t), or with `canonical` the least key
    (len(h), h, |s|, |t|, s, t).  Both factors are reduced words, so h is
    their letters less the ones that cancel at the junction.
    """
    ulen = max(len(u_left) if u_left else 1, len(u_right) if u_right else 1)
    bound = 2 * len(g) + 2 * ulen + 4
    s_range = range(-bound, bound + 1) if u_left is not None else range(0, 1)
    t_range = range(-bound, bound + 1) if u_right is not None else range(0, 1)
    left = running_powers(u_left, bound) if u_left is not None else None
    right = running_powers(u_right, bound) if u_right is not None else None
    rights = [(t, right[-t].letters if right is not None else ()) for t in t_range]
    best_key = None
    for s in s_range:
        a = (left[-s] * g if left is not None else g).letters
        for t, b in rights:
            j = 0
            while j < len(a) and j < len(b) and a[-1 - j] == -b[j]:
                j += 1
            key = (len(a) + len(b) - 2 * j, abs(s), abs(t), s, t)
            if canonical:
                key = key[:1] + (a[: len(a) - j] + b[j:],) + key[1:]
            if best_key is None or key < best_key:
                best_key = key
    s, t = best_key[-2:]
    h = left[-s] * g if left is not None else g
    h = h * right[-t] if right is not None else h
    assert len(h) == best_key[0]
    return s, h, t


def product_power(u: Word, e: int) -> Word:
    """u^e by repeated squaring, every step a ``Word`` product."""
    result, base = u.alphabet.identity(), u if e >= 0 else u.inverse()
    e = abs(e)
    while e:
        if e & 1:
            result = result * base
        base, e = base * base, e >> 1
    return result


def ball_image_count(group: EocGroup, R: int, p: int) -> int:
    """Distinct free-base images of the raw token words of length <= R.

    t_{j,i} goes to u_j^(p * (2R+1)^k), where k counts the t-generators
    before it over all stages (so stage j's scale is (2R+1) to the number
    of t-generators of the stages before j).  That is a homomorphism onto
    the free base, so equal elements have equal images, and the count is
    at most the number of elements of length <= R.  A ball of that size
    therefore holds each of its elements once.  Every image is a running
    product along its word; no normal-form code and no fingerprint runs.

    The exponents grow as (2R+1)^k, so an image is kept as a reduced word
    written in runs (``_run_letter``): a base letter, or a slice of the
    reduced word of a u-power.  Runs of one period are compared a period
    at a time (``_common_prefix``), so a u-power costs the same at any
    exponent.  Images are bucketed by length and a polynomial hash, and
    each bucket is split into classes by exact comparison.
    """
    before = list(itertools.accumulate([0] + [stage.rank for stage in group.stages]))
    tokens = group.generator_tokens()
    runs = []
    for tok in tokens:
        if isinstance(tok, int):
            runs.append(((), (tok,), 1, 0, 1))
        else:
            _, j, i = tok
            z, v = _conjugate_split(group.stages[j].u.letters)
            e = p * (2 * R + 1) ** (before[j] + abs(i) - 1)
            runs.append((z, v, e if i > 0 else -e, 0, 2 * len(z) + e * len(v)))
    inverse = [tokens.index(-tok if isinstance(tok, int) else tok[:2] + (-tok[2],)) for tok in tokens]
    classes: dict[tuple, list] = {}

    def add(image):
        length = sum(r[4] - r[3] for r in image)
        bucket = classes.setdefault((length, _word_hash(image)), [])
        if all(_common_prefix(image, other) < length for other in bucket):
            bucket.append(image)

    add(())
    # raw words as (index of the last token, image), no token next to its inverse
    frontier = [(-1, ())]
    for _ in range(R):
        frontier = [
            (g, _run_product(w, runs[g]))
            for last, w in frontier
            for g in range(len(tokens))
            if last < 0 or g != inverse[last]
        ]
        for _, w in frontier:
            add(w)
    return sum(map(len, classes.values()))


def _conjugate_split(u: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(z, v) with u = z v z^-1 as written and v cyclically reduced, for a reduced u."""
    k = 0
    while u[k] == -u[-1 - k]:
        k += 1
    return u[:k], u[k : len(u) - k]


# A run (z, v, m, lo, hi) is letters lo..hi-1 of the reduced word
# z v^m z^-1 (v^m as |m| copies of v^(sign m)); a base letter x is ((), (x,), 1, 0, 1).


def _run_letter(run: tuple, i: int) -> int:
    """Letter i of the whole word z v^m z^-1 of a run."""
    z, v, m, _, _ = run
    n = abs(m) * len(v)
    if i < len(z):
        return z[i]
    if i < len(z) + n:
        k = (i - len(z)) % len(v)
        return v[k] if m > 0 else -v[-1 - k]
    return -z[2 * len(z) + n - 1 - i]


def _periodic_left(run: tuple, i: int) -> int:
    """How many letters from i on lie both in the run's slice and in its v-power."""
    z, v, m, _, hi = run
    start, stop = len(z), len(z) + abs(m) * len(v)
    return max(0, min(stop, hi) - i) if i >= start else 0


def _common_prefix(a: Sequence[tuple], b: Sequence[tuple]) -> int:
    """The length of the longest common prefix of two words written in runs.

    Letter by letter, except that where both words are inside v-powers
    of one period length and agree on one whole period, they agree up to
    the nearer end of the two powers, which is skipped a period at a time.
    """
    i = j = done = 0
    x = a[0][3] if a else 0
    y = b[0][3] if b else 0
    while i < len(a) and j < len(b):
        ra, rb = a[i], b[j]
        period = len(ra[1])
        step = 1
        if period == len(rb[1]):
            left = min(_periodic_left(ra, x), _periodic_left(rb, y))
            if left >= period and all(
                _run_letter(ra, x + t) == _run_letter(rb, y + t) for t in range(period)
            ):
                step = left - left % period
        if step == 1 and _run_letter(ra, x) != _run_letter(rb, y):
            return done
        done, x, y = done + step, x + step, y + step
        if x == ra[4]:
            i += 1
            x = a[i][3] if i < len(a) else 0
        if y == rb[4]:
            j += 1
            y = b[j][3] if j < len(b) else 0
    return done


def _run_product(a: tuple, run: tuple) -> tuple:
    """The reduced word of a times one whole run, both reduced, in runs."""
    # the inverse of a, read forwards: the runs of z v^-m z^-1 mirrored
    inverse = []
    for z, v, m, lo, hi in reversed(a):
        n = 2 * len(z) + abs(m) * len(v)
        inverse.append((z, v, -m, n - hi, n - lo))
    cancel = _common_prefix(inverse, [run])
    out = list(a)
    left = cancel
    while left:
        z, v, m, lo, hi = out.pop()
        if hi - lo > left:
            out.append((z, v, m, lo, hi - left))
            break
        left -= hi - lo
    z, v, m, lo, hi = run
    if lo + cancel < hi:
        out.append((z, v, m, lo + cancel, hi))
    return tuple(out)


_HASH_MOD = (1 << 61) - 1
_HASH_BASE = 1_000_003


def _word_hash(word: Sequence[tuple]) -> int:
    """A polynomial hash of a word's letters, a period at a time inside its v-powers.

    c^k for a period c hashes to hash(c) (B^(pk) - 1) / (B^p - 1), so a
    u-power costs the same at any exponent.
    """
    M, B = _HASH_MOD, _HASH_BASE
    h = 0
    for run in word:
        i, hi, period = run[3], run[4], len(run[1])
        while i < hi:
            left = _periodic_left(run, i)
            if left >= period:
                k = left // period
                c = 0
                for t in range(period):
                    c = (c * B + _run_letter(run, i + t)) % M
                bp = pow(B, period, M)
                bk = pow(bp, k, M)
                h = (h * bk + c * (bk - 1) * pow(bp - 1, -1, M)) % M
                i += k * period
            else:
                h = (h * B + _run_letter(run, i)) % M
                i += 1
    return h


def brute_power_membership(u: Word, g: Word) -> Optional[int]:
    """Return k with u**k == g, or None, by building u**k and u**-k for k = 1, 2, ...

    Both are running products: u**(k+1) = u**k * u.  The scan stops once
    u**k is longer than g, as |u**k| = |u**-k| grows strictly with k for a
    nontrivial u.
    """
    if u.is_identity():
        raise ValueError("u must be nontrivial")
    if g.is_identity():
        return 0
    u_inv = u.inverse()
    p, q, k = u, u_inv, 1
    while len(p) <= len(g):
        if p == g:
            return k
        if q == g:
            return -k
        p, q, k = p * u, q * u_inv, k + 1
    return None


def product_padded(spec: PaddedWordSpec, r: Sequence[int], powers: dict[int, Word]) -> Word:
    """(flanks) u^r0 g_1 u^r1 ... g_k u^rk as a chain of ``Word`` products.

    ``powers`` is a ``running_powers(spec.u, bound)`` table with bound >= max |r_i|.
    """
    w = spec.flank_left if spec.flank_left is not None else spec.u.alphabet.identity()
    for i, g in enumerate(spec.gs):
        w = w * powers[r[i]] * g
    w = w * powers[r[spec.k]]
    if spec.flank_right is not None:
        w = w * spec.flank_right
    return w


def brute_certify(
    spec: PaddedWordSpec,
    N: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    sweep_cap: int = DEFAULT_SWEEP_CAP,
) -> list[tuple[int, ...]]:
    """``bigpowers.certify`` with every padded word built by ``product_padded``.

    Draws the same seeded samples, then tests each tuple of the box
    |r_i| <= min(N + 2, sweep_cap) on its own, in ``itertools.product``
    order, against the (at most four) forbidden words.  One table of
    running powers, |r| <= |N| + 10, serves the samples and the sweep.
    Returns the box's trivializing tuples.
    """
    trivializing = []
    rng = random.Random(seed)
    k = spec.k
    one = spec.u.alphabet.identity()
    lefts, rights = (spec.flank_left or one, one), (spec.flank_right or one, one)
    forbidden = tuple({(x * y).letters for x in lefts for y in rights})
    powers = running_powers(spec.u, abs(N) + 10)
    for _ in range(samples):
        r = tuple(
            rng.choice((1, -1)) * rng.randint(N + 1, N + 10) for _ in range(k + 1)
        )
        if product_padded(spec, r, powers).letters in forbidden:
            raise CertificationError(N, r)
    bound = min(N + 2, sweep_cap)
    for r in itertools.product(range(-bound, bound + 1), repeat=k + 1):
        if product_padded(spec, r, powers).letters in forbidden:
            trivializing.append(r)
            if min(abs(x) for x in r) > N:
                raise CertificationError(N, r)
    return trivializing


def per_syllable_apply_theta(spec: ThetaSpec, w: EocElement) -> EocElement:
    """The retraction of `spec` applied one syllable at a time.

    Every top-stage syllable u^e t^v, stored as (2 * stage + 1, 2e, 2v...),
    becomes the base syllable of u^(e + p * theta(v)), built by
    ``product_power`` and doubled; the subtower then normalizes the whole
    syllable sequence from scratch.
    """
    top = len(spec.group.stages) - 1
    u = spec.group.stages[top].u
    th = theta(spec.group.stages[top].rank, spec.R)
    syllables = []
    for syl in w.syllables:
        if syl[0] % 2 == 1 and syl[0] // 2 == top:
            e = syl[1] // 2 + spec.p * th(tuple(x // 2 for x in syl[2:]))
            syllables.append(tuple(2 * x for x in product_power(u, e).letters))
        else:
            syllables.append(syl)
    return spec.target._from_syllables(tuple(syllables))


def chain_of_retractions(group: EocGroup, R: int, p: int, w: EocElement) -> Word:
    """The composite retraction at uniform p onto the free base, one stage at a time.

    The path that ``retraction.apply_chain``'s substitution replaced:
    ``per_syllable_apply_theta`` retracts the top stage and normalizes in
    the subtower, down to the free base, whose one syllable is the word.
    """
    while w.group.stages:
        w = per_syllable_apply_theta(ThetaSpec(w.group, R, p), w)
    return Word(group.alphabet, [x // 2 for x in (w.syllables or ((),))[0]])


def brute_raw_word_agreement(
    group: EocGroup, r: int, p: int
) -> tuple[int, Optional[tuple]]:
    """(agreements, first disagreeing raw word or None) over raw words of length <= r.

    The per-word scan that the CLI's tree walk (``cli._raw_word_agreement``)
    replaced.  Raw token words come layer by layer, each layer in its
    parents' order and then in generator order, with no token next to its
    inverse.  Each word is normalized from scratch (``EocGroup.element``),
    and its normal form is retracted to the free base (``apply_chain``);
    the verdicts agree when the form is empty iff the image is.  Nothing is
    carried from a word to its extensions, and the image is read off the
    normal form rather than multiplied from generator images.
    """
    tokens = group.generator_tokens()
    inverse = [
        tokens.index(-tok if isinstance(tok, int) else tok[:2] + (-tok[2],)) for tok in tokens
    ]
    # (index of the last token, or -1 for the empty word; the word)
    layer = [(-1, ())]
    words = [()]
    for _ in range(r):
        layer = [
            (g, w + (tokens[g],))
            for last, w in layer
            for g in range(len(tokens))
            if last < 0 or g != inverse[last]
        ]
        words.extend(w for _, w in layer)
    for agreements, toks in enumerate(words):
        w = group.element(toks)
        if w.is_trivial() != apply_chain(group, r, p, w).is_identity():
            return agreements, toks
    return len(words), None


def stack_normal_form(
    group: EocGroup,
    raw: tuple[tuple[int, ...], ...],
    head: tuple[tuple[int, ...], ...] = (),
) -> EocElement:
    """Normal form of the canonical syllables `head` followed by `raw`, by a stack.

    The normalizer that ``EocGroup._times`` replaced.  Each raw syllable
    is pushed onto a stack and merged with the top until stable
    (alternation, pinches, u-power absorption); a strip pass then makes
    every base syllable from the last untouched one on canonical against
    its abelian neighbours.  It shares ``EocGroup._strip`` with the
    library on purpose: the strip has its own oracle,
    ``brute_strip_search``.  u-powers come from ``product_power`` and
    memberships from ``brute_power_membership``.
    """

    def u_power(stage, e):
        return tuple(2 * x for x in product_power(group.stages[stage].u, e).letters)

    def power_of(stage, syl):
        return brute_power_membership(
            group.stages[stage].u, Word(group.alphabet, [x // 2 for x in syl])
        )

    def push(stack, syl):
        """Push one syllable; returns the length of the prefix it left untouched."""
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
                        syl = u_power(syl[0] >> 1, syl[1] >> 1)
                    continue
                # top is abelian, syl is base: absorb syl into top if it is a u-power
                k = power_of(top[0] >> 1, syl)
                if k is None:
                    break
                stack.pop()
                syl = (top[0], top[1] + 2 * k, *top[2:])
            elif syl[0] & 1:
                # top is base, syl is abelian: absorb top into syl if it is a u-power
                k = power_of(syl[0] >> 1, top)
                if k is None:
                    break
                stack.pop()
                syl = (syl[0], syl[1] + 2 * k, *syl[2:])
            else:
                stack.pop()
                syl = join_letters(top, syl)
        stack.append(syl)
        return len(stack) - 1

    out = list(head)
    kept = len(out)
    for syl in raw:
        kept = min(kept, push(out, syl))
    # strip base syllables against their abelian neighbours, from the last
    # syllable whose right neighbour may have changed
    n = len(out)
    i = kept - 1 if kept else 0
    while i < n:
        syl = out[i]
        left = out[i - 1] if i else None
        right = out[i + 1] if i + 1 < n else None
        if syl[0] & 1 or (left is None and right is None):
            i += 1
            continue
        s, h, t = group._strip(
            syl, left[0] >> 1 if left else None, right[0] >> 1 if right else None
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
            # only possible between abelian neighbours of distinct stages
            del out[i]
            n -= 1
    return EocElement(group, tuple(out))


def brute_first_collision(
    ball: Sequence[EocElement], image: Callable[[EocElement], object]
) -> Optional[tuple[EocElement, EocElement]]:
    """The first pair of ball elements, in ball order, with equal images.

    Computes ``image`` of every element on its own, e.g. ``apply_theta``
    of each whole element, where the library walks the ball's BFS tree.
    """
    seen: dict = {}
    for w in ball:
        img = image(w)
        if img in seen:
            return seen[img], w
        seen[img] = w
    return None


def word_length(group: EocGroup, w: EocElement, cap: int = DEFAULT_BALL_CAP) -> int:
    """The least number of generators whose product is `w`: the first ball layer holding it.

    Grows the ball a layer at a time (``EocGroup.ball``) and compares `w`
    with every element of the new layer, whose ball indices run from the
    last layer's end to its own (``EocGroup._ends``).  Raises
    ``BudgetExceeded`` if the ball passes `cap` first.
    """
    radius = 0
    while w not in group.ball(radius, cap)[([0] + group._ends)[radius] :]:
        radius += 1
    return radius


@lru_cache(maxsize=None)
def ball_size_f2(radius: int) -> int:
    """Closed form 2*3^R - 1 for the rank-2 ball."""
    return 2 * 3**radius - 1


def raag_ball_size(clique_poly: Sequence[int], radius: int) -> int:
    """Ball size of a right-angled Artin group, in closed form from its clique polynomial.

    For C(t) = sum_k c_k t^k, with c_k the number of k-cliques of the
    commutation graph (c_0 = 1), the sphere growth series is
    1 / C(-2x / (1 + x)) (Chiswell, *The growth series of a graph
    product*, 1994).  With d = deg C that is (1 + x)^d / P(x) for the
    integer polynomial P(x) = sum_k c_k (-2x)^k (1 + x)^(d - k), and P(0) = 1,
    so the series is expanded by exact long division; the ball size is
    the sum of its first R + 1 coefficients.
    """
    d = len(clique_poly) - 1
    P = [0] * (d + 1)
    for k, c in enumerate(clique_poly):
        for i in range(d - k + 1):
            P[k + i] += c * (-2) ** k * math.comb(d - k, i)
    assert P[0] == 1
    spheres: list[int] = []
    for n in range(radius + 1):
        numerator = math.comb(d, n) if n <= d else 0
        spheres.append(numerator - sum(P[j] * spheres[n - j] for j in range(1, min(n, d) + 1)))
    return sum(spheres)


@lru_cache(maxsize=None)
def brute_shell_vectors(n: int, m: int) -> np.ndarray:
    """Vectors with max-norm exactly m, lex order, first nonzero entry positive.

    Builds shell m alone: each of its vectors once, from the first
    coordinate i with |c_i| = m, every coordinate before i in (-m, m) and
    every one after it in [-m, m].  Then keeps the rows that qualify and
    sorts them.  Cached, since the oracle scans revisit the same shells.
    """
    inner, full = range(-m + 1, m), range(-m, m + 1)
    rows = []
    for i in range(n):
        for c in sorted({m, -m}):
            for head in itertools.product(inner, repeat=i):
                for tail in itertools.product(full, repeat=n - 1 - i):
                    v = head + (c,) + tail
                    if next((x for x in v if x != 0), 0) >= 0:
                        rows.append(v)
    return np.array(sorted(rows), dtype=np.int64).reshape(-1, n)


def _integer_root_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) for nonnegative x, exact."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 0
    r = int(round(x ** (1.0 / k)))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def siegel_bound(n: int, B: int) -> int:
    """floor((nB)^(1/(n-1))): the one-equation small-kernel height bound."""
    if n < 2:
        raise ValueError("need at least two unknowns")
    return _integer_root_floor(n * B, n - 1)


def siegel_small_kernel(a: Sequence[int], B: int) -> IntVector:
    """A nonzero integer kernel vector of the row a within the Siegel height bound.

    The Siegel lemma behind ``zdiscrim.lower_bound_value``, checked by
    search: the first kernel vector in increasing brute-force shells, in
    lex order, with positive leading entry.  Existence within the bound is
    the lemma, so the search never fails on valid input.
    """
    a = tuple(a)
    n = len(a)
    if n < 2:
        raise ValueError("need at least two unknowns")
    if not any(a):
        raise ValueError("a must be nonzero")
    if any(abs(c) > B for c in a):
        raise ValueError(f"entries of a must be bounded by B={B}")
    bound = siegel_bound(n, B)
    a_arr = np.array(a, dtype=np.int64)
    for m in range(1, bound + 1):
        shell = brute_shell_vectors(n, m)
        idx = np.flatnonzero(shell @ a_arr == 0)
        if idx.size:
            return tuple(int(c) for c in shell[idx[0]])
    raise AscentExhausted(
        f"Siegel bound violated: no kernel vector of height <= {bound}", bound, None, a
    )


def brute_minimal_complexity(
    n: int, spec: BallSpec, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[int, ZnHom]:
    """Unblocked scan: every candidate of each brute-force shell against the ball at once.

    The first shell with a discriminating candidate gives (m, the
    lex-first such candidate); ``budget`` caps the candidates of the
    whole shells scanned, as in ``zdiscrim.minimal_complexity``.
    """
    if n == 1:
        return 1, ZnHom((1,))
    half = half_ball_points(n, spec)
    if len(half) == 0:
        # every vector discriminates the empty punctured ball
        return 1, ZnHom((0,) * (n - 1) + (1,))
    searched = 0
    for m in range(1, theta(n, spec.radius).complexity + 1):
        shell = brute_shell_vectors(n, m)
        searched += len(shell)
        if searched > budget:
            raise BudgetExceeded(f"coefficient search exceeded budget {budget}")
        ok = np.flatnonzero(~np.any(half @ shell.T == 0, axis=0))
        if ok.size:
            return m, ZnHom(tuple(int(c) for c in shell[ok[0]]))
    raise AssertionError("theta ceiling violated: no discriminating hom found")
