"""Padded words u^r0 g_1 u^r1 ... g_k u^rk and certified nontriviality thresholds.

The threshold computation is an exact free-group replacement for the
non-constructive relative-hyperbolicity constants: each g_i is stripped
to its double-coset triple (s_i, h_i, t_i), g_i = u^s_i h_i u^t_i, the
s/t exponents are folded into per-block offsets, and the remaining
question is how much of each u-power block of u^e_0 h_1 u^e_1 ... h_k u^e_k
the junctions with the h_i can consume.

Certification rests on a mismatch argument.  Reduce that word at a corner
exponent assignment (all blocks at magnitude m, one of the finitely many
sign patterns) on one stack whose letters are tagged with their block
(``_corner_holds``).  If every u-power block retains at least one
letter, then every cancellation chain stopped at a genuine letter
mismatch.  Growing any block exponent inserts letters in the block's
interior without changing either periodic end, so the same mismatches
persist and the word stays nontrivial for every assignment dominating
the corner.  (The h_i may be fully consumed; the blocks may not.)
Runaway block-against-block annihilation through a consumed h_i is
impossible: it would force h_i into <u>, which the strip precondition
excludes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import AscentExhausted, CertificationError
from .freewords import Word, coset_strip, join_letters, power_membership

DEFAULT_SWEEP_CAP = 6
DEFAULT_SAMPLES = 500


@dataclass(frozen=True)
class PaddedWordSpec:
    """u, the tuple g_1..g_k (each outside <u>), and optional flank words."""

    u: Word
    gs: tuple[Word, ...]
    flank_left: Optional[Word] = None
    flank_right: Optional[Word] = None

    def __post_init__(self):
        if self.u.is_identity():
            raise ValueError("u must be nontrivial")
        for i, g in enumerate(self.gs):
            if power_membership(self.u, g) is not None:
                raise ValueError(f"g_{i + 1} lies in <u>")
        for name, flank in (("flank_left", self.flank_left), ("flank_right", self.flank_right)):
            if flank is not None and power_membership(self.u, flank) is not None:
                raise ValueError(f"{name} lies in <u>")

    @property
    def k(self) -> int:
        return len(self.gs)


def build_padded(
    spec: PaddedWordSpec,
    r: Sequence[int],
    powers: Optional[Mapping[int, tuple[int, ...]]] = None,
) -> Word:
    """Free reduction of (flanks) u^r0 g_1 u^r1 ... g_k u^rk.

    ``powers`` maps each exponent of r to the letters of u^e; a caller that
    builds many words over one spec passes one table, so each power is built
    once.  Without it the powers of r are built here.
    """
    if len(r) != spec.k + 1:
        raise ValueError(f"need {spec.k + 1} exponents, got {len(r)}")
    if powers is None:
        powers = {e: (spec.u**e).letters for e in r}
    w = spec.flank_left.letters if spec.flank_left is not None else ()
    for e, tail in zip(r, _tails(spec)):
        w = join_letters(join_letters(w, powers[e]), tail)
    return Word._raw(spec.u.alphabet, w)


def _tails(spec: PaddedWordSpec) -> list[tuple[int, ...]]:
    """Letters of the factor after each u^r_j: g_(j+1), and the right flank after u^r_k."""
    fr = spec.flank_right.letters if spec.flank_right is not None else ()
    return [g.letters for g in spec.gs] + [fr]


def _corner_holds(
    u: Word, middles: Sequence[Word], exps: Sequence[int], min_length: int
) -> bool:
    """Whether u^e_0 h_1 u^e_1 ... h_k u^e_k, freely reduced, keeps a letter of
    every u-block and has at least ``min_length`` letters."""
    # (letter, index j of its block u^e_j; -1 for a letter of a middle)
    tagged: list[tuple[int, int]] = []
    for j, e in enumerate(exps):
        tagged += [(x, j) for x in (u**e).letters]
        if j < len(middles):
            tagged += [(x, -1) for x in middles[j].letters]
    stack: list[tuple[int, int]] = []
    for x, tag in tagged:
        if stack and stack[-1][0] == -x:
            stack.pop()
        else:
            stack.append((x, tag))
    kept = {tag for _, tag in stack}
    return len(stack) >= min_length and all(j in kept for j in range(len(exps)))


def _certified_block_magnitude(u: Word, middles: Sequence[Word], min_length: int) -> int:
    """Smallest m such that for every sign pattern, the corner assignment
    (all block exponents of magnitude m) satisfies :func:`_corner_holds`."""
    nblocks = len(middles) + 1
    ceiling = 4 * (sum(len(h) for h in middles) + len(u) + min_length + 4)
    for m in range(1, ceiling + 1):
        for signs in itertools.product((1, -1), repeat=nblocks):
            exps = tuple(s * m for s in signs)
            if not _corner_holds(u, middles, exps, min_length):
                break
        else:
            return m
    raise AscentExhausted(
        "certificate search did not stabilize: threshold analysis is wrong",
        ceiling,
        None,
        exps,
    )


def threshold(spec: PaddedWordSpec) -> int:
    """Certified N: every r with all |r_i| > N gives nontrivial padded words.

    Each g_j is stripped to u^s_j h_j u^t_j (``coset_strip``; a proper
    power u is rejected there), s_j folds into offset j and t_j into
    offset j+1, and N = m + max|offset| - 1 for the certified block
    magnitude m of u^e_0 h_1 ... h_k u^e_k.  With flanks present the
    reduced core word is additionally forced to be strictly longer than
    |flank_left| + |flank_right|, so all four lemma words are nontrivial.
    With no g (k = 0) the word is u^e_0 alone, and m is the least with
    |u^m| > |flank_left| + |flank_right|.
    """
    flank_len = (len(spec.flank_left) if spec.flank_left else 0) + (
        len(spec.flank_right) if spec.flank_right else 0
    )
    middles = []
    offsets = [0] * (spec.k + 1)
    for j, g in enumerate(spec.gs):
        s, h, t = coset_strip(spec.u, g)
        middles.append(h)
        offsets[j] += s
        offsets[j + 1] += t
    m = _certified_block_magnitude(spec.u, middles, flank_len + 1)
    return max(m + abs(o) - 1 for o in offsets)


def _padded_words(
    spec: PaddedWordSpec,
    values: Sequence[int],
    powers: Mapping[int, tuple[int, ...]],
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(r, letters of the padded word at r) for every r in values^(k+1), in
    ``itertools.product`` order.

    For k >= 1 the words up to g_k are the padded words of the spec with
    g_k for its right flank, built once per prefix r_0 ... r_(k-1) by this
    sweep, and u^rk fr is joined on for each last exponent; at k = 0 each
    word is built by ``build_padded``.
    """
    if not spec.k:
        return [((e,), build_padded(spec, (e,), powers).letters) for e in values]
    head = PaddedWordSpec(spec.u, spec.gs[:-1], spec.flank_left, spec.gs[-1])
    fr = spec.flank_right.letters if spec.flank_right is not None else ()
    return [
        (r + (e,), join_letters(join_letters(w, powers[e]), fr))
        for r, w in _padded_words(head, values, powers)
        for e in values
    ]


def _hits(
    spec: PaddedWordSpec,
    values: Sequence[int],
    powers: Mapping[int, tuple[int, ...]],
    forbidden: Sequence[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """Every r in values^(k+1) whose padded word is one of the distinct ``forbidden``
    words, in ``itertools.product`` order.

    Meets in the middle.  With h = (k + 2) // 2, the padded word is L R
    with L = fl u^r0 g_1 ... u^r(h-1) g_h and R = u^rh g_(h+1) ... u^rk fr
    (for k = 0, L = fl u^r0 fr and R = 1); each half is the padded word
    of a spec of its own, built by ``_padded_words`` from the u-powers of
    ``powers``.  Reduced letter tuples are canonical, so L R equals a
    forbidden word F exactly when L = F R^-1: each right half is indexed
    under F R^-1 for every F, and each left half is then decided by one
    lookup, so no tuple is skipped.
    """
    k, h = spec.k, (spec.k + 2) // 2
    left, rights = spec, [((), ())]
    if k:
        left = PaddedWordSpec(spec.u, spec.gs[: h - 1], spec.flank_left, spec.gs[h - 1])
        right = PaddedWordSpec(spec.u, spec.gs[h:], None, spec.flank_right)
        rights = _padded_words(right, values, powers)
    index: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for r, w in rights:
        w_inv = tuple(-x for x in reversed(w))
        # one F per key for a given right tuple, so each list stays sorted
        for f in forbidden:
            index.setdefault(join_letters(f, w_inv), []).append(r)
    return [r + s for r, w in _padded_words(left, values, powers) for s in index.get(w, ())]


def certify(
    spec: PaddedWordSpec,
    N: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    sweep_cap: int = DEFAULT_SWEEP_CAP,
) -> list[tuple[int, ...]]:
    """Probe the threshold: exhaustive sweeps of a box and of the sampling band.

    The box |r_i| <= min(N + 2, sweep_cap) is swept by ``_hits``, and its
    hits, the box's trivializing tuples, are returned in
    ``itertools.product`` order.  The ``samples`` seeded random r above N
    all lie in the band N + 1 <= |r_i| <= N + 10.  Where sweeping that
    band costs no more than the draws (it grows as 20^((k+2)//2), so for
    small k or many samples), ``_hits`` sweeps it: a band with no hit
    passes every draw, so nothing is drawn; otherwise the draws are
    replayed and the first one the band sweep hit raises, so the witness
    is the one a per-sample check would report.  Elsewhere each draw is
    built by ``build_padded`` and checked on its own.  The box's hits
    above N are checked last, so every returned tuple lies at or below N
    and all ``samples`` draws passed.

    Raises CertificationError on any counterexample above N (a threshold
    bug), and ValueError for a negative ``samples`` or ``sweep_cap``.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if sweep_cap < 0:
        raise ValueError(f"sweep_cap must be >= 0, got {sweep_cap}")
    # build_padded gives W = fl w fr for the core word w, and a lemma word
    # fl^a w fr^b (a, b in {0, 1}) is trivial exactly when W = fl^(1-a) fr^(1-b);
    # an absent flank is 1, so at most four words W are forbidden
    one = spec.u.alphabet.identity()
    lefts, rights = (spec.flank_left or one, one), (spec.flank_right or one, one)
    forbidden = tuple({(x * y).letters for x in lefts for y in rights})
    bound = min(N + 2, sweep_cap)
    box = range(-bound, bound + 1)
    band = sorted({s * e for e in range(N + 1, N + 11) for s in (1, -1)})
    powers = {e: (spec.u**e).letters for e in {*box, *band}}
    trivializing = _hits(spec, box, powers, forbidden)
    k, h = spec.k, (spec.k + 2) // 2
    # the band sweep builds |band|^h left halves and keys |band|^(k+1-h)
    # right halves under each forbidden word; it runs only where that costs
    # no more than the draws, which join samples * (k + 1) powers
    failed = None  # decides a draw, or None when no draw can fail
    n = len(band)
    if n**h + len(forbidden) * n ** (k + 1 - h) <= samples * (k + 1):
        bad = set(_hits(spec, band, powers, forbidden))
        if bad:
            failed = bad.__contains__
    else:
        failed = lambda r: build_padded(spec, r, powers).letters in forbidden
    if failed is not None:
        rng = random.Random(seed)
        for _ in range(samples):
            r = tuple(rng.choice((1, -1)) * rng.randint(N + 1, N + 10) for _ in range(k + 1))
            if failed(r):
                raise CertificationError(N, r)
    for r in trivializing:
        if min(abs(x) for x in r) > N:
            raise CertificationError(N, r)
    return trivializing
