"""Retractions of an extension of centralizers onto its subtower.

For G' = G *_<u> (<u> x Z^n) the map fixing G and sending
t_i -> u^(p * (2R+1)^(i-1)) is a retraction G' -> G.  On the abelian part
it acts as u^e t^v -> u^(e + p * theta(v)) with theta the base-(2R+1)
map, so for p large enough it is injective on any fixed finite ball of
G'.  This module computes the least such p exactly, the resulting
generator-image complexity, and complexity curves in R.

Every stage's u lies in the free base, which every retraction fixes, so
the composite of the top k retractions at one p is a substitution of
u-powers for abelian syllables, ``_image``.  ``apply_theta`` (k = 1),
``apply_chain`` (all k) and the walk below take their images from it.

One ascent on one ball serves both the top stage
(``minimal_discriminating_p``) and the uniform p of the composite down a
tower (``compose_chain``).  It starts at a proven floor: below it, a
closed-form pair of ball elements collides (split u^p = b a; then
t a^-1 and b have one image), so no ball walk is needed to rule those p
out.  When every stage's u is one base letter (a RAAG spec) the floor is
p_min by the normal form theorem for free products, so the ascent
returns it and walks nothing; it only counts the ball, for the cap
(``EocGroup.ball_size``), and grows no tree.  Otherwise it tries p =
floor, floor + 1, .. up to ``_p_ceiling``, for the top k stages (k = 1,
or all).  ``complexity_record`` adds a certificate that p_min is least:
a pair that the retraction at p_min - 1 merges, the split pair below the
floor, else the walk's collision there; it takes the ball's size from
``ball_size``.  So a RAAG ``curve`` or ``compose_chain`` builds no ball;
``crosscheck`` grows one, to confirm the floor by walking it.

Injectivity on the ball is checked along the ball's BFS tree, which the
group keeps: every ball element was first built as parent * generator,
and a retraction is a homomorphism.  The walk composes the retraction
with the group's own fingerprint homomorphism phi into SL(2, F_P),
P = 2^31 - 1 (``eocgroup._phi``: seeded random matrices for the base
letters, and powers of phi(u_j) for the t's of stage j, with which they
commute), restricted to the target.  Only the generators' matrices are
built, each from one syllable of ``_image``, and
``EocGroup._tree_keys``, the group's one tree evaluator, evaluates the
composite over the tree: an element's matrix is its parent's times its
generator's, and only two layers are held at once.  Each element leaves
a 64-bit key of its matrix.  Equal images have equal matrices and so
equal keys, so only elements whose keys clash (``eocgroup._clashing``,
as the ball settles its layers) can collide.  Those are scanned in ball
order through the retraction itself (``apply_theta`` or
``apply_chain``), so no number this module returns depends on phi, and
the pair reported is the one a ball-order scan of all the images finds
first.  The keys cover the whole ball, so a failing p costs a whole key
pass; the floor already rules out the small p, whose collisions lie
earliest in the ball.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .eocgroup import (
    DEFAULT_BALL_CAP,
    EocElement,
    EocGroup,
    EocStage,
    _clashing,
    _mat_pow,
    _phi,
    _syllable_word,
)
from .errors import AscentExhausted
from .freewords import Word, join_letters
from .zdiscrim import lower_bound_value


@dataclass(frozen=True)
class ThetaSpec:
    """Retraction of the top stage of `group`, with box radius R and stretch p."""

    group: EocGroup
    R: int
    p: int

    def __post_init__(self):
        if not self.group.stages:
            raise ValueError("group has no stage to retract")
        if self.R < 0:
            raise ValueError("R must be nonnegative")
        if self.p < 1:
            raise ValueError("p must be >= 1")

    @property
    def target(self) -> EocGroup:
        return subtower(self.group)


def subtower(group: EocGroup) -> EocGroup:
    """The group with the top extension stage removed.

    Built on first use and kept by `group`, so every retraction of `group`
    (any word, any R and p) lands in the same subtower object and reuses
    its strip cache and its grown ball.
    """
    if not group.stages:
        raise ValueError("group has no stage to remove")
    if group._subtower is None:
        group._subtower = EocGroup(
            group.alphabet, [(s.u, s.rank) for s in group.stages[:-1]]
        )
    return group._subtower


def _exponent(group: EocGroup, R: int, p: int, k: int, syl: tuple[int, ...]) -> Optional[int]:
    """e + p * theta(v) for an abelian syllable u_j^e t^v of one of the top `k` stages, else None.

    theta(v) is the sum of v_i (2R+1)^(i-1).
    """
    if not syl[0] & 1 or syl[0] >> 1 < len(group.stages) - k:
        return None
    # theta of the doubled entries by Horner's rule: 2e + p * theta(2v)
    # = 2 (e + p * theta(v))
    base = 2 * R + 1
    x = 0
    for v in reversed(syl[2:]):
        x = x * base + v
    return (syl[1] + p * x) >> 1


def _image(group: EocGroup, R: int, p: int, k: int, syl: tuple[int, ...]) -> tuple[int, ...]:
    """The image of the canonical syllable `syl` under the top `k` retractions at uniform p.

    An abelian syllable u_j^e t^v of one of the top k stages becomes the
    base syllable of u_j^(e + p * theta(v)) (``_exponent``); every other
    syllable is fixed.
    """
    e = _exponent(group, R, p, k, syl)
    return syl if e is None else group._u_power(syl[0] >> 1, e)


def apply_theta(spec: ThetaSpec, w: EocElement) -> EocElement:
    """Push an element through the retraction, landing in the subtower group.

    The subtower folds in the syllables' images (``_image``) one at a
    time: u-powers for the top-stage syllables, the others fixed.  Each
    image is a syllable that ``_times`` takes, as it joins a base
    syllable onto a base tail.
    """
    if w.group is not spec.group:
        raise ValueError("element does not belong to the retracted group")
    group, R, p = spec.group, spec.R, spec.p
    return spec.target._from_syllables(tuple(_image(group, R, p, 1, syl) for syl in w.syllables))


def _stage_complexity(stage: EocStage, R: int, p: int) -> int:
    """Max image word length over the generators under one stage's retraction at (R, p).

    Base and lower-stage generators are fixed (length 1); the stage's t_i
    map to u^k with k = p * (2R+1)^(i-1), longest at i = n.  With
    u = z v z^-1 split by :meth:`Word.cyclic_decomposition`, u^k is
    z v^k z^-1 reduced as written, so |u^k| = 2|z| + k|v|.
    """
    z, v = stage.u.cyclic_decomposition()
    return max(1, 2 * len(z) + p * (2 * R + 1) ** (stage.rank - 1) * len(v))


def hom_complexity(spec: ThetaSpec) -> int:
    """Max image word length over the generators of the retracted group."""
    return _stage_complexity(spec.group.stages[-1], spec.R, spec.p)


def _first_collision(
    ball: Sequence[EocElement],
    generator_matrices: Sequence[tuple[int, ...]],
    image: Callable[[EocElement], object],
) -> Optional[tuple[EocElement, EocElement]]:
    """The first pair of ball elements, in ball order, with equal images under `image`.

    `image` is a homomorphism of the ball's group, and
    ``generator_matrices[i]`` is phi of the image of the i-th generator
    (``generator_tokens()`` order), (a, b, c, d) in SL(2, F_P), for a
    homomorphism phi of the target (``eocgroup._phi``), so psi, phi after
    `image`, is a homomorphism too.  ``EocGroup._tree_keys`` evaluates psi
    over the ball's BFS tree, one 64-bit key per element, and only the
    elements whose keys clash (``eocgroup._clashing``) go through `image`,
    in ball order.

    Equal images have equal matrices and so equal keys, so both elements
    of every collision are among those.  The scan is therefore
    ``tests/oracles.py::brute_first_collision(ball, image)`` restricted to
    the clashing elements, and returns its pair: the least index k whose
    image occurred before, and the first index j with that image.  No
    returned pair depends on phi.
    """
    keys = ball[0].group._tree_keys(len(ball), generator_matrices)[0]
    seen = {}
    for k in np.flatnonzero(_clashing(keys)).tolist():
        j = seen.setdefault(image(ball[k]), k)
        if j != k:
            return ball[j], ball[k]
    return None


def _images_injective(
    group: EocGroup, R: int, p: int, ball: Sequence[EocElement], k: int
) -> Optional[tuple[EocElement, EocElement]]:
    """The first pair of ball elements, in ball order, that the top `k` retractions at p merge.

    `k` is 1 or every stage.  Each generator's image is one syllable of
    the target (``_image``), and its matrix is ``_phi`` of that syllable,
    except that the image u_j^m of a retracted t takes U_j^m, U_j =
    phi(u_j), straight from its exponent rather than folding the letters
    of u_j^m.  The walk settles clashing keys with the retraction itself:
    ``apply_chain`` when k is every stage, else ``apply_theta``.  The name
    is the span ``perfbench/tracer.py`` times and counts per p tried.
    """
    matrices = []
    for syl in group._generator_syllables:
        e = _exponent(group, R, p, k, syl)
        if e is None:
            matrices.append(_phi(group, syl))
        else:
            matrices.append(_mat_pow(_phi(group, group._u_letters[syl[0] >> 1]), e))
    if k == len(group.stages):
        image = partial(apply_chain, group, R, p)
    else:
        image = partial(apply_theta, ThetaSpec(group, R, p))
    return _first_collision(ball, matrices, image)


def _p_ceiling(group: EocGroup, R: int) -> int:
    """A computable cap for the injectivity ascent.

    Cancellation at a block junction inside a ball-of-radius-R product
    consumes fewer than |u| + R letters per side, so once p outgrows the
    junction budget distinct theta-values stay separated; the constant is
    deliberately slack.
    """
    ulen = max(len(s.u) for s in group.stages)
    return 4 * R + 4 * ulen + 10


def _floor(group: EocGroup, R: int, k: int) -> int:
    """1 + the largest p that a split pair (``_split_pair``) of one of the top `k` stages rules out.

    The pair of stage s exists at p exactly when |u_s^p| = 2|z| + p|v| <=
    2R - 1, with u_s = z v z^-1 as in ``_stage_complexity``; the floor is 1
    when no stage has one.
    """
    best = 0
    for stage in group.stages[len(group.stages) - k :]:
        z, v = stage.u.cyclic_decomposition()
        best = max(best, (2 * R - 1 - 2 * len(z)) // len(v))
    return 1 + best


def _split_pair(group: EocGroup, s: int, R: int, p: int) -> tuple[EocElement, EocElement]:
    """(t_{s,1} a^-1, b) for the split u_s^p = b a with |b| = min(R, |u_s^p|).

    Both lie in the radius-R ball when p >= 1 and |u_s^p| <= 2R - 1, and
    the retractions of ``_least_injective_p`` at p send both to b.
    """
    letters = group._u_power(s, p)
    b, a = letters[:R], letters[R:]
    t = group._token_syllable(("t", s, 1))
    return group._from_syllables((t, tuple(-x for x in reversed(a)))), group._from_syllables((b,))


def _least_injective_p(group: EocGroup, R: int, cap: int, k: int) -> int:
    """Least p up to ``_p_ceiling`` whose top `k` retractions are injective on the radius-R ball.

    `cap` is enforced on every spec before any p is tried.  On a RAAG
    spec the answer is the floor (proof below): the ball is only counted
    (``EocGroup.ball_size``), so no tree is grown and nothing is walked.
    Otherwise the ball is built first, and past the ceiling the ascent
    raises ``AscentExhausted`` with the walk's collision at the ceiling
    as its witness.  The floor is at most max(1, 2R), below the ceiling,
    so the ascent tries at least one p.

    The ascent starts at a floor below which every p fails.  Take a stage
    s among the top k, with u_s = z v z^-1 (v cyclically reduced) and
    t = t_{s,1}.  The retractions fix the base and send t to u_s^p (its
    coefficient is p * (2R+1)^0), and u_s^p = z v^p z^-1 is reduced as
    written, of length 2|z| + p|v|.  Split it at any letter as b a.  Then
    t a^-1 and b have the same image, b, and they are distinct, since
    their t-exponent sums are 1 and 0.  Both lie in the radius-R ball
    when 1 + |a| <= R and |b| <= R, and such a split exists exactly when
    2|z| + p|v| <= 2R - 1 (``_split_pair``).  So every such p fails, and
    the first p tried is ``_floor``, one more than the largest of them
    over the top k stages.

    On a RAAG spec (``EocGroup._raag``: stage j's u is one base letter
    g_j or its inverse, and validation keeps the g_j distinct) the floor
    is p_min, for k = 1 and for k = every stage (Lyndon and Schupp,
    *Combinatorial Group Theory*, ch. IV; the invariant is the one of
    Bou-Rabee, *Quantifying residual finiteness*):

    1. Since (A * B) *_A C = C * B when A <= C, the group is the free
       product Z^(n_1+1) * .. * Z^(n_s+1) * F: stage j's factor is
       generated by g_j and its t's, and F is free on the letters no
       stage uses.  By the normal form theorem, each element is a unique
       alternating product of nontrivial pieces from distinct
       consecutive factors, and its word length is the sum of its
       pieces' lengths; a piece d of Z^(n+1) has length |d|_1.
    2. A retracted stage's factor maps into <g_j> by d -> g_j^(c_p . d),
       with c_p = (1, p, p(2R+1), .., p(2R+1)^(n-1)) (``_exponent``).
       No remaining stage uses g_j, so <g_j> is a free factor of the
       target, and the other pieces are fixed.  So an alternating
       product maps to an alternating product, which is nontrivial,
       whenever each retracted piece d has c_p . d != 0.
    3. Distinct x, y in the ball give x^-1 y != 1 of length <= 2R, whose
       pieces have |d|_1 <= 2R.  So the retractions are injective on the
       ball when c_p kills no nonzero d with |d|_1 <= 2R.  Conversely
       such a d splits as x - y with |x|_1, |y|_1 <= R, a collision in
       the ball.
    4. d = (p, -1, 0, ..) has norm p + 1, so p >= 2R is needed.  At
       p >= 2R, c_p . d = 0 forces p to divide d_0, and |d_0| <= 2R <= p.
       If |d_0| = p = 2R, the rest of d is zero and c_p . d = d_0 != 0.
       So d_0 = 0, and the rest of d are balanced base-(2R+1) digits of
       0, all zero.
    5. So p_min = 2R for R >= 1, and 1 at R = 0 (the ball is {1}), which
       is ``_floor``: 1 + max(0, 2R - 1), as |z| = 0 and |v| = 1.
    """
    if not group.stages:
        raise ValueError("group has no stages to retract")
    if group._raag:
        group.ball_size(R, cap)
        return _floor(group, R, k)
    ball = group.ball(R, cap=cap)
    ceiling = _p_ceiling(group, R)
    for p in range(_floor(group, R, k), ceiling + 1):
        witness = _images_injective(group, R, p, ball, k)
        if witness is None:
            return p
    raise AscentExhausted(
        "no injective p up to the ceiling: ascent analysis is wrong", ceiling, R, witness
    )


def minimal_discriminating_p(
    group: EocGroup, R: int, cap: int = DEFAULT_BALL_CAP
) -> int:
    """Least p making the top-stage retraction injective on the radius-R ball.

    Injectivity on the ball is exactly discrimination of the ball after
    translating: a collision pair (w, w') gives the nontrivial w * w'^-1
    with trivial image, and conversely.
    """
    return _least_injective_p(group, R, cap, 1)


def _p_min_certificate(
    group: EocGroup, R: int, p_min: int, cap: int
) -> Optional[tuple[EocElement, EocElement]]:
    """A pair of distinct ball elements that the top-stage retraction at p_min - 1 merges.

    The split pair when p_min - 1 lies below the floor, else the walk's
    collision at p_min - 1 over the radius-R ball; None when p_min = 1.
    That the floor is injective is proven for RAAG specs
    (``_least_injective_p``), where p_min - 1 lies below it, so only a
    walk builds the ball.
    """
    if p_min == 1:
        return None
    if p_min - 1 < _floor(group, R, 1):
        return _split_pair(group, len(group.stages) - 1, R, p_min - 1)
    return _images_injective(group, R, p_min - 1, group.ball(R, cap=cap), 1)


@dataclass(frozen=True)
class ComplexityRecord:
    """One point of a complexity curve: minimal p at radius R and derived data.

    ``complexity`` is the exact max generator-image length.
    ``certificate`` is a pair of distinct radius-R ball elements that the
    retraction at p_min - 1 merges, which shows p_min is least; None when
    p_min = 1.
    """

    R: int
    p_min: int
    complexity: int
    lower_bound: Fraction
    ball_size: int
    wall_ms: float
    certificate: Optional[tuple[EocElement, EocElement]] = None


def complexity_record(
    group: EocGroup, R: int, cap: int = DEFAULT_BALL_CAP
) -> ComplexityRecord:
    """The curve point at radius R, with its p_min certificate, timed in ``wall_ms``.

    ``ball_size`` is ``EocGroup.ball_size``, so on a RAAG spec, where the
    ascent returns the floor and the certificate is the split pair, no
    ball is built; elsewhere the ascent and the certificate's walk build it.
    """
    start = time.perf_counter()
    p = minimal_discriminating_p(group, R, cap=cap)
    n = group.stages[-1].rank
    # the free abelian subgroup <u, t_1..t_n> has rank n+1, which drives
    # the polynomial lower bound for discriminating the ball
    lb = lower_bound_value(n + 1, R)
    ball_size = group.ball_size(R, cap)
    certificate = _p_min_certificate(group, R, p, cap)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return ComplexityRecord(
        R=R,
        p_min=p,
        complexity=hom_complexity(ThetaSpec(group, R, p)),
        lower_bound=lb,
        ball_size=ball_size,
        wall_ms=wall_ms,
        certificate=certificate,
    )


def complexity_curve(
    group: EocGroup, radii: Sequence[int], cap: int = DEFAULT_BALL_CAP
) -> list[ComplexityRecord]:
    return [complexity_record(group, R, cap=cap) for R in radii]


@dataclass
class ChainResult:
    """A uniform-p composite retraction down a multi-stage tower."""

    p: int
    complexity: int
    stage_complexities: list[int]
    # product of stage_complexities, which no composite image length exceeds
    bound: int
    # per generator: (token text, composite image length)
    submultiplicative: list[tuple[str, int]] = field(default_factory=list)


def apply_chain(group: EocGroup, R: int, p: int, w: EocElement) -> Word:
    """Compose the top-stage retractions all the way down to the free base.

    The composite substitutes each abelian syllable's u-power (``_image``)
    and freely reduces: no subtower or intermediate normal form is built.
    """
    if w.group is not group:
        raise ValueError("element does not belong to the retracted group")
    if group.stages and (R < 0 or p < 1):
        raise ValueError(f"need R >= 0 and p >= 1, got R={R}, p={p}")
    k = len(group.stages)
    letters: tuple[int, ...] = ()
    for syl in w.syllables:
        letters = join_letters(letters, _image(group, R, p, k, syl))
    return _syllable_word(group.alphabet, letters)


# the name perfbench/tracer.py wraps to time the chain layer
_apply_chain = apply_chain


def compose_chain(
    group: EocGroup, R: int, cap: int = DEFAULT_BALL_CAP
) -> ChainResult:
    """Least uniform p whose composite retraction is injective on the radius-R ball.

    Also records, per generator, the composite image length against the
    product of the per-stage complexity bounds: composition can only
    multiply complexities, never exceed their product.
    """
    k = len(group.stages)
    p = _least_injective_p(group, R, cap, k)
    # top stage first, as the composite applies them
    stage_complexities = [_stage_complexity(s, R, p) for s in reversed(group.stages)]
    sub = []
    composite_max = 1
    for w in group.generators():
        img = apply_chain(group, R, p, w)
        sub.append((w.tokens() or "<id>", len(img)))
        composite_max = max(composite_max, len(img))
    return ChainResult(
        p=p,
        complexity=composite_max,
        stage_complexities=stage_complexities,
        bound=math.prod(stage_complexities),
        submultiplicative=sub,
    )
