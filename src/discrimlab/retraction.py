"""Retractions of an extension of centralizers onto its subtower.

For G' = G *_<u> (<u> x Z^n) the map fixing G and sending
t_i -> u^(p * (2R+1)^(i-1)) is a retraction G' -> G.  On the abelian part
it acts as u^e t^v -> u^(e + p * theta(v)) with theta the base-(2R+1)
map, so for p large enough it is injective on any fixed finite ball of
G'.  This module computes the least such p exactly, the resulting
generator-image complexity, and complexity curves in R.

One ascent, p = 1 .. ``_p_ceiling`` on one ball, serves both the top
stage (``minimal_discriminating_p``) and the uniform p of the composite
down a tower (``compose_chain``).  Its generator images come from one
walk down the top k stages (k = 1, or all) through ``_theta_spec``.

Injectivity on the ball is checked along the ball's BFS tree, which the
group keeps: every ball element was first built as parent * generator,
and a retraction is a homomorphism, so the image of an element is the
image of its parent times the image of its generator.  Only the
generators go through ``apply_theta``; every other element costs one
product.  The walk visits the elements in ball order, so the first
colliding pair is the one a scan of the elements' own images finds.

When the target is the free base (a single-stage retraction, and every
composite down a tower) the images are kept as bare base syllables:
letter tuples with every letter doubled, as ``eocgroup`` stores them.
Equal tuples still mean equal words, and the doubling keeps CPython's
hash(-1) == hash(-2) from giving every pair of images that differ only
by G1 against G2 the same hash.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .eocgroup import DEFAULT_BALL_CAP, EocElement, EocGroup, _syllable_word
from .errors import AscentExhausted
from .freewords import Word, join_letters
from .zdiscrim import lower_bound_value, scaled_theta


@dataclass(frozen=True)
class ThetaSpec:
    """Retraction of the top stage of `group`, with box radius R and stretch p."""

    group: EocGroup
    R: int
    p: int
    # the u-exponents p * (2R+1)^(i-1) of the images of the top-stage t_i
    coefficients: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.group.stages:
            raise ValueError("group has no stage to retract")
        if self.R < 0:
            raise ValueError("R must be nonnegative")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        rank = self.group.stages[-1].rank
        coefficients = scaled_theta(rank, self.R, self.p).coefficients
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def stage(self) -> int:
        return len(self.group.stages) - 1

    @property
    def target(self) -> EocGroup:
        return subtower(self.group)


def subtower(group: EocGroup) -> EocGroup:
    """The group with the top extension stage removed.

    Built on first use and kept by `group`, so every retraction of `group`
    (any word, any R and p) lands in the same subtower object and reuses
    its strip, membership and ball caches.
    """
    if not group.stages:
        raise ValueError("group has no stage to remove")
    if group._subtower is None:
        group._subtower = EocGroup(
            group.alphabet, [(s.u, s.rank) for s in group.stages[:-1]]
        )
    return group._subtower


def _theta_spec(group: EocGroup, R: int, p: int) -> ThetaSpec:
    """The top-stage retraction of `group` at (R, p), built once and kept by `group`."""
    spec = group._theta_specs.get((R, p))
    if spec is None:
        spec = group._theta_specs[(R, p)] = ThetaSpec(group, R, p)
    return spec


def apply_theta(spec: ThetaSpec, w: EocElement) -> EocElement:
    """Push an element through the retraction, landing in the subtower group.

    Each run of base material (base syllables and the u-power images of
    top-stage syllables) is reduced into one base syllable first, so the
    subtower normalizes one syllable per run; lower-stage syllables pass
    through unchanged.
    """
    if w.group is not spec.group:
        raise ValueError("element does not belong to the retracted group")
    stage = spec.stage
    top = 2 * stage + 1
    coefficients = spec.coefficients
    u_power = spec.group._u_power
    syllables = []
    run: tuple[int, ...] = ()
    for syl in w.syllables:
        tag = syl[0]
        if tag == top:
            # doubled exponent: 2e + p * theta(2v) = 2 (e + p * theta(v))
            e = syl[1] + sum(map(operator.mul, coefficients, syl[2:]))
            if e:
                run = join_letters(run, u_power(stage, e >> 1))
        elif tag & 1:
            if run:
                syllables.append(run)
                run = ()
            syllables.append(syl)
        else:
            run = join_letters(run, syl)
    if run:
        syllables.append(run)
    return spec.target._from_syllables(tuple(syllables))


def hom_complexity(spec: ThetaSpec) -> int:
    """Max image word length over the generators of the retracted group.

    Base and lower-stage generators are fixed (length 1); the top-stage
    t_i map to u^k with k = p * (2R+1)^(i-1), longest at i = n.  With
    u = z v z^-1 split by :meth:`Word.cyclic_decomposition`, u^k is
    z v^k z^-1 reduced as written, so |u^k| = 2|z| + k|v|.
    """
    z, v = spec.group.stages[spec.stage].u.cyclic_decomposition()
    return max(1, 2 * len(z) + spec.coefficients[-1] * len(v))


def _first_collision(
    ball: Sequence[EocElement],
    generator_images: Sequence,
    identity,
    mul: Callable,
) -> Optional[tuple[EocElement, EocElement]]:
    """The first pair of ball elements, in ball order, with equal images.

    The images are those of the homomorphism sending the i-th generator
    (``generator_tokens()`` order) to ``generator_images[i]``, with
    product ``mul``; each is built from its BFS parent's image.
    """
    group = ball[0].group
    parents, gens = group._tree_parents, group._tree_gens
    images = [identity]
    seen = {identity: 0}
    for k in range(1, len(ball)):
        img = mul(images[parents[k]], generator_images[gens[k]])
        first = seen.setdefault(img, k)
        if first != k:
            return ball[first], ball[k]
        images.append(img)
    return None


def _base_letters(w: EocElement) -> tuple[int, ...]:
    """The base syllable (doubled letters) of an element of a group with no stages."""
    if not w.syllables:
        return ()
    if len(w.syllables) > 1 or w.syllables[0][0] & 1:
        raise RuntimeError(f"retraction chain left the free base group: {w!r}")
    return w.syllables[0]


def _base_word(w: EocElement) -> Word:
    """The base word of an element of a group with no stages."""
    return _syllable_word(w.group.alphabet, _base_letters(w))


def _retract(group: EocGroup, R: int, p: int, w: EocElement, k: int) -> EocElement:
    """The image of `w` under the top `k` stage retractions at uniform p.

    k = 1 is the top-stage retraction, k = len(group.stages) the composite.
    """
    for _ in range(k):
        w = apply_theta(_theta_spec(group, R, p), w)
        group = w.group
    return w


def _collision(
    group: EocGroup, R: int, p: int, ball: Sequence[EocElement], k: int
) -> Optional[tuple[EocElement, EocElement]]:
    """The first pair of ball elements, in ball order, that the top `k` retractions at p merge."""
    images = [_retract(group, R, p, g, k) for g in group.generators()]
    target = images[0].group
    if target.stages:
        return _first_collision(ball, images, target.identity(), operator.mul)
    return _first_collision(ball, [_base_letters(w) for w in images], (), join_letters)


def _images_injective(
    group: EocGroup, R: int, p: int, ball: Sequence[EocElement]
) -> Optional[tuple[EocElement, EocElement]]:
    """The top-stage collision at p; called once per p tried, which perfbench/tracer.py counts."""
    return _collision(group, R, p, ball, 1)


def _p_ceiling(group: EocGroup, R: int) -> int:
    """A computable cap for the injectivity ascent.

    Cancellation at a block junction inside a ball-of-radius-R product
    consumes fewer than |u| + R letters per side, so once p outgrows the
    junction budget distinct theta-values stay separated; the constant is
    deliberately slack.
    """
    ulen = max(len(s.u) for s in group.stages)
    return 4 * R + 4 * ulen + 10


def _least_injective_p(group: EocGroup, R: int, cap: int, collision: Callable) -> int:
    """Least p up to ``_p_ceiling`` with ``collision(p, ball)`` None on the radius-R ball.

    Past the ceiling, raises ``AscentExhausted`` with the collision found
    at the ceiling as its witness.
    """
    if not group.stages:
        raise ValueError("group has no stages to retract")
    ball = group.ball(R, cap=cap)
    ceiling = _p_ceiling(group, R)
    for p in range(1, ceiling + 1):
        witness = collision(p, ball)
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
    return _least_injective_p(group, R, cap, lambda p, ball: _images_injective(group, R, p, ball))


@dataclass(frozen=True)
class ComplexityRecord:
    """One point of a complexity curve: minimal p at radius R and derived data.

    ``complexity`` is the exact max generator-image length.
    """

    R: int
    p_min: int
    complexity: int
    lower_bound: Fraction
    ball_size: int
    wall_ms: float


def complexity_record(
    group: EocGroup, R: int, cap: int = DEFAULT_BALL_CAP
) -> ComplexityRecord:
    start = time.perf_counter()
    p = minimal_discriminating_p(group, R, cap=cap)
    n = group.stages[-1].rank
    # the free abelian subgroup <u, t_1..t_n> has rank n+1, which drives
    # the polynomial lower bound for discriminating the ball
    lb = lower_bound_value(n + 1, R)
    ball_size = len(group.ball(R, cap=cap))
    wall_ms = (time.perf_counter() - start) * 1000.0
    return ComplexityRecord(
        R=R,
        p_min=p,
        complexity=hom_complexity(_theta_spec(group, R, p)),
        lower_bound=lb,
        ball_size=ball_size,
        wall_ms=wall_ms,
    )


@dataclass
class CurveResult:
    """A complexity curve plus an unasserted empirical growth exponent."""

    records: list[ComplexityRecord]
    loglog_slope: Optional[float] = None


def complexity_curve(
    group: EocGroup, radii: Sequence[int], cap: int = DEFAULT_BALL_CAP
) -> CurveResult:
    records = [complexity_record(group, R, cap=cap) for R in radii]
    slope = None
    positive = [(r.R, r.complexity) for r in records if r.R >= 1]
    if len(positive) >= 2:
        xs = np.log([float(R) for R, _ in positive])
        ys = np.log([float(c) for _, c in positive])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return CurveResult(records=records, loglog_slope=slope)


@dataclass
class ChainResult:
    """A uniform-p composite retraction down a multi-stage tower."""

    p: int
    R: int
    complexity: int
    stage_complexities: list[int]
    # product of stage_complexities, which no composite image length exceeds
    bound: int
    # per generator: (token text, composite image length)
    submultiplicative: list[tuple[str, int]] = field(default_factory=list)


def apply_chain(group: EocGroup, R: int, p: int, w: EocElement) -> Word:
    """Compose the top-stage retractions all the way down to the free base."""
    return _base_word(_retract(group, R, p, w, len(group.stages)))


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
    p = _least_injective_p(group, R, cap, lambda p, ball: _collision(group, R, p, ball, k))
    stage_complexities = []
    g = group
    while g.stages:
        spec = _theta_spec(g, R, p)
        stage_complexities.append(hom_complexity(spec))
        g = spec.target
    sub = []
    composite_max = 1
    for w in group.generators():
        img = apply_chain(group, R, p, w)
        sub.append((w.tokens() or "<id>", len(img)))
        composite_max = max(composite_max, len(img))
    return ChainResult(
        p=p,
        R=R,
        complexity=composite_max,
        stage_complexities=stage_complexities,
        bound=math.prod(stage_complexities),
        submultiplicative=sub,
    )
