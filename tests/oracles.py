"""Brute-force reference implementations that the library's closed forms replace.

They are meant to be slow and obviously right, and share no code path
with what they check beyond word products and powers, and the Z^n ball
points and theta map.
"""

import itertools
import math
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from discrimlab.eocgroup import AbelianSyllable, EocElement, EocGroup
from discrimlab.errors import BudgetExceeded
from discrimlab.freewords import Word
from discrimlab.retraction import ThetaSpec
from discrimlab.zdiscrim import DEFAULT_ENUM_BUDGET, BallSpec, ZnHom, ball_points, theta


def brute_strip_search(
    g: Word, u_left: Optional[Word], u_right: Optional[Word]
) -> tuple[int, Word, int]:
    """Exhaustive double-coset minimization: g = uL^s * h * uR^t.

    Measures h = (uL^-s * g) * uR^-t for every (s, t) in the box that
    ``freewords._strip_search`` scans and keeps the least key
    (len(h), |s|, |t|, s, t).  Both factors are reduced words, so |h| is
    their total length less twice the letters that cancel at the junction.
    """
    ulen = max(len(u_left) if u_left else 1, len(u_right) if u_right else 1)
    bound = 2 * len(g) + 2 * ulen + 4
    s_range = range(-bound, bound + 1) if u_left is not None else range(0, 1)
    t_range = range(-bound, bound + 1) if u_right is not None else range(0, 1)
    rights = [(t, (u_right ** (-t)).letters if u_right is not None else ()) for t in t_range]
    best_key = None
    for s in s_range:
        a = ((u_left ** (-s)) * g if u_left is not None else g).letters
        for t, b in rights:
            j = 0
            while j < len(a) and j < len(b) and a[-1 - j] == -b[j]:
                j += 1
            key = (len(a) + len(b) - 2 * j, abs(s), abs(t), s, t)
            if best_key is None or key < best_key:
                best_key = key
    s, t = best_key[3], best_key[4]
    h = (u_left ** (-s)) * g if u_left is not None else g
    h = h * (u_right ** (-t)) if u_right is not None else h
    assert len(h) == best_key[0]
    return s, h, t


def brute_power_membership(u: Word, g: Word) -> Optional[int]:
    """Return k with u**k == g, or None, by building u**k and u**-k for k = 1, 2, ...

    The scan stops once u**k is longer than |g| + 2|u|, and in any case
    after ceil(|g| / |v|) + |u| steps, with v the cyclically reduced core of u.
    """
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


def per_syllable_apply_theta(spec: ThetaSpec, w: EocElement, target: EocGroup) -> EocElement:
    """The retraction of `spec` applied one syllable at a time.

    Every top-stage syllable u^e t^v becomes the base syllable
    u^(e + p * theta(v)), built by ``Word.__pow__``; the subtower then
    normalizes the whole syllable sequence from scratch.
    """
    top = len(spec.group.stages) - 1
    u = spec.group.stages[top].u
    th = theta(spec.group.stages[top].rank, spec.R)
    syllables = []
    for syl in w.syllables:
        if isinstance(syl, Word):
            syllables.append(syl)
        elif syl.stage == top:
            syllables.append(u ** (syl.u_exp + spec.p * th(syl.t_exps)))
        else:
            syllables.append(AbelianSyllable(syl.stage, syl.u_exp, syl.t_exps))
    return target._from_syllables(tuple(syllables))


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

    Walks the whole cube [-m, m]^n and keeps the rows that qualify; the
    walk is cached, since the oracle scans revisit the same shells.
    """
    rows = []
    for v in itertools.product(range(-m, m + 1), repeat=n):
        if max(abs(c) for c in v) != m:
            continue
        lead = next((c for c in v if c != 0), 0)
        if lead < 0:
            continue
        rows.append(v)
    return np.array(rows, dtype=np.int64).reshape(-1, n)


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
    pts = [v for v in ball_points(n, spec) if any(v)]
    if not pts:
        return 1, ZnHom((1,) + (0,) * (n - 1))
    half = np.array([v for v in pts if next(c for c in v if c != 0) > 0], dtype=np.int64)
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
