"""Discriminating homomorphisms Z^n -> Z and their exact complexity.

The base-(2R+1) map theta(n, R) sends (t_1, ..., t_n) to
sum (2R+1)^(i-1) t_i and is a bijection from the box [-R, R]^n onto the
centered interval of the same cardinality (the t_i are the digits of the
balanced base-(2R+1) expansion), so it discriminates the punctured box.  Its complexity (2R+1)^(n-1) is an upper bound for the
minimal discriminating complexity; a one-equation Siegel bound gives the
matching polynomial lower bound (R-n)^(n-1) / n^n.

All arithmetic is exact (python ints and Fractions); numpy is used only
to speed up exhaustive kernel searches over small integer boxes.  Those
searches run over coefficient vectors in max-norm shells.  Each shell is
built directly in numpy in lex order, so the cube [-m, m]^n is never
walked, and no shell is kept once its search step is done.

The complexity search uses the symmetry of the ball: the l1 ball and the
box are invariant under signed permutations of coordinates, so c
discriminates exactly when every signed permutation of c does.  A shell
is tested only at its canonical rows 0 <= c_1 <= ... <= c_n = m, one per
orbit, against the primitive points of one antipodal half of the
punctured ball, since c.x != 0 exactly when c.(x/gcd(x)) != 0.  The
result is still the lex-first discriminating vector of the first shell
that has one: the least lex-first orbit member of its discriminating
canonical rows.  The budget still counts whole shells.  Candidates are
tested in blocks of SCAN_BLOCK_CELLS // |half ball| (at least one), so
the image matrix never exceeds max(SCAN_BLOCK_CELLS, |half ball|) int64
cells, whatever the shell size.

The punctured ball of radius R - 1 lies inside the one of radius R, so
the minimum never falls as R grows, and a sweep over R starts each
search at the previous radius's minimum (``start``).  The l1 half ball
is grown a coordinate at a time, so the box [-R, R]^n is built only for
the box shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .errors import AscentExhausted, BudgetExceeded

DEFAULT_ENUM_BUDGET = 2_000_000

# cells of one (half ball) x (candidates) image block: 8 MB of int64
SCAN_BLOCK_CELLS = 1 << 20

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class ZnHom:
    """A homomorphism Z^n -> Z stored as its coefficient row."""

    coefficients: IntVector

    @property
    def n(self) -> int:
        return len(self.coefficients)

    @property
    def complexity(self) -> int:
        """Max generator-image length: max |c_i|."""
        return max(abs(c) for c in self.coefficients)

    def __call__(self, v: Sequence[int]) -> int:
        if len(v) != self.n:
            raise ValueError(f"dimension mismatch: hom is {self.n}-dim, vector is {len(v)}-dim")
        return sum(c * t for c, t in zip(self.coefficients, v))


@dataclass(frozen=True)
class BallSpec:
    """Shape of the finite set being discriminated.

    'l1' is the word-metric ball of Z^n with the standard basis; 'box' is
    [-R, R]^n.  The ball is contained in the box, so injectivity on the
    box implies discrimination of the ball.
    """

    shape: Literal["l1", "box"]
    radius: int

    def __post_init__(self):
        if self.shape not in ("l1", "box"):
            raise ValueError(f"unknown ball shape {self.shape!r}")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


def theta(n: int, R: int) -> ZnHom:
    """The base-(2R+1) discriminating map; theta(1, R) is the identity."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = 2 * R + 1
    return ZnHom(tuple(base**i for i in range(n)))


def scaled_theta(n: int, R: int, p: int) -> ZnHom:
    return ZnHom(tuple(p * c for c in theta(n, R).coefficients))


def _cube(k: int, m: int) -> np.ndarray:
    """All of [-m, m]^k as rows, in lex order."""
    return np.indices((2 * m + 1,) * k, dtype=np.int64).reshape(k, -1).T - m


def _build_shell(n: int, m: int) -> np.ndarray:
    # lex order puts the rows with lead 0 (the (n-1)-shell) first, then
    # leads a = 1..m; below lead a < m the tail must reach max-norm m,
    # below lead m any row of the cube [-m, m]^(n-1) will do.  The
    # (n-1)-shell is rebuilt, not cached: a search at n never asks for it.
    if n == 1:
        return np.array([[m]], dtype=np.int64)
    cube = _cube(n - 1, m)
    sphere = cube[np.abs(cube).max(axis=1) == m]
    tails = [_build_shell(n - 1, m)] + [sphere] * (m - 1) + [cube]
    sizes = [len(t) for t in tails]
    shell = np.empty((sum(sizes), n), dtype=np.int64)
    shell[:, 0] = np.repeat(np.arange(m + 1), sizes)
    np.concatenate(tails, out=shell[:, 1:])
    return shell


def _shell_size(n: int, m: int) -> int:
    """Rows of the shell (n, m), m >= 1: ((2m+1)^n - (2m-1)^n) / 2."""
    return ((2 * m + 1) ** n - (2 * m - 1) ** n) // 2


# the name perfbench/tracer.py wraps to count shell candidates; nothing
# caches the shells any more, so each call builds its shell afresh
def _shell_vectors_cached(n: int, m: int) -> np.ndarray:
    """Vectors with max-norm exactly m >= 1, lex order, first nonzero entry positive, read-only."""
    shell = _build_shell(n, m)
    shell.flags.writeable = False
    return shell


def _canonical_rows(n: int, m: int) -> np.ndarray:
    """Shell m's rows 0 <= c_1 <= ... <= c_n = m, one per signed-permutation orbit, in lex order.

    n >= 2.  A shell row's first nonzero entry is positive, so a
    non-decreasing row has no negative entry.
    """
    shell = _shell_vectors_cached(n, m)
    keep = shell[:, 0] <= shell[:, 1]
    for i in range(1, n - 1):
        keep &= shell[:, i] <= shell[:, i + 1]
    return shell[keep]


def _l1_ball(n: int, R: int) -> np.ndarray:
    """All points of Z^n with l1 norm <= R, as rows in lex order.

    Grown a coordinate at a time: each row x is replaced, in place, by its
    extensions (x, a) with |a| <= R - |x|_1, so lex order is kept and the
    box [-R, R]^n is never built.
    """
    ball = np.zeros((1, 0), dtype=np.int64)
    slack = np.full(1, R, dtype=np.int64)  # R - |x|_1 of each row
    for _ in range(n):
        counts = 2 * slack + 1
        ball = np.repeat(ball, counts, axis=0)
        offsets = np.repeat(np.cumsum(counts) - counts + slack, counts)
        last = np.arange(len(ball)) - offsets
        ball = np.column_stack([ball, last])
        slack = np.repeat(slack, counts) - np.abs(last)
    return ball


def _half_ball(n: int, spec: BallSpec) -> np.ndarray:
    """The punctured ball's primitive points with positive first nonzero entry, as rows.

    The ball is symmetric under x -> -x, which reverses lex order, so in
    the lex-ordered ball the rows after the center are exactly the points
    with positive first nonzero entry, and the rows before it are their
    negatives.  A point is primitive when the gcd of its entries is 1.
    """
    ball = _l1_ball(n, spec.radius) if spec.shape == "l1" else _cube(n, spec.radius)
    half = ball[len(ball) // 2 + 1 :]
    return half[np.gcd.reduce(np.abs(half), axis=1) == 1]


def _lex_first_member(c: IntVector) -> IntVector:
    """The lex-first signed permutation of canonical c with positive first nonzero entry.

    c is a canonical row, 0 <= c_1 <= ... <= c_n with c_n > 0.  The least
    member puts the zeros first, then the smallest nonzero entry (it must
    be positive), then the others negated, largest first.
    """
    z = c.count(0)
    return c[: z + 1] + tuple(-x for x in reversed(c[z + 1 :]))


def minimal_complexity(
    n: int, spec: BallSpec, budget: int = DEFAULT_ENUM_BUDGET, *, start: int = 1
) -> tuple[int, ZnHom]:
    """Least complexity of a hom whose kernel misses the punctured ball, by exhaustive search.

    Searches coefficient vectors in increasing max-norm shells up to the
    theta(n, R) ceiling and returns the first shell m holding a
    discriminating vector, with the lex-first such vector whose first
    nonzero entry is positive (the kernel is symmetric under negation).

    The ball is invariant under signed permutations of coordinates, so
    discrimination is a property of a whole orbit, and each orbit meets
    the shell in exactly one canonical row 0 <= c_1 <= ... <= c_n = m.
    Only the canonical rows of ``_shell_vectors_cached(n, m)`` are tested,
    in blocks of SCAN_BLOCK_CELLS // |half ball| candidates (at least
    one), so the image matrix never exceeds max(SCAN_BLOCK_CELLS,
    |half ball|) cells.  They are tested against the primitive points of
    one antipodal half of the punctured ball: c kills x exactly when it
    kills x/gcd(x), which lies in the same half ball.  At the first shell
    with a discriminating canonical row, every canonical row of that shell
    is tested, each discriminating one is mapped to the lex-first member
    of its orbit (``_lex_first_member``), and the least of those is the
    lex-first discriminating vector of the whole shell.

    ``start`` skips the shells below it, which is exact whenever ``start``
    is at most the minimum.  The minimum m(R - 1) of radius R - 1 always
    is: the punctured ball of radius R - 1 lies inside the one of radius
    R, for either shape, so every vector that discriminates radius R also
    discriminates radius R - 1, and m(R) >= m(R - 1).  Shell m(R) is still
    tested in full, so the lex-first witness does not change.  A sweep
    over R passes each radius the previous minimum.

    ``budget`` caps the candidates of the whole shells searched, counted
    as full shells (not canonical rows): a shell that would pass it raises
    BudgetExceeded before it is built.  The skipped shells 1..start-1 are
    charged as if searched, ((2 start - 1)^n - 1) / 2 candidates, so a
    search from any ``start`` up to the minimum raises BudgetExceeded
    exactly when the search from 1 does.  No shell is kept between
    searches.  The theta complexity is a valid
    search ceiling; if the search passes it anyway, AscentExhausted
    carries theta's coefficients and the lex-first half-ball point theta
    sends to 0, which is primitive, since x/gcd(x) precedes x.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if start < 1:
        raise ValueError("start must be >= 1")
    if n == 1:
        return 1, ZnHom((1,))
    half = _half_ball(n, spec)
    if len(half) == 0:
        return 1, ZnHom((1,) + (0,) * (n - 1))
    block = max(1, SCAN_BLOCK_CELLS // len(half))
    th = theta(n, spec.radius)
    ceiling = th.complexity
    searched = ((2 * start - 1) ** n - 1) // 2
    for m in range(start, ceiling + 1):
        searched += _shell_size(n, m)
        if searched > budget:
            raise BudgetExceeded(f"coefficient search exceeded budget {budget}")
        canonical = _canonical_rows(n, m)
        found = []
        for first in range(0, len(canonical), block):
            candidates = canonical[first : first + block]
            found += candidates[np.all(half @ candidates.T != 0, axis=0)].tolist()
        if found:
            return m, ZnHom(min(_lex_first_member(tuple(c)) for c in found))
    # theta (or its negative) lies in a scanned shell, so it kills a point
    killed = half[half @ np.array(th.coefficients, dtype=np.int64) == 0]
    raise AscentExhausted(
        "theta ceiling violated: no discriminating hom found",
        ceiling,
        spec.radius,
        (th.coefficients, tuple(int(c) for c in killed[0])),
    )


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

    Deterministic: increasing max-norm shells, lex order, positive
    leading entry.  Existence within the bound is the lemma; the search
    therefore never fails on valid input.
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
        shell = _shell_vectors_cached(n, m)
        dots = shell @ a_arr
        idx = np.flatnonzero(dots == 0)
        if idx.size:
            return tuple(int(c) for c in shell[idx[0]])
    raise AscentExhausted(
        f"Siegel bound violated: no kernel vector of height <= {bound}", bound, None, a
    )


def lower_bound_value(n: int, R: int) -> Fraction:
    """(R-n)^(n-1) / n^n, the Siegel lower bound; vacuous when <= 0."""
    if n < 2:
        raise ValueError("the Siegel argument needs n >= 2")
    return Fraction((R - n) ** (n - 1), n**n)
