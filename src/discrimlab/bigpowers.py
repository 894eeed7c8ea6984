"""Padded words u^r0 g_1 u^r1 ... g_k u^rk and certified nontriviality thresholds.

The threshold computation is an exact free-group replacement for the
non-constructive relative-hyperbolicity constants: each g_i is stripped
to its double-coset form u^s_i h_i u^t_i, the s/t offsets are folded into
the symbolic exponents, and the remaining question is how much of each
symbolic u-power block the junctions with the h_i can consume.

Certification rests on a mismatch argument.  Reduce the word at a corner
exponent assignment (all blocks at magnitude m, one of the finitely many
sign patterns), tracking which original factor each surviving letter came
from.  If every u-power block retains at least one letter, then every
cancellation chain stopped at a genuine letter mismatch.  Growing any
block exponent inserts letters in the block's interior without changing
either periodic end, so the same mismatches persist and the word stays
nontrivial for every assignment dominating the corner.  (The h_i may be
fully consumed; the blocks may not.)  Runaway block-against-block
annihilation through a consumed h_i is impossible: it would force h_i
into <u>, which the strip precondition excludes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import AscentExhausted, CertificationError
from .freewords import CosetStrip, Word, coset_strip, power_membership

DEFAULT_SWEEP_CAP = 6


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


def build_padded(spec: PaddedWordSpec, r: Sequence[int]) -> Word:
    """Free reduction of (flanks) u^r0 g_1 u^r1 ... g_k u^rk."""
    if len(r) != spec.k + 1:
        raise ValueError(f"need {spec.k + 1} exponents, got {len(r)}")
    w = spec.flank_left if spec.flank_left is not None else spec.u.alphabet.identity()
    for i, g in enumerate(spec.gs):
        w = w * spec.u ** r[i] * g
    w = w * spec.u ** r[spec.k]
    if spec.flank_right is not None:
        w = w * spec.flank_right
    return w


def _core_padded_words(
    spec: PaddedWordSpec, r: Sequence[int], core: Optional[PaddedWordSpec] = None
) -> list[Word]:
    """The four lemma words: w, left*w, w*right, left*w*right (dedup by flank presence)."""
    if core is None:
        core = PaddedWordSpec(spec.u, spec.gs)
    w = build_padded(core, r)
    out = [w]
    if spec.flank_left is not None:
        out.append(spec.flank_left * w)
    if spec.flank_right is not None:
        out.append(w * spec.flank_right)
    if spec.flank_left is not None and spec.flank_right is not None:
        out.append(spec.flank_left * w * spec.flank_right)
    return out


def _annotated_reduce(blocks: list[tuple[int, tuple[int, ...]]]) -> dict[int, int]:
    """Freely reduce a concatenation of (factor_id, letters) pieces.

    Returns surviving letter count per factor id.
    """
    stack: list[tuple[int, int]] = []  # (letter, factor_id)
    for fid, letters in blocks:
        for x in letters:
            if stack and stack[-1][0] == -x:
                stack.pop()
            else:
                stack.append((x, fid))
    surviving: dict[int, int] = {fid: 0 for fid, _ in blocks}
    for _, fid in stack:
        surviving[fid] += 1
    return surviving


@dataclass(frozen=True)
class SymbolicBlockWord:
    """Stripped form of a padded word: h_i pieces and per-block exponent offsets."""

    u: Word
    strips: tuple[CosetStrip, ...]
    offsets: tuple[int, ...]  # offset_j added to r_j after folding s/t exponents

    @classmethod
    def from_spec(cls, spec: PaddedWordSpec) -> "SymbolicBlockWord":
        strips = tuple(coset_strip(spec.u, g) for g in spec.gs)
        k = spec.k
        offsets = []
        for j in range(k + 1):
            o = 0
            if j > 0:
                o += strips[j - 1].right_exp
            if j < k:
                o += strips[j].left_exp
            offsets.append(o)
        return cls(spec.u, strips, tuple(offsets))

    def reduce_exponents(self, exponents: Sequence[int]) -> dict[int, int]:
        """Annotated reduction at given block exponents; factor ids: block j -> 2j, h_i -> 2i+1."""
        pieces: list[tuple[int, tuple[int, ...]]] = []
        for j, e in enumerate(exponents):
            pieces.append((2 * j, (self.u**e).letters))
            if j < len(self.strips):
                pieces.append((2 * j + 1, self.strips[j].middle.letters))
        return _annotated_reduce(pieces)


def _certified_block_magnitude(sym: SymbolicBlockWord, min_length: int = 1) -> int:
    """Smallest m such that for every sign pattern, the corner assignment
    (all block exponents of magnitude m) leaves every block with a surviving
    letter and the word with reduced length >= min_length."""
    nblocks = len(sym.offsets)
    ceiling = 4 * (sum(len(s.middle) for s in sym.strips) + len(sym.u) + min_length + 4)
    for m in range(1, ceiling + 1):
        for signs in itertools.product((1, -1), repeat=nblocks):
            exps = tuple(s * m for s in signs)
            surviving = sym.reduce_exponents(exps)
            if (
                any(surviving[2 * j] < 1 for j in range(nblocks))
                or sum(surviving.values()) < min_length
            ):
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

    With flanks present the reduced core word is additionally forced to be
    strictly longer than |flank_left| + |flank_right|, so all four lemma
    words are nontrivial.
    """
    flank_len = (len(spec.flank_left) if spec.flank_left else 0) + (
        len(spec.flank_right) if spec.flank_right else 0
    )
    if spec.k == 0:
        # w = u^r0: torsion-free, nontrivial for r0 != 0; flanks only need
        # |u^r0| > |fl| + |fr|, and |u^r0| >= |r0| * |core| exceeds that
        # once |r0| > (|fl| + |fr|) // |core|
        _, core = spec.u.cyclic_decomposition()
        return flank_len // len(core)
    sym = SymbolicBlockWord.from_spec(spec)
    m = _certified_block_magnitude(sym, min_length=flank_len + 1)
    return max(m + abs(o) - 1 for o in sym.offsets)


@dataclass
class CertifyReport:
    """Independent validation of a threshold: random probes plus boundary sweep."""

    spec_echo: str
    threshold: int
    sweep_cap: int
    samples: int
    seed: int
    trivializing: list[tuple[int, ...]] = field(default_factory=list)
    sampled_ok: int = 0

    @property
    def passed(self) -> bool:
        N = self.threshold
        return all(min(abs(x) for x in r) <= N for r in self.trivializing)

    def as_text(self) -> str:
        lines = [
            f"spec: {self.spec_echo}",
            f"threshold: {self.threshold}",
            f"sweep_cap: {self.sweep_cap}",
            f"samples: {self.samples}",
            f"seed: {self.seed}",
            f"sampled_ok: {self.sampled_ok}",
            f"trivializing_tuples: {len(self.trivializing)}",
        ]
        for r in self.trivializing:
            lines.append(f"  trivial_at: {r}")
        lines.append(f"verdict: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _spec_echo(spec: PaddedWordSpec) -> str:
    parts = [f"u=({spec.u.tokens()})"]
    parts.append("gs=[" + ", ".join(f"({g.tokens()})" for g in spec.gs) + "]")
    if spec.flank_left is not None:
        parts.append(f"flank_left=({spec.flank_left.tokens()})")
    if spec.flank_right is not None:
        parts.append(f"flank_right=({spec.flank_right.tokens()})")
    return " ".join(parts)


def certify(
    spec: PaddedWordSpec,
    N: int,
    samples: int = 1000,
    seed: int = 0,
    sweep_cap: int = DEFAULT_SWEEP_CAP,
) -> CertifyReport:
    """Probe the threshold: seeded random r above N, plus an exhaustive sweep.

    Raises CertificationError on any counterexample above N (a threshold bug).
    """
    report = CertifyReport(
        spec_echo=_spec_echo(spec),
        threshold=N,
        sweep_cap=sweep_cap,
        samples=samples,
        seed=seed,
    )
    rng = random.Random(seed)
    k = spec.k
    core = spec if (spec.flank_left is None and spec.flank_right is None) else PaddedWordSpec(spec.u, spec.gs)
    for _ in range(samples):
        r = tuple(
            rng.choice((1, -1)) * rng.randint(N + 1, N + 10) for _ in range(k + 1)
        )
        if any(w.is_identity() for w in _core_padded_words(spec, r, core)):
            raise CertificationError(
                f"trivializing tuple {r} above threshold {N}: threshold is unsound"
            )
        report.sampled_ok += 1
    bound = min(N + 2, sweep_cap)
    for r in itertools.product(range(-bound, bound + 1), repeat=k + 1):
        if any(w.is_identity() for w in _core_padded_words(spec, r, core)):
            report.trivializing.append(r)
            if min(abs(x) for x in r) > N:
                raise CertificationError(
                    f"trivializing tuple {r} above threshold {N}: threshold is unsound"
                )
    return report
