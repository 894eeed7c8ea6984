"""Threshold certification, including the fixed regression corpus."""

import itertools

import pytest

from discrimlab.bigpowers import (
    PaddedWordSpec,
    SymbolicBlockWord,
    _certified_block_magnitude,
    build_padded,
    certify,
    threshold,
)
from discrimlab.errors import AscentExhausted, CertificationError
from discrimlab.freewords import Alphabet, CosetStrip, parse_word

A = Alphabet(2)
a, b = A.generators()


def spec_of(u_text, *g_texts, **flanks):
    u = parse_word(A, u_text)
    gs = tuple(parse_word(A, g) for g in g_texts)
    kw = {k: parse_word(A, v) for k, v in flanks.items()}
    return PaddedWordSpec(u, gs, **kw)


# regression corpus: (u, gs) over F_2 with |u| <= 4, sum |g_i| <= 8
CORPUS = [
    ("g1", ("g2",)),
    ("g1", ("g1 g1 g1 g2 G1 G1",)),
    ("g1 g2", ("G2 g1",)),
    ("g1", ("g2", "g2")),
    ("g1", ("g2", "G2")),
    ("g1", ("g1 g2", "g2 G1")),
    ("g2", ("g1",)),
    ("g2", ("g2 g1 g2 g1",)),
    ("g1 g2", ("g1",)),
    ("g1 g2", ("g2 g2",)),
    ("g1 G2", ("g2 g1",)),
    ("g1 g1 g2", ("g2",)),
    ("g1 g2 G1", ("g1",)),
    ("g1 g2 G1", ("g2 g2", "g1")),
    ("g1 g2 g2", ("G2 g1",)),
    ("g1 g1 g2 g2", ("g2 G1",)),
    ("g1", ("g2 g2 g2 g2",)),
    ("g2 g1", ("g1 g1", "G1 g2")),
    ("g1", ("g2", "g1 g2 G1",)),
    ("g1 g2", ("G2 G1 G2",)),
    ("g2 G1", ("g1 g2",)),
    ("g1", ("G2", "g2", "G2")),
]


class TestBuildPadded:
    def test_no_cancellation(self):
        s = spec_of("g1", "g2")
        assert build_padded(s, (2, 3)) == a**2 * b * a**3

    def test_zero_exponents(self):
        s = spec_of("g1", "g2")
        assert build_padded(s, (0, 0)) == b

    def test_full_collapse_of_padding(self):
        s = spec_of("g1", "g1 g1 g1 g2 G1 G1")
        assert build_padded(s, (-3, 2)) == b

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_padded(spec_of("g1", "g2"), (1,))

    def test_flanks_included(self):
        s = spec_of("g1", "g2", flank_left="g2", flank_right="G2")
        assert build_padded(s, (1, 1)) == b * a * b * a * b.inverse()


class TestThreshold:
    def test_frozen_values(self):
        assert threshold(spec_of("g1", "g2")) == 0
        assert threshold(spec_of("g1", "g1 g1 g1 g2 G1 G1")) == 3

    def test_g_in_centralizer_rejected(self):
        with pytest.raises(ValueError):
            spec_of("g1", "g1 g1")

    def test_degenerate_no_g(self):
        s = PaddedWordSpec(a, ())
        assert threshold(s) == 0
        for r0 in (-2, -1, 1, 2):
            assert not build_padded(s, (r0,)).is_identity()

    def test_no_g_flank_margin(self):
        # N = max(0, (|fl| + |fr| - 2|z|) // |v|) for u = z v z^-1: |u^r| outweighs
        # the flanks for every N < |r| <= N + 3, and N is least, so N = 0 or
        # |u^N| does not outweigh them
        expected = {
            "g1": [0, 1, 2, 3, 4, 5, 6],
            "g1 g2": [0, 0, 1, 1, 2, 2, 3],
            "g2 g1 G2": [0, 0, 0, 1, 2, 3, 4],
        }
        for u_text, thresholds in expected.items():
            u = parse_word(A, u_text)
            for flank_len, want in enumerate(thresholds):
                left, right = flank_len - flank_len // 2, flank_len // 2
                s = PaddedWordSpec(
                    u,
                    (),
                    flank_left=b**left if left else None,
                    flank_right=b**right if right else None,
                )
                N = threshold(s)
                assert N == want, (u_text, flank_len)
                for r in range(N + 1, N + 4):
                    assert len(u**r) > flank_len and len(u**-r) > flank_len
                assert N == 0 or len(u**N) <= flank_len

    def test_flank_margin(self):
        s = spec_of("g1", "g2", flank_left="G1 g2")
        N = threshold(s)
        # above N, the reduced core strictly outweighs the flank
        core = spec_of("g1", "g2")
        for r in [(N + 1, N + 1), (-(N + 1), N + 1), (N + 1, -(N + 1))]:
            assert len(build_padded(core, r)) > 2

    def test_block_ascent_reports_corner_at_ceiling(self):
        # a middle inside <u> breaks the strip precondition: at the corner
        # (m, -m) the second block eats the middle and all but one letter
        # of the first, whatever m is
        sym = SymbolicBlockWord(a, (CosetStrip(0, a, 0),), (0, 0))
        with pytest.raises(AscentExhausted) as exc:
            _certified_block_magnitude(sym)
        err = exc.value
        assert err.R is None
        m = err.ceiling
        assert err.witness in ((m, -m), (-m, m))
        surviving = sym.reduce_exponents(err.witness)
        assert min(surviving[0], surviving[2]) == 0

    def test_length_growth_beyond_threshold(self):
        s = spec_of("g1 g2", "G2 g1")
        N = threshold(s)
        lengths = [len(build_padded(s, (m, m))) for m in range(N + 1, N + 6)]
        deltas = {y - x for x, y in zip(lengths, lengths[1:])}
        assert len(deltas) == 1  # exactly linear growth


class TestCertify:
    def test_corpus_sound(self):
        for u_text, g_texts in CORPUS:
            s = spec_of(u_text, *g_texts)
            N = threshold(s)
            report = certify(s, N, samples=300, seed=2024)
            assert report.passed, report.as_text()

    def test_corpus_thresholds_linear_in_size(self):
        sizes, ns = [], []
        for u_text, g_texts in CORPUS:
            s = spec_of(u_text, *g_texts)
            sizes.append(len(s.u) + sum(len(g) for g in s.gs))
            ns.append(threshold(s))
        # monotone-envelope sanity: bound by a crude linear function of size
        assert all(n <= 2 * size for n, size in zip(ns, sizes))

    def test_trivializing_tuples_reported_below_threshold(self):
        s = spec_of("g1", "g1 g1 g1 g2 G1 G1")
        report = certify(s, threshold(s), samples=100, seed=5)
        assert all(min(abs(x) for x in r) <= 3 for r in report.trivializing)

    def test_undersized_threshold_detected(self):
        # flank chosen so that flank * a^2 b a^2 is trivial: claiming N = 0
        # leaves the r = (2, 2) counterexample above the claimed threshold,
        # and certify must abort on it
        s = spec_of("g1", "g2", flank_left="G1 G1 G2 G1 G1")
        with pytest.raises(CertificationError):
            certify(s, 0, samples=200, seed=0)
        # the computed threshold covers the collapse point
        assert threshold(s) >= 2
        assert certify(s, threshold(s), samples=200, seed=0).passed

    def test_flanked_sweep_matches_lemma_words(self):
        # certify tests one padded word per tuple; here the four lemma words
        # w, fl w, w fr, fl w fr are built as products of the core word
        one = A.identity()
        for s in (
            spec_of("g1", "g2", flank_left="G1 G1 G2 G1 G1"),
            spec_of("g1", "g2", flank_left="G2 G2 G1 G1", flank_right="G1 G1 g2"),
        ):
            N = threshold(s)
            report = certify(s, N, samples=20, seed=3)
            core = PaddedWordSpec(s.u, s.gs)
            fl, fr = s.flank_left or one, s.flank_right or one
            bound = min(N + 2, report.sweep_cap)
            expected = []
            for r in itertools.product(range(-bound, bound + 1), repeat=s.k + 1):
                w = build_padded(core, r)
                if any(x.is_identity() for x in (w, fl * w, w * fr, fl * w * fr)):
                    expected.append(r)
            assert expected and report.trivializing == expected

    def test_report_text(self):
        s = spec_of("g1", "g2")
        text = certify(s, 0, samples=10, seed=1).as_text()
        assert "threshold: 0" in text and "verdict: pass" in text
