"""Threshold certification, including the fixed regression corpus."""

import itertools
import random

import pytest

from discrimlab.bigpowers import (
    DEFAULT_SWEEP_CAP,
    PaddedWordSpec,
    _certified_block_magnitude,
    _corner_holds,
    _hits,
    build_padded,
    certify,
    threshold,
)
from discrimlab.errors import AscentExhausted, CertificationError
from discrimlab.freewords import Alphabet, Word, parse_word, power_membership
from oracles import brute_certify, free_words, product_padded, running_powers

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

# k = 3 specs whose sweeps run over long u-powers
K3 = [
    ("g1", ("g1 g1 g1 g2 G1 G1", "g2 g2", "G2")),
    ("g1", ("g1 g1 g1 g1 g2 G1 G1 G1", "g2 g1 g2", "G2 G2")),
    ("g1 g2", ("g1 g2 g1 g2 g1", "G1", "g1 g1")),
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

    def test_no_g_matches_closed_form(self):
        # with no g the word is fl u^r0 fr, and |u^r0| = 2|z| + |r0| |v| for
        # u = z v z^-1 exceeds |fl| + |fr| exactly when
        # |r0| > max(0, (|fl| + |fr| - 2|z|) // |v|); every u with |u| <= 4,
        # every pair of flanks of length <= 2 outside <u>
        flanks = [None] + free_words(A, 2)[1:]
        for u in free_words(A, 4)[1:]:
            z, v = u.cyclic_decomposition()
            for fl, fr in itertools.product(flanks, repeat=2):
                if any(f is not None and power_membership(u, f) is not None for f in (fl, fr)):
                    continue
                flank_len = sum(len(f) for f in (fl, fr) if f is not None)
                want = max(0, (flank_len - 2 * len(z)) // len(v))
                assert threshold(PaddedWordSpec(u, (), fl, fr)) == want, (u, fl, fr)

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
        with pytest.raises(AscentExhausted) as exc:
            _certified_block_magnitude(a, (a,), 1)
        err = exc.value
        assert err.R is None
        m = err.ceiling
        assert err.witness in ((m, -m), (-m, m))
        assert not _corner_holds(a, (a,), err.witness, 1)

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
            certify(s, N, samples=300, seed=2024)

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
        trivializing = certify(s, threshold(s), samples=100, seed=5)
        assert all(min(abs(x) for x in r) <= 3 for r in trivializing)

    def test_undersized_threshold_detected(self):
        # flank chosen so that flank * a^2 b a^2 is trivial: claiming N = 0
        # leaves the r = (2, 2) counterexample above the claimed threshold,
        # and certify must abort on it
        s = spec_of("g1", "g2", flank_left="G1 G1 G2 G1 G1")
        with pytest.raises(CertificationError) as exc:
            certify(s, 0, samples=200, seed=0)
        assert (exc.value.threshold, exc.value.witness) == (0, (2, 2))
        assert str(exc.value) == "trivializing tuple (2, 2) above threshold 0: threshold is unsound"
        # the computed threshold covers the collapse point
        assert threshold(s) >= 2
        certify(s, threshold(s), samples=200, seed=0)

    def test_flanked_sweep_matches_lemma_words(self):
        # certify tests one padded word per tuple; here the four lemma words
        # w, fl w, w fr, fl w fr are built as products of the core word
        one = A.identity()
        for s in (
            spec_of("g1", "g2", flank_left="G1 G1 G2 G1 G1"),
            spec_of("g1", "g2", flank_left="G2 G2 G1 G1", flank_right="G1 G1 g2"),
        ):
            N = threshold(s)
            trivializing = certify(s, N, samples=20, seed=3)
            core = PaddedWordSpec(s.u, s.gs)
            fl, fr = s.flank_left or one, s.flank_right or one
            bound = min(N + 2, DEFAULT_SWEEP_CAP)
            expected = []
            for r in itertools.product(range(-bound, bound + 1), repeat=s.k + 1):
                w = build_padded(core, r)
                if any(x.is_identity() for x in (w, fl * w, w * fr, fl * w * fr)):
                    expected.append(r)
            assert expected and trivializing == expected


def _outcome(fn, spec, N, **kw):
    """The box's trivializing tuples of a certify run, or its CertificationError text."""
    try:
        return fn(spec, N, **kw)
    except CertificationError as e:
        return str(e)


def _random_word(rng, max_len):
    return Word(A, [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, max_len))])


def _random_spec(rng):
    """A valid spec with k = 0..3; some flanks cancel a small padded word,
    so that thresholds below theirs have trivializing tuples above them."""
    while True:
        k = rng.randint(0, 3)
        u = _random_word(rng, 4)
        if not u or u.is_proper_power():
            continue
        gs = tuple(_random_word(rng, 4) for _ in range(k))
        fl = _random_word(rng, 4) if rng.random() < 0.5 else None
        fr = _random_word(rng, 4) if rng.random() < 0.5 else None
        try:
            if rng.random() < 0.4:
                r = [rng.randint(-3, 3) for _ in range(k + 1)]
                inverse = build_padded(PaddedWordSpec(u, gs), r).inverse()
                fl, fr = (inverse, None) if rng.random() < 0.5 else (None, inverse)
            return PaddedWordSpec(u, gs, fl or None, fr or None)
        except ValueError:
            continue


class TestCertifyMatchesBrute:
    """The split sweep against the per-tuple sweep of tests/oracles.py."""

    def test_build_padded_matches_products(self):
        rng = random.Random(7)
        for _ in range(200):
            s = _random_spec(rng)
            r = tuple(rng.randint(-5, 5) for _ in range(s.k + 1))
            powers = {e: (s.u**e).letters for e in range(-5, 6)}
            expected = product_padded(s, r, running_powers(s.u, 5))
            assert build_padded(s, r) == expected
            assert build_padded(s, r, powers) == expected

    def test_corpus_and_k3_specs(self):
        kw = dict(samples=30, seed=11)
        for u_text, g_texts in CORPUS + K3:
            s = spec_of(u_text, *g_texts)
            N = threshold(s)
            for n in (N, N - 1, 0):
                assert _outcome(certify, s, n, **kw) == _outcome(brute_certify, s, n, **kw), (
                    u_text,
                    g_texts,
                    n,
                )

    def test_random_flanked_specs(self):
        rng = random.Random(2026)
        seen_k, seen_caps, seen_flanks = set(), set(), set()
        raised = hits = 0
        for i in range(150):
            s = _random_spec(rng)
            cap = rng.randint(0, 4)
            N = threshold(s)
            seen_k.add(s.k)
            seen_caps.add(cap)
            seen_flanks.add((s.flank_left is not None, s.flank_right is not None))
            for n in (N, N - 1, 0):
                kw = dict(samples=20, seed=i, sweep_cap=cap)
                got = _outcome(certify, s, n, **kw)
                assert got == _outcome(brute_certify, s, n, **kw), (s, n, cap)
                raised += isinstance(got, str)
                hits += not isinstance(got, str) and bool(got)
        assert seen_k == {0, 1, 2, 3} and seen_caps == set(range(5))
        assert seen_flanks == {(False, False), (True, False), (False, True), (True, True)}
        # both the reported tuples and the raise site were compared
        assert raised > 0 and hits > 0


class TestBandSweep:
    """The meet-in-the-middle ``_hits`` and the band sweep that passes the samples."""

    def test_hits_match_per_tuple_scan(self):
        rng = random.Random(28)
        seen = set()
        for _ in range(120):
            s = _random_spec(rng)
            values = sorted(rng.sample(range(-5, 6), rng.randint(1, 5)))
            powers = {e: (s.u**e).letters for e in values}
            tuples = list(itertools.product(values, repeat=s.k + 1))
            # the identity, and one padded word of the scan, so every scan hits
            forbidden = tuple({(), build_padded(s, rng.choice(tuples)).letters})
            expected = [r for r in tuples if build_padded(s, r).letters in forbidden]
            assert _hits(s, values, powers, forbidden) == expected, (s, values)
            seen.add((s.k, s.flank_left is not None, s.flank_right is not None))
        assert {k for k, _, _ in seen} == {0, 1, 2, 3}
        assert {(fl, fr) for _, fl, fr in seen} == {
            (False, False), (True, False), (False, True), (True, True)
        }

    def test_clean_band_draws_nothing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("certify drew a sample")

        monkeypatch.setattr(random, "Random", no_draws)
        for u_text, g_texts in CORPUS + K3:
            s = spec_of(u_text, *g_texts)
            certify(s, threshold(s), samples=500, seed=1)

    def test_band_hit_replays_the_draws(self):
        # N = 0 is unsound here: (2, 2) lies in the band, but a box of
        # |r_i| <= 1 misses it, so only the replayed draws can find it
        s = spec_of("g1", "g2", flank_left="G1 G1 G2 G1 G1")
        forbidden = ((), s.flank_left.inverse().letters)
        band = [x * e for e in range(1, 11) for x in (1, -1)]
        powers = {e: (s.u**e).letters for e in band}
        assert _hits(s, band, powers, forbidden) == [(2, 2)]
        outcomes = set()
        for seed in range(8):
            for samples in (1, 400):
                kw = dict(samples=samples, seed=seed, sweep_cap=1)
                got = _outcome(certify, s, 0, **kw)
                assert got == _outcome(brute_certify, s, 0, **kw), kw
                outcomes.add((samples, isinstance(got, str)))
        # one draw misses (2, 2); 400 draws hit it for some seed and miss it
        # for another
        assert outcomes == {(1, False), (400, True), (400, False)}

    def test_few_draws_are_built_one_by_one(self):
        # N = 0 is unsound: u^2 lies in the band and cancels the flanks.  Ten
        # draws cost less than sweeping the band, so each is built on its own
        s = spec_of("g1", flank_left="G2", flank_right="G1 G1 g2")
        outcomes = set()
        for seed in range(8):
            for samples in (10, 400):
                kw = dict(samples=samples, seed=seed, sweep_cap=1)
                got = _outcome(certify, s, 0, **kw)
                assert got == _outcome(brute_certify, s, 0, **kw), kw
                outcomes.add((samples, isinstance(got, str)))
        assert outcomes == {(10, False), (10, True), (400, True)}

    def test_large_k_builds_each_draw(self, monkeypatch):
        # at k = 9 a band sweep would build 20^5 left halves; with a box of
        # one tuple, certify builds its two halves and the 500 draws only
        s = spec_of("g1", *["g2", "G2 g1 g2"] * 4, "g2")
        built = []

        def counting(*args):
            built.append(args[1])
            if len(built) > 500 + 2:
                raise AssertionError("certify built more words than its draws")
            return build_padded(*args)

        monkeypatch.setattr("discrimlab.bigpowers.build_padded", counting)
        N = threshold(s)
        for n in (N, 0):
            built.clear()
            kw = dict(samples=500, seed=3, sweep_cap=0)
            assert _outcome(certify, s, n, **kw) == _outcome(brute_certify, s, n, **kw)

    def test_sweep_and_draws_agree_at_k4(self):
        # 20 draws cost less than a band sweep at k = 4, and 2000 draws more,
        # so the two sample counts take the two paths; each left flank
        # cancels the padded word at some r in {-1, 1}^5, which a box of
        # |r_i| <= 1 finds above N = 0
        rng = random.Random(4)
        raised = 0
        for i in range(6):
            while True:
                u = _random_word(rng, 3)
                gs = tuple(_random_word(rng, 3) for _ in range(4))
                r = [rng.choice((1, -1)) for _ in range(5)]
                if u.is_proper_power():
                    continue
                try:
                    fl = build_padded(PaddedWordSpec(u, gs), r).inverse()
                    s = PaddedWordSpec(u, gs, fl or None)
                    break
                except ValueError:
                    continue
            for n in (threshold(s), 0):
                for samples in (20, 2000):
                    kw = dict(samples=samples, seed=i, sweep_cap=1)
                    got = _outcome(certify, s, n, **kw)
                    assert got == _outcome(brute_certify, s, n, **kw), (s, n, samples)
                    raised += isinstance(got, str)
        assert raised > 0
