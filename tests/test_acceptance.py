"""Acceptance gate: one test per headline guarantee, each printing a
single pass/fail line with its timing.  Run with ``pytest -s`` to see the
lines inline.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from discrimlab.bigpowers import PaddedWordSpec, certify, threshold
from discrimlab.eocgroup import EocGroup
from discrimlab.errors import CertificationError
from discrimlab.freewords import Alphabet, parse_word
from discrimlab.retraction import (
    ThetaSpec,
    apply_chain,
    _p_ceiling,
    apply_theta,
    complexity_curve,
    compose_chain,
    minimal_discriminating_p,
)
from discrimlab.zdiscrim import BallSpec, lower_bound_value, minimal_complexity, theta

from oracles import siegel_bound, siegel_small_kernel, verify_bijection
from test_bigpowers import CORPUS

A = Alphabet(2)
a, b = A.generators()


def report(name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s){': ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


def test_1_theta_bijection():
    """Base-(2R+1) map is a bijection box -> interval, exhaustively.

    The (n, R) grid is finite-ized: all pairs with (2R+1)^n <= 1e5 and
    R <= 12 (the untruncated n = 1 family alone would need ~2.5e9 point
    checks, far beyond the 10 s budget).
    """
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 18):
        for R in range(0, 13):
            if (2 * R + 1) ** n > 10**5:
                break
            if not verify_bijection(n, R):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - t0
    report("1 theta bijection", ok and elapsed < 10, elapsed, f"{checked} (n,R) pairs")


def test_2_zn_sandwich():
    t0 = time.perf_counter()
    ok = True
    details = []
    cases = [(2, R) for R in range(1, 9)] + [(3, R) for R in range(1, 5)]
    for n, R in cases:
        m, h = minimal_complexity(n, BallSpec("l1", R))
        lb = lower_bound_value(n, R)
        ub = theta(n, R).complexity
        if not (lb <= Fraction(m) and m <= ub):
            ok = False
            details.append(f"n={n},R={R}: {lb} <= {m} <= {ub} fails")
    m1, _ = minimal_complexity(2, BallSpec("l1", 1))
    m2, _ = minimal_complexity(2, BallSpec("l1", 2))
    if (m1, m2) != (1, 2):
        ok = False
        details.append(f"frozen values off: {m1}, {m2}")
    elapsed = time.perf_counter() - t0
    report("2 Z^n sandwich", ok and elapsed < 60, elapsed, "; ".join(details))


def test_3_siegel():
    t0 = time.perf_counter()
    rng = random.Random(1337)
    failures = 0
    done = 0
    while done < 1000:
        n = rng.randint(2, 4)
        B = rng.randint(1, 10)
        row = tuple(rng.randint(-B, B) for _ in range(n))
        if not any(row):
            continue
        v = siegel_small_kernel(row, B)
        if (
            not any(v)
            or sum(c * x for c, x in zip(row, v)) != 0
            or max(abs(x) for x in v) > siegel_bound(n, B)
        ):
            failures += 1
        done += 1
    elapsed = time.perf_counter() - t0
    report(
        "3 Siegel bound", failures == 0 and elapsed < 10, elapsed,
        f"{done} instances, {failures} failures",
    )


def test_4_bigpowers_soundness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for u_text, g_texts in CORPUS:
        u = parse_word(A, u_text)
        gs = tuple(parse_word(A, g) for g in g_texts)
        spec = PaddedWordSpec(u, gs)
        N = threshold(spec)
        try:
            certify(spec, N, samples=10_000, seed=99)
        except CertificationError:
            ok = False
            details.append(f"{u_text}/{g_texts}: counterexample")
    # the stripped-offsets example: trivializing tuples only below |r| = 3
    s = PaddedWordSpec(a, (a**3 * b * a**-2,))
    trivializing = certify(s, threshold(s), samples=10_000, seed=99)
    if any(min(abs(x) for x in r) > 3 for r in trivializing):
        ok = False
        details.append("offset example has a trivializer above 3")
    elapsed = time.perf_counter() - t0
    report(
        "4 big-powers soundness", ok and elapsed < 120, elapsed,
        f"{len(CORPUS)} corpus specs; " + "; ".join(details),
    )


def test_5_word_problem_crossvalidation():
    t0 = time.perf_counter()
    G = EocGroup(A, [(a, 1)])
    R = 5
    p = minimal_discriminating_p(G, R)
    spec = ThetaSpec(G, R, p)
    gens = G.generator_tokens()
    disagreements = 0
    checked = 0
    for length in range(R + 1):
        for toks in itertools.product(gens, repeat=length):
            w = G.element(toks)
            img = apply_theta(spec, w)
            if w.is_trivial() != img.is_trivial():
                disagreements += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "5 word-problem cross-validation",
        disagreements == 0 and elapsed < 300,
        elapsed,
        f"{checked} raw words, {disagreements} disagreements",
    )


def test_6_retraction_curve():
    t0 = time.perf_counter()
    ok = True
    details = []
    curves = {}
    for n in (1, 2):
        G = EocGroup(A, [(a, n)])
        curve = complexity_curve(G, range(5))
        curves[n] = curve
        ceiling = _p_ceiling(G, 4)
        if any(rec.p_min > ceiling for rec in curve):
            ok = False
            details.append(f"n={n}: p_min above ceiling")
        cs = [rec.complexity for rec in curve]
        if cs != sorted(cs):
            ok = False
            details.append(f"n={n}: complexity not nondecreasing: {cs}")
        for rec in curve:
            lb = lower_bound_value(n + 1, rec.R)
            if lb > 0 and Fraction(rec.complexity) < lb:
                ok = False
                details.append(f"n={n},R={rec.R}: below lower bound")
    if not all(
        curves[2][R].complexity >= curves[1][R].complexity for R in (2, 3, 4)
    ):
        ok = False
        details.append("n=2 curve does not dominate n=1")
    if curves[1][1].p_min != 2:
        ok = False
        details.append(f"p_min(R=1) = {curves[1][1].p_min}, expected 2")
    # the p = 1 failure witness
    G = EocGroup(A, [(a, 1)])
    w = G.element("G1 t1.1")
    if not apply_theta(ThetaSpec(G, 1, 1), w).is_trivial() or w.is_trivial():
        ok = False
        details.append("a^-1 t witness does not reproduce")
    elapsed = time.perf_counter() - t0
    report("6 retraction curve", ok, elapsed, "; ".join(details))


def test_7_composition():
    t0 = time.perf_counter()
    tower = EocGroup(A, [(a, 1), (b, 1)])
    chain = compose_chain(tower, 2)
    images = [apply_chain(tower, 2, chain.p, w) for w in tower.ball(2)]
    injective = len(set(images)) == len(images)
    bound = math.prod(chain.stage_complexities)
    submult = chain.bound == bound and all(l <= bound for _, l in chain.submultiplicative)
    elapsed = time.perf_counter() - t0
    report(
        "7 composition", injective and submult, elapsed,
        f"p={chain.p}, complexity={chain.complexity} <= {bound}",
    )


def test_8_exact_polynomial_curve():
    """For u = g1 the curve is an exact polynomial of degree n in R.

    p_min = 2R, and the retraction's complexity is 2R (2R+1)^(n-1), as a
    rank-n extension's discriminating complexity is dominated by a
    polynomial of degree n.
    """
    t0 = time.perf_counter()
    details = []
    for n in (1, 2):
        G = EocGroup(A, [(a, n)])
        for rec in complexity_curve(G, range(1, 5)):
            R = rec.R
            expected = (2 * R, 2 * R * (2 * R + 1) ** (n - 1))
            if (rec.p_min, rec.complexity) != expected:
                details.append(f"n={n},R={R}: (p_min, complexity) = "
                               f"{(rec.p_min, rec.complexity)}, expected {expected}")
    elapsed = time.perf_counter() - t0
    report(
        "8 exact polynomial curve",
        not details,
        elapsed,
        "; ".join(details) or "p_min = 2R, complexity = 2R (2R+1)^(n-1) for n = 1, 2 and R = 1..4",
    )
