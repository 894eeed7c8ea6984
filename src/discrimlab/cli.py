"""Batch command-line driver.

Subcommands:
  zn          exact minimal discriminating complexity for Z^n balls, with
              the Siegel lower bound and the theta upper bound
  bigpowers   certified nontriviality threshold for a padded word,
              validated by an exhaustive sweep of a small box and by
              seeded samples, whose band is swept whole where that costs
              no more than drawing them
  curve       complexity curve of the top-stage retraction of an
              extension-of-centralizer group
  ball        ball sizes of an extension-of-centralizer group
  crosscheck  independent consistency checks: normalization is a
              homomorphism and inverts, p_min and p_used (optionally
              forced), and raw-word triviality agreement at p_used

Exit codes: 0 success, 1 property violation, 2 input error, 3 budget
exceeded.  Output is CSV (with ``#`` metadata comment lines) or JSON
lines (metadata as the first record); files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .bigpowers import DEFAULT_SAMPLES, DEFAULT_SWEEP_CAP, PaddedWordSpec, certify, threshold
from .eocgroup import DEFAULT_BALL_CAP, EocGroup, load_group_spec
from .errors import AscentExhausted, BudgetExceeded, CertificationError, DiscrimError
from .freewords import Alphabet, join_letters, parse_word
from .retraction import (
    ThetaSpec,
    apply_chain,
    apply_theta,
    complexity_curve,
    compose_chain,
    minimal_discriminating_p,
)
from .zdiscrim import (
    DEFAULT_ENUM_BUDGET,
    BallSpec,
    lower_bound_value,
    minimal_complexity,
    theta,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _Violation(DiscrimError):
    """A checked property failed; maps to exit code 1."""


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, meta: dict, header: Sequence[str], rows: list[Sequence]) -> None:
    lines = []
    if args.format == "csv":
        for k, v in meta.items():
            lines.append(f"# {k}={v}")
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(str(x) for x in row))
    else:
        lines.append(json.dumps({"meta": meta}))
        for row in rows:
            lines.append(json.dumps(dict(zip(header, row))))
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _base_meta(args, **extra) -> dict:
    """Tool, version and every parsed option, so the record rebuilds its command."""
    meta = {"tool": "discrimlab", "version": __version__}
    meta.update((k, v) for k, v in vars(args).items() if k not in ("func", "out", "format"))
    meta.update(extra)
    return meta


def _load_group(path: str) -> EocGroup:
    with open(path) as f:
        return load_group_spec(f.read())


# -- subcommands ---------------------------------------------------------------


def _cmd_zn(args) -> int:
    rows = []
    # the minimum never falls as R grows, so each search starts at the last one
    exact = 1
    for R in range(args.rmin, args.rmax + 1):
        t0 = time.perf_counter()
        exact, witness = minimal_complexity(
            args.n, BallSpec(args.shape, R), budget=args.budget, start=exact
        )
        upper = theta(args.n, R).complexity
        lb = lower_bound_value(args.n, R) if args.n >= 2 else Fraction(0, 1)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        if not (lb <= exact <= upper):
            raise _Violation(
                f"bound sandwich failed at n={args.n}, R={R}: {lb} <= {exact} <= {upper}"
            )
        rows.append(
            (args.n, R, lb.numerator, lb.denominator, exact, upper, f"{wall_ms:.3f}")
        )
    _emit(
        args,
        _base_meta(args),
        ["n", "R", "lower_bound_num", "lower_bound_den", "exact_min", "theta_upper", "wall_ms"],
        rows,
    )
    return EXIT_OK


def _cmd_bigpowers(args) -> int:
    alphabet = Alphabet(args.free_rank)
    u = parse_word(alphabet, args.u)
    gs = tuple(parse_word(alphabet, g) for g in args.g)
    flank_left = parse_word(alphabet, args.flank_left) if args.flank_left else None
    flank_right = parse_word(alphabet, args.flank_right) if args.flank_right else None
    try:
        spec = PaddedWordSpec(u, gs, flank_left, flank_right)
    except ValueError as e:
        raise DiscrimError(str(e)) from e
    t0 = time.perf_counter()
    N = threshold(spec)
    report = certify(spec, N, samples=args.samples, seed=args.seed, sweep_cap=args.sweep_cap)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    meta = _base_meta(args, k=len(gs))
    rows = [
        (
            N,
            report.sampled_ok,
            len(report.trivializing),
            # certify raises CertificationError rather than return a failing report
            "pass",
            f"{wall_ms:.3f}",
        )
    ]
    _emit(args, meta, ["threshold", "sampled_ok", "trivializing", "verdict", "wall_ms"], rows)
    return EXIT_OK


def _cmd_curve(args) -> int:
    group = _load_group(args.spec)
    if not group.stages:
        raise DiscrimError("group spec has no extension stage; nothing to retract")
    curve = complexity_curve(group, range(args.rmin, args.rmax + 1), cap=args.cap)
    rows = []
    certificates = []
    for rec in curve:
        if not (rec.lower_bound <= rec.complexity):
            raise _Violation(
                f"lower bound exceeds achieved complexity at R={rec.R}: "
                f"{rec.lower_bound} > {rec.complexity}"
            )
        if rec.certificate is not None:
            # the pair must be distinct and merged at p_min - 1
            w, w2 = rec.certificate
            spec = ThetaSpec(group, rec.R, rec.p_min - 1)
            if w == w2 or apply_theta(spec, w) != apply_theta(spec, w2):
                raise _Violation(
                    f"p_min certificate at R={rec.R} does not collide at p={rec.p_min - 1}: "
                    f"{w.tokens()!r}, {w2.tokens()!r}"
                )
            certificates.append({"R": rec.R, "p": rec.p_min - 1, "pair": [w.tokens(), w2.tokens()]})
        rows.append(
            (
                rec.R,
                rec.p_min,
                rec.complexity,
                rec.lower_bound.numerator,
                rec.lower_bound.denominator,
                rec.ball_size,
                f"{rec.wall_ms:.3f}",
            )
        )
    meta = _base_meta(args, p_min_certificates=certificates)
    if len(group.stages) > 1:
        chain = compose_chain(group, args.rmax, cap=args.cap)
        meta["composite_p"] = chain.p
        meta["composite_complexity"] = chain.complexity
        meta["composite_bound"] = chain.bound
        if any(l > chain.bound for _, l in chain.submultiplicative):
            raise _Violation("composite image exceeds product of stage complexities")
    _emit(
        args,
        meta,
        ["R", "p_min", "complexity", "lower_bound_num", "lower_bound_den", "ball_size", "wall_ms"],
        rows,
    )
    return EXIT_OK


def _cmd_ball(args) -> int:
    group = _load_group(args.spec)
    rows = []
    for R in range(args.rmax + 1):
        t0 = time.perf_counter()
        size = len(group.ball(R, cap=args.cap))
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append((R, size, f"{wall_ms:.3f}"))
    _emit(args, _base_meta(args), ["R", "ball_size", "wall_ms"], rows)
    return EXIT_OK


def _raw_word_agreement(group, r: int, p: int):
    """(agreements, first disagreeing raw word or None) over raw words of length <= r.

    The verdicts: the normal form is empty iff the composite retraction at
    p kills the word.  Raw words are walked as a tree in breadth-first
    order, each extending its parent by a generator that does not undo the
    parent's last one (``_inverse``).  Pruned inverse pairs normalize
    to shorter raw words already enumerated, so the set of represented
    group elements is unchanged.  A word's normal form is its parent's
    times the generator (one ``_times``); its image is its parent's image
    times the generator's, as the composite is a homomorphism onto the
    free base.  So this checks normalization against the product of the
    generators' images; ``apply_chain`` runs on the generators only, and
    its agreement on longer normal forms is tested in
    ``tests/test_retraction.py``.  The last layer is checked but not kept.
    """
    gens = group.generator_tokens()
    # forward[last]: the generators that do not undo last; forward[-1], the
    # empty word's, holds them all
    forward = [[g for g in range(len(gens)) if g != undo] for undo in group._inverse.tolist()]
    syllables = group._generator_syllables
    images = [apply_chain(group, r, p, gen).letters for gen in group.generators()]
    agreements = 1  # the empty word
    # (index of the last generator, or -1 for the empty word; word; form; image)
    frontier = [(-1, (), (), ())]
    for layer in range(1, r + 1):
        new = []
        for last, w, form, image in frontier:
            for g in forward[last]:
                f, im = group._times(form, syllables[g]), join_letters(image, images[g])
                if (not f) != (not im):
                    return agreements, w + (gens[g],)
                agreements += 1
                if layer < r:
                    new.append((g, w + (gens[g],), f, im))
        frontier = new
    return agreements, None


def _cmd_crosscheck(args) -> int:
    group = _load_group(args.spec)
    rng = random.Random(args.seed)
    gens = group.generator_tokens()
    checks = []

    # each check raises at its first failing sample, before any row is emitted;
    # normalization respects multiplication: norm(xy) == norm(x) * norm(y)
    for _ in range(args.samples):
        x_toks = [rng.choice(gens) for _ in range(rng.randint(0, 6))]
        y_toks = [rng.choice(gens) for _ in range(rng.randint(0, 6))]
        joint = group.element(x_toks + y_toks)
        split = group.element(x_toks) * group.element(y_toks)
        if joint != split:
            raise _Violation("normalization is not multiplicative")
    checks.append(("homomorphism", "pass"))

    # inverses: norm(x) * norm(x)^-1 is trivial
    for _ in range(args.samples):
        x = group.element([rng.choice(gens) for _ in range(rng.randint(0, 6))])
        if not (x * x.inverse()).is_trivial():
            raise _Violation("inverse normalization failed")
    checks.append(("inverses", "pass"))

    if group.stages:
        p_min = minimal_discriminating_p(group, args.r, cap=args.cap)
        checks.append(("p_min", p_min))
        p = args.force_p
        if p is None:
            # the agreement check runs the composite, whose p a tower may
            # raise; on one stage the composite is the top stage's retraction
            p = p_min if len(group.stages) == 1 else compose_chain(group, args.r, cap=args.cap).p
        checks.append(("p_used", p))
        agreements, disagreement = _raw_word_agreement(group, args.r, p)
        checks.append(("raw_words_checked", agreements))
        if disagreement is not None:
            raise _Violation(
                f"triviality verdicts disagree at p={p} on raw word {list(disagreement)!r}"
            )
        checks.append(("agreement", "pass"))

    _emit(args, _base_meta(args), ["check", "result"], [list(c) for c in checks])
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _nonnegative(text: str) -> int:
    """argparse type of a count, radius, cap or budget: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="discrimlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_out(p):
        p.add_argument("--out", help="output file (atomic write); stdout if omitted")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p = sub.add_parser("zn", help="minimal discriminating complexity for Z^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rmin", type=_nonnegative, default=0)
    p.add_argument("--rmax", type=_nonnegative, required=True)
    p.add_argument("--shape", choices=("l1", "box"), default="l1")
    p.add_argument("--budget", type=_nonnegative, default=DEFAULT_ENUM_BUDGET)
    common_out(p)
    p.set_defaults(func=_cmd_zn)

    p = sub.add_parser("bigpowers", help="certified padded-word threshold")
    p.add_argument("--free-rank", type=int, default=2)
    p.add_argument("--u", required=True, help="amalgamating word, token format")
    p.add_argument("--g", action="append", required=True, help="interleaving word (repeatable)")
    p.add_argument("--flank-left")
    p.add_argument("--flank-right")
    p.add_argument("--samples", type=_nonnegative, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweep-cap", type=_nonnegative, default=DEFAULT_SWEEP_CAP)
    common_out(p)
    p.set_defaults(func=_cmd_bigpowers)

    p = sub.add_parser("curve", help="retraction complexity curve")
    p.add_argument("--spec", required=True, help="group spec JSON file")
    p.add_argument("--rmin", type=_nonnegative, default=0)
    p.add_argument("--rmax", type=_nonnegative, required=True)
    p.add_argument("--cap", type=_nonnegative, default=DEFAULT_BALL_CAP)
    common_out(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("ball", help="ball sizes of a group")
    p.add_argument("--spec", required=True, help="group spec JSON file")
    p.add_argument("--rmax", type=_nonnegative, required=True)
    p.add_argument("--cap", type=_nonnegative, default=DEFAULT_BALL_CAP)
    common_out(p)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("crosscheck", help="independent consistency checks")
    p.add_argument("--spec", required=True, help="group spec JSON file")
    p.add_argument("--r", type=_nonnegative, default=1)
    p.add_argument("--samples", type=_nonnegative, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=_nonnegative, default=DEFAULT_BALL_CAP)
    p.add_argument(
        "--force-p",
        type=int,
        help="use this p for the agreement check instead of the composite's least injective p",
    )
    common_out(p)
    p.set_defaults(func=_cmd_crosscheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "rmin" in vars(args) and args.rmin > args.rmax:
            parser.error(f"--rmin {args.rmin} exceeds --rmax {args.rmax}")
        if getattr(args, "force_p", None) is not None and args.force_p < 1:
            parser.error(f"--force-p must be >= 1, got {args.force_p}")
    except SystemExit as e:
        # argparse exits 2 on bad input and 0 on --help; pass both through
        return e.code if isinstance(e.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except (_Violation, CertificationError, AscentExhausted) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (DiscrimError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
