"""Freeze the reference data rows of every workload command, after oracle checks.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once per seed in {0, 1} through ``child.py``, requires
every command to exit 0 with the same data rows for both seeds, checks the
rows against oracles that share no code with discrimlab's normal form,
and only then writes ``reference/<workload>.json``.  The oracles:

* every ``curve`` ball size up to R = 4 equals the number of distinct
  free-group images of all raw generator words of length <= R under
  t_{j,i} -> u_j^(p (2R+1)^(i-1)), at p = 97 and at p = 101 (both far
  above p_min, so the map is injective on the ball);
* for a single stage over u = g1 with rank n: p_min = 2R for R >= 1 and
  complexity = p_min (2R+1)^(n-1);
* ``zn`` rows: the lower bound and theta columns equal
  (R-n)^(n-1)/n^n and (2R+1)^(n-1), and lb <= exact <= theta;
* every ``bigpowers`` verdict is ``pass``; every ``crosscheck`` check is
  ``pass`` and it used p = p_min.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import REFERENCE, RESULTS, data_rows, spawn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ORACLE_PRIMES = (97, 101)
ORACLE_MAX_R = 4


class OracleFailure(AssertionError):
    pass


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise OracleFailure(message)


def _letters(text: str) -> list[int]:
    return [int(t[1:]) if t[0] == "g" else -int(t[1:]) for t in text.split()]


def _free_reduce(letters) -> tuple[int, ...]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def image_count(spec: dict, R: int, p: int) -> int:
    """Distinct free-group images of raw words of length <= R (no normal form used)."""
    rank = spec["free_rank"]
    gens = []  # (image letters, inverse image letters)
    for i in range(1, rank + 1):
        gens.append(([i], [-i]))
    for stage in spec["stages"]:
        u = _letters(stage["u"])
        u_inv = [-x for x in reversed(u)]
        for i in range(1, stage["rank"] + 1):
            e = p * (2 * R + 1) ** (i - 1)
            gens.append((u * e, u_inv * e))
    tokens = []  # (token id, inverse token id, letters)
    for k, (img, img_inv) in enumerate(gens):
        tokens.append((2 * k, 2 * k + 1, img))
        tokens.append((2 * k + 1, 2 * k, img_inv))
    seen = {()}
    frontier = [((), None)]  # (reduced image, last token's inverse id)
    for _ in range(R):
        new = []
        for img, banned in frontier:
            for tok, inv, letters in tokens:
                if tok == banned:
                    continue
                w = _free_reduce(img + tuple(letters))
                seen.add(w)
                new.append((w, inv))
        frontier = new
    return len(seen)


def check_curve(rows: list[list[str]], spec: dict) -> None:
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    stages = spec["stages"]
    for row in body:
        R = int(row[col["R"]])
        if R <= ORACLE_MAX_R:
            size = int(row[col["ball_size"]])
            for p in ORACLE_PRIMES:
                n_img = image_count(spec, R, p)
                _check(size == n_img, f"R={R}: ball_size {size} != {n_img} images at p={p}")
        if len(stages) == 1 and stages[0]["u"] == "g1" and R >= 1:
            p_min = int(row[col["p_min"]])
            n = stages[0]["rank"]
            _check(p_min == 2 * R, f"u=g1 R={R}: p_min {p_min} != 2R")
            _check(
                int(row[col["complexity"]]) == p_min * (2 * R + 1) ** (n - 1),
                f"u=g1 R={R}: complexity {row[col['complexity']]} != p_min (2R+1)^(n-1)",
            )


def check_zn(rows: list[list[str]]) -> None:
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    for row in body:
        n, R = int(row[col["n"]]), int(row[col["R"]])
        lb = Fraction((R - n) ** (n - 1), n**n)
        got_lb = Fraction(int(row[col["lower_bound_num"]]), int(row[col["lower_bound_den"]]))
        upper = (2 * R + 1) ** (n - 1)
        exact = int(row[col["exact_min"]])
        _check(got_lb == lb, f"n={n} R={R}: lower bound {got_lb} != {lb}")
        _check(int(row[col["theta_upper"]]) == upper, f"n={n} R={R}: theta != {upper}")
        _check(lb <= exact <= upper, f"n={n} R={R}: not {lb} <= {exact} <= {upper}")


def check_bigpowers(rows: list[list[str]]) -> None:
    col = {name: i for i, name in enumerate(rows[0])}
    for row in rows[1:]:
        _check(row[col["verdict"]] == "pass", f"verdict {row[col['verdict']]}")


def check_crosscheck(rows: list[list[str]]) -> None:
    results = dict((r[0], r[1]) for r in rows[1:])
    for name in ("homomorphism", "inverses", "agreement"):
        _check(results.get(name) == "pass", f"crosscheck {name}: {results.get(name)}")
    _check(results["p_used"] == results["p_min"], "crosscheck did not use p_min")


def check_command(workload: str, argv: list[str], rows: list[list[str]]) -> None:
    specs = WORKLOADS[workload]["specs"]
    command = argv[0]
    if command == "curve":
        name = argv[argv.index("--spec") + 1][len("{spec:"):-1]
        check_curve(rows, specs[name])
    elif command == "zn":
        check_zn(rows)
    elif command == "bigpowers":
        check_bigpowers(rows)
    elif command == "crosscheck":
        check_crosscheck(rows)
    else:
        raise OracleFailure(f"no oracle for {command}")


def freeze(workload: str) -> dict:
    templates = dict(WORKLOADS[workload]["commands"])
    by_seed = []
    for seed in (0, 1):
        child = spawn(workload, seed)
        _check(child["result"] is not None, f"{workload}: child exited {child['rc']}")
        rows = {}
        for op in child["result"]["ops"]:
            _check(op["exception"] is None and op["rc"] == 0, f"{op['label']}: failed: {op}")
            rows[op["label"]] = data_rows(op["stdout"])
        by_seed.append(rows)
    _check(by_seed[0] == by_seed[1], f"{workload}: data rows depend on the seed")
    for label, rows in by_seed[0].items():
        check_command(workload, templates[label], rows)
        print(f"{workload}/{label}: {len(rows) - 1} rows checked")
    return by_seed[0]


def main(argv: list[str]) -> int:
    os.makedirs(RESULTS, exist_ok=True)
    os.makedirs(REFERENCE, exist_ok=True)
    for workload in argv or sorted(WORKLOADS):
        rows = freeze(workload)
        with open(os.path.join(REFERENCE, f"{workload}.json"), "w") as f:
            json.dump(rows, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
