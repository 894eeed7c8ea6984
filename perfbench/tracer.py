"""Traced runs: wrap the library's layer entry points and derive per-layer metrics.

The library is not edited.  Each traced name is replaced by a wrapper in
every namespace that binds it (``from .x import y`` copies a binding, so
a wrapper placed only on the defining module would be skipped by such
callers), and methods are replaced on their class.

Two kinds of wrapper:

* span: a coarse call (a CLI command, a p ascent, a ball, a Z^n search).
  Each call is kept as a span with its start, end, parent span and
  command index, so the span list grows with the number of coarse calls
  only.
* hot: a call made up to millions of times (word products, strips,
  normalizations).  Only the call count, total time and self time are
  kept, per (enclosing span, immediate caller, name), so memory stays
  bounded however many calls happen.

Self time is a call's duration minus the time of the traced calls it made.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time

SPAN = "span"
HOT = "hot"

# (defining module, attribute, kind); the name of a call is "module.attribute"
TARGETS = [
    ("freewords", "_strip_search", HOT),
    ("freewords", "power_membership", HOT),
    ("freewords", "Word.__mul__", HOT),
    ("freewords", "Word.__pow__", HOT),
    ("eocgroup", "EocGroup.__init__", HOT),
    ("eocgroup", "EocGroup.element", HOT),
    ("eocgroup", "EocGroup._from_syllables", HOT),
    ("eocgroup", "EocGroup._strip", HOT),
    ("eocgroup", "EocGroup._power_of", HOT),
    ("eocgroup", "EocGroup.ball", SPAN),
    ("retraction", "apply_theta", HOT),
    ("retraction", "subtower", HOT),
    ("retraction", "_apply_chain", HOT),
    ("retraction", "_images_injective", SPAN),
    ("retraction", "minimal_discriminating_p", SPAN),
    ("retraction", "compose_chain", SPAN),
    ("zdiscrim", "_shell_vectors_cached", HOT),
    ("zdiscrim", "minimal_complexity", SPAN),
    ("bigpowers", "build_padded", HOT),
    ("bigpowers", "threshold", SPAN),
    ("bigpowers", "certify", SPAN),
    ("cli", "_emit", SPAN),
]

MODULES = ("freewords", "eocgroup", "retraction", "zdiscrim", "bigpowers", "cli")

COMMAND = "cli.main"


def _strip_products(tr, args, kwargs, result):
    # the (s, t) box _strip_search scans, from its argument lengths
    g, u_left, u_right = args
    ulen = max(len(u_left) if u_left else 1, len(u_right) if u_right else 1)
    side = 2 * (2 * len(g) + 2 * ulen + 4) + 1
    n_s = side if u_left is not None else 1
    n_t = side if u_right is not None else 1
    tr.add("freewords.strip_products", n_s * n_t)


def _ball_elements(tr, args, kwargs, result):
    # elements first enumerated by this call: balls are cached per group
    group = args[0]
    known = tr.ball_sizes.get(id(group), (group, 0))[1]
    if len(result) > known:
        tr.add("eocgroup.ball_elements", len(result) - known)
        tr.ball_sizes[id(group)] = (group, len(result))


def _chain_p(tr, args, kwargs, result):
    # compose_chain ascends p = 1, 2, ... up to the uniform p it returns
    tr.add("retraction.chain_p_tried", result.p)


def _shell_candidates(tr, args, kwargs, result):
    tr.add("zdiscrim.shell_candidates", len(result))


def _l1_ball_size(n: int, R: int) -> int:
    total, binom_n, binom_r = 0, 1, 1
    for k in range(min(n, R) + 1):
        total += 2**k * binom_n * binom_r
        binom_n = binom_n * (n - k) // (k + 1)
        binom_r = binom_r * (R - k) // (k + 1)
    return total


def _matmul_cells(tr, args, kwargs, result):
    # minimal_complexity multiplies one antipodal half of the punctured
    # ball by every shell m' = 1..m; shell m' holds ((2m'+1)^n - (2m'-1)^n)/2
    # candidates, so the shells up to m hold ((2m+1)^n - 1)/2
    n, spec = args[0], args[1]
    if n < 2:
        return
    R = spec.radius
    size = (2 * R + 1) ** n if spec.shape == "box" else _l1_ball_size(n, R)
    half = (size - 1) // 2
    if half == 0:
        return
    m = result[0]
    tr.add("zdiscrim.ball_points", half)
    tr.add("zdiscrim.matmul_cells", half * (((2 * m + 1) ** n - 1) // 2))


def _sweep_tuples(tr, args, kwargs, result):
    bound_args = tr.signatures["bigpowers.certify"].bind(*args, **kwargs)
    bound_args.apply_defaults()
    a = bound_args.arguments
    bound = min(a["N"] + 2, a["sweep_cap"])
    tr.add("bigpowers.sweep_tuples", (2 * bound + 1) ** (a["spec"].k + 1))


HOOKS = {
    "freewords._strip_search": _strip_products,
    "eocgroup.EocGroup.ball": _ball_elements,
    "retraction.compose_chain": _chain_p,
    "zdiscrim._shell_vectors_cached": _shell_candidates,
    "zdiscrim.minimal_complexity": _matmul_cells,
    "bigpowers.certify": _sweep_tuples,
}


class Tracer:
    """Installs wrappers on the imported ``discrimlab`` package and collects calls."""

    def __init__(self):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.spans: list[dict] = []
        # (enclosing span id, immediate caller name, name) -> [calls, total_s, self_s]
        self.agg: dict[tuple, list] = {}
        self.counters: dict[str, int] = {}
        self.ball_sizes: dict[int, tuple] = {}
        self.signatures: dict[str, inspect.Signature] = {}
        self.missing: list[str] = []
        self.command_index = -1
        # open calls: [name, enclosing span id, time spent in traced children]
        self._stack: list[list] = [["<root>", 0, 0.0]]
        self._next_id = 1
        self._restore: list[tuple] = []

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    # -- wrappers ---------------------------------------------------------------

    def _hot(self, name, fn):
        stack, clock, agg, hook = self._stack, self.clock, self.agg, HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, parent[1], 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                parent[2] += dt
                key = (parent[1], parent[0], name)
                entry = agg.get(key)
                if entry is None:
                    agg[key] = [1, dt, dt - frame[2]]
                else:
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += dt - frame[2]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _span(self, name, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1]
        sid = self._next_id
        self._next_id += 1
        frame = [name, sid, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            parent[2] += end - start
            self.spans.append(
                {
                    "id": sid,
                    "parent": parent[1],
                    "name": name,
                    "command": self.command_index,
                    "start_s": start - self.t0,
                    "end_s": end - self.t0,
                    "self_s": end - start - frame[2],
                }
            )

    @contextlib.contextmanager
    def command(self, index: int):
        """Span for one CLI command; every span inside it carries its index."""
        self.command_index = index
        try:
            with self.span(COMMAND):
                yield
        finally:
            self.command_index = -1

    # -- installation -----------------------------------------------------------

    def install(self, package) -> None:
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        for mod_name, attr, kind in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if name in HOOKS:
                self.signatures[name] = inspect.signature(original)
            wrapper = (self._hot if kind == HOT else self._span)(name, original)
            if path:
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in (importlib.import_module(package), *modules.values()):
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def _sum(self, name: str, caller=None) -> tuple[int, float, float]:
        calls = total = self_s = 0
        for (_, parent_name, n), (c, t, s) in self.agg.items():
            if n == name and (caller is None or parent_name == caller):
                calls += c
                total += t
                self_s += s
        for sp in self.spans:
            if sp["name"] == name:
                calls += 1
                total += sp["end_s"] - sp["start_s"]
                self_s += sp["self_s"]
        return calls, total, self_s

    def self_times(self) -> dict[str, dict]:
        names = {k[2] for k in self.agg} | {sp["name"] for sp in self.spans}
        out = {}
        for name in sorted(names):
            calls, total, self_s = self._sum(name)
            out[name] = {"calls": calls, "total_s": total, "self_s": self_s}
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); ratios next to their base."""
        cnt = self.counters.get

        def calls(name, caller=None):
            return self._sum(name, caller)[0]

        def secs(name):
            return self._sum(name)[1]

        def ratio(num, den):
            return num / den if den else 0.0

        strip_calls = calls("freewords._strip_search")
        products = cnt("freewords.strip_products", 0)
        lookups = calls("eocgroup.EocGroup._strip")
        strip_misses = calls("freewords._strip_search", caller="eocgroup.EocGroup._strip")
        mem_lookups = calls("eocgroup.EocGroup._power_of")
        mem_misses = calls("freewords.power_membership", caller="eocgroup.EocGroup._power_of")
        ball_s = secs("eocgroup.EocGroup.ball")
        elements = cnt("eocgroup.ball_elements", 0)
        cells = cnt("zdiscrim.matmul_cells", 0)
        return {
            "freewords.strip_calls": (strip_calls, "count"),
            "freewords.strip_s": (secs("freewords._strip_search"), "s"),
            "freewords.strip_products": (products, "count"),
            "freewords.strip_useful_ratio": (ratio(strip_calls, products), "ratio"),
            "freewords.membership_calls": (calls("freewords.power_membership"), "count"),
            "freewords.membership_s": (secs("freewords.power_membership"), "s"),
            "freewords.mul_calls": (calls("freewords.Word.__mul__"), "count"),
            "freewords.pow_calls": (calls("freewords.Word.__pow__"), "count"),
            "eocgroup.normalize_calls": (calls("eocgroup.EocGroup._from_syllables"), "count"),
            "eocgroup.normalize_s": (secs("eocgroup.EocGroup._from_syllables"), "s"),
            "eocgroup.ball_s": (ball_s, "s"),
            "eocgroup.ball_elements": (elements, "count"),
            "eocgroup.ball_elements_per_s": (ratio(elements, ball_s), "1/s"),
            "eocgroup.strip_lookups": (lookups, "count"),
            "eocgroup.strip_hit_ratio": (ratio(lookups - strip_misses, lookups), "ratio"),
            "eocgroup.membership_lookups": (mem_lookups, "count"),
            "eocgroup.membership_hit_ratio": (ratio(mem_lookups - mem_misses, mem_lookups), "ratio"),
            "eocgroup.groups_built": (calls("eocgroup.EocGroup.__init__"), "count"),
            "retraction.ascent_s": (secs("retraction.minimal_discriminating_p"), "s"),
            "retraction.p_tried": (
                calls("retraction._images_injective") + cnt("retraction.chain_p_tried", 0),
                "count",
            ),
            "retraction.apply_theta_calls": (calls("retraction.apply_theta"), "count"),
            "retraction.apply_theta_s": (secs("retraction.apply_theta"), "s"),
            "retraction.chain_s": (secs("retraction._apply_chain"), "s"),
            "retraction.apply_chain_calls": (calls("retraction._apply_chain"), "count"),
            "retraction.subtower_builds": (calls("retraction.subtower"), "count"),
            "zdiscrim.search_s": (secs("zdiscrim.minimal_complexity"), "s"),
            "zdiscrim.shell_s": (secs("zdiscrim._shell_vectors_cached"), "s"),
            "zdiscrim.shell_candidates": (cnt("zdiscrim.shell_candidates", 0), "count"),
            "zdiscrim.ball_points": (cnt("zdiscrim.ball_points", 0), "count"),
            "zdiscrim.matmul_cells": (cells, "count"),
            "zdiscrim.matmul_mb_computed": (cells * 8 / 1e6, "MB"),
            "bigpowers.threshold_s": (secs("bigpowers.threshold"), "s"),
            "bigpowers.certify_s": (secs("bigpowers.certify"), "s"),
            "bigpowers.sweep_tuples": (cnt("bigpowers.sweep_tuples", 0), "count"),
            "bigpowers.padded_words": (calls("bigpowers.build_padded"), "count"),
            "cli.commands": (calls(COMMAND), "count"),
            "cli.emit_s": (secs("cli._emit"), "s"),
        }
