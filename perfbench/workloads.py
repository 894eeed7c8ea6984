"""Workload definitions: group specs and CLI argument lists.

Each workload is a fixed list of CLI commands issued back to back in one
process.  A command is identified by a seed-independent label, which is
also its key in the reference file ``reference/<workload>.json``.
Argument templates may name a spec (``{spec:NAME}``, replaced by the path
of the JSON file the child writes) or the workload seed (``{seed}``).

Why these four workloads, and which layers each one should move, is
written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import json
import os

U_G1_RANK1 = {"free_rank": 2, "stages": [{"u": "g1", "rank": 1}]}
U_G1_RANK2 = {"free_rank": 2, "stages": [{"u": "g1", "rank": 2}]}
TOWER_G1_G2 = {
    "free_rank": 2,
    "stages": [{"u": "g1", "rank": 1}, {"u": "g2", "rank": 1}],
}

# the fixed big-powers regression corpus over F_2 (|u| <= 4, sum |g_i| <= 8)
BIGPOWERS_CORPUS = [
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
    ("g1", ("g2", "g1 g2 G1")),
    ("g1 g2", ("G2 G1 G2",)),
    ("g2 G1", ("g1 g2",)),
    ("g1", ("G2", "g2", "G2")),
]

# k = 3 specs whose certify sweeps run over long u-powers
BIGPOWERS_K3 = [
    ("g1", ("g1 g1 g1 g2 G1 G1", "g2 g2", "G2")),
    ("g1", ("g1 g1 g1 g1 g2 G1 G1 G1", "g2 g1 g2", "G2 G2")),
    ("g1 g2", ("g1 g2 g1 g2 g1", "G1", "g1 g1")),
]


def _bigpowers_commands() -> list[tuple[str, list[str]]]:
    out = []
    for i, (u, gs) in enumerate(BIGPOWERS_CORPUS + BIGPOWERS_K3):
        argv = ["bigpowers", "--u", u]
        for g in gs:
            argv += ["--g", g]
        argv += ["--seed", "{seed}"]
        out.append((f"bigpowers-{i:02d}", argv))
    return out


WORKLOADS: dict[str, dict] = {
    "curve-single": {
        "specs": {"u_g1_rank1": U_G1_RANK1, "u_g1_rank2": U_G1_RANK2},
        "commands": [
            ("curve-g1-rank1-r7", ["curve", "--spec", "{spec:u_g1_rank1}", "--rmax", "7"]),
            ("curve-g1-rank2-r5", ["curve", "--spec", "{spec:u_g1_rank2}", "--rmax", "5"]),
        ],
    },
    "tower": {
        "specs": {"tower_g1_g2": TOWER_G1_G2},
        "commands": [
            ("curve-tower-r4", ["curve", "--spec", "{spec:tower_g1_g2}", "--rmax", "4"]),
            (
                "crosscheck-tower-r4",
                ["crosscheck", "--spec", "{spec:tower_g1_g2}", "--r", "4", "--seed", "{seed}"],
            ),
        ],
    },
    "zn": {
        "specs": {},
        "commands": [
            ("zn-n4-r4", ["zn", "--n", "4", "--rmax", "4"]),
            ("zn-n3-r8", ["zn", "--n", "3", "--rmax", "8"]),
        ],
    },
    "bigpowers": {
        "specs": {},
        "commands": _bigpowers_commands(),
    },
}


def materialize(
    workload: str, seed: int, spec_dir: str, commands=None
) -> list[tuple[str, list[str]]]:
    """Write the workload's spec files into spec_dir and return (label, argv) pairs.

    ``commands`` overrides the workload's command list (used by the
    self-tests); its templates may still name the workload's specs.
    """
    w = WORKLOADS[workload]
    paths = {}
    for name, doc in w["specs"].items():
        path = os.path.join(spec_dir, f"{name}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        paths[name] = path
    out = []
    for label, template in commands if commands is not None else w["commands"]:
        argv = []
        for arg in template:
            if arg == "{seed}":
                arg = str(seed)
            elif arg.startswith("{spec:"):
                arg = paths[arg[len("{spec:"):-1]]
            argv.append(arg)
        out.append((label, argv))
    return out
