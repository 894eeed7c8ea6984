import argparse
import contextlib
import importlib.util
import io
import json
import pathlib
import re

import pytest

from discrimlab import retraction
from discrimlab.cli import _raw_word_agreement, build_parser, main
from discrimlab.eocgroup import load_group_spec
from discrimlab.errors import CertificationError
from discrimlab.zdiscrim import ZnHom
from oracles import brute_raw_word_agreement

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference"
ZN_REFERENCE = REFERENCE / "zn.json"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()

G1_SPEC = '{"free_rank": 2, "stages": [{"u": "g1", "rank": 1}]}'
G1_RANK2_SPEC = '{"free_rank": 2, "stages": [{"u": "g1", "rank": 2}]}'
TOWER_SPEC = '{"free_rank": 2, "stages": [{"u": "g1", "rank": 1}, {"u": "g2", "rank": 1}]}'
TOWER3_SPEC = (
    '{"free_rank": 2, "stages": [{"u": "g1", "rank": 1}, {"u": "g2", "rank": 1},'
    ' {"u": "g1 g2", "rank": 1}]}'
)
# the top stage's p_min is 2 at r = 3, but the composite's least injective p is 6
RANK3_TOWER_SPEC = (
    '{"free_rank": 3, "stages": [{"u": "g2", "rank": 2}, {"u": "G2 G3", "rank": 1},'
    ' {"u": "g1 g3 G2", "rank": 1}]}'
)
G1G2_SPEC = '{"free_rank": 2, "stages": [{"u": "g1 g2", "rank": 1}]}'
CONJUGATE_TOWER_SPEC = (
    '{"free_rank": 2, "stages": [{"u": "g1", "rank": 1}, {"u": "g1 g2 G1", "rank": 1}]}'
)


@pytest.fixture
def g1_spec(tmp_path):
    p = tmp_path / "g1.json"
    p.write_text(G1_SPEC)
    return str(p)


@pytest.fixture
def tower_spec(tmp_path):
    p = tmp_path / "tower.json"
    p.write_text(TOWER_SPEC)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def strip_wall(text):
    """Drop wall-clock fields for byte-comparison of reruns."""
    return re.sub(r"[\d.]+\s*$", "", text, flags=re.M)


def data_rows(out):
    """CSV data rows, header included, without ``#`` lines and the wall_ms column."""
    lines = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")]
    if "wall_ms" in lines[0]:
        wall = lines[0].index("wall_ms")
        lines = [l[:wall] + l[wall + 1 :] for l in lines]
    return lines


# metadata keys that are not parsed options
DERIVED_META = {
    "tool", "version", "command", "k",
    "composite_p", "composite_complexity", "composite_bound", "p_min_certificates",
}


def assert_meta_reproduces_row(capsys, argv):
    """The jsonl metadata of `argv` echoes every parsed option, and the
    command rebuilt from it alone gives the same rows."""
    code, out = run(capsys, *argv, "--format", "jsonl")
    assert code == 0
    meta, *rows = (json.loads(l) for l in out.splitlines())
    meta = meta["meta"]
    rebuilt = [meta["command"]]
    for key, value in meta.items():
        if key in DERIVED_META or value is None:
            continue
        for v in value if isinstance(value, list) else [value]:
            rebuilt += ["--" + key.replace("_", "-"), str(v)]
    parsed, again_parsed = (vars(build_parser().parse_args(a)) for a in (argv, rebuilt))
    assert again_parsed == parsed
    code, out = run(capsys, *rebuilt, "--format", "jsonl")
    assert code == 0
    again = [json.loads(l) for l in out.splitlines()[1:]]
    for row in rows + again:
        row.pop("wall_ms", None)
    assert again == rows
    return meta


class TestZn:
    def test_rows_and_sandwich(self, capsys):
        code, out = run(capsys, "zn", "--n", "2", "--rmax", "6")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0].startswith("n,R,")
        assert len(rows) == 8  # header + R = 0..6
        for row in rows[1:]:
            n, R, lbn, lbd, exact, upper, _ = row.split(",")
            assert int(lbn) / int(lbd) <= int(exact) <= int(upper)

    @pytest.mark.parametrize(
        "label, argv",
        [
            ("zn-n4-r4", ["zn", "--n", "4", "--rmax", "4"]),
            ("zn-n3-r8", ["zn", "--n", "3", "--rmax", "8"]),
        ],
    )
    def test_rows_match_frozen_reference(self, capsys, label, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert data_rows(out) == json.loads(ZN_REFERENCE.read_text())[label]

    @pytest.mark.parametrize(
        "n, shape, rmax, expect_code",
        [
            (2, "l1", 8, 0),
            (3, "l1", 8, 0),
            (3, "box", 4, 0),
            (4, "l1", 4, 0),
            (4, "box", 1, 0),
            (4, "box", 2, 3),
        ],
    )
    def test_rmin_rows_are_the_sweep_tail(self, capsys, n, shape, rmax, expect_code):
        # each radius starts its search at the last radius's minimum, so a
        # sweep from rmin > 0 must print what the sweep from 0 prints there;
        # the n = 2 l1 minima repeat (3 at R = 3 and 4), so a start past the
        # last minimum shows there
        argv = ["zn", "--n", str(n), "--shape", shape, "--rmax", str(rmax)]
        code, out = run(capsys, *argv)
        assert code == expect_code
        full = data_rows(out) if code == 0 else None
        for k in range(1, rmax + 1):
            code, out = run(capsys, *argv, "--rmin", str(k))
            assert code == expect_code, k
            if full is not None:
                assert data_rows(out) == full[:1] + full[1 + k :], k

    def test_theta_ceiling_violation_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("discrimlab.zdiscrim.theta", lambda n, R: ZnHom((1,) * n))
        code = main(["zn", "--n", "2", "--rmin", "2", "--rmax", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: theta ceiling violated")
        assert "Traceback" not in err

    def test_n1_constant(self, capsys):
        code, out = run(capsys, "zn", "--n", "1", "--rmax", "5")
        assert code == 0
        for row in out.splitlines():
            if row and not row.startswith(("#", "n,")):
                assert row.split(",")[4] == "1"

    def test_jsonl(self, capsys):
        code, out = run(capsys, "zn", "--n", "2", "--rmax", "2", "--format", "jsonl")
        assert code == 0
        lines = out.strip().splitlines()
        meta = json.loads(lines[0])["meta"]
        assert meta["command"] == "zn" and meta["version"]
        assert all(json.loads(l)["exact_min"] >= 1 for l in lines[1:])

    def test_meta_reproduces_row(self, capsys):
        argv = ["zn", "--n", "2", "--rmin", "1", "--rmax", "3", "--shape", "box", "--budget", "5000"]
        meta = assert_meta_reproduces_row(capsys, argv)
        assert (meta["rmin"], meta["rmax"], meta["shape"], meta["budget"]) == (1, 3, "box", 5000)

    def test_rmin_above_rmax_exits_2(self, capsys):
        code, out = run(capsys, "zn", "--n", "2", "--rmin", "4", "--rmax", "2")
        assert code == 2
        assert out == ""

    def test_negative_budget_exits_2(self, capsys):
        code, out = run(capsys, "zn", "--n", "2", "--rmax", "2", "--budget", "-1")
        assert code == 2
        assert out == ""


# the commands of the curve-single and tower benchmark workloads
GROUP_REFERENCE_COMMANDS = [
    ("curve-single", "curve-g1-rank1-r7", G1_SPEC, ["curve", "--rmax", "7"]),
    ("curve-single", "curve-g1-rank2-r5", G1_RANK2_SPEC, ["curve", "--rmax", "5"]),
    ("tower", "curve-tower-r4", TOWER_SPEC, ["curve", "--rmax", "4"]),
    ("tower", "crosscheck-tower-r4", TOWER_SPEC, ["crosscheck", "--r", "4", "--seed", "1"]),
]


class TestGroupReferenceRows:
    @pytest.mark.parametrize(
        "workload, label, spec, argv",
        GROUP_REFERENCE_COMMANDS,
        ids=[label for _, label, _, _ in GROUP_REFERENCE_COMMANDS],
    )
    def test_rows_match_frozen_reference(self, capsys, tmp_path, workload, label, spec, argv):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        code, out = run(capsys, *argv, "--spec", str(path))
        assert code == 0
        assert data_rows(out) == json.loads((REFERENCE / f"{workload}.json").read_text())[label]


BIGPOWERS_LABELS = [label for label, _ in WORKLOADS.WORKLOADS["bigpowers"]["commands"]]


class TestBigpowersReferenceRows:
    """The 22-spec corpus and the three k = 3 specs of the bigpowers benchmark workload."""

    def test_all_rows_pinned(self):
        assert len(BIGPOWERS_LABELS) == 25
        assert set(BIGPOWERS_LABELS) == json.loads((REFERENCE / "bigpowers.json").read_text()).keys()

    @pytest.mark.parametrize("label", BIGPOWERS_LABELS)
    def test_rows_match_frozen_reference(self, capsys, tmp_path, label):
        argv = dict(WORKLOADS.materialize("bigpowers", 0, str(tmp_path)))[label]
        code, out = run(capsys, *argv)
        assert code == 0
        assert data_rows(out) == json.loads((REFERENCE / "bigpowers.json").read_text())[label]


class TestBigpowers:
    def test_frozen_example(self, capsys):
        code, out = run(
            capsys, "bigpowers", "--u", "g1", "--g", "g1 g1 g1 g2 G1 G1",
            "--samples", "50",
        )
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[1].split(",")[0] == "3"  # threshold
        assert "pass" in data[1]

    def test_unsound_threshold_exits_1_without_a_row(self, capsys, monkeypatch):
        # certify raises on a trivializing tuple above the threshold, so no
        # failing report reaches the verdict column
        def certify(spec, N, **kwargs):
            raise CertificationError(N, (N + 1,))

        monkeypatch.setattr("discrimlab.cli.certify", certify)
        code = main(["bigpowers", "--u", "g1", "--g", "g2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: trivializing tuple")
        assert captured.out == ""

    def test_invalid_g_exits_2(self, capsys):
        # PaddedWordSpec's ValueError reaches main, which prints it and exits 2
        for extra, err in [
            (["--g", "g1 g1"], "error: g_1 lies in <u>\n"),
            (["--g", "g2", "--flank-left", "g1"], "error: flank_left lies in <u>\n"),
        ]:
            code = main(["bigpowers", "--u", "g1", *extra])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", err), extra

    @pytest.mark.parametrize(
        "u, err",
        [
            ("g1 G1", "error: u must be nontrivial\n"),
            ("g1 g1", "error: u must be nontrivial and not a proper power\n"),
        ],
    )
    def test_invalid_u_exits_2(self, capsys, u, err):
        code = main(["bigpowers", "--u", u, "--g", "g2"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", err)

    @pytest.mark.parametrize("flag", ["--samples", "--sweep-cap"])
    def test_negative_count_exits_2(self, capsys, flag):
        code, out = run(capsys, "bigpowers", "--u", "g1", "--g", "g2", flag, "-1")
        assert code == 2
        assert out == ""

    def test_meta_reproduces_row(self, capsys):
        argv = [
            "bigpowers", "--u", "g1 g2", "--g", "G2 g1", "--g", "g2",
            "--flank-left", "g2 g2", "--samples", "40", "--seed", "9", "--sweep-cap", "3",
        ]
        meta = assert_meta_reproduces_row(capsys, argv)
        assert meta["g"] == ["G2 g1", "g2"] and meta["k"] == 2
        assert meta["flank_left"] == "g2 g2" and meta["flank_right"] is None
        assert (meta["samples"], meta["sweep_cap"], meta["seed"]) == (40, 3, 9)


class TestCurve:
    def test_single_stage(self, capsys, g1_spec):
        code, out = run(capsys, "curve", "--spec", g1_spec, "--rmax", "4")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith(("#", "R,"))]
        assert len(rows) == 5
        complexities = [int(r.split(",")[2]) for r in rows]
        assert complexities == sorted(complexities)

    def test_ascent_past_ceiling_exits_1(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("discrimlab.retraction._p_ceiling", lambda group, R: 1)
        # that ceiling lies below the floor, which the real one never does,
        # so the ascent starts at p = 1; a multi-letter u, as a RAAG spec
        # returns its floor without an ascent
        monkeypatch.setattr("discrimlab.retraction._floor", lambda group, R, k: 1)
        spec = tmp_path / "g1g2.json"
        spec.write_text(G1G2_SPEC)
        code = main(["curve", "--spec", str(spec), "--rmax", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: no injective p up to the ceiling")
        assert "Traceback" not in err

    def test_certificates_in_metadata(self, capsys, g1_spec):
        code, out = run(capsys, "curve", "--spec", g1_spec, "--rmax", "3", "--format", "jsonl")
        assert code == 0
        meta = json.loads(out.splitlines()[0])["meta"]
        assert meta["p_min_certificates"] == [
            {"R": 1, "p": 1, "pair": ["t1.1", "g1"]},
            {"R": 2, "p": 3, "pair": ["G1 t1.1", "g1 g1"]},
            {"R": 3, "p": 5, "pair": ["G1 G1 t1.1", "g1 g1 g1"]},
        ]

    def test_certificate_that_does_not_collide_exits_1(self, capsys, monkeypatch, g1_spec):
        def distinct_images(group, s, R, p):
            return group.element("t1.1"), group.identity()

        monkeypatch.setattr("discrimlab.retraction._split_pair", distinct_images)
        code = main(["curve", "--spec", g1_spec, "--rmax", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: p_min certificate at R=1 does not collide at p=1")

    def test_composite_above_its_bound_exits_1(self, capsys, monkeypatch, tower_spec):
        def over_bound(group, R, cap):
            return retraction.ChainResult(
                p=1, complexity=37, stage_complexities=[6, 6], bound=36,
                submultiplicative=[("g1", 37)],
            )

        monkeypatch.setattr("discrimlab.cli.compose_chain", over_bound)
        code = main(["curve", "--spec", tower_spec, "--rmax", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: composite image exceeds product of stage complexities\n"
        assert captured.out == ""

    def test_tower_emits_composite(self, capsys, tower_spec):
        code, out = run(capsys, "curve", "--spec", tower_spec, "--rmax", "2")
        assert code == 0
        assert "composite_complexity" in out and "composite_bound" in out

    @pytest.mark.parametrize(
        "stages, rmax, expected",
        [
            (TOWER_SPEC, 1, (2, 2, 4)),
            (TOWER_SPEC, 2, (4, 4, 16)),
            (TOWER_SPEC, 3, (6, 6, 36)),
            # a top-stage u that is not cyclically reduced: |u^4| = 2 + 4
            (CONJUGATE_TOWER_SPEC, 2, (4, 6, 24)),
        ],
        ids=["tower-r1", "tower-r2", "tower-r3", "conjugate-top-r2"],
    )
    def test_tower_composite_values(self, capsys, tmp_path, stages, rmax, expected):
        spec = tmp_path / "spec.json"
        spec.write_text(stages)
        code, out = run(capsys, "curve", "--spec", str(spec), "--rmax", str(rmax), "--format", "jsonl")
        assert code == 0
        meta = json.loads(out.splitlines()[0])["meta"]
        got = (meta["composite_p"], meta["composite_complexity"], meta["composite_bound"])
        assert got == expected

    def test_default_cap_stops_radius_9(self, capsys, g1_spec):
        # u = g1: the radius-9 ball has F(30) - 1 = 832,039 elements, which
        # the count finds past the cap before any tree is grown
        code = main(["curve", "--spec", g1_spec, "--rmax", "9"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: ball enumeration exceeded cap of 500000 elements at radius 9\n"
        assert captured.out == ""

    def test_missing_spec_exits_2(self, capsys, tmp_path):
        code, _ = run(capsys, "curve", "--spec", str(tmp_path / "nope.json"), "--rmax", "1")
        assert code == 2

    def test_meta_reproduces_row(self, capsys, tower_spec):
        argv = ["curve", "--spec", tower_spec, "--rmin", "1", "--rmax", "2", "--cap", "100000"]
        meta = assert_meta_reproduces_row(capsys, argv)
        assert (meta["rmin"], meta["rmax"], meta["cap"]) == (1, 2, 100000)
        assert "composite_complexity" in meta

    def test_rmin_above_rmax_exits_2(self, capsys, g1_spec):
        code, out = run(capsys, "curve", "--spec", g1_spec, "--rmin", "3", "--rmax", "2")
        assert code == 2
        assert out == ""

    def test_negative_cap_exits_2(self, capsys, g1_spec):
        code, out = run(capsys, "curve", "--spec", g1_spec, "--rmax", "2", "--cap", "-5")
        assert code == 2
        assert out == ""


class TestBall:
    def test_sizes(self, capsys, g1_spec):
        code, out = run(capsys, "ball", "--spec", g1_spec, "--rmax", "2")
        assert code == 0
        sizes = [
            int(l.split(",")[1])
            for l in out.splitlines()
            if l and not l.startswith(("#", "R,"))
        ]
        assert sizes == [1, 7, 33]

    def test_budget_exits_3(self, capsys, g1_spec):
        code, _ = run(capsys, "ball", "--spec", g1_spec, "--rmax", "8", "--cap", "50")
        assert code == 3

    def test_meta_reproduces_row(self, capsys, g1_spec):
        meta = assert_meta_reproduces_row(
            capsys, ["ball", "--spec", g1_spec, "--rmax", "3", "--cap", "1000"]
        )
        assert (meta["rmax"], meta["cap"]) == (3, 1000)

    def test_negative_rmax_exits_2(self, capsys, g1_spec):
        code, out = run(capsys, "ball", "--spec", g1_spec, "--rmax", "-2")
        assert code == 2
        assert out == ""

    def test_negative_cap_exits_2_and_zero_cap_exits_3(self, capsys, g1_spec):
        code, out = run(capsys, "ball", "--spec", g1_spec, "--rmax", "2", "--cap", "-5")
        assert code == 2
        assert out == ""
        code, _ = run(capsys, "ball", "--spec", g1_spec, "--rmax", "2", "--cap", "0")
        assert code == 3

    @pytest.mark.parametrize(
        "spec",
        [
            '{"free_rank": 2, "stages": 5}',
            '{"free_rank": 2, "stages": [{"u": 5, "rank": 1}]}',
            '{"free_rank": [2], "stages": []}',
            '{"free_rank": 2, "stages": [{"u": "g1", "rank": 1.7}]}',
            '{"free_rank": 2.5, "stages": []}',
        ],
        ids=["stages-not-list", "u-not-string", "free-rank-list", "rank-float", "free-rank-float"],
    )
    def test_malformed_spec_exits_2(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        code = main(["ball", "--spec", str(path), "--rmax", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class TestCrosscheck:
    def test_agreement(self, capsys, g1_spec):
        code, out = run(capsys, "crosscheck", "--spec", g1_spec, "--r", "3")
        assert code == 0
        assert "agreement,pass" in out

    @pytest.mark.parametrize(
        "spec, r", [(TOWER_SPEC, 4), (TOWER3_SPEC, 3)], ids=["tower-r4", "tower3-r3"]
    )
    def test_raw_words_checked_counts_words_without_inverse_pairs(self, capsys, tmp_path, spec, r):
        # n generators give n (n - 1)^(k - 1) words of length k: 3,201 for
        # the tower at r = 4 and 911 for the three-stage tower at r = 3
        path = tmp_path / "spec.json"
        path.write_text(spec)
        code, out = run(capsys, "crosscheck", "--spec", str(path), "--r", str(r))
        n = len(load_group_spec(spec).generator_tokens())
        expected = 1 + sum(n * (n - 1) ** (k - 1) for k in range(1, r + 1))
        assert code == 0
        assert f"raw_words_checked,{expected}\n" in out
        assert expected == {4: 3201, 3: 911}[r]

    def test_tower_uses_the_composite_p(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(RANK3_TOWER_SPEC)
        code, out = run(capsys, "crosscheck", "--spec", str(path), "--r", "3")
        assert code == 0
        assert "p_min,2\n" in out and "p_used,6\n" in out and "agreement,pass\n" in out

    def test_corrupted_p_detected(self, capsys, g1_spec):
        # the first disagreeing raw word in breadth-first order is reported
        for r, p, word in [(2, 1, [1, ("t", 0, -1)]), (3, 2, [1, 1, ("t", 0, -1)])]:
            code = main(["crosscheck", "--spec", g1_spec, "--r", str(r), "--force-p", str(p)])
            err = capsys.readouterr().err
            assert code == 1
            assert err == f"error: triviality verdicts disagree at p={p} on raw word {word!r}\n"

    @pytest.mark.parametrize(
        "spec",
        [G1_SPEC, G1_RANK2_SPEC, TOWER_SPEC, G1G2_SPEC, RANK3_TOWER_SPEC],
        ids=["g1", "g1-rank2", "tower", "g1g2", "rank3-tower"],
    )
    def test_walk_matches_per_word_scan(self, spec):
        group = load_group_spec(spec)
        for r in range(4):
            for p in {retraction.compose_chain(group, r).p, 1, 2, 3, 5}:
                walked = _raw_word_agreement(group, r, p)
                assert walked == brute_raw_word_agreement(group, r, p), (r, p)

    @pytest.mark.parametrize("spec, ascents", [(G1_SPEC, 1), (TOWER_SPEC, 2)], ids=["g1", "tower"])
    def test_one_ascent_per_retraction(self, capsys, monkeypatch, tmp_path, spec, ascents):
        # on one stage p_used is the p_min just computed; a tower also
        # ascends its composite
        calls = []
        ascend = retraction._least_injective_p

        def spy(*args):
            calls.append(args)
            return ascend(*args)

        monkeypatch.setattr(retraction, "_least_injective_p", spy)
        path = tmp_path / "spec.json"
        path.write_text(spec)
        code, out = run(capsys, "crosscheck", "--spec", str(path), "--r", "3")
        assert code == 0 and "agreement,pass\n" in out
        assert len(calls) == ascents

    @pytest.mark.parametrize(
        "spec, raag", [(G1_SPEC, True), (TOWER_SPEC, True), (G1G2_SPEC, False)],
        ids=["g1", "tower", "g1g2"],
    )
    def test_raag_p_min_is_walked(self, capsys, monkeypatch, tmp_path, spec, raag):
        # a RAAG ascent proves p_min with no walk, so crosscheck walks the
        # grown ball at p_min and p_min - 1; a multi-letter ascent walks
        # its own way up to p_min, and crosscheck adds no walk
        calls = []
        walk = retraction._images_injective

        def spy(group, R, p, ball, k):
            calls.append(p)
            assert len(ball) == group.ball_size(R)
            return walk(group, R, p, ball, k)

        monkeypatch.setattr(retraction, "_images_injective", spy)
        monkeypatch.setattr("discrimlab.cli._images_injective", spy)
        p_min = retraction.minimal_discriminating_p(load_group_spec(spec), 3)
        ascent = calls[:]
        calls.clear()
        path = tmp_path / "spec.json"
        path.write_text(spec)
        code = main(["crosscheck", "--spec", str(path), "--r", "3", "--force-p", str(p_min)])
        assert code == 0 and f"p_min,{p_min}\n" in capsys.readouterr().out
        assert calls == ascent + ([p_min, p_min - 1] if raag else [])
        assert (ascent == []) == raag

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_raag_p_min_against_the_walk(self, capsys, monkeypatch, g1_spec, shift):
        proven = retraction.minimal_discriminating_p
        monkeypatch.setattr(
            "discrimlab.cli.minimal_discriminating_p",
            lambda group, R, cap: proven(group, R, cap=cap) + shift,
        )
        code = main(["crosscheck", "--spec", g1_spec, "--r", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: the ball walk disagrees with p_min={6 + shift}\n"

    def test_meta_reproduces_row(self, capsys, g1_spec):
        argv = [
            "crosscheck", "--spec", g1_spec, "--r", "2", "--samples", "7", "--seed", "4",
            "--cap", "10000", "--force-p", "5",
        ]
        meta = assert_meta_reproduces_row(capsys, argv)
        assert (meta["samples"], meta["cap"], meta["force_p"]) == (7, 10000, 5)

    def test_negative_samples_exits_2(self, capsys, g1_spec):
        code, out = run(capsys, "crosscheck", "--spec", g1_spec, "--samples", "-3")
        assert code == 2
        assert out == ""

    def test_negative_cap_exits_2(self, capsys, g1_spec):
        code, out = run(capsys, "crosscheck", "--spec", g1_spec, "--r", "2", "--cap", "-5")
        assert code == 2
        assert out == ""

    def test_force_p_below_1_exits_2_before_any_work(self, capsys, monkeypatch, g1_spec):
        def no_work(*args, **kwargs):
            raise AssertionError("ran work before rejecting --force-p")

        monkeypatch.setattr("discrimlab.cli._load_group", no_work)
        code, out = run(capsys, "crosscheck", "--spec", g1_spec, "--r", "2", "--force-p", "0")
        assert code == 2
        assert out == ""


class TestOutput:
    def test_atomic_file_write(self, capsys, tmp_path):
        out_path = tmp_path / "zn.csv"
        code, _ = run(capsys, "zn", "--n", "2", "--rmax", "2", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# tool=discrimlab")
        assert not list(tmp_path.glob(".tmp-*"))

    def test_rerun_identical_modulo_wallclock(self, capsys):
        _, out1 = run(capsys, "zn", "--n", "2", "--rmax", "3")
        _, out2 = run(capsys, "zn", "--n", "2", "--rmax", "3")
        assert strip_wall(out1) == strip_wall(out2)

    def test_meta_has_version_and_seed(self, capsys, g1_spec):
        _, out = run(capsys, "crosscheck", "--spec", g1_spec, "--r", "1")
        assert "# version=" in out and "# seed=0" in out

    def test_only_exact_numbers_printed(self, capsys, tmp_path, g1_spec, tower_spec):
        # every number but the wall clock is an exact integer: no float, and
        # no string that reads as a non-integer number
        def inexact(value):
            if isinstance(value, dict):
                return [x for k, v in value.items() if k != "wall_ms" for x in inexact(v)]
            if isinstance(value, list):
                return [x for v in value for x in inexact(v)]
            if isinstance(value, float):
                return [value]
            if isinstance(value, str):
                try:
                    int(value)
                except ValueError:
                    try:
                        float(value)
                    except ValueError:
                        return []
                    return [value]
            return []

        g1g1g2 = tmp_path / "g1g1g2.json"
        g1g1g2.write_text('{"free_rank": 2, "stages": [{"u": "g1 g1 g2", "rank": 1}]}')
        commands = [
            ["zn", "--n", "3", "--rmax", "3"],
            ["bigpowers", "--u", "g1", "--g", "g2", "--g", "g1 g2", "--samples", "50"],
            ["curve", "--spec", tower_spec, "--rmax", "3"],
            ["curve", "--spec", str(g1g1g2), "--rmax", "4"],
            ["ball", "--spec", g1_spec, "--rmax", "4"],
            ["crosscheck", "--spec", tower_spec, "--r", "2", "--samples", "20"],
        ]
        for argv in commands:
            code, out = run(capsys, *argv, "--format", "jsonl")
            assert code == 0, argv
            records = [json.loads(l) for l in out.splitlines()]
            assert inexact(records) == [], argv

    def test_bad_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2


COMMANDS = ["zn", "bigpowers", "curve", "ball", "crosscheck"]
# one argv per command that parses, with every required option
VALID_ARGV = {
    "zn": ["zn", "--n", "2", "--rmax", "1"],
    "bigpowers": ["bigpowers", "--u", "g1", "--g", "g2"],
    "curve": ["curve", "--spec", "g.json", "--rmax", "1"],
    "ball": ["ball", "--spec", "g.json", "--rmax", "1"],
    "crosscheck": ["crosscheck", "--spec", "g.json"],
}
MISSING_REQUIRED = {
    "zn": ["zn", "--n", "2"],
    "bigpowers": ["bigpowers", "--u", "g1"],
    "curve": ["curve", "--rmax", "1"],
    "ball": ["ball", "--spec", "g.json"],
    "crosscheck": ["crosscheck", "--r", "2"],
}
REJECTED_ARGVS = (
    [["--help"], ["--version"], [], ["nope"]]
    + [[c, "--help"] for c in COMMANDS]
    + list(MISSING_REQUIRED.values())
    + [VALID_ARGV[c] + ["--bogus"] for c in COMMANDS]
    + [VALID_ARGV[c] + ["extra"] for c in COMMANDS]
)
WORKLOAD_COMMANDS = [
    (workload, label) for workload, w in WORKLOADS.WORKLOADS.items() for label, _ in w["commands"]
]


def full_parser_result(argv):
    """Exit code, stdout and stderr of the five-command parser rejecting argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
    return raised.value.code, out.getvalue(), err.getvalue()


class TestParserSurface:
    """main builds only the invoked command's parser, and no text shows it."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", REJECTED_ARGVS, ids=" ".join)
    def test_main_answers_as_the_full_parser(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == full_parser_result(argv)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unrecognized_argument_usage_lists_every_command(self, capsys, command):
        assert main(VALID_ARGV[command] + ["--bogus"]) == 2
        usage = capsys.readouterr().err.splitlines()[0]
        assert "{zn,bigpowers,curve,ball,crosscheck}" in usage

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["nope"], "argument command: invalid choice"),
        ],
    )
    def test_full_parser_errors_name_the_command(self, capsys, argv, message):
        # the usage line's list of commands is no argument name
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("workload, label", WORKLOAD_COMMANDS)
    def test_workload_namespace_is_the_full_parsers(self, tmp_path, workload, label):
        argv = dict(WORKLOADS.materialize(workload, 0, str(tmp_path)))[label]
        trimmed = build_parser([argv[0]]).parse_args(argv)
        assert trimmed == build_parser().parse_args(argv)
        assert trimmed.command == argv[0]

    def test_a_call_builds_only_the_parser_it_runs(self, capsys, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        assert main(["bigpowers", "--u", "g1", "--g", "g2", "--samples", "0"]) == 0
        assert built == ["bigpowers"]
        built.clear()
        assert main(["--help"]) == 0
        assert built == COMMANDS
