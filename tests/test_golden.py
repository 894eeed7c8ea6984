"""Frozen CLI outputs, replayed through ``cli.main`` in process.

``golden/outputs.json`` lists commands, each with its group spec inline
and its expected exit code, stdout (``wall_ms`` column blanked) and
stderr.  In an argv and in the outputs, ``{spec}`` stands for the path
of the spec file.  Rewrite the expected outputs from the current code
with

    PYTHONPATH=src python tests/test_golden.py

Any diff that makes is an output change.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from discrimlab.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "outputs.json"


def blank_wall(text):
    """The lines of `text`, with every CSV ``wall_ms`` field emptied and ``#`` lines as they are."""
    lines, wall = [], None
    for line in text.splitlines():
        fields = line.split(",")
        if not line.startswith("#"):
            if wall is None:
                wall = fields.index("wall_ms") if "wall_ms" in fields else -1
            elif wall >= 0:
                fields[wall] = ""
        lines.append(",".join(fields))
    return lines


def replay(entry, directory):
    """(exit code, stdout lines, stderr lines) of `entry`'s command, its spec put in `directory`."""
    path = str(pathlib.Path(directory) / "spec.json")
    pathlib.Path(path).write_text(json.dumps(entry["spec"]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{spec}", path) for arg in entry["argv"]])
    return (
        code,
        blank_wall(out.getvalue().replace(path, "{spec}")),
        err.getvalue().replace(path, "{spec}").splitlines(),
    )


ENTRIES = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_output_is_frozen(tmp_path, entry):
    assert replay(entry, tmp_path) == (entry["code"], entry["stdout"], entry["stderr"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        for entry in ENTRIES:
            entry["code"], entry["stdout"], entry["stderr"] = replay(entry, directory)
    GOLDEN.write_text(json.dumps(ENTRIES, indent=1) + "\n")
