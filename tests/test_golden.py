"""Every README command, with text and with JSON output, against stored output.

Each golden file in ``tests/golden/`` holds ``exit <code>`` on its first line
and the command's exact stdout after it.  The floats printed by the IPS
oracle (verbs ``mle`` and ``ips``) are compared within 1e-12; every other
byte must match.  Run this file as a script to rewrite the goldens from the
current code.
"""

import re
import shlex
from pathlib import Path

import pytest

from toric_precision.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")
FLOAT_VERBS = ("mle", "ips")


def readme_commands() -> list[list[str]]:
    """Arguments of each ``toric-precision`` line in the README's shell blocks."""
    commands = []
    in_block = False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = line.strip() == "```sh"
            continue
        if in_block and line.startswith("toric-precision "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def cases() -> list[tuple[str, list[str]]]:
    out = []
    for argv in readme_commands():
        slug = re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv)).strip("-")
        for output in ("text", "json"):
            out.append((f"{slug}.{output}", argv + ["--output", output]))
    return out


def run_command(argv: list[str], capsys) -> str:
    code = main(argv)
    return f"exit {code}\n" + capsys.readouterr().out


def test_readme_has_every_verb():
    verbs = {argv[0] for argv in readme_commands()}
    assert verbs == {
        "facets", "blend", "verify", "tfp", "horn-tfp", "horn-validate",
        "horn-minimize", "mle", "ips", "patch",
    }


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_matches_golden(name, argv, capsys, monkeypatch):
    monkeypatch.delenv("TORIC_PRECISION_FIXTURES", raising=False)
    got = run_command(argv, capsys)
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if argv[0] not in FLOAT_VERBS:
        assert got == want
        return
    assert FLOAT.sub("<float>", got) == FLOAT.sub("<float>", want)
    got_floats = [float(x) for x in FLOAT.findall(got)]
    want_floats = [float(x) for x in FLOAT.findall(want)]
    assert got_floats == pytest.approx(want_floats, rel=0, abs=1e-12)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in cases():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        (GOLDEN / name).write_text(f"exit {code}\n" + buffer.getvalue(), encoding="utf-8")
