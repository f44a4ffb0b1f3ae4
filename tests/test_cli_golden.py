"""Pinned CLI transcripts: the exact stdout of each report over the built-ins.

`cli_golden.txt` holds one block per command: a `$ causalres ...` line
followed by what that command printed. Any change to a verdict, a
certificate, a vertex list or the formatting of a fraction shows up here as
a byte difference, where the determinism test only sees two runs agree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from causalres.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.txt")

BITS = (
    "bit1 bit2 bit3 bit4 bit5 bit6 bit7 bit8 incomp_a incomp_b "
    "mono_beta_a mono_beta_b mono_alpha_a mono_alpha_b mono_gamma_a mono_gamma_b"
)

COMMANDS = (
    f"monotones {BITS} trit_mix",
    f"closure {BITS}",
    f"game {BITS} trit_mix",
    f"ace {BITS}",
    "convert bit1 bit2",
    "convert bit7 bit8",
    "convert bit7 bit7",
    "convert bit4 bit5",
    f"hasse {BITS}",
    f"hasse --format report {BITS}",
    "game --prior 9/10,1/10 bit2",
    "closure trit_mix",
)


def transcript_blocks(text: str) -> dict[str, str]:
    """Map each command line to the stdout recorded under it."""
    blocks: dict[str, str] = {}
    command = None
    for line in text.splitlines(keepends=True):
        if line.startswith("$ causalres "):
            command = line[len("$ causalres ") :].rstrip("\n")
            blocks[command] = ""
        else:
            blocks[command] += line
    return blocks


def test_transcript_lists_exactly_the_pinned_commands():
    assert list(transcript_blocks(GOLDEN.read_text(encoding="utf-8"))) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[:40])
def test_stdout_matches_the_transcript(capsys, command):
    expected = transcript_blocks(GOLDEN.read_text(encoding="utf-8"))[command]
    assert main(command.split()) == 0
    assert capsys.readouterr().out == expected
