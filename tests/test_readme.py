"""The README's CLI quick start runs as written."""

import re
import shlex
from pathlib import Path

from fluxlattice import open_system
from fluxlattice.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_commands():
    """Argument lists of the ``fluxlattice`` lines in the README's ``sh`` blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("fluxlattice ")]


def test_quick_start_runs(tmp_path):
    commands = quick_start_commands()
    subcommands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in commands} == set(subcommands)
    for argv in commands:
        # "--outdir out" and "out/dynamics.json" are relative to the working directory.
        argv = [str(tmp_path / a) if a == "out" or a.startswith("out/") else a for a in argv]
        assert main(argv) == 0, argv


def test_adiabatic_command_walks_each_ramp_once(tmp_path, monkeypatch):
    # One closed walk, and one walk of the stack of every T_phi's density matrix
    # (its single-excitation block: the vacuum row and column stay zero).
    walks = []
    original = open_system._substeps

    def counting(state, *args):
        walks.append(state.shape)
        return original(state, *args)

    monkeypatch.setattr(open_system, "_substeps", counting)
    (argv,) = [argv for argv in quick_start_commands() if argv[0] == "adiabatic"]
    argv = [str(tmp_path / a) if a == "out" else a for a in argv]
    tphis = argv[argv.index("--dephasing-us") + 1].split(",")
    assert len(tphis) == 2
    assert main(argv) == 0
    assert walks == [(4,), (len(tphis), 4, 4)]


def test_adiabatic_ramps_interpolate_their_chunks(tmp_path, monkeypatch):
    # The README ramp (100 gaps of 14 steps) puts 50 chunks in each of the
    # two groups of both walks.  Every group tries its chunk interpolant, one
    # prefix of 14 steps, and it converges (its tail about 2e-15 for each
    # rate set), so every chunk is one Lagrange combination: none is
    # multiplied out or stepped.
    tails, tail = [], open_system._chebyshev_tail

    def spy(values):
        tails.append(tail(values))
        return tails[-1]

    monkeypatch.setattr(open_system, "_chebyshev_tail", spy)
    (argv,) = [argv for argv in quick_start_commands() if argv[0] == "adiabatic"]
    assert main([str(tmp_path / a) if a == "out" else a for a in argv]) == 0
    assert [t.size for t in tails] == [1, 1, 2, 2]
    assert max(t.max() for t in tails) <= open_system.CHUNK_TAIL
