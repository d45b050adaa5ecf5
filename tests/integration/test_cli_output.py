"""The paper tables' CLI output, pinned byte for byte, and the
experiment verb table.

Each pin is the sha256 of what ``repro <verb>`` prints; a change that
moves one character of a printed table fails here.  The verbs that
solve an LP (``explore``, ``stability``, ``verify``) are not pinned:
their output follows the solver.
"""

import hashlib
import inspect

import pytest

from repro.cli import _EXPERIMENTS, _experiment, build_parser, main

PINNED = {
    "table1": "0166659089f822968cb3021145a044b7338962db676053f6641191ae4f61fb8e",
    "table2 --m 8 --k 3 --p 100": "b3400d8fe4344cbc5eb5e76580ebe6d02721cbda9431e139a939707f6b78f007",
    "fig03": "4594ddfbaeb27456ca22de40c00a25b7992bf1eed1893da0efe761b5def0d727",
    "fig08": "896dcbe6d9cbd07527e2c99336b49e32839caa590794cfef0130e0c3c5595017",
    "ratios": "f80ce3c2321de21a0fa5a5e95030e6018090f600aaa43acc24c426665ac142dc",
    "tails": "48653bbeecd0adc7f609fee012f17da406a2b98a8060f34dae516d6e5994f803",
}


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_table_output_is_pinned(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]


@pytest.mark.parametrize("verb", sorted(_EXPERIMENTS))
def test_experiment_flags_are_function_parameters(verb):
    """Every flag of an experiment verb is a keyword parameter of the
    function it runs, so the one handler can pass the parsed flags
    through: a flag added without its parameter fails here, not at run
    time."""
    (sub,) = build_parser()._subparsers._group_actions
    flags = {a.dest for a in sub.choices[verb]._actions if a.dest != "help"}
    assert flags <= set(inspect.signature(_experiment(verb)).parameters)
