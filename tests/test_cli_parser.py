"""Per-call parser selection: `cli.main` builds only the subcommand it runs.

Every outcome is compared with `main` run on the full `build_parser()` in the
same interpreter, because argparse's help and error text differs between
Python versions, so pinned digests would not be portable.
"""

import argparse

import pytest

from discwalk import cli

_SUBCOMMANDS = ["expand", "walk", "check", "gram", "counterexample", "plot-data"]

_ARGVS = (
    [[name, "-h"] for name in _SUBCOMMANDS]
    # with no options each subcommand misses a required input (argparse's or the handler's)
    + [[name] for name in _SUBCOMMANDS]
    + [
        [],
        ["-h"],
        ["bogus"],
        ["--q", "3", "walk"],
        ["check", "--nmax", "5"],
        ["walk", "--op", "bad"],
        ["check", "--set", '{"finite": [-1, 4], "progressions": [{"offset": 0, "step": 2}]}'],
        ["counterexample", "--case", "iii", "--q", "2"],
    ]
)


def _argv_id(argv):
    return " ".join(argv) or "(none)"


def _outcome(capsys, argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", _ARGVS, ids=_argv_id)
def test_selected_parser_matches_the_full_parser(argv, columns, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    selected = _outcome(capsys, argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert selected == _outcome(capsys, argv)


@pytest.mark.parametrize(
    "argv, built",
    [([name, "-h"], 1) for name in _SUBCOMMANDS] + [([], 6), (["-h"], 6), (["bogus"], 6)],
    ids=lambda value: _argv_id(value) if isinstance(value, list) else str(value),
)
def test_only_the_named_subcommand_is_built(argv, built, capsys, monkeypatch):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    cli.main(argv)
    assert len(calls) == built
    assert calls == (argv[:1] if built == 1 else _SUBCOMMANDS)
