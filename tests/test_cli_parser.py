"""Parser selection and reuse: `cli.main` builds only the subcommand it runs,
once per process, and reuses that parser on later calls.

Every outcome is compared with `main` run on the full `build_parser()` in the
same interpreter, because argparse's help and error text differs between
Python versions, so pinned digests would not be portable.
"""

import argparse
import subprocess
import sys

import pytest

from discwalk import cli

_SUBCOMMANDS = ["expand", "walk", "check", "gram", "counterexample", "plot-data"]
_SET = '{"finite": [-1, 4], "progressions": [{"offset": 0, "step": 2}]}'

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
        ["check", "--set", _SET],
        ["counterexample", "--case", "iii", "--q", "2"],
    ]
)


def _argv_id(argv):
    return " ".join(argv) or "(none)"


def _outcome(capsys, argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _use_full_parsers(monkeypatch):
    """Make `cli.main` parse with a freshly built full parser on every call."""
    monkeypatch.setattr(cli, "_parser", lambda command: cli.build_parser())


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", _ARGVS, ids=_argv_id)
def test_selected_parser_matches_the_full_parser(argv, columns, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    selected = _outcome(capsys, argv)
    _use_full_parsers(monkeypatch)
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
    cli._parser.cache_clear()
    cli.main(argv)
    assert len(calls) == built
    assert calls == (argv[:1] if built == 1 else _SUBCOMMANDS)
    calls.clear()
    cli.main(argv)
    assert calls == []


def test_param_lists_do_not_leak_into_the_next_call(capsys):
    first = _outcome(capsys, ["gram", "--builtin", "aktas", "--param", "t=0.3", "--q", "3", "--points", "8"])
    second = _outcome(capsys, ["gram", "--builtin", "exponential", "--q", "3", "--points", "8"])
    assert (first[0], first[2]) == (0, "")
    assert (second[0], second[2]) == (0, "")


_FAMILY = ["--builtin", "exponential", "--q", "2"]
_REUSE_ARGVS = [
    ["expand", *_FAMILY, "--mmax", "4", "--nmax", "4", "--out", "OUT"],
    ["walk", "--op", "dz", "--in", "TABLE", "--out", "OUT"],
    ["walk", "--op", "iz", "--in", "TABLE", "--out", "OUT"],
    ["check", "--in", "TABLE"],
    ["check", "--set", _SET],
    ["gram", "--builtin", "aktas", "--param", "t=0.3", "--q", "3", "--points", "8"],
    ["gram", "--in", "TABLE", "--points", "6", "--seed", "7"],
    ["counterexample", "--case", "ii", "--q", "3", "--truncation", "12"],
    ["plot-data", *_FAMILY, "--grid", "5", "--out", "OUT"],
    ["-h"],
    ["walk", "-h"],
    [],
    ["bogus"],
    ["walk", "--op", "bad", "--in", "TABLE", "--out", "OUT"],
    ["check", "--nmax", "5"],
    # refusals: exit 2 from a handler, exit 3 past a budget
    ["expand", "--builtin", "horn", "--q", "2", "--param", "t=0.5", "--param", "s=0.3",
     "--param", "b=5", "--mmax", "6", "--nmax", "6", "--out", "OUT"],
    ["gram", "--builtin", "aktas", "--q", "3", "--points", "8"],
    ["check", "--in", "TABLE", "--set", _SET],
    ["gram", *_FAMILY, "--points", "1000000000000"],
    ["plot-data", *_FAMILY, "--grid", "1025", "--out", "OUT"],
]


def test_reused_parsers_give_the_outcomes_of_fresh_ones(tmp_path, capsys, monkeypatch):
    table, out = tmp_path / "t.json", tmp_path / "out"
    assert _outcome(capsys, ["expand", *_FAMILY, "--mmax", "3", "--nmax", "3", "--out", str(table)])[0] == 0
    paths = {"TABLE": str(table), "OUT": str(out)}
    argvs = [[paths.get(arg, arg) for arg in argv] for argv in _REUSE_ARGVS]

    def outcome(argv):
        rc, stdout, stderr = _outcome(capsys, argv)
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return rc, stdout, stderr, written

    reused = [outcome(argv) for argv in argvs + argvs]
    assert {result[0] for result in reused} == {0, 2, 3}
    _use_full_parsers(monkeypatch)
    assert reused == [outcome(argv) for argv in argvs + argvs]


def test_unknown_commands_share_one_cached_parser(capsys):
    cli._parser.cache_clear()
    assert cli.main(["bogus1"]) == cli.main(["bogus2"]) == 2
    capsys.readouterr()
    info = cli._parser.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_import_builds_no_parser_and_main_builds_it_once():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import discwalk.cli\n"
        "print('built', len(built))\n"
        f"argv = ['check', '--set', {_SET!r}]\n"
        "for _ in range(3):\n"
        "    assert discwalk.cli.main(argv) == 0\n"
        "    print('built', len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the top-level parser and the one subcommand's parser, on the first call only
    counts = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("built ")]
    assert counts == ["0", "2", "2", "2"]
