"""Golden CLI digests: exit code, stdout, stderr and ``--out`` bytes of fixed commands.

Each command's outcome is hashed and compared with a pinned sha256, so any
byte that changes in a walk file, a verdict or an error message fails here.
The inputs need only IEEE basic arithmetic (no libm calls), so the digests
are the same on every platform.  Commands run in a fresh working directory
with relative file names, so no temporary path reaches the output.
"""

import hashlib
import json

import pytest

from discwalk import cli

# literal tables: real diagonal feeders (so both primitives have a real
# constant), one conjugate pair off the diagonal, and values with long reprs
_TABLE_A0 = {
    "alpha": 0.0,
    "entries": [
        {"m": 0, "n": 0, "re": 1.0, "im": 0.0},
        {"m": 0, "n": 1, "re": 0.1, "im": 0.0},
        {"m": 1, "n": 0, "re": 0.1, "im": 0.0},
        {"m": 1, "n": 1, "re": 1 / 3, "im": 0.0},
        {"m": 1, "n": 2, "re": 2.5e-7, "im": 0.0},
        {"m": 2, "n": 1, "re": 0.2, "im": 0.0},
        {"m": 0, "n": 3, "re": 0.7, "im": -0.1},
        {"m": 3, "n": 0, "re": 0.7, "im": 0.1},
        {"m": 2, "n": 2, "re": 1 / 7, "im": 0.0},
    ],
}
_TABLE_A1 = {
    "alpha": 1.0,
    "entries": [
        {"m": 0, "n": 0, "re": 0.5, "im": 0.0},
        {"m": 0, "n": 1, "re": 1 / 3, "im": 0.0},
        {"m": 1, "n": 0, "re": 0.3, "im": 0.0},
        {"m": 1, "n": 2, "re": 0.1, "im": 0.0},
        {"m": 2, "n": 1, "re": 2.5e-7, "im": 0.0},
        {"m": 2, "n": 3, "re": 1 / 9, "im": 0.0},
        {"m": 3, "n": 2, "re": 0.01, "im": 0.0},
        {"m": 4, "n": 0, "re": -0.25, "im": 0.0},
        {"m": 1, "n": 4, "re": 0.6, "im": 1e-3},
    ],
}
_TABLES = {"a0.json": _TABLE_A0, "a1.json": _TABLE_A1}

_SETS = {
    "finite": {"finite": [0, 2, -3], "progressions": []},
    "progressions": {"finite": [], "progressions": [{"offset": 1, "step": 2}, {"offset": 0, "step": -3}]},
    "mixed": {"finite": [-1, 4], "progressions": [{"offset": 0, "step": 2}]},
}


def _commands():
    for name in _TABLES:
        for op in ("dz", "dzbar", "dx", "iz", "izbar"):
            yield f"walk-{op}-{name}", ["walk", "--op", op, "--in", name, "--out", "out.json"]
        yield f"check-{name}", ["check", "--in", name]
    for label, doc in _SETS.items():
        yield f"check-set-{label}", ["check", "--set", json.dumps(doc)]
    for case in ("i", "ii", "iii"):
        for q in ("2", "3"):
            yield f"counterexample-{case}-q{q}", [
                "counterexample", "--case", case, "--q", q, "--truncation", "12",
            ]


_GOLDEN = {
    "walk-dz-a0.json": "0304d60125a4d8d1440bfa8d810c92c27603d49aeedeb2004d7363c8b66eb9c5",
    "walk-dzbar-a0.json": "19ba254f1049689c32780abadaf48266e5e6fbc3dfa075da9e33b5f627e1811a",
    "walk-dx-a0.json": "757b3c3e39691cbbb3c2ac14338423e93d472f8d8101d4bdcd6585ca56854163",
    "walk-iz-a0.json": "09dfc72e466e012ed058f98165d26ae34cee8dba4efe4b5b50170842a679b1f6",
    "walk-izbar-a0.json": "09dfc72e466e012ed058f98165d26ae34cee8dba4efe4b5b50170842a679b1f6",
    "check-a0.json": "4189894264a2924e55454286dd69b18e8f66b449fac24da9931fda20890fa428",
    "walk-dz-a1.json": "3ffb6ceb074c43feaa0ca88a36a4fcfea46918a79b40c9a2d51fece4522068f9",
    "walk-dzbar-a1.json": "60f327e3877802ab091b155bd0d1832e477d95f2bd2a1d38841effd7d7739c07",
    "walk-dx-a1.json": "516719922d62655827e9db117ed0552108f9956c51d3dacc96f778e4d61e84d9",
    "walk-iz-a1.json": "2afa17275f8781f5c7340e62b5a95181442daa108f9c0b1423057bed815bb688",
    "walk-izbar-a1.json": "2765caad519ea88f4be68fdae2161646b93f0cae548bdab863cad9bbcc61d159",
    "check-a1.json": "27cdc7457bc2402c0b6717c3f1cdb84c70a74cd75da26a10b88cfc6a2c22f9cb",
    "check-set-finite": "2adaa824b3f7c1d0ec329d70b02d23e59d8d8a256400d71cb1960564f14f1065",
    "check-set-progressions": "ee54f77e641e333dc72543dadd2fb4829c0b14210bacfb376b98140bb44fd620",
    "check-set-mixed": "04d2d00d211f2474091c119e2fb409f66857c96d35d9bb2d753357a86ed3ab12",
    "counterexample-i-q2": "867b7fb38a52d960b29477317c013f5078a47e7a48411c3e417ff20d9febe3f4",
    "counterexample-i-q3": "811b36481fbe40b452459007098514079713ce9892acbf9464607ba869a5bf21",
    "counterexample-ii-q2": "19a573f56540c6d4d03db8c88675a7e5cf3187a1d0f9f4494a2b41584a038ef3",
    "counterexample-ii-q3": "f95a380ff71613e6535e33de142ba24ff6039c046fb9afa3704023d0b3cf65fd",
    "counterexample-iii-q2": "6f2013000e434c37ff2e93bacaad942673d6e3fa97feaf429e1c01fd69346132",
    "counterexample-iii-q3": "9b8135f45c5e13588655f3fd611650e30e960611b29316e5490618ad784e27f6",
}


def _digest(argv, capsys) -> str:
    rc = cli.main(argv)
    cap = capsys.readouterr()
    try:
        with open("out.json", "rb") as fh:
            out = fh.read()
    except FileNotFoundError:
        out = b"<no file>"
    h = hashlib.sha256()
    for part in (str(rc).encode(), cap.out.encode(), cap.err.encode(), out):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def test_golden_covers_every_command():
    assert sorted(name for name, _ in _commands()) == sorted(_GOLDEN)


@pytest.mark.parametrize("name, argv", list(_commands()), ids=[name for name, _ in _commands()])
def test_cli_output_digest(name, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for fname, doc in _TABLES.items():
        (tmp_path / fname).write_text(json.dumps(doc))
    assert _digest(argv, capsys) == _GOLDEN[name]
