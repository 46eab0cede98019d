"""The exit code of every command line of the digest corpus, pinned.

``tools/cli_digests.py`` prints each corpus line's exit code and output
md5s; comparing its output on two trees shows which outputs moved.  Output
bytes may move with a solver change, but an exit code moving means a
changed exit path, so the codes are pinned here.  The corpus runs in
process, in a temporary directory holding the files it reads.  A line
appended to the corpus needs its code appended to :data:`EXITS`.

Run with:  pytest tests/test_corpus_exits.py -v
"""

import importlib.util
import json
from pathlib import Path

from seqmcm import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digests.py"

EXITS = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    2, 2, 2, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 3, 3, 2, 2, 2, 4, 0, 0,
    0, 0, 0, 0, 0, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 3, 0, 0, 0, 2, 2, 2, 2,
    4, 4, 2, 0, 0, 0, 4, 0, 2, 2, 2, 2, 2, 2,
]
"""Exit codes of the corpus lines, in order."""


def test_corpus_exit_codes(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("cli_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.chdir(tmp_path)
    for name, doc in tool.FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    lines = tool.corpus()
    codes = [tool.digest(cli.main, line)["exit"] for line in lines]
    assert len(codes) == len(EXITS)
    moved = [(i, line, want, got) for i, (line, want, got) in enumerate(zip(lines, EXITS, codes), 1)
             if want != got]
    assert moved == []
