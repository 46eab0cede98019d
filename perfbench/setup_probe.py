"""One cold set-up of the ``seqmcm`` CLI, timed from outside by ``run.py``.

Usage: ``python3 perfbench/setup_probe.py WARMUPS.json`` from the root of a
checkout.  It imports ``seqmcm.cli``, builds the parser and runs each warm-up
command line (a JSON list of argv lists) once with its output discarded.
The exit code is 0 only if every warm-up op exits 0.
"""

import contextlib
import io
import json
import os
import sys


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from seqmcm import cli

    cli.build_parser()
    with open(sys.argv[1], encoding="utf-8") as fh:
        warmups = json.load(fh)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [cli.main(argv) for argv in warmups]
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
