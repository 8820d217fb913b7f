"""Run one symclone CLI command with the span recorder installed.

    python -X importtime perfbench/tracecli.py SPANS.json <symclone CLI args>

Prints what ``python -m symclone.cli <args>`` prints, exits with its code, and
writes the recorded spans and counts to SPANS.json.
"""

import json
import sys

from spans import Recorder, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.op = 0
    install(rec)
    from symclone import cli

    code = cli.run(argv)
    sys.stdout.flush()
    with open(out, "w") as fh:
        json.dump(rec.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
