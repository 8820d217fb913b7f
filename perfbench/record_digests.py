"""Record the digests of every canonical CLI output the benchmark checks.

    python3 perfbench/record_digests.py     # from the repository root

Runs the CLI in-process on construct-basic, construct-general and verify of
the standard processes the workloads use, and the readout-solve grid
0 <= m, k <= 7, and writes their SHA-256 digests to perfbench/digests.json.
It also asserts that the benchmark's own standard-process generator is
byte-identical to construct-general, so verify and diagram-check read
exactly what construct-general writes.  Re-record only when a change is
meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import inputs
from cli_workloads import digest_key

DIMS = tuple(range(2, 15, 2)) + (60, 100)


def main() -> None:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from symclone.cli import run

    def output(argv: list[str]) -> bytes:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run(argv)
        return buf.getvalue().encode()

    digests = {}

    def record(key: str, out: bytes):
        digests[key] = hashlib.sha256(out).hexdigest()

    record("construct-basic", output(["construct-basic"]))
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for dim in DIMS:
            argv = ["construct-general", "--dim", str(dim)]
            out = output(argv)
            doc = inputs.dumps(inputs.standard_process(dim // 2))
            assert out == doc.encode(), f"generator differs from construct-general at dim {dim}"
            record(digest_key(argv), out)
            path = Path(tmp) / f"standard-{dim}.json"
            path.write_text(doc)
            record(f"verify standard-{dim}", output(["verify", "--input", str(path)]))
    for m in range(8):
        for k in range(8):
            argv = ["readout-solve", "--m", str(m), "--k", str(k)]
            record(digest_key(argv), output(argv))
    target = Path(__file__).with_name("digests.json")
    target.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {target}")


if __name__ == "__main__":
    main()
