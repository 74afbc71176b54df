"""One traced ``heisencheck verify --suite all --format json`` in this process.

Prints one JSON object: the CLI exit code, the report it wrote, and the
recorder's metrics.  Run with the repository's ``src`` on PYTHONPATH.
"""

import contextlib
import io
import json
import sys

import heisencheck.cli

from tracer import Recorder


def main() -> int:
    report = io.StringIO()
    with Recorder() as recorder, contextlib.redirect_stdout(report):
        code = heisencheck.cli.main(["verify", "--suite", "all", "--format", "json"])
    print(json.dumps({"exit": code, "report": report.getvalue(), "trace": recorder.metrics()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
