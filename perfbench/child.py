"""Run one steinlab CLI command in this process.

    python3 perfbench/child.py STAMP_FILE TRACE_FILE -- <steinlab arguments>

Imports ``steinlab`` from ``src/`` under the current directory, stamps
``time.monotonic()`` at the first call into a compute layer, and, when
TRACE_FILE is not ``-``, traces the layer functions from outside.  After the
command returns it writes the stamp (and the trace) as JSON and exits with
the command's status.  ``run.py`` starts one of these per measured run.
"""

import json
import os
import sys


def main(argv):
    stamp_path, trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py STAMP_FILE TRACE_FILE -- <steinlab arguments>")
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import steinlab.cli

    if not os.path.abspath(steinlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"steinlab was imported from {steinlab.__file__}, not {src}")

    from tracer import FirstCallStamp, Tracer

    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        tracer.install()
    stamp = FirstCallStamp()
    stamp.install()
    code = steinlab.cli.main(cli_args)
    with open(stamp_path, "w", encoding="utf-8") as handle:
        json.dump({"first_compute": stamp.stamp}, handle)
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
