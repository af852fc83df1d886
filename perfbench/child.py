"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py [--spans FILE] cli ARGS...
    python3 perfbench/child.py [--spans FILE] sweep D...

`cli` runs the qstar command line with ARGS.  `sweep` calls
qstar.cm.class_polynomial(D) for each D in turn and prints one JSON line
per D: its coefficients (constant term first), the certified flag and the
seconds the call took, or the error it raised.  With --spans, every
traced function (see tracing.py) records spans, which are written to FILE
as JSON when the operation ends; each D of a sweep is its own operation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import tracing


def sweep(discriminants: list, recorder) -> int:
    from qstar import cm
    from qstar.errors import QstarError

    for op, D in enumerate(discriminants):
        if recorder is not None:
            recorder.op = op
        t0 = time.perf_counter()
        try:
            cp = cm.class_polynomial(D)
        except QstarError as exc:
            print(json.dumps({"D": D, "error": f"{type(exc).__name__}: {exc}"}), flush=True)
            continue
        seconds = time.perf_counter() - t0
        line = {"D": D, "coeffs": list(cp.poly.coeffs), "certified": cp.certified}
        print(json.dumps({**line, "s": seconds}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", help="trace, and write the spans to this file")
    parser.add_argument("mode", choices=("cli", "sweep"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    recorder = None
    if args.spans:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    try:
        if args.mode == "sweep":
            return sweep([int(d) for d in args.rest], recorder)
        from qstar import cli

        return cli.main(args.rest)
    finally:
        if recorder is not None:
            with open(args.spans, "w") as fh:
                json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
