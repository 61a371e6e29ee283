"""One CLI cold start, run in a fresh interpreter by run.py.

Imports cimeval from the given source tree and runs ``cimeval validate``
once per argument group, as a user's first command would.  Exits 0 only
if every group validates.  With ``--trace 1`` it also prints, as one JSON
line, the import time and the self time of each traced layer.

    python3 bench/coldstart.py SRC TRACE '[["--arch", "a.yaml", ...], ...]'
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    src, trace, groups = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    sys.path.insert(0, src)
    import cimeval.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for group in groups:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cimeval.cli.main(["validate"] + group)
        if code != 0 or not out.getvalue().endswith("ok\n"):
            sys.stderr.write(f"validate {group} exited {code}:\n{out.getvalue()}")
            return 1
    if tracer is not None:
        tracer.uninstall()
        doc = {"import_s": import_s, "self_time": tracer.self_time}
        sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
