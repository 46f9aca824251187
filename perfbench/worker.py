"""One fresh benchmark worker process.

    python3 perfbench/worker.py SPEC CONSTS [MANIFEST]

The worker first measures its set-up: importing ``thadc.cli`` from the
checkout's ``src`` and loading SPEC with CONSTS.  Nothing else is
imported before that, so the figure is what a fresh ``thadc`` process
pays before its first check.  Without MANIFEST it prints the set-up time
as JSON and exits; with MANIFEST (written by run.py) it goes on to run
the check loop of checkloop.py, which prints the raw results as the last
line of standard output.
"""

import os
import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import thadc.cli  # noqa: F401
    from thadc.specio import load_spec
    with open(sys.argv[1], encoding="utf-8") as spec, \
            open(sys.argv[2], encoding="utf-8") as consts:
        load_spec(spec.read(), consts.read(), sys.argv[1], sys.argv[2])
    setup_s = time.perf_counter() - started

    if len(sys.argv) < 4:
        import json
        print(json.dumps({"setup_s": setup_s}))
        sys.exit(0)
    import checkloop
    sys.exit(checkloop.main(setup_s, sys.argv[3]))
