"""The `sl3f7` entry point with spans, for the traced `sl3f7` invocations.

Usage: PERFBENCH_SPANS=<file> python3 perfbench/clitrace.py <sl3f7 arguments>
Runs the command exactly as the console script would and writes the
spans to the file when it ends, whatever the exit code.
"""

import json
import os
import sys

import tracing
from sl3f7 import cli

tracer = tracing.Tracer()
tracing.install(tracer)
try:
    code = cli.main(sys.argv[1:])
finally:
    with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
        json.dump({"spans": tracer.spans, "cost_s": sum(tracer.costs)}, fh)
sys.exit(code)
