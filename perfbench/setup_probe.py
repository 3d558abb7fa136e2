"""Set-up probe: in a fresh interpreter, time `import unitarity_kit` plus one
operation, and print the seconds.  run.py starts it with PYTHONPATH holding
the checkout's src/ and this directory, and the op pickled by run.py as the
only argument; input generation stays in run.py, outside the timing."""

import time

t0 = time.perf_counter()

import pickle  # noqa: E402
import sys  # noqa: E402

import unitarity_kit  # noqa: E402
import workloads  # noqa: E402

with open(sys.argv[1], "rb") as fh:
    op = pickle.load(fh)
if op.argv is not None:
    import unitarity_kit.cli  # noqa: E402,F401
workloads.execute(unitarity_kit, op)
print(time.perf_counter() - t0)
