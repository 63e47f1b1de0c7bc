"""Time one cold start: import the entry module, then run the given ops once.

Run by ``run.py`` in a fresh interpreter, from the repository root:

    python3 perfbench/setup_child.py <entry module>  < ops

Each input line is one op: ``L`` followed by tab-separated ``kind,n,p,z``
points for a library call, or ``C`` followed by the tab-separated CLI
arguments.  Prints the seconds from just before the import to the end of
the last op.  The ops arrive on stdin, and only modules the interpreter has
already loaded are used before the clock starts, so nothing the package
would import itself is loaded ahead of it.
"""

import io
import sys
import time


def main():
    entry = sys.argv[1]
    sys.path.insert(0, "src")
    ops = [line.rstrip("\n").split("\t") for line in sys.stdin if line.strip()]
    start = time.perf_counter()
    module = __import__(entry, fromlist=["_"])
    for tag, *fields in ops:
        if tag == "L":
            for point in fields:
                kind, n, p, z = point.split(",")
                module.evaluate(module.ApproxRequest(kind, int(n), int(p), float(z)))
        else:
            saved, sys.stdout = sys.stdout, io.StringIO()
            try:
                code = module.main(fields)
            finally:
                sys.stdout = saved
            if code != 0:
                sys.exit(f"op {fields} exited with {code}")
    elapsed = time.perf_counter() - start
    print(repr(elapsed))


if __name__ == "__main__":
    main()
