"""Run one vflie CLI job in this process, as ``python -m vflie.cli`` would.

Usage: child.py SRC_DIR FD SPANS_PATH JOB_ID -- ARGV...

SRC_DIR is put first on sys.path.  Right after ``import vflie.cli`` the
CLOCK_MONOTONIC reading is written to file descriptor FD, so the parent can
time interpreter start plus import (setup).  With SPANS_PATH other than "-"
the layer functions are wrapped by tracer.py and the spans are written to
SPANS_PATH when the job ends.  The exit code is the CLI's.
"""

import os
import sys
import time


def main():
    src, fd, spans_path, job_id, sep = sys.argv[1:6]
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR FD SPANS_PATH JOB_ID -- ARGV...")
    argv = sys.argv[6:]
    sys.path.insert(0, src)
    import vflie.cli

    os.write(int(fd), repr(time.monotonic()).encode())
    os.close(int(fd))
    if spans_path == "-":
        return vflie.cli.main(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer

    trace = tracer.install()
    try:
        return vflie.cli.main(argv)
    finally:
        trace.dump(spans_path, job_id)


if __name__ == "__main__":
    raise SystemExit(main())
