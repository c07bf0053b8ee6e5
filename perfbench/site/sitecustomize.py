"""Start-up hook for the child processes the benchmark spawns.

run.py puts this directory on the children's PYTHONPATH, so Python imports
this module at start-up.  At exit it appends the process's peak resident set
(VmHWM, KiB) to the file named by PERFBENCH_HWM_FILE.  VmHWM covers only the
memory of the program after exec; ``ru_maxrss`` of a child would also count
the spawning parent's pages, which the child shares until it execs.
"""

import atexit
import os


def _record_peak(path):
    with open("/proc/self/status", encoding="ascii") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "a", encoding="ascii") as out:
        out.write(kib + "\n")


if os.environ.get("PERFBENCH_HWM_FILE"):
    atexit.register(_record_peak, os.environ["PERFBENCH_HWM_FILE"])
