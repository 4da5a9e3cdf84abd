"""Starts CLI children on request and reports how each one ran.

    python3 perfbench/launcher.py      (run.py starts it)

Reads one JSON request per line on stdin, ``[code, argv, out_path]``, runs
``python3 -c code *argv`` with stdin from /dev/null and stdout to
``out_path``, waits for it, and answers one JSON line ``[exit code, CPU
seconds, peak RSS in MB, speed sample in seconds]``.

Linux records the peak resident size of the spawning address space in a
child's ``ru_maxrss`` at exec, so a child spawned by the benchmark process,
which holds the instances and references, would report at least that
much.  This process stays small, so the peak it reports is the child's.

Shared virtual CPUs change speed from one moment to the next, so while
the child runs this process wakes every ``SAMPLE_GAP_S``, times one
:func:`speed_sample` and sleeps again; ``EDGE_SAMPLES`` samples just before
and just after the child cover short children.  The median sample is the
speed the child ran at.  Both share one pinned CPU, so the child's time is
its CPU time (user + system, from ``wait4``), which leaves out the slices
the samples take.
"""

import json
import os
import statistics
import sys
from time import perf_counter, sleep

SAMPLE_GAP_S = 0.01
EDGE_SAMPLES = 5


def speed_sample() -> float:
    """Seconds for a fixed pure-Python loop, about 0.7 ms on a 2.1 GHz Xeon vCPU."""
    start = perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return perf_counter() - start


def spawn(code: str, argv, out_path: str):
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    samples = [speed_sample() for _ in range(EDGE_SAMPLES)]
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code, *argv],
                         os.environ, file_actions=actions)
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        sleep(SAMPLE_GAP_S)
        samples.append(speed_sample())
    samples.extend(speed_sample() for _ in range(EDGE_SAMPLES))
    return [os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, statistics.median(samples)]


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(spawn(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
