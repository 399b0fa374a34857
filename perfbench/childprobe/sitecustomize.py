"""Speed sampler for the CLI children the benchmark starts.

The benchmark puts this directory on a child's ``PYTHONPATH`` and names a
file in ``PERFBENCH_PROBE_FILE``; Python imports ``sitecustomize`` at start-up,
so every 0.1 s of the child's life a SIGALRM handler runs the generator's
``speed_probe`` (about 2% of the child's time), and the samples are written
to that file at exit. Their mean is the machine's speed while the child ran,
which probes taken before and after a child of several seconds cannot give.
Without the variable this module does nothing.
"""

import os

_PATH = os.environ.get("PERFBENCH_PROBE_FILE")

if _PATH:
    import atexit
    import signal
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        from gen import speed_probe
    finally:
        sys.path.pop(0)

    _samples: list[float] = []

    def _sample(signum, frame) -> None:
        _samples.append(speed_probe())

    def _dump() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(_PATH, "w", encoding="utf-8") as fp:
            fp.write("".join(f"{t!r}\n" for t in _samples))

    speed_probe()  # the first call runs cold; later samples do not
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, 0.1, 0.1)
    atexit.register(_dump)
