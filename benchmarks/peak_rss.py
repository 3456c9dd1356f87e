"""Peak resident memory of cold paper experiments: the process and its pool.

``benchmarks/perf`` reads ``RUSAGE_SELF`` only, so the workers of the
prefetch pool never show in its ``peak_rss_mb``.  This script runs each
named experiment cold (``REPRO_DISK_CACHE=0``) in a fresh interpreter and
prints both peaks, in MiB::

    PYTHONPATH=src python benchmarks/peak_rss.py fig5 fig6

``parent`` is the experiment process's own peak (``RUSAGE_SELF``).
``workers`` is the largest peak among the pool workers it waited for
(``RUSAGE_CHILDREN``); it is 0 when no pool started, as on one usable
CPU (``taskset -c 0``).  A forked worker's peak includes the pages it
shares with the parent.  Linux reports ``ru_maxrss`` in KiB.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys


def _measure(experiment: str) -> dict[str, float]:
    """Run *experiment* here and read this process's and its children's peaks."""
    from repro.bench.report import run_experiment

    run_experiment(experiment)
    return {
        "parent": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "workers": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(_measure(argv[1])))
        return 0
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ, REPRO_DISK_CACHE="0")
    print(f"{'experiment':<12}{'parent MiB':>12}{'workers MiB':>13}")
    for experiment in argv:
        out = subprocess.run(
            [sys.executable, __file__, "--one", experiment],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        peaks = json.loads(out.splitlines()[-1])
        print(f"{experiment:<12}{peaks['parent']:>12.1f}{peaks['workers']:>13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
