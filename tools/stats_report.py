"""Per-operator execution report for any registered query — the
"measure, don't guess" loop: runs a queries() entry at a chosen sf and
prints each Ray Data operator's task count, block count and remote wall
time from ``Dataset.stats()``, so a slow stage is visible before anyone
guesses at it.

Usage:
    python tools/stats_report.py <query> [sf_dir] [num_cpus]
"""

from __future__ import annotations

import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    name = sys.argv[1]
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.01"
    ncpus = int(sys.argv[3]) if len(sys.argv) > 3 else 8

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=ncpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry

    fn = entry.queries()[name]
    t0 = time.perf_counter()
    res = fn(sf_dir)  # a Dataset result comes back executed
    stats = res.stats() if isinstance(res, ray.data.Dataset) else ""
    wall = time.perf_counter() - t0
    print(f"{name}  sf={sf_dir}  cpus={ncpus}  wall={wall:.3f}s")
    op = None
    for line in stats.splitlines():
        m = re.match(r"Operator (\d+) (.+?): (.*)", line.strip())
        if m:
            op = m.group(2)
            print(f"  [{m.group(1)}] {op[:90]}  ({m.group(3)[:60]})")
        elif "Remote wall time" in line and op:
            print(f"        {line.strip()[:110]}")
    ray.shutdown()


if __name__ == "__main__":
    main()
