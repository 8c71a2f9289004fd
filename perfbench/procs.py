"""Resident-set sampling from ``/proc`` (no psutil).

Every Ray process started by ``ray.init`` in this driver is a descendant of
it: the GCS, raylet and agents are its children, and workers are children
of the raylet.  :class:`RssSampler` walks that process tree on a timer and
keeps the peak of the summed RSS, split into driver, workers and daemons.
"""

from __future__ import annotations

import os
import threading

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(name)) as f:
                stat = f.read()
        except OSError:
            continue
        state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
        if state != "Z":  # exited, waiting to be reaped
            kids.setdefault(int(ppid), []).append(int(name))
    return kids


def descendants(root: int) -> list[int]:
    kids = _children_map()
    out, todo = [], list(kids.get(root, ()))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open("/proc/{}/statm".format(pid)) as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0  # the process exited between listing and reading


def _is_worker(pid: int) -> bool:
    try:
        with open("/proc/{}/cmdline".format(pid), "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def snapshot(root: int) -> dict[str, int]:
    """Current RSS in bytes of ``root`` and its worker / daemon descendants."""
    out = {"driver": _rss_bytes(root), "workers": 0, "daemons": 0}
    for pid in descendants(root):
        out["workers" if _is_worker(pid) else "daemons"] += _rss_bytes(pid)
    return out


class RssSampler:
    """Background sampler; ``peak`` holds the snapshot with the largest
    summed RSS seen between ``start()`` and ``stop()``."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak = {"driver": 0, "workers": 0, "daemons": 0}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        root = os.getpid()
        while True:
            snap = snapshot(root)
            if sum(snap.values()) > sum(self.peak.values()):
                self.peak = snap
            if self._stop.wait(self.interval_s):
                return

    def start(self) -> "RssSampler":
        self._thread.start()
        return self

    def stop(self) -> dict[str, int]:
        self._stop.set()
        self._thread.join(timeout=10)
        return self.peak
