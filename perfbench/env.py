"""Environment stamp written into every result file, so that runs made on a
busy shared machine can be spotted afterwards."""

from __future__ import annotations

import os
import platform
from importlib import metadata


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def loadavg():
    text = _read("/proc/loadavg")
    return [float(x) for x in text.split()[:3]] if text else None


def git_commit(root):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    found = _read(os.path.join(root, ".git", ref))
    if found:
        return found.strip()
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def numpy_version():
    """Read from the installed metadata, so that stamping does not import
    numpy ahead of the timed set-up."""
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def stamp(root, seed, trace):
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "trace": bool(trace),
        "loadavg_start": loadavg(),
    }
