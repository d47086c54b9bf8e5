"""Print the machine and toolchain a result set was measured on, as JSON.

    python3 perfbench/env.py

Kept out of ``run.py`` because it reads system files (CPU model, cgroup CPU
quota) outside the checkout; it only reads them.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import run


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cgroup_cpu_quota() -> dict:
    """cgroup v2 ``cpu.max`` or v1 CFS quota/period; -1 or 'max' = none."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        return {"cgroup": "v2", "cpu.max": v2}
    return {"cgroup": "v1",
            "cfs_quota_us": _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
            "cfs_period_us": _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")}


def blas() -> list[dict]:
    """Each OpenBLAS loaded by numpy and scipy: its build string and the
    thread count it runs with under the benchmark's environment."""
    import ctypes

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    maps = _read("/proc/self/maps") or ""
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and ".so" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("", "64_"):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                              None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                entry.update(config=config().decode(), threads=threads())
        out.append(entry)
    return out


def main() -> None:
    os.environ.update(run.child_env(Path.cwd()))
    env = run.environment()
    env.update({"cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
                "cpu_quota": cgroup_cpu_quota(), "blas": blas()})
    print(json.dumps(env, indent=1))


if __name__ == "__main__":
    main()
