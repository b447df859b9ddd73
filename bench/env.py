"""Locating the package under test and stamping the environment of a run."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_src_to_path() -> Path:
    """Put the checkout's src/ first on sys.path and return the checkout root.

    Exits with a message when the checkout holds no hopf_flow package, so
    the benchmark never measures an installed copy by accident.
    """
    if not (SRC / "hopf_flow" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hopf_flow package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ROOT


def resolve_pool() -> dict:
    """Pool size the CLI uses with HOPF_FLOW_THREADS unset, capped at nproc.

    Must run before the first CLI call.  A package without the pool reports
    a size of 1 (serial).
    """
    os.environ.pop("HOPF_FLOW_THREADS", None)
    from hopf_flow import checks
    nproc = len(os.sched_getaffinity(0))
    thread_cap = getattr(checks, "thread_cap", None)
    default = thread_cap() if thread_cap is not None else 1
    capped = default > nproc
    if capped:
        os.environ["HOPF_FLOW_THREADS"] = str(nproc)
    return {"nproc": nproc, "pool_default": default,
            "pool": min(default, nproc), "pool_capped": capped}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(pool: dict) -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": pool["nproc"], "cpu_count": os.cpu_count(),
            "pool": pool["pool"], "pool_default": pool["pool_default"],
            "pool_capped": pool["pool_capped"], "git_sha": git_sha(),
            "cpu_model": _cpu_model()}
