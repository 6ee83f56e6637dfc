"""Shared helpers: statistics, environment record, memory, result line.

Everything here is stdlib-only so that importing it costs nothing the
set-up measurements would notice.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Where traced runs write their span files (relative to the checkout).
OUT_DIR = ROOT / ".perfbench"


def spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_program() -> None:
    """Exit 2 (no result line) unless the program's sources are present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)


def program_env() -> dict:
    """Environment for a child process running the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3); degenerate inputs collapse onto their one value."""
    if not values:
        return (0.0, 0.0, 0.0)
    if len(values) == 1:
        v = float(values[0])
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (float(q1), float(q2), float(q3))


def percentile(values: list[float], pct: float) -> float:
    """Inclusive-method percentile (``pct`` in 0..100)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return float(cuts[int(round(pct * 10)) - 1])


def mean(values: list[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def _status_kb(pid: int | str, field: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it (Linux ``/proc``)."""
    out = [pid]
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            text = Path(f"/proc/{parent}/task/{parent}/children").read_text()
        except OSError:
            continue
        kids = [int(tok) for tok in text.split()]
        out.extend(kids)
        frontier.extend(kids)
    return out


def peak_rss_mb(pids: list[int]) -> float:
    """Largest resident-set high-water mark (``VmHWM``) among ``pids``."""
    return max((_status_kb(pid, "VmHWM") for pid in pids), default=0) / 1024.0


def self_peak_rss_mb() -> float:
    return _status_kb("self", "VmHWM") / 1024.0


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-1 over every ``src/repro`` Python file (path and bytes)."""
    h = hashlib.sha1()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """The machine and program a result was measured on."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "src_sha1": _src_digest(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def per_layer(values: dict[str, float]) -> dict[str, dict]:
    """Every ``per_layer`` metric of ``BENCHMARK.json``, in its order.

    A layer the workload never enters is reported as measured: zero
    calls, zero time.
    """
    table = [(m["name"], m["unit"]) for m in spec()["per_layer"]]
    unknown = set(values) - {name for name, _ in table}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json per_layer: {sorted(unknown)}")
    return {name: metric(values.get(name, 0.0), unit) for name, unit in table}


def print_table(title: str, rows: list[tuple[str, object]]) -> None:
    print(f"== {title}")
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  {key:<{width}}  {value}")


def emit_result(
    *, correct: bool, attempted: int, failed: int, metrics: dict[str, dict]
) -> bool:
    """Print every metric by name and unit, then the one-line result;
    returns ``correct``."""
    print_table(
        "metrics", [(k, f"{v['value']:.6g} {v['unit']}") for k, v in metrics.items()]
    )
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return correct
