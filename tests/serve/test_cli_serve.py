"""Subprocess tests for ``python -m repro serve`` over stdin/stdout."""

import glob
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def run_serve(lines, *argv, timeout=300):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", *argv],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        timeout=timeout,
        env=ENV,
        cwd=REPO,
    )
    return proc


def request_line(i, *, n=16, m=4, tenant="default", kernel="greedy", seed=None):
    rng_seed = seed if seed is not None else i
    # deterministic little multisets without importing numpy here
    src = [(rng_seed * 7 + k * 3) % n for k in range(m)]
    dst = [(rng_seed * 11 + k * 5 + 1) % n for k in range(m)]
    return json.dumps(
        {"id": f"c{i}", "src": src, "dst": dst, "tenant": tenant, "kernel": kernel}
    )


class TestServeStdin:
    def test_fifty_requests_two_shards_clean_exit(self):
        before = set(glob.glob("/dev/shm/repro_pi_*"))
        lines = [
            request_line(i, kernel="greedy" if i % 2 else "random_rank")
            for i in range(50)
        ]
        lines.append('{"op": "metrics", "id": "m"}')
        proc = run_serve(lines, "--n", "16", "--shards", "2")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        responses = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(responses) == 51
        by_id = {r["id"]: r for r in responses}
        assert all(by_id[f"c{i}"]["ok"] for i in range(50))
        metrics = by_id["m"]
        assert metrics["op"] == "metrics"
        leaked = set(glob.glob("/dev/shm/repro_pi_*")) - before
        assert not leaked, f"leaked shared-memory segments: {leaked}"

    def test_inline_mode_and_tenant_flag(self):
        lines = [
            request_line(0),
            request_line(1, tenant="spotty"),
        ]
        proc = run_serve(
            lines, "--n", "16", "--shards", "0", "--tenant", "spotty:0.25",
        )
        assert proc.returncode == 0, proc.stderr
        responses = {r["id"]: r for r in map(json.loads, proc.stdout.splitlines())}
        assert responses["c0"]["ok"] is True
        spotty = responses["c1"]
        # the degraded tenant either schedules or refuses 422 — but it
        # must answer, tagged with its own tenant
        assert spotty["tenant"] == "spotty"
        assert spotty["ok"] or spotty["code"] == 422

    def test_bad_tenant_spec_exits_2(self):
        proc = run_serve([], "--n", "16", "--tenant", "oops:1.5")
        assert proc.returncode == 2
        assert "invalid --tenant" in proc.stderr

    def test_eof_with_no_requests_exits_0(self):
        proc = run_serve([], "--n", "16", "--shards", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
