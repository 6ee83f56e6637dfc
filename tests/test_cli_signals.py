"""Subprocess tests: CLI exits cleanly on broken pipes and Ctrl-C.

Long-running subcommands piped into ``head`` (reader hangs up) must not
print a traceback, and a SIGINT must exit 130 — flushing whatever
partial artifact (JSONL trace) the run had accumulated.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def spawn(*argv, **kw):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
        cwd=REPO,
        **kw,
    )


class TestBrokenPipe:
    def test_trace_jsonl_to_closed_pipe_exits_cleanly(self):
        # emulate `repro trace --jsonl - | head` where head hangs up
        # before the trace is written: the reader closes immediately,
        # the child computes for a while, then its write hits EPIPE
        proc = spawn("trace", "--n", "512", "--messages", "12000", "--jsonl", "-")
        proc.stdout.close()  # reader gone
        err = proc.stderr.read().decode()
        rc = proc.wait(timeout=300)
        proc.stderr.close()
        assert rc == 0, err
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err

    def test_fuzz_to_closed_pipe_exits_cleanly(self):
        # fuzz prints per-iteration progress; the reader hangs up early
        proc = spawn("fuzz", "--iters", "300", "--seed", "0", "--max-n", "16")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        rc = proc.wait(timeout=300)
        proc.stderr.close()
        assert rc == 0, err
        assert "Traceback" not in err


class TestKeyboardInterrupt:
    def _interrupt_after(self, proc, delay):
        time.sleep(delay)
        os.kill(proc.pid, signal.SIGINT)

    def test_fuzz_sigint_exits_130_without_traceback(self):
        proc = spawn("fuzz", "--iters", "1000000", "--seed", "0", "--max-n", "16")
        self._interrupt_after(proc, 4.0)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 130, err.decode()
        assert "Traceback" not in err.decode()
        assert "interrupted" in err.decode()

    def test_chaos_sigint_exits_130_without_traceback(self):
        proc = spawn("chaos", "--iters", "100000", "--seed", "0")
        self._interrupt_after(proc, 4.0)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 130, err.decode()
        assert "Traceback" not in err.decode()

    def test_trace_sigint_flushes_partial_jsonl(self, tmp_path):
        # a run that takes >30s gets interrupted at ~8s: exit 130 and
        # the JSONL written so far must still parse and load
        out_path = tmp_path / "partial.jsonl"
        proc = spawn(
            "trace", "--n", "1024", "--messages", "300000",
            "--jsonl", str(out_path),
        )
        self._interrupt_after(proc, 8.0)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 130, err.decode()
        assert "Traceback" not in err.decode()
        assert "partial trace" in out.decode()
        lines = out_path.read_text().splitlines()
        assert lines, "interrupt must still flush the partial trace"
        events = [json.loads(line) for line in lines]
        assert all("type" in e for e in events)
        # the run was cut mid-flight: the partial trace has cycle events
        # but far fewer than a full run would produce
        assert any(e["type"] == "cycle" for e in events)


class TestServeSignals:
    def test_serve_sigint_exits_130_and_unlinks_shm(self):
        before = set(glob.glob("/dev/shm/repro_pi_*"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--n", "16",
             "--shards", "2"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=ENV,
            cwd=REPO,
            text=True,
        )
        # one served request proves the daemon is fully up (pool, loop)
        # before we interrupt it
        proc.stdin.write('{"id": "warm", "src": [0], "dst": [1]}\n')
        proc.stdin.flush()
        first = proc.stdout.readline()
        assert json.loads(first)["ok"] is True
        os.kill(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 130, err
        assert "Traceback" not in err
        assert "interrupted" in err
        leaked = set(glob.glob("/dev/shm/repro_pi_*")) - before
        assert not leaked, f"leaked shared-memory segments: {leaked}"
