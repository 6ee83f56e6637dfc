"""The serve workload: one generator process driving ``repro serve``.

The daemon runs as a child process with only ``--n`` given, so every
other setting is measured as shipped.  This process is the one client:
a sender thread writes JSON request lines into the daemon's standard
input and a reader thread timestamps each response line as it arrives.
Responses are parsed and checked only after the measured interval.

``serve-light`` is an **open loop**: request send times are a Poisson
process at :data:`LIGHT_RATE` requests/s drawn from the seed, and
latency is timed from each request's *due* time, so a stalled daemon is
charged for the wait it imposes on later requests.  How late the sender
itself ran is reported; a run whose sender was more than
:data:`VOID_LATE_P50_MS` late on its median send fell behind and is
void.  (Single late sends are not enough: on a shared virtual machine
the host preempts every process now and then, the daemon as much as the
sender, and latency from due time already charges those stalls.)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import common

perf_counter = time.perf_counter

LIGHT_N, LIGHT_MSGS, LIGHT_RATE = 256, 32, 150.0
SLO_P99_MS = 50.0  # serve-light latency limit
VOID_LATE_P50_MS = 5.0
WARMUP_FRAC = 0.1  # leading share of the interval left out of the stats
# Latency percentiles are taken per window of this many seconds (by due
# time) and the median over windows is reported: a host that stalls the
# whole virtual machine for a moment then moves one window, not the run.
WINDOW_S = 1.0
SETUP_SPAWNS = 5
PARITY_SAMPLE = 32
KERNELS = ("greedy", "random_rank")


class Daemon:
    """One ``repro serve`` child process and the reader of its output."""

    def __init__(self, n: int, *, trace_path: str | None = None) -> None:
        if trace_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--n", str(n)]
        else:
            launcher = str(common.BENCH / "serve_launcher.py")
            cmd = [sys.executable, launcher, "--n", str(n)]
        env = common.program_env()
        if trace_path is not None:
            env["PERFBENCH_SERVE_TRACE"] = trace_path
        self.t_spawn = perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=common.ROOT,
            env=env,
            bufsize=0,
        )
        self.lines: list[tuple[float, bytes]] = []
        self.on_route_response = None  # called per routing response
        self._watch: dict[bytes, threading.Event] = {}
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        stdout = self.proc.stdout
        assert stdout is not None
        for line in stdout:
            t = perf_counter()
            self.lines.append((t, line))
            # every response line starts with {"id":"<id>"
            rid = line[7 : line.find(b'"', 7)]
            event = self._watch.get(rid)
            if event is not None:
                event.set()
            elif self.on_route_response is not None:
                self.on_route_response()

    def send(self, data: bytes) -> None:
        stdin = self.proc.stdin
        assert stdin is not None
        view = memoryview(data)
        while view:
            written = stdin.write(view)
            view = view[written:]

    def call(self, rid: str, line: str, timeout: float = 120.0) -> tuple[float, dict]:
        """Send one control/probe line and wait for its response."""
        event = threading.Event()
        self._watch[rid.encode()] = event
        self.send((line + "\n").encode())
        if not event.wait(timeout):
            raise RuntimeError(f"daemon gave no response to {rid!r} in {timeout}s")
        for t, raw in reversed(self.lines):
            if raw.startswith(b'{"id":"' + rid.encode() + b'"'):
                return t, json.loads(raw)
        raise RuntimeError(f"response to {rid!r} lost")

    def probe(self) -> float:
        """Seconds from spawn to the answer to a one-message request."""
        t, resp = self.call("probe", '{"id":"probe","src":[0],"dst":[1]}')
        if not resp.get("ok"):
            raise RuntimeError(f"probe refused: {resp}")
        return t - self.t_spawn

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(common.descendants(self.proc.pid))

    def close(self, timeout: float = 60.0) -> int:
        """Close stdin, wait for the daemon (and its workers) to exit."""
        try:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=timeout)
        return code


def _message_sets(seed: int, n: int, m: int, count: int):
    import numpy as np

    rng = np.random.default_rng([seed, n, m])
    src = rng.integers(0, n, size=(count, m))
    dst = rng.integers(0, n, size=(count, m))
    return src, dst


def _bodies(src, dst, seed: int) -> list[str]:
    """Request line bodies (everything after the id); kernels alternate."""
    return [
        '"src":%s,"dst":%s,"kernel":"%s","seed":%d}'
        % (json.dumps(s.tolist()), json.dumps(d.tolist()), KERNELS[i % 2], seed)
        for i, (s, d) in enumerate(zip(src, dst))
    ]


def _line(i: int, body: str) -> bytes:
    return ('{"id":"r%d",' % i + body + "\n").encode()


def _drive_open(daemon: Daemon, seed: int, seconds: float) -> dict:
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    gaps = rng.exponential(1.0 / LIGHT_RATE, size=int(LIGHT_RATE * seconds * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    src, dst = _message_sets(seed, LIGHT_N, LIGHT_MSGS, len(offsets))
    lines = [_line(i, b) for i, b in enumerate(_bodies(src, dst, seed % 1000))]
    t0 = perf_counter() + 0.05
    due = (t0 + offsets).tolist()
    sent = [0.0] * len(lines)
    for i, line in enumerate(lines):
        wait = due[i] - perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent[i] = perf_counter()
        daemon.send(line)
    return {"t0": t0, "t_end": t0 + seconds, "due": due, "sent": sent,
            "src": src, "dst": dst, "seed": seed % 1000}


def _wait_all(daemon: Daemon, count: int, timeout: float = 60.0) -> None:
    """Wait until ``count`` routing responses have arrived (or timeout)."""
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        if sum(1 for _, raw in daemon.lines if raw.startswith(b'{"id":"r')) >= count:
            return
        time.sleep(0.02)


def _analyse(run: dict, lines: list[tuple[float, bytes]]) -> dict:
    """Latency, throughput and output checks of one load interval."""
    responses: dict[int, tuple[float, dict]] = {}
    for t, raw in lines:
        if raw.startswith(b'{"id":"r'):
            resp = json.loads(raw)
            responses[int(resp["id"][1:])] = (t, resp)
    msgs = run["src"].shape[1]
    pool = len(run["src"])
    t_warm = run["t0"] + WARMUP_FRAC * (run["t_end"] - run["t0"])
    latencies, failures = [], []
    windows: dict[int, list[float]] = {}
    ok = delivered = cycles = 0
    in_window = 0
    attempted = len(run["due"])
    for i, due in enumerate(run["due"]):
        got = responses.get(i)
        if got is None:
            failures.append(f"r{i}: no response")
            continue
        t, resp = got
        if not resp.get("ok"):
            failures.append(f"r{i}: refused {resp.get('code')}: {resp.get('reason')}")
            continue
        delivered += resp["delivered"] + resp["n_self"]
        if resp["delivered"] + resp["n_self"] != msgs:
            failures.append(
                f"r{i}: delivered {resp['delivered']} + self {resp['n_self']} != {msgs}"
            )
            continue
        ok += 1
        cycles += resp["num_cycles"]
        if due >= t_warm:
            latencies.append((t - due) * 1e3)
            windows.setdefault(int((due - t_warm) // WINDOW_S), []).append(latencies[-1])
        if t_warm <= t <= run["t_end"]:
            in_window += 1
    late = [(s - d) * 1e3 for s, d in zip(run["sent"], run["due"])]
    n_full = int((run["t_end"] - t_warm) // WINDOW_S)
    full = [v for j, v in windows.items() if j < n_full]
    return {
        "windows": len(full),
        "window_samples": min((len(v) for v in full), default=0),
        "p50_ms": common.median([common.median(v) for v in full]),
        "p90_ms": common.median([common.percentile(v, 90) for v in full]),
        "responses": responses,
        "pool": pool,
        "attempted": attempted,
        "ok": ok,
        "failures": failures,
        "latencies": latencies,
        "delivered_frac": delivered / (attempted * msgs) if attempted else 0.0,
        "cycles": cycles / ok if ok else 0.0,
        "req_per_s": in_window / (run["t_end"] - t_warm),
        "msgs_per_s": in_window * msgs / (run["t_end"] - t_warm),
        "late": late,
    }


def _parity(run: dict, stats: dict, seed: int) -> list[str]:
    """Solo-kernel cycle counts for a seeded sample of served requests."""
    import numpy as np

    from repro.core import FatTree, MessageSet, greedy, online
    from repro.core.capacity import UniversalCapacity

    n = LIGHT_N
    ft = FatTree(n, UniversalCapacity(n, n, strict=False))
    served = sorted(i for i, (_, r) in stats["responses"].items() if r.get("ok"))
    rng = np.random.default_rng([seed, 11])
    pick = rng.choice(len(served), size=min(PARITY_SAMPLE, len(served)), replace=False)
    errors = []
    for j in sorted(pick.tolist()):
        i = served[j]
        k = i % stats["pool"]
        ms = MessageSet(run["src"][k], run["dst"][k], n)
        if KERNELS[k % 2] == "greedy":
            solo = greedy.schedule_greedy_first_fit(ft, ms)
        else:
            solo = online.schedule_random_rank(ft, ms, seed=run["seed"])
        got = stats["responses"][i][1]["num_cycles"]
        if solo.num_cycles != got:
            errors.append(f"r{i}: served {got} cycles, solo kernel {solo.num_cycles}")
    return errors


def _report_load(stats: dict) -> None:
    lat = stats["latencies"]
    q1, p50, q3 = common.quartiles(lat)
    p99 = common.percentile(lat, 99)
    late = stats["late"]
    rows = [
        ("requests sent", stats["attempted"]),
        ("requests ok", stats["ok"]),
        ("latency samples", len(lat)),
        ("latency q1/p50/q3 ms", f"{q1:.3f} / {p50:.3f} / {q3:.3f}"),
        ("latency p90 ms", common.percentile(lat, 90)),
        ("latency p99 ms", p99),
        (f"{WINDOW_S:g} s windows (fewest samples in one)",
         f"{stats['windows']} ({stats['window_samples']})"),
        ("median over windows of p50 / p90 ms",
         f"{stats['p50_ms']:.3f} / {stats['p90_ms']:.3f}"),
        ("samples beyond p99", sum(1 for v in lat if v > p99)),
        ("req/s", stats["req_per_s"]),
        ("mean cycles per request", stats["cycles"]),
        ("loop", f"open, Poisson {LIGHT_RATE:g} req/s, timed from due time"),
        ("generator late p50/p99/max ms",
         f"{common.median(late):.3f} / {common.percentile(late, 99):.3f} / "
         f"{max(late, default=0.0):.3f}"),
        (f"p99 <= {SLO_P99_MS:g} ms limit met", p99 <= SLO_P99_MS),
    ]
    common.print_table("serve-light load", rows)


def _metrics_text(text: str) -> dict[str, float]:
    """``name{labels} value`` lines → {``name{labels}``: value}."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        key, _, value = line.rpartition(" ")
        if key:
            out[key] = float(value)
    return out


def _series_sum(series: dict[str, float], prefix: str) -> float:
    return sum(v for k, v in series.items() if k.startswith(prefix))


def _breakdown(run: dict, trace: dict) -> list[dict]:
    """Per-request stages that add up to the client-side latency."""
    dispatches = trace["dispatches"]
    rows = []
    for i, t_send in enumerate(run["sent"]):
        rec = trace["requests"].get(f"r{i}")
        if rec is None or "dispatch" not in rec:
            continue
        d = dispatches[rec["dispatch"]]
        recv = run["recv"].get(i)
        if recv is None or "t_done" not in d or "submit" not in rec:
            continue
        latency = recv - t_send
        line = rec["line"][1] - rec["line"][0]
        parse = rec["parse"][1] - rec["parse"][0]
        submit = rec["submit"][1] - rec["submit"][0]
        lam = rec["lambda"][1] - rec["lambda"][0]
        admit = rec["admit"][1] - rec["admit"][0]
        wait = rec["drain"] - rec["add"]
        shard = d["t_done"] - d["t_submit"]
        row = {
            "rid": f"r{i}",
            "latency_ms": latency,
            "transport_ms": latency - line,
            "parse_ms": parse,
            "encode_ms": line - parse - submit,
            "lambda_ms": lam,
            "admit_ms": admit,
            "batcher_wait_ms": wait,
            "shard_roundtrip_ms": shard,
            "unmeasured_ms": submit - lam - admit - wait - shard,
        }
        rows.append({k: (v * 1e3 if k != "rid" else v) for k, v in row.items()})
    return rows


def _layers(run: dict, trace: dict, series: dict[str, float]) -> tuple[dict, list]:
    """Per-layer metrics of a traced serve run, plus request breakdowns."""
    rows = _breakdown(run, trace)
    dispatches = [d for d in trace["dispatches"] if "t_done" in d]
    worker = [d["worker"] for d in dispatches if d.get("worker")]
    batch = [b for w in worker for b in w["batch"]]
    builds = [b for w in worker for b in w["builds"]]
    by_kernel = {k: [(b[1] - b[0]) * 1e3 for b in batch if b[2] == k] for k in KERNELS}
    batch_seconds = sum(b[1] - b[0] for b in batch)
    kernel_count = series.get('kernel_seconds_count{kernel="batch_schedule"}', 0.0)
    kernel_sum = series.get('kernel_seconds_sum{kernel="batch_schedule"}', 0.0)
    worker_kernel_ms = kernel_sum / kernel_count * 1e3 if kernel_count else 0.0
    roundtrip_ms = common.mean([(d["t_done"] - d["t_submit"]) * 1e3 for d in dispatches])
    lookups = _series_sum(series, "pathindex_cache{")
    hits = series.get('pathindex_cache{result="hit"}', 0.0)
    lag = [v * 1e3 for v in trace["loop_lag"]]

    def col(key: str) -> float:
        return common.mean([r[key] for r in rows])

    layers = {
        "protocol.parse_us": col("parse_ms") * 1e3,
        "daemon.encode_us": col("encode_ms") * 1e3,
        "daemon.transport_ms": col("transport_ms"),
        "daemon.unmeasured_ms": col("unmeasured_ms"),
        "daemon.loop_lag_p99_ms": common.percentile(lag, 99),
        "admission.lambda_us": col("lambda_ms") * 1e3,
        "admission.refused": float(trace["refused"]),
        "batcher.wait_ms": col("batcher_wait_ms"),
        "batcher.batch_size": common.mean([len(d["rids"]) for d in dispatches]),
        "batcher.window_flush_frac": common.mean(
            [0.0 if d["full"] else 1.0 for d in dispatches]
        ),
        "shards.roundtrip_ms": roundtrip_ms,
        "shards.worker_kernel_ms": worker_kernel_ms,
        "shards.ipc_ms": roundtrip_ms - worker_kernel_ms,
        "shards.payload_kb": common.mean([d["kb"] for d in dispatches]),
        "shards.outstanding": common.mean([d["outstanding"] for d in dispatches]),
        "shards.fallbacks": _series_sum(series, "serve_batch_fallback"),
        "batch.greedy_ms": common.mean(by_kernel["greedy"]),
        "batch.random_rank_ms": common.mean(by_kernel["random_rank"]),
        "batch.msgs_per_s": sum(b[3] for b in batch) / batch_seconds if batch_seconds else 0.0,
        "pathindex.build_ms": common.mean([b * 1e3 for b in builds]),
        "pathindex.hit_ratio": hits / lookups if lookups else 0.0,
    }
    return layers, rows


def _print_breakdown(rows: list[dict]) -> None:
    keys = [k for k in rows[0] if k != "rid"] if rows else []
    common.print_table(
        f"per-request breakdown, mean over {len(rows)} requests (ms)",
        [(k, common.mean([r[k] for r in rows])) for k in keys],
    )


def _setup(n: int) -> tuple[float, Daemon]:
    """Median spawn→probe time over several daemons; the last stays up."""
    samples = []
    for k in range(SETUP_SPAWNS):
        daemon = Daemon(n)
        try:
            samples.append(daemon.probe())
        except BaseException:
            daemon.close()
            raise
        if k < SETUP_SPAWNS - 1:
            daemon.close()
    common.print_table("setup", [("spawn->probe s", str([round(s, 4) for s in samples]))])
    return common.median(samples), daemon


def _measure(daemon: Daemon, seed: int, seconds: float) -> tuple[dict, dict]:
    run = _drive_open(daemon, seed, seconds)
    _wait_all(daemon, len(run["sent"]))
    lines = list(daemon.lines)
    stats = _analyse(run, lines)
    run["recv"] = {i: t for i, (t, _) in stats["responses"].items()}
    return run, stats


def run(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    n = LIGHT_N
    if trace:
        daemon = Daemon(n)
    else:
        setup_s, daemon = _setup(n)
    try:
        if trace:
            daemon.probe()
        run_, stats = _measure(daemon, seed, seconds)
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.close()
    failures = list(stats["failures"])
    if code != 0:
        failures.append(f"daemon exited {code}")
    failures += _parity(run_, stats, seed)
    _report_load(stats)
    late_p50 = common.median(stats["late"])
    if late_p50 > VOID_LATE_P50_MS:
        print(
            f"void run: generator median lateness {late_p50:.1f} ms > "
            f"{VOID_LATE_P50_MS:g} ms",
            file=sys.stderr,
        )
        sys.exit(3)
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    attempted = stats["attempted"]
    failed = attempted - stats["ok"]
    correct = not failures
    if not trace:
        metrics = {
            "setup_s": common.metric(setup_s, "s"),
            "p50_ms": common.metric(stats["p50_ms"], "ms"),
            "p90_ms": common.metric(stats["p90_ms"], "ms"),
            "msgs_per_s": common.metric(stats["msgs_per_s"], "msg/s"),
            "cycles": common.metric(stats["cycles"], "count"),
            "delivered_frac": common.metric(stats["delivered_frac"], "ratio"),
            "ok_frac": common.metric(stats["ok"] / attempted if attempted else 0.0, "ratio"),
            "peak_rss_mb": common.metric(rss, "MB"),
        }
        return common.emit_result(
            correct=correct, attempted=attempted, failed=failed, metrics=metrics
        )

    # traced phase: same load against the launcher-wrapped daemon
    common.OUT_DIR.mkdir(exist_ok=True)
    dump = common.OUT_DIR / f"serve-launcher-{os.getpid()}.json"
    traced = Daemon(n, trace_path=str(dump))
    try:
        traced.probe()
        run_t, stats_t = _measure(traced, seed, seconds)
        _, metrics_resp = traced.call("metrics", '{"op":"metrics","id":"metrics"}')
    finally:
        code_t = traced.close()
    if code_t != 0:
        failures.append(f"traced daemon exited {code_t}")
    failures += [f"traced {m}" for m in stats_t["failures"]]
    correct = not failures
    trace_data = json.loads(dump.read_text())
    dump.unlink()
    series = _metrics_text(metrics_resp["text"])
    layers, rows = _layers(run_t, trace_data, series)
    layers["trace.overhead_frac"] = stats_t["p50_ms"] / stats["p50_ms"] - 1.0
    _print_breakdown(rows)
    out = common.OUT_DIR / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({
        "environment": common.environment(),
        "workload": workload,
        "seed": seed,
        "layers": layers,
        "requests": rows,
        "spans": _request_spans(trace_data),
    }))
    print(f"trace written to {out.relative_to(common.ROOT)}")
    return common.emit_result(
        correct=correct,
        attempted=attempted + stats_t["attempted"],
        failed=failed + stats_t["attempted"] - stats_t["ok"],
        metrics=common.per_layer(layers),
    )


def _request_spans(trace: dict) -> list[list]:
    """Daemon-side spans as [name, start, end, parent, request id]."""
    spans: list[list] = []
    for rid, rec in trace["requests"].items():
        if "submit" not in rec:
            continue
        root = len(spans)
        spans.append(["daemon.submit_line", *rec["line"], None, rid])
        spans.append(["protocol.parse", *rec["parse"], root, rid])
        sub = len(spans)
        spans.append(["daemon.submit", *rec["submit"], root, rid])
        spans.append(["admission.lambda", *rec["lambda"], sub, rid])
        spans.append(["admission.try_admit", *rec["admit"], sub, rid])
        if "drain" in rec:
            spans.append(["batcher.wait", rec["add"], rec["drain"], sub, rid])
        d = trace["dispatches"][rec["dispatch"]] if "dispatch" in rec else {}
        if "t_done" in d:
            spans.append(["shards.roundtrip", d["t_submit"], d["t_done"], sub, rid])
    return spans
