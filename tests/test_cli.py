"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.registry import STACKS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestInvalidInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["topology", "--n", "3"],
            ["schedule", "--n", "63"],
            ["batch", "--w", "999"],
            ["hardware", "--w", "0"],
            ["faults", "--n", "5"],
            ["trace", "--quick", "--w", "100000"],
            ["chaos", "--w", "0"],
            ["serve", "--n", "63", "--shards", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_tree_size_exits_2_with_one_line_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1


class TestTopology:
    def test_default(self, capsys):
        code, out = run(capsys, "topology", "--n", "32")
        assert code == 0
        assert "total wires" in out
        assert "cap(c)" in out

    def test_skinny_tree_reports_volume(self, capsys):
        _, out = run(capsys, "topology", "--n", "64", "--w", "16")
        assert "volume (Thm 4)" in out

    def test_sub_universal_w_handled(self, capsys):
        _, out = run(capsys, "topology", "--n", "4096", "--w", "64")
        assert "n/a" in out


class TestSchedule:
    def test_random_traffic(self, capsys):
        code, out = run(
            capsys, "schedule", "--n", "32", "--traffic", "random",
            "--messages", "100",
        )
        assert code == 0
        assert "Theorem 1" in out
        assert "λ(M)" in out

    def test_narrow_tree_omits_corollary2(self, capsys):
        _, out = run(
            capsys, "schedule", "--n", "64", "--w", "16",
            "--traffic", "permutation",
        )
        assert "Corollary 2" not in out

    @pytest.mark.parametrize(
        "traffic", ["random", "permutation", "bit-reversal", "hotspot", "local"]
    )
    def test_all_traffic_kinds(self, capsys, traffic):
        code, _ = run(
            capsys, "schedule", "--n", "32", "--traffic", traffic,
            "--messages", "64",
        )
        assert code == 0


class TestBatch:
    def test_default_greedy(self, capsys):
        code, out = run(
            capsys, "batch", "--n", "32", "--batch", "4", "--messages", "16"
        )
        assert code == 0
        assert "batched greedy" in out
        assert "msg/s" in out

    def test_random_rank_large_batch_truncates_table(self, capsys):
        code, out = run(
            capsys, "batch", "--n", "32", "--batch", "12",
            "--messages", "8", "--kernel", "random_rank",
        )
        assert code == 0
        assert "first 8 of 12 sets" in out

    @pytest.mark.parametrize("kernel", ["greedy", "random_rank"])
    def test_parity_break_exits_1_naming_the_set(self, capsys, monkeypatch, kernel):
        """The command checks its own batched-vs-serial parity: a batched
        schedule that differs in one set fails with one error line."""
        from repro.perf import batch

        real = batch.batch_schedule

        def perturbed(ft, sets, **kw):
            scheds = real(ft, sets, **kw)
            scheds[2].cycles.pop()  # set 2 loses its last cycle
            return scheds

        monkeypatch.setattr(batch, "batch_schedule", perturbed)
        code = main(
            ["batch", "--n", "32", "--batch", "4", "--messages", "64",
             "--kernel", kernel]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip().splitlines() == [
            "error: set 2: batched schedule differs from the serial loop"
        ]


class TestSimulate:
    @pytest.mark.parametrize(
        "network", ["mesh", "hypercube", "shuffle", "tree", "torus"]
    )
    def test_networks(self, capsys, network):
        code, out = run(capsys, "simulate", "--n", "64", "--network", network)
        assert code == 0
        assert "slowdown" in out


class TestHardware:
    def test_ideal(self, capsys):
        code, out = run(
            capsys, "hardware", "--n", "32", "--traffic", "random",
            "--messages", "80",
        )
        assert code == 0
        assert "delivered" in out

    def test_pippenger(self, capsys):
        code, out = run(
            capsys, "hardware", "--n", "32", "--traffic", "hotspot",
            "--messages", "60", "--concentrators", "pippenger",
        )
        assert code == 0
        assert "pippenger concentrators" in out


class TestFaults:
    def test_pristine_run(self, capsys):
        code, out = run(capsys, "faults", "--n", "32", "--messages", "64")
        assert code == 0
        assert "100.0% of wires survive" in out
        assert "retry/backoff delivery" in out

    def test_kill_wires_shows_degradation(self, capsys):
        code, out = run(
            capsys, "faults", "--n", "64", "--w", "16",
            "--kill-wires", "0.25", "--messages", "128",
        )
        assert code == 0
        assert "degraded fat-tree" in out
        assert "min eff" in out
        assert "λ(M)" in out

    def test_kill_switch_reports_unroutable(self, capsys):
        code, out = run(
            capsys, "faults", "--n", "64", "--kill-switch", "2:1",
            "--messages", "100",
        )
        assert code == 0
        assert "dead channels" in out
        assert "unroutable" in out

    def test_loss_rate_prints_histogram(self, capsys):
        code, out = run(
            capsys, "faults", "--n", "32", "--loss-rate", "0.2",
            "--messages", "64",
        )
        assert code == 0
        assert "attempts" in out

    def test_max_cycles_timeout_exit_code(self, capsys):
        code = main(
            [
                "faults", "--n", "32", "--loss-rate", "0.5",
                "--messages", "128", "--max-cycles", "2",
            ]
        )
        assert code == 3

    def test_bad_switch_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["faults", "--n", "32", "--kill-switch", "nonsense"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--n", "32", "--kill-wires", "1.5"],
            ["faults", "--n", "32", "--kill-switch", "9:0"],
            ["faults", "--n", "32", "--loss-rate", "1.0"],
        ],
    )
    def test_invalid_scenario_exit_code(self, capsys, argv):
        assert main(argv) == 2
        assert "invalid fault scenario" in capsys.readouterr().err


class TestTrace:
    def test_quick_summary(self, capsys):
        code, out = run(capsys, "trace", "--quick")
        assert code == 0
        assert "delivery cycles" in out
        assert "channel utilisation" in out
        assert "kernel timings" in out

    @pytest.mark.parametrize("scheduler", list(STACKS))
    def test_every_scheduler_runs(self, capsys, scheduler):
        code = main(["trace", "--quick", "--scheduler", scheduler])
        captured = capsys.readouterr()
        if scheduler == "corollary2":
            # CLI trees are universal: leaf channels are narrower than lg n
            assert code == 2
            assert captured.err.startswith("error: Corollary 2 requires")
            assert captured.err.count("\n") == 1
            return
        assert code == 0
        assert scheduler in captured.out

    def test_jsonl_to_stdout_parses(self, capsys):
        from repro.obs import Tracer

        code, out = run(capsys, "trace", "--quick", "--jsonl", "-")
        assert code == 0
        events = Tracer.from_jsonl(out)
        types = {e["type"] for e in events}
        assert {"cycle", "kernel_enter", "kernel_exit", "cache"} <= types

    def test_jsonl_to_file_roundtrips(self, capsys, tmp_path):
        from repro.obs import Tracer

        path = tmp_path / "trace.jsonl"
        code, out = run(capsys, "trace", "--quick", "--jsonl", str(path))
        assert code == 0
        assert "wrote" in out
        events = Tracer.read_jsonl(path)
        delivered = sum(
            e["delivered"] for e in events if e["type"] == "cycle"
        )
        assert delivered > 0

    def test_unroutable_exits_3_with_one_line_error(self, capsys):
        code = main(["trace", "--quick", "--kill-switch", "0:0"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:")
        assert "cannot be routed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "scheduler", ["random-rank", "online-retry", "switchsim"]
    )
    def test_timeout_exits_3_with_one_line_error(self, capsys, scheduler):
        code = main(
            ["trace", "--quick", "--scheduler", scheduler,
             "--loss-rate", "0.9", "--max-cycles", "5"]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_invalid_scenario_exits_2(self, capsys):
        assert main(["trace", "--quick", "--kill-wires", "2.0"]) == 2
        assert "invalid fault scenario" in capsys.readouterr().err

    def test_degraded_trace_runs(self, capsys):
        code, out = run(
            capsys, "trace", "--quick", "--kill-wires", "0.25",
            "--traffic", "permutation",
        )
        assert code == 0
        assert "delivery cycles" in out


#: ``repro chaos --iters 25 --seed 0``, the CI chaos step, byte for byte
CHAOS_TABLE = """\
repro chaos --iters 25 --seed 0: n=16, 48 messages, 6 events per timeline — all partitions hold
       stack  runs  mean delivered  worst  dropped
------------  ----  --------------  -----  -------
 random-rank     5           90.6%  77.3%       21
online-retry     5           94.3%  80.4%       13
   switchsim     5           82.9%  58.3%       41
    buffered     5           90.7%  84.1%       21
     offline     5           94.2%  82.2%       13
ok: empty-timeline bit-identity + per-cycle outcome partitions
"""


class TestChaos:
    def test_table_is_pinned(self, capsys):
        """Every seeded chaos output feeds this table, so a change to a
        loop's draw order or retry policy shows up here as a diff."""
        code, out = run(capsys, "chaos", "--iters", "25", "--seed", "0")
        assert code == 0
        assert out == CHAOS_TABLE

    def test_floor_fails_the_first_run_below_it(self, capsys):
        code = main(["chaos", "--iters", "25", "--seed", "0", "--floor", "0.6"])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err[:2] == [
            "error: iteration 12 [switchsim]:",
            "  - delivered fraction 0.583 below floor 0.6",
        ]


class TestFuzz:
    def test_smoke_run_passes(self, capsys):
        code, out = run(
            capsys, "fuzz", "--iters", "5", "--seed", "0", "--corpus", "",
        )
        assert code == 0
        assert "ok:" in out
        assert "5 generated" in out

    def test_replays_checked_in_corpus(self, capsys):
        code, out = run(capsys, "fuzz", "--iters", "2", "--seed", "1")
        assert code == 0
        assert "corpus" in out

    def test_missing_corpus_noted_on_stderr(self, capsys):
        code = main(
            ["fuzz", "--iters", "2", "--corpus", "does/not/exist.jsonl"]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "not found" in err

    def test_family_table_printed(self, capsys):
        _, out = run(capsys, "fuzz", "--iters", "12", "--corpus", "")
        assert "generator" in out
        assert "cases" in out

    def test_malformed_corpus_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("not json\n")
        code = main(["fuzz", "--iters", "1", "--corpus", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid corpus" in err
        assert ":1:" in err  # names the offending line

    def test_failure_exits_3_with_reproducer(self, capsys, monkeypatch):
        from repro.verify import ConformanceError, FuzzCase
        from repro.verify.oracle import DifferentialOracle

        def always_fail(self, case):
            raise ConformanceError(case, ["injected failure"])

        monkeypatch.setattr(DifferentialOracle, "check", always_fail)
        code = main(["fuzz", "--iters", "1", "--corpus", ""])
        captured = capsys.readouterr()
        assert code == 3
        assert "error: corpus line:" in captured.err
        assert "injected failure" in captured.err
        # the reproducer line on stderr parses back into the case
        line = [
            l for l in captured.err.splitlines() if "corpus line:" in l
        ][0]
        FuzzCase.from_json(line.split("corpus line:", 1)[1].strip())
        assert "DifferentialOracle" in captured.err  # paste-able snippet

