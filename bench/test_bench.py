"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads


class TamperingCLI:
    """The real CLI, except that every circumcenter radius it writes is
    off by 1/1000."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        code = self.cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        doc = json.loads(out.read_text())
        for piece in doc["pieces"]:
            piece["radius"] = str(Fraction(piece["radius"]) + Fraction(1, 1000))
        out.write_text(json.dumps(doc))
        return code


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, as in a benchmark run."""
    with tempfile.TemporaryDirectory(dir=run.out_dir()) as tmp:
        yield Path(tmp)


def test_tampered_radius_raises_fail_ratio(workdir):
    cli = run.load_cli()
    honest = run.Session(cli, workdir)
    tampered = run.Session(TamperingCLI(cli), workdir)
    with_pieces = 0
    for req in workloads.WORKLOADS["merge-heavy"].requests(0, 1):
        honest.run(req)
        with_pieces += bool(json.loads(tampered.run(req)[1])["pieces"])
    assert honest.failed == 0
    assert with_pieces > 0 and tampered.failed == with_pieces


def test_traced_calls_repeat_exactly(workdir):
    session = run.Session(run.load_cli(), workdir)
    reqs = (workloads.WORKLOADS["merge-heavy"].requests(3, 1)
            + workloads.WORKLOADS["campaigns"].requests(3, 1)
            + workloads.WORKLOADS["pnorm-queries"].requests(3, 1)[:8])
    counts = []
    for _ in range(2):
        tracer, _ = run.traced_pass(session, reqs)
        counts.append({k: v for k, v in tracer.layer_metrics().items() if k.endswith(".calls")})
    assert session.failed == 0
    assert counts[0] == counts[1]
    assert counts[0]["feasibility.feasible.probe.calls"] > 0
    assert counts[0]["equivalence.run_campaign.calls"] == 7


def _metrics(capsys, *args):
    assert run.main(["--workload", "pnorm-queries", "--seed", "0", *args]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def test_printed_metrics_match_benchmark_json(capsys):
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, spec in (("0", "end_to_end"), ("1", "per_layer")):
        metrics = _metrics(capsys, "--seconds", "0.1", "--trace", trace)
        assert {k: v["unit"] for k, v in metrics.items()} == {
            m["name"]: m["unit"] for m in benchmark[spec]
        }
